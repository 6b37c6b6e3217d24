"""Round-trip exactness of the wire formats and generator completion."""

import copy
import enum
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from gammaspace import jsonio, suite
from gammaspace.catcore import FinCat, poset_category, terminal_category, walking_iso_category
from gammaspace.cocart import OverObject, nelg
from gammaspace.corpus import glued_presentation, presented_corpus, z2_monoid_space
from gammaspace.gammaop import GammaBase, GammaMorphism, enumerate_homs, gamma_base
from gammaspace.marked import mark
from gammaspace.nerve import nerve
from gammaspace.shapes import boundary, sphere_zero, standard_point, standard_simplex
from gammaspace.gspace import gamma_rep
from gammaspace.simplicial import SimplexRef, SimpMap, constant_map, identity_map, iso_check
from gammaspace.verdicts import HOLDS
from test_cli import _gamma_relative_blob


def test_simpset_round_trip_bit_exact():
    for x in [standard_simplex(2), boundary(2), sphere_zero(),
              nerve(walking_iso_category(), bound=2)]:
        blob = jsonio.canonical_dumps(jsonio.simpset_to_json(x))
        back = jsonio.simpset_from_json(json.loads(blob))
        assert jsonio.canonical_dumps(jsonio.simpset_to_json(back)) == blob
        assert iso_check(back, x).status == HOLDS


def test_marked_round_trip():
    j = nerve(walking_iso_category(), bound=2)
    m = mark(j, "sharp")
    blob = jsonio.canonical_dumps(jsonio.marked_to_json(m))
    back = jsonio.marked_from_json(json.loads(blob))
    assert back.marked == m.marked
    assert jsonio.canonical_dumps(jsonio.marked_to_json(back)) == blob


def test_category_round_trip():
    for c in [poset_category(2), walking_iso_category()]:
        blob = jsonio.canonical_dumps(jsonio.category_to_json(c))
        back = jsonio.category_from_json(json.loads(blob))
        assert jsonio.canonical_dumps(jsonio.category_to_json(back)) == blob


def test_gamma_morphism_round_trip():
    f = GammaMorphism(3, 2, (0, 1, 2))
    back = jsonio.gamma_morphism_from_json(jsonio.gamma_morphism_to_json(f))
    assert back == f


def test_presented_round_trip():
    for name, p in presented_corpus():
        blob = jsonio.canonical_dumps(jsonio.presented_to_json(p))
        back = jsonio.presented_from_json(json.loads(blob))
        for n in range(3):
            assert iso_check(back.evaluate(n), p.evaluate(n)).status == HOLDS, name


def test_tabulated_round_trip_and_completion():
    x = z2_monoid_space(2)
    blob = jsonio.tabulated_to_json(x)
    back = jsonio.tabulated_from_json(blob)
    for n in range(3):
        assert iso_check(back.value(n), x.value(n)).status == HOLDS
    for f in enumerate_homs(2, 1):
        assert back.action(f) == x.action(f)


def _listing(x, gens):
    """x written out with its action listed on gens only, in their order."""
    blob = jsonio.tabulated_to_json(x)
    by_map = {(e["map"]["src"], e["map"]["dst"], tuple(e["map"]["map"])): e
              for e in blob["action"]}
    blob["action"] = [by_map[(f.src, f.dst, f.table)] for f in gens]
    return blob


def test_tabulated_generator_completion_needs_folds():
    # projections, inert surjections and active injections alone do not
    # reach the folds, so the loader must reject that generating set
    x = z2_monoid_space(2)
    gens = []
    for n in range(3):
        for m in range(3):
            for f in enumerate_homs(n, m):
                inert_surj = f.is_inert()
                active_inj = f.is_active() and len(set(f.table)) == len(f.table)
                if inert_surj or active_inj:
                    gens.append(f)
    blob = _listing(x, gens)
    with pytest.raises(ValueError):
        jsonio.tabulated_from_json(blob)
    # adding the fold fixes the closure at these levels
    gens2 = gens + [GammaMorphism(2, 1, (1, 1)), GammaMorphism(2, 2, (1, 1)),
                    GammaMorphism(1, 2, (1,)), GammaMorphism(1, 2, (2,))]
    blob2 = _listing(x, gens2)
    back = jsonio.tabulated_from_json(blob2)
    assert back.action(GammaMorphism(2, 1, (1, 1))) == x.action(GammaMorphism(2, 1, (1, 1)))


def _swap_acting_as_identity():
    """z2_monoid_space(3), but the swap (2,1,3) of 3+ acts as the identity:
    functorial on levels <= 2, not on level 3."""
    blob = jsonio.tabulated_to_json(z2_monoid_space(3))
    by_table = {tuple(e["map"]["map"]): e for e in blob["action"]
                if e["map"]["src"] == e["map"]["dst"] == 3}
    by_table[(2, 1, 3)]["simp_map"] = by_table[(1, 2, 3)]["simp_map"]
    return blob


def test_non_functorial_top_level_is_refused():
    # a check of levels <= 2 alone accepts it, and its Segal maps hold
    with pytest.raises(ValueError, match="not functorial"):
        jsonio.tabulated_from_json(_swap_acting_as_identity())


def _level_three_generators():
    """The automorphisms, the maps down one level and the inclusions up one
    level, between levels 0..3: the closure composes every based map."""
    return [f for f in GammaBase(3).arrow_ids() if f.src == f.dst or f.dst == f.src - 1
            or (f.dst == f.src + 1 and f.table == tuple(range(1, f.src + 1)))]


def test_complete_and_generated_loads_agree():
    x = z2_monoid_space(3)
    complete = jsonio.tabulated_from_json(jsonio.tabulated_to_json(x))
    gens = _level_three_generators()
    closed = jsonio.tabulated_from_json(_listing(x, gens))
    for f in GammaBase(3).arrow_ids():
        assert complete.action(f) == closed.action(f) == x.action(f)


@pytest.mark.parametrize("generated", [False, True])
def test_a_load_validates_each_listed_map_once(monkeypatch, generated):
    # the listed maps are validated as they are read; the maps the closure
    # composes and the check of the laws validate none again
    gens = _level_three_generators()
    x = z2_monoid_space(3)
    blob = _listing(x, gens) if generated else jsonio.tabulated_to_json(x)
    validated = _counted_validations(monkeypatch)
    jsonio.tabulated_from_json(blob)
    assert len(validated) == len(blob["action"]) == (len(gens) if generated else 144)


@pytest.mark.parametrize("kind,count", [("relative_input", 23), ("over_object", 1)])
def test_a_diagram_load_validates_each_map_once(monkeypatch, kind, count):
    # each map is validated as it is read, and the diagram's laws validate
    # none again: the 23 arrows of the level-2 Z/2 diagram over the based-set
    # base, and the projection of an over-object
    blob = (_gamma_relative_blob() if kind == "relative_input"
            else jsonio.over_object_to_json(nelg(1, 1)[0]))
    validated = _counted_validations(monkeypatch)
    getattr(jsonio, f"{kind}_from_json")(blob)
    assert len(validated) == count


def _counted_validations(monkeypatch):
    """The list of the maps that `SimpMap.validate` checks from now on."""
    validated = []
    validate = SimpMap.validate

    def counted(self, *args, **kwargs):
        validated.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(SimpMap, "validate", counted)
    return validated


@pytest.mark.parametrize("load", [
    jsonio.simpset_from_json, jsonio.marked_from_json, jsonio.category_from_json,
    jsonio.gamma_morphism_from_json, jsonio.tabulated_from_json,
    jsonio.presented_from_json, jsonio.relative_input_from_json,
    jsonio.over_object_from_json, jsonio.arrow_from_json, jsonio.ref_from_json,
    lambda data: jsonio.simpmap_from_json(data, standard_simplex(0), standard_simplex(0)),
], ids=lambda f: getattr(f, "__name__", "simpmap_from_json"))
def test_loaders_refuse_non_objects(load):
    for data in ([1, 2], 3, None):
        with pytest.raises(ValueError, match="JSON object"):
            load(data)


# shapes that pass the top-level object check but are malformed inside
NESTED_MALFORMED = {
    "cell-is-number": {"dim_bound": 1, "cells": {"0": [5]}},
    "id-not-string": {"dim_bound": 1, "cells": {"0": [{"id": 5}]}},
    "faces-not-list": {"dim_bound": 1, "cells": {"0": [{"id": "a", "faces": 7}]}},
    "cells-of-dim-not-list": {"dim_bound": 1, "cells": {"0": "ab"}},
    "cells-not-object": {"dim_bound": 1, "cells": [1]},
    "bound-not-int": {"dim_bound": "1", "cells": {}},
    "deg-not-list": {"dim_bound": 1, "cells": {
        "0": [{"id": "a", "faces": []}],
        "1": [{"id": "e", "faces": [{"base": "a", "deg": 3}, "a"]}]}},
    "base-not-string": {"dim_bound": 1, "cells": {
        "0": [{"id": "a", "faces": []}],
        "1": [{"id": "e", "faces": [{"base": 1, "deg": []}, "a"]}]}},
}


@pytest.mark.parametrize("shape", sorted(NESTED_MALFORMED))
def test_simpset_loader_refuses_nested_malformed(shape):
    with pytest.raises(ValueError, match="expected"):
        jsonio.simpset_from_json(NESTED_MALFORMED[shape])


def _presented_at_level(level):
    blob = jsonio.presented_to_json(gamma_rep(1))
    blob["cells"][0]["level"] = level
    return blob


# each of these loaded without complaint
OUT_OF_RANGE = {
    "negative-dim-bound": (jsonio.simpset_from_json, {"dim_bound": -1, "cells": {}}),
    "cells-above-dim-bound": (jsonio.simpset_from_json, {"dim_bound": 0, "cells": {
        "0": [{"id": "a"}, {"id": "b"}], "1": [{"id": "e", "faces": ["a", "b"]}]}}),
    "cells-below-dim-zero": (jsonio.simpset_from_json, {"dim_bound": 0, "cells": {
        "0": [{"id": "a"}], "-1": []}}),
    "negative-level-bound": (jsonio.tabulated_from_json,
                             {"level_bound": -1, "values": {}, "action": []}),
    "negative-cell-level": (jsonio.presented_from_json, _presented_at_level(-2)),
    "negative-based-map-src": (jsonio.gamma_morphism_from_json,
                               {"src": -1, "dst": 0, "map": []}),
    "negative-based-map-dst": (jsonio.gamma_morphism_from_json,
                               {"src": 0, "dst": -1, "map": []}),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_loaders_refuse_out_of_range(case):
    load, data = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match="non-negative|outside"):
        load(data)


def _tabulated_blob(**changes):
    blob = jsonio.tabulated_to_json(z2_monoid_space(1))
    blob.update(changes)
    return blob


def test_tabulated_loader_refuses_values_outside_the_levels():
    # an extra level above level_bound used to load without complaint
    blob = _tabulated_blob()
    blob["values"]["7"] = blob["values"]["1"]
    with pytest.raises(ValueError, match="level 7 of the values lies outside 0..1"):
        jsonio.tabulated_from_json(blob)


def test_tabulated_loader_names_a_missing_level():
    # a missing level used to surface as a bare KeyError(1)
    blob = _tabulated_blob()
    del blob["values"]["1"]
    with pytest.raises(ValueError, match="no values at level 1 of 0..1"):
        jsonio.tabulated_from_json(blob)


def test_tabulated_loader_refuses_action_outside_the_levels():
    blob = _tabulated_blob(level_bound=0)
    del blob["values"]["1"]
    with pytest.raises(ValueError, match="level 1 of an action map lies outside 0..0"):
        jsonio.tabulated_from_json(blob)


# -- malformed documents, by mutation of valid ones ---------------------------


def _valid_documents():
    """(loader name, loader, a valid document it reads) for every
    `*_from_json` loader."""
    d1, pt = standard_simplex(1), standard_simplex(0)
    collapse = constant_map(d1, pt, "0")
    npt = nerve(terminal_category(), bound=1)
    d1_cut = d1.rebound(1)
    over = OverObject(mark(d1_cut, "flat"), constant_map(d1_cut, npt, "o*"))
    base = poset_category(1)
    relative = {
        "base": jsonio.category_to_json(base),
        "diagram": {
            "values": {o: jsonio.simpset_to_json(d1) for o in base.objects},
            "arrows": {f: jsonio.simpmap_to_json(identity_map(d1)) for f in base.arrows},
        },
    }
    return [
        ("ref", jsonio.ref_from_json, {"base": "a", "deg": [1, 0]}),
        ("simpset", jsonio.simpset_from_json, jsonio.simpset_to_json(sphere_zero())),
        ("simpset-truncated", jsonio.simpset_from_json,
         jsonio.simpset_to_json(nerve(walking_iso_category(), bound=2))),
        ("simpmap", lambda data: jsonio.simpmap_from_json(data, d1, pt),
         jsonio.simpmap_to_json(collapse)),
        ("arrow", jsonio.arrow_from_json, {
            "source": jsonio.simpset_to_json(d1), "target": jsonio.simpset_to_json(pt),
            "map": jsonio.simpmap_to_json(collapse)}),
        ("marked", jsonio.marked_from_json, jsonio.marked_to_json(mark(d1, "sharp"))),
        ("category", jsonio.category_from_json,
         jsonio.category_to_json(walking_iso_category())),
        ("gamma-morphism", jsonio.gamma_morphism_from_json,
         jsonio.gamma_morphism_to_json(GammaMorphism(2, 1, (1, 0)))),
        ("tabulated", jsonio.tabulated_from_json, jsonio.tabulated_to_json(z2_monoid_space(1))),
        ("presented", jsonio.presented_from_json, jsonio.presented_to_json(glued_presentation())),
        ("relative-input", jsonio.relative_input_from_json, relative),
        ("over-object", jsonio.over_object_from_json, jsonio.over_object_to_json(over)),
    ]


VALID_DOCUMENTS = _valid_documents()


def _positions(doc, path=()):
    """Every nested position of a JSON value, as a key path, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _positions(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_DROP = object()


def _replacements(doc, path):
    """What may take the place of the value at path: nothing (the key is
    dropped) where it sits in an object, a value of each other JSON type,
    the value nested one level too deep, and a negative number."""
    old = _at(doc, path)
    drop = [_DROP] if path and isinstance(_at(doc, path[:-1]), dict) else []
    return drop + [v for v in (5, "x", [5], {"x": 5}, None, True) if type(v) is not type(old)] + [
        [old], -1 - old if type(old) is int else -1]


def _mutated(doc, path, new):
    """doc with the value at path replaced by new, or dropped for _DROP."""
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = _at(doc, path[:-1])
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_loaders_refuse_mutated_documents_with_value_error(data):
    _, load, doc = data.draw(st.sampled_from(VALID_DOCUMENTS), label="loader")
    path = data.draw(st.sampled_from(list(_positions(doc))), label="path")
    new = data.draw(st.sampled_from(_replacements(doc, path)), label="new value")
    # a refusal is a ValueError (exit 3 at the command line); a TypeError,
    # KeyError or AttributeError from inside fails the test
    try:
        load(_mutated(doc, path, new))
    except ValueError:
        pass


# mutations the test above found, each of which raised a KeyError
MUTATED_MALFORMED = {
    "arrow-without-source": ("arrow", ("source",)),
    "arrow-without-target": ("arrow", ("target",)),
    "arrow-without-map": ("arrow", ("map",)),
    "category-object-without-identity": ("category", ("identities", "0")),
    "relative-input-object-without-value": ("relative-input", ("diagram", "values", "0")),
    "relative-input-arrow-without-map": ("relative-input", ("diagram", "arrows", "le01")),
    "over-object-without-proj": ("over-object", ("proj",)),
    "over-object-without-base-nerve": ("over-object", ("base_nerve",)),
}


@pytest.mark.parametrize("case", sorted(MUTATED_MALFORMED))
def test_loaders_refuse_a_dropped_key_with_value_error(case):
    name, path = MUTATED_MALFORMED[case]
    load, doc = next((load, doc) for n, load, doc in VALID_DOCUMENTS if n == name)
    with pytest.raises(ValueError, match="expected"):
        load(_mutated(doc, path, _DROP))


# degeneracy words for the edge of Delta[1] that are not strictly decreasing
# in 0..0; the face of an image is read off its word alone, so each must be
# refused where it enters
EDGE_WORDS_OUT_OF_NORMAL_FORM = {"negative": [-1], "equal-to-dim": [1], "beyond-dim": [3]}


@pytest.mark.parametrize("case", sorted(EDGE_WORDS_OUT_OF_NORMAL_FORM))
def test_map_images_out_of_normal_form_are_refused(case):
    deg = EDGE_WORDS_OUT_OF_NORMAL_FORM[case]
    d1, pt = standard_simplex(1), standard_point()
    doc = jsonio.simpmap_to_json(constant_map(d1, pt, "0"))
    assert doc["assignment"]["1"]["01"] == {"base": "0", "deg": [0]}
    jsonio.simpmap_from_json(doc, d1, pt)
    doc["assignment"]["1"]["01"]["deg"] = deg
    with pytest.raises(ValueError, match=re.escape(f"has degeneracy word {deg};")):
        jsonio.simpmap_from_json(doc, d1, pt)


@pytest.mark.parametrize("dim, name", [("1", "zz"), ("7", "q")])
def test_map_assignments_of_no_source_cell_are_refused(dim, name):
    # such an entry used to be kept unchecked, and the loaded identity of
    # Delta[1] then differed from identity_map
    d1 = standard_simplex(1)
    doc = jsonio.simpmap_to_json(identity_map(d1))
    jsonio.simpmap_from_json(doc, d1, d1)
    doc["assignment"].setdefault(dim, {})[name] = {"base": "01", "deg": []}
    with pytest.raises(ValueError, match=f"names {name!r} in dim {dim}, which is no source cell"):
        jsonio.simpmap_from_json(doc, d1, d1)


def _stdlib_dumps(value):
    """The encoder `canonical_dumps` must match byte for byte."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _both_dumps(value):
    """(canonical_dumps, the stdlib): each the text, or the type it raised."""
    out = []
    for dumps in (jsonio.canonical_dumps, _stdlib_dumps):
        try:
            out.append(dumps(value))
        except (TypeError, ValueError) as exc:
            out.append(type(exc))
    return out


_AWKWARD_FLOATS = [-0.0, 0.1, 1e300, -1e-300, float("nan"), float("inf"), float("-inf")]
_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€ \ud800😀'),
                             st.characters()), max_size=6)
_SCALARS = st.one_of(
    _STRINGS, st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(), st.sampled_from(_AWKWARD_FLOATS))
# keys of one dict are of one sortable kind; mixing the kinds is pinned below
_KEYS = [_STRINGS, st.one_of(st.integers(), st.booleans()),
         st.one_of(st.floats(), st.sampled_from(_AWKWARD_FLOATS), st.integers()), st.none()]


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *[st.dictionaries(keys, children, max_size=4) for keys in _KEYS])


@given(st.recursive(_SCALARS, _containers, max_leaves=24))
@settings(max_examples=300, deadline=None)
def test_canonical_dumps_writes_the_stdlib_text(value):
    ours, theirs = _both_dumps(value)
    assert ours == theirs


class _Level(enum.IntEnum):
    TOP = 3


class _Label(str):
    pass


class _Seconds(float):
    pass


PINNED_VALUES = {
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "nested-empties": {"a": {}, "b": [], "c": [[], {}, ()]},
    "simplex-ref": SimplexRef("x", (1, 0)),
    "bare-simplex-ref": [SimplexRef("y"), {"ref": SimplexRef("z", (0,))}],
    "gamma-morphism": GammaMorphism(3, 2, (0, 1, 2)),
    "top-level-string": 'a "quoted" \\ line\n',
    "top-level-none": None,
    "scalar-keys": {1.5: "a", 2: "b", True: "c", -0.0: "d"},
    "special-float-keys": {float("nan"): 0, float("inf"): 1, float("-inf"): 2},
    "none-key": {None: [None, True, False]},
    "big-int": [2 ** 100, -(2 ** 100)],
    "scalar-subclasses": [_Level.TOP, _Label("x"), _Seconds(0.5),
                          {_Level.TOP: 0, _Seconds(0.5): 1}, {_Label("k"): _Label("v")}],
}


@pytest.mark.parametrize("case", sorted(PINNED_VALUES))
def test_canonical_dumps_writes_pinned_values_as_the_stdlib(case):
    ours, theirs = _both_dumps(PINNED_VALUES[case])
    assert isinstance(ours, str) and ours == theirs


@pytest.mark.parametrize("value", [{1, 2}, {"a": {1, 2}}, {"a": 1, 2: "b"}, [{None: 0, 1: 2}],
                                   {("a",): 1}, object()],
                         ids=["set", "nested-set", "str-and-int-keys", "none-and-int-keys",
                              "tuple-key", "object"])
def test_canonical_dumps_refuses_what_the_stdlib_refuses(value):
    ours, theirs = _both_dumps(value)
    assert ours is theirs is TypeError


def test_canonical_dumps_writes_every_check_suite_report_as_the_stdlib(monkeypatch, capsys):
    from gammaspace import cli

    bodies = []
    dumps = jsonio.canonical_dumps

    def recorded(body):
        bodies.append(body)
        return dumps(body)

    monkeypatch.setattr(jsonio, "canonical_dumps", recorded)
    cli.main(["check-suite"])
    (body,) = bodies
    assert capsys.readouterr().out == _stdlib_dumps(body) == dumps(body)
    assert len(body["verdicts"]) == len(suite.SUITE)
    for verdict in body["verdicts"]:
        assert dumps(verdict) == _stdlib_dumps(verdict)


def test_a_based_set_base_is_recognised_without_validating_the_category(monkeypatch):
    # units and associativity of a recognised base are those of `then`, so
    # the level-3 Z/2 input loads without `FinCat.validate` (704,836
    # composable triples), the loader's check of every entry standing in
    blob = _gamma_relative_blob(3)
    monkeypatch.setattr(FinCat, "__init__", FinCat.__init__.__wrapped__)
    monkeypatch.setattr(FinCat, "validate", lambda self: pytest.fail("validated the base"))
    family = jsonio.relative_input_from_json(blob)
    assert family.base is gamma_base(3)
    m = z2_monoid_space(3)
    assert all(family.action(f).key() == m.action(f).key() for f in m.base.arrow_ids())
