"""Finite categories: subgroupoids, slices, the functor search, functor
categories."""

import itertools

import pytest

from gammaspace.catcore import (
    CatFunctor,
    FinCat,
    all_functors,
    coslice_category,
    cyclic_group_category,
    discrete_category,
    functor_category,
    max_subgroupoid,
    poset_category,
    terminal_category,
    walking_iso_category,
)
from gammaspace.cocart import gamma_subcategory
from gammaspace.corpus import category_corpus, iso_with_tail_category
from gammaspace.verdicts import Budget, backtrack
from test_nerve import product_category, renamed


def test_validation_catches_bad_tables():
    # right unit law broken: f o id = id
    with pytest.raises(ValueError):
        FinCat(["a"], {"ida": ("a", "a"), "f": ("a", "a")},
               {"a": "ida"},
               {("ida", "ida"): "ida", ("f", "ida"): "ida", ("ida", "f"): "f",
                ("f", "f"): "ida"}).validate()


def test_validation_refuses_stray_entries():
    # a table lists exactly the composable pairs; these two entries used to
    # be accepted unchecked
    c = poset_category(1)
    for stray in [("le01", "le01"), ("zz", "qq")]:
        with pytest.raises(ValueError, match=f"composes {stray[0]!r} o {stray[1]!r},"
                                             " which is no composable pair"):
            FinCat(c.objects, c.arrows, c.identities, {**c.compose_table, stray: "le00"})


def test_validation_refuses_a_composite_that_names_no_arrow():
    # used to raise a bare KeyError, which is no input error at the CLI
    c = poset_category(1)
    with pytest.raises(ValueError, match="'le11' o 'le01' is 'nope', not an arrow"):
        FinCat(c.objects, c.arrows, c.identities,
               {**c.compose_table, ("le11", "le01"): "nope"})


def test_every_category_built_in_tier_one_is_validated():
    # tests/conftest.py validates each FinCat as it is constructed
    with pytest.raises(ValueError, match="right unit law fails"):
        FinCat(["a"], {"ida": ("a", "a"), "f": ("a", "a")}, {"a": "ida"},
               {("ida", "ida"): "ida", ("f", "ida"): "ida", ("ida", "f"): "f",
                ("f", "f"): "ida"})


@pytest.mark.parametrize("name,c", category_corpus())
def test_constructed_functors_are_functors(name, c):
    # the constructions trust their input and do not check their functors
    max_subgroupoid(c)[1].validate()
    for a in c.objects:
        coslice_category(c, a)[1].validate()


def iso_class_count(c):
    """The objects of c that are isomorphic to no object before them."""
    return sum(not any(c.iso_objects(b, a) for b in c.objects[:k])
               for k, a in enumerate(c.objects))


def test_full_faithful_essentially_surjective_functors_keep_iso_classes():
    # why segal_check's ho-necessary tier counts no iso classes: an
    # equivalence has as many in its source as in its target
    corpus = category_corpus()
    equivalences = 0
    for _, c in corpus:
        for _, d in corpus:
            for fun in all_functors(c, d):
                if fun.is_full_faithful_ess_surjective()[0]:
                    assert iso_class_count(c) == iso_class_count(d)
                    equivalences += 1
    assert equivalences == 20


def test_max_subgroupoid():
    jw, incl = max_subgroupoid(walking_iso_category())
    assert len(jw.arrows) == 4
    jp, _ = max_subgroupoid(poset_category(2))
    assert len(jp.arrows) == 3
    jx, _ = max_subgroupoid(iso_with_tail_category())
    assert sorted(jx.arrows) == ["ida", "idb", "idc", "u", "v"]
    # idempotent
    again, _ = max_subgroupoid(jx)
    assert sorted(again.arrows) == sorted(jx.arrows)


def test_equivalence_check():
    # the cat-equiv tier's route: an equivalence is a functor that is full,
    # faithful and essentially surjective, found by the functor search
    def equivalences(c, d):
        return [f for f in all_functors(c, d) if f.is_full_faithful_ess_surjective()[0]]

    t = terminal_category()
    w = walking_iso_category()
    assert equivalences(w, t) and equivalences(t, w)
    assert not equivalences(discrete_category(["a", "b"]), t)
    for name, c in category_corpus():
        assert equivalences(c, c), name
    # equivalent categories have equal iso-class counts and matching
    # hom-set cardinalities between images
    assert iso_class_count(w) == iso_class_count(t) == 1
    witness = equivalences(w, t)[0]
    for a in w.objects:
        for b in w.objects:
            assert len(w.hom(a, b)) == len(t.hom(witness.obj(a), witness.obj(b)))


def test_skeleton_collapses_isos():
    # collapsing the walking iso onto one object is an equivalence of it
    # with itself, as a skeleton's retraction followed by its inclusion is
    w = walking_iso_category()
    collapses = [f for f in all_functors(w, w)
                 if len({f.obj(a) for a in w.objects}) == 1]
    assert len(collapses) == 2
    for f in collapses:
        assert f.is_full_faithful_ess_surjective()[0]


def test_coslice():
    t = terminal_category()
    ct, proj, _ = coslice_category(t, "*")
    assert len(ct.objects) == 1
    c1, proj1, _ = coslice_category(poset_category(1), "0")
    proj1.validate()
    assert proj1.is_full_faithful_ess_surjective()[0]
    # fibers of the projection biject with hom(c, x)
    p2 = poset_category(2)
    cos, proj2, _ = coslice_category(p2, "0")
    for x in p2.objects:
        fiber = [o for o in cos.objects if proj2.obj(o) == x]
        assert len(fiber) == len(p2.hom("0", x))


def _two_triangles_one_name(a_b="a_b"):
    """Objects x, y, z; arrows a, a_b: x -> y, b_c, c: x -> z, d: y -> z,
    with d o a = b_c and d o a_b = c, so that the triangles (a, b_c, d)
    and (a_b, c, d) of x/C are both named ta_b_c_d.  `a_b` renames the
    second arrow out of x."""
    arrows = {"ix": ("x", "x"), "iy": ("y", "y"), "iz": ("z", "z"), "a": ("x", "y"),
              a_b: ("x", "y"), "b_c": ("x", "z"), "c": ("x", "z"), "d": ("y", "z")}
    identities = {"x": "ix", "y": "iy", "z": "iz"}
    compose = {("d", "a"): "b_c", ("d", a_b): "c"}
    for f, (s, t) in arrows.items():
        compose[(identities[t], f)] = compose[(f, identities[s])] = f
    return FinCat(["x", "y", "z"], arrows, identities, compose)


def test_coslice_refuses_two_triangles_with_one_name():
    with pytest.raises(ValueError, match="both named 'ta_b_c_d'"):
        coslice_category(_two_triangles_one_name(), "x")
    # renamed apart, x/C has all 11 commuting triangles: 5 out of the
    # identity of x, 2 out of each of a and e (over iy and d), 1 out of
    # each of b_c and c
    cos, proj, _ = coslice_category(_two_triangles_one_name(a_b="e"), "x")
    c = _two_triangles_one_name(a_b="e")
    want = sum(c.compose(h, f) == g for f in cos.objects for g in cos.objects
               for h in c.hom(c.dst(f), c.dst(g)))
    assert len(cos.arrows) == want == 11
    proj.validate()


def test_product_and_functor_categories():
    p1 = poset_category(1)
    pc = product_category(p1, p1)
    assert len(pc.objects) == 4 and len(pc.arrows) == 9
    fc, objs, _ = functor_category(p1, p1)
    assert len(fc.objects) == 3
    z2 = cyclic_group_category(2)
    fz, _, _ = functor_category(z2, z2)
    assert len(fz.objects) == 2
    assert len(all_functors(p1, poset_category(2))) == 6


def test_product_category_names_colliding_pairs_apart():
    # the oracle of the nerve's product tests; the pairs (a, b,c) and
    # (a,b, c) used to be merged into the one object a,b,c
    pc = product_category(discrete_category(["a", "a,b"]), discrete_category(["b,c", "c"]))
    assert sorted(pc.objects) == [r"a,b\,c", "a,c", r"a\,b,b\,c", r"a\,b,c"]


def test_natural_transformations_compose():
    p1 = poset_category(1)
    fc, objs, data = functor_category(p1, poset_category(1))
    fc.validate()
    ids = [f for f in fc.arrow_ids() if fc.is_identity(f)]
    assert len(ids) == len(fc.objects)


# ---------------------------------------------------------------------------
# the checks that read the composable pairs off the table, against the
# all-pairs and all-triples scans they replace


def all_triples_validate(objects, arrows, identities, compose):
    """`FinCat.validate` as it was before tables had one entry per
    composable pair: it scans every pair and triple of arrows and checks
    the composable ones, so it never reads a stray entry.  Raises
    ValueError, or KeyError on a composite that names no arrow."""
    def src(f):
        return arrows[f][0]

    def dst(f):
        return arrows[f][1]

    if set(identities) != set(objects):
        raise ValueError("expected one identity for each object")
    for f, ends in arrows.items():
        if not set(ends) <= set(objects):
            raise ValueError(f"arrow {f!r} meets a missing object")
    for obj, e in identities.items():
        if arrows.get(e) != (obj, obj):
            raise ValueError(f"identity of {obj!r} has wrong endpoints")
    for g, (gs, gd) in arrows.items():
        for f, (fs, fd) in arrows.items():
            if fd == gs:
                if (g, f) not in compose:
                    raise ValueError(f"composite {g!r} o {f!r} missing")
                h = compose[(g, f)]
                if arrows[h] != (fs, gd):
                    raise ValueError(f"composite {g!r} o {f!r} has wrong endpoints")
    for f, (fs, fd) in arrows.items():
        if compose[(f, identities[fs])] != f:
            raise ValueError(f"right unit law fails at {f!r}")
        if compose[(identities[fd], f)] != f:
            raise ValueError(f"left unit law fails at {f!r}")
    for h in arrows:
        for g in arrows:
            if dst(g) != src(h):
                continue
            for f in arrows:
                if dst(f) != src(g):
                    continue
                if compose[(compose[(h, g)], f)] != compose[(h, compose[(g, f)])]:
                    raise ValueError(f"associativity fails at {h!r},{g!r},{f!r}")


def _oracle_refusal(parts):
    """The check at which the oracle refuses, or None when it accepts."""
    try:
        all_triples_validate(*parts)
    except KeyError:
        return "names no arrow"
    except ValueError as e:
        return next(check for check in ("missing", "wrong endpoints", "unit law",
                                        "associativity") if check in str(e))
    return None


def _accepted(parts):
    """Does `FinCat.validate` accept a new category built of these parts?"""
    try:
        FinCat(*parts).validate()
    except ValueError:
        return False
    return True


def _corrupted_tables(c, entries):
    """Each corruption of c's table at the given entries, as a new table:
    the entry dropped, or retargeted to another arrow with the same ends
    (on an entry with an identity this breaks a unit, on others it may
    break associativity), to an arrow with other ends, or to a name that
    is no arrow."""
    table = c.compose_table
    for (g, f), h in entries:
        yield {k: v for k, v in table.items() if k != (g, f)}
        ends = c.arrows[h]
        targets = [x for x in c.hom(*ends) if x != h][:2]
        targets += [x for x, e in c.arrows.items() if e != ends][:1] + ["nope"]
        for x in targets:
            yield {**table, (g, f): x}


def test_validate_agrees_with_the_all_triples_scan():
    p1, z2 = poset_category(1), cyclic_group_category(2)
    corpus = [*category_corpus(), ("gamma-2", gamma_subcategory(2)),
              ("functors-arrow-arrow", functor_category(p1, p1)[0]),
              ("functors-z2-z2", functor_category(z2, z2)[0]),
              ("functors-arrow-iso", functor_category(p1, walking_iso_category())[0])]
    refusals = set()
    for name, c in corpus:
        parts = (c.objects, c.arrows, c.identities)
        assert _oracle_refusal((*parts, c.compose_table)) is None
        assert _accepted((*parts, c.compose_table))
        # every entry of a small table, a spread of about 24 of a large one
        entries = sorted(c.compose_table.items())
        for table in _corrupted_tables(c, entries[::max(1, len(entries) // 24)]):
            refusal = _oracle_refusal((*parts, table))
            assert _accepted((*parts, table)) == (refusal is None), (name, table)
            refusals.add(refusal)
        # a stray entry, on arrows of the category or named nowhere: the
        # scan never reads it, validate refuses it
        for stray in [(c.arrow_ids()[-1], c.arrow_ids()[0]), ("zz", "qq")]:
            table = {**c.compose_table, stray: c.arrow_ids()[0]}
            if stray not in c.compose_table:
                assert _oracle_refusal((*parts, table)) is None
                assert not _accepted((*parts, table)), (name, stray)
    assert refusals == {None, "missing", "wrong endpoints", "unit law", "associativity",
                        "names no arrow"}


def _all_pairs_functor_check(fun):
    """`CatFunctor.validate` as it was before it read the source's table:
    it scans every pair of source arrows and checks the composable ones."""
    c, d = fun.source, fun.target
    for f, (a, b) in c.arrows.items():
        if d.arrows[fun.arr(f)] != (fun.obj(a), fun.obj(b)):
            return False
    if any(fun.arr(c.identities[a]) != d.identities[fun.obj(a)] for a in c.objects):
        return False
    return all(fun.arr(c.compose(g, f)) == d.compose(fun.arr(g), fun.arr(f))
               for g in c.arrows for f in c.arrows if c.dst(f) == c.src(g))


def test_all_functors_agrees_with_the_all_pairs_scan():
    # every assignment of objects, and of arrows within the right hom-sets,
    # is a functor by the scan iff all_functors finds it
    corpus = category_corpus()
    for (_, c), (_, d) in itertools.product(corpus, corpus):
        moved = [f for f in c.arrow_ids() if not c.is_identity(f)]
        scanned = set()
        for images in itertools.product(d.objects, repeat=len(c.objects)):
            obj = dict(zip(c.objects, images))
            on_ids = {c.identities[a]: d.identities[obj[a]] for a in c.objects}
            for arrs in itertools.product(*(d.hom(obj[c.src(f)], obj[c.dst(f)]) for f in moved)):
                fun = CatFunctor(c, d, obj, {**on_ids, **dict(zip(moved, arrs))})
                if _all_pairs_functor_check(fun):
                    scanned.add(fun)
        assert set(all_functors(c, d)) == scanned


# ---------------------------------------------------------------------------
# the functor search, against the whole-assignment filter it replaces


def _oracle_functor_cells(c):
    """Search order for functors out of c: objects, then non-identity arrows."""
    return ([("obj", a) for a in c.objects]
            + [("arr", f) for f in c.arrow_ids() if not c.is_identity(f)])


def _oracle_functor(c, d, chosen):
    """The functor c -> d an assignment of `_oracle_functor_cells(c)` names,
    or None when it is not one."""
    on_objects = {a: chosen[("obj", a)] for a in c.objects}
    on_arrows = {c.identities[a]: d.identities[on_objects[a]] for a in c.objects}
    on_arrows.update((f, img) for (kind, f), img in chosen.items() if kind == "arr")
    try:
        return CatFunctor(c, d, on_objects, on_arrows).validate()
    except ValueError:
        return None


def oracle_all_functors(c, d, budget):
    """`all_functors` as it was: every full assignment, kept if it validates."""
    def candidates(cell, chosen):
        kind, x = cell
        if kind == "obj":
            pool = d.objects
        else:
            a, b = c.arrows[x]
            pool = d.hom(chosen[("obj", a)], chosen[("obj", b)])
        for img in pool:
            budget.spend()
            yield img

    found = (_oracle_functor(c, d, chosen)
             for chosen in backtrack(_oracle_functor_cells(c), candidates))
    return [fun for fun in found if fun is not None]


def _search_pairs():
    corpus = category_corpus()
    pairs = [(f"{a}->{b}", c, d) for a, c in corpus for b, d in corpus]
    for seed, (name, c) in enumerate(corpus):
        s = renamed(c, seed)
        pairs += [(f"{name}->shuffled", c, s), (f"shuffled->{name}", s, c)]
    return pairs


SEARCH_PAIRS = _search_pairs()


@pytest.mark.parametrize("c,d", [pytest.param(c, d, id=name) for name, c, d in SEARCH_PAIRS])
def test_functor_search_agrees_with_the_whole_assignment_filter(c, d):
    new, old = Budget(), Budget()
    assert [f.key() for f in all_functors(c, d, new)] == \
        [f.key() for f in oracle_all_functors(c, d, old)]
    assert new.used <= old.used


def test_functor_search_prunes():
    # checking each composite when its last arrow is drawn cuts the
    # subtrees that hold no functor
    used = {}
    for search in (all_functors, oracle_all_functors):
        budgets = [Budget() for _ in SEARCH_PAIRS]
        for (_, c, d), budget in zip(SEARCH_PAIRS, budgets):
            search(c, d, budget)
        used[search] = sum(b.used for b in budgets)
    assert used[all_functors] < used[oracle_all_functors]


def _scan_inverse(c, f):
    """The inverse of f by the scan `is_iso_arrow` ran."""
    a, b = c.arrows[f]
    for g in c.hom(b, a):
        if c.compose(g, f) == c.identities[a] and c.compose(f, g) == c.identities[b]:
            return g
    return None


def test_inverse_agrees_with_the_scan():
    p1 = poset_category(1)
    cats = [c for _, c in category_corpus()] + [
        gamma_subcategory(2),
        functor_category(p1, walking_iso_category())[0],
        functor_category(walking_iso_category(), iso_with_tail_category())[0],
        functor_category(cyclic_group_category(2), walking_iso_category())[0],
    ]
    for c in cats:
        assert {f: c.inverse(f) for f in c.arrows} == {f: _scan_inverse(c, f) for f in c.arrows}
