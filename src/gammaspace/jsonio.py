"""Canonical JSON encodings for every object the command line consumes or
emits; serialization sorts keys so round-trips are bit-exact."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .catcore import Diagram, FinCat
from .cocart import RelativeNerveInput, OverObject
from .gammaop import GammaMorphism, _gamma_arrow_name, based_map, gamma_base
from .gspace import CellArrow, GammaCell, PresentedGammaSpace, TabulatedGammaSpace
from .marked import MarkedSimpSet
from .simplicial import FinSimpSet, SimplexRef, SimpMap, identity_map


def ref_to_json(ref: SimplexRef):
    if not ref.degs:
        return ref.base
    return {"base": ref.base, "deg": list(ref.degs)}


def ref_from_json(data) -> SimplexRef:
    if isinstance(data, str):
        return SimplexRef(data)
    _expect(data, dict, "a simplex ref (or a cell id string)")
    return SimplexRef(_expect(data.get("base"), str, "a ref's base"),
                      tuple(_expect_list(data.get("deg"), "a ref's degeneracies", int)))


def simpset_to_json(x: FinSimpSet) -> dict:
    out = {
        "dim_bound": x.dim_bound,
        "cells": {
            str(n): [
                {"id": name, "faces": [ref_to_json(r) for r in x.faces_of(n, name)]}
                for name in x.cell_ids(n)
            ]
            for n in range(x.dim_bound + 1)
        },
    }
    if x.pointed is not None:
        out["pointed"] = x.pointed
    if not x.complete:
        out["truncated"] = True
    return out


def simpset_from_json(data) -> FinSimpSet:
    _expect(data, dict, "a simplicial set")
    bound = _count(data.get("dim_bound"), "dim_bound")
    table = _expect(data.get("cells", {}), dict, "the cells of a simplicial set")
    cells = {}
    for n_str, items in table.items():
        if not 0 <= int(n_str) <= bound:
            raise ValueError(f"cells of dimension {n_str} lie outside 0..{bound}")
        cells[int(n_str)] = {
            _expect(item.get("id"), str, "a cell id"): tuple(
                map(ref_from_json, _expect(item.get("faces", []), list, "a cell's faces")))
            for item in _expect_list(items, f"the cells of dimension {n_str}", dict)
        }
    pointed = data.get("pointed")
    if pointed is not None and not (isinstance(pointed, str) and pointed in cells.get(0, {})):
        raise ValueError(f"expected pointed to name a vertex, got {pointed!r}")
    truncated = _expect(data.get("truncated", False), bool, "truncated")
    return FinSimpSet(bound, cells, pointed=pointed, complete=not truncated).validate()


def simpmap_to_json(m: SimpMap) -> dict:
    out = {}
    for (n, name), ref in sorted(m.assignment.items()):
        out.setdefault(str(n), {})[name] = ref_to_json(ref)
    return {"assignment": out}


def simpmap_from_json(data, source: FinSimpSet, target: FinSimpSet) -> SimpMap:
    _expect(data, dict, "a simplicial map")
    assignment = {}
    for n_str, table in _expect(data.get("assignment"), dict, "a map's assignment").items():
        for name, ref in _expect(table, dict, f"the assignment in dim {n_str}").items():
            assignment[(int(n_str), name)] = ref_from_json(ref)
    return SimpMap(source, target, assignment).validate()


def arrow_from_json(data) -> SimpMap:
    """A map together with its ends: {"source": set, "target": set,
    "map": assignment}."""
    _expect(data, dict, "a map with its source and target")
    source = simpset_from_json(data.get("source"))
    target = simpset_from_json(data.get("target"))
    return simpmap_from_json(data.get("map"), source, target)


def marked_to_json(x: MarkedSimpSet) -> dict:
    out = simpset_to_json(x.underlying)
    out["marked"] = sorted(x.marked)
    return out


def marked_from_json(data) -> MarkedSimpSet:
    x = simpset_from_json(data)
    return MarkedSimpSet(x, _expect_list(data.get("marked", []), "the marked edges", str))


def category_to_json(c: FinCat) -> dict:
    return {
        "objects": list(c.objects),
        "arrows": [
            {"id": f, "src": s, "dst": d} for f, (s, d) in sorted(c.arrows.items())
        ],
        "identities": dict(sorted(c.identities.items())),
        "compose": sorted([g, f, h] for (g, f), h in c.compose_table.items()),
    }


def category_from_json(data) -> FinCat:
    """The category a JSON object spells, not yet validated (see
    `relative_input_from_json`)."""
    _expect(data, dict, "a finite category")
    arrows = {}
    for a in _expect_list(data.get("arrows"), "the arrows of a category", dict):
        f, src, dst = (_expect(a.get(k), str, f"an arrow's {k}")
                       for k in ("id", "src", "dst"))
        arrows[f] = (src, dst)
    identities = _expect(data.get("identities"), dict, "the identities of a category")
    _expect_list(list(identities.values()), "the identity arrows", str)
    compose = {}
    for entry in _expect_list(data.get("compose"), "the composition table", list):
        if len(_expect_list(entry, "a composite [g, f, g o f]", str)) != 3:
            raise ValueError(f"expected a composite [g, f, g o f], got {entry!r}")
        compose[(entry[0], entry[1])] = entry[2]
    objects = _expect_list(data.get("objects"), "the objects of a category", str)
    return FinCat(objects, arrows, identities, compose)


def gamma_morphism_to_json(f: GammaMorphism) -> dict:
    return {"src": f.src, "dst": f.dst, "map": list(f.table)}


def gamma_morphism_from_json(data) -> GammaMorphism:
    _expect(data, dict, "a based map")
    return based_map(
        _count(data.get("src"), "a based map's src"),
        _count(data.get("dst"), "a based map's dst"),
        tuple(_expect_list(data.get("map"), "a based map's table", int)),
    )


def tabulated_to_json(x: TabulatedGammaSpace) -> dict:
    """Serializes values plus the action on every morphism between levels.
    The loader also accepts the action on any generating set."""
    return {
        "level_bound": x.level_bound,
        "values": {
            str(n): simpset_to_json(x.value(n)) for n in range(x.level_bound + 1)
        },
        "action": [
            {
                "map": gamma_morphism_to_json(f),
                "simp_map": simpmap_to_json(x.action(f)),
            }
            for f in x.base.arrow_ids()
        ],
    }


def tabulated_from_json(data) -> TabulatedGammaSpace:
    """Loads values and completes the action from the generators by
    composition closure; errors if some based map is not covered, and
    checks identities and functoriality on every level read.  A file that
    lists every based map (as `tabulated_to_json` writes) needs
    no closure."""
    _expect(data, dict, "a tabulated level family")
    bound = _count(data.get("level_bound"), "level_bound")
    values = {
        _level(int(n), bound, "the values"): simpset_from_json(v)
        for n, v in _expect(data.get("values"), dict, "the values of a family").items()
    }
    for n in range(bound + 1):
        if n not in values:
            raise ValueError(f"no values at level {n} of 0..{bound}")
    action = {}
    for entry in _expect_list(data.get("action"), "the action of a family", dict):
        f = gamma_morphism_from_json(entry.get("map"))
        _level(max(f.src, f.dst), bound, "an action map")
        action[f] = simpmap_from_json(
            entry.get("simp_map"), values[f.src], values[f.dst]
        )
    gamma = gamma_base(bound)
    for n, ident in gamma.identities.items():
        action.setdefault(ident, identity_map(values[n]))
    every = gamma.arrow_ids()
    changed = any(f not in action for f in every)
    while changed:
        changed = False
        known = list(action.items())
        for (f1, m1) in known:
            for (f2, m2) in known:
                if f1.dst != f2.src:
                    continue
                f = f1.then(f2)
                if f not in action:
                    action[f] = m1.then(m2)
                    changed = True
    missing = [f for f in every if f not in action]
    if missing:
        raise ValueError(
            f"action generators do not compose to cover {missing[:3]}..."
            f" ({len(missing)} maps missing); include folds and inclusions"
        )
    space = TabulatedGammaSpace(
        bound, lambda n: values[n], lambda f: action[f]
    )
    # each listed map was checked as it was read, and composites and
    # identities of simplicial maps are simplicial
    return space.check_laws(level_cap=bound)


def presented_to_json(p: PresentedGammaSpace) -> dict:
    return {
        "cells": [
            {"level": c.level, "shape": simpset_to_json(c.shape)} for c in p.cells
        ],
        "glue": [
            {
                "src": a.src,
                "dst": a.dst,
                "gamma": gamma_morphism_to_json(a.gamma),
                "simp_map": simpmap_to_json(a.simp),
            }
            for a in p.arrows
        ],
    }


def presented_from_json(data) -> PresentedGammaSpace:
    _expect(data, dict, "a presented level family")
    cells = [
        GammaCell(_count(c.get("level"), "a cell's level"),
                  simpset_from_json(c.get("shape")))
        for c in _expect_list(data.get("cells"), "the cells of a presentation", dict)
    ]
    arrows = []
    for a in _expect_list(data.get("glue", []), "the gluing arrows", dict):
        src, dst = (_expect(a.get(k), int, f"a gluing arrow's {k}") for k in ("src", "dst"))
        if not (0 <= src < len(cells) and 0 <= dst < len(cells)):
            raise ValueError(f"gluing arrow {src} -> {dst} names a missing cell")
        arrows.append(CellArrow(
            src, dst, gamma_morphism_from_json(a.get("gamma")),
            simpmap_from_json(a.get("simp_map"), cells[src].shape, cells[dst].shape),
        ))
    return PresentedGammaSpace(cells, arrows)


def relative_input_from_json(data) -> Diagram:
    """A diagram over a finite category, its laws checked: over the based
    sets on levels 0..n (see `_based_set_levels`), the Gamma-family over
    `GammaBase(n)`; over any other base, validated first, the diagram."""
    _expect(data, dict, "a relative nerve input")
    base = category_from_json(data.get("base"))
    levels = _based_set_levels(base)
    if levels is None:
        base.validate()
    diagram = _expect(data.get("diagram"), dict, "the diagram")
    values = {
        obj: simpset_from_json(v)
        for obj, v in _keyed(diagram.get("values"), base.objects, "the diagram's values").items()
    }
    arrows = {
        f: simpmap_from_json(m, values[base.src(f)], values[base.dst(f)])
        for f, m in _keyed(diagram.get("arrows"), base.arrows, "the diagram's arrows").items()
    }
    if levels is not None:
        return TabulatedGammaSpace(levels, lambda n: values[str(n)],
                                   lambda f: arrows[_gamma_arrow_name(f)]).check_laws()
    return RelativeNerveInput(base, values, arrows).check_laws()


def _based_set_levels(c: FinCat):
    """n when the category c, not yet validated, is the based-set category
    on levels 0..n with its arrows named by `_gamma_arrow_name`, else None:
    the arrow count first, then the arrows, the identities, and the table
    pair by pair against `then`, one entry for each composable pair.  That
    is all `FinCat.validate` would check: units and associativity are
    those of `then`."""
    n = len(c.objects) - 1
    if n < 0 or c.objects != tuple(sorted(map(str, range(n + 1)))) or len(c.arrows) != sum(
            (m + 1) ** k for k in range(n + 1) for m in range(n + 1)):
        return None
    gamma = gamma_base(n)
    maps = {_gamma_arrow_name(f): f for f in gamma.arrow_ids()}
    if c.arrows != {name: (str(f.src), str(f.dst)) for name, f in maps.items()} or \
            c.identities != {str(k): _gamma_arrow_name(f) for k, f in gamma.identities.items()}:
        return None
    outs = {k: len(gamma.out_of(k)) for k in gamma.objects}
    if len(c.compose_table) != sum(outs[f.dst] for f in maps.values()):
        return None
    for (g, f), h in c.compose_table.items():
        if g not in maps or f not in maps or maps[f].dst != maps[g].src or \
                h != _gamma_arrow_name(maps[f].then(maps[g])):
            return None
    return n


def over_object_to_json(x: OverObject) -> dict:
    out = marked_to_json(x.marked)
    out["proj"] = simpmap_to_json(x.proj)
    out["base_nerve"] = simpset_to_json(x.proj.target)
    return out


def over_object_from_json(data) -> OverObject:
    marked = marked_from_json(data)
    base = simpset_from_json(data.get("base_nerve"))
    proj = simpmap_from_json(data.get("proj"), marked.underlying, base)
    return OverObject(marked, proj)


_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", str: "a string",
               int: "an integer", bool: "a boolean"}


def _expect(data, kind, what):
    """data, unless it is not of JSON type `kind`: then malformed input (a
    ValueError)."""
    if not isinstance(data, kind) or (kind is int and isinstance(data, bool)):
        raise ValueError(
            f"expected {what} as {_JSON_TYPES[kind]}, got {type(data).__name__}")
    return data


def _count(data, what):
    """data, unless it is not a non-negative integer."""
    if _expect(data, int, what) < 0:
        raise ValueError(f"expected {what} to be non-negative, got {data}")
    return data


def _keyed(data, keys, what):
    """data, unless it is not a JSON object with exactly the given keys."""
    if set(_expect(data, dict, what)) != set(keys):
        raise ValueError(f"expected {what} to name each of {sorted(keys)} once,"
                         f" got {sorted(data)}")
    return data


def _level(n, bound, what):
    """n, unless it lies outside the levels 0..bound of a family."""
    if not 0 <= n <= bound:
        raise ValueError(f"level {n} of {what} lies outside 0..{bound}")
    return n


def _expect_list(data, what, kind):
    """data, unless it is not a JSON array of `kind` items."""
    for item in _expect(data, list, what):
        _expect(item, kind, f"each item of {what}")
    return data


def canonical_dumps(data) -> str:
    """`json.dumps(data, sort_keys=True, indent=2)` and a newline, byte for
    byte, built bottom-up (each container joins its children's strings)
    rather than by the stdlib's pure-Python indenting encoder."""
    return _text(data, "\n") + "\n"


def _float_text(x):
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


_SCALARS = {str: _quote, int: int.__repr__, float: _float_text,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _key_text(key):
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + _text(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _text(value, margin):
    """The text of value whose later lines start at margin (a newline and
    the indent); tuples (so `SimplexRef`s) are written as lists, as the
    stdlib writes them.  Strings, the most common value, skip the call."""
    scalar = _SCALARS.get(value.__class__)
    if scalar is not None:
        return scalar(value)
    inner = margin + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            (_quote(k) if k.__class__ is str else _key_text(k)) + ": "
            + (_quote(v) if v.__class__ is str else _text(v, inner))
            for k, v in sorted(value.items())]) + margin + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _quote(v) if v.__class__ is str else _text(v, inner)
            for v in value]) + margin + "]"
    for kind in (str, int, float):  # subclasses write as their base
        if isinstance(value, kind):
            return _SCALARS[kind](value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
