"""Canonical JSON encodings for every object the command line consumes or
emits; serialization sorts keys so round-trips are bit-exact."""

from __future__ import annotations

import json

from .catcore import FinCat
from .cocart import RelativeNerveInput, OverObject
from .gammaop import GammaMorphism, gamma_identity
from .gspace import (
    CellArrow,
    GammaCell,
    PresentedGammaSpace,
    TabulatedGammaSpace,
    all_morphisms_upto,
)
from .marked import MarkedSimpSet
from .simplicial import FinSimpSet, SimplexRef, SimpMap


def ref_to_json(ref: SimplexRef):
    if not ref.degs:
        return ref.base
    return {"base": ref.base, "deg": list(ref.degs)}


def ref_from_json(data) -> SimplexRef:
    if isinstance(data, str):
        return SimplexRef(data)
    _expect_object(data, "a simplex ref (or a cell id string)")
    base, deg = data.get("base"), data.get("deg")
    if not (isinstance(base, str) and isinstance(deg, list)
            and all(isinstance(j, int) for j in deg)):
        raise ValueError(
            f"expected a simplex ref with a string base and a list of integer"
            f" degeneracies, got {data!r}")
    return SimplexRef(base, tuple(deg))


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
    _expect_object(data, "a simplicial set")
    if not isinstance(data.get("dim_bound"), int):
        raise ValueError(f"expected an integer dim_bound, got {data.get('dim_bound')!r}")
    table = data.get("cells", {})
    _expect_object(table, "the cells of a simplicial set")
    cells = {}
    for n_str, items in table.items():
        n = int(n_str)
        if not isinstance(items, list):
            raise ValueError(
                f"expected a list of cells in dimension {n_str}, got {items!r}")
        cells[n] = {}
        for item in items:
            if not (isinstance(item, dict) and isinstance(item.get("id"), str)
                    and isinstance(item.get("faces", []), list)):
                raise ValueError(
                    f"expected a cell in dimension {n_str} as an object with a"
                    f" string id and a list of faces, got {item!r}")
            cells[n][item["id"]] = tuple(ref_from_json(r) for r in item.get("faces", []))
    return FinSimpSet(
        data["dim_bound"],
        cells,
        pointed=data.get("pointed"),
        complete=not data.get("truncated", False),
    ).validate()


def simpmap_to_json(m: SimpMap) -> dict:
    out = {}
    for (n, name), ref in sorted(m.assignment.items()):
        out.setdefault(str(n), {})[name] = ref_to_json(ref)
    return {"assignment": out}


def simpmap_from_json(data, source: FinSimpSet, target: FinSimpSet) -> SimpMap:
    _expect_object(data, "a simplicial map")
    assignment = {}
    for n_str, table in data["assignment"].items():
        for name, ref in table.items():
            assignment[(int(n_str), name)] = ref_from_json(ref)
    return SimpMap(source, target, assignment).validate(check_pointed=False)


def arrow_from_json(data) -> SimpMap:
    """A map together with its ends: {"source": set, "target": set,
    "map": assignment}."""
    _expect_object(data, "a map with its source and target")
    source = simpset_from_json(data["source"])
    target = simpset_from_json(data["target"])
    return simpmap_from_json(data["map"], source, target)


def marked_to_json(x: MarkedSimpSet) -> dict:
    out = simpset_to_json(x.underlying)
    out["marked"] = sorted(x.marked)
    return out


def marked_from_json(data) -> MarkedSimpSet:
    return MarkedSimpSet(simpset_from_json(data), data.get("marked", ()))


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
    _expect_object(data, "a finite category")
    return FinCat(
        data["objects"],
        {a["id"]: (a["src"], a["dst"]) for a in data["arrows"]},
        data["identities"],
        {(g, f): h for g, f, h in data["compose"]},
    ).validate()


def gamma_morphism_to_json(f: GammaMorphism) -> dict:
    return {"src": f.src, "dst": f.dst, "map": list(f.table)}


def gamma_morphism_from_json(data) -> GammaMorphism:
    _expect_object(data, "a based map")
    return GammaMorphism(data["src"], data["dst"], tuple(data["map"]))


def tabulated_to_json(x: TabulatedGammaSpace, generators=None) -> dict:
    """Serializes values plus the action on a generating set (by default
    every morphism between levels, which is always sufficient)."""
    gens = generators or all_morphisms_upto(x.level_bound)
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
            for f in gens
        ],
    }


def tabulated_from_json(data) -> TabulatedGammaSpace:
    """Loads values and completes the action from the generators by
    composition closure; errors if some based map is not covered."""
    _expect_object(data, "a tabulated level family")
    bound = data["level_bound"]
    values = {int(n): simpset_from_json(v) for n, v in data["values"].items()}
    action = {}
    for entry in data["action"]:
        f = gamma_morphism_from_json(entry["map"])
        action[f.key()] = simpmap_from_json(
            entry["simp_map"], values[f.src], values[f.dst]
        )
    for n in range(bound + 1):
        ident = gamma_identity(n)
        action.setdefault(ident.key(), _identity_of(values[n]))
    changed = True
    while changed:
        changed = False
        known = list(action.items())
        for (k1, m1) in known:
            for (k2, m2) in known:
                if k1[1] != k2[0]:
                    continue
                f = GammaMorphism(*k1).then(GammaMorphism(*k2))
                if f.key() not in action:
                    action[f.key()] = m1.then(m2)
                    changed = True
    missing = [
        f for f in all_morphisms_upto(bound) if f.key() not in action
    ]
    if missing:
        raise ValueError(
            f"action generators do not compose to cover {missing[:3]}..."
            f" ({len(missing)} maps missing); include folds and inclusions"
        )
    space = TabulatedGammaSpace(
        bound, lambda n: values[n], lambda f: action[f.key()]
    )
    space.validate(level_cap=min(2, bound))
    return space


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
    _expect_object(data, "a presented level family")
    cells = [
        GammaCell(c["level"], simpset_from_json(c["shape"])) for c in data["cells"]
    ]
    arrows = [
        CellArrow(
            a["src"],
            a["dst"],
            gamma_morphism_from_json(a["gamma"]),
            simpmap_from_json(
                a["simp_map"], cells[a["src"]].shape, cells[a["dst"]].shape
            ),
        )
        for a in data.get("glue", [])
    ]
    return PresentedGammaSpace(cells, arrows)


def relative_input_from_json(data) -> RelativeNerveInput:
    _expect_object(data, "a relative nerve input")
    base = category_from_json(data["base"])
    values = {
        obj: simpset_from_json(v) for obj, v in data["diagram"]["values"].items()
    }
    arrows = {
        f: simpmap_from_json(m, values[base.src(f)], values[base.dst(f)])
        for f, m in data["diagram"]["arrows"].items()
    }
    return RelativeNerveInput(
        base, values, arrows, gamma_levels=data.get("gamma_levels")
    ).validate()


def over_object_to_json(x: OverObject) -> dict:
    out = marked_to_json(x.marked)
    out["proj"] = simpmap_to_json(x.proj)
    out["base_nerve"] = simpset_to_json(x.proj.target)
    return out


def over_object_from_json(data) -> OverObject:
    marked = marked_from_json(data)
    base = simpset_from_json(data["base_nerve"])
    proj = simpmap_from_json(data["proj"], marked.underlying, base)
    return OverObject(marked, proj).validate()


def _expect_object(data, what):
    """Malformed input (a ValueError) unless data is a JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"expected {what} as a JSON object, got {type(data).__name__}")


def canonical_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _identity_of(s: FinSimpSet) -> SimpMap:
    from .simplicial import identity_map

    return identity_map(s)
