"""Relative nerves, coCartesian edge detection, fibration verdicts, and the
marked overcategory machinery above the nerve of the based-set category."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catcore import CatFunctor, FinCat, coslice_category
from .gammaop import GammaMorphism, based_map, delta_projection, enumerate_homs, gamma_identity
from .gspace import TabulatedGammaSpace, segal_check
from .marked import MarkedMappingObject, MarkedSimpSet, mark
from .nerve import chain_face, chain_ref, edge_is_invertible, nerve, nerve_functor_map, tau1
from .shapes import _horn_squares, unfillable_inner_horn
from .simplicial import (
    FinSimpSet,
    SimplexRef,
    SimpMap,
    Colimit,
    _subset_of,
    cellwise,
    commutes,
    from_elements,
    identity_map,
    iso_check,
    map_cap,
)
from .verdicts import (
    Budget,
    BudgetExceededError,
    ResourceError,
    Verdict,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
)


class UnsupportedInputError(ValueError):
    pass


def gamma_subcategory(level_cap) -> FinCat:
    """The full subcategory of based finite sets on levels 0..level_cap,
    as a dense finite category.  Arrow names encode the map tables.

    Only materialized for small caps: the table has one entry per
    composable pair, and validating it visits each composable triple
    (144 arrows, 9,866 pairs and 704,836 triples at cap 3 are fine; 1,279
    arrows, 848,469 pairs and 577 million triples at cap 4 are not);
    diagram-level checks at higher levels go through the functorial
    interface instead of this category.
    """
    if level_cap > 3:
        raise ResourceError(
            f"dense based-set subcategory at levels <= {level_cap} is too"
            " large to materialize; use the functorial diagram interface"
        )
    levels = range(level_cap + 1)
    out_of = {n: [f for m in levels for f in enumerate_homs(n, m)] for n in levels}
    arrows = {_gamma_arrow_name(f): (str(n), str(f.dst)) for n in levels for f in out_of[n]}
    identities = {str(n): _gamma_arrow_name(gamma_identity(n)) for n in levels}
    compose = {(_gamma_arrow_name(g), _gamma_arrow_name(f)): _gamma_arrow_name(f.then(g))
               for n in levels for f in out_of[n] for g in out_of[f.dst]}
    return FinCat([str(n) for n in levels], arrows, identities, compose)


def _gamma_levels(c: FinCat):
    """n when c is `gamma_subcategory(n)`, else None; the dense tables are
    built only once the objects agree."""
    n = len(c.objects) - 1
    if n < 0 or c.objects != tuple(sorted(map(str, range(n + 1)))):
        return None
    dense = gamma_subcategory(n)
    return n if (c.arrows, c.compose_table) == (dense.arrows, dense.compose_table) else None


def _gamma_arrow_name(f: GammaMorphism):
    return f"g{f.src}to{f.dst}x" + "_".join(str(v) for v in f.table)


def gamma_arrow_of_name(name) -> GammaMorphism:
    head, table = name[1:].split("x")
    src, dst = head.split("to")
    entries = tuple(int(v) for v in table.split("_")) if table else ()
    return based_map(int(src), int(dst), entries)


# ---------------------------------------------------------------------------
# relative nerves


@dataclass
class RelativeNerveInput:
    """A finite category with a simplicial-set-valued diagram on it."""

    base: FinCat
    values: dict          # object -> FinSimpSet
    arrows: dict          # arrow id -> SimpMap

    def validate(self):
        """Each diagram map is simplicial, and the diagram passes `check_laws`."""
        for m in self.arrows.values():
            m.validate()
        return self.check_laws()

    def check_laws(self):
        """Checks that each map has its arrow's ends, that identities act as
        identities and that composites are respected, trusting each map to
        be simplicial."""
        for f, (a, b) in self.base.arrows.items():
            m = self.arrows[f]
            if m.source is not self.values[a] or m.target is not self.values[b]:
                raise ValueError(f"diagram map at {f!r} has wrong endpoints")
        for a in self.base.objects:
            if self.arrows[self.base.identities[a]] != identity_map(self.values[a]):
                raise ValueError(f"diagram breaks identity at {a!r}")
        for (g, f), gf in self.base.compose_table.items():
            if not commutes([self.arrows[gf]], [self.arrows[f], self.arrows[g]]):
                raise ValueError(f"diagram breaks composition at {g!r} o {f!r}")
        return self

    def as_tabulated(self) -> TabulatedGammaSpace:
        levels = _gamma_levels(self.base)
        if levels is None:
            raise UnsupportedInputError(
                "only diagrams over a based-set subcategory extract a"
                " tabulated family"
            )
        return TabulatedGammaSpace(
            levels,
            lambda n: self.values[str(n)],
            lambda f: self.arrows[_gamma_arrow_name(f)],
        )


def gamma_diagram_input(x: TabulatedGammaSpace, level_cap) -> RelativeNerveInput:
    """Package a family's levels <= level_cap as a relative-nerve input
    over the dense based-set subcategory on them."""
    base = gamma_subcategory(level_cap)
    values = {str(n): x.value(n) for n in range(level_cap + 1)}
    arrows = {name: x.action(gamma_arrow_of_name(name)) for name in base.arrow_ids()}
    return RelativeNerveInput(base, values, arrows)


class RelativeNerve:
    """The nerve of a category relative to a diagram F (Lurie, *HTT*
    3.2.5): an n-simplex is a chain in the base together with a compatible
    family of simplices of the diagram values, one for each nonempty subset
    of [n].  F must be a functor, as the loaders check.

    A chain of dimension 0 is (object,); of dimension n >= 1 a tuple of n
    composable arrow ids (identities allowed).  The component on J is the
    face that J spans of the one on the initial segment [0..max J], so a
    simplex is keyed by (chain, (tau_0, tau_01, ..., tau_0..n)), its
    components on the initial segments.  The simplices are built by
    skeletal extension: over a chain (c, g) they are the y + (z,) for y an
    (n-1)-simplex over c (over the 0-chain at g's source when n = 1) and z
    an n-simplex of F(dst g) with d_n z = F(g)(tau_0..n-1 of y).
    Functoriality makes every other face condition hold.
    """

    def __init__(self, input: RelativeNerveInput, dim_cap):
        self.input = input
        self.cap = dim_cap
        base, values = input.base, input.values
        chains = {0: [(o,) for o in base.objects],
                  1: [(f,) for f in base.arrow_ids()]}
        for n in range(2, dim_cap + 1):
            chains[n] = [ch + (g,) for ch in chains[n - 1] for g in base.out_of(base.dst(ch[-1]))]

        # the segment components of the simplices over each chain of the last dimension
        on = {(o,): [(r,) for r in values[o].refs(0)] for o in base.objects}
        levels = [[(chain, taus) for chain, found in on.items() for taus in found]]
        for n in range(1, dim_cap + 1):
            by_last, grown = {}, {}
            for chain in chains[n]:
                g = chain[-1]
                value, carry = values[base.dst(g)], input.arrows[g]
                if value not in by_last:
                    by_last[value] = bucket = {}
                    for faces, refs in value.face_index(n).items():
                        bucket.setdefault(faces[-1], []).extend(refs)
                grown[chain] = [y + (z,) for y in on[chain[:-1] if n > 1 else (base.src(g),)]
                                for z in by_last[value].get(carry(y[-1], n - 1), ())]
            on = grown
            levels.append([(chain, taus) for chain, found in on.items() for taus in found])

        def face(n, key, i):
            chain, taus = key
            objs = _chain_objects(base, n, chain)
            sub, start = chain_face(base, chain, i)
            return sub if n > 1 else (start,), taus[:i] + tuple(
                values[objs[k]].face(taus[k], k, i) for k in range(i + 1, n + 1))

        def degen(n, key, i):
            chain, taus = key
            objs = _chain_objects(base, n, chain)
            ident = (base.identities[objs[i]],)
            return ident if n == 0 else chain[:i] + ident + chain[i:], taus[:i + 1] + tuple(
                values[objs[k]].degen(taus[k], k, i) for k in range(i, n + 1))

        self.total, _, self._key_of = from_elements(dim_cap, levels, face, degen)

        self.base_nerve = nerve(base, bound=dim_cap)

        chain_refs = {}

        def over(n, name):
            chain = self._key_of[name][1][0]
            if (n, chain) not in chain_refs:
                chain_refs[n, chain] = chain_ref(base, chain[:n], _chain_objects(base, n, chain)[0])
            return chain_refs[n, chain]

        self.proj = cellwise(self.total, self.base_nerve, over)

    def element_of(self, name):
        """(chain, its components (J, base, degs) on every nonempty J of
        [n], sorted): on J the face of the component on [0..max J] that J
        spans."""
        n, (chain, taus) = self._key_of[name]
        objs = _chain_objects(self.input.base, n, chain)
        return chain, tuple(sorted(
            (J, *self.input.values[objs[J[-1]]].act(taus[J[-1]], J[-1], J))
            for size in range(1, n + 2) for J in itertools.combinations(range(n + 1), size)))

    def fiber(self, obj) -> FinSimpSet:
        """The sub-simplicial set over the constant chain at an object."""
        base = self.input.base
        over = [chain_ref(base, (base.identities[obj],) * n, obj) for n in range(self.cap + 1)]
        return _subset_of(self.total, lambda n, name: self.proj.assignment[(n, name)] == over[n])

    def fiber_comparison(self, obj) -> Verdict:
        """The fiber is the diagram value on the nose."""
        return iso_check(self.fiber(obj), self.input.values[obj])


def _chain_objects(base: FinCat, n, chain):
    """The n + 1 objects of an n-chain."""
    return chain if n == 0 else (base.src(chain[0]),) + tuple(map(base.dst, chain))


def relative_nerve(input: RelativeNerveInput, dim_cap) -> RelativeNerve:
    return RelativeNerve(input, dim_cap)


# ---------------------------------------------------------------------------
# coCartesian edges and the fibration verdict


@dataclass
class OverObject:
    """A marked simplicial set with a structure map to the (fully marked)
    nerve of the base."""

    marked: MarkedSimpSet
    proj: SimpMap


def cocartesian_edges(total: FinSimpSet, proj: SimpMap, dim_cap, budget=None):
    """Tests every nondegenerate edge for the initial-vertex-horn lifting
    property over the base and checks the relative inner-horn liftings.

    For each n in 2..dim_cap the squares of Lambda^0[n] in Delta[n] against
    proj are searched once; an edge is refuted by the first square on it
    (at u(01)) with no filler.  Returns (edges, fibration_verdict,
    natural_marking); a spent budget decides no edges (None) and marks
    nothing."""
    try:
        detected, verdict = _edge_search(total, proj, dim_cap, budget or Budget())
    except BudgetExceededError as exc:
        return (None, Verdict(INCONCLUSIVE, "budget", witness=str(exc)), None)
    return detected, verdict, OverObject(MarkedSimpSet(total, detected), proj)


def _edge_search(total: FinSimpSet, proj: SimpMap, dim_cap, budget):
    """(detected edges, fibration verdict) of `cocartesian_edges`; raises on a spent budget.
    Each Lambda^0[n] square, and each inner-horn square, is decided by
    `_horn_squares` by lookups on its face tuple, also where the total
    space stops below n.  A base whose projection stops below the search
    raises ValueError."""
    base_nerve = proj.target
    if map_cap(total, base_nerve) < min(dim_cap, total.dim_bound):
        raise ValueError(f"base truncated at {base_nerve.dim_bound}, below the edge search to "
                         f"{min(dim_cap, total.dim_bound)} (total space bound {total.dim_bound})")
    refuted = set()
    for n in range(2, dim_cap + 1):
        for faces, _, filled in _horn_squares(n, 0, proj, budget):
            if filled:
                continue
            # the horn's edge 01 is the edge 01 of its face d_n
            e = faces[-1] if n == 2 else total.act(faces[-1], n - 1, (0, 1))
            if not e.degs:
                refuted.add(e.base)
    detected = [e for e in total.cell_ids(1) if e not in refuted]
    inner = unfillable_inner_horn(proj, dim_cap, budget)
    lift_witness = next((
        {"base_edge": be, "vertex": x}
        for be in base_nerve.cell_ids(1)
        for x in total.cell_ids(0)
        if proj.assignment[(0, x)] == base_nerve.faces_of(1, be)[1]
        and not any(total.faces_of(1, e)[1] == SimplexRef(x)
                    and proj.assignment[(1, e)] == SimplexRef(be) for e in detected)
    ), None)
    inner_witness = inner and {"horn": [inner[0], inner[1]], "u": inner[2].key()}
    return detected, Verdict(
        HOLDS if inner is None and lift_witness is None else FAILS,
        f"inner horns and initial-vertex horns, dims<={dim_cap}",
        witness=inner_witness or lift_witness,
        details={"cocartesian_edges": len(detected)},
    )


def edge_components(rn: RelativeNerve, edge_name):
    """The (base arrow, fiber edge) pair behind an edge of a relative nerve."""
    n, (chain, taus) = rn._key_of[edge_name]
    assert n == 1
    return chain[0], taus[1]


def cocartesian_cross_check(rn: RelativeNerve, dim_cap, budget=None) -> Verdict:
    """Lifting-search detection against the explicit description: an edge
    of a relative nerve is coCartesian exactly when its fiber component is
    invertible in the fundamental category of its target value.

    The equivalence is tested, not assumed.  An edge search that runs out
    of budget decides no edge, so the cross-check is then inconclusive."""
    try:
        detected, verdict = _edge_search(rn.total, rn.proj, dim_cap, budget or Budget())
    except BudgetExceededError as exc:
        return Verdict(INCONCLUSIVE, f"dims<={dim_cap}", witness=str(exc))
    mismatches = []
    for e in rn.total.cell_ids(1):
        arrow, h = edge_components(rn, e)
        cat, edge_to_arrow = tau1(rn.input.values[rn.input.base.dst(arrow)])
        invertible = edge_is_invertible(h, cat, edge_to_arrow)
        if invertible != (e in detected):
            mismatches.append({"edge": e, "invertible": invertible,
                               "detected": e in detected})
    if mismatches:
        return Verdict(FAILS, f"dims<={dim_cap}", witness=mismatches)
    return Verdict(HOLDS, f"dims<={dim_cap}",
                   details={"edges": rn.total.cell_count(1),
                            "cocartesian": len(detected),
                            "fibration": verdict.status})


# ---------------------------------------------------------------------------
# the Segal verdict for diagram-shaped families


def sm_qcat_check(input, k, l, tier="iso") -> Verdict:
    """The fiber-wise comparison over the two projections, computed from
    the diagram (fibers are the diagram values; transport over a base edge
    applies the diagram arrow), at the tier discipline of segal_check.

    Accepts a relative nerve's input (over a based-set base) or the diagram
    presented functorially as a tabulated family; a built relative nerve or
    a raw total space carries no canonical transport and is rejected.
    """
    if isinstance(input, RelativeNerveInput):
        x = input.as_tabulated()
    elif isinstance(input, TabulatedGammaSpace):
        x = input
    else:
        raise UnsupportedInputError(
            "coCartesian transport is read only off a relative-nerve input or"
            " a tabulated family; raw total spaces carry no canonical transport"
        )
    verdict = segal_check(x, k, l, tier=tier)
    verdict.details["transport"] = "diagram arrows over the projections"
    return verdict


# ---------------------------------------------------------------------------
# the overcategory objects and the comparison maps


def nelg(k, level_cap, dim_cap=2):
    """The sharp nerve of the under-category of the level-k object in the
    based-set subcategory on levels <= level_cap, over the base nerve.

    Returns (OverObject, coslice category, triangle legs)."""
    if not 0 <= k <= level_cap:
        raise ValueError(f"level {k} lies outside the level bound 0..{level_cap}")
    base = gamma_subcategory(level_cap)
    cos, projf, legs = coslice_category(base, str(k))
    total = nerve(cos, bound=dim_cap)
    base_nerve = nerve(base, bound=dim_cap)
    proj = nerve_functor_map(projf, total, base_nerve)
    return OverObject(mark(total, "sharp"), proj), cos, legs


def upsilon(k, l, level_cap, dim_cap=2):
    """The comparison from the disjoint union of the level-k and level-l
    under-category nerves into the level-(k+l) one, over the base.

    Returns (map, source OverObject, target OverObject)."""
    target, cos_kl, legs_kl = nelg(k + l, level_cap, dim_cap)
    triangle = {(*cos_kl.arrows[t], h): t for t, h in legs_kl.items()}
    pieces = []
    for (level, which) in ((k, "left"), (l, "right")):
        over, cos, legs = nelg(level, level_cap, dim_cap)
        delta = delta_projection(k, l, which)
        on_objects = {f: _gamma_arrow_name(delta.then(gamma_arrow_of_name(f)))
                      for f in cos.objects}
        on_arrows = {t: triangle[(on_objects[fa], on_objects[fb], legs[t])]
                     for t, (fa, fb) in cos.arrows.items()}
        fun = CatFunctor(cos, cos_kl, on_objects, on_arrows)
        pieces.append((over, fun))
    col = Colimit([over.marked.underlying for over, _ in pieces], [])
    du = col.space
    proj_src = col.mediating(lambda k: pieces[k][0].proj, pieces[0][0].proj.target)
    source = OverObject(MarkedSimpSet(du, du.cell_ids(1)), proj_src)
    legs = [nerve_functor_map(fun, over.marked.underlying, target.marked.underlying)
            for over, fun in pieces]
    cmp = col.mediating(legs.__getitem__, target.marked.underlying)
    return cmp, source, target


def hom_over_base(x: OverObject, y: OverObject, variant="flat",
                  dim_cap=None, budget=None):
    """The over-base mapping object; flat returns the whole simplicial set,
    sharp its all-edges-marked sub-object.  Returns (space, mapping)."""
    mo = MarkedMappingObject(x.marked, y.marked, dim_cap=dim_cap, budget=budget,
                             over=(x.proj, y.proj))
    if variant == "flat":
        return mo.flat, mo
    if variant == "sharp":
        return mo.sharp, mo
    raise ValueError(f"unknown variant {variant!r}")


def r_plus_level(x: OverObject, k, level_cap, dim_cap=2, budget=None) -> MarkedSimpSet:
    """Level k of the right adjoint comparison family: the over-base marked
    mapping object out of the level-k under-category nerve."""
    nk, _, _ = nelg(k, level_cap, dim_cap)
    _, mo = hom_over_base(nk, x, variant="flat", dim_cap=dim_cap, budget=budget)
    return mo.plus
