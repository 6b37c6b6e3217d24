"""Functors from based finite sets to simplicial sets, in two presentations,
with the convolution product, mapping spaces, Segal checks, normalization,
and the homotopy-category probes built on top of them (a family's homotopy
category itself is `nerve.tau1` of its level 1)."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .gammaop import (
    GammaMorphism,
    delta_projection,
    elementary_maps,
    enumerate_homs,
    gamma_identity,
    smash_gamma,
    smash_twist,
    zero_map,
)
from .nerve import joined_name, tau1_functor
from .shapes import (
    MapComplex,
    has_rlp,
    inclusion_map,
    boundary,
    standard_simplex,
    standard_point,
    unfillable_inner_horn,
)
from .simplicial import (
    Colimit,
    FinSimpSet,
    SimplexRef,
    SimpMap,
    cellwise,
    commutes,
    constant_map,
    discrete_set,
    hom_set,
    identity_map,
    iso_check,
    map_cap,
    pairing,
    product,
    product_map,
    pushout,
    word_to_surj,
)
from .verdicts import (
    Budget,
    BudgetExceededError,
    Verdict,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    backtrack,
    conjoin,
)


def all_morphisms_upto(level_cap):
    out = []
    for n in range(level_cap + 1):
        for m in range(level_cap + 1):
            out.extend(enumerate_homs(n, m))
    return out


# ---------------------------------------------------------------------------
# tabulated spaces


class TabulatedGammaSpace:
    """Levels 0..N of simplicial sets with a functorial action of based
    maps, given either by tables or by callables (cached)."""

    def __init__(self, level_bound, value_fn, action_fn):
        self.level_bound = level_bound
        self._value_fn = value_fn
        self._action_fn = action_fn
        self._values = {}
        self._actions = {}

    def value(self, n) -> FinSimpSet:
        if n > self.level_bound:
            raise ValueError(f"level {n} beyond bound {self.level_bound}")
        if n not in self._values:
            # published once: threads racing on a first read all get the
            # first object stored, which identity checks (`pairing`) rely on
            return self._values.setdefault(n, self._value_fn(n))
        return self._values[n]

    def action(self, f: GammaMorphism) -> SimpMap:
        if f.src > self.level_bound or f.dst > self.level_bound:
            raise ValueError(f"morphism {f} beyond level bound {self.level_bound}")
        if f not in self._actions:
            return self._actions.setdefault(f, self._action_fn(f))
        return self._actions[f]

    def validate(self, level_cap=None):
        """Checks the action on levels 0..cap (by default the level bound;
        associativity first shows at level 3): each map is simplicial, and
        the action passes `check_laws`."""
        for f in all_morphisms_upto(self._cap(level_cap)):
            self.action(f).validate()
        return self.check_laws(level_cap)

    def check_laws(self, level_cap=None):
        """Checks, on levels 0..cap, that identities act as identities and
        that the action is functorial, trusting each map to be simplicial.

        Functoriality is checked as action(f.then(g)) == action(f) then
        action(g) for every based map f, but only for g among the elementary
        maps of `elementary_maps(cap)`, which is exact (see there).
        """
        cap = self._cap(level_cap)
        every = all_morphisms_upto(cap)
        for n in range(cap + 1):
            if self.action(gamma_identity(n)) != identity_map(self.value(n)):
                raise ValueError(f"the identity of level {n} does not act as the identity")
        gens = elementary_maps(cap)
        for f in every:
            for g in gens:
                if g.src != f.dst:
                    continue
                if not commutes([self.action(f.then(g))], [self.action(f), self.action(g)]):
                    raise ValueError(f"action not functorial on {f}, {g}")
        return self

    def _cap(self, level_cap):
        return self.level_bound if level_cap is None else min(level_cap, self.level_bound)

    def is_normalized(self):
        v0 = self.value(0)
        return v0.cell_count(0) == 1 and all(
            v0.cell_count(n) == 0 for n in range(1, v0.dim_bound + 1)
        )


def constant_gamma_space(level_bound, s: FinSimpSet) -> TabulatedGammaSpace:
    return TabulatedGammaSpace(
        level_bound, lambda n: s, lambda f: identity_map(s)
    )


def terminal_gamma_space(level_bound) -> TabulatedGammaSpace:
    return constant_gamma_space(level_bound, standard_point())


def discrete_monoid_space(elements, op, unit, level_bound) -> TabulatedGammaSpace:
    """The tabulation of a commutative monoid: level n is the discrete set
    of n-tuples, each named "t" and its entries joined by "_" (see
    `joined_name`), and a based map acts by multiplying fibers."""
    elements = list(elements)
    names = {}

    def name(tup):
        return "t" + joined_name(map(str, tup), "_")

    def named(n):
        """Level n's tuples, each to its name, in `itertools.product` order."""
        if n not in names:
            names[n] = {tup: name(tup) for tup in itertools.product(elements, repeat=n)}
        return names[n]

    def value(n):
        return discrete_set(named(n).values())

    def action(f: GammaMorphism):
        fibres = [[i for i in range(f.src) if f.table[i] == j] for j in range(1, f.dst + 1)]
        target = named(f.dst)
        assignment = {}
        for tup, label in named(f.src).items():
            out = []
            for fibre in fibres:
                acc = unit
                for i in fibre:
                    acc = op(acc, tup[i])
                out.append(acc)
            out = tuple(out)
            # an op that leaves the elements names no vertex; validate() refuses that
            assignment[(0, label)] = SimplexRef(target.get(out) or name(out))
        return SimpMap(space.value(f.src), space.value(f.dst), assignment)

    space = TabulatedGammaSpace(level_bound, value, action)
    return space


def product_gamma_space(x: TabulatedGammaSpace, y: TabulatedGammaSpace) -> TabulatedGammaSpace:
    bound = min(x.level_bound, y.level_bound)
    prods = {}

    def prod(n):
        if n not in prods:
            prods[n] = product(x.value(n), y.value(n))
        return prods[n]

    def value(n):
        return prod(n)[0]

    def action(f):
        return product_map(x.action(f), y.action(f), prod(f.src), prod(f.dst))

    return TabulatedGammaSpace(bound, value, action)


# ---------------------------------------------------------------------------
# presented spaces


@dataclass(frozen=True)
class GammaCell:
    """A basic cell: the representable at `level` tensored with `shape`."""

    level: int
    shape: FinSimpSet


@dataclass(frozen=True)
class CellArrow:
    """A map of basic cells, contravariant in the representable index:
    gamma lies in hom(cells[dst].level, cells[src].level)."""

    src: int
    dst: int
    gamma: GammaMorphism
    simp: SimpMap


class PresentedGammaSpace:
    """A finite colimit of basic cells."""

    def __init__(self, cells, arrows=()):
        self.cells = list(cells)
        self.arrows = list(arrows)
        for a in self.arrows:
            if (a.gamma.src, a.gamma.dst) != (self.cells[a.dst].level, self.cells[a.src].level):
                raise ValueError(f"gluing arrow {a.src} -> {a.dst} carries {a.gamma},"
                                 " not a map between its cells' levels")
        self._level_data = {}

    def level_data(self, n):
        """(Colimit, slots, slot index) of the evaluation at n.

        The evaluation is the colimit of the shapes: object k of the
        Colimit is the shape of cell i at slots[k] = (i, h), one slot per
        based map h: level_i -> n, cell-major in `enumerate_homs` order;
        index sends (i, h) to k.  A gluing arrow a enters once per h,
        from slot (a.src, h) to slot (a.dst, a.gamma.then(h)), along a.simp
        itself."""
        if n not in self._level_data:
            slots = [(i, h) for i, c in enumerate(self.cells)
                     for h in enumerate_homs(c.level, n)]
            index = {slot: k for k, slot in enumerate(slots)}
            arrows = [(index[(a.src, h)], index[(a.dst, a.gamma.then(h))], a.simp)
                      for a in self.arrows for h in enumerate_homs(self.cells[a.src].level, n)]
            col = Colimit([self.cells[i].shape for i, _ in slots], arrows)
            return self._level_data.setdefault(n, (col, slots, index))
        return self._level_data[n]

    def evaluate(self, n) -> FinSimpSet:
        return self.level_data(n)[0].space

    def action_map(self, g: GammaMorphism) -> SimpMap:
        """The induced map evaluate(g.src) -> evaluate(g.dst): the shape of
        the slot (i, h) goes to the slot (i, h then g) identically."""
        col, slots, _ = self.level_data(g.src)
        dst, _, index = self.level_data(g.dst)

        def leg_of(k):
            i, h = slots[k]
            return functools.partial(dst.ref_in, index[(i, h.then(g))])

        return col.mediating(leg_of, dst.space)

    def tabulate(self, level_bound) -> TabulatedGammaSpace:
        return TabulatedGammaSpace(level_bound, self.evaluate, self.action_map)


def gamma_rep(level, shape=None) -> PresentedGammaSpace:
    """The representable space at a level, optionally tensored by a shape."""
    return PresentedGammaSpace([GammaCell(level, shape or standard_point())])


def coproduct_presented(*spaces) -> PresentedGammaSpace:
    cells = []
    arrows = []
    offset = 0
    for p in spaces:
        cells.extend(p.cells)
        for a in p.arrows:
            arrows.append(CellArrow(a.src + offset, a.dst + offset, a.gamma, a.simp))
        offset += len(p.cells)
    return PresentedGammaSpace(cells, arrows)


@dataclass
class PresentedMap:
    """A cellwise map of presented spaces: cell i of the source maps into
    cell `target_cell[i]` of the target through (gamma, simp)."""

    source: PresentedGammaSpace
    target: PresentedGammaSpace
    assignments: list  # of (target_cell_index, GammaMorphism, SimpMap)

    def evaluate(self, n) -> SimpMap:
        """The map at level n: the slot (i, h) goes into the slot
        (j, gamma then h) of the target through simp."""
        col, slots, _ = self.source.level_data(n)
        dst, _, index = self.target.level_data(n)

        def leg_of(k):
            i, h = slots[k]
            j, gamma, simp = self.assignments[i]
            into = index[(j, gamma.then(h))]
            return lambda ref, d: dst.ref_in(into, simp(ref, d), d)

        return col.mediating(leg_of, dst.space)


# ---------------------------------------------------------------------------
# convolution product


def day_convolve(p: PresentedGammaSpace, q: PresentedGammaSpace) -> PresentedGammaSpace:
    """Bilinear expansion of the convolution over the presentations: basic
    cells multiply by smashing their levels and multiplying their shapes.
    Cell (i, j) sits at index i * len(q.cells) + j, and the result keeps
    products[k], the product data (P, p1, p2, pair_ref) of cell k's shape,
    for the maps induced on it."""
    nq = len(q.cells)
    products = [product(a.shape, b.shape) for a in p.cells for b in q.cells]
    cells = [GammaCell(a.level * b.level, products[i * nq + j][0])
             for i, a in enumerate(p.cells) for j, b in enumerate(q.cells)]
    arrows = []
    for e in p.arrows:
        for j, b in enumerate(q.cells):
            src, dst = e.src * nq + j, e.dst * nq + j
            gamma = smash_gamma(e.gamma, gamma_identity(b.level))
            simp = product_map(e.simp, identity_map(b.shape), products[src], products[dst])
            arrows.append(CellArrow(src, dst, gamma, simp))
    for e in q.arrows:
        for i, a in enumerate(p.cells):
            src, dst = i * nq + e.src, i * nq + e.dst
            gamma = smash_gamma(gamma_identity(a.level), e.gamma)
            simp = product_map(identity_map(a.shape), e.simp, products[src], products[dst])
            arrows.append(CellArrow(src, dst, gamma, simp))
    conv = PresentedGammaSpace(cells, arrows)
    conv.products = products
    return conv


def convolve_with_map(p: PresentedGammaSpace, m: PresentedMap):
    """p * m : p * m.source -> p * m.target, the induced cellwise map.

    Returns (map, convolved source, convolved target).
    """
    src = day_convolve(p, m.source)
    dst = day_convolve(p, m.target)
    n_src, n_dst = len(m.source.cells), len(m.target.cells)
    assignments = []
    for i, a in enumerate(p.cells):
        for j, (jt, gamma, simp) in enumerate(m.assignments):
            k_src, k_dst = i * n_src + j, i * n_dst + jt
            assignments.append((
                k_dst,
                smash_gamma(gamma_identity(a.level), gamma),
                product_map(identity_map(a.shape), simp,
                            src.products[k_src], dst.products[k_dst]),
            ))
    return PresentedMap(src, dst, assignments), src, dst


def h_map(k, l) -> PresentedMap:
    """The comparison from the coproduct of the representables at k and l
    into the representable at k+l, through the two projections."""
    src = coproduct_presented(gamma_rep(k), gamma_rep(l))
    dst = gamma_rep(k + l)
    assignments = [
        (0, delta_projection(k, l, "left"),
         SimpMap(src.cells[0].shape, dst.cells[0].shape, {(0, "0"): SimplexRef("0")})),
        (0, delta_projection(k, l, "right"),
         SimpMap(src.cells[1].shape, dst.cells[0].shape, {(0, "0"): SimplexRef("0")})),
    ]
    return PresentedMap(src, dst, assignments)


# ---------------------------------------------------------------------------
# the convolution coend oracle


def day_coend_oracle(x: TabulatedGammaSpace, y: TabulatedGammaSpace, x_levels, y_levels, n):
    """Direct colimit computation of the convolution at level n, up to
    dimension 2: glue hom(k smash l, n) x X(k) x Y(l) over morphisms between
    the listed generation levels (exact when X and Y are generated there).

    There is one slot per (k, l, f) with f: k smash l -> n, holding
    X(k) x Y(l).  Each identification (f o (u smash v), s, t) ~
    (f, X(u)s, Y(v)t) is one arrow from the slot of f o (u smash v) to the
    slot of f along X(u) x Y(v); single-sided pairs (u, id) and (id, v)
    generate the rest by composition.  Independent of the bilinear
    expansion; used to cross-validate it.
    """
    prods, slots, objects = {}, {}, []
    for k in x_levels:
        for l in y_levels:
            prods[(k, l)] = product(x.value(k), y.value(l), bound=2)
            for f in enumerate_homs(k * l, n):
                slots[(k, l, f)] = len(objects)
                objects.append(prods[(k, l)][0])
    arrows = []

    def identify(src, dst, u, v):
        uv = smash_gamma(u, v)
        act = product_map(x.action(u), y.action(v), prods[src], prods[dst])
        for f in enumerate_homs(u.dst * v.dst, n):
            arrows.append((slots[(*src, uv.then(f))], slots[(*dst, f)], act))

    for k in x_levels:
        for l in y_levels:
            for k2 in x_levels:
                for u in enumerate_homs(k, k2):
                    if u != gamma_identity(k):
                        identify((k, l), (k2, l), u, gamma_identity(l))
            for l2 in y_levels:
                for v in enumerate_homs(l, l2):
                    if v != gamma_identity(l):
                        identify((k, l), (k, l2), gamma_identity(k), v)
    return Colimit(objects, arrows, bound=2).space


# ---------------------------------------------------------------------------
# mapping spaces


class GammaMappingSpace(MapComplex):
    """The simplicial set of maps out of a presented space into a tabulated
    one: a d-simplex is a compatible family, one map S_i x Delta[d] ->
    Y(level_i) per cell, agreeing along the presentation arrows."""

    def __init__(self, p: PresentedGammaSpace, y: TabulatedGammaSpace,
                 dim_cap=None, budget=None):
        budget = budget or Budget()
        if dim_cap is None:
            dim_cap = min(y.value(c.level).dim_bound for c in p.cells) if p.cells else 0

        def families(mc, d):
            per_cell = [hom_set(mc.frame(i, d)[0], y.value(c.level), budget=budget)
                        for i, c in enumerate(p.cells)]
            # each arrow's carry S_src x Delta[d] -> S_dst x Delta[d] and
            # action, built once per dimension
            arrows = [(a.src, a.dst, y.action(a.gamma), mc.carry(a.simp, a.src, a.dst, d))
                      for a in p.arrows]
            return _families(per_cell, arrows, lambda ms, md, act, carry:
                             commutes([ms], [carry, md, act]))

        super().__init__(dim_cap, [c.shape for c in p.cells], families, simplex_last=True)


def _postcompose(src: GammaMappingSpace, dst: GammaMappingSpace, posts) -> SimpMap:
    """src -> dst sending a family (m_i) to (m_i then posts[i]).  The frames
    of src and dst are products of equal inputs, so a frame cell has one
    name in both, and `dst.induced` reads m_i then posts[i] by its names."""
    return dst.induced(src.space, lambda d, name: tuple(
        m.then(post) for m, post in zip(src.element_of(name), posts)))


def _families(per_slot, links, agree):
    """The families, one map per slot drawn from per_slot, with
    agree(family[src], family[dst], act, carry) for each link (src, dst,
    act, carry).  A link is checked as soon as both its slots are chosen;
    families come in lexicographic order of the slots."""
    due = [[] for _ in per_slot]
    for link in links:
        due[max(link[:2])].append(link)

    def candidates(k, chosen):
        for m in per_slot[k]:
            pick = {**chosen, k: m}
            if all(agree(pick[src], pick[dst], act, carry)
                   for src, dst, act, carry in due[k]):
                yield m

    for chosen in backtrack(range(len(per_slot)), candidates):
        yield tuple(chosen[k] for k in range(len(per_slot)))


def yoneda_comparison(n, y: TabulatedGammaSpace, dim_cap) -> tuple:
    """The canonical map Y(n) -> Map(rep_n, Y) and its iso verdict."""
    rep = gamma_rep(n)
    ms = GammaMappingSpace(rep, y, dim_cap=dim_cap)
    cmp = _classifying(ms, y.value(n), y.value(n))
    verdict = Verdict(HOLDS if cmp.is_iso() else FAILS, f"dims<={ms.cap}", witness=cmp)
    return cmp, verdict


def _classifying(ms: GammaMappingSpace, source, target) -> SimpMap:
    """source -> ms for a mapping space out of one point cell into target:
    a d-simplex goes to the family sending (pt, t) in pt x Delta[d] to it."""
    return ms.induced(source, lambda d, name: (
        _classifying_map(ms.frame(0, d), target, SimplexRef(name), d),))


def _classifying_map(prod_data, target, ref, d) -> SimpMap:
    """pt x Delta[d] -> target classifying a d-simplex ref."""
    prod, _, proj2, _ = prod_data
    return cellwise(prod, target, lambda m, name: target.act(ref, d, _vertex_tuple(proj2, m, name)))


def _vertex_tuple(proj2, m, name):
    """Monotone operator [m] -> [d] carried by the simplex coordinate."""
    ref = proj2.assignment[(m, name)]
    verts = tuple(int(ch) for ch in ref.base)
    sigma = word_to_surj(ref.degs, m)
    return tuple(verts[sigma[t]] for t in range(m + 1))


# ---------------------------------------------------------------------------
# internal function object and the smash-precomposition right adjoint


def internal_hom(p: PresentedGammaSpace, y: TabulatedGammaSpace,
                 level_bound, dim_cap, budget=None) -> TabulatedGammaSpace:
    """Levels 0..level_bound: level n is the mapping space out of p
    convolved with the representable at n; the action transports along the
    representables."""
    return _internal_hom(p, y, level_bound, dim_cap, budget)[0]


def _internal_hom(p, y, level_bound, dim_cap=None, budget=None):
    """internal_hom's family with ms(n), the GammaMappingSpace that level n
    is the space of."""
    spaces = {}

    def ms(n) -> GammaMappingSpace:
        if n not in spaces:
            spaces[n] = GammaMappingSpace(day_convolve(p, gamma_rep(n)), y,
                                          dim_cap=dim_cap, budget=budget)
        return spaces[n]

    def value(n):
        return ms(n).space

    def action(g: GammaMorphism):
        return _postcompose(ms(g.src), ms(g.dst), [
            y.action(smash_gamma(gamma_identity(a.level), g)) for a in p.cells])

    return TabulatedGammaSpace(level_bound, value, action), ms


def precompose_smash(x: TabulatedGammaSpace, n) -> TabulatedGammaSpace:
    """The space k |-> X((n*k)+), acting through id smash f; the output
    bound shrinks to fit inside x's bound."""
    if n == 0:
        return constant_gamma_space(x.level_bound, x.value(0))
    return TabulatedGammaSpace(
        x.level_bound // n,
        lambda k: x.value(n * k),
        lambda f: x.action(smash_gamma(gamma_identity(n), f)),
    )


def smash_precompose_comparison(x: TabulatedGammaSpace, n, level_cap=None) -> Verdict:
    """The canonical level-wise isomorphism between the smash-precomposed
    space and the internal function object out of the representable at n,
    checked level-wise, and natural for every based map between levels up
    to the cap (checked on the elementary maps)."""
    pre = precompose_smash(x, n)
    cap = pre._cap(level_cap)
    hom, ms = _internal_hom(gamma_rep(n), x, cap)
    level_maps = {}
    for k in range(cap + 1):
        src = pre.value(k)
        level_maps[k] = _classifying(ms(k), src, src)
        if not level_maps[k].is_iso():
            return Verdict(FAILS, f"levels<={cap}",
                           witness={"level": k, "counts": [src.summary(),
                                                           hom.value(k).summary()]})
    f = GammaSpaceMap(pre, hom, level_maps).unnatural_at(cap)
    if f is not None:
        return Verdict(FAILS, f"levels<={cap}", witness={"morphism": repr(f)})
    return Verdict(HOLDS, f"levels<={cap}, all based maps",
                   details={"levels": cap})


# ---------------------------------------------------------------------------
# maps of tabulated spaces


class GammaSpaceMap:
    """A level-wise simplicial map, natural for the based-set actions."""

    def __init__(self, source: TabulatedGammaSpace, target: TabulatedGammaSpace, levels):
        self.source = source
        self.target = target
        self.levels = dict(levels)

    def level(self, n) -> SimpMap:
        return self.levels[n]

    def _cap(self, level_cap):
        cap = min(self.source.level_bound, self.target.level_bound)
        return cap if level_cap is None else min(cap, level_cap)

    def unnatural_at(self, level_cap=None):
        """The first elementary based map whose naturality square fails, or
        None; for functorial source and target, None means natural for
        every based map between levels <= cap (see `elementary_maps`)."""
        for f in elementary_maps(self._cap(level_cap)):
            if not commutes([self.levels[f.src], self.target.action(f)],
                            [self.source.action(f), self.levels[f.dst]]):
                return f
        return None

    def validate(self, level_cap=None):
        for n in range(self._cap(level_cap) + 1):
            self.levels[n].validate()
        f = self.unnatural_at(level_cap)
        if f is not None:
            raise ValueError(f"naturality fails at {f}")
        return self

    def is_levelwise_iso(self, level_cap=None):
        return all(self.levels[n].is_iso() for n in range(self._cap(level_cap) + 1))

    def is_levelwise_mono(self, level_cap=None):
        return all(self.levels[n].is_mono() for n in range(self._cap(level_cap) + 1))


# ---------------------------------------------------------------------------
# Segal comparison


def segal_comparison_map(x: TabulatedGammaSpace, k, l):
    """(X(delta_k), X(delta_l)): X((k+l)+) -> X(k+) x X(l+)."""
    prod_data = product(x.value(k), x.value(l))
    cmp = pairing(
        x.action(delta_projection(k, l, "left")),
        x.action(delta_projection(k, l, "right")),
        prod_data,
    )
    return cmp, prod_data


def segal_check(x: TabulatedGammaSpace, k, l, tier="iso") -> Verdict:
    """Does the pair of projections identify level k+l with the product of
    levels k and l, at the requested strictness tier?

    iso        exact isomorphism of simplicial sets;
    cat-equiv  both sides nerves, the induced functor an equivalence
               (downgrades explicitly if a side is not read as a nerve);
    ho-necessary  necessary conditions only: the induced functor of
               fundamental categories is an equivalence.
    """
    if k + l > x.level_bound:
        raise ValueError("levels beyond bound")
    cmp, prod_data = segal_comparison_map(x, k, l)
    checked = f"(k,l)=({k},{l})"
    if tier == "iso":
        if cmp.is_iso():
            return Verdict(HOLDS, checked, tier=tier, witness=cmp)
        counts = {
            "source": x.value(k + l).summary(),
            "target": prod_data[0].summary(),
        }
        return Verdict(FAILS, checked, tier=tier, witness=counts)
    if tier == "cat-equiv":
        if not (_is_nerve_like(x.value(k + l)) and _is_nerve_like(prod_data[0])):
            v = _tau1_equivalence(cmp, checked, "ho-necessary")
            v.details["downgraded"] = "level not read as a nerve; reported at ho-necessary"
            return v
        return _tau1_equivalence(cmp, checked, tier)
    if tier == "ho-necessary":
        return _tau1_equivalence(cmp, checked, tier)
    raise ValueError(f"unknown tier {tier!r}")


def _is_nerve_like(s: FinSimpSet) -> bool:
    """Is s a nerve: has each inner horn exactly one filler, up to dimension
    bound + 1 (Lurie, HTT Prop. 1.1.2.2)?  `horn_index` shows a second filler
    (one above a truncated bound shows at the bound), the horn search a
    missing one.  tau1 reads only stored 2-simplices, so a set truncated
    below dimension 2 is refused.  A spent budget propagates."""
    if map_cap(standard_simplex(2), s) < 2:
        return False
    b = s.dim_bound
    if any(len(fillers) > 1 for n in range(2, map_cap(standard_simplex(b + 1), s) + 1)
           for k in range(1, n) for fillers in s.horn_index(n, k).values()):
        return False
    return unfillable_inner_horn(constant_map(s, standard_point(), "0"), b + 1, Budget()) is None


def _tau1_equivalence(cmp: SimpMap, checked, tier) -> Verdict:
    """Is the functor tau1(cmp) an equivalence?  At the ho-necessary tier
    a `holds` says that only necessary conditions were checked."""
    fun = tau1_functor(cmp)
    ok, why = fun.is_full_faithful_ess_surjective()
    if ok and tier == "ho-necessary":
        checked += " (necessary conditions only)"
    return Verdict(HOLDS if ok else FAILS, checked, tier=tier, witness=fun if ok else why)


# ---------------------------------------------------------------------------
# unital part and normalization


def unital_part(x: TabulatedGammaSpace):
    """The constant space on level 0 with its inclusion; the inclusion is
    level-wise split mono because the zero maps retract it."""
    x0 = constant_gamma_space(x.level_bound, x.value(0))
    levels = {
        n: x.action(zero_map(0, n)) for n in range(x.level_bound + 1)
    }
    iota = GammaSpaceMap(x0, x, levels)
    return x0, iota


class Normalization:
    """Level-wise pushout collapsing the unital part to a point."""

    def __init__(self, x: TabulatedGammaSpace):
        self.x = x
        self._cols = {}
        _, self.iota = unital_part(x)
        bound = x.level_bound

        def action(f: GammaMorphism):
            src, dst = self.col(f.src), self.col(f.dst)
            legs = [
                constant_map(x.value(0), dst.space, dst.space.pointed),
                x.action(f).then(dst.coprojection(1)),
                constant_map(src.objects[2], dst.space, dst.space.pointed),
            ]
            return src.mediating(legs.__getitem__, dst.space)

        self.space = TabulatedGammaSpace(bound, lambda n: self.col(n).space, action)
        self.eta = GammaSpaceMap(
            x, self.space, {n: self.col(n).coprojection(1) for n in range(bound + 1)}
        )

    def col(self, n) -> Colimit:
        """Level n as the pushout of the point along X(0) -> X(n); its
        objects are [X(0), X(n), point]."""
        if n not in self._cols:
            return self._cols.setdefault(n, pushout(
                self.iota.levels[n],
                constant_map(self.x.value(0), standard_point(bound=0), "0"),
                pointed_at=(2, "0"),
            ))
        return self._cols[n]


def normalize(x: TabulatedGammaSpace):
    """Returns (normalized space, unit map eta)."""
    nz = Normalization(x)
    return nz.space, nz.eta


def normalization_counit(y: TabulatedGammaSpace) -> GammaSpaceMap:
    """For an already-normalized space, the canonical comparison from the
    normalization of its underlying space back to it; an isomorphism."""
    if not y.is_normalized():
        raise ValueError("counit only defined on normalized spaces")
    nz = Normalization(y)
    levels = {}
    base_vertex = y.value(0).cell_ids(0)[0]
    for n in range(y.level_bound + 1):
        col = nz.col(n)
        target_vertex = nz.iota.levels[n](SimplexRef(base_vertex), 0).base
        legs = [
            constant_map(y.value(0), y.value(n), target_vertex),
            identity_map(y.value(n)),
            constant_map(col.objects[2], y.value(n), target_vertex),
        ]
        levels[n] = col.mediating(legs.__getitem__, y.value(n))
    return GammaSpaceMap(nz.space, y, levels)


# ---------------------------------------------------------------------------
# trivial fibrations, two routes


def trivial_fibration_check(p: GammaSpaceMap, level_cap, dim_cap,
                            budget=None) -> Verdict:
    """Right lifting against boundary inclusions, level-wise; the adjoint
    route recomputes the same liftings on the mapping space out of each
    representable, and wherever both routes decide they must agree."""
    budget = budget or Budget()
    checked = f"levels<={level_cap}, dims<={dim_cap}"

    def routes():
        for n in range(level_cap + 1):
            adj_map = _mapping_space_induced(p, n, budget)
            for m in range(dim_cap + 1):
                incl = inclusion_map(boundary(m), standard_simplex(m))
                direct = has_rlp(p.levels[n], incl, budget=budget)
                adjoint = has_rlp(adj_map, incl, budget=budget)
                if direct.contradicts(adjoint):
                    raise AssertionError(f"adjunction routes disagree at level {n}, dim {m}")
                for route in (direct, adjoint):
                    yield checked, Verdict(
                        route.status, witness={"level": n, "dim": m, "square": route.witness})

    try:
        verdict = conjoin(checked, routes(),
                          details={"squares": (level_cap + 1) * (dim_cap + 1)})
    except BudgetExceededError as e:
        return Verdict(INCONCLUSIVE, "budget", witness=str(e))
    verdict.details["routes"] = "direct and adjoint agree"
    return verdict


def _mapping_space_induced(p: GammaSpaceMap, n, budget) -> SimpMap:
    """Map(rep_n, source) -> Map(rep_n, target) by postcomposition."""
    rep = gamma_rep(n)
    return _postcompose(GammaMappingSpace(rep, p.source, budget=budget),
                        GammaMappingSpace(rep, p.target, budget=budget), [p.levels[n]])


# ---------------------------------------------------------------------------
# canonical structure isomorphisms of the convolution


def day_unit_comparison(p: PresentedGammaSpace, levels) -> Verdict:
    """rep_1 * p -> p, cell-wise canonical, checked level-wise iso."""
    conv = day_convolve(gamma_rep(1), p)
    m = PresentedMap(conv, p, [(j, gamma_identity(c.level), conv.products[j][2])
                               for j, c in enumerate(p.cells)])
    return _levelwise_iso_verdict(m, levels, "unit")


def day_symmetry_comparison(p: PresentedGammaSpace, q: PresentedGammaSpace,
                            levels) -> Verdict:
    """p * q -> q * p via the coordinate twist, checked level-wise iso."""
    src, dst = day_convolve(p, q), day_convolve(q, p)
    nq, np_ = len(q.cells), len(p.cells)
    assignments = []
    for i, a in enumerate(p.cells):
        for j, b in enumerate(q.cells):
            _, pr_a, pr_b, _ = src.products[i * nq + j]
            assignments.append((j * np_ + i, smash_twist(b.level, a.level),
                                pairing(pr_b, pr_a, dst.products[j * np_ + i])))
    m = PresentedMap(src, dst, assignments)
    return _levelwise_iso_verdict(m, levels, "symmetry")


def day_assoc_comparison(p, q, r, levels) -> Verdict:
    """(p * q) * r -> p * (q * r); the lexicographic smash encoding makes
    the level part the identity, the shape part re-brackets."""
    pq, qr = day_convolve(p, q), day_convolve(q, r)
    src, dst = day_convolve(pq, r), day_convolve(p, qr)
    nq, nr = len(q.cells), len(r.cells)
    assignments = []
    for i, a in enumerate(p.cells):
        for j, b in enumerate(q.cells):
            for k, c in enumerate(r.cells):
                # cell (i, j, k) has index (i * nq + j) * nr + k on both sides
                idx = (i * nq + j) * nr + k
                ab, bc = pq.products[i * nq + j], qr.products[j * nr + k]
                ab_c = src.products[idx]
                reassoc = pairing(
                    ab_c[1].then(ab[1]),
                    pairing(ab_c[1].then(ab[2]), ab_c[2], bc),
                    dst.products[idx],
                )
                assignments.append((idx, gamma_identity(a.level * b.level * c.level),
                                    reassoc))
    m = PresentedMap(src, dst, assignments)
    return _levelwise_iso_verdict(m, levels, "associativity")


def _levelwise_iso_verdict(m: PresentedMap, levels, law) -> Verdict:
    for n in levels:
        ev = m.evaluate(n)
        ev.validate()
        if not ev.is_iso():
            return Verdict(FAILS, f"levels {list(levels)}",
                           witness={"law": law, "level": n,
                                    "counts": [ev.source.summary(), ev.target.summary()]})
    return Verdict(HOLDS, f"levels {list(levels)}", details={"law": law})


# ---------------------------------------------------------------------------
# the semi-additivity composite


def semiadditivity_probe(p: PresentedGammaSpace, level_cap) -> dict:
    """Builds the identification of the self-coproduct with the convolution
    by the two-summand comparison, evaluates the target against the
    self-product, and reports what actually holds level-wise."""
    two = coproduct_presented(p, p)
    probe, conv_src, conv_dst = convolve_with_map(p, h_map(1, 1))
    # canonical identification of the self-coproduct with p * (rep1 u rep1);
    # day cells of conv_src are ordered (cell of p) major, (summand) minor
    assignments = []
    for copy in (0, 1):
        for i, c in enumerate(p.cells):
            tgt = i * 2 + copy
            prod = conv_src.products[tgt]
            into = pairing(identity_map(c.shape),
                           constant_map(c.shape, prod[2].target, "0"), prod)
            assignments.append((tgt, gamma_identity(c.level), into))
    ident = PresentedMap(two, conv_src, assignments)

    tab = p.tabulate(level_cap)
    prod_space = product_gamma_space(tab, tab)
    report = {"levels": {}, "coproduct_identification": [],
              "law": "self-sum-to-self-product"}
    for n in range(level_cap + 1):
        ident_n = ident.evaluate(n)
        ident_n.validate()
        report["coproduct_identification"].append(ident_n.is_iso())
        probe_n = probe.evaluate(n)
        probe_n.validate()
        target = conv_dst.evaluate(n)
        verdict = iso_check(target, prod_space.value(n))
        report["levels"][n] = {
            "convolved_points": target.summary(),
            "product_points": prod_space.value(n).summary(),
            "iso": verdict.status,
        }
    report["all_iso"] = all(
        v["iso"] == HOLDS for v in report["levels"].values()
    )
    return report


# ---------------------------------------------------------------------------
# mapping spaces with tabulated sources (used for the normalized theory)


def _basepoint_collapse(frame, xb, yb):
    """The cells basepoint x c of the frame X x Delta[d], each pinned to Y's
    basepoint yb degenerated to its dimension (xb is X's basepoint): an
    m-simplex on one vertex carries the word (m-1, ..., 0), yb's too."""
    return {(m, name): SimplexRef(yb, ref.degs)
            for (m, name), ref in frame[1].assignment.items()
            if ref.base == xb and len(ref.degs) == m}


def mapping_space_tabulated(x: TabulatedGammaSpace, y: TabulatedGammaSpace,
                            level_cap, dim_cap, pointed=False, budget=None):
    """Enumerated mapping space between tabulated spaces: a d-simplex is a
    natural family of maps X(n) x Delta[d] -> Y(n) over levels <= level_cap.

    With pointed=True, families must collapse basepoint x Delta[d] to the
    basepoint level-wise (the pointed mapping space of normalized spaces).
    Returns (space, element_of).
    """
    budget = budget or Budget()
    # natural along the elementary maps is natural along every based map
    morphisms = elementary_maps(level_cap)

    def maps_at(mc, n, d):
        frame, xb, yb = mc.frame(n, d), x.value(n).pointed, y.value(n).pointed
        if not pointed:
            return hom_set(frame[0], y.value(n), budget=budget)
        if xb is None or yb is None:
            return []
        return hom_set(frame[0], y.value(n), budget=budget,
                       fixed=_basepoint_collapse(frame, xb, yb))

    def families(mc, d):
        # each morphism's carry X(f) x Delta[d] and action Y(f), built once
        # per dimension
        squares = [(f.src, f.dst, y.action(f), mc.carry(x.action(f), f.src, f.dst, d))
                   for f in morphisms]
        return _families([maps_at(mc, n, d) for n in range(level_cap + 1)], squares,
                         lambda ms, md, act, carry: commutes([carry, md], [ms, act]))

    mc = MapComplex(dim_cap, [x.value(n) for n in range(level_cap + 1)], families,
                    simplex_last=True)
    return mc.space, mc.element_of
