"""Simplicial sets with marked edges, their mapping objects, and marked
families over based finite sets."""

from __future__ import annotations

from .gammaop import GammaMorphism, elementary_maps
from .gspace import GammaMappingSpace, TabulatedGammaSpace
from .shapes import MapComplex
from .simplicial import (
    FinSimpSet,
    SimplexRef,
    SimpMap,
    full_sub_on_edges,
    hom_set,
    product,
)
from .verdicts import Budget


class MarkedSimpSet:
    """A simplicial set with a distinguished set of marked edges; the
    degenerate edges are always marked, so only nondegenerate marked edge
    ids are stored."""

    def __init__(self, underlying: FinSimpSet, marked=()):
        self.underlying = underlying
        self.marked = frozenset(marked)
        for e in self.marked:
            if not underlying.has_cell(1, e):
                raise ValueError(f"marked edge {e!r} is not an edge")

    def is_marked(self, ref: SimplexRef) -> bool:
        return bool(ref.degs) or ref.base in self.marked

    def __repr__(self):
        return f"MarkedSimpSet({self.underlying!r}, marked={sorted(self.marked)})"


def mark(x: FinSimpSet, kind: str) -> MarkedSimpSet:
    """flat marks only the degenerate edges; sharp marks every edge."""
    if kind == "flat":
        return MarkedSimpSet(x, ())
    if kind == "sharp":
        return MarkedSimpSet(x, x.cell_ids(1))
    raise ValueError(f"unknown marking {kind!r}")


def is_marked_map(m: SimpMap, src: MarkedSimpSet, dst: MarkedSimpSet) -> bool:
    for e in src.marked:
        if not dst.is_marked(m(SimplexRef(e), 1)):
            return False
    return True


def edge_sharpens(m: SimpMap, p2: SimpMap, x: MarkedSimpSet, y: MarkedSimpSet) -> bool:
    """Whether m: Delta[1] x X -> Y, with p2 the projection of its frame
    onto X, stays marked once the Delta[1] coordinate is sharpened: every
    edge whose X-coordinate is marked lands on a marked edge."""
    return all(y.is_marked(m(SimplexRef(e), 1)) for e in p2.source.cell_ids(1)
               if x.is_marked(p2.assignment[(1, e)]))


def marked_product(a: MarkedSimpSet, b: MarkedSimpSet):
    """Product in marked sets: an edge is marked iff both coordinates are.

    Returns (MarkedSimpSet, proj1, proj2, pair_ref)."""
    prod_data = product(a.underlying, b.underlying)
    prod, p1, p2, pair_ref = prod_data
    marked = [
        e for e in prod.cell_ids(1)
        if a.is_marked(p1.assignment[(1, e)]) and b.is_marked(p2.assignment[(1, e)])
    ]
    return MarkedSimpSet(prod, marked), p1, p2, pair_ref


def preserves_marking(a: MarkedSimpSet, x: MarkedSimpSet):
    """The per-cell constraint of a map search a -> x that keeps marked
    edges marked: a marked edge of a may only go to a marked edge of x."""
    def constraint(n, name, ref):
        return n != 1 or name not in a.marked or x.is_marked(ref)
    return constraint


def marked_hom_set(a: MarkedSimpSet, x: MarkedSimpSet, budget=None):
    return hom_set(a.underlying, x.underlying, budget=budget,
                   constraint=preserves_marking(a, x))


class MarkedMappingObject(MapComplex):
    """The internal mapping object of marked sets restricted to a simplex
    frame: dimension n holds the marked maps flat(Delta[n]) x X -> Y.

    An edge is marked exactly when the same underlying map stays marked
    after sharpening the Delta[1] coordinate; the flat part is the whole
    object, the sharp part the sub-object of thus-marked simplices.
    """

    def __init__(self, x: MarkedSimpSet, y: MarkedSimpSet, dim_cap=None,
                 budget=None, over=None):
        budget = budget or Budget()

        def families(mc, d):
            frame, p1, p2, _ = mc.frame(0, d)
            # an edge of flat(Delta[d]) x X is marked when its Delta[d]
            # coordinate is degenerate and its X coordinate is marked
            marked = MarkedSimpSet(frame, [
                e for e in frame.cell_ids(1)
                if p1.assignment[(1, e)].degs and x.is_marked(p2.assignment[(1, e)])])
            marking = preserves_marking(marked, y)
            constraint = marking
            if over is not None:
                proj_x, proj_y = over
                want = p2.then(proj_x)

                def constraint(n, name, ref):
                    return marking(n, name, ref) and proj_y(ref, n) == want(SimplexRef(name), n)

            return ((m,) for m in hom_set(frame, y.underlying, budget=budget,
                                          constraint=constraint))

        cap = y.underlying.dim_bound if dim_cap is None else dim_cap
        super().__init__(cap, [x.underlying], families)
        self.flat = self.space
        marked_edges = [
            e for e in self.flat.cell_ids(1)
            if edge_sharpens(self.element_of(e), self.frame(0, 1)[2], x, y)
        ]
        self.plus = MarkedSimpSet(self.flat, marked_edges)
        self.sharp = full_sub_on_edges(self.flat, self.plus.is_marked)

    def element_of(self, name) -> SimpMap:
        return super().element_of(name)[0]


def hom_marked(x: MarkedSimpSet, y: MarkedSimpSet, dim_cap=None, budget=None):
    """Returns (plus, flat, sharp): the marked mapping object, its
    underlying simplicial set, and the all-edges-marked sub-object."""
    mo = MarkedMappingObject(x, y, dim_cap=dim_cap, budget=budget)
    return mo.plus, mo.flat, mo.sharp


# ---------------------------------------------------------------------------
# marked families over the based-set category


class MarkedGammaSpace:
    """Level-wise marked simplicial sets with a marking-preserving action."""

    def __init__(self, level_bound, value_fn, action_fn):
        self.level_bound = level_bound
        self._value_fn = value_fn
        self._values = {}
        self._underlying = TabulatedGammaSpace(
            level_bound, lambda n: self.value(n).underlying, action_fn)

    def value(self, n) -> MarkedSimpSet:
        if n not in self._values:
            return self._values.setdefault(n, self._value_fn(n))
        return self._values[n]

    def action(self, f: GammaMorphism) -> SimpMap:
        return self._underlying.action(f)

    def underlying(self) -> TabulatedGammaSpace:
        return self._underlying

    def validate(self, level_cap=None):
        """The underlying family validates, and every based map between
        levels <= cap (the level bound by default) preserves the markings,
        checked on `elementary_maps` (exact for a functorial action)."""
        cap = self._underlying._cap(level_cap)
        self._underlying.validate(level_cap=cap)
        for f in elementary_maps(cap):
            if not is_marked_map(self.action(f), self.value(f.src), self.value(f.dst)):
                raise ValueError(f"action at {f} does not preserve markings")
        return self


def gamma_flat(x: TabulatedGammaSpace) -> MarkedGammaSpace:
    """Level-wise minimal marking; the action maps are unchanged."""
    return MarkedGammaSpace(
        x.level_bound,
        lambda n: mark(x.value(n), "flat"),
        x.action,
    )


def marked_mapping_space(x: MarkedGammaSpace, y: MarkedGammaSpace,
                         p, dim_cap, budget=None):
    """Mapping space of marked families out of a flat presentation.  For
    the flat sources it accepts, marking preservation is vacuous, so this
    is the unmarked mapping space.

    p is the presentation of x's underlying space; marked structure on x
    must be level-wise flat for the presentation to be meaningful, and a
    marked edge at the level of one of p's cells is refused.
    """
    for c in p.cells:
        if x.value(c.level).marked:
            raise ValueError(f"x has marked edges at level {c.level}; only a flat"
                             " source has a flat presentation")
    ms = GammaMappingSpace(p, y.underlying(), dim_cap=dim_cap, budget=budget)
    return ms.space, ms
