"""Standard complexes, lifting-property checks, and the pushout-product."""

from __future__ import annotations

import functools
import itertools

from .simplicial import (
    FinSimpSet,
    SimplexRef,
    SimpMap,
    apply_word,
    cellwise,
    constant_map,
    delta_tuple,
    from_elements,
    hom_set,
    identity_map,
    inclusion_map,
    map_cap,
    maps,
    pairing,
    product,
    product_map,
    pushout,
    sigma_tuple,
    surj_to_word,
)
from .verdicts import Budget, BudgetExceededError, Verdict, FAILS, HOLDS, INCONCLUSIVE


# the standard shapes are built once and shared, with the caches each keeps
SHAPE_MEMO_SIZE = 256


def _tuple_name(t):
    return "".join(str(v) for v in t)


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE)
def standard_simplex(n, bound=None) -> FinSimpSet:
    """Delta[n]: nondegenerate m-cells are the (m+1)-subsets of 0..n.  A
    bound below n cuts cells off, so the set is then read truncated."""
    bound = n if bound is None else bound
    cells = {}
    for m in range(min(n, bound) + 1):
        cells[m] = {}
        for verts in itertools.combinations(range(n + 1), m + 1):
            name = _tuple_name(verts)
            faces = tuple(
                SimplexRef(_tuple_name(verts[:i] + verts[i + 1 :]))
                for i in range(m + 1)
            ) if m else ()
            cells[m][name] = faces
    return FinSimpSet(bound, cells, complete=bound >= n)


def standard_point(bound=0) -> FinSimpSet:
    return standard_simplex(0, bound=bound)


def pointed_point(bound=0) -> FinSimpSet:
    return FinSimpSet(bound, {0: {"0": ()}}, pointed="0")


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE)
def boundary(n, bound=None) -> FinSimpSet:
    """The boundary of Delta[n]: drop the top cell.  Stored with bound n so
    the missing filler stays missing under the coskeletal reading."""
    return _simplex_without(n, bound, [tuple(range(n + 1))])


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE)
def horn(n, k) -> FinSimpSet:
    """Lambda^k[n]: the boundary minus the k-th face, stored with bound n
    (`rebound` reads it at another)."""
    if not (0 <= k <= n and n >= 1):
        raise ValueError(f"horn index k={k} out of range for n={n}")
    return _simplex_without(n, n, [tuple(range(n + 1)), delta_tuple(k, n)])


def _simplex_without(n, bound, dropped):
    """Delta[n] at the bound (n by default) without the cells on the vertex
    tuples dropped, which leaves nothing above dimension n - 1."""
    bound = n if bound is None else bound
    full, drop = standard_simplex(n, bound=bound), {(len(v) - 1, _tuple_name(v)) for v in dropped}
    return FinSimpSet(bound, {m: {c: full.faces_of(m, c) for c in full.cell_ids(m)
                                  if (m, c) not in drop} for m in range(bound + 1)},
                      complete=bound >= n - 1)


def sphere_zero(bound=1) -> FinSimpSet:
    """S^0: two points, pointed at one of them."""
    s = boundary(1, bound=bound)
    return FinSimpSet(bound, {m: {c: s.faces_of(m, c) for c in s.cell_ids(m)}
                              for m in range(bound + 1)}, pointed="0")


def simplex_inclusion(sub: FinSimpSet, n) -> SimpMap:
    """Inclusion of a boundary or horn into Delta[n] (shared cell names)."""
    return inclusion_map(sub, standard_simplex(n))


# ---------------------------------------------------------------------------
# wedge / smash of pointed sets


def wedge(x: FinSimpSet, y: FinSimpSet):
    """X v Y: glue at basepoints.  Returns (space, incl_x, incl_y)."""
    if x.pointed is None or y.pointed is None:
        raise ValueError("wedge needs pointed inputs")
    b = min(x.dim_bound, y.dim_bound)
    pt = standard_point(bound=b)
    col = pushout(SimpMap(pt, x, {(0, "0"): SimplexRef(x.pointed)}),
                  SimpMap(pt, y, {(0, "0"): SimplexRef(y.pointed)}),
                  pointed_at=(1, x.pointed))
    return col, col.coprojection(1), col.coprojection(2)


def smash(x: FinSimpSet, y: FinSimpSet):
    """X ^ Y via the pushout of X v Y -> X x Y over the point."""
    if x.pointed is None or y.pointed is None:
        raise ValueError("smash needs pointed inputs")
    wcol, wx, wy = wedge(x, y)
    w = wcol.space
    prod_data = product(x, y)
    prod = prod_data[0]
    legs = [
        constant_map(standard_point(bound=w.dim_bound), prod, prod.pointed),
        pairing(identity_map(x), constant_map(x, y, y.pointed), prod_data),
        pairing(constant_map(y, x, x.pointed), identity_map(y), prod_data),
    ]
    into_prod = wcol.mediating(legs.__getitem__, prod)
    b = min(w.dim_bound, prod.dim_bound)
    pt = standard_point(bound=b)
    collapse = constant_map(w, pt, "0")
    col = pushout(into_prod, collapse, pointed_at=(2, "0"))
    return col.space, col


# ---------------------------------------------------------------------------
# complexes of maps out of frames over Delta[d], and exponentials


class MapComplex:
    """The simplicial set whose d-simplices are families of maps, one out of
    each factor's frame over Delta[d], with faces and degeneracies by
    precomposition with the Delta-operators.

    fixed[i] is factor i's fixed object A_i, or None for Delta[d] itself.
    frame(i, d) is then Delta[d], or the product data (P, p1, p2, pair_ref)
    of Delta[d] x A_i (A_i x Delta[d] when simplex_last).  families(mc, d)
    yields the d-simplices as tuples of maps, one out of each frame(i, d);
    tables[d] sends each one's key, the tuple of its maps' keys, to it.
    from_elements names the nondegenerate cells in sorted key order, so the
    names depend on how keys sort; a 1-tuple key sorts like its one entry.
    """

    def __init__(self, cap, fixed, families, simplex_last=False):
        self.cap, self.fixed, self.simplex_last = cap, fixed, simplex_last
        self.simplices = [standard_simplex(d) for d in range(cap + 1)]
        self._frames = [[s if a is None else product(a, s) if simplex_last else product(s, a)
                         for s in self.simplices] for a in fixed]
        # the face and degeneracy closures outlive __init__ (from_elements
        # keeps them in _ref_of), so they read this list, not self: a cycle
        # through self would leave every complex to the cyclic collector
        self.tables = tables = [
            {tuple(m.key() for m in family): family for family in families(self, d)}
            for d in range(cap + 1)]

        def carries(d_from, d_to, alpha):
            op = _simplex_map_between(self.simplices[d_to], self.simplices[d_from], alpha)
            return [self.carry(None, i, i, d_to, op) for i in range(len(fixed))]

        faces = {(d, t): carries(d, d - 1, delta_tuple(t, d))
                 for d in range(1, cap + 1) for t in range(d + 1)}
        degens = {(d, t): carries(d, d + 1, sigma_tuple(t, d))
                  for d in range(cap) for t in range(d + 1)}

        def face(d, key, t):
            return _precompose(faces[(d, t)], tables[d][key])

        def degen(d, key, t):
            return _precompose(degens[(d, t)], tables[d][key])

        self.space, self._ref_of, self._key_of = from_elements(cap, tables, face, degen)

    def frame(self, i, d):
        return self._frames[i][d]

    def carry(self, f, i, j, d, op=None) -> SimpMap:
        """f x id_Delta[d] from frame(i, d) to frame(j, d); with op a
        Delta-operator Delta[d] -> Delta[e], f x op into frame(j, e).  f is
        a map A_i -> A_j, or None for the identity; the Delta[d] factor
        carries op alone."""
        if op is None:
            op = identity_map(self.simplices[d])
        if self.fixed[i] is None:
            return op
        if f is None:
            f = identity_map(self.fixed[i])
        src, dst = self.frame(i, d), self.frame(j, op.target.dim_bound)
        return product_map(f, op, src, dst) if self.simplex_last else product_map(op, f, src, dst)

    def element_of(self, name):
        d, key = self._key_of[name]
        return self.tables[d][key]

    def ref_of(self, maps, d) -> SimplexRef:
        """Normal-form ref of the d-simplex given by its tuple of maps."""
        return self._ref_of(d, tuple(m.key() for m in maps))

    def induced(self, source: FinSimpSet, family_of) -> SimpMap:
        """The map source -> space sending the d-cell name to the d-simplex
        given by the tuple of maps family_of(d, name)."""
        return cellwise(source, self.space, lambda d, name: self.ref_of(family_of(d, name), d))


def _precompose(carries, maps):
    return tuple(c.then(m).key() for c, m in zip(carries, maps))


class Exponential(MapComplex):
    """The function complex x^a: n-simplices are maps Delta[n] x a -> x,
    with faces and degeneracies by precomposition on the simplex factor.

    Truncated at x's bound (or dim_cap); exact when x is coskeletal at its
    bound, e.g. for nerves.  `space` is the complex; element_of gives the
    map a cell stands for.
    """

    def __init__(self, x: FinSimpSet, a: FinSimpSet, dim_cap=None, budget=None):
        budget = budget or Budget()
        super().__init__(x.dim_bound if dim_cap is None else dim_cap, [a], lambda mc, n: (
            (m,) for m in hom_set(mc.frame(0, n)[0], x, budget=budget)))

    def element_of(self, name) -> SimpMap:
        return super().element_of(name)[0]


def _simplex_map_between(src: FinSimpSet, dst: FinSimpSet, alpha) -> SimpMap:
    """Simplex-to-simplex map over a monotone vertex map, on given copies."""
    def image(_dim, name):
        verts = tuple(alpha[int(ch)] for ch in name)
        uniq = tuple(sorted(set(verts)))
        return SimplexRef(_tuple_name(uniq), surj_to_word(tuple(uniq.index(v) for v in verts)))

    return cellwise(src, dst, image)


# ---------------------------------------------------------------------------
# lifting properties


def _commuting_squares(i: SimpMap, p: SimpMap, budget):
    """All (u, v) with v o i = p o u for i: A -> B, p: X -> Y: the u's in
    hom_set order, each with its v's in hom_set order.  The two sides are
    compared on the cells of A where both are defined (p o u stops at x's
    bound when x is read coskeletally above it).  The v's are searched
    once, not once per u."""
    us = hom_set(i.source, p.source, budget=budget)
    if not us:
        return []
    tops = [u.then(p) for u in us]
    bottoms = [(v, i.then(v)) for v in hom_set(i.target, p.target, budget=budget)]
    cells = sorted(tops[0].assignment.keys() & bottoms[0][1].assignment.keys()) if bottoms else []
    under = {}
    for v, vi in bottoms:
        under.setdefault(tuple(vi.assignment[c] for c in cells), []).append(v)
    return [(u, v) for u, top in zip(us, tops)
            for v in under.get(tuple(top.assignment[c] for c in cells), ())]


def _find_lift(i: SimpMap, p: SimpMap, u: SimpMap, v: SimpMap, budget):
    """A diagonal h: B -> X with h o i = u and p o h = v, or None.

    One `maps` backtrack per square, run by `has_rlp`; `_horn_squares`
    decides a horn's squares by lookup instead.  Every cell of A that the
    search reaches through i is checked, also one that i sends to a
    degenerate simplex.  X is read as `maps` reads it, and Y coskeletally
    above v's cap, so p o h is compared with v up to it.
    """
    fixed, through, cap = {}, {}, v.cap
    for (n, name), ref in i.assignment.items():
        want = u.assignment.get((n, name))
        if want is None:
            continue
        if ref.degs:
            base = (n - len(ref.degs), ref.base)
            through.setdefault(base, []).append((ref.degs, want))
        elif fixed.setdefault((n, ref.base), want) != want:
            return None

    def constraint(n, name, ref):
        return (n > cap or p(ref, n) == v(SimplexRef(name), n)) and all(
            apply_word(ref, degs, n) == want for degs, want in through.get((n, name), ()))

    return next(maps(i.target, p.source, budget=budget, fixed=fixed, constraint=constraint),
                None)


def _horn_faces(u: SimpMap, n, k):
    """The face tuple (u(d_j))_{j != k} of a horn map u: Lambda^k[n] -> X,
    which determines u.  Where X stops below n - 1 it holds None; every
    such square fills, and `_horn_squares` lists none."""
    return tuple(u.assignment.get((n - 1, _tuple_name(delta_tuple(j, n))))
                 for j in range(n + 1) if j != k)


def _horn_tuples(n, k, x: FinSimpSet, budget):
    """The maps Lambda^k[n] -> X, lazily, as their face tuples
    (x_j)_{j != k}: the tuples with d_i x_j = d_{j-1} x_i for i < j.  Each
    x_j is drawn, in order of j, from the bucket of X's (n-1)-refs whose
    faces d_i, i < j, are the d_{j-1} x_i already drawn; one unit of
    budget per candidate in each bucket drawn."""
    sides = [j for j in range(n + 1) if j != k]
    indexes = [x.face_index(n - 1, tuple(sides[:m])) for m in range(n)]

    def extend(drawn):
        if len(drawn) == n:
            yield drawn
            return
        j = sides[len(drawn)]
        bucket = indexes[len(drawn)].get(tuple(x.face(xi, n - 1, j - 1) for xi in drawn), ())
        budget.spend(len(bucket))
        for ref in bucket:
            yield from extend(drawn + (ref,))

    return extend(())


def _horn_tops(n, k, s: FinSimpSet, d):
    """The lookup of what a horn map, given by its face tuple (x_j)_{j != k},
    extends to in maps Delta[n] -> s read at d = `map_cap`(Delta[n], s), n
    or n - 1: the n-refs over the tuple, or the candidates for its missing
    face x_k, whose boundary the tuple forces (d_i x_k = d_{k-1} x_i for
    i < k and d_k x_{i+1} for i >= k: the tuple's i-th entry either way)."""
    if d == n:
        index = s.horn_index(n, k)
        return lambda faces: index.get(faces, ())
    if n == 1:
        return lambda faces: s.refs(0)
    index = s.face_index(n - 1)
    return lambda faces: index.get(
        tuple(s.face(f, n - 1, k - (i < k)) for i, f in enumerate(faces)), ())


def _horn_squares(n, k, p: SimpMap, budget):
    """Each commuting square of Lambda^k[n] in Delta[n] against p: X -> Y
    as (faces, tau, filled): the face tuple of the horn map u (see
    `_horn_faces`), the bottom's top simplex tau (None where Y stops below
    n), and whether a filler exists.  The u's are joined by `_horn_tuples`;
    the bottoms over p of u's faces and the fillers over u's faces are
    looked up by `_horn_tops` (one unit of budget per filler) and meet at
    the lower of their dimensions, an n-simplex by its d_k face, read in X
    before p.  Where Y stops below n - 1 the one bottom is p o u, filled
    iff X has a top; where X does, every square fills and none is listed."""
    x, y, full = p.source, p.target, standard_simplex(n)
    dx, dy = map_cap(full, x), map_cap(full, y)
    if dx < n - 1:
        return
    fillers, low = _horn_tops(n, k, x, dx), min(dx, dy)
    if dy < n - 1:
        for faces in _horn_tuples(n, k, x, budget):
            over = fillers(faces)
            budget.spend(len(over))
            yield faces, None, bool(over)
        return
    bottoms, lower_x, lower_y, top = _horn_tops(n, k, y, dy), dx > low, dy > low, dy == n
    for faces in _horn_tuples(n, k, x, budget):
        taus = bottoms(tuple([p(f, n - 1) for f in faces]))
        if not taus:
            continue
        over = fillers(faces)
        budget.spend(len(over))
        images = {p(x.face(s, n, k) if lower_x else s, low) for s in over}
        yield from ((faces, tau if top else None,
                     (y.face(tau, n, k) if lower_y else tau) in images) for tau in taus)


def unliftable_square(i: SimpMap, p: SimpMap, budget):
    """(squares, square): the commuting squares of i against p and the
    first of them with no diagonal filler, or None."""
    squares = _commuting_squares(i, p, budget)
    unliftable = (s for s in squares if _find_lift(i, p, *s, budget) is None)
    return squares, next(unliftable, None)


def unfillable_inner_horn(p: SimpMap, d, budget):
    """The first (n, k, u), 0 < k < n <= d, where the inner horn
    u: Lambda^k[n] -> X has a square against p with no filler; or None.
    `_horn_squares` decides the squares on face tuples; only a horn with
    an unfilled square is named, by the first map in `maps` order whose
    face tuple is unfilled."""
    for n in range(2, d + 1):
        for k in range(1, n):
            unfilled = {faces for faces, _, filled in _horn_squares(n, k, p, budget) if not filled}
            if unfilled:
                return n, k, next(u for u in maps(horn(n, k), p.source, budget=budget)
                                  if _horn_faces(u, n, k) in unfilled)
    return None


def has_rlp(p: SimpMap, i: SimpMap, budget=None) -> Verdict:
    """Does p have the right lifting property against i?

    Searches every commuting square of i against p for a diagonal filler,
    on the full bound of i.target, with p.source read as `maps` reads it.
    """
    budget = budget or Budget()
    checked = f"squares of {i.source.summary()}->{i.target.summary()} vs p"
    try:
        squares, square = unliftable_square(i, p, budget)
    except BudgetExceededError as e:
        return Verdict(INCONCLUSIVE, checked, witness=str(e))
    if square is not None:
        u, v = square
        return Verdict(FAILS, checked, witness={"u": u.key(), "v": v.key()})
    return Verdict(HOLDS, checked, details={"squares": len(squares)})


def is_quasicategory_up_to(x: FinSimpSet, d, budget=None) -> Verdict:
    """Inner-horn filling for all Lambda^k[n], 0 < k < n <= d, as lifting
    of x -> point."""
    budget = budget or Budget()
    checked = f"inner horns n<={d}"
    try:
        horn_found = unfillable_inner_horn(constant_map(x, standard_point(), "0"), d, budget)
    except BudgetExceededError as e:
        return Verdict(INCONCLUSIVE, checked, witness=str(e))
    if horn_found is not None:
        n, k, u = horn_found
        return Verdict(FAILS, checked, witness={"horn": [n, k], "map": u.key()})
    return Verdict(HOLDS, checked)


# ---------------------------------------------------------------------------
# pushout-product


def pushout_product(f: SimpMap, g: SimpMap) -> SimpMap:
    """(V x W) u_{U x W} (U x X) -> V x X for f: U -> V, g: W -> X."""
    u, v = f.source, f.target
    w, x = g.source, g.target
    vw = product(v, w)
    uw = product(u, w)
    ux = product(u, x)
    vx = product(v, x)
    f_w = product_map(f, identity_map(w), uw, vw)
    u_g = product_map(identity_map(u), g, uw, ux)
    col = pushout(f_w, u_g)
    legs = [
        product_map(f, g, uw, vx),
        product_map(identity_map(v), g, vw, vx),
        product_map(f, identity_map(x), ux, vx),
    ]
    return col.mediating(legs.__getitem__, vx[0])
