"""Nerves of finite categories and the fundamental category of a finite
simplicial set, with the unit isomorphism between them."""

from __future__ import annotations

import itertools

from .catcore import CatFunctor, FinCat
from .simplicial import FinSimpSet, SimplexRef, SimpMap, cellwise
from .verdicts import DEFAULT_WORD_CAP, ResourceError

# the most edge paths tau1 enumerates at one word-length cap
PATH_BUDGET = 200000


def chain_ref(c: FinCat, chain, start) -> SimplexRef:
    """The simplex of N(c) of a chain of composable arrows out of the
    object start, identities allowed: its chain of non-identity arrows,
    degenerated where the identities stood."""
    word = tuple(i for i in reversed(range(len(chain))) if c.is_identity(chain[i]))
    squeezed = [f for f in chain if not c.is_identity(f)]
    return SimplexRef("|".join(squeezed) if squeezed else f"o{start}", word)


def nerve(c: FinCat, bound=4) -> FinSimpSet:
    """Nerve of a finite category, truncated.

    Nondegenerate n-cells are chains of n composable non-identity arrows;
    nerves are 2-coskeletal so any bound >= 2 reads back exactly.
    """
    non_id = [f for f in c.arrow_ids() if not c.is_identity(f)]
    cells = {0: {f"o{a}": () for a in c.objects}}
    chains = {1: [(f,) for f in non_id]}
    for n in range(2, bound + 1):
        chains[n] = [
            ch + (g,)
            for ch in chains[n - 1]
            for g in non_id
            if c.src(g) == c.dst(ch[-1])
        ]

    for n in range(1, bound + 1):
        cells[n] = {}
        for ch in chains.get(n, []):
            faces = []
            for i in range(n + 1):
                if i == 0:
                    sub = ch[1:]
                    start = c.dst(ch[0])
                elif i == n:
                    sub = ch[:-1]
                    start = c.src(ch[0])
                else:
                    sub = ch[: i - 1] + (c.compose(ch[i], ch[i - 1]),) + ch[i + 1 :]
                  # composite may be an identity; chain_ref renormalizes
                    start = c.src(ch[0])
                faces.append(chain_ref(c, sub, start))
            cells[n]["|".join(ch)] = tuple(faces)

    longer = any(
        c.src(g) == c.dst(ch[-1])
        for ch in chains.get(bound, [])
        for g in non_id
    ) if bound >= 1 else bool(non_id)
    return FinSimpSet(bound, cells, complete=not longer)


def nerve_functor_map(fun: CatFunctor, nc: FinSimpSet, nd: FinSimpSet) -> SimpMap:
    """The simplicial map N(fun): N(C) -> N(D) on given nerve truncations,
    in every dimension its cap asks for."""
    c, d = fun.source, fun.target
    objects = {f"o{a}": a for a in c.objects}

    def image(n, name):
        if n == 0:
            return SimplexRef(f"o{fun.obj(objects[name])}")
        chain = tuple(name.split("|"))
        return chain_ref(d, tuple(fun.arr(f) for f in chain), fun.obj(c.src(chain[0])))

    return cellwise(nc, nd, image)


# ---------------------------------------------------------------------------
# fundamental category


class _Paths:
    """Composable-edge paths of bounded length, with congruence closure.
    Raises ResourceError as soon as there are more than PATH_BUDGET paths."""

    def __init__(self, x: FinSimpSet, cap):
        self.x = x
        self.cap = cap
        self.src = {}
        self.dst = {}
        for e in x.cell_ids(1):
            faces = x.faces_of(1, e)
            self.dst[e] = faces[0].base
            self.src[e] = faces[1].base
        self.paths = set()
        frontier = [(v, ()) for v in x.cell_ids(0)]
        self.paths.update(frontier)
        for _ in range(cap):
            nxt = []
            for (v, word) in frontier:
                tail = word[-1] if word else None
                at = self.dst[tail] if tail else v
                for e in x.cell_ids(1):
                    if self.src[e] == at:
                        p = (v, word + (e,))
                        if p not in self.paths:
                            self.paths.add(p)
                            nxt.append(p)
                            if len(self.paths) > PATH_BUDGET:
                                raise ResourceError(
                                    f"path enumeration exceeded {PATH_BUDGET} at cap {cap}")
            frontier = nxt
        self.parent = {p: p for p in self.paths}

    def path_of(self, v, edges):
        """Drop degenerate edges from a ref word; edges given as refs."""
        word = tuple(e.base for e in edges if not e.degs)
        return (v, word)

    def find(self, p):
        while self.parent[p] != p:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        return p

    def union(self, p, q):
        rp, rq = self.find(p), self.find(q)
        if rp == rq:
            return False
        if rq < rp:
            rp, rq = rq, rp
        self.parent[rq] = rp
        return True

    def endpoint(self, p):
        v, word = p
        return self.dst[word[-1]] if word else v

    def close(self, relations):
        """Congruence closure within the cap: seed the relations, then sweep
        to a fixpoint where equal classes have equal one-edge extensions on
        either side (whenever both extensions are enumerated).

        Extensions leaving the cap are ignored: the caller certifies the
        result independently (representatives compose within the cap, the
        dense table satisfies the category axioms, and the seeded relations
        hold), which pins the quotient exactly.
        """
        for p, q in relations:
            self.union(p, q)
        edges = self.x.cell_ids(1)
        right_ext = {}
        left_ext = {}
        for p in self.paths:
            v, word = p
            for e in edges:
                if self.src[e] == self.endpoint(p) and len(word) < self.cap:
                    right_ext.setdefault(e, []).append((p, (v, word + (e,))))
                if self.dst[e] == v and len(word) < self.cap:
                    left_ext.setdefault(e, []).append((p, (self.src[e], (e,) + word)))
        changed = True
        while changed:
            changed = False
            for table in (right_ext, left_ext):
                for e, pairs in table.items():
                    buckets = {}
                    for p, pe in pairs:
                        buckets.setdefault(self.find(p), []).append(pe)
                    for exts in buckets.values():
                        first = exts[0]
                        for other in exts[1:]:
                            if self.union(first, other):
                                changed = True


def _tau1_at_cap(x: FinSimpSet, cap):
    paths = _Paths(x, cap)
    relations = []
    for t in x.cell_ids(2):
        faces = x.faces_of(2, t)
        long_edge, right, left = faces[1], faces[0], faces[2]
        start = _edge_src(x, left)
        lhs = paths.path_of(start, (left, right))
        rhs = paths.path_of(start, (long_edge,))
        relations.append((lhs, rhs))
    paths.close(relations)

    classes = {}
    for p in paths.paths:
        classes.setdefault(paths.find(p), []).append(p)
    reps = {root: min(ps, key=lambda p: (len(p[1]), p)) for root, ps in classes.items()}
    too_long = list(itertools.islice((
        (reps[r1], reps[r2])
        for r1 in reps
        for r2 in reps
        if paths.endpoint(reps[r1]) == reps[r2][0]
        and len(reps[r1][1]) + len(reps[r2][1]) > cap
    ), 5))
    if too_long:
        raise ResourceError(
            f"representative words do not compose within cap {cap}",
            offenders=too_long,
        )

    ordered = sorted(reps.values())
    arrow_name = {rep: f"a{i}" for i, rep in enumerate(ordered)}
    arrows = {}
    identities = {}
    for rep in ordered:
        v, word = rep
        arrows[arrow_name[rep]] = (v, paths.endpoint(rep))
        if not word:
            identities[v] = arrow_name[rep]

    def class_arrow(p):
        return arrow_name[reps[paths.find(p)]]

    compose = {}
    for rep_g in ordered:
        for rep_f in ordered:
            if paths.endpoint(rep_f) != rep_g[0]:
                continue
            comp = (rep_f[0], rep_f[1] + rep_g[1])
            compose[(arrow_name[rep_g], arrow_name[rep_f])] = class_arrow(comp)
    cat = FinCat(x.cell_ids(0), arrows, identities, compose).validate()
    edge_to_arrow = {e: class_arrow((paths.src[e], (e,))) for e in x.cell_ids(1)}
    rep_words = {f"a{i}": rep for i, rep in enumerate(ordered)}
    return cat, edge_to_arrow, rep_words


def tau1(x: FinSimpSet):
    """Fundamental category: objects are vertices, arrows are edge paths
    modulo the two-simplex relations.

    Computed by congruence closure at increasing word-length caps.  A run
    at any cap is certified exact when its representatives compose within
    the cap and the resulting dense table satisfies the category axioms;
    if no cap up to DEFAULT_WORD_CAP certifies, the failure is explicit.

    Returns (category, edge_to_arrow).
    """
    cat, edge_to_arrow, _ = _tau1_full(x)
    return cat, edge_to_arrow


def _tau1_full(x: FinSimpSet):
    cap = 4
    while True:
        cap = min(cap, DEFAULT_WORD_CAP)
        try:
            return _tau1_at_cap(x, cap)
        except ResourceError:
            if cap >= DEFAULT_WORD_CAP:
                raise
            cap += 4


def _edge_src(x, edge_ref):
    if edge_ref.degs:
        return edge_ref.base
    return x.faces_of(1, edge_ref.base)[1].base


def edge_is_invertible(edge_ref, cat: FinCat, edge_to_arrow):
    """Does an edge become an isomorphism in the fundamental category
    (cat, edge_to_arrow) = tau1 of its simplicial set?"""
    if edge_ref.degs:
        return True
    return cat.is_iso_arrow(edge_to_arrow[edge_ref.base])


def tau1_functor(f: SimpMap) -> CatFunctor:
    """The induced functor between fundamental categories.

    Arrows of the source category are composites of edge classes; each maps
    to the composite of the image edge classes.
    """
    cx, _, rep_words = _tau1_full(f.source)
    cy, ey = tau1(f.target)
    on_objects = {v: f(SimplexRef(v), 0).base for v in f.source.cell_ids(0)}
    gen_image = {}
    for e in f.source.cell_ids(1):
        img = f(SimplexRef(e), 1)
        if img.degs:
            gen_image[e] = cy.identities[on_objects[_edge_src(f.source, SimplexRef(e))]]
        else:
            gen_image[e] = ey[img.base]
    on_arrows = {}
    for name, (v, word) in rep_words.items():
        img = cy.identities[on_objects[v]]
        for e in word:
            img = cy.compose(gen_image[e], img)
        on_arrows[name] = img
    return CatFunctor(cx, cy, on_objects, on_arrows).validate()
