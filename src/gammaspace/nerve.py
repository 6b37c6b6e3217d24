"""Nerves of finite categories and the fundamental category of a finite
simplicial set, with the unit isomorphism between them.  The fundamental
category is computed by coset enumeration and certified by the category
axioms."""

from __future__ import annotations

import collections

from .catcore import CatFunctor, FinCat
from .simplicial import FinSimpSet, SimplexRef, SimpMap, cellwise
from .verdicts import ResourceError


def joined_name(parts, sep):
    """The parts joined by sep, each with its backslashes and seps escaped
    by a backslash: distinct nonempty tuples of parts get distinct names,
    and a part that holds neither character is written as it is."""
    return sep.join(p.replace("\\", "\\\\").replace(sep, "\\" + sep) for p in parts)


def chain_ref(c: FinCat, chain, start) -> SimplexRef:
    """The simplex of N(c) of a chain of composable arrows out of the
    object start, identities allowed: its chain of non-identity arrows,
    degenerated where the identities stood.  The nondegenerate simplex of
    a chain is named by joining its arrow ids with "|" (see `joined_name`),
    and a vertex by "o" and its object."""
    word = tuple(i for i in reversed(range(len(chain))) if c.is_identity(chain[i]))
    squeezed = [f for f in chain if not c.is_identity(f)]
    return SimplexRef(joined_name(squeezed, "|") if squeezed else f"o{start}", word)


def chain_face(c: FinCat, chain, i):
    """The i-th face of a chain of n >= 1 composable arrows, as (the chain
    of n - 1 arrows, its first object): d_0 drops the first arrow, d_n the
    last, and 0 < i < n composes the two arrows at object i."""
    if i == 0:
        return chain[1:], c.dst(chain[0])
    if i == len(chain):
        return chain[:-1], c.src(chain[0])
    return chain[:i - 1] + (c.compose(chain[i], chain[i - 1]),) + chain[i + 1:], c.src(chain[0])


def nerve(c: FinCat, bound=4) -> FinSimpSet:
    """Nerve of a finite category, truncated.

    Nondegenerate n-cells are chains of n composable non-identity arrows,
    named by `chain_ref`; nerves are 2-coskeletal so any bound >= 2 reads
    back exactly.
    """
    def extended(ch):
        return [ch + (g,) for g in c.out_of(c.dst(ch[-1])) if not c.is_identity(g)]

    non_id = [f for f in c.arrow_ids() if not c.is_identity(f)]
    cells = {0: {chain_ref(c, (), a).base: () for a in c.objects}}
    chains = {1: [(f,) for f in non_id]}
    for n in range(2, bound + 1):
        chains[n] = [chain for ch in chains[n - 1] for chain in extended(ch)]

    for n in range(1, bound + 1):
        cells[n] = {}
        for ch in chains.get(n, []):
            # a composite may be an identity; chain_ref renormalizes
            faces = tuple(chain_ref(c, *chain_face(c, ch, i)) for i in range(n + 1))
            cells[n][chain_ref(c, ch, c.src(ch[0])).base] = faces

    longer = any(map(extended, chains[bound])) if bound >= 1 else bool(non_id)
    return FinSimpSet(bound, cells, complete=not longer)


def nerve_functor_map(fun: CatFunctor, nc: FinSimpSet, nd: FinSimpSet) -> SimpMap:
    """The simplicial map N(fun): N(C) -> N(D) on given nerve truncations,
    in every dimension its cap asks for."""
    c, d = fun.source, fun.target
    objects = {chain_ref(c, (), a).base: a for a in c.objects}
    arrows = {chain_ref(c, (f,), c.src(f)).base: f
              for f in c.arrow_ids() if not c.is_identity(f)}

    def image(n, name):
        if n == 0:
            return chain_ref(d, (), fun.obj(objects[name]))
        chain = tuple(arrows[nc.act(SimplexRef(name), n, (i, i + 1)).base] for i in range(n))
        return chain_ref(d, tuple(fun.arr(f) for f in chain), fun.obj(c.src(chain[0])))

    return cellwise(nc, nd, image)


# ---------------------------------------------------------------------------
# fundamental category

# the most arrows the coset enumeration of tau1 defines before it gives up
ARROW_BUDGET = 200000


def tau1(x: FinSimpSet):
    """Fundamental category: objects are vertices, arrows are edge paths
    modulo the two-simplex relations.

    Computed once per set by coset enumeration, certified by the category
    axioms; raises ResourceError when the enumeration defines more than
    ARROW_BUDGET arrows.

    Returns (category, edge_to_arrow).
    """
    cat, edge_to_arrow, _ = _tau1_kept(x)
    return cat, edge_to_arrow


def _tau1_kept(x: FinSimpSet):
    """_tau1_full(x), kept on x; a ResourceError is raised again each time."""
    if x._tau1 is None:
        x._tau1 = _tau1_full(x)
    return x._tau1


def _tau1_full(x: FinSimpSet):
    """Todd-Coxeter coset enumeration on the right Cayley graph of tau1.

    One node per arrow, a root per vertex for its identity; `table` takes
    (node, outgoing edge) to a node, `parent` merges coincident nodes.  One
    pass visits the nodes in creation order: at each live node it traces
    both sides of d1 = d0 . d2 for every 2-simplex starting at the node's
    end vertex (degenerate faces are empty words), merges the two ends, and
    then defines the node's missing outgoing edges.

    Each class is named by its shortlex-least word, found breadth first
    with the edges in sorted order, and `a{i}` follows the sorted
    (vertex, word) pairs.  Returns (category, edge_to_arrow, rep_words).
    """
    edges = x.cell_ids(1)
    dst = {e: x.faces_of(1, e)[0].base for e in edges}
    src = {e: x.faces_of(1, e)[1].base for e in edges}
    leaving = {}
    for e in sorted(edges):
        leaving.setdefault(src[e], []).append(e)
    relations = {}
    for t in x.cell_ids(2):
        right, long_edge, left = x.faces_of(2, t)
        relations.setdefault(_edge_src(x, left), []).append(
            (_word(left, right), _word(long_edge)))

    end, table, parent = [], [], []

    def define(at):
        if len(end) >= ARROW_BUDGET:
            raise ResourceError(
                f"coset enumeration of tau1 exceeded {ARROW_BUDGET} arrows")
        end.append(at)
        table.append({})
        parent.append(len(parent))
        return len(end) - 1

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def follow(n, word):
        for e in word:
            n = find(n)
            if e not in table[n]:
                table[n][e] = define(dst[e])
            n = table[n][e]
        return find(n)

    def merge(a, b):
        pending = [(a, b)]
        while pending:
            a, b = sorted(map(find, pending.pop()))
            if a != b:
                parent[b] = a
                for e, t in table[b].items():
                    if e in table[a]:
                        pending.append((table[a][e], t))
                    else:
                        table[a][e] = t

    roots = {v: define(v) for v in x.cell_ids(0)}
    n = 0
    while n < len(end):
        for lhs, rhs in relations.get(end[n], ()):
            if find(n) != n:
                break
            merge(follow(n, lhs), follow(n, rhs))
        if find(n) == n:
            for e in leaving.get(end[n], ()):
                follow(n, (e,))
        n += 1

    rep = {}
    for v, root in roots.items():
        rep[root] = (v, ())
        queue = collections.deque([root])
        while queue:
            n = queue.popleft()
            for e in leaving.get(end[n], ()):
                m = find(table[n][e])
                if m not in rep:
                    rep[m] = (v, rep[n][1] + (e,))
                    queue.append(m)
    ordered = sorted(rep, key=rep.get)
    name = {n: f"a{i}" for i, n in enumerate(ordered)}
    arrows = {name[n]: (rep[n][0], end[n]) for n in ordered}
    identities = {v: name[root] for v, root in roots.items()}
    compose = {
        (name[g], name[f]): name[follow(f, rep[g][1])]
        for g in ordered
        for f in ordered
        if end[f] == rep[g][0]
    }
    cat = FinCat(x.cell_ids(0), arrows, identities, compose).validate()
    edge_to_arrow = {e: name[find(table[roots[src[e]]][e])] for e in edges}
    return cat, edge_to_arrow, {name[n]: rep[n] for n in ordered}


def _word(*edge_refs):
    """The edge word of a chain of edge refs; degenerate edges are empty."""
    return tuple(e.base for e in edge_refs if not e.degs)


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
    cx, _, rep_words = _tau1_kept(f.source)
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
