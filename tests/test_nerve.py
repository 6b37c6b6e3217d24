"""Nerves and the fundamental category: the unit isomorphism, coset
enumeration against the congruence closure it replaced, and isomorphisms
of categories decided on their nerves."""

import functools
import itertools
import linecache
import random
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from gammaspace import nerve as nerve_module
from gammaspace.catcore import (
    CatFunctor,
    FinCat,
    all_functors,
    cyclic_group_category,
    poset_category,
    terminal_category,
    walking_iso_category,
)
from gammaspace.corpus import category_corpus
from gammaspace.nerve import (
    ARROW_BUDGET,
    _tau1_full,
    chain_ref,
    edge_is_invertible,
    joined_name,
    nerve,
    nerve_functor_map,
    tau1,
    tau1_functor,
)
from gammaspace.shapes import Exponential, standard_point, standard_simplex
from gammaspace.simplicial import (
    Colimit,
    FinSimpSet,
    SimplexRef,
    SimpMap,
    identity_map,
    iso_check,
    product,
)
from gammaspace.verdicts import HOLDS, ResourceError
from test_simplicial import glued_simplices


def test_nerve_basics():
    assert iso_check(nerve(terminal_category()), standard_point()).status == HOLDS
    assert iso_check(nerve(poset_category(1)), standard_simplex(1)).status == HOLDS
    assert iso_check(nerve(poset_category(2), bound=2), standard_simplex(2)).status == HOLDS
    # chain-enumeration oracle for the one-object two-arrow group: of the
    # four 2-chains over {e,g}, only (g,g) has no identity entry
    assert nerve(cyclic_group_category(2), bound=2).summary() == [1, 1, 1]


def test_nerve_completeness_flag():
    assert nerve(poset_category(2), bound=4).complete
    assert not nerve(cyclic_group_category(2), bound=3).complete


def test_tau1_standard():
    c, _ = tau1(standard_simplex(3))
    assert iso_check(nerve(c, bound=2), nerve(poset_category(3), bound=2)).status == HOLDS


@pytest.mark.parametrize("name,cat", category_corpus())
def test_tau1_nerve_unit(name, cat):
    t, _ = tau1(nerve(cat, bound=3))
    assert iso_check(nerve(t, bound=2), nerve(cat, bound=2)).status == HOLDS


def _loops(k):
    """One vertex with k loops: tau1 is the free monoid on k letters, which
    has no end."""
    return FinSimpSet(1, {0: {"v": ()},
                          1: {f"e{i}": (SimplexRef("v"), SimplexRef("v")) for i in range(k)}})


@pytest.mark.parametrize("k", [2, 3, 4], ids=["two", "three", "four"])
def test_tau1_of_free_loops_stops_at_its_bounds(k):
    # the arrow budget is read as the arrows are defined
    with pytest.raises(ResourceError,
                       match=f"coset enumeration of tau1 exceeded {ARROW_BUDGET} arrows"):
        tau1(_loops(k))


def _spine(n):
    """n edges end to end, v00 -> v01 -> ... , and no 2-cells."""
    v = [SimplexRef(f"v{i:02d}") for i in range(n + 1)]
    return FinSimpSet(1, {0: {r.base: () for r in v},
                          1: {f"e{i:02d}": (v[i + 1], v[i]) for i in range(n)}})


def test_tau1_of_a_long_spine_is_its_poset():
    # tau1 is the poset [17]: one arrow per pair i <= j, the longest a word
    # of 17 edges
    cat, table = tau1(_spine(17))
    assert len(cat.arrows) == 171
    assert all(len(cat.hom(a, b)) == (a <= b) for a in cat.objects for b in cat.objects)
    assert all(cat.src(table[e]) < cat.dst(table[e]) for e in table)


# ---------------------------------------------------------------------------
# the congruence closure tau1 was computed by before coset enumeration, kept
# as an oracle at one word cap

ORACLE_CAP = 4
ORACLE_PATHS = 20000


def _tau1_by_closure(x):
    """tau1 by congruence closure at the word cap ORACLE_CAP: every edge
    path of at most that many edges, the 2-simplex relations closed under
    one-edge extension on either side, each class named by its
    shortlex-least path.  Raises ResourceError on more than ORACLE_PATHS
    paths, or when the representatives do not compose within the cap;
    otherwise the category axioms certify the result.

    Returns (category, edge_to_arrow, rep_words) as `_tau1_full` does."""
    cap = ORACLE_CAP
    dst = {e: x.faces_of(1, e)[0].base for e in x.cell_ids(1)}
    src = {e: x.faces_of(1, e)[1].base for e in x.cell_ids(1)}

    def endpoint(p):
        return dst[p[1][-1]] if p[1] else p[0]

    paths = {(v, ()) for v in x.cell_ids(0)}
    frontier = list(paths)
    for _ in range(cap):
        frontier = [(v, word + (e,)) for v, word in frontier
                    for e in x.cell_ids(1) if src[e] == endpoint((v, word))]
        paths.update(frontier)
        if len(paths) > ORACLE_PATHS:
            raise ResourceError(f"more than {ORACLE_PATHS} paths at cap {cap}")
    parent = {p: p for p in paths}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = sorted((find(p), find(q)))
        parent[rq] = rp
        return rp != rq

    def word(*edges):
        return tuple(e.base for e in edges if not e.degs)

    for t in x.cell_ids(2):
        right, long_edge, left = x.faces_of(2, t)
        start = left.base if left.degs else src[left.base]
        union((start, word(left, right)), (start, word(long_edge)))
    extensions = [[(p, (v, w + (e,))) for p in paths for v, w in [p]
                   if src[e] == endpoint(p) and len(w) < cap] for e in x.cell_ids(1)]
    extensions += [[(p, (src[e], (e,) + w)) for p in paths for v, w in [p]
                    if dst[e] == v and len(w) < cap] for e in x.cell_ids(1)]
    changed = True
    while changed:
        changed = False
        for pairs in extensions:
            buckets = {}
            for p, pe in pairs:
                buckets.setdefault(find(p), []).append(pe)
            for first, *others in buckets.values():
                for other in others:
                    changed |= union(first, other)

    reps = {}
    for p in sorted(paths, key=lambda p: (len(p[1]), p)):
        reps.setdefault(find(p), p)
    if any(endpoint(f) == g[0] and len(f[1]) + len(g[1]) > cap
           for f in reps.values() for g in reps.values()):
        raise ResourceError(f"representative words do not compose within cap {cap}")
    ordered = sorted(reps.values())
    name = {rep: f"a{i}" for i, rep in enumerate(ordered)}

    def arrow(p):
        return name[reps[find(p)]]

    cat = FinCat(
        x.cell_ids(0),
        {name[p]: (p[0], endpoint(p)) for p in ordered},
        {p[0]: name[p] for p in ordered if not p[1]},
        {(name[g], name[f]): arrow((f[0], f[1] + g[1]))
         for g in ordered for f in ordered if endpoint(f) == g[0]},
    ).validate()
    return cat, {e: arrow((src[e], (e,))) for e in x.cell_ids(1)}, {
        name[p]: p for p in ordered}


def _tables(result):
    cat, edge_to_arrow, words = result
    return (cat.objects, cat.arrows, cat.identities, cat.compose_table,
            edge_to_arrow, words)


def _satisfies_its_relations(x, result):
    """Every edge maps to an arrow between its ends, and every 2-simplex
    commutes: d1 = d0 . d2, a degenerate face read as an identity."""
    cat, edge_to_arrow, _ = result

    def arrow(ref):
        return cat.identities[ref.base] if ref.degs else edge_to_arrow[ref.base]

    return all(
        cat.arrows[edge_to_arrow[e]] == (x.faces_of(1, e)[1].base, x.faces_of(1, e)[0].base)
        for e in x.cell_ids(1)
    ) and all(
        cat.compose(arrow(right), arrow(left)) == arrow(long_edge)
        for right, long_edge, left in (x.faces_of(2, t) for t in x.cell_ids(2))
    )


CORPUS = category_corpus()


@functools.cache
def _corpus_pair(kind, i, j):
    c, d = nerve(CORPUS[i][1], bound=2), nerve(CORPUS[j][1], bound=2)
    return product(c, d, bound=2)[0] if kind == "product" else Exponential(c, d).space


@st.composite
def tau1_inputs(draw):
    """A glued quotient of two standard simplices, or a product or an
    exponential of two corpus nerves."""
    kind = draw(st.sampled_from(["quotient", "product", "exponential"]))
    if kind == "quotient":
        return glued_simplices(draw(st.integers(0, 2)),
                               draw(st.sets(st.integers(0, 5), max_size=4))).space
    pair = st.integers(0, len(CORPUS) - 1)
    return _corpus_pair(kind, draw(pair), draw(pair))


def test_closure_oracle_certifies_and_gives_up():
    # both branches of the comparison below are reached: the walking
    # isomorphism certifies, a loop that is a free monoid does not
    walking_iso = nerve(walking_iso_category(), bound=2)
    assert _tables(_tau1_by_closure(walking_iso)) == _tables(_tau1_full(walking_iso))
    with pytest.raises(ResourceError):
        _tau1_by_closure(_loops(1))


@given(tau1_inputs())
@settings(max_examples=60, deadline=None)
def test_coset_enumeration_matches_the_closure_oracle(x):
    try:
        expected = _tables(_tau1_by_closure(x))
    except ResourceError:
        expected = None
    if expected is not None:
        assert _tables(_tau1_full(x)) == expected
        return
    # a smaller arrow budget only shortens the runs that give up
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nerve_module, "ARROW_BUDGET", 20000)
        try:
            result = _tau1_full(x)
        except ResourceError:
            return
    result[0].validate()
    assert _satisfies_its_relations(x, result)


def _s3_presentation():
    """One vertex v, loops a, b, d, e, and 2-cells (d0, d1, d2) reading
    a.a = 1, d = b.b, b.d = 1, e = a.b and e.e = 1: the symmetric group S3."""
    v, s0v = SimplexRef("v"), SimplexRef("v", (0,))
    a, b, d, e = (SimplexRef(c) for c in "abde")
    return FinSimpSet(2, {0: {"v": ()}, 1: {c: (v, v) for c in "abde"},
                          2: {"t0": (a, s0v, a), "t1": (b, d, b), "t2": (b, s0v, d),
                              "t3": (a, e, b), "t4": (e, s0v, e)}})


def _lines_run(outer, fn_name, text, run):
    """How often the lines reading `text` of the function `fn_name` nested
    in `outer` run inside run().  The lines are looked up before run()
    starts, so an edit of the source meanwhile changes nothing, and every
    event is passed on to the tracer installed before, so a line trace of
    the whole suite still sees the lines run here."""
    code = next(c for c in outer.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == fn_name)
    lines = {n for _, _, n in code.co_lines()
             if n is not None and linecache.getline(code.co_filename, n).strip() == text}
    assert lines, f"no line of {fn_name} reads {text!r}"
    hits = []
    old = sys.gettrace()

    def trace(frame, event, arg):
        passed = old(frame, event, arg) if old is not None else None
        if frame.f_code is not code:
            return passed

        def local(frame, event, arg):
            nonlocal passed
            if passed is not None:
                passed = passed(frame, event, arg)
            if event == "line" and frame.f_lineno in lines:
                hits.append(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(old)
    return result, len(hits)


def test_coset_enumeration_merges_coincident_nodes():
    # merging two nodes moves the outgoing edges of the one merged away:
    # a coincidence the hypothesis draws above do not reach
    x = _s3_presentation()
    result, moved = _lines_run(_tau1_full, "merge", "if e in table[a]:", lambda: _tau1_full(x))
    assert moved > 0
    assert len(result[0].arrows) == 6
    assert _tables(result) == _tables(_tau1_by_closure(x))


def test_coset_enumeration_merges_a_loop_into_its_root():
    # one vertex v and a loop e with e.e = e and e.e = 1: the node of e
    # merges into the root when both already have an outgoing e
    v, s0v, e = SimplexRef("v"), SimplexRef("v", (0,)), SimplexRef("e")
    x = FinSimpSet(2, {0: {"v": ()}, 1: {"e": (v, v)},
                       2: {"t0": (e, e, e), "t1": (e, s0v, e)}})
    result, met = _lines_run(_tau1_full, "merge", "pending.append((table[a][e], t))",
                             lambda: _tau1_full(x))
    assert met > 0
    cat, edge_to_arrow = tau1(x)
    assert list(cat.arrows) == ["a0"] and edge_to_arrow == {"e": "a0"}
    assert _tables(result) == _tables(_tau1_by_closure(x))


def test_nerve_functor_maps_are_simplicial_maps():
    # nerve_functor_map trusts its functor; every functor between corpus
    # categories gives a valid map, into a nerve of equal and of lower bound
    corpus = category_corpus()
    nerves = {name: (nerve(c, bound=3), nerve(c, bound=2)) for name, c in corpus}
    count = 0
    for name_c, c in corpus:
        for name_d, d in corpus:
            for fun in all_functors(c, d):
                for target in nerves[name_d]:
                    nerve_functor_map(fun, nerves[name_c][0], target).validate()
                    count += 1
    assert count == 2 * 186


def _old_nerve_functor_map(fun, nc, nd):
    """nerve_functor_map as the loop it was before it called `cellwise`."""
    c, d = fun.source, fun.target
    m = SimpMap(nc, nd, {})
    for a in c.objects:
        m.assignment[(0, f"o{a}")] = SimplexRef(f"o{fun.obj(a)}")
    for n in range(1, m.cap + 1):
        for name in nc.cell_ids(n):
            chain = tuple(name.split("|"))
            m.assignment[(n, name)] = chain_ref(d, tuple(fun.arr(f) for f in chain),
                                                fun.obj(c.src(chain[0])))
    return m


def test_nerve_functor_map_matches_its_old_loop():
    # into nerves of equal, lower and the lowest bound (the bound-1 nerve of
    # the walking isomorphism is a truncation), out of bounds 3 and 1
    corpus = category_corpus()
    count = 0
    for name_c, c in corpus:
        for name_d, d in corpus:
            for fun in all_functors(c, d):
                for nc in (nerve(c, bound=3), nerve(c, bound=1)):
                    for bound in (3, 2, 1):
                        nd = nerve(d, bound=bound)
                        assert (nerve_functor_map(fun, nc, nd).key()
                                == _old_nerve_functor_map(fun, nc, nd).key())
                        count += 1
    assert count == 6 * 186
    assert not nerve(walking_iso_category(), bound=1).complete


def test_tau1_spine_is_free():
    pt = standard_point()
    d1 = standard_simplex(1)
    a0 = SimpMap(pt, d1, {(0, "0"): SimplexRef("1")})
    a1 = SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})
    spine = Colimit([pt, d1, d1], [(0, 1, a0), (0, 2, a1)]).space
    t, _ = tau1(spine)
    assert len(t.objects) == 3
    assert len([a for a in t.arrow_ids() if not t.is_identity(a)]) == 3


def test_edge_invertibility():
    j = nerve(walking_iso_category(), bound=2)
    cat, table = tau1(j)
    assert all(edge_is_invertible(SimplexRef(e), cat, table)
               for e in j.cell_ids(1))
    d1 = standard_simplex(1)
    cat2, table2 = tau1(d1)
    assert not edge_is_invertible(SimplexRef("01"), cat2, table2)
    # degenerate edges are identities
    assert edge_is_invertible(SimplexRef("0", (0,)), cat2, table2)


def test_tau1_functor_of_collapse():
    w = walking_iso_category()
    t = terminal_category()
    collapse = CatFunctor(
        w, t, {"0": "*", "1": "*"},
        {"id0": "id*", "id1": "id*", "u": "id*", "v": "id*"},
    ).validate()
    nm = nerve_functor_map(collapse, nerve(w, bound=2), nerve(t, bound=2))
    fun = tau1_functor(nm)
    assert fun.is_full_faithful_ess_surjective()[0]


def test_functor_map_into_a_complete_nerve_of_lower_bound():
    # a complete target is read in every dimension, so the 2-chains of [2]
    # need images although the point's nerve is stored at bound 1
    p2, t = poset_category(2), terminal_category()
    collapse = CatFunctor(p2, t, {o: "*" for o in p2.objects},
                          {f: "id*" for f in p2.arrow_ids()}).validate()
    nm = nerve_functor_map(collapse, nerve(p2, bound=2), nerve(t, bound=1))
    assert nm.assignment[(2, "le01|le12")] == SimplexRef("o*", (1, 0))


def _joined(pairs):
    """Each pair's name, its two parts joined by "," (see `joined_name`)."""
    return {pair: joined_name(pair, ",") for pair in pairs}


def product_category(c: FinCat, d: FinCat) -> FinCat:
    """c x d, each object and arrow named by joining its two parts with ","
    (see `joined_name`); its composable pairs are the pairs of composable
    pairs."""
    obj = _joined((a, b) for a in c.objects for b in d.objects)
    arr = _joined((f, g) for f in c.arrows for g in d.arrows)
    arrows = {name: (obj[c.src(f), d.src(g)], obj[c.dst(f), d.dst(g)])
              for (f, g), name in arr.items()}
    identities = {name: arr[c.identities[a], d.identities[b]] for (a, b), name in obj.items()}
    compose = {(arr[g1, g2], arr[f1, f2]): arr[h1, h2]
               for (g1, f1), h1 in c.compose_table.items()
               for (g2, f2), h2 in d.compose_table.items()}
    return FinCat(obj.values(), arrows, identities, compose)


def test_nerve_preserves_products():
    for c in [poset_category(1), walking_iso_category()]:
        for d in [poset_category(1), terminal_category()]:
            lhs = product(nerve(c, bound=2), nerve(d, bound=2), bound=2)[0]
            rhs = nerve(product_category(c, d), bound=2)
            assert iso_check(lhs, rhs).status == HOLDS


def test_the_segal_comparison_of_a_truncated_nerve_is_an_iso():
    # N([1]^3) -> N([1]) x N([1]^2) by the two projection functors: the
    # source is truncated at 2, the product is complete of dimension 3, and
    # the two are compared on the joint bound 2
    from gammaspace.simplicial import pairing

    c = poset_category(1)
    c2 = product_category(c, c)
    c3 = product_category(c, c2)

    def projection(side, target):
        pairs = (*itertools.product(c.objects, c2.objects),
                 *itertools.product(c.arrow_ids(), c2.arrow_ids()))
        part = {joined_name(pair, ","): pair[side] for pair in pairs}
        return CatFunctor(c3, target, part, part).validate()

    n3 = nerve(c3, bound=2)
    prod_data = product(nerve(c, bound=2), nerve(c2, bound=2))
    prod, p1, p2, _ = prod_data
    assert (n3.summary(), n3.complete) == ([8, 19, 18], False)
    assert (prod.summary(), prod.complete) == ([8, 19, 18, 6], True)
    cmp = pairing(nerve_functor_map(projection(0, c), n3, p1.target),
                  nerve_functor_map(projection(1, c2), n3, p2.target), prod_data).validate()
    v = iso_check(n3, prod)
    assert cmp.is_iso() and v.status == HOLDS and v.checked == "dims<=2"
    assert v.witness.is_iso()


def test_nerve_functor_maps_read_chains_off_the_spine():
    # an arrow id may contain the "|" that joins a chain into a cell name
    c = FinCat(["0", "1", "2"],
               {"id0": ("0", "0"), "id1": ("1", "1"), "id2": ("2", "2"),
                "x|y": ("0", "1"), "g": ("1", "2"), "h": ("0", "2")},
               {"0": "id0", "1": "id1", "2": "id2"},
               {**{(i, i): i for i in ("id0", "id1", "id2")},
                ("x|y", "id0"): "x|y", ("id1", "x|y"): "x|y",
                ("g", "id1"): "g", ("id2", "g"): "g",
                ("h", "id0"): "h", ("id2", "h"): "h", ("g", "x|y"): "h"})
    identity = CatFunctor(c, c, {o: o for o in c.objects},
                          {f: f for f in c.arrow_ids()}).validate()
    nc = nerve(c, bound=2)
    assert nc.cell_ids(2) == (r"x\|y|g",)
    assert nerve_functor_map(identity, nc, nc).validate() == identity_map(nc)


def test_nerve_names_two_chains_of_one_plain_join_apart():
    # a | (b|c) and (a|b) | c are both "a|b|c" under a plain join
    arrows = {"a": ("0", "1"), "b|c": ("1", "2"), "a|b": ("0", "p"), "c": ("p", "2"),
              "h": ("0", "2")}
    objects = ["0", "1", "2", "p"]
    compose = {("b|c", "a"): "h", ("c", "a|b"): "h"}
    for f, (s, t) in arrows.items():
        compose[(f, f"id{s}")] = compose[(f"id{t}", f)] = f
    c = FinCat(objects, {**{f"id{o}": (o, o) for o in objects}, **arrows},
               {o: f"id{o}" for o in objects},
               {**{(f"id{o}", f"id{o}"): f"id{o}" for o in objects}, **compose})
    nc = nerve(c, bound=2).validate()
    assert sorted(nc.cell_ids(2)) == [r"a\|b|c", r"a|b\|c"]


def test_hom_into_nerve_counts_chains():
    # maps from the standard n-simplex are the length-n composable chains
    # with identities allowed, i.e. functors from the linear order
    from gammaspace.simplicial import hom_set

    c = walking_iso_category()
    nc = nerve(c, bound=3)
    for n in range(4):
        chains = [(o,) for o in c.objects] if n == 0 else None
        if n > 0:
            chains = []
            def extend(chain, at, depth):
                if depth == n:
                    chains.append(chain)
                    return
                for f in c.arrow_ids():
                    if c.src(f) == at:
                        extend(chain + (f,), c.dst(f), depth + 1)
            for o in c.objects:
                extend((), o, 0)
        assert len(hom_set(standard_simplex(n), nc)) == len(chains), n


def test_nerve_subgroupoid_commutes_with_j():
    from gammaspace.catcore import max_subgroupoid
    from gammaspace.homotopy import j_qcat

    for name, cat in category_corpus():
        sub, _ = max_subgroupoid(cat)
        assert iso_check(nerve(sub, bound=2), j_qcat(nerve(cat, bound=2))).status == HOLDS, name


def renamed(c, seed):
    """c with its objects and its arrows renamed at random, so that their
    ids sort in another order whenever there are two or more."""
    rng = random.Random(seed)

    def names(ids, prefix):
        order = list(ids)
        while len(order) > 1 and order == list(ids):
            rng.shuffle(order)
        return {x: f"{prefix}{k:02d}" for k, x in enumerate(order)}

    obj, arr = names(c.objects, "y"), names(c.arrows, "x")
    return FinCat(
        [obj[a] for a in c.objects],
        {arr[f]: (obj[s], obj[d]) for f, (s, d) in c.arrows.items()},
        {obj[a]: arr[f] for a, f in c.identities.items()},
        {(arr[g], arr[f]): arr[h] for (g, f), h in c.compose_table.items()},
    )


def _is_bijective(fun):
    """Does the functor go one to one onto the objects and the arrows?"""
    c, d = fun.source, fun.target
    return (len(set(fun.on_objects.values())) == len(c.objects) == len(d.objects)
            and len(set(fun.on_arrows.values())) == len(c.arrows) == len(d.arrows))


def test_nerves_are_isomorphic_exactly_when_their_categories_are():
    # the nerve is fully faithful and 2-coskeletal, so iso_check on the
    # nerves at bound 2 decides an isomorphism of categories: on every
    # ordered pair of corpus categories and renamed copies of them
    cats = [c for _, c in CORPUS]
    cats += [renamed(c, seed) for seed, c in enumerate(cats)]
    nerves = [nerve(c, bound=2) for c in cats]
    isomorphic = 0
    for (c, nc), (d, nd) in itertools.product(zip(cats, nerves), repeat=2):
        bijective = any(map(_is_bijective, all_functors(c, d)))
        assert (iso_check(nc, nd).status == HOLDS) == bijective
        isomorphic += bijective
    assert isomorphic == 28


def _barred(c):
    """The functor renaming c's objects and arrows to ids that hold "|",
    "_" and "\\": its k-th arrow is k + 1 copies of "x_\\" joined by "|", so
    two chains whose copy counts add up alike join plainly to one name."""
    obj = {a: f"y|_\\{k}" for k, a in enumerate(c.objects)}
    arr = {f: "|".join(["x_\\"] * (k + 1)) for k, f in enumerate(c.arrows)}
    d = FinCat([obj[a] for a in c.objects],
               {arr[f]: (obj[s], obj[t]) for f, (s, t) in c.arrows.items()},
               {obj[a]: arr[f] for a, f in c.identities.items()},
               {(arr[g], arr[f]): arr[h] for (g, f), h in c.compose_table.items()})
    return CatFunctor(c, d, obj, arr).validate()


def _chains(c, n):
    """The composable chains of n non-identity arrows of c."""
    non_id = [f for f in c.arrow_ids() if not c.is_identity(f)]
    return [ch for ch in itertools.product(non_id, repeat=n)
            if all(c.dst(f) == c.src(g) for f, g in zip(ch, ch[1:]))]


def test_nerve_names_chains_of_ids_that_hold_the_separator_apart():
    # the cells of N(d) for d a corpus category renamed by `_barred`, where
    # a plain join of the arrow ids would merge chains
    merged = []
    for name, c in CORPUS:
        rename = _barred(c)
        d = rename.target
        nc, nd = nerve(c, bound=3), nerve(d, bound=3).validate()
        assert nd.cell_count(0) == len(d.objects)
        for n in range(1, 4):
            chains = _chains(d, n)
            assert nd.cell_count(n) == len(chains), (name, n)
            if len({"|".join(ch) for ch in chains}) < len(chains):
                merged.append((name, n))
        assert iso_check(nd, nc).status == HOLDS, name
        assert nerve_functor_map(rename, nc, nd).validate().is_iso(), name
    assert merged == [("walking-iso", 2), ("iso-with-tail", 2)]
