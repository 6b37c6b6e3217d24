"""Core machinery: normal forms, the simplicial action, products, colimits,
map enumeration.  Oracles: monotone-map models of the standard simplices."""

import functools
import itertools
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gammaspace import cocart, simplicial
from gammaspace.catcore import poset_category, walking_iso_category
from gammaspace.corpus import category_corpus, presented_corpus
from gammaspace.gammaop import GammaMorphism
from gammaspace.jsonio import canonical_dumps, simpset_to_json
from gammaspace.nerve import nerve
from gammaspace.shapes import (
    boundary,
    horn,
    standard_point,
    standard_simplex,
)
from gammaspace.simplicial import (
    Colimit,
    FinSimpSet,
    SimplexRef,
    SimpMap,
    WORD_MEMO_SIZE,
    apply_word,
    cellwise,
    constant_map,
    delta_tuple,
    discrete_set,
    face_word,
    factor_monotone,
    from_elements,
    hom_set,
    identity_map,
    inclusion_map,
    is_normal_word,
    iso_check,
    mcompose,
    pairing,
    product,
    product_map,
    pushout,
    surj_to_word,
    word_to_surj,
    _constraint_order,
    _face_images,
)
from gammaspace.verdicts import FAILS, HOLDS


def monotone_maps(m, n):
    """All monotone maps [m] -> [n], by filtering every map (the oracle)."""
    return [c for c in itertools.product(range(n + 1), repeat=m + 1)
            if all(c[i] <= c[i + 1] for i in range(m))]


words = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.integers(0, 9), min_size=k, max_size=k, unique=True)
    .map(lambda xs: tuple(sorted(xs, reverse=True)))
)


@given(words)
def test_word_surjection_round_trip(word):
    base = (max(word) + 1 if word else 0) + 2
    m = base + len(word)
    surj = word_to_surj(word, m)
    assert surj_to_word(surj) == word
    assert surj[0] == 0 and surj[-1] == m - len(word)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30)
def test_factor_monotone_recomposes(a, b, c):
    for alpha in monotone_maps(a, b):
        inj, surj = factor_monotone(alpha)
        assert mcompose(inj, surj) == alpha
        # a monotone surjection onto the vertices of the injection's source
        assert list(surj) == sorted(surj) and set(surj) == set(range(len(inj)))
        assert sorted(set(inj)) == list(inj)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_simplex_counts_match_monotone_oracle(n):
    x = standard_simplex(n)
    for m in range(n + 3):
        assert len(x.refs(m)) == len(monotone_maps(m, n))


def test_simplicial_identities_on_all_refs():
    x = standard_simplex(2)
    for n in range(1, 5):
        for r in x.refs(n):
            for j in range(n + 1):
                for i in range(j):
                    if n >= 2:
                        assert x.face(x.face(r, n, j), n - 1, i) == x.face(
                            x.face(r, n, i), n - 1, j - 1
                        )
            for j in range(n):
                s = x.degen(r, n, j)
                assert x.face(s, n + 1, j) == r
                assert x.face(s, n + 1, j + 1) == r
                for i in range(j):
                    assert x.face(s, n + 1, i) == x.degen(x.face(r, n, i), n - 1, j - 1)
                for i in range(j + 2, n + 2):
                    assert x.face(s, n + 1, i) == x.degen(x.face(r, n, i - 1), n - 1, j)


def test_act_against_monotone_model():
    # Delta[2]: a ref in dim m corresponds to a monotone map [m] -> [2];
    # the action by alpha is composition in that model
    x = standard_simplex(2)

    def ref_to_monotone(ref, dim):
        verts = x.vertices_of(ref, dim)
        return tuple(int(v.base) for v in verts)

    for m in range(4):
        for r in x.refs(m):
            for mp in range(3):
                for alpha in monotone_maps(mp, m):
                    acted = x.act(r, m, alpha)
                    assert ref_to_monotone(acted, mp) == mcompose(
                        ref_to_monotone(r, m), alpha
                    )


def test_product_counts():
    d1 = standard_simplex(1)
    p, p1, p2, _ = product(d1, d1)
    assert p.summary() == [4, 5, 2]
    p1.validate()
    p2.validate()
    d2 = standard_simplex(2)
    q = product(d2, d1)[0]
    # nondegenerate m-cells of Delta[a] x Delta[b] = strictly increasing
    # chains in the grid poset; oracle by direct enumeration
    grid = [(i, j) for i in range(3) for j in range(2)]
    for m in range(4):
        chains = [
            c
            for c in itertools.combinations(grid, m + 1)
            if all(
                a[0] <= b[0] and a[1] <= b[1]
                for a, b in zip(c, c[1:])
            )
        ]
        assert q.cell_count(m) == len(chains)


def test_product_universal_property():
    d1 = standard_simplex(1)
    prod_data = product(d1, d1)
    p = prod_data[0]
    t = standard_simplex(1)
    cones = [(f, g) for f in hom_set(t, d1) for g in hom_set(t, d1)]
    mediators = hom_set(t, p)
    paired = {pairing(f, g, prod_data).key() for f, g in cones}
    assert len(paired) == len(cones) == len(mediators)


def test_pushout_circle_and_coproduct():
    d1 = standard_simplex(1)
    b1 = boundary(1)
    pt = standard_point()
    collapse = SimpMap(b1, pt, {(0, "0"): SimplexRef("0"), (0, "1"): SimplexRef("0")})
    col = pushout(inclusion_map(b1, d1), collapse)
    assert col.space.summary() == [1, 1]
    du, c1, c2 = disjoint_union(d1, standard_simplex(2))
    assert du.summary()[0] == 2 + 3 and du.summary()[1] == 1 + 3
    c1.validate()
    c2.validate()


def test_pushout_mediating_unique():
    # maps out of a colimit are determined by their coprojection composites
    d1 = standard_simplex(1)
    pt = standard_point()
    col = Colimit([pt, d1, d1], [
        (0, 1, SimpMap(pt, d1, {(0, "0"): SimplexRef("1")})),
        (0, 2, SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})),
    ])
    target = standard_simplex(2)
    composites = set()
    for m in hom_set(col.space, target):
        key = (col.coprojection(1).then(m).key(), col.coprojection(2).then(m).key())
        assert key not in composites
        composites.add(key)


def test_hom_counts():
    d1, d2 = standard_simplex(1), standard_simplex(2)
    assert len(hom_set(d1, d2)) == 6
    assert len(hom_set(standard_point(), d2)) == 3
    assert len(hom_set(boundary(1), d1)) == 4
    # empty source has exactly one map
    assert len(hom_set(FinSimpSet(0, {}), d2)) == 1


def test_iso_check_witnesses():
    d1 = standard_simplex(1)
    v = iso_check(d1, standard_simplex(1))
    assert v.status == HOLDS and v.witness.is_iso()
    v2 = iso_check(d1, boundary(2))
    assert v2.status == FAILS
    # same counts, different structure: two disjoint edges vs glued edges
    pt = standard_point()
    a0 = SimpMap(pt, d1, {(0, "0"): SimplexRef("1")})
    a1 = SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})
    spine = Colimit([pt, d1, d1], [(0, 1, a0), (0, 2, a1)]).space
    du = disjoint_union(d1, d1)[0]
    assert iso_check(spine, du).status == FAILS


def test_iso_check_refuses_a_bijection_that_misses_the_basepoint():
    # the one isomorphism of Delta[1] fixes both vertices, so Delta[1]
    # pointed at 0 is not isomorphic to Delta[1] pointed at 1, though the
    # unpointed sets are
    d1 = {0: {"0": (), "1": ()}, 1: {"01": (SimplexRef("1"), SimplexRef("0"))}}
    at0, at1 = (FinSimpSet(1, d1, pointed=v) for v in ("0", "1"))
    assert iso_check(standard_simplex(1), standard_simplex(1)).status == HOLDS
    assert iso_check(at0, at0).status == HOLDS
    v = iso_check(at0, at1)
    assert v.status == FAILS and v.witness == "exhausted all assignments"


def test_iso_check_reads_a_truncated_side_up_to_its_bound():
    # Delta[1] is complete, so it has no 2-cell; the other side has the
    # same 1-skeleton and stores a 2-cell (0, 1, 1) under its bound 2
    d1 = standard_simplex(1)
    edge = SimplexRef("01")
    x = FinSimpSet(2, {0: {"0": (), "1": ()},
                       1: {"01": (SimplexRef("1"), SimplexRef("0"))},
                       2: {"t": (SimplexRef("1", (0,)), edge, edge)}},
                   complete=False).validate()
    for v, counts in ((iso_check(d1, x), [0, 1]), (iso_check(x, d1), [1, 0])):
        assert v.status == FAILS and v.checked == "dims<=2"
        assert v.witness == {"dim": 2, "counts": counts}


@st.composite
def _read_together(draw):
    """Two sets to compare: glued quotients or corpus nerves at bounds
    1-3, either of them perhaps cut by `rebound`, often the same one."""

    def base():
        if draw(st.booleans()):
            return glued_simplices(draw(st.integers(0, 2)),
                                   draw(st.sets(st.integers(0, 5), max_size=4))).space
        return nerve(draw(st.sampled_from(category_corpus()))[1], bound=draw(st.integers(1, 3)))

    def cut(x):
        return x.rebound(draw(st.integers(0, x.dim_bound))) if draw(st.booleans()) else x

    x = base()
    return cut(x), cut(x if draw(st.booleans()) else base())


@given(_read_together())
@example((standard_simplex(2), standard_simplex(2).rebound(1)))
@settings(max_examples=60, deadline=None)
def test_an_iso_check_witness_is_an_iso(pair):
    # iso_check and SimpMap.is_iso compare on the same joint bound
    v = iso_check(*pair)
    assert v.status != HOLDS or v.witness.is_iso()


def test_constant_map():
    d1 = standard_simplex(1)
    c = constant_map(d1, standard_simplex(2), "1")
    c.validate()
    assert c(SimplexRef("01"), 1) == SimplexRef("1", (0,))


def test_rebound_rules():
    d1 = standard_simplex(1)
    up = d1.rebound(3)
    assert up.dim_bound == 3 and up.complete
    j = nerve(walking_iso_category(), bound=2)
    with pytest.raises(ValueError):
        j.rebound(3)
    assert j.rebound(1).dim_bound == 1


def test_apply_word_normal_form():
    r = SimplexRef("x", (0,))
    assert apply_word(r, (1,), 2) == SimplexRef("x", (1, 0))
    # s_0 s_0 = s_1 s_0
    assert apply_word(SimplexRef("x", (0,)), (0,), 1) == SimplexRef("x", (1, 0))


def glued_simplices(n, collapse):
    """Delta[2] and Delta[n] glued through points at the vertex pairs
    picked by `collapse`, as the Colimit."""
    x = standard_simplex(2)
    y = standard_simplex(n)
    pt = standard_point()
    arrows = []
    objects = [x, y]
    for i, v in enumerate(sorted(collapse)):
        vx = x.cell_ids(0)[v % x.cell_count(0)]
        vy = y.cell_ids(0)[v % y.cell_count(0)]
        objects.append(pt)
        arrows.append((2 + i, 0, SimpMap(pt, x, {(0, "0"): SimplexRef(vx)})))
        arrows.append((2 + i, 1, SimpMap(pt, y, {(0, "0"): SimplexRef(vy)})))
    return Colimit(objects, arrows)


@given(st.integers(0, 2), st.sets(st.integers(0, 5), max_size=4),
       st.sets(st.integers(0, 5), max_size=4))
@settings(max_examples=40, deadline=None)
def test_random_quotients_stay_simplicial(n, collapse_a, collapse_b):
    # glue random vertex pairs of two standard simplices through points and
    # check the quotient still validates, with working coprojections
    x, y = standard_simplex(2), standard_simplex(n)
    col = glued_simplices(n, collapse_a)
    objects = col.objects
    col.space.validate()
    for i in range(len(objects)):
        col.coprojection(i).validate()
    # quotient never grows: cell counts bounded by the disjoint union
    for m in range(col.space.dim_bound + 1):
        assert col.space.cell_count(m) <= x.cell_count(m) + y.cell_count(m)


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_product_projections_jointly_mono(a, b):
    x, y = standard_simplex(a), standard_simplex(b)
    prod, p1, p2, _ = product(x, y)
    p1.validate()
    p2.validate()
    for m in range(prod.dim_bound + 1):
        seen = set()
        for name in prod.cell_ids(m):
            key = (p1.assignment[(m, name)], p2.assignment[(m, name)])
            assert key not in seen
            seen.add(key)


# -- the kernel caches against the computations they replace -----------------

quotients = st.builds(lambda n, collapse: glued_simplices(n, collapse).space,
                      st.integers(0, 2), st.sets(st.integers(0, 5), max_size=4))


def _closed_under_faces(x, ok):
    """ok holds on the face bases of every cell of x that it holds on."""
    return all(ok(n - 1 - len(f.degs), f.base) for n in range(1, x.dim_bound + 1)
               for name in x.cell_ids(n) if ok(n, name) for f in x.faces_of(n, name))


@given(quotients, st.sets(st.integers(0, 5)), st.integers(0, 63))
@settings(max_examples=25, deadline=None)
def test_the_predicates_of_sub_simplicial_sets_are_closed_under_faces(x, keep, marked):
    # `_subset_of` keeps a cell without looking at its faces, so each
    # caller's predicate keeps the faces of what it keeps: the full subsets
    # on vertices and on edges, and the fibers of a relative nerve over [1]
    # whose values are x
    vertices, edges, base = x.cell_ids(0), x.cell_ids(1), poset_category(1)
    rn = cocart.relative_nerve(cocart.RelativeNerveInput(
        base, {"0": x, "1": x}, {a: identity_map(x) for a in base.arrow_ids()}).validate(), 2)
    with mock.patch.object(simplicial, "_subset_of", wraps=simplicial._subset_of) as subsets, \
            mock.patch.object(cocart, "_subset_of", wraps=cocart._subset_of) as fibers:
        simplicial.full_sub_on_vertices(x, lambda v: vertices.index(v) in keep)
        simplicial.full_sub_on_edges(x, lambda e: e.degs or marked >> edges.index(e.base) & 1)
        for obj in base.objects:
            rn.fiber(obj)
    calls = subsets.call_args_list + fibers.call_args_list
    assert len(calls) == 4 and all(_closed_under_faces(*call.args) for call in calls)
    # the edges without their vertices are not
    assert not _closed_under_faces(x, lambda n, _: n > 0)


# -- composites compared cell by cell, against the composite maps ----------


def _composite(chain):
    return functools.reduce(SimpMap.then, chain)


def _chains(data):
    """Chains of composable maps out of one small standard shape, through a
    glued quotient or a corpus nerve x, or its cut x.rebound(1), into x or
    its cut: so the `then` caps of two chains may differ.  A first map into
    the cut keeps the cells above its cap, as an action map re-wrapped on
    its ends does."""
    a = data.draw(st.sampled_from([standard_simplex(1), standard_simplex(2),
                                   horn(2, 1), boundary(2)]))
    x = data.draw(st.one_of(quotients, st.sampled_from(
        [nerve(c, bound=2) for _, c in category_corpus()])))
    cut = x.rebound(1)
    fs = [data.draw(st.sampled_from(hom_set(a, x))) for _ in range(2)]
    chains = []
    for f, mid in [(f, x) for f in fs] + [(SimpMap(a, cut, f.assignment), cut) for f in fs]:
        chains.append([f])
        for y in (x, cut):
            g = data.draw(st.sampled_from(hom_set(mid, y)))
            chains += [[f, g], [f, identity_map(mid), g], [f.then(g)]]
    return chains


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_commutes_decides_composite_equality(data):
    chains = _chains(data)
    keys = [_composite(c).key() for c in chains]
    for left, left_key in zip(chains, keys):
        for right, right_key in zip(chains, keys):
            assert simplicial.commutes(left, right) == (left_key == right_key)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_map_equality_is_key_equality(data):
    maps = [_composite(c) for c in _chains(data)]
    for m in maps:
        assert m != m.key()
        for other in maps:
            assert (m == other) == (m.key() == other.key())


# -- the kernel caches, continued ----------------------------------------------


class _Forgetful(dict):
    """An act memo that stores nothing, so every call (and every recursive
    call it makes) is computed afresh."""

    def __setitem__(self, key, value):
        pass


def _fresh_copy(x):
    return x.rebound(x.dim_bound)


@given(quotients)
@settings(max_examples=25, deadline=None)
def test_memoized_act_matches_uncached(x):
    uncached = _fresh_copy(x)
    uncached._act_memo = _Forgetful()
    for rounds in range(2):  # the second round reads a warm memo
        for m in range(x.dim_bound + 2):
            for r in x.refs(m):
                for mp in range(3):
                    for alpha in monotone_maps(mp, m):
                        assert x.act(r, m, alpha) == uncached.act(r, m, alpha)
    assert not uncached._act_memo and x._act_memo


@given(quotients)
@settings(max_examples=25, deadline=None)
def test_kept_cell_ids_and_top_dim_match_scans(x):
    for n in range(-1, x.dim_bound + 2):
        scan = tuple(r.base for r in x.refs(n) if not r.degs)
        assert x.cell_ids(n) == scan
        assert x.cell_ids(n) is x.cell_ids(n)
    assert x.top_dim() == max(
        (n for n in range(x.dim_bound + 1) if any(not r.degs for r in x.refs(n))), default=0)
    assert x.top_dim() == x.rebound(x.dim_bound + 1).top_dim()


def _ref_repr(base, degs):
    return f"~{base}" if not degs else f"~{base}s{list(degs)}"


@given(quotients)
@settings(max_examples=25, deadline=None)
def test_refs_compare_hash_sort_and_print_as_their_fields(x):
    refs = [r for m in range(x.dim_bound + 2) for r in x.refs(m)]
    fields = [(r.base, r.degs) for r in refs]
    for r, f in zip(refs, fields):
        assert r == f and hash(r) == hash(f) and tuple(r) == f
        assert SimplexRef(*f) == r and type(SimplexRef(*f)) is SimplexRef
        assert repr(r) == _ref_repr(*f) and str(r) == repr(r)
    assert sorted(refs) == [SimplexRef(*f) for f in sorted(fields)]
    assert x.refs(2) == tuple(sorted(x.refs(2)))
    for (a, fa), (b, fb) in itertools.product(list(zip(refs, fields))[:40], repeat=2):
        assert (a == b) == (fa == fb) and (a < b) == (fa < fb)
        assert (hash(a) == hash(b)) == (hash(fa) == hash(fb))


def test_a_wrapped_init_counts_every_ref(monkeypatch):
    # a profiler counts creations by wrapping SimplexRef.__init__ with a
    # function that calls the original
    count = []
    init = SimplexRef.__init__

    def counted(ref, *args, **kwargs):
        count.append(ref)
        init(ref, *args, **kwargs)

    x = glued_simplices(2, {0, 1}).space
    expected = [x.refs(n) for n in range(4)]
    fresh = _fresh_copy(x)
    monkeypatch.setattr(SimplexRef, "__init__", counted)
    assert SimplexRef("a") == ("a", ()) and SimplexRef("a", (1, 0)) == ("a", (1, 0))
    assert len(count) == 2
    for n in range(4):
        before = len(count)
        assert fresh.refs(n) == expected[n]
        assert sorted(count[before:]) == list(expected[n])


@given(quotients)
@settings(max_examples=25, deadline=None)
def test_face_index_matches_linear_scan(x):
    for n in range(1, x.dim_bound + 2):
        index = x.face_index(n)
        assert x.face_index(n) is index
        flat = [r for bucket in index.values() for r in bucket]
        assert sorted(flat) == sorted(x.refs(n))
        for faces, bucket in index.items():
            scan = [r for r in x.refs(n)
                    if all(x.face(r, n, i) == faces[i] for i in range(n + 1))]
            assert list(bucket) == scan


@given(quotients)
@settings(max_examples=25, deadline=None)
def test_memoized_order_matches_its_function(x):
    for cap in range(x.dim_bound + 1):
        order = x.constraint_order(cap)
        links = x.vertex_links(cap)
        assert x.constraint_order(cap) is order and x.vertex_links(cap) is links
        assert order == tuple(_constraint_order(x, cap))
        # a link per earlier end of each non-loop edge, none at cap 0
        rank = {cell: i for i, cell in enumerate(order)}
        expected = {}
        for name in x.cell_ids(1) if cap else ():
            ends = [f.base for f in x.faces_of(1, name)]
            for side in (0, 1):
                near, far = ends[side], ends[1 - side]
                if rank[(0, near)] < rank[(0, far)]:
                    expected.setdefault(far, set()).add((side, near))
        assert {v: set(ls) for v, ls in links.items()} == expected
        assert all(len(set(ls)) == len(ls) for ls in links.values())


@given(quotients)
@settings(max_examples=25, deadline=None)
def test_neighbours_match_a_scan_of_the_edges(x):
    table = x.neighbours()
    assert x.neighbours() is table
    for v in x.refs(0):
        for side in (0, 1):
            scan = sorted({x.face(e, 1, 1 - side) for e in x.refs(1)
                           if x.face(e, 1, side) == v})
            assert table[side, v] == tuple(scan)


@given(quotients, st.sampled_from([standard_simplex(1), boundary(2), standard_simplex(2)]))
@settings(max_examples=25, deadline=None)
def test_hom_set_repeatable_on_one_target(x, a):
    first = [m.key() for m in hom_set(a, x)]
    assert [m.key() for m in hom_set(a, x)] == first
    # and the same as on a copy whose caches start empty
    assert [m.key() for m in hom_set(a, _fresh_copy(x))] == first


@given(words, st.integers(0, 3))
def test_word_memos_match_their_functions(word, extra):
    m = (max(word) + 1 if word else 0) + extra + len(word)
    surj = word_to_surj(word, m)
    assert surj == word_to_surj.__wrapped__(word, m)
    assert surj_to_word(surj) == surj_to_word.__wrapped__(surj)
    for alpha in monotone_maps(min(m, 3), 2):
        assert factor_monotone(alpha) == factor_monotone.__wrapped__(alpha)
    ref = SimplexRef("x", word)
    assert apply_word(ref, (0,), m) == apply_word.__wrapped__(ref, (0,), m)
    for i in range(m + 1):
        assert delta_tuple(i, m) == delta_tuple.__wrapped__(i, m)


# -- nondegenerate refs read straight from the tables, against the word ------
# -- arithmetic and the `act` route they skip ---------------------------------


def _old_is_normal_word(word, dim):
    return word == tuple(sorted(set(word) & set(range(dim)), reverse=True))


@st.composite
def _colimits_with_maps(draw):
    """A glued-simplices quotient, or two copies of a corpus nerve glued at
    a vertex, with maps whose images include degenerate refs: the
    coprojections, the collapse to the point, and, out of the nerve, a map
    from Delta[2]."""
    if draw(st.booleans()):
        col = glued_simplices(draw(st.integers(0, 2)), draw(st.sets(st.integers(0, 5),
                                                                     max_size=4)))
        maps_out = []
    else:
        x = nerve(draw(st.sampled_from(category_corpus()))[1], bound=draw(st.integers(1, 3)))
        pt = standard_point()
        at = SimpMap(pt, x, {(0, "0"): SimplexRef(draw(st.sampled_from(x.cell_ids(0))))})
        col = Colimit([x, pt, x], [(1, 0, at), (1, 2, at)])
        maps_out = [draw(st.sampled_from(hom_set(standard_simplex(2), x)))]
    maps_out += [col.coprojection(i) for i in range(len(col.objects))]
    maps_out.append(constant_map(col.space, standard_point(), "0"))
    return col, maps_out


def _by_words(table, ref, ref_dim):
    """The image of ref under a table of its base's normal form, by
    `apply_word` whether or not the word is empty."""
    base_dim = ref_dim - len(ref.degs)
    return apply_word(table[(base_dim, ref.base)], ref.degs, base_dim)


@given(_colimits_with_maps())
@settings(max_examples=40, deadline=None)
def test_nondegenerate_reads_match_the_word_routes(drawn):
    col, maps_out = drawn
    for i, obj in enumerate(col.objects):
        table = {(n, name): ref for n in range(col.bound + 1)
                 for (k, name), ref in col._nf[n].items() if k == i}
        for n in range(col.bound + 1):
            for ref in obj.refs(n):
                assert col.ref_in(i, ref, n) == _by_words(table, ref, n)
    for x in [col.space, *col.objects]:
        for n in range(1, x.dim_bound + 1):
            for ref in x.refs(n):
                assert is_normal_word(ref.degs, n) and _old_is_normal_word(ref.degs, n)
                for i in range(n + 1):
                    assert x.face(ref, n, i) == x.act(ref, n, delta_tuple(i, n))
    for m in maps_out:
        for n in range(m.cap + 1):
            for ref in m.source.refs(n):
                assert m(ref, n) == _by_words(m.assignment, ref, n)
            for name in m.source.cell_ids(n) if n else ():
                assert _face_images(m.assignment, m.source, n, name) == tuple(
                    _by_words(m.assignment, f, n - 1) for f in m.source.faces_of(n, name))


@given(st.lists(st.integers(-1, 5), max_size=4).map(tuple), st.integers(0, 5))
def test_is_normal_word_matches_the_sorting_formula(word, dim):
    assert is_normal_word(word, dim) == _old_is_normal_word(word, dim)


def test_validate_catches_a_broken_simplicial_identity():
    # d2 of t is the edge a -> b, but d0 of t is the edge x -> c, so
    # d0 d2 t = b while d1 d0 t = x
    v = SimplexRef
    cells = {
        0: {"a": (), "b": (), "c": (), "x": ()},
        1: {"ab": (v("b"), v("a")), "ac": (v("c"), v("a")), "xc": (v("c"), v("x"))},
        2: {"t": (v("xc"), v("ac"), v("ab"))},
    }
    with pytest.raises(ValueError, match=r"simplicial identity fails on 't': d0d2 != d1d0"):
        FinSimpSet(2, cells).validate()


def _point_tetrahedron(word):
    """A 3-cell whose four faces are the degenerate 2-simplex `word` on
    the vertex a; in normal form that word is (1, 0)."""
    return FinSimpSet(3, {0: {"a": ()}, 3: {"t": (SimplexRef("a", word),) * 4}})


@pytest.mark.parametrize("word", [(0, 1), (1, 1), (2, 1), (1, -1), (-1,)])
def test_validate_refuses_a_face_word_out_of_normal_form(word):
    # the searches compare words, so a word out of normal form makes them
    # miss maps: on (0, 1), iso_check(x, x) finds no isomorphism
    with pytest.raises(ValueError, match=re.escape(f"has degeneracy word {list(word)};")):
        _point_tetrahedron(word).validate()


def test_a_face_word_in_normal_form_validates():
    x = _point_tetrahedron((1, 0)).validate()
    assert iso_check(x, x).status == HOLDS


def test_every_set_built_in_tier_one_is_validated():
    # tests/conftest.py validates each FinSimpSet as it is constructed
    with pytest.raises(ValueError, match="does not resolve"):
        FinSimpSet(1, {0: {"a": ()}, 1: {"e": (SimplexRef("a"), SimplexRef("b"))}})


def test_every_cocone_in_tier_one_is_checked():
    # tests/conftest.py checks that the legs given to Colimit.mediating
    # commute with the arrows; here the third leg does not
    d1, pt = standard_simplex(1), standard_point()
    at_zero = SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})
    col = pushout(at_zero, SimpMap(pt, d1, {(0, "0"): SimplexRef("0")}))
    legs = [constant_map(pt, d1, "0"), identity_map(d1), constant_map(d1, d1, "1")]
    with pytest.raises(AssertionError, match="cocone does not commute with arrow 0 -> 2"):
        col.mediating(legs.__getitem__, d1)


# -- products and colimits built from nondegenerate simplices, against the ---
# -- builders that enumerate every simplex -----------------------------------


def _product_oracle(x, y, bound=None):
    """`product` as built from every pair of refs by `from_elements`."""
    if bound is None:
        if x.complete and y.complete:
            b = x.top_dim() + y.top_dim()
        else:
            b = min(
                x.dim_bound if not x.complete else x.top_dim() + y.top_dim(),
                y.dim_bound if not y.complete else x.top_dim() + y.top_dim(),
            )
    else:
        b = bound
    levels = [
        [(rx, ry) for rx in x.refs(n) for ry in y.refs(n)]
        for n in range(b + 1)
    ]

    def face(n, key, i):
        rx, ry = key
        return (x.face(rx, n, i), y.face(ry, n, i))

    def degen(n, key, i):
        rx, ry = key
        return (x.degen(rx, n, i), y.degen(ry, n, i))

    built, ref_of, key_of = from_elements(b, levels, face, degen)
    # from_elements builds an unpointed truncation: set the basepoint pair
    # and the flag as `product` does
    pointed = None
    if x.pointed is not None and y.pointed is not None:
        pointed = ref_of(0, (SimplexRef(x.pointed), SimplexRef(y.pointed))).base
    prod = FinSimpSet(b, {n: {c: built.faces_of(n, c) for c in built.cell_ids(n)}
                          for n in range(b + 1)}, pointed=pointed,
                      complete=x.complete and y.complete and b >= x.top_dim() + y.top_dim())

    def pair_ref(rx, ry, n):
        if n <= b:
            return ref_of(n, (rx, ry))
        # above the built bound every pair is degenerate: strip the common
        # degeneracy word, look up the base pair, and re-apply the word
        common = tuple(sorted(set(rx.degs) & set(ry.degs), reverse=True))
        if n - len(common) > b:
            raise ValueError(f"pair of refs in dim {n} has no cell at bound {b}")
        sigma_c = word_to_surj(common, n)

        def strip(ref):
            s = word_to_surj(ref.degs, n)
            fiber_values = {}
            for t in range(n + 1):
                fiber_values[sigma_c[t]] = s[t]
            reduced = tuple(fiber_values[t] for t in range(n - len(common) + 1))
            return SimplexRef(ref.base, surj_to_word(reduced))

        base = ref_of(n - len(common), (strip(rx), strip(ry)))
        return apply_word(base, common, n - len(common))

    assign1, assign2 = {}, {}
    for name, (n, key) in key_of.items():
        assign1[(n, name)] = SimplexRef(*key[0])
        assign2[(n, name)] = SimplexRef(*key[1])
    return prod, SimpMap(prod, x, assign1), SimpMap(prod, y, assign2), pair_ref


def _canonical(x):
    return canonical_dumps(simpset_to_json(x))


small_spaces = st.one_of(
    quotients,
    st.integers(0, 2).map(standard_simplex),
    st.integers(1, 3).map(boundary),
    st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 1)]).map(lambda nk: horn(*nk)),
    st.just(discrete_set("abc", pointed="b")),
    st.just(nerve(walking_iso_category(), bound=1)),
)


def _pair_outcome(pair_ref, rx, ry, n):
    try:
        return pair_ref(rx, ry, n)
    except ValueError:
        return ValueError


@given(small_spaces, small_spaces, st.sampled_from([None, 1, 2]))
@settings(max_examples=40, deadline=None)
def test_product_matches_from_elements_oracle(x, y, bound):
    got, p1, p2, pair_ref = product(x, y, bound=bound)
    want, q1, q2, want_pair_ref = _product_oracle(x, y, bound=bound)
    assert _canonical(got) == _canonical(want)
    assert (got.complete, got.pointed) == (want.complete, want.pointed)
    assert (p1.key(), p2.key()) == (q1.key(), q2.key())
    for n in range(got.dim_bound + 3):
        for rx in x.refs(n):
            for ry in y.refs(n):
                assert (_pair_outcome(pair_ref, rx, ry, n)
                        == _pair_outcome(want_pair_ref, rx, ry, n))


def test_product_does_not_call_from_elements(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("product called from_elements")

    monkeypatch.setattr(simplicial, "from_elements", refuse)
    prod = product(standard_simplex(2), horn(2, 1))[0]
    assert _canonical(prod) == _canonical(_product_oracle(standard_simplex(2), horn(2, 1))[0])


# -- faces by the simplicial identities, against the operator action -------


def _plain_product(x, y, bound=None):
    """`product` without its face tables and pair memo, each face taken by
    `act` rather than by `face`: the oracle for both."""
    full = x.top_dim() + y.top_dim()
    b = bound if bound is not None else min(full if x.complete else x.dim_bound,
                                            full if y.complete else y.dim_bound)
    names = {}
    for n in range(b + 1):
        ys = {}
        for ry in y.refs(n):
            ys.setdefault(frozenset(ry.degs), []).append(ry)
        keys = sorted((rx, ky) for rx in x.refs(n) for w, kys in ys.items()
                      if w.isdisjoint(rx.degs) for ky in kys)
        names.update(((n, key), f"c{n}_{idx}") for idx, key in enumerate(keys))

    def pair_ref(rx, ry, n):
        common = tuple(j for j in rx.degs if j in ry.degs)
        if common:
            rx, ry = (SimplexRef(r.base, tuple(j - sum(c < j for c in common)
                                               for j in r.degs if j not in common))
                      for r in (rx, ry))
        k = n - len(common)
        name = names.get((k, (rx, ry)))
        if name is None:
            raise ValueError(f"pair of refs in dim {n} has no cell at bound {b}")
        return apply_word(SimplexRef(name), common, k)

    cells = {n: {} for n in range(b + 1)}
    assign1, assign2 = {}, {}
    for (n, (kx, ky)), name in names.items():
        rx, ry = SimplexRef(*kx), SimplexRef(*ky)
        cells[n][name] = tuple(
            pair_ref(x.act(rx, n, delta_tuple(i, n)), y.act(ry, n, delta_tuple(i, n)), n - 1)
            for i in range(n + 1)
        ) if n else ()
        assign1[(n, name)] = rx
        assign2[(n, name)] = ry
    pointed = None
    if x.pointed is not None and y.pointed is not None:
        pointed = names[(0, ((x.pointed, ()), (y.pointed, ())))]
    prod = FinSimpSet(b, cells, pointed=pointed,
                      complete=x.complete and y.complete and b >= full)
    return prod, SimpMap(prod, x, assign1), SimpMap(prod, y, assign2), pair_ref


def _pair_or_message(pair_ref, rx, ry, n):
    """pair_ref's ref, or the message of the ValueError it raises."""
    try:
        return pair_ref(rx, ry, n)
    except ValueError as exc:
        return str(exc)


def _one_name_in_each_dim():
    """A vertex, a loop and a 2-cell on it, all named a: the ref (a, (0,))
    is s_0 of the vertex in dimension 1 and s_0 of the loop in dimension 2,
    so a table of refs must be keyed by dimension too."""
    a = SimplexRef("a")
    return FinSimpSet(2, {0: {"a": ()}, 1: {"a": (a, a)}, 2: {"a": (a, a, a)}},
                      complete=True)


def _edge_from_1_to_0():
    """An edge named 01 like Delta[1]'s, with its ends the other way round:
    the two factors' refs share names, so each needs its own face table."""
    return FinSimpSet(1, {0: {"0": (), "1": ()}, 1: {"01": (SimplexRef("0"), SimplexRef("1"))}},
                      complete=True)


@given(small_spaces, small_spaces, st.sampled_from([None, 0, 1, 2]))
@example(standard_simplex(1), _edge_from_1_to_0(), None)
@example(standard_simplex(1), _one_name_in_each_dim(), None)
@example(_one_name_in_each_dim(), _one_name_in_each_dim(), 3)
@settings(max_examples=40, deadline=None)
def test_product_matches_the_plain_product(x, y, bound):
    got, p1, p2, pair_ref = product(x, y, bound=bound)
    want, q1, q2, want_pair_ref = _plain_product(x, y, bound=bound)
    assert got._cells == want._cells
    assert (got.dim_bound, got.complete, got.pointed) == (want.dim_bound, want.complete, want.pointed)
    assert (p1.assignment, p2.assignment) == (q1.assignment, q2.assignment)
    for rounds in range(2):  # the second round reads the pair memo
        for n in range(got.dim_bound + 3):
            for rx in x.refs(n):
                for ry in y.refs(n):
                    assert (_pair_or_message(pair_ref, rx, ry, n)
                            == _pair_or_message(want_pair_ref, rx, ry, n))


face_spaces = st.one_of(
    small_spaces,
    st.just(_one_name_in_each_dim()),
    st.builds(nerve, st.sampled_from([c for _, c in category_corpus()]), st.integers(1, 3)),
    st.builds(lambda x, b: x.rebound(min(b, x.dim_bound)), small_spaces, st.integers(0, 2)),
    st.builds(lambda x, y, b: product(x, y, bound=b)[0],
              st.integers(0, 2).map(standard_simplex) | quotients,
              st.sampled_from([standard_simplex(1), boundary(2), horn(2, 1)]),
              st.sampled_from([None, 1, 2])),
)


@given(face_spaces)
@settings(max_examples=60, deadline=None)
def test_faces_match_the_operator_action(x):
    for n in range(1, x.dim_bound + 3):
        for r in x.refs(n):
            for i in range(n + 1):
                assert x.face(r, n, i) == x.act(r, n, delta_tuple(i, n))
                assert face_word(r.degs, n, i) == face_word.__wrapped__(r.degs, n, i)


def test_faces_of_a_fresh_set_do_not_call_act():
    x = _fresh_copy(product(standard_simplex(2), boundary(2))[0])
    for n in range(1, x.dim_bound + 3):
        x.face_index(n)
    assert x._face_index and not x._act_memo


def test_face_words_are_kept_in_a_bounded_memo():
    assert face_word.cache_info().maxsize == WORD_MEMO_SIZE
    # d_1 s_1 s_0 v = s_0 v, absorbed; d_2 s_0 x = s_0 d_1 x; d_1 of a
    # nondegenerate simplex is its own d_1
    assert face_word((1, 0), 2, 1) == (None, (0,))
    assert face_word((0,), 2, 2) == (1, (0,))
    assert face_word((), 2, 1) == (1, ())


class _AllRefsColimit(Colimit):
    """`Colimit` with the quotient taken over every ref of every object,
    degenerate ones included, and the checking walk for maps out of it.
    It resolves refs through its own union-find and reads nothing that
    `Colimit` computes."""

    def mediating(self, leg_of, target):
        """Checks that the legs commute with every arrow, then assigns each
        cell the image of every one of its representatives, refusing two
        that differ.  It asks for a leg at every cell it reads."""

        def leg(k, ref, n):
            return leg_of(k)(ref, n)

        cap = simplicial.map_cap(self.space, target)
        for (si, di, m) in self.arrows:
            for n in range(cap + 1):
                for name in self.objects[si].cell_ids(n):
                    if leg(di, m(SimplexRef(name), n), n) != leg(si, SimplexRef(name), n):
                        raise ValueError("cocone does not commute with diagram arrow")
        assignment = {(n, name): None for n in range(cap + 1) for name in self.space.cell_ids(n)}
        for n in range(cap + 1):
            for i, obj in enumerate(self.objects):
                for cname in obj.cell_ids(n):
                    img = self.ref_in(i, SimplexRef(cname), n)
                    if img.degs:
                        continue
                    val = leg(i, SimplexRef(cname), n)
                    prev = assignment.get((n, img.base))
                    if prev is not None and prev != val:
                        raise ValueError("cocone is not constant on a glued class")
                    assignment[(n, img.base)] = val
        if any(v is None for v in assignment.values()):
            raise AssertionError("colimit cell not covered by any coprojection")
        return SimpMap(self.space, target, assignment)

    def _compute(self, pointed_at):
        b = self.bound
        parent = {}

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        def union(a, bb):
            ra, rb = find(a), find(bb)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra

        tagged = [[] for _ in range(b + 1)]
        for n in range(b + 1):
            for i, obj in enumerate(self.objects):
                for ref in obj.refs(n):
                    k = (i, ref.base, ref.degs)
                    parent[k] = k
                    tagged[n].append(k)
            for (si, di, m) in self.arrows:
                for ref in self.objects[si].refs(n):
                    img = m(ref, n)
                    union((si, ref.base, ref.degs), (di, img.base, img.degs))

        self._nf = {}
        cells = {}
        for n in range(b + 1):
            classes = {}
            for k in tagged[n]:
                classes.setdefault(find(k), []).append(k)
            ordered = sorted(classes.values(), key=min)
            cells[n] = {}
            fresh_idx = 0
            for members in ordered:
                members.sort()
                root = find(members[0])
                deg_members = [m for m in members if m[2]]
                if deg_members:
                    nfs = set()
                    for (i, base, word) in deg_members:
                        below = self._resolve(n - len(word), (i, base, ()), find)
                        nfs.add(apply_word(below, word, n - len(word)))
                    if len(nfs) != 1:
                        raise AssertionError("inconsistent quotient normal forms")
                    self._nf[(n, root)] = nfs.pop()
                else:
                    name = f"q{n}_{fresh_idx}"
                    fresh_idx += 1
                    self._nf[(n, root)] = SimplexRef(name, ())
                    i, base, _ = members[0]
                    faces = ()
                    if n > 0:
                        faces = tuple(
                            self._resolve(n - 1, (i, fr.base, fr.degs), find)
                            for fr in self.objects[i].faces_of(n, base)
                        )
                        for (i2, base2, _w) in members[1:]:
                            alt = tuple(
                                self._resolve(n - 1, (i2, fr.base, fr.degs), find)
                                for fr in self.objects[i2].faces_of(n, base2)
                            )
                            if alt != faces:
                                raise AssertionError("quotient faces disagree")
                    cells[n][name] = faces

        self._find = find
        pointed = None
        if pointed_at is not None:
            i, vertex = pointed_at
            pointed = self._resolve(0, (i, vertex, ()), find).base
        self.space = FinSimpSet(self.bound, cells, pointed=pointed,
                                complete=self.complete).validate()

    def _resolve(self, n, key, find):
        i, base, word = key
        if word:
            below = self._resolve(n - len(word), (i, base, ()), find)
            return apply_word(below, word, n - len(word))
        return self._nf[(n, find((i, base, ())))]

    def ref_in(self, obj_index, ref, ref_dim):
        return self._resolve(ref_dim, (obj_index, ref.base, ref.degs), self._find)

    def coprojection(self, obj_index):
        return simplicial.cellwise(self.objects[obj_index], self.space,
                                   lambda n, name: self.ref_in(obj_index, SimplexRef(name), n))


def _assert_same_colimit(objects, arrows, **kwargs):
    """The colimit and its oracle agree on names, faces, every ref_in, the
    coprojections and two maps out; returns both."""
    got = Colimit(objects, arrows, **kwargs)
    want = _AllRefsColimit(objects, arrows, **kwargs)
    assert _canonical(got.space) == _canonical(want.space)
    for i, obj in enumerate(objects):
        for n in range(got.bound + 1):
            for ref in obj.refs(n):
                assert got.ref_in(i, ref, n) == want.ref_in(i, ref, n)
        assert got.coprojection(i).key() == want.coprojection(i).key()
    point = standard_point()
    for legs, target in [
        ([want.coprojection(i) for i in range(len(objects))], want.space),
        ([constant_map(obj, point, "0") for obj in objects], point),
    ]:
        leg_of = legs.__getitem__
        assert got.mediating(leg_of, target).key() == want.mediating(leg_of, target).key()
    return got, want


def _simplex_maps(a, b):
    return hom_set(standard_simplex(a), standard_simplex(b))


@given(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_pushout_matches_all_refs_oracle(a, b, c, data):
    # every map between standard simplices: monos, and collapses such as
    # Delta[1] -> Delta[0]
    f = data.draw(st.sampled_from(_simplex_maps(a, b)))
    g = data.draw(st.sampled_from(_simplex_maps(a, c)))
    _assert_same_colimit([f.source, f.target, g.target], [(0, 1, f), (0, 2, g)])


@given(st.integers(0, 2), st.sets(st.integers(0, 5), max_size=4), st.integers(0, 2),
       st.data())
@settings(max_examples=30, deadline=None)
def test_pushout_along_coprojections_matches_oracle(n, collapse, c, data):
    # glued simplices: points mapped in as vertices; then a pushout of a
    # coproduct's coprojection along a map of Delta[1] into Delta[c]
    col = glued_simplices(n, collapse)
    _assert_same_colimit(col.objects, col.arrows)
    du = Colimit([standard_simplex(1), standard_simplex(n)], [])
    g = data.draw(st.sampled_from(_simplex_maps(1, c)))
    _assert_same_colimit([du.objects[0], du.space, g.target],
                         [(0, 1, du.coprojection(0)), (0, 2, g)])


@given(st.lists(small_spaces, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_coproduct_matches_all_refs_oracle(objects):
    _assert_same_colimit(objects, [])


@given(st.integers(0, 2), st.sets(st.integers(0, 5), max_size=4),
       st.integers(0, 2), st.data())
@settings(max_examples=30, deadline=None)
def test_bounded_pointed_colimit_matches_oracle(n, collapse, bound, data):
    col = glued_simplices(n, collapse)
    i = data.draw(st.integers(0, len(col.objects) - 1))
    vertex = data.draw(st.sampled_from(col.objects[i].cell_ids(0)))
    _assert_same_colimit(col.objects, col.arrows, bound=bound, pointed_at=(i, vertex))


@pytest.mark.parametrize("name, p", presented_corpus(), ids=[n for n, _ in presented_corpus()])
def test_presented_levels_match_all_refs_oracle(name, p):
    # each level of a presented space, up to 4, is a Colimit with one object
    # per slot; the action map to the level below is one more map out of it
    for n in range(5):
        col, slots, _ = p.level_data(n)
        got, want = _assert_same_colimit(col.objects, col.arrows)
        if n:
            g = GammaMorphism(n, n - 1, tuple(range(1, n)) + (0,))

            def leg_of(k):
                i, h = slots[k]
                return lambda ref, d: component_ref(p, i, h.then(g), ref, d, n - 1)

            target = p.evaluate(n - 1)
            built = got.mediating(leg_of, target).key()
            assert built == want.mediating(leg_of, target).key()
            assert p.action_map(g).key() == built


def disjoint_union(x, y):
    """The binary coproduct x + y with its two coprojections."""
    col = Colimit([x, y], [])
    return col.space, col.coprojection(0), col.coprojection(1)


def component_ref(p, cell_index, h, ref, ref_dim, n):
    """The ref in the evaluation of the presented space p at n of the shape
    ref of cell cell_index at the based map h, through the slot index."""
    col, _, index = p.level_data(n)
    return col.ref_in(index[(cell_index, h)], ref, ref_dim)


def _pushout_product_diagram():
    """The source diagram of the pushout-product of the boundary inclusion
    of Delta[2] with the inner horn inclusion of Lambda^1[2]."""
    d2 = standard_simplex(2)
    f = inclusion_map(boundary(2), d2)
    g = inclusion_map(horn(2, 1), d2)
    u, v, w, x = f.source, f.target, g.source, g.target
    vw, uw, ux = product(v, w), product(u, w), product(u, x)
    f_w = product_map(f, identity_map(w), uw, vw)
    u_g = product_map(identity_map(u), g, uw, ux)
    return [uw[0], vw[0], ux[0]], [(0, 1, f_w), (0, 2, u_g)]


def test_pushout_product_diagram_matches_oracle():
    _assert_same_colimit(*_pushout_product_diagram())


class _CountingMap(SimpMap):
    """A SimpMap that records every ref it is evaluated on."""

    def __init__(self, m):
        super().__init__(m.source, m.target, m.assignment)
        self.seen = []

    def __call__(self, ref, ref_dim):
        self.seen.append((ref_dim, ref))
        return super().__call__(ref, ref_dim)


@pytest.mark.parametrize("builder, degenerate", [(Colimit, False), (_AllRefsColimit, True)])
def test_colimit_evaluates_arrows_on_nondegenerate_cells(builder, degenerate):
    objects, arrows = _pushout_product_diagram()
    counted = [(si, di, _CountingMap(m)) for si, di, m in arrows]
    col = builder(objects, counted)
    seen = [r for _, _, m in counted for r in m.seen]
    assert any(ref.degs for _, ref in seen) == degenerate
    assert len(seen) == sum(
        len(objects[si].refs(n) if degenerate else objects[si].cell_ids(n))
        for si, _, _ in arrows for n in range(col.bound + 1))


def test_mediating_asks_for_each_leg_once_per_dimension():
    # the unchecked mediating (tests/conftest.py asks for the legs of each
    # arrow before it): each dimension's table runs object by object
    objects, arrows = _pushout_product_diagram()
    col = Colimit(objects, arrows)
    legs = [constant_map(obj, standard_point(), "0") for obj in objects]
    asked = []

    def leg_of(k):
        asked.append(k)
        return legs[k]

    got = Colimit.mediating.__wrapped__(col, leg_of, standard_point())
    assert got.key() == constant_map(col.space, standard_point(), "0").key()
    assert len(asked) <= len(objects) * (col.bound + 1) < col.space.total_cells()


# -- maps given cell by cell, against the loop each site had before it ------
# -- called `cellwise` ---------------------------------------------------------


def _old_identity_map(x):
    return SimpMap(x, x, {(n, name): SimplexRef(name)
                          for n in range(x.dim_bound + 1) for name in x.cell_ids(n)})


def _old_constant_map(x, y, vertex):
    assignment = {}
    cap = x.dim_bound if y.complete else min(x.dim_bound, y.dim_bound)
    for n in range(cap + 1):
        word = tuple(range(n - 1, -1, -1))
        for name in x.cell_ids(n):
            assignment[(n, name)] = SimplexRef(vertex, word)
    return SimpMap(x, y, assignment)


def _old_inclusion_map(sub, whole):
    return SimpMap(sub, whole, {(n, name): SimplexRef(name)
                                for n in range(min(sub.dim_bound, whole.dim_bound) + 1)
                                for name in sub.cell_ids(n)})


def _old_pairing(f, g, prod_data):
    prod, _, _, pair_ref = prod_data
    z = f.source
    cap = z.dim_bound if prod.complete else min(z.dim_bound, prod.dim_bound)
    return SimpMap(z, prod, {
        (n, name): pair_ref(f(SimplexRef(name), n), g(SimplexRef(name), n), n)
        for n in range(cap + 1) for name in z.cell_ids(n)})


def _old_product_map(f, g, src_data, dst_data):
    src, sp1, sp2, _ = src_data
    dst, _, _, pair_ref = dst_data
    cap = src.dim_bound if dst.complete else min(src.dim_bound, dst.dim_bound)
    return SimpMap(src, dst, {
        (n, name): pair_ref(f(sp1.assignment[(n, name)], n), g(sp2.assignment[(n, name)], n), n)
        for n in range(cap + 1) for name in src.cell_ids(n)})


def _old_coprojection(col, k):
    obj = col.objects[k]
    return SimpMap(obj, col.space, {(n, name): col.ref_in(k, SimplexRef(name), n)
                                    for n in range(min(obj.dim_bound, col.bound) + 1)
                                    for name in obj.cell_ids(n)})


def _degenerate_vertex(vertex):
    return lambda n, _name: SimplexRef(vertex, tuple(range(n - 1, -1, -1)))


def test_cellwise_assigns_the_dimensions_its_target_admits():
    d3 = standard_simplex(3)
    # into a complete target, every source dimension
    m = cellwise(d3, standard_point(), _degenerate_vertex("0"))
    assert sorted({n for n, _ in m.assignment}) == [0, 1, 2, 3]
    # into a truncated target of lower bound, up to that bound
    m = cellwise(d3, nerve(walking_iso_category(), bound=1), _degenerate_vertex("o1"))
    assert sorted({n for n, _ in m.assignment}) == [0, 1]
    # into a truncated target of higher bound, every source dimension
    m = cellwise(standard_simplex(1), nerve(walking_iso_category(), bound=3),
                 _degenerate_vertex("o1"))
    assert sorted({n for n, _ in m.assignment}) == [0, 1]


def _assert_sites_match_old_loops(x):
    """identity_map, constant_map, inclusion_map, pairing and product_map
    out of x give the maps of the loops they replaced, into a complete and
    into a truncated target."""
    assert identity_map(x).key() == _old_identity_map(x).key()
    targets = [(standard_point(), "0"), (nerve(walking_iso_category(), bound=1), "o1"),
               (x, x.cell_ids(0)[0])]
    for y, vertex in targets:
        assert constant_map(x, y, vertex).key() == _old_constant_map(x, y, vertex).key()
    first = x.cell_ids(0)[0]
    for sub, whole in [(x.rebound(0), x), (x, x.rebound(0)),
                       (simplicial.full_sub_on_vertices(x, lambda v: v != first), x)]:
        assert inclusion_map(sub, whole).key() == _old_inclusion_map(sub, whole).key()
    square = product(x, x)
    for y, vertex in targets[:2]:
        f, g = identity_map(x), constant_map(x, y, vertex)
        into = product(x, y)
        assert pairing(f, g, into).key() == _old_pairing(f, g, into).key()
        assert (product_map(f, g, square, into).key()
                == _old_product_map(f, g, square, into).key())


@given(st.integers(0, 2), st.sets(st.integers(0, 5), max_size=4))
@settings(max_examples=25, deadline=None)
def test_cellwise_sites_match_old_loops_on_quotients(n, collapse):
    col = glued_simplices(n, collapse)
    _assert_sites_match_old_loops(col.space)
    for k in range(len(col.objects)):
        assert col.coprojection(k).key() == _old_coprojection(col, k).key()


def test_cellwise_sites_match_old_loops_on_the_truncated_interval_nerve():
    j = nerve(walking_iso_category(), bound=1)
    _assert_sites_match_old_loops(j)
    col = Colimit([j, standard_simplex(2)], [])
    for k in range(2):
        assert col.coprojection(k).key() == _old_coprojection(col, k).key()
