"""Core machinery: normal forms, the simplicial action, products, colimits,
map enumeration.  Oracles: monotone-map models of the standard simplices."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gammaspace.shapes import boundary, standard_point, standard_simplex
from gammaspace.simplicial import (
    Colimit,
    FinSimpSet,
    SimplexRef,
    SimpMap,
    apply_word,
    constant_map,
    disjoint_union,
    factor_monotone,
    hom_set,
    inclusion_map,
    iso_check,
    labeled_copies,
    mcompose,
    monotone_maps,
    pairing,
    product,
    pushout,
    surj_to_word,
    word_to_surj,
    _constraint_order,
)


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
    assert v.holds and v.witness.is_iso()
    v2 = iso_check(d1, boundary(2))
    assert v2.fails
    # same counts, different structure: two disjoint edges vs glued edges
    pt = standard_point()
    a0 = SimpMap(pt, d1, {(0, "0"): SimplexRef("1")})
    a1 = SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})
    spine = Colimit([pt, d1, d1], [(0, 1, a0), (0, 2, a1)]).space
    du = disjoint_union(d1, d1)[0]
    assert iso_check(spine, du).fails


def test_labeled_copies_and_constant_map():
    d1 = standard_simplex(1)
    copies, include = labeled_copies(d1, ["a", "b"])
    assert copies.summary() == [4, 2]
    assert include("a", SimplexRef("01")) == SimplexRef("a.01")
    c = constant_map(d1, standard_simplex(2), "1")
    c.validate()
    assert c(SimplexRef("01"), 1) == SimplexRef("1", (0,))


def test_rebound_rules():
    d1 = standard_simplex(1)
    up = d1.rebound(3)
    assert up.dim_bound == 3 and up.complete
    from gammaspace.shapes import interval_groupoid_nerve

    j = interval_groupoid_nerve(bound=2)
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
def test_face_index_matches_linear_scan(x):
    for n in range(1, x.dim_bound + 2):
        index = x.face_index(n)
        assert x.face_index(n) is index
        flat = [r for bucket in index.values() for r in bucket]
        assert sorted(flat, key=SimplexRef.key) == sorted(x.refs(n), key=SimplexRef.key)
        for faces, bucket in index.items():
            scan = [r for r in x.refs(n)
                    if all(x.face(r, n, i) == faces[i] for i in range(n + 1))]
            assert list(bucket) == scan


@given(quotients)
@settings(max_examples=25, deadline=None)
def test_memoized_order_matches_its_function(x):
    for cap in range(x.dim_bound + 1):
        order = x.constraint_order(cap)
        assert x.constraint_order(cap) is order
        assert order == tuple(_constraint_order(x, cap))


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
