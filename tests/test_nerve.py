"""Nerves and the fundamental category: the unit isomorphism and the
rewriting certificate."""

import pytest

from gammaspace.catcore import (
    CatFunctor,
    all_functors,
    cat_iso_search,
    cyclic_group_category,
    poset_category,
    terminal_category,
    walking_iso_category,
)
from gammaspace.corpus import category_corpus
from gammaspace.nerve import (
    PATH_BUDGET,
    chain_ref,
    edge_is_invertible,
    nerve,
    nerve_functor_map,
    tau1,
    tau1_functor,
)
from gammaspace.shapes import standard_point, standard_simplex
from gammaspace.simplicial import Colimit, FinSimpSet, SimplexRef, SimpMap, iso_check
from gammaspace.verdicts import DEFAULT_WORD_CAP, ResourceError


def test_nerve_basics():
    assert iso_check(nerve(terminal_category()), standard_point()).holds
    assert iso_check(nerve(poset_category(1)), standard_simplex(1)).holds
    assert iso_check(nerve(poset_category(2), bound=2), standard_simplex(2)).holds
    # chain-enumeration oracle for the one-object two-arrow group: of the
    # four 2-chains over {e,g}, only (g,g) has no identity entry
    assert nerve(cyclic_group_category(2), bound=2).summary() == [1, 1, 1]


def test_nerve_completeness_flag():
    assert nerve(poset_category(2), bound=4).complete
    assert not nerve(cyclic_group_category(2), bound=3).complete


def test_tau1_standard():
    c, _ = tau1(standard_simplex(3))
    assert cat_iso_search(c, poset_category(3)) is not None


@pytest.mark.parametrize("name,cat", category_corpus())
def test_tau1_nerve_unit(name, cat):
    t, _ = tau1(nerve(cat, bound=3))
    assert cat_iso_search(t, cat) is not None


def _loops(k):
    """One vertex with k loops: tau1 is the free monoid on k letters, whose
    words never compose within a cap."""
    return FinSimpSet(1, {0: {"v": ()},
                          1: {f"e{i}": (SimplexRef("v"), SimplexRef("v")) for i in range(k)}})


@pytest.mark.parametrize("k,message", [
    (2, f"representative words do not compose within cap {DEFAULT_WORD_CAP}"),
    (3, f"path enumeration exceeded {PATH_BUDGET} at cap {DEFAULT_WORD_CAP}"),
    (4, f"path enumeration exceeded {PATH_BUDGET} at cap {DEFAULT_WORD_CAP}"),
], ids=["two", "three", "four"])
def test_tau1_of_free_loops_stops_at_its_bounds(k, message):
    # the path budget is read as the paths are enumerated, and only the
    # five offenders reported are collected
    with pytest.raises(ResourceError, match=message) as e:
        tau1(_loops(k))
    assert len(e.value.offenders) == (5 if k == 2 else 0)


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


def test_nerve_preserves_products():
    from gammaspace.catcore import product_category
    from gammaspace.simplicial import product

    for c in [poset_category(1), walking_iso_category()]:
        for d in [poset_category(1), terminal_category()]:
            lhs = product(nerve(c, bound=2), nerve(d, bound=2), bound=2)[0]
            rhs = nerve(product_category(c, d), bound=2)
            assert iso_check(lhs, rhs).holds


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
        assert iso_check(nerve(sub, bound=2), j_qcat(nerve(cat, bound=2))).holds, name
