"""The largest sub Kan complex, restricted exponentials, and the homotopy
mapping-space model."""

from gammaspace.catcore import (
    CatFunctor,
    functor_category,
    max_subgroupoid,
    poset_category,
    terminal_category,
    walking_iso_category,
)
from gammaspace.corpus import category_corpus, iso_with_tail_category
from gammaspace.homotopy import h_map_space, j_qcat, restricted_exp
from gammaspace.nerve import edge_is_invertible, nerve, nerve_functor_map, tau1, tau1_functor
from gammaspace.shapes import Exponential, standard_point, standard_simplex
from gammaspace.simplicial import SimplexRef, full_sub_on_vertices, hom_set, iso_check
from gammaspace.verdicts import HOLDS
from test_shapes import exponential_map


def test_j_basics():
    assert j_qcat(standard_simplex(1)).summary() == [2, 0]
    nw = nerve(walking_iso_category(), bound=2)
    assert iso_check(j_qcat(nw), nw).status == HOLDS


def test_j_idempotent_and_contained():
    ncx = nerve(iso_with_tail_category(), bound=2)
    j = j_qcat(ncx)
    assert iso_check(j_qcat(j), j).status == HOLDS
    for n in range(3):
        assert set(j.cell_ids(n)) <= set(ncx.cell_ids(n))
    cat, table = tau1(j)
    for e in j.cell_ids(1):
        assert edge_is_invertible(SimplexRef(e), cat, table)


def test_j_of_nerve_is_nerve_of_subgroupoid():
    for name, cat in category_corpus():
        nc = nerve(cat, bound=2)
        sub, _ = max_subgroupoid(cat)
        assert iso_check(j_qcat(nc), nerve(sub, bound=2)).status == HOLDS, name


def test_restricted_exp_level_zero_is_whole():
    nc = nerve(poset_category(2), bound=2)
    space, _ = restricted_exp(nc, standard_point())
    assert iso_check(space, nc).status == HOLDS


def test_path_space_vertices_are_invertible_edges():
    # level 1 of the path-space tower is the restricted exponential over Delta[1]
    ncx = nerve(iso_with_tail_category(), bound=2)
    level1, _ = restricted_exp(ncx, standard_simplex(1))
    cat, table = tau1(ncx)
    invertible_edges = [r for r in ncx.refs(1)
                        if edge_is_invertible(r, cat, table)]
    assert level1.cell_count(0) == len(invertible_edges)


def test_restricted_exp_matches_iso_arrow_category():
    cx = iso_with_tail_category()
    ncx = nerve(cx, bound=2)
    space, _ = restricted_exp(ncx, standard_simplex(1))
    fc, objs, _ = functor_category(poset_category(1), cx)
    # the full subnerve on some vertices is the nerve of the full
    # subcategory on those objects
    iso_objs = {f"o{name}" for name, fn in objs.items() if cx.is_iso_arrow(fn.arr("le01"))}
    sub = full_sub_on_vertices(nerve(fc, bound=2), lambda v: v in iso_objs)
    assert iso_check(space, sub).status == HOLDS


def test_h_map_space_vertices_and_point_case():
    ncx = nerve(iso_with_tail_category(), bound=2)
    a = standard_simplex(1)
    hm = h_map_space(a, ncx)
    assert hm.cell_count(0) == len(hom_set(a, ncx))
    assert iso_check(h_map_space(standard_point(), ncx), j_qcat(ncx)).status == HOLDS


def test_h_map_space_through_functor_category():
    cx = iso_with_tail_category()
    ncx = nerve(cx, bound=2)
    hm = h_map_space(standard_simplex(1), ncx)
    fc, _, _ = functor_category(poset_category(1), cx)
    sub, _ = max_subgroupoid(fc)
    assert iso_check(hm, nerve(sub, bound=2)).status == HOLDS


def test_restricted_exp_versus_h_map_space():
    # the two constructions genuinely differ: the restricted exponential
    # cuts vertices (maps through the sub Kan complex) but keeps all edges
    # among them, while the sub Kan complex of the exponential keeps every
    # vertex and cuts to invertible edges; frozen counterexample counts
    ncx = nerve(iso_with_tail_category(), bound=2)
    a = standard_simplex(1)
    rexp, exp = restricted_exp(ncx, a)
    hm = h_map_space(a, ncx)
    assert rexp.summary() == [5, 16, 48]
    assert hm.summary() == [7, 14, 38]
    # the definitional relation: restricted vertices sit inside the
    # exponential's (= h-map-space's) vertex set
    assert set(rexp.cell_ids(0)) <= set(hm.cell_ids(0))
    # and on a groupoid nerve both coincide with the whole exponential
    nw = nerve(walking_iso_category(), bound=2)
    r2, e2 = restricted_exp(nw, a)
    h2 = h_map_space(a, nw)
    assert iso_check(r2, h2).status == HOLDS
    assert iso_check(r2, e2.space).status == HOLDS


def test_equivalence_induces_ho_equivalence_on_mapping_spaces():
    # the collapse of the free isomorphism onto the point is a category
    # equivalence; restriction along its nerve map should induce an
    # equivalence of fundamental categories of the homotopy mapping spaces
    w = walking_iso_category()
    t = terminal_category()
    collapse = CatFunctor(
        w, t, {"0": "*", "1": "*"},
        {"id0": "id*", "id1": "id*", "u": "id*", "v": "id*"},
    ).validate()
    for name, cat in category_corpus()[:4]:
        x = nerve(cat, bound=2)
        nw, nt = nerve(w, bound=2), nerve(t, bound=2)
        u = nerve_functor_map(collapse, nw, nt)
        exp_b = Exponential(x, nt)
        exp_a = Exponential(x, nw)
        restrict = exponential_map(u, exp_b, exp_a)
        cat_b, tab_b = tau1(exp_b.space)
        cat_a, tab_a = tau1(exp_a.space)
        # restrict to the sub Kan complexes and compare at the level of
        # fundamental categories
        jb = j_qcat(exp_b.space)
        ja = j_qcat(exp_a.space)
        restricted = {
            (n, name_): restrict.assignment[(n, name_)]
            for n in range(jb.dim_bound + 1)
            for name_ in jb.cell_ids(n)
        }
        from gammaspace.simplicial import SimpMap

        jmap = SimpMap(jb, ja, restricted)
        fun = tau1_functor(jmap)
        assert fun.is_full_faithful_ess_surjective()[0], name
