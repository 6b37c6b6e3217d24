"""Markings, the marked mapping object with its two displayed bijections,
and marked level families."""

import pytest

from gammaspace.catcore import walking_iso_category
from gammaspace.corpus import z2_monoid_space
from gammaspace.gspace import GammaMappingSpace, constant_gamma_space, gamma_rep
from gammaspace.marked import (
    MarkedGammaSpace,
    MarkedSimpSet,
    gamma_flat,
    hom_marked,
    mark,
    marked_hom_set,
    marked_mapping_space,
    marked_product,
)
from gammaspace.nerve import nerve
from gammaspace.shapes import boundary, standard_point, standard_simplex
from gammaspace.simplicial import SimplexRef, hom_set, iso_check


def test_mark_flat_sharp():
    d1 = standard_simplex(1)
    assert mark(d1, "flat").marked == frozenset()
    assert mark(d1, "sharp").marked == frozenset({"01"})
    assert mark(d1, "flat").marked <= mark(d1, "sharp").marked
    # degenerate edges are always marked
    assert mark(d1, "flat").is_marked(SimplexRef("0", (0,)))
    with pytest.raises(ValueError):
        MarkedSimpSet(d1, ["nonsense"])


def test_marked_product_marking():
    d1s = mark(standard_simplex(1), "sharp")
    d1f = mark(standard_simplex(1), "flat")
    both, p1, p2, _ = marked_product(d1s, d1s)
    assert len(both.marked) == both.underlying.cell_count(1)
    mixed, q1, q2, _ = marked_product(d1s, d1f)
    for e in mixed.underlying.cell_ids(1):
        assert mixed.is_marked(SimplexRef(e)) == d1f.is_marked(q2.assignment[(1, e)])


def test_flat_part_of_point_source():
    j = nerve(walking_iso_category(), bound=2)
    y = MarkedSimpSet(j, [j.cell_ids(1)[0]])
    plus, flat, sharp = hom_marked(mark(standard_point(), "flat"), y, dim_cap=2)
    assert iso_check(flat, j).holds
    # the plus marking transports the target marking
    assert len(plus.marked) == 1
    # the sharp part keeps only simplices with marked edges
    assert sharp.cell_count(1) == 1


def test_sharp_target_makes_every_edge_marked():
    d1 = standard_simplex(1)
    j = nerve(walking_iso_category(), bound=2)
    plus, flat, sharp = hom_marked(mark(d1, "flat"), mark(j, "sharp"), dim_cap=2)
    assert set(plus.marked) == set(flat.cell_ids(1))
    assert iso_check(sharp, flat).holds


def test_displayed_bijections():
    j = nerve(walking_iso_category(), bound=2)
    y = MarkedSimpSet(j, [j.cell_ids(1)[0]])
    x = mark(standard_point(), "flat")
    plus, flat, sharp = hom_marked(x, y, dim_cap=2)
    for k in [standard_point(), standard_simplex(1), boundary(2)]:
        lhs = len(hom_set(k, flat))
        rhs = len(marked_hom_set(marked_product(mark(k, "flat"), x)[0], y))
        assert lhs == rhs
    for k in [standard_point(), standard_simplex(1)]:
        lhs = len(hom_set(k, sharp))
        rhs = len(marked_hom_set(marked_product(mark(k, "sharp"), x)[0], y))
        assert lhs == rhs


def test_flat_left_adjoint_to_forgetting():
    j = nerve(walking_iso_category(), bound=2)
    y = MarkedSimpSet(j, [j.cell_ids(1)[0]])
    for a in [standard_simplex(1), boundary(2)]:
        assert len(marked_hom_set(mark(a, "flat"), y)) == len(hom_set(a, j))


def test_gamma_flat_family():
    m = z2_monoid_space(3)
    gf = gamma_flat(m)
    gf.validate(level_cap=2)
    assert gf.underlying().value(2) is m.value(2)
    for e in gf.value(1).underlying.cell_ids(1):
        assert not gf.value(1).is_marked(SimplexRef(e))


def test_marked_mapping_space_forgets_on_flat():
    m = z2_monoid_space(2)
    msp, ms = marked_mapping_space(gamma_flat(m), gamma_flat(m), gamma_rep(1), dim_cap=1)
    plain = GammaMappingSpace(gamma_rep(1), m, dim_cap=1)
    assert iso_check(msp, plain.space).holds
    # the mapping space itself, truncated at its cap like the plain one
    assert msp is ms.space and not msp.complete


def test_marked_mapping_space_refuses_a_marked_source():
    x = constant_gamma_space(2, standard_simplex(1))
    sharp = MarkedGammaSpace(2, lambda n: mark(x.value(n), "sharp"), x.action)
    with pytest.raises(ValueError, match="marked edges at level 1"):
        marked_mapping_space(sharp, gamma_flat(x), gamma_rep(1), dim_cap=1)
