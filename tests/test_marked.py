"""Markings, the marked mapping object with its two displayed bijections,
and marked level families."""

import pytest
from hypothesis import given, settings, strategies as st

from gammaspace.catcore import walking_iso_category
from gammaspace.corpus import z2_monoid_space
from gammaspace.gammaop import GammaMorphism, gamma_identity, zero_map
from gammaspace.gspace import (
    GammaMappingSpace,
    all_morphisms_upto,
    constant_gamma_space,
    gamma_rep,
)
from gammaspace.marked import (
    MarkedGammaSpace,
    MarkedSimpSet,
    gamma_flat,
    hom_marked,
    is_marked_map,
    mark,
    marked_hom_set,
    marked_mapping_space,
    marked_product,
)
from gammaspace.nerve import nerve
from gammaspace.shapes import boundary, standard_point, standard_simplex
from gammaspace.simplicial import SimplexRef, hom_set, identity_map, iso_check
from gammaspace.verdicts import HOLDS


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
    assert iso_check(flat, j).status == HOLDS
    # the plus marking transports the target marking
    assert len(plus.marked) == 1
    # the sharp part keeps only simplices with marked edges
    assert sharp.cell_count(1) == 1


def test_sharp_target_makes_every_edge_marked():
    d1 = standard_simplex(1)
    j = nerve(walking_iso_category(), bound=2)
    plus, flat, sharp = hom_marked(mark(d1, "flat"), mark(j, "sharp"), dim_cap=2)
    assert set(plus.marked) == set(flat.cell_ids(1))
    assert iso_check(sharp, flat).status == HOLDS


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
    assert iso_check(msp, plain.space).status == HOLDS
    # the mapping space itself, truncated at its cap like the plain one
    assert msp is ms.space and not msp.complete


def test_marked_mapping_space_refuses_a_marked_source():
    x = constant_gamma_space(2, standard_simplex(1))
    sharp = MarkedGammaSpace(2, lambda n: mark(x.value(n), "sharp"), x.action)
    with pytest.raises(ValueError, match="marked edges at level 1"):
        marked_mapping_space(sharp, gamma_flat(x), gamma_rep(1), dim_cap=1)


def test_underlying_family_is_built_once():
    s = standard_simplex(1)
    x = MarkedGammaSpace(2, lambda n: mark(s, "flat"), lambda f: identity_map(s))
    u = x.underlying()
    assert x.underlying() is u and u.value(1) is x.value(1).underlying
    f = GammaMorphism(2, 1, (1, 0))
    assert x.action(f) is u.action(f)
    # the action reads through the family's level bound
    with pytest.raises(ValueError, match="beyond level bound"):
        x.action(gamma_identity(3))


# -- markings checked on the elementary maps -----------------------------------


_REP_INTERVAL = gamma_rep(1, standard_simplex(1)).tabulate(3)


def _marked_rep_interval(marks):
    y = _REP_INTERVAL
    return MarkedGammaSpace(3, lambda n: MarkedSimpSet(y.value(n), marks[n]), y.action)


def _validates(x):
    try:
        x.validate(level_cap=3)
    except ValueError:
        return False
    return True


def _marking_kept_by_all_maps(x):
    """The all-maps oracle: every based map between levels <= 3 sends
    marked edges to marked edges."""
    return all(is_marked_map(x.action(f), x.value(f.src), x.value(f.dst))
               for f in all_morphisms_upto(3))


def _zero_edge(n):
    """The edge of the copy of Delta[1] at the zero map 1+ -> n+, the one
    orbit that the based maps keep apart from the rest."""
    e = _REP_INTERVAL.value(1).cell_ids(1)[0]
    return _REP_INTERVAL.action(zero_map(1, n))(SimplexRef(e), 1).base


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_validate_refuses_exactly_when_a_based_map_breaks_the_marking(data):
    # each level marks its zero edge or not and the other edges or not,
    # then hypothesis flips a few single edges
    marks = {}
    for n in range(4):
        edges = _REP_INTERVAL.value(n).cell_ids(1)
        zero, rest = data.draw(st.booleans()), data.draw(st.booleans())
        marked = {e for e in edges if (zero if e == _zero_edge(n) else rest)}
        marks[n] = marked ^ data.draw(st.sets(st.sampled_from(edges), max_size=1))
    x = _marked_rep_interval(marks)
    assert _validates(x) == _marking_kept_by_all_maps(x)


@pytest.mark.parametrize("zero,rest,kept", [
    ((), (), True), ((0, 1, 2, 3), (1, 2, 3), True), ((0, 1, 2, 3), (), True),
    ((0, 1, 2, 3), (1, 2), False), ((1, 2, 3), (1, 2, 3), False),
])
def test_validate_on_orbit_markings(zero, rest, kept):
    x = _marked_rep_interval({
        n: {e for e in _REP_INTERVAL.value(n).cell_ids(1)
            if n in (zero if e == _zero_edge(n) else rest)}
        for n in range(4)})
    assert _validates(x) == _marking_kept_by_all_maps(x) == kept
