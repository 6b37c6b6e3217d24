"""Standard complexes, smash products, lifting checks, exponentials."""

import pytest

from gammaspace import shapes
from gammaspace.catcore import poset_category, walking_iso_category
from gammaspace.nerve import nerve
from gammaspace.shapes import (
    Exponential,
    MapComplex,
    boundary,
    has_rlp,
    horn,
    is_quasicategory_up_to,
    pointed_point,
    pushout_product,
    simplex_inclusion,
    smash,
    sphere_zero,
    standard_point,
    standard_simplex,
)
from gammaspace.simplicial import (
    Colimit,
    FinSimpSet,
    SimplexRef,
    SimpMap,
    constant_map,
    discrete_set,
    hom_set,
    identity_map,
    inclusion_map,
    iso_check,
    product,
    product_map,
)
from gammaspace.verdicts import FAILS, HOLDS, Budget
from test_simplicial import disjoint_union


def spine_of_two_edges():
    pt = standard_point()
    d1 = standard_simplex(1)
    a0 = SimpMap(pt, d1, {(0, "0"): SimplexRef("1")})
    a1 = SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})
    return Colimit([pt, d1, d1], [(0, 1, a0), (0, 2, a1)]).space


def test_standard_shape_counts():
    assert standard_simplex(2).summary() == [3, 3, 1]
    assert boundary(1).summary() == [2, 0]
    assert horn(2, 1).summary() == [3, 2, 0]
    assert standard_point().summary() == [1]
    with pytest.raises(ValueError):
        horn(2, 3)


def test_a_shape_cut_by_its_bound_is_read_truncated():
    cut = standard_simplex(2, bound=1)
    assert cut.complete is False
    # read coskeletally above dimension 1 it is Delta[2]
    assert iso_check(cut, standard_simplex(2)).status == HOLDS
    assert standard_simplex(2, bound=2).complete and standard_simplex(2, bound=3).complete
    # the boundary and the horns of Delta[3] have nothing above dimension 2
    assert boundary(3, bound=1).complete is False and boundary(3, bound=2).complete
    assert horn(3, 1).rebound(1).complete is False and horn(3, 1).rebound(2).complete


def test_horn_is_simplex_minus_interior_and_face():
    h = horn(2, 1)
    d2 = standard_simplex(2)
    assert set(h.cell_ids(1)) == set(d2.cell_ids(1)) - {"02"}
    assert h.cell_count(2) == 0
    simplex_inclusion(h, 2).validate()


def test_smash_unit_and_collapse():
    d1p = FinSimpSet(
        1, {0: {"0": (), "1": ()}, 1: {"01": (SimplexRef("1"), SimplexRef("0"))}},
        pointed="0",
    )
    sm, _ = smash(d1p, sphere_zero(bound=1))
    assert iso_check(sm, d1p).status == HOLDS
    smp, _ = smash(d1p, pointed_point(bound=1))
    assert smp.cell_count(0) == 1 and smp.cell_count(1) == 0
    # frozen by the explicit quotient computation: collapsing the wedge of
    # two intervals inside the square leaves 2 vertices, 3 edges, 2 cells
    sq, _ = smash(d1p, d1p)
    assert sq.summary() == [2, 3, 2]


def test_smash_requires_basepoints():
    with pytest.raises(ValueError):
        smash(standard_simplex(1), sphere_zero())


def test_rlp_verdicts():
    d1 = standard_simplex(1)
    i1 = inclusion_map(boundary(1), d1)
    # identity against anything lifts
    assert has_rlp(identity_map(d1), i1).status == HOLDS
    # the interval onto the point is refuted by the reversed-boundary square
    v = has_rlp(constant_map(d1, standard_point(), "0"), i1)
    assert v.status == FAILS
    # the nerve of the free isomorphism does lift
    j = nerve(walking_iso_category(), bound=2)
    assert has_rlp(constant_map(j, standard_point(), "0"), i1).status == HOLDS
    # spine onto the point: no composite edge, inner horn square fails
    spine = spine_of_two_edges()
    v2 = has_rlp(constant_map(spine, standard_point(), "0"),
                 simplex_inclusion(horn(2, 1), 2))
    assert v2.status == FAILS and v2.witness is not None


def test_rlp_against_identity_always_holds():
    spine = spine_of_two_edges()
    p = constant_map(spine, standard_point(), "0")
    assert has_rlp(p, identity_map(standard_simplex(1))).status == HOLDS
    assert has_rlp(p, identity_map(boundary(2))).status == HOLDS


def test_rlp_budget_exhaustion_is_inconclusive():
    from gammaspace.verdicts import Budget

    j = nerve(walking_iso_category(), bound=2)
    i1 = inclusion_map(boundary(1), standard_simplex(1))
    v = has_rlp(constant_map(j, standard_point(), "0"), i1, budget=Budget(3))
    assert v.status == "inconclusive"


def test_rlp_checks_cells_sent_to_degenerate_simplices():
    # S^1 -> point against the collapse Delta[1] -> Delta[0]: the square
    # whose top edge is the loop has no lift, since a lift sends the edge
    # to a degenerate simplex
    s1 = FinSimpSet(1, {0: {"v": ()}, 1: {"e": (SimplexRef("v"), SimplexRef("v"))}})
    pt = standard_point()
    v = has_rlp(constant_map(s1, pt, "0"), constant_map(standard_simplex(1), pt, "0"))
    assert v.status == FAILS and (1, "01", "e", ()) in v.witness["u"]


def test_rlp_reads_a_complete_target_above_its_bound():
    # two points onto a point is no trivial fibration: a filler of the
    # square with distinct ends is an edge of a discrete set, and there is
    # none, even though the set is stored with bound 0
    two = discrete_set(["a", "b"])
    v = has_rlp(constant_map(two, standard_point(), "0"),
                inclusion_map(boundary(1), standard_simplex(1)))
    assert v.status == FAILS
    v = has_rlp(identity_map(two), inclusion_map(boundary(1), standard_simplex(1)))
    assert v.status == HOLDS


def test_rlp_compares_squares_where_both_sides_are_defined():
    # x: a vertex over each end of Delta[1] and no edge, stored at bound 1
    # and read coskeletally above it; p o u stops at dimension 1 while
    # v o i reaches dimension 2, and the square that sends the extra edge
    # to 01 has no filler, since x has no edge
    x = FinSimpSet(1, {0: {"x0": (), "x1": ()}}, complete=False)
    p = SimpMap(x, standard_simplex(1), {(0, "x0"): SimplexRef("0"), (0, "x1"): SimplexRef("1")})
    _, i, _ = disjoint_union(standard_simplex(2), standard_simplex(1))
    v = has_rlp(p, i)
    assert v.status == FAILS


def test_quasicategory_checks():
    assert is_quasicategory_up_to(standard_simplex(3), 3).status == HOLDS
    assert is_quasicategory_up_to(nerve(poset_category(2), bound=3), 4).status == HOLDS
    v = is_quasicategory_up_to(spine_of_two_edges(), 2)
    assert v.status == FAILS and v.witness["horn"] == [2, 1]
    assert is_quasicategory_up_to(nerve(walking_iso_category(), bound=3), 3).status == HOLDS


def test_pushout_product_square():
    i1 = inclusion_map(boundary(1), standard_simplex(1))
    pp = pushout_product(i1, i1)
    assert pp.is_mono()
    assert pp.target.summary() == [4, 5, 2]
    assert pp.source.summary() == [4, 4]
    # unit: (empty -> point) box g is g itself
    e = SimpMap(FinSimpSet(0, {}), standard_point(), {})
    unit = pushout_product(e, i1)
    assert unit.source.summary() == [2] and unit.target.summary() == [2, 1]
    # f box identity lands isomorphically onto its factor
    pid = pushout_product(i1, identity_map(standard_simplex(1)))
    assert pid.is_iso() or iso_check(pid.source, pid.target).status == HOLDS


def exponential_map(u: SimpMap, exp_src: Exponential, exp_dst: Exponential) -> SimpMap:
    """Precomposition x^B -> x^A along u: A -> B (exp_src = x^B over B =
    u.target, exp_dst = x^A over A = u.source)."""
    carries = [product_map(identity_map(exp_dst.simplices[n]), u,
                           exp_dst.frame(0, n), exp_src.frame(0, n))
               for n in range(min(exp_src.cap, exp_dst.cap) + 1)]
    return exp_dst.induced(exp_src.space, lambda n, name: (
        carries[n].then(exp_src.element_of(name)),))


def test_exponential_laws():
    d2 = standard_simplex(2)
    e0 = Exponential(d2, standard_point())
    assert iso_check(e0.space, d2).status == HOLDS
    e1 = Exponential(d2, standard_simplex(1))
    assert e1.space.cell_count(0) == len(d2.refs(1))
    for k in [standard_point(), standard_simplex(1)]:
        lhs = len(hom_set(product(k, standard_simplex(1))[0], d2))
        assert lhs == len(hom_set(k, e1.space))
    em = exponential_map(
        SimpMap(standard_point(), standard_simplex(1), {(0, "0"): SimplexRef("0")}),
        e1, e0,
    )
    em.validate()


def test_induced_on_own_elements_is_identity():
    e = Exponential(standard_simplex(2), standard_simplex(1))
    ident = e.induced(e.space, lambda d, name: (e.element_of(name),))
    ident.validate()
    assert ident == identity_map(e.space)


@pytest.mark.parametrize("simplex_last", [False, True], ids=["simplex-first", "simplex-last"])
def test_map_complex_carry_is_an_explicit_product_map(simplex_last):
    a, b = boundary(2), standard_simplex(2)
    f = inclusion_map(a, b)
    mc = MapComplex(2, [a, b, None], lambda mc, d: (), simplex_last=simplex_last)

    def explicit(g, op):
        """g x op (op x g when the simplex comes first) on fresh products."""
        if simplex_last:
            return product_map(g, op, product(g.source, op.source), product(g.target, op.target))
        return product_map(op, g, product(op.source, g.source), product(op.target, g.target))

    for d in range(3):
        carry = mc.carry(f, 0, 1, d)
        assert carry.source is mc.frame(0, d)[0] and carry.target is mc.frame(1, d)[0]
        assert carry == explicit(f, identity_map(standard_simplex(d)))
    # the face d0: Delta[1] -> Delta[2] and the degeneracy Delta[1] -> Delta[0]
    d0 = SimpMap(mc.simplices[1], mc.simplices[2], {
        (0, "0"): SimplexRef("1"), (0, "1"): SimplexRef("2"), (1, "01"): SimplexRef("12")})
    s0 = SimpMap(mc.simplices[1], mc.simplices[0], {
        (0, "0"): SimplexRef("0"), (0, "1"): SimplexRef("0"), (1, "01"): SimplexRef("0", (0,))})
    for op, e in ((d0, 2), (s0, 0)):
        carry = mc.carry(None, 0, 0, 1, op)
        assert carry.source is mc.frame(0, 1)[0] and carry.target is mc.frame(0, e)[0]
        assert carry == explicit(identity_map(a), op)
        assert mc.carry(None, 2, 2, 1, op) is op


# -- the standard shapes are built once ----------------------------------------

SHAPE_ARGS = ([(standard_simplex, (n, b)) for n in range(4) for b in (None, 0, 1, 2, 3, 4)]
              + [(boundary, (n, b)) for n in range(4) for b in (None, 0, 1, 2, 3, 4)]
              + [(horn, (n, k)) for n in range(1, 4) for k in range(n + 1)])


def test_memoized_shapes_equal_fresh_builds():
    for shape, args in SHAPE_ARGS:
        memo, fresh = shape(*args), shape.__wrapped__(*args)
        assert shape(*args) is memo
        assert (memo.dim_bound, memo.complete) == (fresh.dim_bound, fresh.complete), args
        for m in range(memo.dim_bound + 1):
            assert memo.cell_ids(m) == fresh.cell_ids(m), args
            assert [memo.faces_of(m, c) for c in memo.cell_ids(m)] == \
                [fresh.faces_of(m, c) for c in fresh.cell_ids(m)], args
    for shape in (standard_simplex, boundary, horn):
        assert shape.cache_info().maxsize is not None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_and_horns_are_the_simplex_less_their_cells(n):
    full = standard_simplex(n)
    cells = {(m, c) for m in range(n + 1) for c in full.cell_ids(m)}
    top = (n, full.cell_ids(n)[0])
    assert {(m, c) for m in range(n + 1) for c in boundary(n).cell_ids(m)} == cells - {top}
    for k in range(n + 1):
        face = (n - 1, full.faces_of(n, top[1])[k].base)
        assert {(m, c) for m in range(n + 1) for c in horn(n, k).cell_ids(m)} == \
            cells - {top, face}
        assert all(horn(n, k).faces_of(m, c) == full.faces_of(m, c)
                   for m in range(n) for c in horn(n, k).cell_ids(m))


def test_inner_horns_spend_less_than_a_search_per_square(monkeypatch):
    # with every square searched by `_find_lift`, the quasi-category cases
    # of the lifting goldens spend 11,558 units of budget in all; 6,946
    # with the fillers looked up but the bottom maps Delta[n] -> point still
    # searched; 6,355 with both ends looked up and the horn maps searched;
    # 4,583 with the horn maps joined as face tuples, a map searched only
    # to name an unfilled horn; 2,293 with a side truncated below the horn
    # read by lookup as well, not searched square by square
    from test_lifting_golden import _qcat_cases

    made = []

    class Counting(Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(shapes, "Budget", Counting)
    for case in _qcat_cases().values():
        case()
    assert len(made) == 34
    assert sum(b.used for b in made) <= 2_293
