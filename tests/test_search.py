"""The backtracking engine, and the fast paths built on it checked against
the slow searches they replace."""

import functools
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import test_cocart
from test_cocart import cotensor_over_base, filler_over_one_of_two_bottoms
from test_lifting_golden import _cocart_cases, _diagram, _qcat_cases
from test_shapes import spine_of_two_edges
from test_simplicial import glued_simplices, quotients

from gammaspace import cocart, gspace, shapes
from gammaspace.catcore import cyclic_group_category, poset_category, walking_iso_category
from gammaspace.cocart import cocartesian_edges, nelg, relative_nerve
from gammaspace.corpus import (
    category_corpus,
    glued_presentation,
    max_monoid_space,
    pointed_corpus,
    tabulated_corpus,
)
from gammaspace.gspace import _basepoint_collapse, _families, _is_nerve_like
from gammaspace.gammaop import GammaMorphism, elementary_maps
from gammaspace.marked import MarkedSimpSet, is_marked_map, marked_hom_set
from gammaspace.nerve import nerve
from gammaspace.shapes import (
    boundary,
    horn,
    is_quasicategory_up_to,
    standard_point,
    standard_simplex,
    unliftable_square,
)
from gammaspace.corpus import z2_monoid_space
from gammaspace.gspace import (
    CellArrow,
    GammaMappingSpace,
    PresentedGammaSpace,
    TabulatedGammaSpace,
    constant_gamma_space,
    coproduct_presented,
    day_convolve,
    gamma_rep,
    mapping_space_tabulated,
    normalize,
    terminal_gamma_space,
)
from gammaspace.jsonio import canonical_dumps
from gammaspace.simplicial import (
    FinSimpSet,
    SimplexRef,
    SimpMap,
    _face_images,
    apply_word,
    cellwise,
    commutes,
    constant_map,
    discrete_set,
    hom_set,
    identity_map,
    inclusion_map,
    map_cap,
    maps,
    product,
)
from gammaspace.verdicts import HOLDS, Budget, BudgetExceededError, backtrack
from test_simplicial import disjoint_union

sources = st.sampled_from(
    [standard_simplex(1), boundary(2), horn(2, 1), standard_simplex(2)])


def test_backtrack_yields_one_empty_assignment_for_no_cells():
    assert list(backtrack([], lambda cell, assignment: [1, 2])) == [{}]


def test_backtrack_enumerates_in_order_and_yields_fresh_dicts():
    found = list(backtrack("ab", lambda cell, assignment: range(2)))
    assert found == [{"a": 0, "b": 0}, {"a": 0, "b": 1},
                     {"a": 1, "b": 0}, {"a": 1, "b": 1}]
    assert len({id(d) for d in found}) == 4


def test_backtrack_draws_nothing_past_the_first_result():
    drawn = []

    def candidates(cell, assignment):
        for value in range(3):
            drawn.append((cell, value))
            yield value

    assert next(backtrack(range(4), candidates)) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert drawn == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_candidates_see_exactly_the_earlier_cells():
    order = list(range(4))

    def candidates(cell, assignment):
        for value in range(2):
            # also on every resume of this generator
            assert list(assignment) == order[:cell]
            yield value

    assert len(list(backtrack(order, candidates))) == 16


def test_budget_error_propagates_from_a_lazy_search():
    target = standard_simplex(2)
    found = maps(standard_simplex(2), target, budget=Budget(3))
    with pytest.raises(BudgetExceededError):
        list(found)
    with pytest.raises(BudgetExceededError):
        next(maps(standard_simplex(2), target, budget=Budget(1)))


@given(quotients, sources, st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_first_map_agrees_with_the_full_list(x, a, pick):
    assert _first(maps(a, x)) == _first(hom_set(a, x))
    # a fixed vertex, as the lifting searches pass
    v = SimplexRef(x.cell_ids(0)[pick % x.cell_count(0)])
    fixed = {(0, a.cell_ids(0)[0]): v}
    assert _first(maps(a, x, fixed=fixed)) == _first(hom_set(a, x, fixed=fixed))


def _first(found):
    m = next(iter(found), None)
    return None if m is None else m.key()


# -- forward-checked vertices against drawing every vertex --------------------

def _unpruned_maps(a, x, budget, fixed=None, constraint=None):
    """The map search that draws every vertex of x for every vertex of a."""
    fixed = fixed or {}

    def candidates(cell, assignment):
        n, name = cell
        want = _face_images(assignment, a, n, name)
        if cell in fixed:
            cand = [fixed[cell]]
        elif n == 0:
            cand = x.refs(0)
        else:
            cand = x.face_index(n).get(want, ())
        for ref in cand:
            budget.spend()
            if n > 0 and cell in fixed:
                if any(x.face(ref, n, i) != want[i] for i in range(n + 1)):
                    continue
            if constraint is not None and not constraint(n, name, ref):
                continue
            yield ref

    for assignment in backtrack(a.constraint_order(map_cap(a, x)), candidates):
        yield SimpMap(a, x, assignment)


def _pointed_at(x, pick):
    cells = {n: {c: x.faces_of(n, c) for c in x.cell_ids(n)} for n in range(x.dim_bound + 1)}
    return FinSimpSet(x.dim_bound, cells, pointed=x.cell_ids(0)[pick % x.cell_count(0)],
                      complete=x.complete)


@given(quotients, st.one_of(sources, quotients), st.integers(0, 11), st.booleans(),
       st.sampled_from([None, 0, 1]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_forward_checked_vertices_match_the_unpruned_search(x, a, pick, pointed, fix, veto):
    if pointed:
        a, x = _pointed_at(a, pick), _pointed_at(x, pick + 1)
    kwargs = {}
    if fix is not None and a.cell_count(fix):
        targets = x.refs(fix)
        kwargs["fixed"] = {(fix, a.cell_ids(fix)[-1]): targets[pick % len(targets)]}
    banned = x.cell_ids(0)[(pick + 2) % x.cell_count(0)] if veto else None

    def constraint(n, name, ref):
        # a pointed search refuses every image of a's basepoint but x's
        based = not pointed or name != a.pointed or ref == SimplexRef(x.pointed)
        return n > 0 or based and ref.base != banned

    if pointed or veto:
        kwargs["constraint"] = constraint
    slow, fast = Budget(), Budget()
    expected = [m.key() for m in _unpruned_maps(a, x, slow, **kwargs)]
    assert [m.key() for m in maps(a, x, budget=fast, **kwargs)] == expected
    assert fast.used <= slow.used


def test_yoneda_mapping_space_draws_one_vertex_per_component():
    budget = Budget()
    ms = GammaMappingSpace(gamma_rep(6), z2_monoid_space(6), dim_cap=1, budget=budget)
    assert ms.space.cell_count(0) == 64
    assert budget.used == 256


def test_normalization_mapping_spaces_spend_a_pinned_budget():
    # the two mapping spaces of the normalization law (normalized Z/2 to
    # normalized max, levels <= 2, dims <= 1) spent 1,388 + 612 = 2,000
    # units when every level map was listed and the product filtered; 56 +
    # 56 with each level searched under the pins and vetoes of the levels
    # chosen before it
    nor_x, nor_y = normalize(z2_monoid_space(2))[0], normalize(max_monoid_space(2))[0]
    used = []
    for pointed in (True, False):
        budget = Budget()
        mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=pointed, budget=budget)
        used.append(budget.used)
    assert sum(used) <= 112


def _chain(side, family):
    return [m for m in (side[0], family[side[1]], side[2]) if m is not None]


def _joined_families(slots, links, budget=None):
    """The enumerate-then-join search that `_families` replaced: every
    slot's `hom_set`, and their product filtered by `commutes` on each
    link."""
    per_slot = [hom_set(frame, target, budget, pins) for frame, target, pins in slots]
    return [family for family in itertools.product(*per_slot)
            if all(commutes(_chain(left, family), _chain(right, family)) for left, right in links)]


@given(quotients, st.lists(st.sampled_from([standard_simplex(0), standard_simplex(1)]),
                           min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans(),
                          st.integers(0, 2), st.booleans()), max_size=3))
@settings(max_examples=40, deadline=None)
def test_pruned_families_match_the_product_filter(x, slot_shapes, raw_links):
    slots = [(a, x, {}) for a in slot_shapes]
    top = len(slots) - 1
    point = standard_simplex(0)
    posts = [None, identity_map(x), constant_map(x, x, x.cell_ids(0)[0])]

    def vertex(k, end):
        shape = slot_shapes[k]
        return cellwise(point, shape, lambda n, name: SimplexRef(shape.cell_ids(0)[end]))

    # a link ties the first vertex of one map to the first or last vertex
    # of another, read through a post map: pinned with none, vetoed with one
    links = []
    for i, j, last, post, swap in raw_links:
        i, j = min(i, top), min(j, top)
        sides = ((vertex(i, 0), i, None), (vertex(j, -1 if last else 0), j, posts[post]))
        links.append(sides[::-1] if swap else sides)
    assert list(_families(slots, links, Budget())) == _joined_families(slots, links)


def test_families_prune_at_the_later_end_of_each_link():
    x = discrete_set(["a", "b"])
    point = standard_simplex(0)
    to_a, to_b = constant_map(x, x, "a"), constant_map(x, x, "b")
    slots = [(point, x, {}), (point, x, {}), (standard_simplex(1), x, {})]
    never = ((None, 0, to_a), (None, 1, to_b))
    budget = Budget()
    assert list(_families(slots, [never], budget)) == []
    # slot 0 draws its two vertices, slot 1 draws two after each and vetoes
    # both, and slot 2 is never searched; the product filter searched all
    # three slots before its first check
    assert budget.used == 2 + 2 * 2
    # a pin draws only the pinned vertex
    budget = Budget()
    equal = ((None, 0, None), (None, 1, None))
    assert len(list(_families(slots[:2], [equal], budget))) == 2
    assert budget.used == 2 + 1 + 1


def _complex_view(mc):
    """A map complex's families by key, in search order, and its cells'
    names with the key each stands for."""
    return [list(table) for table in mc.tables], \
        [mc.space.cell_ids(n) for n in range(mc.space.dim_bound + 1)], dict(mc._key_of)


def _pinned_and_joined(build):
    """`_complex_view` of the complex `build()` makes, by the pinned search
    and by the enumerate-then-join oracle."""
    pinned = _complex_view(build())
    with mock.patch.object(gspace, "_families", _joined_families):
        return pinned, _complex_view(build())


def _level_families(bound):
    return [*tabulated_corpus(bound), ("normalized-z2", normalize(z2_monoid_space(bound))[0]),
            ("normalized-max", normalize(max_monoid_space(bound))[0])]


@given(st.sampled_from(_level_families(2)), st.sampled_from(_level_families(2)),
       st.integers(1, 2), st.integers(0, 2), st.booleans())
@settings(max_examples=30, deadline=None)
def test_pinned_mapping_spaces_match_the_joined_search(x, y, level_cap, dim_cap, pointed):
    # element_of is bound to the map complex it reads
    pinned, joined = _pinned_and_joined(lambda: mapping_space_tabulated(
        x[1], y[1], level_cap, dim_cap, pointed=pointed)[1].__self__)
    assert pinned == joined


def _glued_last():
    """`glued_presentation` with its level-2 cell last, so that the search
    meets each gluing arrow at its source and pins the whole map there."""
    p = glued_presentation()
    order = [1, 2, 0]
    return PresentedGammaSpace([p.cells[i] for i in order], [
        CellArrow(order.index(a.src), order.index(a.dst), a.gamma, a.simp) for a in p.arrows])


@given(st.sampled_from([glued_presentation(), _glued_last(),
                        day_convolve(glued_presentation(), gamma_rep(0)),
                        coproduct_presented(_glued_last(), gamma_rep(1, standard_simplex(1)))]),
       st.sampled_from(tabulated_corpus(2)), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_pinned_gluing_searches_match_the_joined_search(p, y, dim_cap):
    assert p.arrows
    pinned, joined = _pinned_and_joined(lambda: GammaMappingSpace(p, y[1], dim_cap=dim_cap))
    assert pinned == joined


def _terminal_cut_at_zero(bound):
    """The terminal family with level 0 read truncated at 0: a link out of
    level 0 compares its sides up to different caps."""
    cut = FinSimpSet(0, {0: {"0": ()}}, complete=False)

    def value(n):
        return cut if n == 0 else standard_point()

    return TabulatedGammaSpace(bound, value,
                               lambda f: constant_map(value(f.src), value(f.dst), "0"))


@pytest.mark.parametrize("dim_cap", [0, 1, 2])
@pytest.mark.parametrize("x,y", [
    (constant_gamma_space(2, standard_simplex(1)), _terminal_cut_at_zero(2)),
    (terminal_gamma_space(2), constant_gamma_space(2, standard_simplex(2, bound=1))),
], ids=["cut-at-level-0", "cut-below-the-frame"])
def test_pinned_search_matches_the_joined_search_into_truncated_targets(x, y, dim_cap):
    pinned, joined = _pinned_and_joined(
        lambda: mapping_space_tabulated(x, y, 2, dim_cap)[1].__self__)
    assert pinned == joined


def test_a_family_broken_only_at_the_swap_is_excluded():
    # on (max, max): the identity at levels 0 and 1, and at level 2 the map
    # sending t1_1 to t1_0 and fixing the rest.  It is natural along every
    # elementary map but the swap of 2+, whose two ends are one slot, so
    # that neither a pin nor a veto sees it and `commutes` alone refuses it
    x = max_monoid_space(2)
    mc = mapping_space_tabulated(x, x, 2, 0)[1].__self__

    def bent(n):
        frame, proj = mc.frame(n, 0)[:2]
        return cellwise(frame, x.value(n), lambda _, c: SimplexRef(
            {"t1_1": "t1_0"}.get(proj(SimplexRef(c), 0).base, proj(SimplexRef(c), 0).base)))

    family = [bent(n) for n in range(3)]
    broken = [f for f in elementary_maps(2) if not commutes(
        [mc.carry(x.action(f), f.src, f.dst, 0), family[f.dst]], [family[f.src], x.action(f)])]
    assert broken == [GammaMorphism(2, 2, (2, 1))]
    assert tuple(m.key() for m in family) not in mc.tables[0]
    # the zero family and the identity
    assert len(mc.tables[0]) == 2


def _collapses(m, frame, simplex, xb, yb):
    """The post-filter the pinned basepoint replaced: basepoint x c goes
    to Y's degenerate basepoint for every simplex c of Delta[d]."""
    for dd in range(simplex.dim_bound + 1):
        word = tuple(range(dd - 1, -1, -1))
        for c in simplex.cell_ids(dd):
            cell = frame[3](apply_word(SimplexRef(xb), word, 0), SimplexRef(c), dd)
            if m(cell, dd) != apply_word(SimplexRef(yb), word, 0):
                return False
    return True


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("xname,x,yname,y", [
    (xn, x, yn, y) for xn, x in pointed_corpus() for yn, y in pointed_corpus()])
def test_pinned_basepoint_matches_the_collapse_filter(xname, x, yname, y, d):
    simplex = standard_simplex(d)
    frame = product(x, simplex)
    pinned = hom_set(frame[0], y, fixed=_basepoint_collapse(frame, x.pointed, y.pointed))
    filtered = [m for m in hom_set(frame[0], y)
                if _collapses(m, frame, simplex, x.pointed, y.pointed)]
    assert [m.key() for m in pinned] == [m.key() for m in filtered]


@st.composite
def markings(draw, spaces):
    x = draw(spaces)
    return MarkedSimpSet(x, draw(st.sets(st.sampled_from(x.cell_ids(1))))
                         if x.cell_count(1) else ())


@given(markings(sources), markings(quotients))
@settings(max_examples=40, deadline=None)
def test_marked_hom_set_matches_the_marking_filter(a, x):
    found = marked_hom_set(a, x)
    filtered = [m for m in hom_set(a.underlying, x.underlying) if is_marked_map(m, a, x)]
    assert [m.key() for m in found] == [m.key() for m in filtered]

def _count_calls(monkeypatch, module):
    calls = []
    real = module.hom_set

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "hom_set", counting)
    return calls


def test_cotensor_searches_base_simplices_once_per_dimension(monkeypatch):
    over, _, _ = nelg(1, 1, dim_cap=1)
    calls = _count_calls(monkeypatch, test_cocart)
    cotensor_over_base(over, standard_simplex(1), dim_cap=1)
    # per dimension: the maps into the total space, then the base simplices
    assert len(calls) == 4


def test_commuting_squares_search_the_bottom_once(monkeypatch):
    d1 = standard_simplex(1)
    i = inclusion_map(boundary(1), d1)
    p = constant_map(d1, standard_simplex(0), "0")
    calls = _count_calls(monkeypatch, shapes)
    squares = shapes._commuting_squares(i, p, Budget())
    assert len(calls) == 2
    assert len(squares) == len(hom_set(i.source, p.source))


# -- the shared lifting search against its definition -------------------------

lifting_shapes = st.sampled_from([
    inclusion_map(boundary(1), standard_simplex(1)),
    inclusion_map(horn(2, 1), standard_simplex(2)),
    inclusion_map(horn(2, 0), standard_simplex(2)),
    inclusion_map(boundary(2), standard_simplex(2)),
    identity_map(standard_simplex(1)),
    # not injective: the edge goes to a degenerate simplex
    constant_map(standard_simplex(1), standard_simplex(0), "0"),
])


@st.composite
def projections(draw):
    """A coprojection of a glued quotient, or the quotient onto a point."""
    col = glued_simplices(draw(st.integers(0, 2)), draw(st.sets(st.integers(0, 5), max_size=4)))
    k = draw(st.integers(0, 2))
    return col.coprojection(k) if k < 2 else constant_map(col.space, standard_point(), "0")


def _agree(f, g):
    """f and g assign the same simplex to every cell both assign."""
    return all(f.assignment[c] == g.assignment[c]
               for c in f.assignment.keys() & g.assignment.keys())


def _squares_by_definition(i, p):
    us = hom_set(i.source, p.source)
    vs = hom_set(i.target, p.target)
    return [(u, v) for u in us for v in vs if _agree(i.then(v), u.then(p))]


def _keys(squares):
    return [(u.key(), v.key()) for u, v in squares]


def _points_over_an_edge():
    """A vertex over each end of Delta[1] and no edge, stored at bound 1 and
    read coskeletally above it, against the coprojection of Delta[2] into
    Delta[2] + Delta[1]: p o u stops at dimension 1, v o i does not."""
    x = FinSimpSet(1, {0: {"x0": (), "x1": ()}}, complete=False)
    p = SimpMap(x, standard_simplex(1), {(0, "x0"): SimplexRef("0"), (0, "x1"): SimplexRef("1")})
    return disjoint_union(standard_simplex(2), standard_simplex(1))[1], p


@given(lifting_shapes, projections())
@example(*_points_over_an_edge())
@settings(max_examples=40, deadline=None)
def test_commuting_squares_match_the_definition(i, p):
    assert _keys(shapes._commuting_squares(i, p, Budget())) == _keys(
        _squares_by_definition(i, p))


def _loop_onto_a_point():
    """Delta[2] with its vertices 0 and 1 glued, onto a point: edge 01 is a
    loop, which no square through the collapse Delta[1] -> Delta[0] lifts."""
    loop = glued_simplices(0, {0, 1}).space
    return constant_map(loop, standard_point(), "0")


@given(lifting_shapes, projections())
@example(constant_map(standard_simplex(1), standard_simplex(0), "0"), _loop_onto_a_point())
@settings(max_examples=60, deadline=None)
def test_unliftable_square_matches_a_scan_of_all_fillers(i, p):
    fillers = hom_set(i.target, p.source)
    squares = _squares_by_definition(i, p)
    first = next(((u, v) for u, v in squares
                  if not any(i.then(h) == u and h.then(p) == v for h in fillers)), None)
    found_squares, found = unliftable_square(i, p, Budget())
    assert _keys(found_squares) == _keys(squares)
    assert (found and _keys([found])) == (first and _keys([first]))


@given(projections(), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_cocartesian_edges_match_a_scan_of_all_fillers(p, d):
    # an edge is refuted by a square on it, at u(01), that no map
    # Delta[n] -> X fills
    refuted = set()
    for n in range(2, d + 1):
        i = inclusion_map(horn(n, 0), standard_simplex(n))
        fillers = hom_set(i.target, p.source)
        for u, v in _squares_by_definition(i, p):
            if not any(i.then(h) == u and h.then(p) == v for h in fillers):
                refuted.add(u.assignment[(1, "01")])
    detected, _, _ = cocartesian_edges(p.source, p, d)
    assert detected == [e for e in p.source.cell_ids(1) if SimplexRef(e) not in refuted]


def test_cocartesian_edges_search_no_horn_map_on_the_lookup_path(monkeypatch):
    # the horn maps Lambda^0[2], Lambda^0[3] and the inner horns are
    # joined as face tuples and each square is two horn-index lookups: no
    # map search runs and no SimpMap is built per square; the nerve is a
    # quasi-category, so no witness is named either
    searched, made = [], []
    for name in ("_commuting_squares", "hom_set", "maps"):
        real = getattr(shapes, name)
        monkeypatch.setattr(shapes, name, lambda *args, real=real, name=name, **kwargs:
                            searched.append(name) or real(*args, **kwargs))
    nb = nerve(poset_category(2), bound=3)
    p = identity_map(nb)
    real_init = SimpMap.__init__
    monkeypatch.setattr(SimpMap, "__init__",
                        lambda self, *args: made.append(args) or real_init(self, *args))
    squares = [s for n in (2, 3) for k in range(n) for s in shapes._horn_squares(n, k, p, Budget())]
    # one filled square per horn and per n-simplex of N[2], a monotone [n] -> [2]
    assert made == [] and len(squares) == 2 * 10 + 3 * 15 and all(f for _, _, f in squares)
    detected, verdict, _ = cocartesian_edges(nb, p, 3)
    assert searched == [] and detected == list(nb.cell_ids(1)) and verdict.status == HOLDS


# -- horn fillers by lookup, against the filler search ------------------------

@functools.cache
def _relative_projections():
    """Projections of small relative nerves over [1], built at dimension 2:
    for Lambda^k[3] their totals are read coskeletally."""
    base = poset_category(1)
    nw, n1 = nerve(walking_iso_category(), bound=2), nerve(poset_category(1), bound=2)
    pt = standard_point(bound=2)
    diagrams = [
        ({"0": nw, "1": nw}, {"le01": identity_map(nw)}),
        ({"0": n1, "1": nw}, {"le01": constant_map(n1, nw, "o0")}),
        ({"0": pt, "1": n1}, {"le01": SimpMap(pt, n1, {(0, "0"): SimplexRef("o1")})}),
    ]
    return [relative_nerve(_diagram(base, values, maps), 2).proj for values, maps in diagrams]


@st.composite
def horn_targets(draw):
    """p: X -> Y: a glued quotient onto a point, a corpus nerve at bound 1-3
    onto a point or onto its nerve at a bound no higher (X or Y then stops
    below the horn, at n - 1 or lower), or the projection of a relative
    nerve."""
    kind = draw(st.sampled_from(["quotient", "nerve", "truncated", "relative"]))
    if kind == "quotient":
        x = glued_simplices(draw(st.integers(0, 2)),
                            draw(st.sets(st.integers(0, 5), max_size=4))).space
    elif kind == "relative":
        return draw(st.sampled_from(_relative_projections()))
    else:
        _, c = draw(st.sampled_from(category_corpus()))
        x = nerve(c, bound=draw(st.integers(1, 3)))
        if kind == "truncated":
            y = nerve(c, bound=draw(st.integers(0, x.dim_bound)))
            return cellwise(x, y, lambda n, name: SimplexRef(name)).validate()
    return constant_map(x, standard_point(), "0")


horns = st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


@given(horn_targets(), horns)
@example(constant_map(spine_of_two_edges(), standard_point(), "0"), (2, 1))
@example(filler_over_one_of_two_bottoms(), (2, 0))
@settings(max_examples=60, deadline=None)
def test_horn_lookup_decides_every_square_as_the_filler_search(p, horn_at):
    # the squares as a multiset of (face tuple, tau, filled); a face tuple
    # determines its horn map.  Where X stops below n - 1 the horn holds
    # every cell of Delta[n] that a map into X assigns, so the search fills
    # every square and the lookup lists none
    n, k = horn_at
    searched = _searched_horn_squares(n, k, p, Budget())
    if map_cap(standard_simplex(n), p.source) < n - 1:
        assert all(filled for _, _, filled in searched)
        assert list(shapes._horn_squares(n, k, p, Budget())) == []
    else:
        assert Counter(shapes._horn_squares(n, k, p, Budget())) == Counter(searched)


@given(horn_targets(), horns)
@settings(max_examples=60, deadline=None)
def test_horn_tuples_are_the_face_tuples_of_the_horn_maps(p, horn_at):
    # the join against the search it replaces, wherever X reaches n - 1
    n, k = horn_at
    x = p.source
    assume(map_cap(horn(n, k), x) >= n - 1)
    assert Counter(shapes._horn_tuples(n, k, x, Budget())) == \
        Counter(shapes._horn_faces(u, n, k) for u in hom_set(horn(n, k), x))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", [name for name, _ in category_corpus()])
def test_horn_tuples_of_the_corpus_nerves(name, n):
    x = nerve(dict(category_corpus())[name], bound=n)
    for k in range(n + 1):
        assert Counter(shapes._horn_tuples(n, k, x, Budget())) == \
            Counter(shapes._horn_faces(u, n, k) for u in hom_set(horn(n, k), x))


def test_horn_lookup_meets_squares_with_and_without_fillers():
    # the spine onto a point: its inner 2-horn on the two edges has no
    # filler, and its degenerate ones do
    p = constant_map(spine_of_two_edges(), standard_point(), "0")
    decided = [filled for _, _, filled in shapes._horn_squares(2, 1, p, Budget())]
    assert True in decided and False in decided


def test_an_inner_horn_is_unfilled_over_a_bottom_read_at_its_missing_face():
    # the boundary of Delta[2] over the 1-skeleton of Delta[2], read
    # coskeletally: the bottom of the inner horn (01, 12) is no stored
    # 2-simplex of Y but its missing face 02, and no 2-simplex of X fills it
    x, y = boundary(2), standard_simplex(2, bound=1)
    p = SimpMap(x, y, {(n, c): SimplexRef(c) for n in (0, 1) for c in x.cell_ids(n)}).validate()
    n, k, u = shapes.unfillable_inner_horn(p, 2, Budget())
    assert (n, k) == (2, 1)
    assert [u.assignment[(1, c)] for c in ("01", "12")] == [SimplexRef("01"), SimplexRef("12")]


@pytest.mark.parametrize("check", [
    lambda: _is_nerve_like(nerve(cyclic_group_category(8), bound=2)),
    lambda: is_quasicategory_up_to(nerve(walking_iso_category(), bound=1), 3).status == HOLDS,
], ids=["nerve-like-z8-at-2", "qcat-walking-iso-at-1"])
def test_horn_squares_of_a_truncated_nerve_search_nothing(check, monkeypatch):
    # X stops at n - 1 (n = 3, and n = 2 at bound 1) or below (n = 3 at
    # bound 1): every square is still a lookup on its face tuple, and the
    # level is a nerve, so `maps` names no unfilled horn either
    searched = []
    for name in ("_commuting_squares", "_find_lift", "hom_set", "maps"):
        real = getattr(shapes, name)
        monkeypatch.setattr(shapes, name, lambda *args, real=real, name=name, **kwargs:
                            searched.append(name) or real(*args, **kwargs))
    assert check() and searched == []


def _searched_horn_squares(n, k, p, budget):
    """The oracle of `_horn_squares`: every square listed by
    `_commuting_squares` and decided by `_find_lift`, with its horn map
    given by its face tuple."""
    full = standard_simplex(n)
    i, top = inclusion_map(horn(n, k), full), (n, full.cell_ids(n)[0])
    return [(shapes._horn_faces(u, n, k), v.assignment.get(top),
             shapes._find_lift(i, p, u, v, budget) is not None)
            for u, v in shapes._commuting_squares(i, p, budget)]


LOOKUP_CASES = {**{f"quasicategory/{k}": v for k, v in _qcat_cases().items()},
                **{f"cocartesian/{k}": v for k, v in _cocart_cases().items()}}


@pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
def test_lookup_verdicts_match_a_search_of_every_square(case, monkeypatch):
    found = LOOKUP_CASES[case]()
    monkeypatch.setattr(shapes, "_horn_squares", _searched_horn_squares)
    monkeypatch.setattr(cocart, "_horn_squares", _searched_horn_squares)
    assert canonical_dumps(found) == canonical_dumps(LOOKUP_CASES[case]())
