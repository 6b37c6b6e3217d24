"""Relative nerves, lifting detection, the fiber theorem, and the marked
overcategory objects."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import test_cocart_golden
from test_catcore import iso_class_count
from test_simplicial import disjoint_union, quotients
from gammaspace import cocart, shapes
from gammaspace.catcore import (
    CatFunctor,
    poset_category,
    terminal_category,
    walking_iso_category,
)
from gammaspace.cocart import (
    OverObject,
    RelativeNerveInput,
    UnsupportedInputError,
    cocartesian_cross_check,
    cocartesian_edges,
    gamma_diagram_input,
    gamma_subcategory,
    hom_over_base,
    nelg,
    r_plus_level,
    relative_nerve,
    sm_qcat_check,
    upsilon,
)
from gammaspace.corpus import category_corpus, z2_monoid_space
from gammaspace.gspace import gamma_rep, segal_check
from gammaspace.marked import (
    MarkedSimpSet, edge_sharpens, mark, marked_product, marked_hom_set, hom_marked,
    preserves_marking)
from gammaspace.nerve import nerve
from gammaspace.shapes import MapComplex, boundary, horn, standard_point, standard_simplex
from gammaspace.simplicial import (
    FinSimpSet,
    SimplexRef,
    SimpMap,
    cellwise,
    commutes,
    constant_map,
    delta_tuple,
    from_elements,
    hom_set,
    identity_map,
    inclusion_map,
    iso_check,
    sigma_tuple,
)
from gammaspace.verdicts import FAILS, HOLDS, INCONCLUSIVE, Budget, backtrack


def constant_input(base, value):
    return RelativeNerveInput(
        base,
        {o: value for o in base.objects},
        {f: identity_map(value) for f in base.arrow_ids()},
    ).validate()


def test_constant_diagram_collapses():
    base = poset_category(1)
    rn = relative_nerve(constant_input(base, standard_point(bound=2)), 2)
    assert iso_check(rn.total, rn.base_nerve).status == HOLDS
    rn.proj.validate()


def test_spec_edge_inventory():
    base = poset_category(1)
    pt = standard_point(bound=2)
    d1 = standard_simplex(1).rebound(2)
    inp = RelativeNerveInput(
        base,
        {"0": pt, "1": d1},
        {
            base.identities["0"]: identity_map(pt),
            base.identities["1"]: identity_map(d1),
            "le01": SimpMap(pt, d1, {(0, "0"): SimplexRef("0")}),
        },
    ).validate()
    rn = relative_nerve(inp, 2)
    assert rn.total.cell_count(0) == 1 + 2
    # edges: one inside the level-1 fiber, and one pair (arrow, h) for each
    # edge h of the target starting at the image vertex
    assert rn.total.cell_count(1) == 3
    over = {}
    for e in rn.total.cell_ids(1):
        over.setdefault(rn.proj.assignment[(1, e)], []).append(e)
    assert len(over[("le01", ())]) == 2


def test_fiber_theorem():
    base = poset_category(1)
    nw = nerve(walking_iso_category(), bound=2)
    n1 = nerve(poset_category(1), bound=2)
    inp = RelativeNerveInput(
        base, {"0": nw, "1": n1},
        {base.identities["0"]: identity_map(nw),
         base.identities["1"]: identity_map(n1),
         "le01": constant_map(nw, n1, "o0")},
    ).validate()
    rn = relative_nerve(inp, 2)
    for o in base.objects:
        assert rn.fiber_comparison(o).status == HOLDS


def test_cocartesian_identity_projection():
    nb = nerve(poset_category(1), bound=2)
    detected, verdict, marking = cocartesian_edges(nb, identity_map(nb), 2)
    assert verdict.status == HOLDS
    assert set(detected) == set(nb.cell_ids(1))
    assert marking.marked.marked == frozenset(detected)


def test_cocartesian_cross_check_and_composability():
    base = poset_category(1)
    nw = nerve(walking_iso_category(), bound=2)
    inp = RelativeNerveInput(
        base, {"0": nw, "1": nw},
        {base.identities["0"]: identity_map(nw),
         base.identities["1"]: identity_map(nw),
         "le01": identity_map(nw)},
    ).validate()
    rn = relative_nerve(inp, 2)
    v = cocartesian_cross_check(rn, 2)
    assert v.status == HOLDS
    detected, verdict, _ = cocartesian_edges(rn.total, rn.proj, 2)
    assert verdict.status == HOLDS
    # composability: any 2-simplex with two detected short edges has a
    # detected long edge
    for t in rn.total.cell_ids(2):
        faces = rn.total.faces_of(2, t)
        left, long_edge, right = faces[2], faces[1], faces[0]
        if (not left.degs and left.base in detected
                and not right.degs and right.base in detected
                and not long_edge.degs):
            assert long_edge.base in detected


def test_missing_lift_detected():
    # diagram value at the target missing the needed arrow image: the
    # projection from a fiber-only total space has no lift over the base edge
    base = poset_category(1)
    nb = nerve(base, bound=2)
    pt = standard_point(bound=2)
    two_fibers, c1, c2 = disjoint_union(pt, pt)
    proj = SimpMap(two_fibers, nb, {
        (0, c1.assignment[(0, "0")].base): SimplexRef("o0"),
        (0, c2.assignment[(0, "0")].base): SimplexRef("o1"),
    })
    detected, verdict, _ = cocartesian_edges(two_fibers, proj, 2)
    assert verdict.status == FAILS and verdict.witness["base_edge"] == "le01"


def test_sm_qcat_check_and_agreement():
    m = z2_monoid_space(2)
    ginp = gamma_diagram_input(m, 2)
    v = sm_qcat_check(ginp, 1, 1, tier="iso")
    assert v.status == HOLDS
    g1 = gamma_rep(1).tabulate(2)
    v2 = sm_qcat_check(gamma_diagram_input(g1, 2), 1, 1)
    assert v2.status == FAILS
    assert segal_check(m, 1, 1, "iso").status == v.status
    assert segal_check(g1, 1, 1, "iso").status == v2.status
    with pytest.raises(UnsupportedInputError):
        sm_qcat_check(object(), 1, 1)
    # a built relative nerve is refused: its input carries the transport
    with pytest.raises(UnsupportedInputError):
        sm_qcat_check(relative_nerve(ginp, 1), 1, 1)
    base = poset_category(1)
    with pytest.raises(UnsupportedInputError):
        sm_qcat_check(constant_input(base, standard_point(bound=2)), 1, 1)


def test_fibration_verdict_over_based_set_base():
    # the monoid family materialized as a relative nerve over the level<=1
    # base is a fibration in the verified range, and its verdict agrees
    # with the fiberwise comparison
    m = z2_monoid_space(1)
    ginp = gamma_diagram_input(m, 1)
    rn = relative_nerve(ginp, 2)
    for o in ginp.base.objects:
        assert rn.fiber_comparison(o).status == HOLDS
    detected, verdict, marking = cocartesian_edges(rn.total, rn.proj, 2)
    assert verdict.status == HOLDS
    assert marking.marked.marked == frozenset(detected)


def test_upsilon_locality_counts_on_monoid_marking():
    # over-base maps out of the under-category nerves detect the monoid
    # structure: restriction along the two projections identifies the maps
    # out of the level-(k+l) nerve with pairs, here 4 = 2 x 2, with the
    # level-0 nerve seeing exactly one map
    m = z2_monoid_space(2)
    ginp = gamma_diagram_input(m, 2)
    rn = relative_nerve(ginp, 2)
    marking = OverObject(MarkedSimpSet(rn.total, rn.total.cell_ids(1)), rn.proj)
    counts = {}
    for k in (0, 1, 2):
        nk, _, _ = nelg(k, 2, dim_cap=2)
        counts[k] = len(over_base_maps(nk, marking))
    assert counts == {0: 1, 1: 2, 2: 4}
    assert counts[2] == counts[1] ** 2


def test_nelg_counts():
    over1, cos1, _ = nelg(1, 2)
    assert over1.marked.underlying.cell_count(0) == 1 + 2 + 3
    over0, cos0, legs0 = nelg(0, 2)
    base = gamma_subcategory(2)
    proj0 = CatFunctor(cos0, base, {f: base.dst(f) for f in cos0.objects}, legs0)
    assert proj0.is_full_faithful_ess_surjective()[0]


def test_upsilon():
    cmp, src, tgt = upsilon(1, 1, 2)
    assert src.marked.underlying.cell_count(0) == 12
    assert tgt.marked.underlying.cell_count(0) == 14
    # vertex behaviour: each summand vertex is carried by precomposition
    # with the matching projection, and the comparison is over the base
    assert cmp.then(tgt.proj) == src.proj


@pytest.mark.parametrize("k,l", [(0, 1), (1, 1), (1, 0)])
def test_upsilon_is_a_map_over_the_base(monkeypatch, k, l):
    # upsilon trusts what it builds; its functors, its comparison, its
    # over-objects and the commuting projections are checked here
    functors = []

    def validated(*args):
        functors.append(CatFunctor(*args).validate())
        return functors[-1]

    monkeypatch.setattr(cocart, "CatFunctor", validated)
    cmp, src, tgt = upsilon(k, l, 2)
    assert len(functors) == 2
    cmp.validate()
    src.proj.validate()
    tgt.proj.validate()
    assert cmp.then(tgt.proj) == src.proj


def cotensor_over_base(x: OverObject, a: FinSimpSet, dim_cap=None, budget=None):
    """The over-base cotensor by a simplicial set, as the pullback of the
    marked mapping object out of the flattened tensor against the base
    diagonal; elements in dimension d are pairs (map, base simplex)."""
    budget = budget or Budget()
    base_nerve = x.proj.target

    def families(mc, d):
        (prod, p1, _, _), simplex = mc.frame(0, d), mc.frame(1, d)
        ms = hom_set(prod, x.marked.underlying, budget=budget)
        betas = hom_set(simplex, base_nerve, budget=budget) if ms else []
        for m in ms:
            for beta in betas:
                if commutes([p1, beta], [m, x.proj]):
                    yield m, beta

    cap = x.marked.underlying.dim_bound if dim_cap is None else dim_cap
    mc = MapComplex(cap, [a, None], families)
    space = mc.space

    proj = cellwise(space, base_nerve, lambda d, name: mc.element_of(name)[1](
        SimplexRef("".join(str(t) for t in range(d + 1))), d))
    flat_a = mark(a, "flat")
    marked_edges = [
        e for e in space.cell_ids(1)
        if edge_sharpens(mc.element_of(e)[0], mc.frame(0, 1)[2], flat_a, x.marked)
    ]
    obj = OverObject(MarkedSimpSet(space, marked_edges), proj)
    return obj, mc.element_of


def test_nelg_and_cotensor_build_over_objects():
    for k in (0, 1, 2):
        nelg(k, 2)[0].proj.validate()
    over, _, _ = nelg(1, 1, dim_cap=1)
    cotensor_over_base(over, standard_simplex(1), dim_cap=1)[0].proj.validate()


def over_base_maps(x: OverObject, y: OverObject):
    """The marked maps x -> y commuting with the projections, by one
    search; the fiber constraint prunes it cell by cell."""
    marking = preserves_marking(x.marked, y.marked)

    def constraint(n, name, ref):
        return marking(n, name, ref) and y.proj(ref, n) == x.proj(SimplexRef(name), n)

    return hom_set(x.marked.underlying, y.marked.underlying, constraint=constraint)


def test_hom_over_base_identity_and_point_base():
    over1, _, _ = nelg(1, 1, dim_cap=1)
    flat_part, mo = hom_over_base(over1, over1, "flat", dim_cap=1)
    maps = over_base_maps(over1, over1)
    assert flat_part.cell_count(0) == len(maps)
    assert any(m == identity_map(over1.marked.underlying) for m in maps)
    npt = nerve(terminal_category(), bound=1)
    d1 = standard_simplex(1).rebound(1)
    xo = OverObject(mark(d1, "flat"), constant_map(d1, npt, "o*"))
    yo = OverObject(mark(d1, "sharp"), constant_map(d1, npt, "o*"))
    fp, _ = hom_over_base(xo, yo, "flat", dim_cap=1)
    _, fp2, _ = hom_marked(mark(d1, "flat"), mark(d1, "sharp"), dim_cap=1)
    assert iso_check(fp, fp2).status == HOLDS


def test_cotensor_adjunction():
    npt = nerve(terminal_category(), bound=1)
    d1 = standard_simplex(1).rebound(1)
    xo = OverObject(mark(d1, "flat"), constant_map(d1, npt, "o*"))
    yo = OverObject(mark(d1, "sharp"), constant_map(d1, npt, "o*"))
    a = standard_simplex(1)
    cot, _ = cotensor_over_base(yo, a, dim_cap=1)
    prod = marked_product(mark(a, "flat"), xo.marked)
    want = SimpMap(prod[0].underlying, npt, prod[2].then(xo.proj).assignment)
    lhs = sum(
        1 for m in marked_hom_set(prod[0], yo.marked) if m.then(yo.proj) == want
    )
    assert lhs == len(over_base_maps(xo, cot))


def test_r_plus_on_the_base_itself():
    base_nerve = nerve(gamma_subcategory(1), bound=1)
    xb = OverObject(mark(base_nerve, "sharp"), identity_map(base_nerve))
    for k in range(2):
        level = r_plus_level(xb, k, 1, dim_cap=1)
        assert level.underlying.cell_count(0) == 1


def test_r_plus_of_naturally_marked_nerve_recovers_fibers():
    # materialize the monoid family over the level<=1 base, mark its
    # detected edges, and compare each right-comparison level with the
    # fiber at the homotopy-necessary tier; on this instance they agree
    # on the nose (frozen counts: 1 point at level 0, the two monoid
    # elements at level 1)
    from gammaspace.nerve import tau1

    m = z2_monoid_space(1)
    ginp = gamma_diagram_input(m, 1)
    rn = relative_nerve(ginp, 2)
    detected, verdict, marking = cocartesian_edges(rn.total, rn.proj, 2)
    assert verdict.status == HOLDS and len(detected) == 5
    for k, points in ((0, 1), (1, 2)):
        level = r_plus_level(marking, k, 1, dim_cap=2)
        fiber = rn.fiber(str(k))
        assert level.underlying.cell_count(0) == fiber.cell_count(0) == points
        cat_r, _ = tau1(level.underlying)
        cat_f, _ = tau1(fiber)
        assert iso_class_count(cat_r) == iso_class_count(cat_f)


def test_r_plus_vertices_vs_fiber_at_ho_tier():
    # the restriction along the identity vertex lands in the fiber; at the
    # homotopy-necessary tier the two fundamental categories agree for the
    # sharp base, where both are a point
    base_nerve = nerve(gamma_subcategory(1), bound=1)
    xb = OverObject(mark(base_nerve, "sharp"), identity_map(base_nerve))
    level = r_plus_level(xb, 1, 1, dim_cap=1)
    from gammaspace.nerve import tau1

    cat, _ = tau1(level.underlying)
    assert iso_class_count(cat) == 1


def test_a_spent_edge_search_decides_no_edges():
    # None, not [], so that no caller reads "no edge is coCartesian" off it
    nb = nerve(poset_category(1), bound=2)
    detected, verdict, marking = cocartesian_edges(nb, identity_map(nb), 2, budget=Budget(1))
    assert (detected, verdict.status, marking) == (None, INCONCLUSIVE, None)


def test_cross_check_is_inconclusive_when_the_edge_search_runs_out():
    # a spent edge search detects no edge; read as a refutation, every
    # invertible edge would be a mismatch
    base = poset_category(1)
    nw = nerve(walking_iso_category(), bound=2)
    inp = RelativeNerveInput(
        base, {"0": nw, "1": nw},
        {base.identities["0"]: identity_map(nw),
         base.identities["1"]: identity_map(nw),
         "le01": identity_map(nw)},
    ).validate()
    rn = relative_nerve(inp, 2)
    v = cocartesian_cross_check(rn, 2, budget=Budget(10))
    assert v.status == INCONCLUSIVE
    assert "budget of 10 exceeded" in v.witness
    full = cocartesian_cross_check(rn, 2)
    assert full.status == HOLDS and full.details["cocartesian"] == full.details["edges"] == 8


@pytest.mark.parametrize("called", [True, False])
def test_cross_check_fails_with_edge_is_invertible_patched_to_a_constant(called, monkeypatch):
    # the equivalence it checks is a theorem (HTT 3.2.5), so no valid
    # relative nerve breaks it: the negative control patches the explicit
    # side instead.  Over the arrow, with the arrow as both fibers, the
    # edges whose fiber component is le01 are the ones that are not
    # coCartesian; the others are invertible and detected
    base = poset_category(1)
    n1 = nerve(poset_category(1), bound=2)
    inp = RelativeNerveInput(
        base, {"0": n1, "1": n1},
        {base.identities["0"]: identity_map(n1),
         base.identities["1"]: identity_map(n1),
         "le01": identity_map(n1)},
    ).validate()
    rn = relative_nerve(inp, 2)
    assert cocartesian_cross_check(rn, 2).status == HOLDS
    monkeypatch.setattr(cocart, "edge_is_invertible", lambda *_args: called)
    v = cocartesian_cross_check(rn, 2)
    assert v.status == FAILS
    assert v.witness == [{"edge": e, "invertible": called, "detected": not called}
                         for e in rn.total.cell_ids(1)
                         if (cocart.edge_components(rn, e)[1] == SimplexRef("le01")) == called]


# -- transport along an operator, derived over the subsets of [n] -------------

def _chain_composites(base, n, chain):
    """The objects of an n-chain, and arrow(i, j), its composite from i to j."""
    objs = (chain[0],) if n == 0 else (base.src(chain[0]),) + tuple(base.dst(f) for f in chain)

    def arrow(i, j):
        acc = base.identities[objs[i]]
        for t in range(i, j):
            acc = base.compose(chain[t], acc)
        return acc

    return objs, arrow


def _transport_by_subsets(rn, n, key, alpha, m):
    """The transport of a relative-nerve element, derived directly: the
    chain's objects and composites from the chain, and for every J of [m]
    its image, beta and simplex, with the new key sorted at the end."""
    base, values = rn.input.base, rn.input.values
    chain, tau_items = key
    tau = {J: SimplexRef(b, w) for J, b, w in tau_items}
    objs, arrow = _chain_composites(base, n, chain)
    new_chain = ((objs[alpha[0]],) if m == 0
                 else tuple(arrow(alpha[t - 1], alpha[t]) for t in range(1, m + 1)))
    new_tau = {}
    for size in range(1, m + 2):
        for J in itertools.combinations(range(m + 1), size):
            image = tuple(sorted({alpha[j] for j in J}))
            beta = tuple(image.index(alpha[j]) for j in J)
            new_tau[J] = values[objs[image[-1]]].act(tau[image], len(image) - 1, beta)
    return new_chain, tuple(sorted((J, r.base, r.degs) for J, r in new_tau.items()))


def _golden_relative_nerves(monkeypatch):
    """Every relative nerve the cases of `test_cocart_golden.py` build."""
    built = []

    def recording(inp, dim_cap):
        built.append(relative_nerve(inp, dim_cap))
        return built[-1]

    monkeypatch.setattr(test_cocart_golden, "relative_nerve", recording)
    for case in test_cocart_golden._relative_nerve_cases().values():
        case()
    return built


# -- the elements, by skeletal extension against a search over subsets ---------

def _elements_by_subsets(input, dim_cap):
    """The element levels of the relative nerve, found over each chain by a
    backtracking search that draws one component per nonempty J of [n], by
    size: a simplex of the value at J's last object whose faces are the
    components of J's faces, carried along the chain."""
    base = input.base
    chains = {0: [(o,) for o in base.objects], 1: [(f,) for f in base.arrow_ids()]}
    for n in range(2, dim_cap + 1):
        chains[n] = [ch + (g,) for ch in chains[n - 1] for g in base.out_of(base.dst(ch[-1]))]
    levels = []
    for n in range(dim_cap + 1):
        subsets = [J for size in range(1, n + 2) for J in itertools.combinations(range(n + 1), size)]
        elems = set()
        for chain in chains[n]:
            objs, arrow = _chain_composites(base, n, chain)

            def candidates(J, tau, objs=objs, arrow=arrow):
                space, dim = input.values[objs[J[-1]]], len(J) - 1
                if dim == 0:
                    return space.refs(0)
                carried = tuple(input.arrows[arrow(I[-1], J[-1])](tau[I], dim - 1)
                                for I in (J[:t] + J[t + 1:] for t in range(dim + 1)))
                return space.face_index(dim).get(carried, ())

            for tau in backtrack(subsets, candidates):
                elems.add((chain, tuple(sorted((J, *r) for J, r in tau.items()))))
        levels.append(sorted(elems))
    return levels


def _cells(x):
    return [{c: x.faces_of(n, c) for c in x.cell_ids(n)} for n in range(x.dim_bound + 1)]


def _segments(key):
    """A key of the subset search cut to its components on the initial
    segments [0..k], as the build keys an element."""
    chain, tau_items = key
    return chain, tuple(SimplexRef(b, w) for J, b, w in tau_items if J == tuple(range(len(J))))


def _assert_built_as_by_subsets(inp, dim_cap):
    """The build hands `from_elements` the levels the subset search finds,
    cut to their initial segments, with the face and degeneracy maps of
    the transport derived directly, and gives the cells, names and keys
    that the uncut levels give under that transport; `element_of` gives
    back each uncut key."""
    handed = []

    def recording(bound, levels, face, degen):
        handed.append(([sorted(level) for level in levels], face, degen))
        return from_elements(bound, levels, face, degen)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocart, "from_elements", recording)
        rn = relative_nerve(inp, dim_cap)
    want = _elements_by_subsets(inp, dim_cap)
    [(levels, face, degen)] = handed
    assert levels == [sorted(map(_segments, level)) for level in want]
    uncut = {(n, _segments(key)): key for n, level in enumerate(want) for key in level}
    for (n, cut), key in uncut.items():
        for i in range(n + 1):
            if n > 0:
                assert face(n, cut, i) == _segments(
                    _transport_by_subsets(rn, n, key, delta_tuple(i, n), n - 1))
            if n < dim_cap:
                assert degen(n, cut, i) == _segments(
                    _transport_by_subsets(rn, n, key, sigma_tuple(i, n), n + 1))
    total, _, key_of = from_elements(
        dim_cap, want,
        lambda n, key, i: _transport_by_subsets(rn, n, key, delta_tuple(i, n), n - 1),
        lambda n, key, i: _transport_by_subsets(rn, n, key, sigma_tuple(i, n), n + 1))
    assert _cells(rn.total) == _cells(total)
    assert rn._key_of == {name: (n, _segments(key)) for name, (n, key) in key_of.items()}
    assert {name: rn.element_of(name) for name in key_of} == \
        {name: key for name, (_, key) in key_of.items()}


def test_golden_relative_nerves_are_built_as_by_subsets(monkeypatch):
    nerves = _golden_relative_nerves(monkeypatch)
    assert len(nerves) == 33
    for rn in nerves:
        _assert_built_as_by_subsets(rn.input, rn.cap)


_CORPUS_NERVES = [nerve(c, bound=b) for _, c in category_corpus() for b in (2, 3)]
diagram_values = st.one_of(st.sampled_from(_CORPUS_NERVES), quotients,
                           st.sampled_from([boundary(2), horn(2, 1)]))


@st.composite
def functorial_diagrams(draw):
    """A diagram on [1] or [2] whose values are drawn from a pool, so some
    repeat, and whose steps are identities (between one value) or constant
    maps; the long arrow of [2] is the composite."""
    k = draw(st.integers(1, 2))
    base = poset_category(k)
    pool = draw(st.lists(diagram_values, min_size=1, max_size=k + 1))
    values = {str(i): draw(st.sampled_from(pool)) for i in range(k + 1)}
    arrows = {base.identities[o]: identity_map(v) for o, v in values.items()}
    for i in range(k):
        src, dst = values[str(i)], values[str(i + 1)]
        if src is dst and draw(st.booleans()):
            arrows[f"le{i}{i + 1}"] = identity_map(src)
        else:
            arrows[f"le{i}{i + 1}"] = constant_map(src, dst, draw(st.sampled_from(dst.cell_ids(0))))
    if k == 2:
        arrows["le02"] = arrows["le01"].then(arrows["le12"])
    return RelativeNerveInput(base, values, arrows).validate()


@given(functorial_diagrams(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_relative_nerves_are_built_as_by_subsets(inp, dim_cap):
    _assert_built_as_by_subsets(inp, dim_cap)


def test_relative_nerve_leaves_its_values_act_memos_alone():
    # the mixed diagram of criterion 8: N(walking iso) twice, then N([1])
    base = poset_category(2)
    nw, n1 = nerve(walking_iso_category(), bound=2), nerve(poset_category(1), bound=2)
    inp = RelativeNerveInput(base, {"0": nw, "1": nw, "2": n1}, {
        "le00": identity_map(nw), "le11": identity_map(nw), "le22": identity_map(n1),
        "le01": identity_map(nw), "le12": constant_map(nw, n1, "o0"),
        "le02": constant_map(nw, n1, "o0")}).validate()
    memos = [dict(v._act_memo) for v in (nw, n1)]
    relative_nerve(inp, 2)
    assert [v._act_memo for v in (nw, n1)] == memos


def _triangle(*tops):
    """Vertices a, b, c, edges f: a -> b, g: b -> c, h: a -> c, and one
    2-cell with faces (g, h, f) per name in tops."""
    return FinSimpSet(2, {
        0: {"a": (), "b": (), "c": ()},
        1: {"f": (SimplexRef("b"), SimplexRef("a")), "g": (SimplexRef("c"), SimplexRef("b")),
            "h": (SimplexRef("c"), SimplexRef("a"))},
        2: {t: (SimplexRef("g"), SimplexRef("h"), SimplexRef("f")) for t in tops},
    }).validate()


def filler_over_one_of_two_bottoms():
    """X has one triangle s over t1 of Y; the Lambda^0[2] square on (f, h)
    under t2 finds s in its horn-index bucket, but p(s) = t1, not t2."""
    x, y = _triangle("s"), _triangle("t1", "t2")
    return SimpMap(x, y, {**{(n, c): SimplexRef(c) for n in (0, 1) for c in x.cell_ids(n)},
                          (2, "s"): SimplexRef("t1")}).validate()


def test_a_horn_filler_must_lie_over_the_bottom_simplex():
    p = filler_over_one_of_two_bottoms()
    x = p.source
    i = inclusion_map(horn(2, 0), standard_simplex(2))
    [(u, v)] = [(u, v) for u, v in shapes._commuting_squares(i, p, Budget())
                if u.assignment[(1, "01")] == SimplexRef("f")
                and v.assignment[(2, "012")] == SimplexRef("t2")]
    assert x.horn_index(2, 0)[(SimplexRef("h"), SimplexRef("f"))] == (SimplexRef("s"),)
    assert [filled for faces, tau, filled in shapes._horn_squares(2, 0, p, Budget())
            if faces == shapes._horn_faces(u, 2, 0) and tau == SimplexRef("t2")] == [False]
    assert shapes._find_lift(i, p, u, v, Budget()) is None
    edges, verdict, _ = cocartesian_edges(x, p, 2)
    assert edges == ["g", "h"] and verdict.status == FAILS


def test_a_base_truncated_below_the_edge_search_is_refused():
    # p is stored only up to the base's bound 1, so p of the 2-simplex of
    # Delta[2], which the Lambda^0[2] squares read, is not there
    x, y = standard_simplex(2), standard_simplex(2, bound=1)
    p = SimpMap(x, y, {(n, c): SimplexRef(c) for n in (0, 1) for c in x.cell_ids(n)}).validate()
    with pytest.raises(ValueError, match="base truncated at 1"):
        cocartesian_edges(x, p, 2)
    with pytest.raises(ValueError, match="base truncated at 1"):
        cocartesian_cross_check(SimpleNamespace(total=x, proj=p), 2)
