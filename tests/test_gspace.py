"""Level families: evaluation, convolution with its oracle, mapping spaces,
Segal checks, normalization, the two-route fibration check, semi-additivity."""

import contextlib
import itertools
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from gammaspace import gspace, jsonio, nerve, shapes
from gammaspace.catcore import FinCat, cyclic_group_category
from gammaspace.cocart import gamma_subcategory
from gammaspace.corpus import (
    glued_presentation,
    presented_corpus,
    tabulated_corpus,
    z2_monoid_space,
    max_monoid_space,
)
from gammaspace.gammaop import (
    GammaBase,
    GammaMorphism,
    elementary_maps,
    enumerate_homs,
    gamma_base,
    gamma_identity,
    smash_gamma,
)
from gammaspace.gspace import (
    _is_nerve_like,
    _mapping_space_induced,
    GammaMappingSpace,
    GammaSpaceMap,
    TabulatedGammaSpace,
    constant_gamma_space,
    coproduct_presented,
    discrete_monoid_space,
    day_assoc_comparison,
    day_coend_oracle,
    day_convolve,
    day_symmetry_comparison,
    day_unit_comparison,
    gamma_rep,
    h_map,
    internal_hom,
    mapping_space_tabulated,
    normalization_counit,
    normalize,
    precompose_smash,
    product_gamma_space,
    segal_check,
    semiadditivity_probe,
    smash_precompose_comparison,
    terminal_gamma_space,
    trivial_fibration_check,
    unital_part,
    yoneda_comparison,
)
from gammaspace.shapes import boundary, inclusion_map, standard_simplex
from gammaspace.simplicial import (
    Colimit,
    FinSimpSet,
    SimplexRef,
    SimpMap,
    constant_map,
    discrete_set,
    identity_map,
    iso_check,
    commutes,
    product,
    product_map,
)
from gammaspace.marked import gamma_flat
from gammaspace.verdicts import (
    FAILS, HOLDS, INCONCLUSIVE, Budget, BudgetExceededError, ResourceError,
)
from test_simplicial import component_ref


def test_representable_evaluation():
    g1 = gamma_rep(1)
    for n in range(5):
        v = g1.evaluate(n)
        assert v.cell_count(0) == n + 1 and v.is_discrete()
    assert gamma_rep(0).evaluate(4).cell_count(0) == 1
    tens = gamma_rep(1, standard_simplex(1))
    assert tens.evaluate(2).summary() == [6, 3]


def test_tabulation_validates():
    for name, p in presented_corpus():
        p.tabulate(3).validate(level_cap=2)


def _race(trials, fresh, read):
    """For each of `trials` fresh objects x, read(x) on four threads that a
    barrier releases together, with a switch interval of 1e-6 (restored
    afterwards): the (x, results) pairs, an exception raised standing for
    its result."""
    interval, out = sys.getswitchinterval(), []
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(trials):
            x, barrier, results = fresh(), threading.Barrier(4, timeout=30), [None] * 4

            def run(i):
                try:
                    barrier.wait()
                    results[i] = read(x)
                except Exception as e:
                    results[i] = e

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            out.append((x, results))
    finally:
        sys.setswitchinterval(interval)
    return out


def test_first_reads_from_threads_see_one_published_level_and_action():
    # four threads race on the first reads of one space; each memo keeps
    # the first object built, so every thread sees the same level 3 and
    # an action whose source is that very object
    fold = GammaMorphism(3, 1, (1, 1, 1))
    for x, seen in _race(50, lambda: z2_monoid_space(3),
                         lambda x: (x.value(3), x.action(fold))):
        assert all(level is x.value(3) and act.source is level for level, act in seen)


def _verdict_json(v):
    return jsonio.canonical_dumps(v.as_json())


@pytest.mark.parametrize("trials, fresh, read", [
    (60, lambda: z2_monoid_space(3), lambda x: x.validate(level_cap=2) and "valid"),
    (200, lambda: z2_monoid_space(3), lambda x: _verdict_json(segal_check(x, 1, 1))),
    (200, lambda: gamma_rep(1).tabulate(2), lambda x: _verdict_json(segal_check(x, 1, 1))),
], ids=["diagram-validate", "segal-z2", "segal-rep1"])
def test_checks_from_threads_agree_with_a_sequential_run(trials, fresh, read):
    # the checks that compare levels and actions by identity, run by four
    # threads on a fresh space's first reads, give the sequential answer;
    # with the memos filled by check-then-set, each failed within its trials
    expected = read(fresh())
    for _, results in _race(trials, fresh, read):
        assert results == [expected] * 4


def test_day_convolution_representables():
    conv = day_convolve(gamma_rep(2), gamma_rep(3))
    for n in range(5):
        lhs = conv.evaluate(n)
        assert lhs.cell_count(0) == (n + 1) ** 6
        assert iso_check(lhs, gamma_rep(6).evaluate(n)).status == HOLDS
    assert day_convolve(gamma_rep(1), gamma_rep(1)).evaluate(2).cell_count(0) == 3


def test_day_laws_on_corpus():
    names = dict(presented_corpus())
    for name, p in names.items():
        assert day_unit_comparison(p, range(4)).status == HOLDS, name
    assert day_symmetry_comparison(names["rep1"], names["rep2"], range(4)).status == HOLDS
    assert day_assoc_comparison(names["rep1"], names["rep1"],
                                names["rep1-interval"], range(3)).status == HOLDS


def test_coend_oracle_matches_bilinear():
    cases = [
        (gamma_rep(1), [1], gamma_rep(1), [1]),
        (gamma_rep(1), [1], gamma_rep(2), [2]),
        (gamma_rep(1, standard_simplex(1)), [1], gamma_rep(0), [0]),
        (coproduct_presented(gamma_rep(1), gamma_rep(1)), [1], gamma_rep(1), [1]),
    ]
    for p, pl, q, ql in cases:
        tp, tq = p.tabulate(6), q.tabulate(6)
        for n in range(3):
            oracle = day_coend_oracle(tp, tq, pl, ql, n)
            assert iso_check(oracle, day_convolve(p, q).evaluate(n)).status == HOLDS


# -- the evaluation as the colimit of its shapes -------------------------------


def _labeled_copies(s, labels):
    """The disjoint union of copies of s, cell c of the copy under label
    lab named "lab.c"."""
    cells = {n: {f"{lab}.{name}": tuple(SimplexRef(f"{lab}.{f.base}", f.degs)
                                        for f in s.faces_of(n, name))
                 for lab in labels for name in s.cell_ids(n)}
             for n in range(s.dim_bound + 1)}
    return FinSimpSet(s.dim_bound, cells, complete=s.complete)


def _label(h):
    return "f" + "_".join(str(v) for v in h.table)


class _Labelled:
    """The labelled-copies evaluation oracle: level n of a presented space
    is the colimit of one object per cell, the copies of its shape labelled
    by the based maps, glued along each arrow relabelled onto the copies."""

    def __init__(self, p):
        self.p = p
        self._levels = {}

    def level(self, n):
        """(Colimit, the based maps of each cell) at n."""
        if n not in self._levels:
            p = self.p
            homs = [enumerate_homs(c.level, n) for c in p.cells]
            spaces = [_labeled_copies(c.shape, [_label(h) for h in hs])
                      for c, hs in zip(p.cells, homs)]
            arrows = []
            for a in p.arrows:
                shape = p.cells[a.src].shape
                assignment = {}
                for h in homs[a.src]:
                    target = _label(a.gamma.then(h))
                    for d in range(shape.dim_bound + 1):
                        for name in shape.cell_ids(d):
                            img = a.simp(SimplexRef(name), d)
                            assignment[(d, f"{_label(h)}.{name}")] = SimplexRef(
                                f"{target}.{img.base}", img.degs)
                arrows.append((a.src, a.dst, SimpMap(spaces[a.src], spaces[a.dst], assignment)))
            self._levels[n] = (Colimit(spaces, arrows), homs)
        return self._levels[n]

    def ref(self, i, h, ref, d, n):
        return self.level(n)[0].ref_in(i, SimplexRef(f"{_label(h)}.{ref.base}", ref.degs), d)

    def action_map(self, g):
        col, homs = self.level(g.src)
        assignment = {}
        for i, hs in enumerate(homs):
            shape = self.p.cells[i].shape
            for h in hs:
                for d in range(min(shape.dim_bound, col.space.dim_bound) + 1):
                    for name in shape.cell_ids(d):
                        ref = col.ref_in(i, SimplexRef(f"{_label(h)}.{name}"), d)
                        if not ref.degs and (d, ref.base) not in assignment:
                            assignment[(d, ref.base)] = self.ref(
                                i, h.then(g), SimplexRef(name), d, g.dst)
        return SimpMap(col.space, self.level(g.dst)[0].space, assignment)


def _span_coend_oracle(x, y, x_levels, y_levels, n, dim_cap=2):
    """The span-form coend oracle: one object per (k, l) holding a labelled
    copy of X(k) x Y(l) per based map, and for each identification a
    relation object with an identity leg and an action leg."""
    objects, index = [], {}
    for k in x_levels:
        for l in y_levels:
            homs = enumerate_homs(k * l, n)
            prod = product(x.value(k), y.value(l), bound=dim_cap)
            space = _labeled_copies(prod[0], [_label(h) for h in homs])
            index[(k, l)] = {"i": len(objects), "homs": homs, "prod": prod, "space": space}
            objects.append(space)
    arrows = []

    def add_relation(src_kl, dst_kl, u, v):
        src, dst = index[src_kl], index[dst_kl]
        uv = smash_gamma(u, v)
        act = product_map(x.action(u), y.action(v), src["prod"], dst["prod"])
        shape = src["prod"][0]
        rel = _labeled_copies(shape, [_label(f) for f in dst["homs"]])
        rho1, rho2 = {}, {}
        for f in dst["homs"]:
            for d in range(min(shape.dim_bound, dim_cap) + 1):
                for name in shape.cell_ids(d):
                    rho1[(d, f"{_label(f)}.{name}")] = SimplexRef(f"{_label(uv.then(f))}.{name}")
                    img = act(SimplexRef(name), d)
                    rho2[(d, f"{_label(f)}.{name}")] = SimplexRef(
                        f"{_label(f)}.{img.base}", img.degs)
        objects.append(rel)
        arrows.append((len(objects) - 1, src["i"], SimpMap(rel, src["space"], rho1)))
        arrows.append((len(objects) - 1, dst["i"], SimpMap(rel, dst["space"], rho2)))

    for k in x_levels:
        for l in y_levels:
            for k2 in x_levels:
                for u in enumerate_homs(k, k2):
                    if u != gamma_identity(k):
                        add_relation((k, l), (k2, l), u, gamma_identity(l))
            for l2 in y_levels:
                for v in enumerate_homs(l, l2):
                    if v != gamma_identity(l):
                        add_relation((k, l), (k, l2), gamma_identity(k), v)
    return Colimit(objects, arrows, bound=dim_cap).space


def _agrees_with_labelled(p, levels):
    """The evaluation, every slot's component refs and the action of the
    elementary maps between the given levels all equal the oracle's."""
    old = _Labelled(p)
    for n in levels:
        assert (jsonio.simpset_to_json(p.evaluate(n))
                == jsonio.simpset_to_json(old.level(n)[0].space)), n
        _, slots, _ = p.level_data(n)
        for i, h in slots:
            shape = p.cells[i].shape
            for d in range(shape.dim_bound + 1):
                for name in shape.cell_ids(d):
                    ref = SimplexRef(name)
                    assert component_ref(p, i, h, ref, d, n) == old.ref(i, h, ref, d, n)
    for g in elementary_maps(4):
        if g.src in levels and g.dst in levels:
            assert p.action_map(g) == old.action_map(g), g


@pytest.mark.parametrize("name,p", presented_corpus(),
                         ids=[name for name, _ in presented_corpus()])
def test_evaluation_matches_labelled_copies(name, p):
    _agrees_with_labelled(p, range(6))


_CONVOLVED = {name: p for name, p in presented_corpus()
              if name in ("rep0", "rep1", "rep2", "rep1-interval", "rep1+rep1",
                          "rep1-two-points", "rep1-boundary2", "glued")}


@pytest.mark.parametrize("a,b", [(a, b) for a in _CONVOLVED for b in _CONVOLVED])
def test_convolution_matches_labelled_copies(a, b):
    _agrees_with_labelled(day_convolve(_CONVOLVED[a], _CONVOLVED[b]), range(4))


def test_slots_follow_hom_order_at_level_ten():
    # the labelled copies ordered slots by label string, so that f10 came
    # before f2; slots follow enumerate_homs
    g1 = gamma_rep(1)
    homs = enumerate_homs(1, 10)
    for k, h in enumerate(homs):
        assert component_ref(g1, 0, h, SimplexRef("0"), 0, 10) == SimplexRef(f"q0_{k}")
    assert _Labelled(g1).ref(0, homs[10], SimplexRef("0"), 0, 10) == SimplexRef("q0_2")


def test_glued_evaluation_builds_no_gluing_maps(monkeypatch):
    p = glued_presentation()
    built = []
    init = SimpMap.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimpMap, "__init__", counted)
    for n in range(4):
        p.evaluate(n)
    assert built == []
    # the labelled copies relabel each gluing arrow at each level
    old = _Labelled(p)
    for n in range(4):
        old.level(n)
    assert len(built) == 4 * len(p.arrows)


def test_coend_oracle_matches_span_form():
    for p, pl, q, ql in [(gamma_rep(1), [1], gamma_rep(1), [1]),
                         (gamma_rep(1), [1], gamma_rep(2), [2]),
                         (presented_corpus()[3][1], [1], gamma_rep(0), [0])]:
        tp, tq = p.tabulate(6), q.tabulate(6)
        for n in range(3):
            new = day_coend_oracle(tp, tq, pl, ql, n)
            old = _span_coend_oracle(tp, tq, pl, ql, n)
            assert new.summary() == old.summary() and iso_check(new, old).status == HOLDS
            assert jsonio.simpset_to_json(new) == jsonio.simpset_to_json(old)


def test_yoneda():
    for name, y in tabulated_corpus(3):
        for n in range(4):
            _, v = yoneda_comparison(n, y, dim_cap=1)
            assert v.status == HOLDS, (name, n)


def test_mapping_space_of_coproduct_is_product():
    y = z2_monoid_space(3)
    ms = GammaMappingSpace(coproduct_presented(gamma_rep(1), gamma_rep(1)), y)
    assert ms.space.cell_count(0) == y.value(1).cell_count(0) ** 2


def test_tensor_hom_cardinality():
    y = z2_monoid_space(4)
    for name, p in presented_corpus()[:4]:
        for n in (1, 2):
            if max((c.level for c in p.cells), default=0) * n > 4:
                continue
            conv = day_convolve(p, gamma_rep(n))
            lhs = GammaMappingSpace(conv, y, dim_cap=0).space.cell_count(0)
            hom = internal_hom(gamma_rep(n), y, level_bound=2, dim_cap=1)
            rhs = GammaMappingSpace(p, hom, dim_cap=0).space.cell_count(0)
            assert lhs == rhs, (name, n)


def test_smash_precompose_identities():
    m = z2_monoid_space(4)
    assert precompose_smash(m, 1).value(3) is m.value(3)
    const = precompose_smash(m, 0)
    for k in range(3):
        assert const.value(k) is m.value(0)
    for n in range(3):
        assert smash_precompose_comparison(m, n, level_cap=2).status == HOLDS
    # the rep-1 family: (rep1 smash-precomposed by 2)(k) has 2k+1 points
    g1 = gamma_rep(1).tabulate(6)
    pre = precompose_smash(g1, 2)
    for k in range(1, 4):
        assert pre.value(k).cell_count(0) == 2 * k + 1


def test_smash_precompose_comparison_fails_with_classifying_patched_to_a_constant(monkeypatch):
    # the comparison is an isomorphism by theorem, so the level map is
    # broken: each level goes to one vertex, which level 1's two points miss
    monkeypatch.setattr(gspace, "_classifying", lambda ms, source, target: constant_map(
        source, ms.space, ms.space.cell_ids(0)[0]))
    v = smash_precompose_comparison(z2_monoid_space(4), 1, level_cap=2)
    assert v.status == FAILS and v.witness == {"level": 1, "counts": [[2], [2]]}


def test_smash_precompose_comparison_fails_with_unnatural_at_patched_to_name_a_merge(
        monkeypatch):
    merge = GammaMorphism(2, 1, (1, 1))
    monkeypatch.setattr(GammaSpaceMap, "unnatural_at", lambda self, level_cap=None: merge)
    v = smash_precompose_comparison(z2_monoid_space(4), 1, level_cap=2)
    assert v.status == FAILS and v.witness == {"morphism": repr(merge)}


def test_levelwise_iso_verdict_fails_on_the_fold_of_two_representables():
    # rep1 u rep1 -> rep1, both summands onto the one cell: at level n it
    # sends 2(n + 1) points onto n + 1
    r = gamma_rep(1)
    fold = gspace.PresentedMap(coproduct_presented(r, r), r,
                               [(0, gamma_identity(1), identity_map(r.cells[0].shape))] * 2)
    v = gspace._levelwise_iso_verdict(fold, range(1, 3), "fold")
    assert v.status == FAILS and v.witness == {"law": "fold", "level": 1, "counts": [[4], [2]]}


def test_internal_hom_into_terminal_is_terminal():
    hom = internal_hom(gamma_rep(1), terminal_gamma_space(3), level_bound=2,
                       dim_cap=1)
    for n in range(3):
        assert hom.value(n).cell_count(0) == 1
        assert all(hom.value(n).cell_count(d) == 0 for d in range(1, 2))


def test_segal_cat_equiv_downgrades_on_non_nerve_level():
    # the boundary of the triangle is not the nerve of its fundamental
    # category (the nerve acquires composite edges), so the category tier
    # must drop to necessary conditions and say so
    x = constant_gamma_space(3, boundary(2))
    v = segal_check(x, 1, 1, tier="cat-equiv")
    assert "downgraded" in v.details
    assert v.tier == "ho-necessary"
    m = z2_monoid_space(4)
    for k in range(3):
        for l in range(3 - k):
            assert segal_check(m, k, l, tier="iso").status == HOLDS
    v = segal_check(gamma_rep(1).tabulate(3), 1, 1, tier="iso")
    assert v.status == FAILS and v.witness["source"] == [3] and v.witness["target"] == [4]
    assert segal_check(terminal_gamma_space(3), 1, 1, tier="iso").status == HOLDS
    # the discrete family is nerve-valued, so the category tier applies
    assert segal_check(m, 1, 1, tier="cat-equiv").status == HOLDS
    assert segal_check(m, 1, 1, tier="ho-necessary").status == HOLDS


def test_segal_cat_equiv_propagates_an_error_inside_the_horn_search(monkeypatch):
    # an error inside the nerve test is not a verdict that the level is not
    # a nerve: it reaches the caller instead of a downgraded `holds`
    def broken(*_args):
        raise RuntimeError("horn search broke")

    monkeypatch.setattr(shapes, "_horn_squares", broken)
    with pytest.raises(RuntimeError, match="horn search broke"):
        segal_check(group_power_space(2), 1, 1, tier="cat-equiv")


def test_segal_cat_equiv_propagates_a_spent_budget_of_the_nerve_test(monkeypatch):
    # a spent budget is not a verdict that the level is not a nerve either
    monkeypatch.setattr(gspace, "Budget", lambda: Budget(1))
    with pytest.raises(BudgetExceededError):
        segal_check(group_power_space(2), 1, 1, tier="cat-equiv")


def test_segal_cat_equiv_on_a_free_loop_level_raises_resource_error():
    # one vertex with two loops: tau1 is the free monoid on two letters,
    # which has no end, so the coset enumeration runs out of arrows
    loops = FinSimpSet(1, {0: {"v": ()}, 1: {"e0": (SimplexRef("v"), SimplexRef("v")),
                                               "e1": (SimplexRef("v"), SimplexRef("v"))}})
    with pytest.raises(ResourceError,
                       match=f"coset enumeration of tau1 exceeded {nerve.ARROW_BUDGET} arrows"):
        segal_check(constant_gamma_space(2, loops), 1, 1, tier="cat-equiv")


def test_segal_cat_equiv_computes_tau1_once_per_set(monkeypatch):
    # tau1 comes only from the induced functor, one enumeration of each
    # side: the level and the product of levels
    calls = []
    enumerate_tau1 = nerve._tau1_full

    def counted(x):
        calls.append(x)
        return enumerate_tau1(x)

    monkeypatch.setattr(nerve, "_tau1_full", counted)
    assert segal_check(z2_monoid_space(2), 1, 1, tier="cat-equiv").status == HOLDS
    assert len(calls) == 2
    assert len({id(x) for x in calls}) == 2


def group_power_space(level_bound):
    """Nerve-valued family of powers of the one-object group of order two:
    level n is the nerve of the n-fold product, a based map multiplies the
    fibers (commutativity makes that a functor)."""
    from gammaspace.catcore import FinCat
    from gammaspace.nerve import nerve as build_nerve

    def power_cat(n):
        elements = list(__import__("itertools").product([0, 1], repeat=n))
        arrows = {f"g{''.join(map(str, e))}": ("*", "*") for e in elements}
        compose = {}
        for a in elements:
            for b in elements:
                total = tuple((x + y) % 2 for x, y in zip(a, b))
                compose[(f"g{''.join(map(str, a))}", f"g{''.join(map(str, b))}")] = (
                    f"g{''.join(map(str, total))}"
                )
        return FinCat(["*"], arrows, {"*": f"g{'0' * n}"}, compose).validate()

    cats = {n: power_cat(n) for n in range(level_bound + 1)}
    values = {n: build_nerve(cats[n], bound=2) for n in range(level_bound + 1)}

    def action(f):
        from gammaspace.catcore import CatFunctor
        from gammaspace.nerve import nerve_functor_map

        src_cat, dst_cat = cats[f.src], cats[f.dst]
        on_arrows = {}
        for name in src_cat.arrow_ids():
            bits = tuple(int(ch) for ch in name[1:])
            out = tuple(
                sum(bits[i - 1] for i in range(1, f.src + 1) if f(i) == j) % 2
                for j in range(1, f.dst + 1)
            )
            on_arrows[name] = f"g{''.join(map(str, out))}"
        fun = CatFunctor(src_cat, dst_cat, {"*": "*"}, on_arrows).validate()
        return nerve_functor_map(fun, values[f.src], values[f.dst])

    return TabulatedGammaSpace(level_bound, lambda n: values[n], action)


def test_segal_cat_equiv_tier_on_nerve_valued_family():
    x = group_power_space(2)
    x.validate(level_cap=2)
    for k in range(2):
        for l in range(2):
            if k + l <= 2:
                v = segal_check(x, k, l, tier="cat-equiv")
                assert v.status == HOLDS and "downgraded" not in v.details, (k, l)
                assert segal_check(x, k, l, tier="iso").status == HOLDS
                assert segal_check(x, k, l, tier="ho-necessary").status == HOLDS


def four_component_groupoid():
    """Four components of two objects, each hom-set a copy of (Z/2)^2: 64
    arrows, 56 of them not identities."""
    group = list(itertools.product(range(2), repeat=2))

    def arrow(c, i, j, g):
        return f"a{c}{i}{j}{g[0]}{g[1]}"

    arrows, compose = {}, {}
    for c, i, j, g in itertools.product(range(4), range(2), range(2), group):
        arrows[arrow(c, i, j, g)] = (f"{c}{i}", f"{c}{j}")
        for k, h in itertools.product(range(2), group):
            total = tuple((x + y) % 2 for x, y in zip(g, h))
            compose[(arrow(c, j, k, h), arrow(c, i, j, g))] = arrow(c, i, k, total)
    identities = {f"{c}{i}": arrow(c, i, i, (0, 0)) for c in range(4) for i in range(2)}
    return FinCat(list(identities), arrows, identities, compose)


def test_a_64_arrow_groupoid_nerve_is_read_as_a_nerve():
    n = nerve.nerve(four_component_groupoid(), bound=2)
    assert n.summary() == [8, 56, 392]
    assert _is_nerve_like(n)


def test_an_idempotent_loop_with_no_3_simplex_is_not_read_as_a_nerve():
    # tau1 is the monoid {1, e} with e o e = e, whose nerve has the
    # nondegenerate 3-simplex (e, e, e); the complete set has none
    v, e = SimplexRef("v"), SimplexRef("e")
    assert not _is_nerve_like(FinSimpSet(2, {0: {"v": ()}, 1: {"e": (v, v)},
                                             2: {"c": (e, e, e)}}))


def test_a_set_truncated_below_dimension_2_is_refused_without_tau1(monkeypatch):
    # the bound-1 nerve of Z/2 stores no 2-simplex, so its tau1 would be the
    # free monoid on the loop: the nerve test refuses it without tau1
    def broken(_x):
        raise AssertionError("tau1 computed")

    monkeypatch.setattr(nerve, "_tau1_full", broken)
    assert not _is_nerve_like(nerve.nerve(cyclic_group_category(2), bound=1))


def small_sets(vertices, edges, cells):
    """Every complete 2-dimensional set with these numbers of vertices,
    nondegenerate edges and nondegenerate 2-cells, the edges and the cells
    taken as multisets of face tuples (faces degenerate or not)."""
    names = [f"v{i}" for i in range(vertices)]
    ends = list(itertools.product(map(SimplexRef, names), repeat=2))
    for edge_faces in itertools.combinations_with_replacement(ends, edges):
        cells1 = {f"e{i}": faces for i, faces in enumerate(edge_faces)}
        sides = [SimplexRef(e) for e in cells1] + [SimplexRef(v, (0,)) for v in names]
        triples = list(itertools.product(sides, repeat=3))
        for cell_faces in itertools.combinations_with_replacement(triples, cells):
            cells2 = {f"t{i}": faces for i, faces in enumerate(cell_faces)}
            try:
                yield FinSimpSet(2, {0: dict.fromkeys(names, ()), 1: cells1,
                                     2: cells2}).validate()
            except ValueError:  # the faces break a simplicial identity
                pass


def test_the_nerve_test_agrees_with_the_nerve_of_tau1_on_every_small_set(monkeypatch):
    # a nerve here has at most four arrows, so a tau1 that defines more than
    # 20 is infinite or not a nerve's
    monkeypatch.setattr(nerve, "ARROW_BUDGET", 20)

    def is_nerve(s):
        try:
            cat, _ = nerve.tau1(s)
        except ResourceError:
            return False
        return iso_check(s.rebound(3), nerve.nerve(cat, bound=3)).status == HOLDS

    scope = [s for v in (1, 2) for e in range(3) for t in range(2)
             for s in small_sets(v, e, t)]
    nerves = [is_nerve(s) for s in scope]
    assert len(scope) == 230 and sum(nerves) == 6
    assert [_is_nerve_like(s) for s in scope] == nerves


@pytest.mark.parametrize("name,x", tabulated_corpus(2),
                         ids=[name for name, _ in tabulated_corpus(2)])
def test_a_normalized_level_is_read_as_a_nerve(name, x):
    # a normalized level is pointed, so it is compared with the nerve of its
    # tau1 pointed at the basepoint's object: the category tier applies to
    # the normalized family as to the family itself (normalizing collapses
    # the constant interval to a point, so only rep1 fails)
    v = segal_check(normalize(x)[0], 1, 1, tier="cat-equiv")
    assert v.tier == "cat-equiv" and "downgraded" not in v.details
    assert v.status == (FAILS if name == "rep1" else HOLDS)


def test_segal_transport_to_smash_precomposition():
    m = z2_monoid_space(6)
    pre = precompose_smash(m, 2)
    for k in range(2):
        for l in range(2):
            if (k + l) <= pre.level_bound:
                assert segal_check(pre, k, l, tier="iso").status == HOLDS


def test_homotopy_category():
    # the homotopy category of a family is tau1 of its level 1
    from gammaspace.catcore import poset_category
    from gammaspace.nerve import nerve, tau1

    m = z2_monoid_space(2)
    hc, _ = tau1(m.value(1))
    assert len(hc.objects) == 2 and len(hc.arrows) == 2

    x = constant_gamma_space(2, nerve(poset_category(2), bound=2))
    hx, _ = tau1(x.value(1))
    assert iso_check(nerve(hx, bound=2), nerve(poset_category(2), bound=2)).status == HOLDS


def test_unital_part_of_tensored_representable():
    # the representable at 1 tensored with two points has two points at
    # level 0, so its unital part is constant at those two points
    from gammaspace.corpus import presented_corpus

    p = dict(presented_corpus())["rep1-two-points"]
    tab = p.tabulate(2)
    x0, iota = unital_part(tab)
    for n in range(3):
        assert x0.value(n).cell_count(0) == 2
    assert iota.is_levelwise_mono(level_cap=2)


def test_unital_part_and_normalize():
    two = discrete_set(["a", "b"])
    c2 = constant_gamma_space(3, two)
    x0, iota = unital_part(c2)
    iota.validate(level_cap=2)
    assert iota.is_levelwise_mono(level_cap=3)
    # constant families have identity inclusions
    assert all(iota.levels[n].is_iso() for n in range(4))
    nor, eta = normalize(c2)
    assert nor.is_normalized()
    eta.validate(level_cap=2)
    for n in range(4):
        assert nor.value(n).cell_count(0) == 1
    # the unit is an isomorphism exactly when level 0 is a point: the
    # two-point constant family collapses, so its unit is not level-wise iso
    assert not eta.is_levelwise_iso(level_cap=3)
    # already-normalized input: the unit is an isomorphism
    m = z2_monoid_space(3)
    nor_m, eta_m = normalize(m)
    assert eta_m.is_levelwise_iso(level_cap=3)
    # idempotent up to isomorphism
    again, _ = normalize(nor_m)
    for n in range(4):
        assert iso_check(again.value(n), nor_m.value(n)).status == HOLDS


def test_normalization_counit_iso():
    m = z2_monoid_space(3)
    nor, _ = normalize(m)
    eps = normalization_counit(nor)
    eps.validate(level_cap=2)
    assert eps.is_levelwise_iso(level_cap=3)
    with pytest.raises(ValueError):
        normalization_counit(constant_gamma_space(2, discrete_set(["a", "b"])))


def test_normalized_mapping_space_forgets():
    nor_x, _ = normalize(z2_monoid_space(2))
    nor_y, _ = normalize(max_monoid_space(2))
    pointed, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=True)
    plain, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=False)
    assert iso_check(pointed, plain).status == HOLDS


def test_trivial_fibration_two_routes():
    m = z2_monoid_space(2)
    ident = GammaSpaceMap(m, m, {n: identity_map(m.value(n)) for n in range(3)})
    v = trivial_fibration_check(ident, level_cap=1, dim_cap=1)
    assert v.status == HOLDS and v.details["routes"] == "direct and adjoint agree"
    one = discrete_set(["a"])
    two = discrete_set(["a", "b"])
    inc = GammaSpaceMap(
        constant_gamma_space(2, one), constant_gamma_space(2, two),
        {n: SimpMap(one, two, {(0, "a"): SimplexRef("a")}) for n in range(3)},
    )
    v2 = trivial_fibration_check(inc, level_cap=1, dim_cap=1)
    assert v2.status == FAILS and v2.witness["dim"] == 0


def test_route_check_raises_with_mapping_space_induced_patched_to_an_inclusion(monkeypatch):
    # the routes agree by an adjunction, so no valid map splits them: the
    # negative control patches the adjoint route's induced map to
    # d[1] -> D[1], which fails lifting against d[1] -> D[1] while the
    # identity's direct route has every lift
    m = z2_monoid_space(2)
    ident = GammaSpaceMap(m, m, {n: identity_map(m.value(n)) for n in range(3)})
    monkeypatch.setattr(gspace, "_mapping_space_induced", lambda *_args: inclusion_map(
        boundary(1), standard_simplex(1)))
    with pytest.raises(AssertionError, match="routes disagree at level 0, dim 1$"):
        trivial_fibration_check(ident, level_cap=1, dim_cap=1)


def test_trivial_fibration_under_every_budget_is_never_a_false_verdict():
    # a genuine `holds` on the identity tries 74 candidates; under a smaller
    # budget the routes run out at different points, which is no refutation
    # and no disagreement between them
    m = z2_monoid_space(2)
    ident = GammaSpaceMap(m, m, {n: identity_map(m.value(n)) for n in range(3)})
    statuses = set()
    for limit in range(1, 76):
        budget = Budget(limit)
        v = trivial_fibration_check(ident, level_cap=1, dim_cap=1, budget=budget)
        assert v.status in (HOLDS, INCONCLUSIVE), limit
        assert (v.status == HOLDS) == (budget.used <= limit), limit
        statuses.add(v.status)
    assert statuses == {HOLDS, INCONCLUSIVE}


def test_h_map_counts():
    h = h_map(1, 1)
    m1 = h.evaluate(1)
    m1.validate()
    assert m1.source.cell_count(0) == 4 and m1.target.cell_count(0) == 4
    m2 = h.evaluate(2)
    assert m2.source.cell_count(0) == 6 and m2.target.cell_count(0) == 9
    h0 = h_map(0, 2)
    h0.evaluate(2).validate()


def test_semiadditivity_probe():
    rep = semiadditivity_probe(gamma_rep(1), 3)
    assert rep["all_iso"] and all(rep["coproduct_identification"])
    for n in range(4):
        assert rep["levels"][n]["convolved_points"][0] == (n + 1) ** 2
    assert semiadditivity_probe(gamma_rep(0), 2)["all_iso"]
    # outcome recorded for the two-summand family, not presumed: the
    # convolved side has half the points of the self-product (8 vs 16 at
    # level 1), so the strict comparison fails there
    rep2 = semiadditivity_probe(coproduct_presented(gamma_rep(1), gamma_rep(1)), 2)
    assert not rep2["all_iso"]
    assert rep2["levels"][1]["convolved_points"] == [8]
    assert rep2["levels"][1]["product_points"] == [16]


def test_product_family():
    m = z2_monoid_space(2)
    prod = product_gamma_space(m, m)
    prod.validate(level_cap=2)
    assert prod.value(2).cell_count(0) == 16


# -- maps induced on mapping spaces -------------------------------------------


@pytest.mark.parametrize("p", [p for _, p in presented_corpus()[:4]],
                         ids=[name for name, _ in presented_corpus()[:4]])
def test_internal_hom_action_is_functorial(p):
    # validate() checks each action map (an induced postcomposition) as a
    # simplicial map, identities, and composition over levels <= 2
    internal_hom(p, z2_monoid_space(4), level_bound=2, dim_cap=1).validate(level_cap=2)


def test_postcomposition_with_identity_is_identity():
    m = z2_monoid_space(2)
    ident = GammaSpaceMap(m, m, {n: identity_map(m.value(n)) for n in range(3)})
    for n in range(3):
        induced = _mapping_space_induced(ident, n, Budget())
        induced.validate()
        assert induced.is_iso() and induced == identity_map(induced.source)


def test_postcomposition_with_normalization_unit_validates():
    _, eta = normalize(z2_monoid_space(2))
    for n in range(3):
        induced = _mapping_space_induced(eta, n, Budget())
        induced.validate()
        assert induced.source.summary() == induced.target.summary()


def test_yoneda_comparisons_validate():
    for _, y in tabulated_corpus(2):
        for n in range(3):
            cmp, _ = yoneda_comparison(n, y, dim_cap=1)
            cmp.validate()


# -- functoriality against the elementary maps --------------------------------


@pytest.mark.parametrize("cap", range(5))
def test_elementary_maps_generate_every_based_map(cap):
    gens = elementary_maps(cap)
    seen = {gamma_identity(n) for n in range(cap + 1)}
    frontier = list(seen)
    while frontier:
        frontier = [h.then(g) for h in frontier for g in gens if g.src == h.dst]
        frontier = [c for c in dict.fromkeys(frontier) if c not in seen]
        seen.update(frontier)
    assert seen == set(GammaBase(cap).arrow_ids())


def _all_pairs_functorial(x, cap):
    """The all-pairs oracle: identities, then every composable pair of
    based maps between levels <= cap."""
    every = GammaBase(cap).arrow_ids()
    if any(x.action(gamma_identity(n)) != identity_map(x.value(n))
           for n in range(cap + 1)):
        return False
    return all(x.action(f.then(g)) == x.action(f).then(x.action(g))
               for f in every for g in every if g.src == f.dst)


def _validates(x, cap):
    try:
        x.validate(level_cap=cap)
    except ValueError:
        return False
    return True


def _times(table, a, b):
    """a * b in a unital operation on {0, 1, 2}: 0 is the unit, and
    `table` gives the products of nonzero elements."""
    return table[(a, b)] if a and b else a + b


def test_validate_reaches_the_level_bound_by_default():
    # associativity first shows at level 3: checked to level 2, every
    # commutative unital operation on {0, 1, 2} passes, associative or not
    tables = []
    for p11, p12, p22 in itertools.product(range(3), repeat=3):
        tables.append({(1, 1): p11, (1, 2): p12, (2, 1): p12, (2, 2): p22})

    def space(table):
        return discrete_monoid_space(range(3), lambda a, b: _times(table, a, b), 0, 3)

    def associative(table):
        return all(_times(table, _times(table, a, b), c) == _times(table, a, _times(table, b, c))
                   for a, b, c in itertools.product(range(3), repeat=3))

    lopsided = space({(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 1})
    assert _validates(lopsided, 2) and not _validates(lopsided, None)
    with pytest.raises(ValueError, match="not functorial"):
        gamma_flat(lopsided).validate()
    assert all(_validates(space(t), 2) for t in tables)
    monoids = [t for t in tables if associative(t)]
    assert len(tables) == 27 and len(monoids) == 9
    assert [t for t in tables if _validates(space(t), None)] == monoids


def _per_tuple_monoid_space(elements, op, unit, level_bound):
    """discrete_monoid_space as it was first written: each action re-scans
    every (i, j) for each tuple and names each tuple afresh."""
    elements = list(elements)

    def name(tup):
        return "t" + "_".join(str(v) for v in tup)

    def value(n):
        return discrete_set([name(t) for t in itertools.product(elements, repeat=n)])

    def action(f):
        assignment = {}
        for tup in itertools.product(elements, repeat=f.src):
            out = []
            for j in range(1, f.dst + 1):
                acc = unit
                for i in range(1, f.src + 1):
                    if f(i) == j:
                        acc = op(acc, tup[i - 1])
                out.append(acc)
            assignment[(0, name(tup))] = SimplexRef(name(tuple(out)))
        return SimpMap(space.value(f.src), space.value(f.dst), assignment)

    space = TabulatedGammaSpace(level_bound, value, action)
    return space


def _same_tabulation(elements, op, unit, level):
    fast = discrete_monoid_space(elements, op, unit, level)
    slow = _per_tuple_monoid_space(elements, op, unit, level)
    for n in range(level + 1):
        assert fast.value(n).cell_ids(0) == slow.value(n).cell_ids(0)
    for f in GammaBase(level).arrow_ids():
        # equal assignments, inserted in the same order
        assert list(fast.action(f).assignment.items()) == list(slow.action(f).assignment.items())


@pytest.mark.parametrize("elements,op", [
    ([0, 1], lambda a, b: (a + b) % 2),
    ([0, 1], max),
    ([1, 0], max),  # product order is not name order
    ([0, 1], lambda a, b: a + b),  # not closed: 1 + 1 names no vertex, as before
], ids=["z2", "max", "max-listed-backwards", "sum-not-closed"])
def test_monoid_actions_match_the_per_tuple_oracle(elements, op):
    _same_tabulation(elements, op, 0, 4)


def test_monoid_actions_match_the_per_tuple_oracle_on_every_unital_table():
    for p11, p12, p22 in itertools.product(range(3), repeat=3):
        table = {(1, 1): p11, (1, 2): p12, (2, 1): p12, (2, 2): p22}
        _same_tabulation(range(3), lambda a, b: _times(table, a, b), 0, 3)


def test_monoid_space_names_two_tuples_of_one_plain_join_apart():
    # ("x_y", "e") and ("x", "y_e") are both "tx_y_e" under a plain join,
    # which gave level 2 15 points, not 16
    x = discrete_monoid_space(["e", "x_y", "x", "y_e"], lambda a, b: b if a == "e" else a, "e", 2)
    assert len(x.value(1).cell_ids(0)) == 4
    assert len(x.value(2).cell_ids(0)) == 16
    assert {r"tx\_y_e", r"tx_y\_e"} <= set(x.value(2).cell_ids(0))


def test_monoid_space_names_tuples_of_elements_that_hold_the_separator_apart():
    # Z/6 on names that hold "_" and "\\", where a plain join merges
    # ("x_", "y") with ("x", "_y")
    labels = ["e", "x_", "y", "x", "_y", "x\\"]
    assert len({"_".join(t) for t in itertools.product(labels, repeat=2)}) < 6 ** 2
    x = discrete_monoid_space(
        labels, lambda a, b: labels[(labels.index(a) + labels.index(b)) % 6], "e", 3)
    x.validate(level_cap=3)
    assert [x.value(n).cell_count(0) for n in range(4)] == [6 ** n for n in range(4)]


def _with_vertex_moved(x, f, vertex, image):
    """x, except that f sends the vertex `vertex` to `image`."""
    m = x.action(f)
    bad = SimpMap(m.source, m.target, {**m.assignment, (0, vertex): SimplexRef(image)})
    return TabulatedGammaSpace(x.level_bound, x.value,
                               lambda g: bad if g == f else x.action(g))


@pytest.mark.parametrize("name,x", tabulated_corpus(3),
                         ids=[name for name, _ in tabulated_corpus(3)])
def test_elementary_check_accepts_the_corpus(name, x):
    assert _all_pairs_functorial(x, 3) and _validates(x, 3)


def test_elementary_check_refuses_a_swap_acting_as_identity():
    x = z2_monoid_space(3)
    swap = GammaMorphism(3, 3, (2, 1, 3))
    bad = TabulatedGammaSpace(3, x.value, lambda g: x.action(gamma_identity(3)) if g == swap
                              else x.action(g))
    assert _validates(bad, 2) and not _validates(bad, 3)
    assert not _all_pairs_functorial(bad, 3)


def _all_pairs_refusal(x):
    """The all-composable-pairs law check, the oracle of the check on the
    elementary maps: x's levels <= 3 as a diagram over the dense
    `gamma_subcategory(3)`, checked for each map's ends, each identity and
    then every composable pair of its table.  The first refusal, or None."""
    base = _DENSE_3
    values = {str(n): x.value(n) for n in range(4)}
    arrows = {x.base.arrow_name(f): x.action(f) for f in GammaBase(3).arrow_ids()}
    for f, (a, b) in base.arrows.items():
        if arrows[f].source is not values[a] or arrows[f].target is not values[b]:
            return f"the ends of {f}"
    for a in base.objects:
        if arrows[base.identities[a]] != identity_map(values[a]):
            return f"the identity of {a}"
    for (g, f), gf in base.compose_table.items():
        if not commutes([arrows[gf]], [arrows[f], arrows[g]]):
            return f"{g} o {f}"
    return None


def _same_ends_swaps(x, cap):
    """(f, g, x with g's action at f) for the last based map f of each
    hom-set between levels 1..cap and the first and the last g beside it
    whose action differs from f's."""
    for n in range(1, cap + 1):
        for m in range(1, cap + 1):
            homs = enumerate_homs(n, m)
            f = homs[-1]
            others = [g for g in homs if x.action(g) != x.action(f)]
            for g in dict.fromkeys(others[:1] + others[-1:]):
                yield f, g, TabulatedGammaSpace(
                    cap, x.value, lambda h, f=f, g=g: x.action(g if h == f else h))


_CORPUS_3 = dict(tabulated_corpus(3))
_DENSE_3 = gamma_subcategory(3)


@pytest.mark.parametrize("name", sorted(_CORPUS_3))
def test_the_check_on_the_elementary_maps_refuses_what_the_all_pairs_check_refuses(name):
    x = _CORPUS_3[name]
    assert _all_pairs_refusal(x) is None and x.check_laws() is x
    refused = 0
    for f, g, bad in _same_ends_swaps(x, 3):
        oracle = _all_pairs_refusal(bad)
        with pytest.raises(ValueError) if oracle else contextlib.nullcontext():
            bad.check_laws()
        refused += oracle is not None
    # the constant families act by identities only, so nothing swaps there;
    # each swap elsewhere breaks a law
    assert refused == (0 if name in ("terminal", "constant-interval") else 17)


_MONOIDS = {"z2": z2_monoid_space(3), "max": max_monoid_space(3)}


@given(st.sampled_from(sorted(_MONOIDS)), st.sampled_from(GammaBase(3).arrow_ids()), st.data())
@settings(max_examples=40, deadline=None)
def test_elementary_check_matches_all_pairs_on_corruptions(name, f, data):
    x = _MONOIDS[name]
    vertex = data.draw(st.sampled_from(x.value(f.src).cell_ids(0)))
    image = data.draw(st.sampled_from(x.value(f.dst).cell_ids(0)))
    bad = _with_vertex_moved(x, f, vertex, image)
    assert _validates(bad, 3) == _all_pairs_functorial(bad, 3)


def test_complete_level_three_load_composes_little(monkeypatch):
    blob = jsonio.tabulated_to_json(z2_monoid_space(3))
    calls = {"laws": 0, "elsewhere": 0}
    phase = ["elsewhere"]
    then, check_laws = GammaMorphism.then, TabulatedGammaSpace.check_laws

    def counted_then(self, other):
        calls[phase[0]] += 1
        return then(self, other)

    def phased_check_laws(self, *args, **kwargs):
        phase[0] = "laws"
        try:
            return check_laws(self, *args, **kwargs)
        finally:
            phase[0] = "elsewhere"

    monkeypatch.setattr(GammaMorphism, "then", counted_then)
    monkeypatch.setattr(TabulatedGammaSpace, "check_laws", phased_check_laws)
    jsonio.tabulated_from_json(blob)
    # the file lists every based map, so nothing is closed; 534 is the
    # number of pairs (f, elementary g) at level 3
    assert calls["elsewhere"] == 0
    assert 0 < calls["laws"] <= 534


# -- naturality against the elementary maps -----------------------------------


def _natural_on_all_maps(phi, cap):
    """The all-maps oracle: the naturality square of every based map between
    levels <= cap commutes."""
    return all(phi.level(f.src).then(phi.target.action(f))
               == phi.source.action(f).then(phi.level(f.dst))
               for f in GammaBase(cap).arrow_ids())


def _structure_maps():
    """iota, eta and the normalization counit of each corpus space."""
    out = {}
    for name, x in tabulated_corpus(3):
        nor, eta = normalize(x)
        out[f"{name}:iota"] = unital_part(x)[1]
        out[f"{name}:eta"] = eta
        out[f"{name}:counit"] = normalization_counit(nor)
    return out


_STRUCTURE_MAPS = _structure_maps()


@pytest.mark.parametrize("key", sorted(_STRUCTURE_MAPS))
def test_elementary_naturality_accepts_the_structure_maps(key):
    phi = _STRUCTURE_MAPS[key]
    assert phi.unnatural_at(3) is None and _natural_on_all_maps(phi, 3)


@given(st.sampled_from(sorted(_STRUCTURE_MAPS)), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_elementary_naturality_matches_all_maps_on_corruptions(key, n, data):
    phi = _STRUCTURE_MAPS[key]
    m = phi.level(n)
    vertex = data.draw(st.sampled_from(m.source.cell_ids(0)))
    image = data.draw(st.sampled_from(m.target.cell_ids(0)))
    bad = GammaSpaceMap(phi.source, phi.target, {**phi.levels, n: SimpMap(
        m.source, m.target, {**m.assignment, (0, vertex): SimplexRef(image)})})
    assert (bad.unnatural_at(3) is None) == _natural_on_all_maps(bad, 3)


def test_validate_names_the_unnatural_elementary_map():
    # eta of Z/2 with the two vertices of level 1 swapped: the collapse
    # 1+ -> 0+ still commutes, the inclusion 0+ -> 1+ does not
    _, eta = normalize(z2_monoid_space(2))
    m = eta.level(1)
    swap = {(0, "t0"): m(SimplexRef("t1"), 0), (0, "t1"): m(SimplexRef("t0"), 0)}
    bad = GammaSpaceMap(eta.source, eta.target,
                        {**eta.levels, 1: SimpMap(m.source, m.target, swap)})
    f = bad.unnatural_at()
    assert f == GammaMorphism(0, 1, ())
    with pytest.raises(ValueError, match="naturality fails"):
        bad.validate()


def _tabulated_complex(x, y, pointed):
    space, element_of = mapping_space_tabulated(x, y, 2, 1, pointed=pointed)
    return jsonio.simpset_to_json(space), {
        name: [m.key() for m in element_of(name)]
        for d in range(space.dim_bound + 1) for name in space.cell_ids(d)}


_RAW = dict(tabulated_corpus(2))
_NORMALIZED = {name: normalize(x)[0] for name, x in _RAW.items()}
# (source, target, pointed): the normalized pairs both ways, and plain
# pairs of unnormalized spaces with more than one natural family
_TABULATED_PAIRS = {
    **{f"nor-{s}-{d}-{'pointed' if pointed else 'plain'}": (_NORMALIZED[s], _NORMALIZED[d], pointed)
       for s, d in [("monoid-z2", "monoid-max"), ("monoid-max", "monoid-z2"),
                    ("rep1", "monoid-z2"), ("constant-interval", "rep1")]
       for pointed in (True, False)},
    **{f"{s}-{d}": (_RAW[s], _RAW[d], False)
       for s, d in [("monoid-z2", "monoid-z2"), ("monoid-max", "monoid-max"),
                    ("rep1", "monoid-max"), ("constant-interval", "constant-interval")]},
}


@pytest.mark.parametrize("key", sorted(_TABULATED_PAIRS))
def test_mapping_space_tabulated_matches_all_maps_links(monkeypatch, key):
    x, y, pointed = _TABULATED_PAIRS[key]
    fast = _tabulated_complex(x, y, pointed)
    monkeypatch.setattr(gspace, "elementary_maps", lambda cap: GammaBase(cap).arrow_ids())
    assert _tabulated_complex(x, y, pointed) == fast
    assert fast[1]


def test_families_over_one_level_bound_share_one_base():
    base = gamma_base(3)
    assert z2_monoid_space(3).base is base
    assert gamma_rep(1).tabulate(3).base is base
    assert z2_monoid_space(4).base.upto(3) is base
    assert GammaBase(5).upto(3) is base
