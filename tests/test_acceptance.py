"""Acceptance gate: one test per criterion, each exact (tolerance zero) and
bounded by its stated wall-clock ceiling.  Every test prints a single
pass/fail line; run with -s to see them live."""

import random
import time

from gammaspace.catcore import (
    functor_category,
    max_subgroupoid,
    poset_category,
    walking_iso_category,
)
from gammaspace.cocart import (
    RelativeNerveInput,
    cocartesian_cross_check,
    relative_nerve,
    sm_qcat_check,
)
from gammaspace.corpus import (
    category_corpus,
    pointed_corpus,
    presented_corpus,
    tabulated_corpus,
    z2_monoid_space,
)
from gammaspace.gammaop import enumerate_homs, factor_inert_active
from gammaspace.gspace import (
    GammaMappingSpace,
    day_assoc_comparison,
    day_coend_oracle,
    day_convolve,
    day_symmetry_comparison,
    day_unit_comparison,
    gamma_rep,
    internal_hom,
    mapping_space_tabulated,
    normalization_counit,
    normalize,
    segal_check,
    semiadditivity_probe,
    smash_precompose_comparison,
    unital_part,
    yoneda_comparison,
)
from gammaspace.homotopy import j_qcat
from gammaspace.nerve import nerve
from gammaspace.shapes import (
    Exponential,
    boundary,
    horn,
    inclusion_map,
    pointed_point,
    pushout_product,
    simplex_inclusion,
    smash,
    sphere_zero,
    standard_point,
    standard_simplex,
)
from gammaspace.simplicial import (
    SimplexRef,
    SimpMap,
    constant_map,
    identity_map,
    iso_check,
)
from gammaspace.verdicts import FAILS, HOLDS


class ceiling:
    """Asserts the block finished inside its wall-clock budget and prints
    the criterion's pass line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.name}] {status} in {elapsed:.2f}s (ceiling {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its ceiling: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_factorization_exhaustive():
    with ceiling("criterion-1 inert/active factorization", 5):
        total = 0
        for n in range(5):
            for m in range(5):
                buckets = {}
                for s in range(n + 1):
                    for it in enumerate_homs(n, s):
                        if not it.is_inert_ordered():
                            continue
                        for at in enumerate_homs(s, m):
                            if not at.is_active():
                                continue
                            buckets.setdefault(it.then(at).key(), []).append((it, at))
                for f in enumerate_homs(n, m):
                    pairs = buckets.get(f.key(), [])
                    assert len(pairs) == 1, f
                    assert pairs[0] == factor_inert_active(f)[:2]
                    total += 1
        assert total == sum((m + 1) ** n for n in range(5) for m in range(5))


def test_criterion_2_day_convolution_monoid_laws():
    with ceiling("criterion-2 convolution monoid laws + coend oracle", 60):
        names = dict(presented_corpus())
        assert len(names) >= 10
        for name, p in names.items():
            assert day_unit_comparison(p, range(7)).status == HOLDS, name
        sym_pairs = [("rep1", "rep2"), ("rep2", "rep2"),
                     ("rep1-interval", "rep2"), ("rep1+rep1", "rep1"),
                     ("rep1-two-points", "rep1-interval")]
        for a, b in sym_pairs:
            assert day_symmetry_comparison(names[a], names[b], range(7)).status == HOLDS, (a, b)
        assoc_triples = [("rep1", "rep1", "rep2"), ("rep1", "rep2", "rep2"),
                         ("rep0", "rep2", "rep1"), ("rep1", "rep1-interval", "rep1"),
                         ("rep1+rep1", "rep1", "rep1")]
        for a, b, c in assoc_triples:
            assert day_assoc_comparison(names[a], names[b], names[c], range(7)).status == HOLDS
        oracle_cases = [
            (names["rep1"], [1], names["rep1"], [1]),
            (names["rep1"], [1], names["rep2"], [2]),
            (names["rep1-interval"], [1], names["rep0"], [0]),
            (names["rep1+rep1"], [1], names["rep1"], [1]),
        ]
        for p, pl, q, ql in oracle_cases:
            tp, tq = p.tabulate(6), q.tabulate(6)
            for level in range(3):
                oracle = day_coend_oracle(tp, tq, pl, ql, level)
                assert iso_check(oracle, day_convolve(p, q).evaluate(level)).status == HOLDS


def test_criterion_3_yoneda_and_tensor_hom():
    with ceiling("criterion-3 Yoneda + tensor-hom cardinalities", 30):
        for name, y in tabulated_corpus(6):
            for n in range(7):
                _, v = yoneda_comparison(n, y, dim_cap=1)
                assert v.status == HOLDS, (name, n)
        y = z2_monoid_space(6)
        for name, p in presented_corpus()[:4]:
            for n in (1, 2, 3):
                if max((c.level for c in p.cells), default=0) * n > 6:
                    continue
                conv = day_convolve(p, gamma_rep(n))
                lhs = GammaMappingSpace(conv, y, dim_cap=0).space.cell_count(0)
                hom = internal_hom(gamma_rep(n), y,
                                   level_bound=max(c.level for c in p.cells) if p.cells else 0,
                                   dim_cap=1)
                rhs = GammaMappingSpace(p, hom, dim_cap=0).space.cell_count(0)
                assert lhs == rhs, (name, n)


def test_criterion_4_internal_hom_is_smash_precomposition():
    with ceiling("criterion-4 representable hom = smash precomposition", 30):
        for name, x in tabulated_corpus(6):
            for n in range(4):
                cap = 2 if n <= 1 else 6 // n
                v = smash_precompose_comparison(x, n, level_cap=cap)
                assert v.status == HOLDS, (name, n, v.witness)


def test_criterion_5_segal_characterization():
    with ceiling("criterion-5 Segal characterization", 10):
        m = z2_monoid_space(6)
        for k in range(7):
            for l in range(7 - k):
                assert segal_check(m, k, l, tier="iso").status == HOLDS, (k, l)
        v = segal_check(gamma_rep(1).tabulate(2), 1, 1, tier="iso")
        assert v.status == FAILS
        assert v.witness["source"] == [3] and v.witness["target"] == [4]


def test_criterion_6_normalization_adjunction():
    with ceiling("criterion-6 normalization adjunction", 20):
        for name, x in tabulated_corpus(3):
            x0, iota = unital_part(x)
            assert iota.is_levelwise_mono(level_cap=3), name
            nor, eta = normalize(x)
            assert nor.is_normalized(), name
            eta.validate(level_cap=1)
            eps = normalization_counit(nor)
            assert eps.is_levelwise_iso(level_cap=3), name
        from gammaspace.corpus import max_monoid_space

        nor_x, _ = normalize(z2_monoid_space(2))
        nor_y, _ = normalize(max_monoid_space(2))
        pointed, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=True)
        plain, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=False)
        assert iso_check(pointed, plain).status == HOLDS


def _def_data_edge_oracle(inp):
    """Independent 1-simplex count straight from the definition: an edge is
    a base arrow together with a vertex of its source value and an edge of
    its target value starting at the carried vertex."""
    total = 0
    for e in inp.base.arrow_ids():
        src_val = inp.values[inp.base.src(e)]
        dst_val = inp.values[inp.base.dst(e)]
        carried = inp.arrows[e]
        for g in src_val.cell_ids(0):
            image = carried(SimplexRef(g), 0)
            for h in dst_val.refs(1):
                if dst_val.face(h, 1, 1) == image:
                    total += 1
    return total


def test_criterion_7_relative_nerve():
    with ceiling("criterion-7 relative nerve", 20):
        base = poset_category(1)
        pt = standard_point(bound=2)
        constant = RelativeNerveInput(
            base, {o: pt for o in base.objects},
            {f: identity_map(pt) for f in base.arrow_ids()},
        ).validate()
        rn0 = relative_nerve(constant, 2)
        assert iso_check(rn0.total, rn0.base_nerve).status == HOLDS

        nw = nerve(walking_iso_category(), bound=2)
        n1 = nerve(poset_category(1), bound=2)
        d1 = standard_simplex(1).rebound(2)
        inputs = [
            RelativeNerveInput(
                base, {"0": pt, "1": d1},
                {base.identities["0"]: identity_map(pt),
                 base.identities["1"]: identity_map(d1),
                 "le01": SimpMap(pt, d1, {(0, "0"): SimplexRef("0")})},
            ).validate(),
            RelativeNerveInput(
                base, {"0": nw, "1": n1},
                {base.identities["0"]: identity_map(nw),
                 base.identities["1"]: identity_map(n1),
                 "le01": constant_map(nw, n1, "o0")},
            ).validate(),
        ]
        for inp in inputs:
            rn = relative_nerve(inp, 2)
            for o in inp.base.objects:
                assert rn.fiber_comparison(o).status == HOLDS, o
            assert len(rn.total.refs(1)) == _def_data_edge_oracle(inp)
        # frozen inventory for the two-vertex example: 3 vertices, 3 edges
        rn1 = relative_nerve(inputs[0], 2)
        assert rn1.total.summary() == [3, 3, 1]


def test_criterion_8_cocartesian_detection():
    with ceiling("criterion-8 coCartesian detection", 60):
        base2 = poset_category(1)
        nw = nerve(walking_iso_category(), bound=3)
        n1 = nerve(poset_category(1), bound=3)
        small = RelativeNerveInput(
            base2, {"0": nw, "1": nw},
            {base2.identities["0"]: identity_map(nw),
             base2.identities["1"]: identity_map(nw),
             "le01": identity_map(nw)},
        ).validate()
        v = cocartesian_cross_check(relative_nerve(small, 3), 3)
        assert v.status == HOLDS, v.witness

        base3 = poset_category(2)
        mixed = RelativeNerveInput(
            base3, {"0": nw, "1": nw, "2": n1},
            {base3.identities["0"]: identity_map(nw),
             base3.identities["1"]: identity_map(nw),
             base3.identities["2"]: identity_map(n1),
             "le01": identity_map(nw),
             "le12": constant_map(nw, n1, "o0"),
             "le02": constant_map(nw, n1, "o0")},
        ).validate()
        v = cocartesian_cross_check(relative_nerve(mixed, 3), 3)
        assert v.status == HOLDS, v.witness


def test_criterion_9_sm_qcat_verdict():
    with ceiling("criterion-9 fiberwise product verdict", 30):
        m = z2_monoid_space(4)
        g1 = gamma_rep(1).tabulate(4)
        for k in range(1, 4):
            for l in range(1, 5 - k):
                v = sm_qcat_check(m, k, l, tier="iso")
                assert v.status == HOLDS, (k, l)
                assert segal_check(m, k, l, tier="iso").status == v.status
        v = sm_qcat_check(g1, 1, 1, tier="iso")
        assert v.status == FAILS
        assert segal_check(g1, 1, 1, tier="iso").status == v.status


def test_criterion_10_appendix_suite():
    with ceiling("criterion-10 appendix suite", 60):
        rng = random.Random(11)
        pool = [
            inclusion_map(boundary(1), standard_simplex(1)),
            inclusion_map(boundary(2), standard_simplex(2)),
            simplex_inclusion(horn(2, 1), 2),
            simplex_inclusion(horn(2, 0), 2),
            identity_map(standard_simplex(1)),
        ]
        for i in range(50):
            f = pool[rng.randrange(len(pool))]
            g = pool[rng.randrange(len(pool))]
            assert pushout_product(f, g).is_mono(), i

        for name, cat in category_corpus():
            sub, _ = max_subgroupoid(cat)
            assert iso_check(j_qcat(nerve(cat, bound=2)), nerve(sub, bound=2)).status == HOLDS

        for cn, c in category_corpus():
            for dn, d in category_corpus():
                expo = Exponential(nerve(c, bound=2), nerve(d, bound=2))
                fc, _, _ = functor_category(d, c)
                assert iso_check(expo.space, nerve(fc, bound=2)).status == HOLDS, (cn, dn)

        for name, x in pointed_corpus():
            sm, _ = smash(x, sphere_zero(bound=x.dim_bound))
            assert iso_check(sm, x).status == HOLDS, name
            smp, _ = smash(x, pointed_point(bound=x.dim_bound))
            assert smp.cell_count(0) == 1
            assert all(smp.cell_count(n) == 0 for n in range(1, smp.dim_bound + 1))


def test_criterion_11_semiadditivity_probe():
    with ceiling("criterion-11 semi-additivity probe", 20):
        for name, p in presented_corpus():
            cap = 1 if max((c.level for c in p.cells), default=0) >= 2 else 2
            rep = semiadditivity_probe(p, cap)
            assert all(rep["coproduct_identification"]), name
        rep = semiadditivity_probe(gamma_rep(1), 6)
        assert rep["all_iso"] and all(rep["coproduct_identification"])
        for n in range(7):
            assert rep["levels"][n]["convolved_points"][0] == (n + 1) ** 2
