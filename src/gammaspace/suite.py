"""The named invariant checks behind `check-suite`: each item runs one law
on the default corpus and returns a verdict carrying its law tag."""

from __future__ import annotations

import itertools

from . import corpus
from .catcore import functor_category, max_subgroupoid, poset_category
from .cocart import (
    RelativeNerveInput,
    cocartesian_cross_check,
    gamma_diagram_input,
    relative_nerve,
    sm_qcat_check,
)
from .gammaop import enumerate_homs, factor_inert_active
from .gspace import (
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
from .homotopy import j_qcat
from .marked import (
    MarkedSimpSet,
    gamma_flat,
    hom_marked,
    mark,
    marked_hom_set,
    marked_mapping_space,
    marked_product,
)
from .nerve import nerve
from .shapes import (
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
from .simplicial import hom_set, identity_map, iso_check
from .verdicts import FAILS, HOLDS, Verdict, conjoin, negate


def _fact(ok: bool, witness=None) -> Verdict:
    """A decided fact, as a part of a law: holds, or fails with `witness`."""
    return Verdict(HOLDS if ok else FAILS, witness=witness)


def _constant_diagram(base, x):
    """x at every object of `base`, and the identity of x at every arrow."""
    return RelativeNerveInput(base, {o: x for o in base.objects},
                              {f: identity_map(x) for f in base.arrow_ids()})


def check_factorization() -> Verdict:
    """Unique inert/active factorization, exhaustively."""
    level_cap = 3
    levels = [(n, m) for n in range(level_cap + 1) for m in range(level_cap + 1)]

    def parts():
        for n, m in levels:
            # every (inert-ordered, active) pair n+ -> s+ -> m+, by composite
            pairs = {}
            for s in range(n + 1):
                for it in enumerate_homs(n, s):
                    if it.is_inert_ordered():
                        for at in enumerate_homs(s, m):
                            if at.is_active():
                                pairs.setdefault(it.then(at), []).append((it, at))
            for f in enumerate_homs(n, m):
                found = pairs.get(f, [])
                yield f"levels<={level_cap}", _fact(found == [factor_inert_active(f)[:2]],
                                                    witness={"map": repr(f), "pairs": len(found)})

    maps = sum(len(enumerate_homs(n, m)) for n, m in levels)
    return conjoin(f"levels<={level_cap}", parts(), details={"maps": maps})


def check_day_laws() -> Verdict:
    level_cap = 3
    names = dict(corpus.presented_corpus())

    def parts():
        for name, p in names.items():
            yield f"unit on {name}", day_unit_comparison(p, range(level_cap + 1))
        for a, b in [("rep1", "rep2"), ("rep1-interval", "rep1+rep1"),
                     ("rep2", "rep1-two-points")]:
            yield (f"symmetry on {a}, {b}",
                   day_symmetry_comparison(names[a], names[b], range(level_cap + 1)))
        for a, b, c in [("rep1", "rep1", "rep2"), ("rep0", "rep2", "rep1"),
                        ("rep1", "rep1-interval", "rep1")]:
            yield (f"associativity on {a}, {b}, {c}",
                   day_assoc_comparison(names[a], names[b], names[c], range(level_cap)))

    return conjoin(f"corpus of {len(names)} spaces, levels<={level_cap}", parts())


def check_coend_oracle() -> Verdict:
    level_cap = 2
    cases = [
        (gamma_rep(1), [1], gamma_rep(1), [1]),
        (gamma_rep(1), [1], gamma_rep(2), [2]),
        (corpus.presented_corpus()[3][1], [1], gamma_rep(0), [0]),
    ]

    def parts():
        for p, pl, q, ql in cases:
            tp = p.tabulate(6)
            tq = q.tabulate(6)
            for n in range(level_cap + 1):
                yield f"level {n}", iso_check(day_coend_oracle(tp, tq, pl, ql, n),
                                              day_convolve(p, q).evaluate(n))

    return conjoin(f"3 convolutions, levels<={level_cap}", parts())


def check_yoneda() -> Verdict:
    level_cap = 3
    return conjoin(f"corpus, levels<={level_cap}", (
        (f"{name} at level {n}", yoneda_comparison(n, y, dim_cap=1)[1])
        for name, y in corpus.tabulated_corpus(level_cap)
        for n in range(level_cap + 1)))


def check_tensor_hom() -> Verdict:
    y = corpus.z2_monoid_space(4)

    def parts():
        for name, p in corpus.presented_corpus()[:4]:
            for n in range(1, 3):
                if max((c.level for c in p.cells), default=0) * n > 4:
                    continue
                conv = day_convolve(p, gamma_rep(n))
                lhs = GammaMappingSpace(conv, y, dim_cap=0).space.cell_count(0)
                hom = internal_hom(gamma_rep(n), y, level_bound=2, dim_cap=1)
                rhs = GammaMappingSpace(p, hom, dim_cap=0).space.cell_count(0)
                yield f"{name}, rep {n}", _fact(lhs == rhs, witness={"tensor_side": lhs,
                                                                     "hom_side": rhs})

    return conjoin("corpus vs representables, cardinalities agree", parts())


def check_smash_precompose() -> Verdict:
    level_cap = 2
    return conjoin(f"corpus, reps<={level_cap}", (
        (f"{name}, rep {n}", smash_precompose_comparison(x, n, level_cap=min(2, 4 // max(n, 1))))
        for name, x in corpus.tabulated_corpus(4)
        for n in range(level_cap + 1)))


def check_segal() -> Verdict:
    level_cap = 4
    m = corpus.z2_monoid_space(level_cap)

    def parts():
        for k in range(level_cap + 1):
            for l in range(level_cap + 1 - k):
                yield f"monoid at ({k},{l})", segal_check(m, k, l, tier="iso")
        g1 = gamma_rep(1).tabulate(2)
        yield "rep1 should fail", negate(segal_check(g1, 1, 1, tier="iso"))
        # the refutation: 3 points at level 2 against 4 = 2 x 2 in the product
        counts = [g1.value(2).cell_count(0), g1.value(1).cell_count(0) ** 2]
        yield "rep1 should fail 3 vs 4", _fact(counts == [3, 4], witness=counts)

    return conjoin(f"monoid holds k+l<={level_cap}; rep1 fails 3-vs-4", parts())


def check_normalization() -> Verdict:
    level_cap = 3

    def parts():
        for name, x in corpus.tabulated_corpus(level_cap):
            _, iota = unital_part(x)
            yield (f"{name}: unital inclusion mono",
                   _fact(iota.is_levelwise_mono(level_cap=level_cap)))
            nor, _ = normalize(x)
            yield f"{name}: normalization is normalized", _fact(nor.is_normalized())
            yield (f"{name}: counit iso",
                   _fact(normalization_counit(nor).is_levelwise_iso(level_cap=level_cap)))
        nor_x, _ = normalize(corpus.z2_monoid_space(2))
        nor_y, _ = normalize(corpus.max_monoid_space(2))
        lhs, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=True)
        rhs, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=False)
        yield "pointed vs underlying mapping space", iso_check(lhs, rhs)

    return conjoin("corpus: mono, counit iso, mapping spaces agree", parts())


def check_relative_nerve() -> Verdict:
    dim_cap = 2
    base = poset_category(1)

    def parts():
        rn = relative_nerve(_constant_diagram(base, standard_point(bound=dim_cap)), dim_cap)
        yield ("constant diagram collapses to the base nerve",
               iso_check(rn.total, rn.base_nerve))
        nw = nerve(corpus.walking_iso_category(), bound=dim_cap)
        rn2 = relative_nerve(_constant_diagram(base, nw), dim_cap)
        for o in base.objects:
            yield f"fiber over {o}", rn2.fiber_comparison(o)

    return conjoin("constant collapse and exact fibers", parts())


def check_cocartesian() -> Verdict:
    dim_cap = 2
    base = poset_category(1)

    def parts():
        for name, cat in corpus.category_corpus()[:4]:
            rn = relative_nerve(_constant_diagram(base, nerve(cat, bound=dim_cap)), dim_cap)
            yield f"cross-check on {name}", cocartesian_cross_check(rn, dim_cap)

    return conjoin("lifting search matches the explicit edge description", parts())


def check_sm_qcat() -> Verdict:
    level_cap = 2
    m = corpus.z2_monoid_space(level_cap)
    ginp = gamma_diagram_input(m, level_cap)

    def parts():
        # the diagram verdict must hold, so agreeing with it means holding too
        for k in range(1, level_cap):
            for l in range(1, level_cap + 1 - k):
                yield f"monoid diagram at ({k},{l})", sm_qcat_check(ginp, k, l, tier="iso")
                yield f"level check at ({k},{l})", segal_check(m, k, l, tier="iso")
        g1 = gamma_rep(1).tabulate(level_cap)
        yield "rep1 diagram should fail", negate(
            sm_qcat_check(gamma_diagram_input(g1, level_cap), 1, 1))

    return conjoin("monoid passes, rep1 fails, agrees with level check", parts())


def check_pushout_product_mono() -> Verdict:
    """f box g is mono for every ordered pair (f, g) of five monos."""
    pool = [
        inclusion_map(boundary(1), standard_simplex(1)),
        inclusion_map(boundary(2), standard_simplex(2)),
        simplex_inclusion(horn(2, 1), 2),
        simplex_inclusion(horn(2, 0), 2),
        identity_map(standard_simplex(1)),
    ]
    return conjoin(f"all {len(pool) ** 2} ordered mono pairs", (
        (f"case {i}", _fact(pushout_product(f, g).is_mono(),
                            witness={"f": f.source.summary(), "g": g.source.summary()}))
        for i, (f, g) in enumerate(itertools.product(pool, repeat=2))))


def check_appendix_corpus() -> Verdict:
    def parts():
        for name, cat in corpus.category_corpus():
            sub, _ = max_subgroupoid(cat)
            yield (f"largest sub Kan complex of the nerve of {name}",
                   iso_check(j_qcat(nerve(cat, bound=2)), nerve(sub, bound=2)))
        c = corpus.category_corpus()[3][1]
        d = corpus.category_corpus()[1][1]
        expo = Exponential(nerve(c, bound=2), nerve(d, bound=2))
        fun, _, _ = functor_category(d, c)
        yield "nerve exponential vs functor category", iso_check(expo.space, nerve(fun, bound=2))
        for name, x in corpus.pointed_corpus():
            sm, _ = smash(x, sphere_zero(bound=x.dim_bound))
            yield f"{name} smash unit", iso_check(sm, x)
            smp, _ = smash(x, pointed_point(bound=x.dim_bound))
            yield f"{name} smash with the point", _fact(smp.summary() == [1] + [0] * smp.dim_bound)

    return conjoin("sub-Kan, exponential, and smash-unit instances", parts())


def check_semiadditivity() -> Verdict:
    level_cap = 3

    def parts():
        rep = semiadditivity_probe(gamma_rep(1), level_cap)
        for n, level in rep["levels"].items():
            yield f"rep1 probe at level {n}", Verdict(level["iso"], witness=level)
            yield f"rep1 coproduct at level {n}", _fact(rep["coproduct_identification"][n])
            yield (f"rep1 count at level {n}",
                   _fact(level["convolved_points"][0] == (n + 1) ** 2, witness=level))
        for n, level in semiadditivity_probe(gamma_rep(0), 2)["levels"].items():
            yield f"rep0 probe at level {n}", Verdict(level["iso"], witness=level)

    return conjoin(f"composite built; rep1 gives (n+1)^2 points, levels<={level_cap}", parts())


def check_marked_adjunctions() -> Verdict:
    jj = nerve(corpus.walking_iso_category(), bound=2)
    y = MarkedSimpSet(jj, [jj.cell_ids(1)[0]])
    _, flat, sharp = hom_marked(mark(standard_simplex(0), "flat"), y, dim_cap=2)
    shapes = [("point", standard_simplex(0)), ("interval", standard_simplex(1)),
              ("boundary2", boundary(2))]

    def parts():
        for marking, hom, cases in [("flat", flat, shapes), ("sharp", sharp, shapes[:2])]:
            for k_name, k in cases:
                lhs = len(hom_set(k, hom))
                prod = marked_product(mark(k, marking), mark(standard_simplex(0), "flat"))
                rhs = len(marked_hom_set(prod[0], y))
                yield (f"{marking} bijection at {k_name}",
                       _fact(lhs == rhs, witness={"lhs": lhs, "rhs": rhs}))
        m = corpus.z2_monoid_space(2)
        msp, _ = marked_mapping_space(gamma_flat(m), gamma_flat(m), gamma_rep(1), dim_cap=1)
        plain = GammaMappingSpace(gamma_rep(1), m, dim_cap=1)
        yield "flat mapping space vs underlying", iso_check(msp, plain.space)

    return conjoin("flat and sharp bijections; flat families forget", parts())


SUITE = [
    ("factorization-unique", check_factorization),
    ("day-convolution-laws", check_day_laws),
    ("day-coend-oracle", check_coend_oracle),
    ("yoneda", check_yoneda),
    ("tensor-hom-adjunction", check_tensor_hom),
    ("rep-hom-is-smash-precompose", check_smash_precompose),
    ("segal-condition", check_segal),
    ("normalization-adjunction", check_normalization),
    ("relative-nerve-fibers", check_relative_nerve),
    ("cocartesian-detection", check_cocartesian),
    ("sm-qcat-verdict", check_sm_qcat),
    ("pushout-product-mono", check_pushout_product_mono),
    ("kan-exponential-smash", check_appendix_corpus),
    ("semiadditivity-composite", check_semiadditivity),
    ("marked-mapping-bijections", check_marked_adjunctions),
]


def run_suite(only=None):
    """Run the named checks; returns a list of (tag, Verdict).  An unknown
    tag in `only` raises ValueError before any check runs."""
    known = [tag for tag, _ in SUITE]
    unknown = sorted(set(only or ()) - set(known))
    if unknown:
        raise ValueError(f"unknown law tag(s) {', '.join(unknown)}; "
                         f"known tags: {', '.join(known)}")
    out = []
    for tag, fn in SUITE:
        if only and tag not in only:
            continue
        out.append((tag, fn()))
    return out
