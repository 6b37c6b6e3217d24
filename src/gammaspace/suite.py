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
from .verdicts import FAILS, HOLDS, Verdict


def check_factorization() -> Verdict:
    """Unique inert/active factorization, exhaustively."""
    level_cap = 3
    count = 0
    for n in range(level_cap + 1):
        for m in range(level_cap + 1):
            for f in enumerate_homs(n, m):
                pairs = []
                for s in range(f.src + 1):
                    for it in enumerate_homs(f.src, s):
                        if not it.is_inert_ordered():
                            continue
                        for at in enumerate_homs(s, f.dst):
                            if at.is_active() and it.then(at) == f:
                                pairs.append((it, at))
                expected = factor_inert_active(f)[:2]
                if len(pairs) != 1 or pairs[0] != expected:
                    return Verdict(FAILS, f"levels<={level_cap}",
                                   witness={"map": repr(f), "pairs": len(pairs)})
                count += 1
    return Verdict(HOLDS, f"levels<={level_cap}", details={"maps": count})


def check_day_laws() -> Verdict:
    level_cap = 3
    names = dict(corpus.presented_corpus())
    for name, p in names.items():
        v = day_unit_comparison(p, range(level_cap + 1))
        if not v.holds:
            return v
    pairs = [("rep1", "rep2"), ("rep1-interval", "rep1+rep1"),
             ("rep2", "rep1-two-points")]
    for a, b in pairs:
        v = day_symmetry_comparison(names[a], names[b], range(level_cap + 1))
        if not v.holds:
            return v
    triples = [("rep1", "rep1", "rep2"), ("rep0", "rep2", "rep1"),
               ("rep1", "rep1-interval", "rep1")]
    for a, b, c in triples:
        v = day_assoc_comparison(names[a], names[b], names[c], range(level_cap))
        if not v.holds:
            return v
    return Verdict(HOLDS, f"corpus of {len(names)} spaces, levels<={level_cap}")


def check_coend_oracle() -> Verdict:
    level_cap = 2
    cases = [
        (gamma_rep(1), [1], gamma_rep(1), [1]),
        (gamma_rep(1), [1], gamma_rep(2), [2]),
        (corpus.presented_corpus()[3][1], [1], gamma_rep(0), [0]),
    ]
    for p, pl, q, ql in cases:
        tp = p.tabulate(6)
        tq = q.tabulate(6)
        for n in range(level_cap + 1):
            oracle = day_coend_oracle(tp, tq, pl, ql, n)
            bilinear = day_convolve(p, q).evaluate(n)
            v = iso_check(oracle, bilinear)
            if not v.holds:
                return Verdict(FAILS, f"level {n}",
                               witness={"oracle": oracle.summary(),
                                        "bilinear": bilinear.summary()})
    return Verdict(HOLDS, f"3 convolutions, levels<={level_cap}")


def check_yoneda() -> Verdict:
    level_cap = 3
    for name, y in corpus.tabulated_corpus(level_cap):
        for n in range(level_cap + 1):
            _, v = yoneda_comparison(n, y, dim_cap=1)
            if not v.holds:
                return Verdict(FAILS, f"{name} at level {n}", witness=v.witness)
    return Verdict(HOLDS, f"corpus, levels<={level_cap}")


def check_tensor_hom() -> Verdict:
    y = corpus.z2_monoid_space(4)
    for name, p in corpus.presented_corpus()[:4]:
        for n in range(1, 3):
            if max((c.level for c in p.cells), default=0) * n > 4:
                continue
            conv = day_convolve(p, gamma_rep(n))
            lhs = GammaMappingSpace(conv, y, dim_cap=0).space.cell_count(0)
            hom = internal_hom(gamma_rep(n), y, level_bound=2, dim_cap=1)
            rhs = GammaMappingSpace(p, hom, dim_cap=0).space.cell_count(0)
            if lhs != rhs:
                return Verdict(FAILS, f"{name}, rep {n}",
                               witness={"tensor_side": lhs, "hom_side": rhs})
    return Verdict(HOLDS, "corpus vs representables, cardinalities agree")


def check_smash_precompose() -> Verdict:
    level_cap = 2
    for name, x in corpus.tabulated_corpus(4):
        for n in range(level_cap + 1):
            v = smash_precompose_comparison(x, n, level_cap=min(2, 4 // max(n, 1)))
            if not v.holds:
                return Verdict(FAILS, f"{name}, rep {n}", witness=v.witness)
    return Verdict(HOLDS, f"corpus, reps<={level_cap}")


def check_segal() -> Verdict:
    level_cap = 4
    m = corpus.z2_monoid_space(level_cap)
    for k in range(level_cap + 1):
        for l in range(level_cap + 1 - k):
            v = segal_check(m, k, l, tier="iso")
            if not v.holds:
                return Verdict(FAILS, f"monoid at ({k},{l})", witness=v.witness)
    g1 = gamma_rep(1).tabulate(2)
    v = segal_check(g1, 1, 1, tier="iso")
    if not v.fails or v.witness["source"][0] != 3 or v.witness["target"][0] != 4:
        return Verdict(FAILS, "rep1 should fail 3 vs 4", witness=v.witness)
    return Verdict(HOLDS, f"monoid holds k+l<={level_cap}; rep1 fails 3-vs-4")


def check_normalization() -> Verdict:
    level_cap = 3
    for name, x in corpus.tabulated_corpus(level_cap):
        x0, iota = unital_part(x)
        if not iota.is_levelwise_mono(level_cap=level_cap):
            return Verdict(FAILS, f"{name}: unital inclusion not mono")
        nor, eta = normalize(x)
        if not nor.is_normalized():
            return Verdict(FAILS, f"{name}: normalization not normalized")
        eps = normalization_counit(nor)
        if not eps.is_levelwise_iso(level_cap=level_cap):
            return Verdict(FAILS, f"{name}: counit not iso")
    x = corpus.z2_monoid_space(2)
    nor_x, _ = normalize(x)
    y = corpus.max_monoid_space(2)
    nor_y, _ = normalize(y)
    lhs, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=True)
    rhs, _ = mapping_space_tabulated(nor_x, nor_y, 2, 1, pointed=False)
    v = iso_check(lhs, rhs)
    if not v.holds:
        return Verdict(FAILS, "pointed vs underlying mapping space",
                       witness={"pointed": lhs.summary(), "underlying": rhs.summary()})
    return Verdict(HOLDS, "corpus: mono, counit iso, mapping spaces agree")


def check_relative_nerve() -> Verdict:
    dim_cap = 2
    base = poset_category(1)
    pt = standard_point(bound=dim_cap)
    inp = RelativeNerveInput(
        base,
        {o: pt for o in base.objects},
        {f: identity_map(pt) for f in base.arrow_ids()},
    )
    rn = relative_nerve(inp, dim_cap)
    if not iso_check(rn.total, rn.base_nerve).holds:
        return Verdict(FAILS, "constant diagram should collapse to the base nerve")
    nw = nerve(corpus.walking_iso_category(), bound=dim_cap)
    inp2 = RelativeNerveInput(
        base, {"0": nw, "1": nw},
        {base.identities["0"]: identity_map(nw),
         base.identities["1"]: identity_map(nw), "le01": identity_map(nw)},
    )
    rn2 = relative_nerve(inp2, dim_cap)
    for o in base.objects:
        if not rn2.fiber_comparison(o).holds:
            return Verdict(FAILS, f"fiber over {o} differs from the diagram value")
    return Verdict(HOLDS, "constant collapse and exact fibers")


def check_cocartesian() -> Verdict:
    dim_cap = 2
    base = poset_category(1)
    for name, cat in corpus.category_corpus()[:4]:
        nc = nerve(cat, bound=dim_cap)
        inp = RelativeNerveInput(
            base, {"0": nc, "1": nc},
            {base.identities["0"]: identity_map(nc),
             base.identities["1"]: identity_map(nc), "le01": identity_map(nc)},
        )
        rn = relative_nerve(inp, dim_cap)
        v = cocartesian_cross_check(rn, dim_cap)
        if not v.holds:
            return Verdict(FAILS, f"cross-check on {name}", witness=v.witness)
    return Verdict(HOLDS, "lifting search matches the explicit edge description")


def check_sm_qcat() -> Verdict:
    level_cap = 2
    m = corpus.z2_monoid_space(level_cap)
    ginp = gamma_diagram_input(level_cap, m.value, m.action)
    for k in range(1, level_cap):
        for l in range(1, level_cap + 1 - k):
            v = sm_qcat_check(ginp, k, l, tier="iso")
            if not v.holds:
                return Verdict(FAILS, f"monoid diagram at ({k},{l})")
            if segal_check(m, k, l, tier="iso").status != v.status:
                return Verdict(FAILS, f"disagrees with the level check at ({k},{l})")
    g1 = gamma_rep(1).tabulate(level_cap)
    v = sm_qcat_check(gamma_diagram_input(level_cap, g1.value, g1.action), 1, 1)
    if not v.fails:
        return Verdict(FAILS, "rep1 diagram should fail")
    return Verdict(HOLDS, f"monoid passes, rep1 fails, agrees with level check")


def check_pushout_product_mono() -> Verdict:
    """f box g is mono for every ordered pair (f, g) of five monos."""
    pool = [
        inclusion_map(boundary(1), standard_simplex(1)),
        inclusion_map(boundary(2), standard_simplex(2)),
        simplex_inclusion(horn(2, 1), 2),
        simplex_inclusion(horn(2, 0), 2),
        identity_map(standard_simplex(1)),
    ]
    for i, (f, g) in enumerate(itertools.product(pool, repeat=2)):
        if not pushout_product(f, g).is_mono():
            return Verdict(FAILS, f"case {i}",
                           witness={"f": f.source.summary(), "g": g.source.summary()})
    return Verdict(HOLDS, f"all {len(pool) ** 2} ordered mono pairs")


def check_appendix_corpus() -> Verdict:
    for name, cat in corpus.category_corpus():
        nc = nerve(cat, bound=2)
        sub, _ = max_subgroupoid(cat)
        if not iso_check(j_qcat(nc), nerve(sub, bound=2)).holds:
            return Verdict(FAILS, f"largest sub Kan complex of the nerve of {name}")
    c = corpus.category_corpus()[3][1]
    d = corpus.category_corpus()[1][1]
    expo = Exponential(nerve(c, bound=2), nerve(d, bound=2))
    fun, _, _ = functor_category(d, c)
    if not iso_check(expo.space, nerve(fun, bound=2)).holds:
        return Verdict(FAILS, "nerve exponential vs functor category")
    for name, x in corpus.pointed_corpus():
        sm, _ = smash(x, sphere_zero(bound=x.dim_bound))
        if not iso_check(sm, x).holds:
            return Verdict(FAILS, f"{name} smash unit")
        smp, _ = smash(x, pointed_point(bound=x.dim_bound))
        if not (smp.cell_count(0) == 1 and all(
            smp.cell_count(n) == 0 for n in range(1, smp.dim_bound + 1)
        )):
            return Verdict(FAILS, f"{name} smash with the point")
    return Verdict(HOLDS, "sub-Kan, exponential, and smash-unit instances")


def check_semiadditivity() -> Verdict:
    level_cap = 3
    rep = semiadditivity_probe(gamma_rep(1), level_cap)
    if not rep["all_iso"] or not all(rep["coproduct_identification"]):
        return Verdict(FAILS, "rep1 probe", witness=rep)
    for n in range(level_cap + 1):
        if rep["levels"][n]["convolved_points"][0] != (n + 1) ** 2:
            return Verdict(FAILS, f"rep1 count at level {n}", witness=rep["levels"][n])
    rep0 = semiadditivity_probe(gamma_rep(0), 2)
    if not rep0["all_iso"]:
        return Verdict(FAILS, "rep0 probe", witness=rep0)
    return Verdict(HOLDS, f"composite built; rep1 gives (n+1)^2 points, levels<={level_cap}")


def check_marked_adjunctions() -> Verdict:
    jj = nerve(corpus.walking_iso_category(), bound=2)
    y = MarkedSimpSet(jj, [jj.cell_ids(1)[0]])
    plus, flat, sharp = hom_marked(mark(standard_simplex(0), "flat"), y, dim_cap=2)
    for k_name, k in [("point", standard_simplex(0)), ("interval", standard_simplex(1)),
                      ("boundary2", boundary(2))]:
        lhs = len(hom_set(k, flat))
        prod = marked_product(mark(k, "flat"), mark(standard_simplex(0), "flat"))
        rhs = len(marked_hom_set(prod[0], y))
        if lhs != rhs:
            return Verdict(FAILS, f"flat bijection at {k_name}",
                           witness={"lhs": lhs, "rhs": rhs})
    for k_name, k in [("point", standard_simplex(0)), ("interval", standard_simplex(1))]:
        lhs = len(hom_set(k, sharp))
        prod = marked_product(mark(k, "sharp"), mark(standard_simplex(0), "flat"))
        rhs = len(marked_hom_set(prod[0], y))
        if lhs != rhs:
            return Verdict(FAILS, f"sharp bijection at {k_name}",
                           witness={"lhs": lhs, "rhs": rhs})
    m = corpus.z2_monoid_space(2)
    msp, _ = marked_mapping_space(gamma_flat(m), gamma_flat(m), gamma_rep(1), dim_cap=1)
    plain = GammaMappingSpace(gamma_rep(1), m, dim_cap=1)
    if not iso_check(msp, plain.space).holds:
        return Verdict(FAILS, "flat mapping space vs underlying")
    return Verdict(HOLDS, "flat and sharp bijections; flat families forget")


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
