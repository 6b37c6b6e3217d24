"""The laws behind `check-suite`: what each one checks."""

import inspect

import pytest

from gammaspace import suite
from gammaspace.gammaop import GammaMorphism, gamma_identity
from gammaspace.gspace import semiadditivity_probe
from gammaspace.verdicts import FAILS, HOLDS, INCONCLUSIVE, Verdict


def test_suite_laws_take_no_parameters():
    # run_suite calls every law with no arguments
    for tag, law in suite.SUITE:
        assert inspect.signature(law).parameters == {}, tag


def test_pushout_product_mono_checks_each_ordered_pair_once(monkeypatch):
    seen = []
    build = suite.pushout_product

    def recorded(f, g):
        seen.append((f, g))
        return build(f, g)

    monkeypatch.setattr(suite, "pushout_product", recorded)
    v = suite.check_pushout_product_mono()
    assert v.status == HOLDS and v.checked == "all 25 ordered mono pairs"
    assert len({f.key() for f, _ in seen}) == 5
    assert len({(f.key(), g.key()) for f, g in seen}) == len(seen) == 25


def test_factorization_fails_on_a_planted_wrong_factorization(monkeypatch):
    real = suite.factor_inert_active
    planted = GammaMorphism(2, 1, (1, 0))

    def wrong(f):
        # identity then f: an inert and an active map only when f is active
        return (gamma_identity(f.src), f) if f == planted else real(f)

    monkeypatch.setattr(suite, "factor_inert_active", wrong)
    v = suite.check_factorization()
    assert v.status == FAILS
    assert v.witness == {"map": repr(planted), "pairs": 1}


def _spent(*_args, **_kwargs):
    return Verdict(INCONCLUSIVE, "budget", witness="search budget spent")


def _spent_probe(p, level_cap):
    rep = semiadditivity_probe(p, level_cap)
    for level in rep["levels"].values():
        level["iso"] = INCONCLUSIVE
    return rep


# (law, the name in `suite` of a sub-check it combines, a stand-in for that
# sub-check that runs out of budget)
SPENT_SUB_CHECKS = [
    ("day-convolution-laws", "day_unit_comparison", _spent),
    ("day-convolution-laws", "day_symmetry_comparison", _spent),
    ("day-convolution-laws", "day_assoc_comparison", _spent),
    ("day-coend-oracle", "iso_check", _spent),
    ("yoneda", "yoneda_comparison", lambda *a, **k: (None, _spent())),
    ("rep-hom-is-smash-precompose", "smash_precompose_comparison", _spent),
    ("segal-condition", "segal_check", _spent),
    ("normalization-adjunction", "iso_check", _spent),
    ("relative-nerve-fibers", "iso_check", _spent),
    ("cocartesian-detection", "cocartesian_cross_check", _spent),
    ("sm-qcat-verdict", "sm_qcat_check", _spent),
    ("sm-qcat-verdict", "segal_check", _spent),
    ("kan-exponential-smash", "iso_check", _spent),
    ("semiadditivity-composite", "semiadditivity_probe", _spent_probe),
    ("marked-mapping-bijections", "iso_check", _spent),
]


@pytest.mark.parametrize("tag, name, stand_in", SPENT_SUB_CHECKS,
                         ids=[f"{tag}-{name}" for tag, name, _ in SPENT_SUB_CHECKS])
def test_a_spent_sub_check_leaves_its_law_inconclusive(monkeypatch, tag, name, stand_in):
    # a sub-check that ran out of budget refutes nothing, so the law it
    # feeds is undecided, not refuted
    monkeypatch.setattr(suite, name, stand_in)
    v = dict(suite.SUITE)[tag]()
    assert v.status == INCONCLUSIVE, v.as_json()


def test_every_law_that_combines_sub_checks_is_exercised_spent():
    # the laws built from decided facts alone
    facts_only = {"factorization-unique", "tensor-hom-adjunction", "pushout-product-mono"}
    assert {tag for tag, _, _ in SPENT_SUB_CHECKS} == {tag for tag, _ in suite.SUITE} - facts_only
