"""The laws behind `check-suite`: what each one checks."""

import inspect

from gammaspace import suite


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
    assert v.holds and v.checked == "all 25 ordered mono pairs"
    assert len({f.key() for f, _ in seen}) == 5
    assert len({(f.key(), g.key()) for f, g in seen}) == len(seen) == 25
