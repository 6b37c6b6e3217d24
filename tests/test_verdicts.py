"""The rule for combining verdicts: Kleene's strong conjunction and
negation, and the agreement of two routes to one fact."""

import itertools

import pytest

from gammaspace.verdicts import FAILS, HOLDS, INCONCLUSIVE, Verdict, conjoin, negate

STATUSES = [HOLDS, FAILS, INCONCLUSIVE]


def _parts(statuses, drawn):
    """(where, verdict) pairs for `statuses`, recording in `drawn` each
    one as it is drawn."""
    for i, status in enumerate(statuses):
        drawn.append(i)
        yield f"part {i}", Verdict(status, f"checked {i}", witness=f"witness {i}",
                                   details={"part": i})


def _kleene_and(statuses):
    if FAILS in statuses:
        return FAILS
    return INCONCLUSIVE if INCONCLUSIVE in statuses or not statuses else HOLDS


@pytest.mark.parametrize("n", range(4))
def test_conjoin_is_kleene_conjunction_on_every_sequence(n):
    for statuses in itertools.product(STATUSES, repeat=n):
        drawn = []
        v = conjoin("all parts", _parts(statuses, drawn), details={"parts": n})
        assert v.status == _kleene_and(statuses), statuses
        if v.status == FAILS:
            first = statuses.index(FAILS)
            assert (v.checked, v.witness) == (f"part {first}", f"witness {first}")
            assert drawn == list(range(first + 1)) and v.details == {}
        elif v.status == HOLDS:
            assert (v.checked, v.witness, v.details) == ("all parts", None, {"parts": n})
        elif statuses:
            first = statuses.index(INCONCLUSIVE)
            assert (v.checked, v.witness) == (f"part {first}", f"witness {first}")
            assert drawn == list(range(n)) and v.details == {}


def test_conjoin_draws_nothing_after_the_first_fails():
    def parts():
        yield "first", Verdict(HOLDS)
        yield "second", Verdict(FAILS, witness="counterexample")
        raise AssertionError("a part after the first fails was drawn")

    v = conjoin("both", parts())
    assert (v.status, v.checked, v.witness) == (FAILS, "second", "counterexample")


def test_a_fails_after_an_inconclusive_still_wins():
    v = conjoin("both", [("spent", Verdict(INCONCLUSIVE, witness="budget")),
                         ("refuted", Verdict(FAILS, witness="square"))])
    assert (v.status, v.checked, v.witness) == (FAILS, "refuted", "square")


def test_the_empty_conjunction_checked_nothing():
    v = conjoin("everything", iter(()), details={"parts": 0})
    assert (v.status, v.checked, v.details) == (INCONCLUSIVE, "nothing checked", {})


def test_conjoin_hands_out_its_own_details():
    details = {"squares": 4}
    v = conjoin("one", [("one", Verdict(HOLDS))], details=details)
    v.details["routes"] = "agree"
    assert details == {"squares": 4}


def test_negate_swaps_decided_verdicts_and_keeps_the_rest():
    for status, flipped in [(HOLDS, FAILS), (FAILS, HOLDS), (INCONCLUSIVE, INCONCLUSIVE)]:
        v = Verdict(status, "dims<=2", witness={"dim": 1}, tier="iso", details={"n": 1})
        w = negate(v)
        assert w.status == flipped and v.status == status
        assert (w.checked, w.witness, w.tier, w.details) == ("dims<=2", {"dim": 1}, "iso", {"n": 1})
        assert w.details is not v.details
        assert negate(w) == v


def test_only_two_decided_and_different_verdicts_contradict():
    for a, b in itertools.product(STATUSES, repeat=2):
        expected = INCONCLUSIVE not in (a, b) and a != b
        assert Verdict(a).contradicts(Verdict(b)) == expected, (a, b)
