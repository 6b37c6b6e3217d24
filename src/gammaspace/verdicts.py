"""Three-valued verdicts and search budgets shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

DEFAULT_SEARCH_BUDGET = 10 ** 6
DEFAULT_DIM_BOUND = 4
DEFAULT_LEVEL_BOUND = 6


class BudgetExceededError(Exception):
    """Raised when an exhaustive search runs past its candidate budget.

    Never swallowed into a silently truncated answer: callers either
    propagate it or downgrade to an `inconclusive` verdict that records
    what was left unsearched.
    """

    def __init__(self, limit: int):
        self.limit = limit
        # the "()" is part of the witnesses pinned by the golden tests
        super().__init__(f"search budget of {limit} exceeded ()")


class ResourceError(Exception):
    """A computation hit a structural cap (e.g. the arrows tau1 may define)
    and cannot certify its answer."""


class Budget:
    """Mutable candidate counter threaded through backtracking searches."""

    def __init__(self, limit: int = DEFAULT_SEARCH_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)


_EXHAUSTED = object()


def backtrack(order, candidates):
    """Each assignment of a value to every cell of `order`, depth first,
    as a new dict; a caller that wants one result stops the search there.

    `candidates(cell, assignment)` is called only when the search reaches
    `cell`.  Whenever its iterable is drawn from, `assignment` holds exactly
    the cells before `cell`, so a lazy generator may read it (never mutate).
    """
    order = list(order)
    if not order:
        yield {}
        return
    assignment = {}
    stack = [iter(candidates(order[0], assignment))]
    while stack:
        depth = len(stack) - 1
        cell = order[depth]
        assignment.pop(cell, None)
        value = next(stack[-1], _EXHAUSTED)
        if value is _EXHAUSTED:
            stack.pop()
            continue
        assignment[cell] = value
        if depth + 1 == len(order):
            yield dict(assignment)
        else:
            stack.append(iter(candidates(order[depth + 1], assignment)))


@dataclass
class Verdict:
    """Outcome of a decidable-but-bounded check.

    status is one of holds / fails / inconclusive; `witness` carries a
    counterexample (fails) or a certifying object (holds) when one
    exists, and `checked` names the verified range so a verdict is never
    quietly stronger than what was actually searched.
    """

    status: str
    checked: str = ""
    witness: object = None
    tier: str | None = None
    details: dict = field(default_factory=dict)

    def contradicts(self, other: "Verdict") -> bool:
        """Both verdicts are decided and they differ: two routes to one fact
        disagree.  An undecided verdict contradicts nothing."""
        return INCONCLUSIVE not in (self.status, other.status) and self.status != other.status

    def as_json(self) -> dict:
        out = {"status": self.status, "checked": self.checked}
        if self.tier is not None:
            out["tier"] = self.tier
        if self.witness is not None:
            out["witness"] = _dump_witness(self.witness)
        if self.details:
            out["details"] = {k: _dump_witness(v) for k, v in sorted(self.details.items())}
        return out


def conjoin(checked: str, parts, details=None) -> Verdict:
    """Kleene's strong conjunction of `parts`, a lazy iterable of
    (where, Verdict) pairs: the first `fails` wins, at its `where` and with
    its witness, and no later part is drawn; else the first `inconclusive`
    part, since a spent budget refutes nothing; else `holds` on `checked`,
    with `details` (which a cut-short conjunction did not earn).  With no
    part at all nothing was checked: `inconclusive`."""
    undecided, drawn = None, False
    for where, sub in parts:
        drawn = True
        if sub.status == FAILS:
            return Verdict(FAILS, where, witness=sub.witness)
        if sub.status == INCONCLUSIVE and undecided is None:
            undecided = Verdict(INCONCLUSIVE, where, witness=sub.witness)
    if not drawn:
        return Verdict(INCONCLUSIVE, "nothing checked")
    return undecided or Verdict(HOLDS, checked, details=dict(details or {}))


def negate(v: Verdict) -> Verdict:
    """Kleene negation, for negative controls: `holds` and `fails` swap,
    `inconclusive` stays, and the checked range and witness are kept."""
    status = {HOLDS: FAILS, FAILS: HOLDS}.get(v.status, INCONCLUSIVE)
    return replace(v, status=status, details=dict(v.details))


def _dump_witness(w):
    if isinstance(w, (str, int, float, bool)) or w is None:
        return w
    if isinstance(w, (list, tuple)):
        return [_dump_witness(x) for x in w]
    if isinstance(w, dict):
        return {str(k): _dump_witness(v) for k, v in w.items()}
    return repr(w)
