"""Golden digests of the exhaustive searches.

Each case runs one search on fixed inputs (corpus objects and fixed
quotients of glued standard simplices) and hashes the canonical JSON of
what it returns, in the order it returns it:

- `hom_set`: the ordered map keys, plain and with `fixed` and `constraint`
  (among them a constraint that sends the basepoint to the basepoint);
- `iso_check`: the status, the witness assignment and `Budget.used`;
- `all_functors` and `natural_transformations`: the ordered results;
- `functor_category`: the canonical JSON of the category and the functor
  behind each object name.

Any change to which results a search finds, to their order, or to what
`iso_check` charges moves a digest.  What each `hom_set` case charges to
its budget is pinned beside its digest as a plain count, since a pruning
step lowers it without moving a map.  To print the digests and counts of
the current code:

    PYTHONPATH=src python tests/test_search_golden.py
"""

import hashlib

import pytest

from test_simplicial import glued_simplices

from gammaspace.catcore import (
    all_functors,
    functor_category,
    natural_transformations,
)
from gammaspace.corpus import category_corpus, iso_with_tail_category, pointed_corpus
from gammaspace.jsonio import canonical_dumps, category_to_json
from gammaspace.nerve import nerve
from gammaspace.shapes import boundary, horn, sphere_zero, standard_simplex
from gammaspace.simplicial import SimplexRef, hom_set, iso_check
from gammaspace.verdicts import Budget


def _quotient(n, collapse):
    return glued_simplices(n, collapse).space


def _hom(a, x, **kwargs):
    """The ordered map keys and the candidates charged."""
    budget = Budget()
    found = hom_set(a, x, budget=budget, **kwargs)
    return [m.key() for m in found], budget.used


def _hom_pointed(a, x):
    """`_hom` of the maps that send a's basepoint to x's."""
    return _hom(a, x, constraint=lambda n, name, ref: (
        n > 0 or name != a.pointed or ref == SimplexRef(x.pointed)))


def _hom_cases():
    q = _quotient(2, {0, 1})
    tail = nerve(iso_with_tail_category(), bound=2)
    pointed = dict(pointed_corpus())
    first = q.cell_ids(0)[0]
    return {
        "simplex1-into-quotient": lambda: _hom(standard_simplex(1), q),
        "boundary2-into-quotient": lambda: _hom(boundary(2), _quotient(1, {0, 3})),
        "simplex2-into-quotient": lambda: _hom(standard_simplex(2), _quotient(2, {1, 2, 4})),
        "horn21-into-tail-nerve": lambda: _hom(horn(2, 1), tail),
        "simplex2-into-tail-nerve": lambda: _hom(standard_simplex(2), tail),
        "fixed-vertex": lambda: _hom(standard_simplex(2), q,
                                     fixed={(0, "0"): SimplexRef(first)}),
        "fixed-edge": lambda: _hom(standard_simplex(2), tail,
                                   fixed={(1, "01"): SimplexRef("w")}),
        "fixed-edge-clash": lambda: _hom(standard_simplex(2), tail,
                                         fixed={(0, "0"): SimplexRef("oa"),
                                                (1, "01"): SimplexRef("w")}),
        "constraint": lambda: _hom(standard_simplex(2), q,
                                   constraint=lambda n, name, ref: ref.base != first),
        "constraint-on-edges": lambda: _hom(
            standard_simplex(2), tail,
            constraint=lambda n, name, ref: n != 1 or not ref.degs),
        "pointed-s0-into-interval": lambda: _hom_pointed(sphere_zero(), pointed["interval"]),
        "pointed-s0-into-two-points": lambda: _hom_pointed(sphere_zero(),
                                                           pointed["two-points"]),
        "pointed-interval-into-interval": lambda: _hom_pointed(
            pointed["interval"], pointed["interval"]),
        "unpointed-s0-into-two-points": lambda: _hom(sphere_zero(), pointed["two-points"]),
    }


def _iso(x, y, limit=None):
    budget = Budget() if limit is None else Budget(limit)
    v = iso_check(x, y, budget=budget)
    witness = v.witness.key() if hasattr(v.witness, "key") else v.witness
    return {"status": v.status, "witness": witness, "used": budget.used}


def _iso_spaces():
    spaces = [(name, x) for name, x in pointed_corpus()]
    spaces += [
        ("quotient-2-01", _quotient(2, {0, 1})),
        ("quotient-2-12", _quotient(2, {1, 2})),
        ("quotient-1-03", _quotient(1, {0, 3})),
        ("quotient-1-14", _quotient(1, {1, 4})),
        ("quotient-2-none", _quotient(2, set())),
    ]
    spaces += [(f"nerve-{name}", nerve(c, bound=2)) for name, c in category_corpus()]
    return spaces


def _iso_cases():
    spaces = _iso_spaces()
    cases = {
        "all-pairs": lambda: [[a, b, _iso(x, y)] for a, x in spaces for b, y in spaces],
    }
    q = dict(spaces)["quotient-2-01"]
    cases["budget-cut"] = lambda: [_iso(q, q, limit) for limit in (1, 3, 8)]
    return cases


def _functor_cases():
    cats = category_corpus()
    small = [(n, c) for n, c in cats if len(c.arrows) <= 4]

    def functors():
        return [[a, b, [f.key() for f in all_functors(c, d)]]
                for a, c in cats for b, d in cats]

    def transformations():
        out = []
        for a, c in small:
            for b, d in small:
                fs = all_functors(c, d)
                out.append([a, b, [
                    [i, j, [sorted(comp.items()) for comp in natural_transformations(f, g)]]
                    for i, f in enumerate(fs) for j, g in enumerate(fs)
                ]])
        return out

    def functor_categories():
        by_name = dict(cats)
        out = []
        for a, b in [("arrow", "triangle"), ("walking-iso", "iso-with-tail"),
                     ("discrete-2", "cyclic-2"), ("arrow", "arrow"),
                     ("cyclic-2", "walking-iso")]:
            cat, obj_names, _ = functor_category(by_name[a], by_name[b])
            out.append([a, b, category_to_json(cat),
                        sorted((n, f.key()) for n, f in obj_names.items())])
        return out

    return {
        "all-functors": functors,
        "natural-transformations": transformations,
        "functor-category": functor_categories,
    }


HOM_CASES = _hom_cases()

CASES = {
    **{f"hom-set/{k}": (lambda v=v: v()[0]) for k, v in HOM_CASES.items()},
    **{f"iso-check/{k}": v for k, v in _iso_cases().items()},
    **{f"catcore/{k}": v for k, v in _functor_cases().items()},
}

# recorded before the searches shared one backtracking engine; the hom-set
# digests (map keys only) before vertices were forward-checked
DIGESTS = {
    "catcore/all-functors": "c36e4fb71a61906c30f5110df1767715bdfa7327d43fe1d0ce7eaa5e7d2cda57",
    "catcore/functor-category": "970cebe62c7ffdd612e01ade300b220d8c2ad8c19bd97598cfbbb6f9b1ddec03",
    "catcore/natural-transformations": "cd15b2a6f41bab5bd3c65dfc6dfd0357c7fa09fb8c329ec6aeb20680a384204d",
    "hom-set/boundary2-into-quotient": "de3a67f774a54079a5bf828fc185c9da29bce26edddb74b03efc88d286742a64",
    "hom-set/constraint": "d7d2d5e143c4d42487918694420730d56c12db520d6aa68bbf2b8a06ae6e30e0",
    "hom-set/constraint-on-edges": "bedc535bbc792e3e436a5a1e5294ac1d207a5e6c8559df6085fec1e0f2776709",
    "hom-set/fixed-edge": "6821b9e9ff6d8ae6fc42e31706f9a09d3016dc5a19dfbfd3664b1ca2e96ce90a",
    "hom-set/fixed-edge-clash": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "hom-set/fixed-vertex": "b9cdbd31c5eb2dd9fdbf77b647617c8ebfd35281fbc4a103006dc93217e69954",
    "hom-set/horn21-into-tail-nerve": "024603f400b080e7ced7e77ef71a5fec5d25f3b811165d04839a49a603884914",
    "hom-set/pointed-interval-into-interval": "7655cd76bcfde720f58798567b65f9bbc92a57248b6b8287bbaedbcc576bddf9",
    "hom-set/pointed-s0-into-interval": "d9ae2093673babb12c8ae679697b9e123dc6bb84f758b9b2af007569749c239d",
    "hom-set/pointed-s0-into-two-points": "c54947de34bb180fc2244f10b7538bbb4123bf63af5df08a8d18efb906a6cdd4",
    "hom-set/simplex1-into-quotient": "8ea07df2ab36d4b64d25f8dfddb9ed206ef2a34e6342a7a52a1e915d6d01549f",
    "hom-set/simplex2-into-quotient": "8fbc16e9cfbd46d0180bc33ff0985afd24d3e178a9dffac24adefc5c4f466279",
    "hom-set/simplex2-into-tail-nerve": "d7ef87be831fb8475371d84af6efea4bb8a1a925e6f9e0ad8b6b7f90157ba61b",
    "hom-set/unpointed-s0-into-two-points": "3251acd09890804fa04cc27583418d645c7bf19e3e84c3d0df3e6e27cd5260fe",
    "iso-check/all-pairs": "a0882c7caa37d4963ebc0807800908ca198f333f9c3764003db47751bfa6e200",
    "iso-check/budget-cut": "a5de84926c57ad2245e256845b6f4219f6ac583a69bfc6039911b6ce7a9fb5bf",
}


# candidates charged with forward-checked vertices
HOM_USED = {
    "boundary2-into-quotient": 59,
    "constraint": 50,
    "constraint-on-edges": 41,
    "fixed-edge": 64,
    "fixed-edge-clash": 36,
    "fixed-vertex": 74,
    "horn21-into-tail-nerve": 47,
    "pointed-interval-into-interval": 7,
    "pointed-s0-into-interval": 6,
    "pointed-s0-into-two-points": 6,
    "simplex1-into-quotient": 23,
    "simplex2-into-quotient": 106,
    "simplex2-into-tail-nerve": 77,
    "unpointed-s0-into-two-points": 6,
}


def _digest(case):
    return hashlib.sha256(canonical_dumps(CASES[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_digests(case):
    assert _digest(case) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(HOM_USED))
def test_hom_set_budget_used(case):
    assert HOM_CASES[case]()[1] == HOM_USED[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(case)}",')
    for case in sorted(HOM_CASES):
        print(f'    "{case}": {HOM_CASES[case]()[1]},')
