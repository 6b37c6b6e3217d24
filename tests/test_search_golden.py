"""Golden digests of the exhaustive searches.

Each case runs one search on fixed inputs (corpus objects and fixed
quotients of glued standard simplices) and hashes the canonical JSON of
what it returns, in the order it returns it:

- `hom_set`: the ordered map keys and the candidates charged to its budget,
  plain and with `fixed`, `constraint` and `require_pointed`;
- `iso_check`: the status, the witness assignment and `Budget.used`;
- `all_functors` and `natural_transformations`: the ordered results;
- `cat_iso_search`: the isomorphism found, or none;
- `functor_category`: the canonical JSON of the category and the functor
  behind each object name.

Any change to which results a search finds, to their order, or to what
`hom_set` and `iso_check` charge moves a digest.  To print the digests of
the current code:

    PYTHONPATH=src python tests/test_search_golden.py
"""

import hashlib

import pytest

from test_simplicial import glued_simplices

from gammaspace.catcore import (
    FinCat,
    all_functors,
    cat_iso_search,
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
    budget = Budget()
    found = hom_set(a, x, budget=budget, **kwargs)
    return {"maps": [m.key() for m in found], "used": budget.used}


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
        "pointed-s0-into-interval": lambda: _hom(sphere_zero(), pointed["interval"],
                                                 require_pointed=True),
        "pointed-s0-into-two-points": lambda: _hom(sphere_zero(), pointed["two-points"],
                                                   require_pointed=True),
        "pointed-interval-into-interval": lambda: _hom(
            pointed["interval"], pointed["interval"], require_pointed=True),
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


def _relabel(c):
    """c with its objects named in reverse order and its arrows renamed, so
    an isomorphism onto it must permute objects."""
    obj = dict(zip(c.objects, reversed([f"r{i}" for i in range(len(c.objects))])))
    arr = {f: f"r{f}" for f in c.arrows}
    return FinCat(
        [obj[a] for a in c.objects],
        {arr[f]: (obj[s], obj[d]) for f, (s, d) in c.arrows.items()},
        {obj[a]: arr[f] for a, f in c.identities.items()},
        {(arr[g], arr[f]): arr[h] for (g, f), h in c.compose_table.items()},
    ).validate()


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

    def isos():
        out = []
        for a, c in cats:
            for b, d in cats:
                iso = cat_iso_search(c, d)
                out.append([a, b, None if iso is None else iso.key()])
            iso = cat_iso_search(c, _relabel(c))
            out.append([a, "relabelled", None if iso is None else iso.key()])
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
        "cat-iso-search": isos,
        "functor-category": functor_categories,
    }


CASES = {
    **{f"hom-set/{k}": v for k, v in _hom_cases().items()},
    **{f"iso-check/{k}": v for k, v in _iso_cases().items()},
    **{f"catcore/{k}": v for k, v in _functor_cases().items()},
}

# recorded before the searches shared one backtracking engine
DIGESTS = {
    "catcore/all-functors": "c36e4fb71a61906c30f5110df1767715bdfa7327d43fe1d0ce7eaa5e7d2cda57",
    "catcore/cat-iso-search": "75997263afc9163f88183f0add03e19428f8bdaa2e2abb4d46b96036558024de",
    "catcore/functor-category": "970cebe62c7ffdd612e01ade300b220d8c2ad8c19bd97598cfbbb6f9b1ddec03",
    "catcore/natural-transformations": "cd15b2a6f41bab5bd3c65dfc6dfd0357c7fa09fb8c329ec6aeb20680a384204d",
    "hom-set/boundary2-into-quotient": "ee02736d7d529bcc39dc783b18a43fa04caafb24eb90b2a4690681efd60ff073",
    "hom-set/constraint": "04f9550df94bf9bc24d03bff5f7a15e85b654b6f8b0f215c5e60b3c2a22c8217",
    "hom-set/constraint-on-edges": "652e92486ee9d845f6fa59bc3d7bc4c36dacc7fed7c5ea4caf7ce860e4a3ecb8",
    "hom-set/fixed-edge": "b6db2b1c4afaea1c129330ca09b81b2294649111acfe7f145aec6c0746ea2e2f",
    "hom-set/fixed-edge-clash": "81ef4cda0b0dcd418bf1f7bab432e9219c047619fc6e28af26b2b92f31fc3dd2",
    "hom-set/fixed-vertex": "5690d2650898129beb797c0d1653943c71e67a9f5dd3bde8dcb6059f00e02f89",
    "hom-set/horn21-into-tail-nerve": "538530e8d6f89c22c12b52a5fad97700333e5e7fc4e0dfdec1d4ec1712703d5a",
    "hom-set/pointed-interval-into-interval": "a7deafb93fdba09f5c73e4b8f6c9af2c4cec01f5f1060fadb9e0226e88f4f4cb",
    "hom-set/pointed-s0-into-interval": "e3ed822577274dcfaaf62feb06ce96c769b87f3d71d81bef54ca3b54693b0bb4",
    "hom-set/pointed-s0-into-two-points": "97253fb29bb7782f7b4a6d03754f09f9fb078390cd9203f8ecb9cb34ccc3d972",
    "hom-set/simplex1-into-quotient": "fecfa4b693a27da42920e17ec5eb3de6bffad6281b30dfba7c41af7aec808693",
    "hom-set/simplex2-into-quotient": "bbee035522b61fdf0db7a7b6ce17c58cc9387d55945f4765703a511b743921b7",
    "hom-set/simplex2-into-tail-nerve": "05b09700c1b6503489ca0e100b35232017353e755c91950dc15c3c91b36598db",
    "hom-set/unpointed-s0-into-two-points": "b59effd2cc3bccf3c311518929aa0a340262a8e3fa9fcfaaca27b5d1bc77bb77",
    "iso-check/all-pairs": "a0882c7caa37d4963ebc0807800908ca198f333f9c3764003db47751bfa6e200",
    "iso-check/budget-cut": "a5de84926c57ad2245e256845b6f4219f6ac583a69bfc6039911b6ce7a9fb5bf",
}


def _digest(case):
    return hashlib.sha256(canonical_dumps(CASES[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_digests(case):
    assert _digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(case)}",')
