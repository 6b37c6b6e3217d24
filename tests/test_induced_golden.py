"""Golden digests of the induced maps that check the closed monoidal
structure of the convolution.

Each case builds one family of induced maps on fixed corpus inputs and
hashes the canonical JSON of the map keys (and of the verdicts or reports
built from them):

- the unit, symmetry and associativity comparisons: `m.evaluate(n).key()`
  for the cellwise map `m` each law hands to `_levelwise_iso_verdict`;
- `convolve_with_map(p, h_map(1, 1))` at levels 0-2, and the
  `semiadditivity_probe` reports;
- the `yoneda_comparison` maps, and the `smash_precompose_comparison`
  verdicts;
- `internal_hom(...).action(g).key()` for every based map g between levels
  <= 2;
- `_mapping_space_induced` on a normalization unit, and `exponential_map`
  (the helper of tests/test_shapes.py).

Any change to an assignment of one of these maps moves a digest.  To print
the digests of the current code:

    PYTHONPATH=src python tests/test_induced_golden.py
"""

import hashlib

import pytest

from gammaspace import gspace
from gammaspace.corpus import (
    presented_corpus,
    tabulated_corpus,
    z2_monoid_space,
)
from gammaspace.gspace import (
    _mapping_space_induced,
    all_morphisms_upto,
    convolve_with_map,
    day_assoc_comparison,
    day_symmetry_comparison,
    day_unit_comparison,
    h_map,
    internal_hom,
    normalize,
    semiadditivity_probe,
    smash_precompose_comparison,
    yoneda_comparison,
)
from gammaspace.jsonio import canonical_dumps
from gammaspace.shapes import (
    Exponential,
    standard_point,
    standard_simplex,
)
from gammaspace.simplicial import SimplexRef, SimpMap
from gammaspace.verdicts import Budget
from test_shapes import exponential_map

LEVELS = range(3)


def _comparison(law, *spaces):
    seen = []
    original = gspace._levelwise_iso_verdict

    def record(m, levels, name):
        seen.append(m)
        return original(m, levels, name)

    gspace._levelwise_iso_verdict = record
    try:
        verdict = law(*spaces, LEVELS)
    finally:
        gspace._levelwise_iso_verdict = original
    (m,) = seen
    return {"status": verdict.status,
            "maps": [m.evaluate(n).key() for n in LEVELS]}


def _structure():
    names = dict(presented_corpus())
    return {
        "unit": {name: _comparison(day_unit_comparison, p)
                 for name, p in names.items()},
        "symmetry": {f"{a}*{b}": _comparison(day_symmetry_comparison,
                                             names[a], names[b])
                     for a, b in [("rep1", "rep2"), ("rep1-interval", "rep1+rep1"),
                                  ("rep2", "rep1-two-points"), ("glued", "rep1")]},
        "associativity": {f"{a}*{b}*{c}": _comparison(day_assoc_comparison,
                                                      names[a], names[b], names[c])
                          for a, b, c in [("rep1", "rep1", "rep2"),
                                          ("rep0", "rep2", "rep1"),
                                          ("rep1", "rep1-interval", "rep1")]},
    }


def _convolved_h():
    names = dict(presented_corpus())
    out = {}
    for name in ("rep0", "rep1", "rep1-interval", "rep1+rep1", "glued"):
        m, _, _ = convolve_with_map(names[name], h_map(1, 1))
        out[name] = [m.evaluate(n).key() for n in LEVELS]
    return out


def _semiadditivity():
    names = dict(presented_corpus())
    return {name: semiadditivity_probe(names[name], 2)
            for name in ("rep0", "rep1", "rep1-interval", "rep1+rep1")}


def _yoneda():
    out = {}
    for name, y in tabulated_corpus(2):
        for n in LEVELS:
            cmp, v = yoneda_comparison(n, y, dim_cap=1)
            out[f"{name}@{n}"] = {"status": v.status, "map": cmp.key()}
    return out


def _smash_precompose():
    out = {}
    for name, x in tabulated_corpus(4):
        for n in LEVELS:
            v = smash_precompose_comparison(x, n, level_cap=2)
            out[f"{name}@{n}"] = [v.status, v.checked, v.details, repr(v.witness)]
    return out


def _internal_hom():
    out = {}
    for name, p in presented_corpus()[:4]:
        hom = internal_hom(p, z2_monoid_space(4), level_bound=2, dim_cap=1)
        out[name] = [[repr(g), hom.action(g).key()] for g in all_morphisms_upto(2)]
    return out


def _normalization_unit():
    _, eta = normalize(z2_monoid_space(2))
    return [_mapping_space_induced(eta, n, Budget()).key() for n in LEVELS]


def _exponential():
    d2 = standard_simplex(2)
    u = SimpMap(standard_point(), standard_simplex(1), {(0, "0"): SimplexRef("1")})
    return exponential_map(u, Exponential(d2, standard_simplex(1)),
                           Exponential(d2, standard_point())).key()


CASES = {
    "structure-comparisons": _structure,
    "convolve-with-h-map": _convolved_h,
    "semiadditivity-probe": _semiadditivity,
    "yoneda-comparison": _yoneda,
    "smash-precompose": _smash_precompose,
    "internal-hom-action": _internal_hom,
    "normalization-unit-induced": _normalization_unit,
    "exponential-map": _exponential,
}

# recorded before the induced maps were built from the data their ends
# were built with
DIGESTS = {
    "convolve-with-h-map": "c48c0d469790bbf6b7fa30db62bc199c86f72e46c78b3062537b744c1072c1a9",
    "exponential-map": "b2e8c7ecd78ebbe96322bd208b244c38c3c2de2350f519851f13001402e6dd84",
    "internal-hom-action": "f64138d6aa24aac8851df04fc8aa28ba39cd785d7193aa335bbddf3e79602608",
    "normalization-unit-induced": "510a43e2de53851a0b973644e51f7189e775a0258c2dfd937e9b0e0e9ca74838",
    "semiadditivity-probe": "222428f2a5b7bcb6bbab56a5c20b7d265d93d8507428cc32d7746d06a025214e",
    "smash-precompose": "a22ccb50bcd88cccf92931f094c98cdf24c607ce6a7cdf5de27aa8f8376db2be",
    "structure-comparisons": "101b9631fe0c6863d310861beba5f6e177b27c683d189bf4eba85ebda6ef3572",
    "yoneda-comparison": "2473a176c3c440ffb77f2ac1b16a613639d313da0fc092b0fc7aaedd630d48b2",
}


def _digest(case):
    return hashlib.sha256(canonical_dumps(CASES[case]()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_induced_map_digests(case):
    assert _digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(case)}",')
