"""Golden digests of the five complexes of maps Delta[d] x A -> X.

Each case builds one construction on fixed small inputs and hashes the
canonical JSON of (a) the complex it returns and (b) the table sending each
nondegenerate cell name to the key(s) of the map(s) it stands for.  Cell
names follow the sorted order of the element keys, so any change to which
maps qualify, to their keys, or to the face and degeneracy structure moves a
digest.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_map_complex.py
"""

import hashlib

import pytest

from test_cocart import cotensor_over_base

from gammaspace.cocart import nelg
from gammaspace.corpus import (
    constant_gamma_space,
    glued_presentation,
    max_monoid_space,
    z2_monoid_space,
)
from gammaspace.gspace import (
    GammaMappingSpace,
    gamma_rep,
    mapping_space_tabulated,
    normalize,
)
from gammaspace.jsonio import (
    canonical_dumps,
    marked_to_json,
    over_object_to_json,
    simpset_to_json,
)
from gammaspace.marked import MarkedMappingObject, mark
from gammaspace.shapes import Exponential, sphere_zero, standard_simplex
from gammaspace.simplicial import SimpMap


def _keys(element):
    if isinstance(element, SimpMap):
        return element.key()
    return [m.key() for m in element]


def _table(space, element_of):
    return {
        name: _keys(element_of(name))
        for n in range(space.dim_bound + 1)
        for name in space.cell_ids(n)
    }


def _exponential():
    e = Exponential(standard_simplex(2), standard_simplex(1))
    return simpset_to_json(e.space), _table(e.space, e.element_of)


def _gamma_mapping_space(p):
    # the glued presentation has arrows, so its families are filtered
    ms = GammaMappingSpace(p, z2_monoid_space(3), dim_cap=1)
    return simpset_to_json(ms.space), _table(ms.space, ms.element_of)


def _tabulated(x, y, level_cap, dim_cap, pointed):
    space, element_of = mapping_space_tabulated(x, y, level_cap, dim_cap,
                                                pointed=pointed)
    return simpset_to_json(space), _table(space, element_of)


def _normalized(pointed):
    nor_x, _ = normalize(z2_monoid_space(2))
    nor_y, _ = normalize(max_monoid_space(2))
    return _tabulated(nor_x, nor_y, 2, 1, pointed)


def _constant(shape, pointed):
    # nondegenerate edges and triangles (for Delta[1]), and a pointed
    # filter that keeps half the vertices (for S^0)
    x = constant_gamma_space(2, shape)
    return _tabulated(x, x, 1, 2, pointed)


def _marked():
    mo = MarkedMappingObject(mark(standard_simplex(1), "flat"),
                             mark(standard_simplex(2), "sharp"))
    shape = {"plus": marked_to_json(mo.plus), "sharp": simpset_to_json(mo.sharp)}
    return shape, _table(mo.flat, mo.element_of)


def _cotensor():
    over, _, _ = nelg(1, 1, dim_cap=1)
    obj, element_of = cotensor_over_base(over, standard_simplex(1), dim_cap=1)
    return over_object_to_json(obj), _table(obj.marked.underlying, element_of)


CASES = {
    "exponential": _exponential,
    "gamma-mapping-space": lambda: _gamma_mapping_space(gamma_rep(1)),
    "gamma-mapping-space-glued": lambda: _gamma_mapping_space(glued_presentation()),
    "normalized-pointed": lambda: _normalized(True),
    "normalized-plain": lambda: _normalized(False),
    "constant-simplex-plain": lambda: _constant(standard_simplex(1), False),
    "constant-s0-pointed": lambda: _constant(sphere_zero(), True),
    "marked-mapping-object": _marked,
    "cotensor-over-base": _cotensor,
}

# (space digest, name -> key table digest), recorded before the five
# constructions shared one builder
DIGESTS = {
    "constant-s0-pointed": (
        "b71868b55ee9047562ad495dc00f8c1c749db50aee31d38896b270eb09ff0792",
        "1deff5192e93ef80b1a2ad18d9f706b852b7bfb0e754b4af9116dad3769adc1f",
    ),
    "constant-simplex-plain": (
        "dec9d7005b63ad2e3351ee14873ab70e9ca50976000d8eb8aa3d567338cfef1c",
        "583d2c3c2931be4b2726aa368084effdddd6a153abd1a8552e3c08cb244e4598",
    ),
    "cotensor-over-base": (
        "683e52e1b6d5d70f4857a6329af68dfac6e8ea72f52244b945f44a849c3fadb5",
        "9f8baebb38454e5869194891c0dae9baf9808a9c80985f388bb1e8dc20643f1e",
    ),
    "exponential": (
        "4c8759a4de40764261c525eeb780cd83412bc39af973456931fe5f23b0d2022a",
        "107245fca79e27d89fac4148f24e6edb437ac925a8c6ceb7ff62c80bf51b47cf",
    ),
    "gamma-mapping-space": (
        "9510243899fc1c3ae01acdbcd778b5e3b9de0aab47773485676279526095c6a6",
        "f5f4c6fb93197500e8dfc2238d784bc14e7a8ad950182744323907b52c4473c3",
    ),
    "gamma-mapping-space-glued": (
        "2f608eb64d48c60c502d1f70601b2b05a8abe24f18ee99268cbba33538042d2e",
        "ad859f72eac006fc6b9e897d9cd699ff10008650f425696baf4ed3dfa23fac99",
    ),
    "marked-mapping-object": (
        "cbe2630b56a0d1df80fdcab5bcc866703351c7da79eb8beddae8da53159e1cc8",
        "107245fca79e27d89fac4148f24e6edb437ac925a8c6ceb7ff62c80bf51b47cf",
    ),
    "normalized-plain": (
        "2f608eb64d48c60c502d1f70601b2b05a8abe24f18ee99268cbba33538042d2e",
        "6b2799fb573601fada00e8f98c25edc3f4acc6d621ccbcb8dba98e3185f24f6c",
    ),
    "normalized-pointed": (
        "2f608eb64d48c60c502d1f70601b2b05a8abe24f18ee99268cbba33538042d2e",
        "6b2799fb573601fada00e8f98c25edc3f4acc6d621ccbcb8dba98e3185f24f6c",
    ),
}


def _digests(case):
    return tuple(
        hashlib.sha256(canonical_dumps(part).encode()).hexdigest()
        for part in CASES[case]()
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_map_complex_digests(case):
    assert _digests(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        space, table = _digests(case)
        print(f'    "{case}": (\n        "{space}",\n        "{table}",\n    ),')
