"""Tier-1 checks what the library trusts by construction.

The library checks data where it enters (the `jsonio` loaders,
`from_elements`, the validators of the diagram types) and trusts its own
constructions to be valid.  Here those constructions are checked instead:
during every test, each `FinSimpSet` and each `FinCat` is validated as
soon as it is constructed, so a construction that builds an invalid value
fails the test that built it.  Likewise every map out of a colimit is
built from legs that are checked to form a cocone: `Colimit.mediating`
reads one representative of each cell, which is sound only when the legs
commute with every arrow of the diagram.
"""

import functools

import pytest

from gammaspace.catcore import FinCat
from gammaspace.simplicial import Colimit, FinSimpSet, SimplexRef, map_cap


def _validating(init):
    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.validate()

    return __init__


def _checking_cocone(mediating):
    @functools.wraps(mediating)
    def checked(self, leg_of, target):
        # every nondegenerate cell c of an arrow's source, in each
        # dimension the map assigns: leg_of(di)(m(c)) == leg_of(si)(c)
        for si, di, m in self.arrows:
            src, dst = leg_of(si), leg_of(di)
            for n in range(map_cap(self.space, target) + 1):
                for name in self.objects[si].cell_ids(n):
                    c = SimplexRef(name)
                    assert dst(m(c, n), n) == src(c, n), (
                        f"cocone does not commute with arrow {si} -> {di} on {name!r}")
        return mediating(self, leg_of, target)

    return checked


@pytest.fixture(autouse=True)
def validate_every_construction(monkeypatch):
    for cls in (FinSimpSet, FinCat):
        monkeypatch.setattr(cls, "__init__", _validating(cls.__init__))
    monkeypatch.setattr(Colimit, "mediating", _checking_cocone(Colimit.mediating))
