"""Tier-1 validates every simplicial set and finite category it builds.

The library checks data where it enters (the `jsonio` loaders,
`from_elements`, the validators of the diagram types) and trusts its own
constructions to be valid.  Here those constructions are checked instead:
during every test, each `FinSimpSet` and each `FinCat` is validated as
soon as it is constructed, so a construction that builds an invalid value
fails the test that built it.
"""

import functools

import pytest

from gammaspace.catcore import FinCat
from gammaspace.simplicial import FinSimpSet


def _validating(init):
    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.validate()

    return __init__


@pytest.fixture(autouse=True)
def validate_every_construction(monkeypatch):
    for cls in (FinSimpSet, FinCat):
        monkeypatch.setattr(cls, "__init__", _validating(cls.__init__))
