"""The skeletal category of finite based sets n+ = {0,...,n} (basepoint 0):
morphism calculus, the inert/active factorization, sums and smashes.

A based map is a named tuple (src, dst, table), so it compares and hashes
in C and equals the plain tuple of its fields.  Tables are checked where
they enter, by `based_map`; the constructions here build well-formed
tables from well-formed ones and trust them.  `enumerate_homs` returns a
tuple kept in a bounded memo."""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

# the bound of the `enumerate_homs` memo, as for the word memos
HOMS_MEMO_SIZE = 1 << 10


class GammaMorphism(namedtuple("GammaMorphism", "src dst table")):
    """A based map src+ -> dst+; table[i-1] is the image of i (1-indexed
    elements, 0 always maps to 0)."""

    __slots__ = ()

    def __call__(self, i):
        return 0 if i == 0 else self.table[i - 1]

    def support(self):
        """Elements of the source not sent to the basepoint, in order."""
        return tuple(i for i in range(1, self.src + 1) if self.table[i - 1] != 0)

    def is_inert(self):
        """Every nonzero element of the target has exactly one preimage."""
        hits = [v for v in self.table if v != 0]
        return len(hits) == len(set(hits)) and set(hits) == set(range(1, self.dst + 1))

    def is_inert_ordered(self):
        """Inert and order-preserving on the support; the canonical support
        projections are exactly these, and the inert/active factorization
        is unique with this inert class (not with the plain one: a swap
        followed by a fold factors the fold a second time)."""
        hits = [v for v in self.table if v != 0]
        return self.is_inert() and hits == sorted(hits)

    def is_active(self):
        """Only the basepoint maps to the basepoint."""
        return all(v != 0 for v in self.table)

    def then(self, other: "GammaMorphism") -> "GammaMorphism":
        assert self.dst == other.src
        image = (0,) + other.table
        return GammaMorphism(self.src, other.dst, tuple(map(image.__getitem__, self.table)))

    def key(self):
        return (self.src, self.dst, self.table)

    def __repr__(self):
        return f"({self.src}+->{self.dst}+:{list(self.table)})"


def based_map(src, dst, table) -> GammaMorphism:
    """The based map src+ -> dst+ with the given table, checked: the table
    has one entry per nonzero source element, each in 0..dst."""
    if len(table) != src or any(not (0 <= v <= dst) for v in table):
        raise ValueError(f"ill-formed based map {table} : {src}->{dst}")
    return GammaMorphism(src, dst, table)


def gamma_identity(n) -> GammaMorphism:
    return GammaMorphism(n, n, tuple(range(1, n + 1)))


def zero_map(n, m) -> GammaMorphism:
    return GammaMorphism(n, m, (0,) * n)


def delta_projection(k, l, which) -> GammaMorphism:
    """The projections (k+l)+ -> k+ (which='left') and (k+l)+ -> l+."""
    if which == "left":
        return GammaMorphism(k + l, k, tuple(range(1, k + 1)) + (0,) * l)
    return GammaMorphism(k + l, l, (0,) * k + tuple(range(1, l + 1)))


@functools.lru_cache(maxsize=HOMS_MEMO_SIZE)
def enumerate_homs(n, m):
    """All (m+1)^n based maps n+ -> m+, lexicographically ordered."""
    return tuple(
        GammaMorphism(n, m, t)
        for t in itertools.product(range(m + 1), repeat=n)
    )


def factor_inert_active(f: GammaMorphism):
    """The unique factorization of f as an active map after an inert one.

    The inert factor projects onto the support; the active factor is the
    restriction of f to it.  Returns (inert, active, support).
    """
    supp = f.support()
    pos = {i: p + 1 for p, i in enumerate(supp)}
    inert = GammaMorphism(
        f.src, len(supp), tuple(pos.get(i, 0) for i in range(1, f.src + 1))
    )
    active = GammaMorphism(len(supp), f.dst, tuple(f(i) for i in supp))
    return inert, active, supp


def smash_element(i, j, l):
    """Lexicographic encoding of the nonzero pair (i, j) in (k*l)+."""
    if i == 0 or j == 0:
        return 0
    return (i - 1) * l + j


def smash_gamma(f: GammaMorphism, g: GammaMorphism) -> GammaMorphism:
    """f smash g, acting coordinatewise under the lexicographic encoding
    (a basepoint coordinate collapses the pair)."""
    k, l = f.src, g.src
    table = []
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            table.append(smash_element(f(i), g(j), g.dst))
    return GammaMorphism(k * l, f.dst * g.dst, tuple(table))


def smash_twist(k, l) -> GammaMorphism:
    """The symmetry isomorphism (k*l)+ -> (l*k)+ swapping coordinates."""
    table = []
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            table.append(smash_element(j, i, k))
    return GammaMorphism(k * l, l * k, tuple(table))


def elementary_maps(cap):
    """The elementary based maps between levels 0..cap: the adjacent
    transpositions of n+, the collapse of n to the basepoint and the merge
    of n into n-1 (both n+ -> (n-1)+), and the inclusion n+ -> (n+1)+ for
    n < cap.  Every based map between levels <= cap is a composite of them
    through levels <= cap (checked by closure in the test suite).

    So a law about based maps that holds for identities and passes from f
    and g to f.then(g) is checked exactly on these maps, by induction on
    the word g1 ... gk of each based map.  Given functorial actions, that
    covers naturality of a level-wise map, the squares of a natural family
    and the preservation of a marking.  Functoriality itself,
    action(f.then(h)) == action(f) then action(h) for every f, follows by
    the same induction on h's word from h elementary; with f an identity,
    which acts as the identity, the word is action(h)."""
    gens = []
    for n in range(cap + 1):
        ident = tuple(range(1, n + 1))
        for i in range(1, n):
            gens.append(GammaMorphism(n, n, ident[:i - 1] + (i + 1, i) + ident[i + 1:]))
        if n >= 1:
            gens.append(GammaMorphism(n, n - 1, ident[:-1] + (0,)))
        if n >= 2:
            gens.append(GammaMorphism(n, n - 1, ident[:-1] + (n - 1,)))
        if n < cap:
            gens.append(GammaMorphism(n, n + 1, ident))
    return gens
