"""Finite truncated simplicial sets with symbolic degeneracies.

Only nondegenerate simplices are stored; every simplex is addressed by a
SimplexRef = (nondegenerate base, strictly decreasing degeneracy word) in
Eilenberg-Zilber normal form.  A ref is a named tuple: it compares, hashes
and sorts in C, and it equals the plain tuple of its fields.  A set
carries a dimension bound and is read coskeletally above it: a map into
it in higher dimension is determined by its truncation, so enumeration
never needs cells beyond the bound.

All values are immutable after construction; operations are pure.  Each
FinSimpSet keeps its cell ids per dimension and its top dimension from
construction.  A face is read off the degeneracy word by the simplicial
identities (`face_word`, word arithmetic with no set data), so `act`
serves only general operators and its memo holds no faces.  By
Eilenberg-Zilber a nondegenerate ref is already in normal form, so an
empty word is the identity: the maps, `Colimit.ref_in`, `FinSimpSet.face`
and the map search read a nondegenerate ref straight off their tables, and
the word memos of `apply_word` and `face_word` see only nonempty words.
The caches below (the word-arithmetic memos, each FinSimpSet's face and
horn indexes, neighbour table, search order and `act` memo, and the face
table and pair memo of one `product` call) only ever store what a pure
function returns for its key, so a racing fill writes the same value
twice.

Maps are built in two ways.  `cellwise` assigns a given image to every
nondegenerate source cell, and every map given cell by cell (identities,
constants, inclusions, pairings, products of maps, coprojections) goes
through it.  `Colimit.mediating` builds the one map out of a colimit that a
cocone of legs fixes.  Both assign the dimensions `map_cap` gives, the one
statement of how far a map into a truncated target is defined.  Two
composites are compared by `commutes`, cell by cell, building neither.

Checks run where data enters: `FinSimpSet.validate` and `SimpMap.validate`
are called by the loaders, the first by `from_elements` too, and both
refuse a word out of normal form.  Neither reads a basepoint: a pointed
map is searched with its basepoint pinned (`maps(..., fixed=...)`).  The
constructions here (`product`, `Colimit`, the subobjects, the maps) trust
their valid inputs and do not re-check their output; the tests validate
every set they construct and check every cocone given to
`Colimit.mediating`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .verdicts import (
    Budget,
    BudgetExceededError,
    Verdict,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    backtrack,
)

# ---------------------------------------------------------------------------
# monotone-map arithmetic
#
# A monotone map [m] -> [n] is a tuple of length m+1 with nondecreasing
# entries in 0..n.  Degeneracy words correspond to monotone surjections,
# faces to monotone injections.  The word arithmetic is memoized: the same
# few words and operators recur millions of times in a search, and each
# memo is bounded so no long-lived process grows without limit.

WORD_MEMO_SIZE = 1 << 14


def mcompose(outer, inner):
    """outer o inner, both monotone tuples."""
    return tuple(outer[v] for v in inner)


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def word_to_surj(word, m):
    """Degeneracy word (strictly decreasing) acting on dimension m-|word|,
    as the monotone surjection [m] ->> [m - len(word)]."""
    drop = set(word)
    out = []
    v = 0
    for t in range(m + 1):
        out.append(v)
        if t not in drop:
            v += 1
    return tuple(out)


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def surj_to_word(surj):
    """Inverse of word_to_surj: positions where the surjection repeats."""
    word = [j for j in range(len(surj) - 1) if surj[j] == surj[j + 1]]
    word.reverse()
    return tuple(word)


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def factor_monotone(alpha):
    """Factor a monotone map as injection o surjection; returns (inj, surj)."""
    image = sorted(set(alpha))
    pos = {v: i for i, v in enumerate(image)}
    surj = tuple(pos[v] for v in alpha)
    return tuple(image), surj


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def delta_tuple(i, n):
    """The injection [n-1] -> [n] skipping i."""
    return tuple(t for t in range(n + 1) if t != i)


def sigma_tuple(i, n):
    """The surjection [n+1] -> [n] repeating i."""
    return tuple(t if t <= i else t - 1 for t in range(n + 2))


def is_normal_word(word, dim):
    """Whether word is a degeneracy word in normal form on a dim-simplex:
    strictly decreasing entries in 0..dim-1."""
    if not word:
        return True
    return word == tuple(sorted(set(word) & set(range(dim)), reverse=True))


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def face_word(word, n, i):
    """d_i of an n-simplex s_word x, by the simplicial identities d_i s_j:
    (None, w) when d_i s_word x = s_w x, (j, w) when it is s_w d_j x.  The
    surjection of the word without position i still hits its value there
    exactly in the first case; dropping a missed value moves no repeat."""
    surj = word_to_surj(word, n)
    rest = surj[:i] + surj[i + 1:]
    return None if surj[i] in rest else surj[i], surj_to_word(rest)


# ---------------------------------------------------------------------------
# refs and cells


class SimplexRef(namedtuple("SimplexRef", "base degs")):
    """Address of a possibly-degenerate simplex: nondegenerate base id plus
    a strictly decreasing degeneracy word (empty = the base itself).

    A named tuple, so it compares, hashes and sorts in C as the plain tuple
    (base, degs).  The no-op `__init__` is the one hook a caller may wrap
    to count creations; `object.__init__` would refuse the arguments."""

    __slots__ = ()

    def __new__(cls, base, degs=()):
        return tuple.__new__(cls, (base, degs))

    def __init__(self, _base, _degs=()):
        pass

    def __repr__(self):
        if not self.degs:
            return f"~{self.base}"
        return f"~{self.base}s{list(self.degs)}"


@functools.lru_cache(maxsize=WORD_MEMO_SIZE)
def apply_word(ref: SimplexRef, word, ref_dim: int) -> SimplexRef:
    """Apply a degeneracy word (operator for dimension ref_dim upward) to a
    ref of dimension ref_dim; pure word arithmetic, no face data needed."""
    m = ref_dim + len(word)
    outer = word_to_surj(word, m)
    inner = word_to_surj(ref.degs, ref_dim)
    return SimplexRef(ref.base, surj_to_word(mcompose(inner, outer)))


class FinSimpSet:
    """Truncated finite simplicial set.

    cells maps each dimension 0..dim_bound to {cell id: faces tuple}.
    Face entries are SimplexRefs one dimension down.  `pointed` optionally
    names a vertex.
    """

    def __init__(self, dim_bound, cells, pointed=None, complete=True):
        self.dim_bound = dim_bound
        self._cells = tuple(
            dict(sorted(cells.get(n, {}).items())) for n in range(dim_bound + 1)
        )
        self._ids = tuple(tuple(c) for c in self._cells)
        self._top_dim = max((n for n, ids in enumerate(self._ids) if ids), default=0)
        self.pointed = pointed
        # complete: no nondegenerate simplices exist above dim_bound, so the
        # stored complex is the whole object and bounds may be raised freely.
        self.complete = complete
        # caches of pure functions of the (never mutated) cells
        self._ref_cache = {}
        self._face_index = {}
        self._act_memo = {}
        self._order_memo = {}
        self._neighbours = None
        self._tau1 = None  # kept by nerve.tau1
        if pointed is not None and pointed not in self._cells[0]:
            raise ValueError(f"basepoint {pointed!r} is not a vertex")

    # -- structure access ---------------------------------------------------

    def cell_ids(self, n):
        if n < 0 or n > self.dim_bound:
            return ()
        return self._ids[n]

    def has_cell(self, n, name):
        return 0 <= n <= self.dim_bound and name in self._cells[n]

    def faces_of(self, n, name):
        return self._cells[n][name]

    def cell_count(self, n):
        return len(self.cell_ids(n))

    def total_cells(self):
        return sum(self.cell_count(n) for n in range(self.dim_bound + 1))

    def base_dim(self, ref: SimplexRef, ref_dim: int) -> int:
        return ref_dim - len(ref.degs)

    def refs(self, n):
        """All n-simplices, as refs (nondegenerate bases with words)."""
        if n < 0:
            return ()
        if n in self._ref_cache:
            return self._ref_cache[n]
        out = []
        for k in range(min(n, self.dim_bound) + 1):
            words = list(itertools.combinations(range(n - 1, -1, -1), n - k))
            for name in self.cell_ids(k):
                for w in words:
                    out.append(SimplexRef(name, w))
        out.sort()
        out = tuple(out)
        self._ref_cache[n] = out
        return out

    def constraint_order(self, cap):
        """The backtracking order of the cells of dimension <= cap when
        this set is a map's source (see `_constraint_order`), kept per cap."""
        return self._search_plan(cap)[0]

    def vertex_links(self, cap):
        """For each vertex, the (side, neighbour) pairs of the edges in
        `constraint_order(cap)` that join it to a vertex earlier in that
        order, the neighbour being the edge's d_side face; kept per cap."""
        return self._search_plan(cap)[1]

    def _search_plan(self, cap):
        if cap not in self._order_memo:
            order = tuple(_constraint_order(self, cap))
            self._order_memo[cap] = (order, _vertex_links(self, order))
        return self._order_memo[cap]

    def neighbours(self):
        """(side, vertex ref) -> the sorted tuple of vertex refs at the
        other end of the edges whose d_side face is that vertex: the images
        a vertex may take when an edge joins it to one mapped there."""
        if self._neighbours is None:
            table = {}
            for d0, d1 in self.face_index(1):
                table.setdefault((0, d0), set()).add(d1)
                table.setdefault((1, d1), set()).add(d0)
            self._neighbours = {k: tuple(sorted(v)) for k, v in table.items()}
        return self._neighbours

    def face_index(self, n, at=None):
        """Every n-ref (n >= 1) bucketed by its faces at the positions `at`
        (a tuple; all n + 1 by default), in refs(n) order, so the
        n-simplices with a prescribed boundary, or part of one, are one
        dictionary lookup.  Each table is published once (`setdefault`)."""
        table = self._face_index.get((n, at))
        if table is None:
            built = {}
            positions = range(n + 1) if at is None else at
            for ref in self.refs(n):
                built.setdefault(tuple(self.face(ref, n, i) for i in positions), []).append(ref)
            table = self._face_index.setdefault((n, at), {k: tuple(v) for k, v in built.items()})
        return table

    def horn_index(self, n, k):
        """Every n-ref bucketed by its faces other than d_k (`face_index`),
        so the fillers of a horn Lambda^k[n] are one dictionary lookup."""
        return self.face_index(n, tuple(i for i in range(n + 1) if i != k))

    # -- the simplicial action ----------------------------------------------

    def act(self, ref: SimplexRef, ref_dim: int, alpha) -> SimplexRef:
        """Apply the monotone operator alpha (a tuple): [m] -> [ref_dim] to
        ref.  Memoized per set, keyed by the ref's fields, ref_dim and
        alpha."""
        key = (ref.base, ref.degs, ref_dim, alpha)
        out = self._act_memo.get(key)
        if out is None:
            base_dim = self.base_dim(ref, ref_dim)
            sigma = word_to_surj(ref.degs, ref_dim)
            beta = mcompose(sigma, alpha)
            inj, surj = factor_monotone(beta)
            dropped = self._apply_injection(ref.base, base_dim, inj)
            dropped_dim = len(inj) - 1
            tau = word_to_surj(dropped.degs, dropped_dim)
            out = SimplexRef(dropped.base, surj_to_word(mcompose(tau, surj)))
            self._act_memo[key] = out
        return out

    def _apply_injection(self, name, dim, inj) -> SimplexRef:
        if len(inj) == dim + 1:
            return SimplexRef(name, ())
        missing = max(v for v in range(dim + 1) if v not in set(inj))
        face = self._cells[dim][name][missing]
        rest = tuple(v if v < missing else v - 1 for v in inj)
        return self.act(face, dim - 1, rest)

    def face(self, ref: SimplexRef, ref_dim: int, i: int) -> SimplexRef:
        if not ref.degs:
            return self._cells[ref_dim][ref.base][i]
        j, word = face_word(ref.degs, ref_dim, i)
        if j is None:
            return SimplexRef(ref.base, word)
        k = ref_dim - len(ref.degs)
        return apply_word(self._cells[k][ref.base][j], word, k - 1)

    def degen(self, ref: SimplexRef, ref_dim: int, i: int) -> SimplexRef:
        return apply_word(ref, (i,), ref_dim)

    def vertices_of(self, ref: SimplexRef, ref_dim: int):
        return tuple(self.act(ref, ref_dim, (t,)) for t in range(ref_dim + 1))

    def edges_of(self, ref: SimplexRef, ref_dim: int):
        """All edge refs of a simplex (one per pair of vertex positions)."""
        return tuple(
            self.act(ref, ref_dim, (a, b))
            for a, b in itertools.combinations(range(ref_dim + 1), 2)
        )

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Exhaustively check face resolution and simplicial identities."""
        for n in range(self.dim_bound + 1):
            for name, faces in self._cells[n].items():
                if len(faces) != (n + 1 if n > 0 else 0):
                    raise ValueError(f"cell {name!r} in dim {n} has {len(faces)} faces")
                for ref in faces:
                    if not is_normal_word(ref.degs, n - 1):
                        raise ValueError(
                            f"face {ref!r} of {name!r} has degeneracy word {list(ref.degs)};"
                            f" expected strictly decreasing entries in 0..{n - 2}")
                    if not self.has_cell(n - 1 - len(ref.degs), ref.base):
                        raise ValueError(f"face {ref!r} of {name!r} does not resolve")
        for n in range(2, self.dim_bound + 1):
            for name in self.cell_ids(n):
                top = SimplexRef(name, ())
                faces = [self.face(top, n, j) for j in range(n + 1)]
                for j in range(n + 1):
                    for i in range(j):
                        lhs = self.face(faces[j], n - 1, i)
                        rhs = self.face(faces[i], n - 1, j - 1)
                        if lhs != rhs:
                            raise ValueError(
                                f"simplicial identity fails on {name!r}: "
                                f"d{i}d{j} != d{j-1}d{i}"
                            )
        return self

    def top_dim(self):
        """Largest dimension carrying a nondegenerate cell."""
        return self._top_dim

    def rebound(self, dim_bound) -> "FinSimpSet":
        """Same cells under a new bound.  Raising the bound is exact only
        for complete complexes; lowering is always a truncation (the result
        is no longer complete unless nothing was cut)."""
        if dim_bound > self.dim_bound and not self.complete:
            raise ValueError("cannot raise the bound of a coskeletal truncation")
        cells = {
            n: dict(self._cells[n])
            for n in range(min(dim_bound, self.dim_bound) + 1)
        }
        complete = self.complete and (dim_bound >= self.top_dim())
        return FinSimpSet(dim_bound, cells, pointed=self.pointed, complete=complete)

    def is_discrete(self):
        return all(self.cell_count(n) == 0 for n in range(1, self.dim_bound + 1))

    def summary(self):
        return [self.cell_count(n) for n in range(self.dim_bound + 1)]

    def __repr__(self):
        p = f", pointed={self.pointed!r}" if self.pointed is not None else ""
        return f"FinSimpSet(D={self.dim_bound}, cells={self.summary()}{p})"


def discrete_set(labels, pointed=None) -> FinSimpSet:
    """The discrete simplicial set on the given vertex labels."""
    return FinSimpSet(0, {0: {str(v): () for v in labels}}, pointed=pointed)


# ---------------------------------------------------------------------------
# simplicial maps


class SimpMap:
    """Map of truncated simplicial sets.

    assignment sends each nondegenerate source cell of dimension
    <= `map_cap(source, target)`, and nothing else, to a target ref of the
    same dimension; degenerate simplices follow by word arithmetic.
    """

    def __init__(self, source: FinSimpSet, target: FinSimpSet, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    @property
    def cap(self):
        return map_cap(self.source, self.target)

    def __call__(self, ref: SimplexRef, ref_dim: int) -> SimplexRef:
        if not ref.degs:
            return self.assignment[(ref_dim, ref.base)]
        base_dim = ref_dim - len(ref.degs)
        image = self.assignment[(base_dim, ref.base)]
        return apply_word(image, ref.degs, base_dim)

    def validate(self):
        for n in range(self.cap + 1):
            for name in self.source.cell_ids(n):
                if (n, name) not in self.assignment:
                    raise ValueError(f"no assignment for cell {name!r} in dim {n}")
                img = self.assignment[(n, name)]
                if not is_normal_word(img.degs, n):
                    raise ValueError(
                        f"image {img!r} of {name!r} has degeneracy word {list(img.degs)};"
                        f" expected strictly decreasing entries in 0..{n - 1}")
                if not self.target.has_cell(self.target.base_dim(img, n), img.base):
                    raise ValueError(f"image {img!r} of {name!r} does not resolve")
                for i in range(n + 1) if n > 0 else ():
                    want = self(self.source.faces_of(n, name)[i], n - 1)
                    got = self.target.face(img, n, i)
                    if want != got:
                        raise ValueError(
                            f"map does not commute with d{i} on {name!r}"
                        )
        if len(self.assignment) != sum(map(self.source.cell_count, range(self.cap + 1))):
            n, name = next((n, name) for n, name in self.assignment
                           if n > self.cap or not self.source.has_cell(n, name))
            raise ValueError(f"the assignment names {name!r} in dim {n}, which is no"
                             f" source cell in dims 0..{self.cap}")
        return self

    def then(self, other: "SimpMap") -> "SimpMap":
        assert other.source is self.target
        cap = min(self.cap, map_cap(self.source, other.target))
        assignment = {
            (n, name): other(ref, n)
            for (n, name), ref in self.assignment.items()
            if n <= cap
        }
        return SimpMap(self.source, other.target, assignment)

    def key(self):
        return tuple(
            (n, name, ref.base, ref.degs)
            for (n, name), ref in sorted(self.assignment.items())
        )

    def __eq__(self, other):
        return isinstance(other, SimpMap) and self.assignment == other.assignment

    def __hash__(self):
        return hash(self.key())

    def collision(self):
        """The first two source simplices of one dimension with the same
        image, as (dim, first, second); None when the map is mono."""
        for n in range(self.cap + 1):
            seen = {}
            for ref in self.source.refs(n):
                first = seen.setdefault(self(ref, n), ref)
                if first is not ref:
                    return n, first, ref
        return None

    def is_mono(self):
        return self.collision() is None

    def is_iso(self):
        """Bijective on the nondegenerate cells of every dimension up to
        the joint bound of source and target."""
        for n in range(joint_bound((self.source, self.target)) + 1):
            images = set()
            for name in self.source.cell_ids(n):
                img = self.assignment[(n, name)]
                if img.degs:
                    return False
                images.add(img.base)
            if len(images) != self.source.cell_count(n) or len(images) != self.target.cell_count(n):
                return False
        return True

    def __repr__(self):
        return f"SimpMap({self.source!r} -> {self.target!r})"


def commutes(left, right) -> bool:
    """Whether two chains of composable maps out of one source compose, by
    `then`, to equal maps, cell ranges included when their caps differ.
    Decided cell by cell without building a composite, stopping at the
    first cell whose images differ."""
    caps = [math.inf if len(chain) == 1 else min(
        map_cap(chain[0].source, m.target) for m in chain) for chain in (left, right)]
    theirs = right[0].assignment
    shared = 0
    for cell, ref in left[0].assignment.items():
        n = cell[0]
        if n > caps[0]:
            continue
        other = theirs.get(cell)
        if other is None or n > caps[1]:
            return False
        for m in left[1:]:
            ref = m(ref, n)
        for m in right[1:]:
            other = m(other, n)
        if ref != other:
            return False
        shared += 1
    return shared == sum(n <= caps[1] for n, _ in theirs)


def joint_bound(sets) -> int:
    """The top dimension on which simplicial sets read together are
    compared: the least bound of a truncated one (it is read coskeletally
    above), or the largest top dimension when every one is complete."""
    ceilings = [x.dim_bound for x in sets if not x.complete]
    if ceilings:
        return min(ceilings)
    return max((x.top_dim() for x in sets), default=0)


def map_cap(source: FinSimpSet, target: FinSimpSet) -> int:
    """The top dimension in which a map source -> target is assigned: a
    complete target admits assignments in every source dimension, a
    truncated one only up to its own bound."""
    if target.complete:
        return source.dim_bound
    return min(source.dim_bound, target.dim_bound)


def cellwise(source: FinSimpSet, target: FinSimpSet, image) -> SimpMap:
    """The map source -> target sending each nondegenerate n-cell `name` of
    source to image(n, name), for every n up to `map_cap`."""
    return SimpMap(source, target, {
        (n, name): image(n, name)
        for n in range(map_cap(source, target) + 1)
        for name in source.cell_ids(n)
    })


def identity_map(x: FinSimpSet) -> SimpMap:
    return cellwise(x, x, lambda n, name: SimplexRef(name))


def constant_map(x: FinSimpSet, y: FinSimpSet, vertex: str) -> SimpMap:
    """The map collapsing x to the named vertex of y."""
    return cellwise(x, y, lambda n, name: SimplexRef(vertex, tuple(range(n - 1, -1, -1))))


# ---------------------------------------------------------------------------
# building a set from an abstract dimension-wise presentation


def from_elements(bound, levels, face, degen):
    """Build a FinSimpSet from per-dimension element tables.

    levels[n] lists hashable, sortable keys for ALL n-simplices (degenerate
    included); face(n, key, i) and degen(n, key, i) give the structure maps.
    The nondegenerate n-simplices are named c{n}_{idx} in sorted key order.
    The set is unpointed and truncated at bound (not complete).
    Returns (set, ref_of, key_of): ref_of maps (n, key) to the normal-form
    ref, key_of maps each cell name back to its (n, key).
    """
    levels = [sorted(set(lv)) for lv in levels]
    degenerate = [set() for _ in range(bound + 1)]
    for n in range(1, bound + 1):
        for key in levels[n - 1]:
            for i in range(n):
                degenerate[n].add(degen(n - 1, key, i))
    names = {}
    for n in range(bound + 1):
        idx = 0
        for key in levels[n]:
            if key not in degenerate[n]:
                names[(n, key)] = f"c{n}_{idx}"
                idx += 1

    def normal_form(n, key):
        word = []
        while True:
            if (n, key) in names:
                return SimplexRef(names[(n, key)], tuple(word))
            for j in range(n - 1, -1, -1):
                below = face(n, key, j)
                if degen(n - 1, below, j) == key:
                    word.append(j)
                    key, n = below, n - 1
                    break
            else:
                raise AssertionError(f"element {key!r} in dim {n} has no normal form")

    cells = {}
    for n in range(bound + 1):
        cells[n] = {}
        for key in levels[n]:
            if (n, key) in names:
                faces = tuple(normal_form(n - 1, face(n, key, i)) for i in range(n + 1)) if n else ()
                cells[n][names[(n, key)]] = faces
    out = FinSimpSet(bound, cells, complete=False).validate()
    return out, normal_form, {name: nk for nk, name in names.items()}


# ---------------------------------------------------------------------------
# products


def product(x: FinSimpSet, y: FinSimpSet, bound=None):
    """Cartesian product, truncated at the joint bound.

    For complete inputs the default bound reaches the full dimension of the
    product; otherwise it stays at the joint coskeletal bound, which is the
    range on which the output is exact.

    Only nondegenerate pairs are enumerated: by Eilenberg-Zilber, a pair
    of n-refs is s_j of a pair exactly when j is in both degeneracy words.
    They are named c{n}_{idx} in sorted key order, the set and order that
    `from_elements` gives every pair, so the names do not move.

    Returns (product set, projection to x, projection to y, pair resolver)
    where the resolver sends a pair of same-dimension refs to the product
    ref in normal form (ValueError if its nondegenerate part is above the
    bound).  It keeps every pair it resolves, for `pairing` and
    `product_map` too; each factor ref's faces are taken once per product.
    """
    full = x.top_dim() + y.top_dim()
    b = bound if bound is not None else min(full if x.complete else x.dim_bound,
                                            full if y.complete else y.dim_bound)
    names = {}
    for n in range(b + 1):
        ys = {}
        for ry in y.refs(n):
            ys.setdefault(frozenset(ry.degs), []).append(ry)
        keys = sorted((rx, ky) for rx in x.refs(n) for w, kys in ys.items()
                      if w.isdisjoint(rx.degs) for ky in kys)
        names.update(((n, key), f"c{n}_{idx}") for idx, key in enumerate(keys))
    resolved = {}

    def pair_ref(rx, ry, n):
        # strip the common degeneracy word (each index left drops by the
        # number of stripped ones below it), look the nondegenerate pair
        # up, and re-apply the word
        key = (rx, ry, n)
        out = resolved.get(key)
        if out is None:
            common = tuple(j for j in rx.degs if j in ry.degs)
            if common:
                rx, ry = (SimplexRef(r.base, tuple(j - sum(c < j for c in common)
                                                   for j in r.degs if j not in common))
                          for r in (rx, ry))
            k = n - len(common)
            name = names.get((k, (rx, ry)))
            if name is None:
                raise ValueError(f"pair of refs in dim {n} has no cell at bound {b}")
            # the common word is strictly decreasing, so it is the normal
            # form of the cell's degeneracy
            out = resolved[key] = SimplexRef(name, common)
        return out

    face_tables = {x: {}, y: {}}

    def faces(z, r, n):
        table = face_tables[z]
        out = table.get((n, r))
        if out is None:
            out = table[(n, r)] = tuple(z.face(r, n, i) for i in range(n + 1))
        return out

    cells = {n: {} for n in range(b + 1)}
    assign1, assign2 = {}, {}
    for (n, (rx, ry)), name in names.items():
        cells[n][name] = tuple(
            pair_ref(fx, fy, n - 1) for fx, fy in zip(faces(x, rx, n), faces(y, ry, n))
        ) if n else ()
        assign1[(n, name)] = rx
        assign2[(n, name)] = ry
    pointed = None
    if x.pointed is not None and y.pointed is not None:
        pointed = names[(0, ((x.pointed, ()), (y.pointed, ())))]
    prod = FinSimpSet(b, cells, pointed=pointed,
                      complete=x.complete and y.complete and b >= full)
    return prod, SimpMap(prod, x, assign1), SimpMap(prod, y, assign2), pair_ref

def pairing(f: SimpMap, g: SimpMap, prod_data) -> SimpMap:
    """The map (f, g): Z -> X x Y induced into product(f.target, g.target)."""
    prod, _, _, pair_ref = prod_data
    assert f.source is g.source
    return cellwise(f.source, prod, lambda n, name: pair_ref(
        f(SimplexRef(name), n), g(SimplexRef(name), n), n))


def product_map(f: SimpMap, g: SimpMap, src_data, dst_data) -> SimpMap:
    """f x g between already-computed products."""
    src, sp1, sp2, _ = src_data
    dst, _, _, pair_ref = dst_data
    return cellwise(src, dst, lambda n, name: pair_ref(
        f(sp1.assignment[(n, name)], n), g(sp2.assignment[(n, name)], n), n))


# ---------------------------------------------------------------------------
# finite colimits (disjoint unions, pushouts, general glued diagrams)


class Colimit:
    """Colimit of a finite diagram of FinSimpSets.

    objects: list of FinSimpSets; arrows: (src index, dst index, SimpMap).
    Computed dimension-wise by set-level quotient with Eilenberg-Zilber
    renormalization of the glued cells.  Only the nondegenerate cells and
    their images under the arrows are enumerated: a degenerate s_w(c) is
    glued where c is and resolves through c's class.  Only the cells an
    arrow touches enter the union-find.  One walk over the object cells in
    order meets each class at its least member, names it q{n}_{idx} there,
    and stores every object cell's normal form in one table per dimension.
    """

    def __init__(self, objects, arrows, bound=None, pointed_at=None):
        self.objects = list(objects)
        self.arrows = list(arrows)
        self.bound = joint_bound(self.objects) if bound is None else bound
        self.complete = (all(o.complete for o in self.objects)
                         and self.bound >= joint_bound(self.objects))
        self._compute(pointed_at)

    def _compute(self, pointed_at):
        # self._nf[n][(i, name)]: the normal form of object i's n-cell name
        self._nf = []
        cells = {}
        for n in range(self.bound + 1):
            parent = {}

            def find(k):
                while parent.setdefault(k, k) != k:
                    parent[k] = parent[parent[k]]
                    k = parent[k]
                return k

            for (si, di, m) in self.arrows:
                for name in self.objects[si].cell_ids(n):
                    img = m(SimplexRef(name), n)
                    ra, rb = find((si, name, ())), find((di, img.base, img.degs))
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
            # a class holding a degenerate simplex is a word over a class
            # one dimension down or more
            known = {}
            for k in parent:
                i, base, word = k
                if word:
                    ref = self.ref_in(i, SimplexRef(base, word), n)
                    if known.setdefault(find(k), ref) != ref:
                        raise AssertionError("inconsistent quotient normal forms")
            table, cells[n] = {}, {}
            below = self._nf[n - 1] if n else None
            for i, obj in enumerate(self.objects):
                for name in obj.cell_ids(n):
                    k = (i, name, ())
                    root = find(k) if k in parent else None
                    ref = known.get(root)
                    if ref is None or not ref.degs:
                        faces = tuple(self.ref_in(i, fr, n - 1) if fr.degs
                                      else below[(i, fr.base)]
                                      for fr in obj.faces_of(n, name)) if n else ()
                        if ref is None:
                            ref = SimplexRef(f"q{n}_{len(cells[n])}")
                            cells[n][ref.base] = faces
                            if root is not None:
                                known[root] = ref
                        elif cells[n][ref.base] != faces:
                            raise AssertionError("quotient faces disagree")
                    table[(i, name)] = ref
            self._nf.append(table)
        pointed = None
        if pointed_at is not None:
            pointed = self._nf[0][pointed_at].base
        self.space = FinSimpSet(self.bound, cells, pointed=pointed,
                                complete=self.complete)

    def ref_in(self, obj_index, ref: SimplexRef, ref_dim: int) -> SimplexRef:
        if not ref.degs:
            return self._nf[ref_dim][(obj_index, ref.base)]
        base_dim = ref_dim - len(ref.degs)
        return apply_word(self._nf[base_dim][(obj_index, ref.base)], ref.degs, base_dim)

    def coprojection(self, obj_index) -> SimpMap:
        return cellwise(self.objects[obj_index], self.space,
                        lambda n, name: self._nf[n][(obj_index, name)])

    def mediating(self, leg_of, target: FinSimpSet) -> SimpMap:
        """The map out of the colimit whose composite with the coprojection
        of object k is leg_of(k), a map called as leg(ref, n) on the
        n-simplex ref of object k (a SimpMap is one).

        The legs must form a cocone: leg_of(di)(m(ref), n) ==
        leg_of(si)(ref, n) for every arrow (si, di, m).  Then every
        representative of a cell has the same image, and the cell takes
        that of the first one met, walking the objects in order.  The table
        of each dimension holds the cells object by object, so each leg is
        asked for once per run of its object's cells and none is kept.  The
        legs are not checked here; the tests check every cocone they
        build."""
        assignment = {}
        for n in range(map_cap(self.space, target) + 1):
            k = leg = None
            for (i, name), ref in self._nf[n].items():
                if not ref.degs and (n, ref.base) not in assignment:
                    if i != k:
                        k, leg = i, leg_of(i)
                    assignment[(n, ref.base)] = leg(SimplexRef(name), n)
        return SimpMap(self.space, target, assignment)


def pushout(f: SimpMap, g: SimpMap, pointed_at=None):
    """Pushout of X <-f- A -g-> Y; returns the Colimit (space, coprojections
    via .coprojection(1) for X and .coprojection(2) for Y)."""
    assert f.source is g.source
    col = Colimit([f.source, f.target, g.target], [(0, 1, f), (0, 2, g)],
                  pointed_at=pointed_at)
    return col


# ---------------------------------------------------------------------------
# exhaustive map enumeration


def maps(a: FinSimpSet, x: FinSimpSet, budget=None, fixed=None, constraint=None):
    """The simplicial maps a -> x (x read coskeletally above its bound),
    found one at a time.

    fixed pre-assigns cells (dim, name) -> ref: a pointed search pins the
    basepoint this way, and a natural-family search the cells that a
    chosen map forces through a naturality square (see `gspace._families`);
    a fixed cell of dimension n >= 1 is still checked against its faces.
    constraint(n, name, ref) may veto candidates one cell at a time, as
    that search does where the forced value is read through an action map.
    A vertex joined by edges to vertices already assigned draws only the
    vertices joined to all their images (forward checking): any other
    could not extend to the edge, so the maps and their order are those of
    drawing every vertex.  Each candidate drawn
    costs one unit of budget; raises BudgetExceededError rather than
    silently truncating.
    """
    budget = budget or Budget()
    fixed = fixed or {}
    cap = map_cap(a, x)
    links = a.vertex_links(cap)

    def candidates(cell, assignment):
        n, name = cell
        want = _face_images(assignment, a, n, name)
        if cell in fixed:
            cand = [fixed[cell]]
        elif n == 0 and name in links:
            cand = _joined(x.neighbours(), links[name], assignment)
        elif n == 0:
            cand = x.refs(0)
        else:
            cand = x.face_index(n).get(want, ())
        for ref in cand:
            budget.spend()
            if n > 0 and cell in fixed:
                if any(x.face(ref, n, i) != want[i] for i in range(n + 1)):
                    continue
            if constraint is not None and not constraint(n, name, ref):
                continue
            yield ref

    for assignment in backtrack(a.constraint_order(cap), candidates):
        yield SimpMap(a, x, assignment)


def _joined(near, links, assignment):
    """The vertices, in refs(0) order, joined as each link requires to the
    image of its neighbour (see `FinSimpSet.vertex_links`)."""
    pools = sorted((near[side, assignment[(0, u)]] for side, u in links), key=len)
    if len(pools) == 1:
        return pools[0]
    rest = [set(p) for p in pools[1:]]
    return [v for v in pools[0] if all(v in p for p in rest)]


def hom_set(a: FinSimpSet, x: FinSimpSet, budget=None, fixed=None, constraint=None):
    """All simplicial maps a -> x, as a list (see `maps`)."""
    return list(maps(a, x, budget, fixed, constraint))


def _face_images(assignment, s: FinSimpSet, n, name):
    """The images of the faces of s's cell (n, name) under an assignment
    of their bases; None for a vertex."""
    if n == 0:
        return None
    return tuple(
        apply_word(assignment[(n - 1 - len(f.degs), f.base)], f.degs, n - 1 - len(f.degs))
        if f.degs else assignment[(n - 1, f.base)]
        for f in s.faces_of(n, name)
    )


def _constraint_order(a: FinSimpSet, cap):
    """Assignment order for backtracking: a cell becomes available once all
    its face bases are assigned; among available cells pick the deepest, so
    higher-dimensional compatibility constraints prune as early as possible.
    """
    remaining = {
        (n, name): {
            (n - 1 - len(f.degs), f.base) for f in (a.faces_of(n, name) if n else ())
        }
        for n in range(cap + 1)
        for name in a.cell_ids(n)
    }
    dependents = {}
    for cell, faces in remaining.items():
        for f in faces:
            dependents.setdefault(f, set()).add(cell)
    order = []
    available = sorted((c for c, fs in remaining.items() if not fs), reverse=True)
    missing = {c: set(fs) for c, fs in remaining.items()}
    done = set()
    while available:
        cell = max(available)
        available.remove(cell)
        order.append(cell)
        done.add(cell)
        for dep in dependents.get(cell, ()):
            missing[dep].discard(cell)
            if not missing[dep] and dep not in done and dep not in available:
                available.append(dep)
    assert len(order) == len(remaining)
    return order


def _vertex_links(a: FinSimpSet, order):
    """Vertex name -> its (side, neighbour) pairs, one for each edge of
    `order` whose other end, its d_side face, `order` assigns first."""
    rank = {cell: i for i, cell in enumerate(order)}
    links = {}
    for n, name in order:
        if n != 1:
            continue
        ends = [f.base for f in a.faces_of(1, name)]
        if ends[0] == ends[1]:
            continue
        side = 0 if rank[(0, ends[0])] < rank[(0, ends[1])] else 1
        links.setdefault(ends[1 - side], {})[(side, ends[side])] = None
    return {v: tuple(ls) for v, ls in links.items()}


def iso_check(x: FinSimpSet, y: FinSimpSet, budget=None) -> Verdict:
    """Explicit isomorphism or exhaustive refusal, on dimensions up to the
    joint bound."""
    budget = budget or Budget()
    cap = joint_bound((x, y))
    checked = f"dims<={cap}"
    for n in range(cap + 1):
        if x.cell_count(n) != y.cell_count(n):
            return Verdict(FAILS, checked,
                           witness={"dim": n, "counts": [x.cell_count(n), y.cell_count(n)]})
    if (x.pointed is None) != (y.pointed is None):
        return Verdict(FAILS, checked, witness="pointedness differs")
    if x.is_discrete() and y.is_discrete():
        assignment = {
            (0, a): SimplexRef(b)
            for a, b in zip(x.cell_ids(0), y.cell_ids(0))
        }
        if x.pointed is not None:
            assignment[(0, x.pointed)] = SimplexRef(y.pointed)
            rest = [b for b in y.cell_ids(0) if b != y.pointed]
            others = [a for a in x.cell_ids(0) if a != x.pointed]
            for a, b in zip(others, rest):
                assignment[(0, a)] = SimplexRef(b)
        return Verdict(HOLDS, checked, witness=SimpMap(x, y, assignment))

    order = [(n, name) for n in range(cap + 1) for name in x.cell_ids(n)]

    def candidates(cell, assignment):
        n, name = cell
        used = {ref.base for (m, _), ref in assignment.items() if m == n}
        want = _face_images(assignment, x, n, name)
        for cand in y.cell_ids(n):
            if cand in used:
                continue
            budget.spend()
            if n > 0 and y.faces_of(n, cand) != want:
                continue
            if x.pointed is not None and n == 0 and (name == x.pointed) != (cand == y.pointed):
                continue
            yield SimplexRef(cand)

    try:
        found = next(backtrack(order, candidates), None)
    except BudgetExceededError:
        return Verdict(INCONCLUSIVE, checked, witness="budget exceeded")
    if found is None:
        return Verdict(FAILS, checked, witness="exhausted all assignments")
    return Verdict(HOLDS, checked, witness=SimpMap(x, y, found))


# ---------------------------------------------------------------------------
# subobjects


def full_sub_on_vertices(x: FinSimpSet, keep) -> FinSimpSet:
    """Full sub-simplicial set spanned by the vertices satisfying `keep`."""
    good = {v for v in x.cell_ids(0) if keep(v)}

    def ok(n, name):
        return all(v.base in good for v in x.vertices_of(SimplexRef(name), n))

    return _subset_of(x, ok)


def full_sub_on_edges(x: FinSimpSet, edge_ok) -> FinSimpSet:
    """Sub-simplicial set of simplices all of whose edges satisfy edge_ok
    (a predicate on edge refs); vertices are all kept."""

    def ok(n, name):
        if n == 0:
            return True
        return all(edge_ok(e) for e in x.edges_of(SimplexRef(name), n))

    return _subset_of(x, ok)


def _subset_of(x: FinSimpSet, ok) -> FinSimpSet:
    """The cells (n, name) of x with ok(n, name), which must be closed under
    faces (every caller's is), so that the faces of each kept cell are kept."""
    cells = {n: {name: x.faces_of(n, name) for name in x.cell_ids(n) if ok(n, name)}
             for n in range(x.dim_bound + 1)}
    return FinSimpSet(x.dim_bound, cells, pointed=x.pointed if x.pointed in cells[0] else None)


def inclusion_map(sub: FinSimpSet, whole: FinSimpSet) -> SimpMap:
    return cellwise(sub, whole, lambda n, name: SimplexRef(name))
