"""Finite categories with total composition tables, functors, natural
transformations, subgroupoids, (co)slices, and diagrams over categories."""

from __future__ import annotations

from .simplicial import FinSimpSet, SimpMap, commutes, identity_map
from .verdicts import Budget, backtrack


class FinCat:
    """A finite category: objects, arrows with src/dst, identities, and a
    composition table with exactly one entry per composable pair (g, f),
    f first; `validate` refuses a missing or a stray entry, and checks the
    units and associativity over the composable triples."""

    def __init__(self, objects, arrows, identities, compose):
        self.objects = tuple(sorted(objects))
        self.arrows = dict(sorted(arrows.items()))  # id -> (src, dst)
        self.identities = dict(identities)          # obj -> arrow id
        self.compose_table = dict(compose)          # (g, f) -> g o f
        homs, out = {}, {}                          # (src, dst) / src -> arrow ids
        for f, (s, d) in self.arrows.items():
            homs.setdefault((s, d), []).append(f)
            out.setdefault(s, []).append(f)
        self._homs = {ends: tuple(fs) for ends, fs in homs.items()}
        self._out = {a: tuple(fs) for a, fs in out.items()}

    def src(self, f):
        return self.arrows[f][0]

    def dst(self, f):
        return self.arrows[f][1]

    def compose(self, g, f):
        """g o f (f first)."""
        return self.compose_table[(g, f)]

    def hom(self, a, b):
        return self._homs.get((a, b), ())

    def out_of(self, a):
        """The arrows with source a, in id order."""
        return self._out.get(a, ())

    # as a `Diagram` base: every arrow generates, and is named by its id
    generators, arrow_name = out_of, staticmethod(str)

    def arrow_ids(self):
        return tuple(self.arrows.keys())

    def is_identity(self, f):
        return self.identities.get(self.src(f)) == f

    def validate(self):
        if set(self.identities) != set(self.objects):
            raise ValueError("expected one identity for each object")
        for f, ends in self.arrows.items():
            if not set(ends) <= set(self.objects):
                raise ValueError(f"arrow {f!r} meets a missing object")
        for obj, e in self.identities.items():
            if self.arrows.get(e) != (obj, obj):
                raise ValueError(f"identity of {obj!r} has wrong endpoints")
        pairs = 0
        for f, (fs, fd) in self.arrows.items():
            for g in self.out_of(fd):
                pairs += 1
                if (g, f) not in self.compose_table:
                    raise ValueError(f"composite {g!r} o {f!r} missing")
                h = self.compose_table[(g, f)]
                if self.arrows.get(h) != (fs, self.dst(g)):
                    raise ValueError(f"composite {g!r} o {f!r} is {h!r}, not an arrow"
                                     f" {fs!r} -> {self.dst(g)!r}")
        if len(self.compose_table) != pairs:
            g, f = next((g, f) for g, f in self.compose_table
                        if f not in self.arrows or g not in self.out_of(self.dst(f)))
            raise ValueError(f"the table composes {g!r} o {f!r}, which is no composable pair")
        for f, (fs, fd) in self.arrows.items():
            if self.compose(f, self.identities[fs]) != f:
                raise ValueError(f"right unit law fails at {f!r}")
            if self.compose(self.identities[fd], f) != f:
                raise ValueError(f"left unit law fails at {f!r}")
        for (g, f), gf in self.compose_table.items():
            for h in self.out_of(self.dst(g)):
                if self.compose(self.compose(h, g), f) != self.compose(h, gf):
                    raise ValueError(f"associativity fails at {h!r},{g!r},{f!r}")
        return self

    def inverse(self, f):
        """The inverse of f, or None when f is no isomorphism."""
        a, b = self.arrows[f]
        return next((g for g in self.hom(b, a) if self.compose(g, f) == self.identities[a]
                     and self.compose(f, g) == self.identities[b]), None)

    def is_iso_arrow(self, f):
        return self.inverse(f) is not None

    def iso_objects(self, a, b):
        return any(self.is_iso_arrow(f) for f in self.hom(a, b))

    def __repr__(self):
        return f"FinCat({len(self.objects)} objects, {len(self.arrows)} arrows)"


class CatFunctor:
    def __init__(self, source: FinCat, target: FinCat, on_objects, on_arrows):
        self.source = source
        self.target = target
        self.on_objects = dict(on_objects)
        self.on_arrows = dict(on_arrows)

    def __repr__(self):
        return f"CatFunctor({self.source!r} -> {self.target!r})"

    def obj(self, a):
        return self.on_objects[a]

    def arr(self, f):
        return self.on_arrows[f]

    def validate(self):
        for f, (a, b) in self.source.arrows.items():
            img = self.arr(f)
            if self.target.arrows[img] != (self.obj(a), self.obj(b)):
                raise ValueError(f"functor breaks endpoints at {f!r}")
        for a in self.source.objects:
            if self.arr(self.source.identities[a]) != self.target.identities[self.obj(a)]:
                raise ValueError(f"functor breaks identity at {a!r}")
        for (g, f), gf in self.source.compose_table.items():
            if self.arr(gf) != self.target.compose(self.arr(g), self.arr(f)):
                raise ValueError(f"functor breaks composition at {g!r} o {f!r}")
        return self

    def is_full_faithful_ess_surjective(self):
        c, d = self.source, self.target
        for a in c.objects:
            for b in c.objects:
                images = [self.arr(f) for f in c.hom(a, b)]
                if len(set(images)) != len(images):
                    return False, f"not faithful on hom({a!r},{b!r})"
                if set(images) != set(d.hom(self.obj(a), self.obj(b))):
                    return False, f"not full on hom({a!r},{b!r})"
        hit = set(self.on_objects.values())
        for y in d.objects:
            if not any(d.iso_objects(y, x) for x in hit):
                return False, f"not essentially surjective at {y!r}"
        return True, None

    def key(self):
        return (tuple(sorted(self.on_objects.items())), tuple(sorted(self.on_arrows.items())))

    def __eq__(self, other):
        return isinstance(other, CatFunctor) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


# ---------------------------------------------------------------------------
# diagrams


class Diagram:
    """A functor from a base category to simplicial sets, computed once per
    object by `value` and per arrow by `action`.  The base, a `FinCat` or a
    `gammaop.GammaBase`, offers `objects`, `identities`, `src`, `dst`,
    `compose`, `out_of`, `arrow_ids`, `is_identity`, `arrow_name` (the name
    in the nerve) and `generators(a)`, the arrows out of a that the law
    check composes with."""

    def __init__(self, base, value, action):
        self.base, self._value_fn, self._action_fn = base, value, action
        self._values, self._actions = {}, {}

    def value(self, o) -> FinSimpSet:
        if o not in self._values:
            if o not in self.base.objects:
                raise ValueError(f"{o!r} is not an object of the base")
            # published once: threads racing on a first read all get the
            # first object stored, which identity checks (`pairing`) rely on
            return self._values.setdefault(o, self._value_fn(o))
        return self._values[o]

    def action(self, f) -> SimpMap:
        if f not in self._actions:
            if self.base.src(f) not in self.base.objects or self.base.dst(f) not in self.base.objects:
                raise ValueError(f"{f!r} is not an arrow of the base")
            return self._actions.setdefault(f, self._action_fn(f))
        return self._actions[f]

    def validate(self, level_cap=None):
        """Each map is simplicial, and `check_laws` passes."""
        base = self.base if level_cap is None else self.base.upto(level_cap)
        for f in base.arrow_ids():
            self.action(f).validate()
        return self.check_laws(level_cap)

    def check_laws(self, level_cap=None):
        """Checks each map's ends, that identities act as identities, and
        action(compose(g, f)) == action(f) then action(g) for every arrow f
        and generator g out of dst f, trusting each map to be simplicial:
        every composable pair of a `FinCat`, and exactly functoriality over
        a `GammaBase` (see `gammaop.elementary_maps`), up to `level_cap`."""
        base = self.base if level_cap is None else self.base.upto(level_cap)
        for f in base.arrow_ids():
            m = self.action(f)
            if m.source is not self.value(base.src(f)) or m.target is not self.value(base.dst(f)):
                raise ValueError(f"diagram map at {f!r} has wrong endpoints")
        for a in base.objects:
            if self.action(base.identities[a]) != identity_map(self.value(a)):
                raise ValueError(f"diagram breaks identity at {a!r}")
        for f in base.arrow_ids():
            for g in base.generators(base.dst(f)):
                if not commutes([self.action(base.compose(g, f))], [self.action(f), self.action(g)]):
                    raise ValueError(f"diagram breaks composition at {g!r} o {f!r}:"
                                     " the action is not functorial")
        return self


# ---------------------------------------------------------------------------
# small standard categories


def terminal_category() -> FinCat:
    return FinCat(["*"], {"id*": ("*", "*")}, {"*": "id*"}, {("id*", "id*"): "id*"})


def poset_category(n) -> FinCat:
    """The poset 0 < 1 < ... < n as a category."""
    objects = [str(i) for i in range(n + 1)]
    arrows = {f"le{i}{j}": (str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1)}
    identities = {str(i): f"le{i}{i}" for i in range(n + 1)}
    compose = {(f"le{j}{k}", f"le{i}{j}"): f"le{i}{k}"
               for i in range(n + 1) for j in range(i, n + 1) for k in range(j, n + 1)}
    return FinCat(objects, arrows, identities, compose)


def walking_iso_category() -> FinCat:
    """Two objects, one isomorphism each way."""
    arrows = {
        "id0": ("0", "0"), "id1": ("1", "1"), "u": ("0", "1"), "v": ("1", "0"),
    }
    compose = {
        ("id0", "id0"): "id0", ("id1", "id1"): "id1",
        ("u", "id0"): "u", ("id1", "u"): "u",
        ("v", "id1"): "v", ("id0", "v"): "v",
        ("v", "u"): "id0", ("u", "v"): "id1",
    }
    return FinCat(["0", "1"], arrows, {"0": "id0", "1": "id1"}, compose)


def discrete_category(names) -> FinCat:
    arrows = {f"id{a}": (a, a) for a in names}
    compose = {(f"id{a}", f"id{a}"): f"id{a}" for a in names}
    return FinCat(list(names), arrows, {a: f"id{a}" for a in names}, compose)


def cyclic_group_category(n) -> FinCat:
    """Z/n as a one-object groupoid."""
    arrows = {f"g{i}": ("*", "*") for i in range(n)}
    compose = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    return FinCat(["*"], arrows, {"*": "g0"}, compose)


# ---------------------------------------------------------------------------
# constructions


def _restrict(c: FinCat, objects, arrows) -> FinCat:
    """The subcategory of c on these objects and arrows, which must hold
    the identities of the objects and be closed under composition."""
    compose = {(g, f): h for (g, f), h in c.compose_table.items() if g in arrows and f in arrows}
    return FinCat(objects, arrows, {a: c.identities[a] for a in objects}, compose)


def max_subgroupoid(c: FinCat):
    """Largest subgroupoid: same objects, only the isomorphisms."""
    arrows = {f: c.arrows[f] for f in c.arrow_ids() if c.is_iso_arrow(f)}
    sub = _restrict(c, c.objects, arrows)
    incl = CatFunctor(sub, c, {a: a for a in sub.objects}, {f: f for f in arrows})
    return sub, incl


def all_functors(c: FinCat, d: FinCat, budget=None):
    """Every functor c -> d, by backtracking over the images of the objects,
    then of the non-identity arrows, each in id order.  An arrow's image is
    drawn from its hom and kept only if F h = F g o F f for each table entry
    (g, f) -> h whose last-drawn arrow it is; entries with an identity
    factor hold by construction."""
    budget = budget or Budget()
    arrows = [f for f in c.arrow_ids() if not c.is_identity(f)]
    rank = {f: k for k, f in enumerate(arrows)}
    due = {f: [] for f in arrows}
    for (g, f), h in c.compose_table.items():
        if g in rank and f in rank:
            due[max((g, f, h), key=lambda x: rank.get(x, -1))].append((g, f, h))

    def image(x, chosen):
        if x in rank:
            return chosen[("arr", x)]
        return d.identities[chosen[("obj", c.src(x))]]

    def candidates(cell, chosen):
        kind, x = cell
        if kind == "obj":
            for o in d.objects:
                budget.spend()
                yield o
            return
        a, b = c.arrows[x]
        for img in d.hom(chosen[("obj", a)], chosen[("obj", b)]):
            budget.spend()
            pick = {**chosen, cell: img}
            if all(image(h, pick) == d.compose(image(g, pick), image(f, pick))
                   for g, f, h in due[x]):
                yield img

    cells = [("obj", a) for a in c.objects] + [("arr", f) for f in arrows]
    found = []
    for chosen in backtrack(cells, candidates):
        on_arrows = {c.identities[a]: d.identities[chosen[("obj", a)]] for a in c.objects}
        on_arrows.update((f, chosen[("arr", f)]) for f in arrows)
        found.append(CatFunctor(c, d, {a: chosen[("obj", a)] for a in c.objects}, on_arrows))
    return found


def natural_transformations(f: CatFunctor, g: CatFunctor):
    """All natural transformations f => g between parallel functors; the
    square of an arrow is checked when the later of its ends is drawn."""
    c, d = f.source, f.target
    rank = {a: k for k, a in enumerate(c.objects)}
    due = {a: [] for a in c.objects}
    for h, (a, b) in c.arrows.items():
        if not c.is_identity(h):
            due[max(a, b, key=rank.get)].append(h)

    def candidates(a, comp):
        for t in d.hom(f.obj(a), g.obj(a)):
            pick = {**comp, a: t}
            if all(d.compose(pick[c.dst(h)], f.arr(h)) == d.compose(g.arr(h), pick[c.src(h)])
                   for h in due[a]):
                yield t

    return list(backtrack(c.objects, candidates))


def functor_category(d: FinCat, c: FinCat) -> tuple[FinCat, dict, dict]:
    """The category of functors d -> c and natural transformations.

    Returns (category, object names -> functors, arrow names -> transforms).
    """
    found = sorted(all_functors(d, c), key=CatFunctor.key)
    obj_names = {f"F{i}": fn for i, fn in enumerate(found)}
    arrows = {}
    arrow_data = {}
    identities = {}
    for (na, fa) in obj_names.items():
        for (nb, fb) in obj_names.items():
            for k, comp in enumerate(natural_transformations(fa, fb)):
                name = f"n{na}_{nb}_{k}"
                arrows[name] = (na, nb)
                arrow_data[name] = comp
                if na == nb and all(
                    comp[a] == c.identities[fa.obj(a)] for a in d.objects
                ):
                    identities[na] = name
    compose = {}
    index = {
        (s, t, tuple(sorted(comp.items()))): name
        for name, comp in arrow_data.items()
        for (s, t) in [arrows[name]]
    }
    for g, (gs, gd) in arrows.items():
        for f, (fs, fd) in arrows.items():
            if fd != gs:
                continue
            comp = {
                a: c.compose(arrow_data[g][a], arrow_data[f][a]) for a in d.objects
            }
            compose[(g, f)] = index[(fs, gd, tuple(sorted(comp.items())))]
    return FinCat(obj_names.keys(), arrows, identities, compose), obj_names, arrow_data


def coslice_category(c: FinCat, base_obj):
    """base_obj / c: objects are arrows out of base_obj, morphisms are
    commuting triangles.

    Returns (category, projection functor, triangle legs) where the legs
    table sends each triangle arrow name to its underlying arrow of c.  A
    triangle f -> g over h is named t{f}_{g}_{h} (ValueError when two
    triangles get one name).
    """
    objects = [f for f in c.arrow_ids() if c.src(f) == base_obj]
    arrows = {}
    legs = {}
    identities = {}
    for f in objects:
        for g in objects:
            for h in c.hom(c.dst(f), c.dst(g)):
                if c.compose(h, f) == g:
                    name = f"t{f}_{g}_{h}"
                    if name in arrows:
                        raise ValueError(f"the triangles {arrows[name] + (legs[name],)}"
                                         f" and {(f, g, h)} are both named {name!r}")
                    arrows[name] = (f, g)
                    legs[name] = h
    for f in objects:
        identities[f] = f"t{f}_{f}_{c.identities[c.dst(f)]}"
    compose = {}
    index = {(fg + (legs[name],)): name for name, fg in arrows.items()}
    for n2, (f2, g2) in arrows.items():
        for n1, (f1, g1) in arrows.items():
            if g1 != f2:
                continue
            compose[(n2, n1)] = index[(f1, g2, c.compose(legs[n2], legs[n1]))]
    cat = FinCat(objects, arrows, identities, compose)
    proj = CatFunctor(
        cat, c, {f: c.dst(f) for f in objects}, dict(legs)
    )
    return cat, proj, legs
