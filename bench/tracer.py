"""Outside-in tracer for the gammaspace benchmark.

The tracer wraps named library functions from outside: it rebinds every
place a function object is reachable from a `gammaspace.*` module (the
module namespaces that imported it with `from .x import f`, class
attributes such as `FinSimpSet.act`, and module-level tables such as
`suite.SUITE` and `cli.COMMANDS`).  No library file changes.

A tracer runs in one of two modes, one per pass:

  timing    each wrapped call records a span (name, start, end, parent
            span, case id) in flat in-memory arrays and adds to calls,
            inclusive time (outermost activation only, so recursion is not
            counted twice), self time and failures.  A parent is credited
            with the whole of a child's wrapper, bookkeeping included, so
            the tracer's own cost falls in no layer's self time (it does
            fall in the inclusive times of the layers above).
  counting  the same wrappers, plus the counters whose bookkeeping costs
            more than the calls they count: `Budget.used` deltas of the
            search functions, cache-opportunity repeat shares, and
            `SimplexRef` creations.  Its times are not reported.  The
            counts repeat exactly for a seed.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

from gammaspace import simplicial, verdicts
from metrics import LAYERS

# metric name -> bindings that feed it, as "module:qualname"
TIMED = {
    "simplicial.act": ["simplicial:FinSimpSet.act"],
    "simplicial.word_ops": ["simplicial:word_to_surj", "simplicial:surj_to_word",
                            "simplicial:factor_monotone", "simplicial:mcompose"],
    "simplicial.apply_word": ["simplicial:apply_word"],
    "simplicial.hom_set": ["simplicial:hom_set"],
    "simplicial.iso_check": ["simplicial:iso_check"],
    "simplicial.from_elements": ["simplicial:from_elements"],
    "simplicial.product": ["simplicial:product"],
    "simplicial.Colimit": ["simplicial:Colimit.__init__"],
    "simplicial.validate": ["simplicial:FinSimpSet.validate"],
    "shapes.Exponential": ["shapes:Exponential.__init__"],
    "shapes.pushout_product": ["shapes:pushout_product"],
    "shapes.smash": ["shapes:smash"],
    "nerve.nerve": ["nerve:nerve"],
    "nerve.tau1": ["nerve:tau1"],
    "catcore.functor_category": ["catcore:functor_category"],
    "catcore.max_subgroupoid": ["catcore:max_subgroupoid"],
    "homotopy.j_qcat": ["homotopy:j_qcat"],
    "gammaop.enumerate_homs": ["gammaop:enumerate_homs"],
    "gammaop.factor_inert_active": ["gammaop:factor_inert_active"],
    "gammaop.smash_gamma": ["gammaop:smash_gamma"],
    "gspace.evaluate": ["gspace:PresentedGammaSpace.evaluate"],
    "gspace.day_convolve": ["gspace:day_convolve"],
    "gspace.day_coend_oracle": ["gspace:day_coend_oracle"],
    "gspace.mapping_space": ["gspace:GammaMappingSpace.__init__",
                             "gspace:mapping_space_tabulated"],
    "gspace.segal_check": ["gspace:segal_check"],
    "gspace.normalize": ["gspace:normalize"],
    "cocart.relative_nerve": ["cocart:relative_nerve"],
    "cocart.cocartesian_edges": ["cocart:cocartesian_edges"],
    "cocart.cocartesian_cross_check": ["cocart:cocartesian_cross_check"],
    "marked.marked_hom_set": ["marked:marked_hom_set"],
    "marked.marked_mapping_space": ["marked:marked_mapping_space"],
    "jsonio.load": ["jsonio:*_from_json"],
    "jsonio.dump": ["jsonio:*_to_json", "jsonio:canonical_dumps"],
    "cli.main": ["cli:main"],
}

# timed and counted, but too many and too small to keep a span each
# (millions per pass, mostly tuple arithmetic)
NO_SPANS = {"simplicial.word_ops"}


class _Stat:
    __slots__ = ("calls", "total", "self", "failures", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.failures = 0
        self.active = 0


class Tracer:
    """Wraps the functions named in TIMED (and the suite checks) and keeps
    spans and counters for one process; `counting` selects the mode."""

    def __init__(self, counting=False):
        self.counting = counting
        self.names = []
        self.stats = {}
        self.case = -1
        self.case_ids = []
        # one span per wrapped call, stored column-wise to stay compact
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_case = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack = []  # [span index, child time] per open span
        self.counts = {
            "SimplexRef.created": 0, "hom_set.candidates": 0, "hom_set.maps": 0,
            "hom_set.budget_exhausted": 0, "iso_check.candidates": 0,
            "from_elements.cells_out": 0, "act.repeats": 0, "word_ops.repeats": 0,
        }
        # cache-opportunity keys; each key holds its objects, so a recycled
        # id() can never be mistaken for a repeat
        self._act_seen = set()
        self._word_seen = set()
        self._targets = {}

    # -- installation --------------------------------------------------------

    def install(self):
        import gammaspace.suite as suite_mod

        for metric, specs in TIMED.items():
            for spec in specs:
                for orig in _resolve(spec):
                    self._rebind(orig, self._wrap(metric, orig))
        for tag, fn in list(suite_mod.SUITE):
            self._rebind(fn, self._wrap(f"suite.{tag}", fn))
        if not self.counting:
            return self
        init = simplicial.SimplexRef.__init__
        counts = self.counts

        def counted_init(ref, *args, **kwargs):
            counts["SimplexRef.created"] += 1
            init(ref, *args, **kwargs)

        simplicial.SimplexRef.__init__ = counted_init
        return self

    @staticmethod
    def _rebind(orig, wrapper):
        for name, mod in list(sys.modules.items()):
            if not name.startswith("gammaspace"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                elif isinstance(value, type) and value.__module__ == name:
                    for attr, member in list(vars(value).items()):
                        if member is orig:
                            setattr(value, attr, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapper
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, tuple) and any(x is orig for x in item):
                            value[i] = tuple(wrapper if x is orig else x for x in item)

    def _wrap(self, metric, fn):
        stat = self.stats.setdefault(metric, _Stat())
        if metric not in self.names:
            self.names.append(metric)
        nid = self.names.index(metric)
        before, after = _HOOKS.get(metric, (None, None)) if self.counting else (None, None)
        if before is not None and "budget" in inspect.signature(fn).parameters:
            sig = inspect.signature(fn)
        else:
            sig = None
        stack = self._stack
        clock = time.perf_counter
        sp_name, sp_parent, sp_case = self.sp_name, self.sp_parent, self.sp_case
        sp_start, sp_end = self.sp_start, self.sp_end
        tracer = self

        spans = metric not in NO_SPANS

        def wrapper(*args, **kwargs):
            w0 = clock()
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(tracer, fn, sig, args, kwargs)
            idx = -1
            if spans:
                idx = len(sp_name)
                sp_name.append(nid)
                sp_parent.append(stack[-1][0] if stack else -1)
                sp_case.append(tracer.case)
                sp_start.append(0.0)
                sp_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            stat.active += 1
            result = None
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if spans:
                    sp_start[idx] = t0
                    sp_end[idx] = t1
                stat.calls += 1
                stat.self += d - frame[1]
                stat.active -= 1
                if not stat.active:
                    stat.total += d
                if failed:
                    stat.failures += 1
                if after is not None:
                    after(tracer, ctx, result, failed)
                if stack:  # the parent's children include this wrapper's bookkeeping
                    stack[-1][1] += clock() - w0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics this mode measures, as name -> value:
        calls, times and failures when timing, the counters when counting."""
        if not self.counting:
            out = {}
            for metric, stat in self.stats.items():
                out[f"{metric}.calls"] = stat.calls
                out[f"{metric}.total_s"] = stat.total
                out[f"{metric}.self_s"] = stat.self
            for layer in LAYERS:
                out[f"{layer}.failures"] = sum(
                    s.failures for m, s in self.stats.items() if m.split(".")[0] == layer)
            return out
        c = self.counts
        out = {}
        calls = {m: s.calls for m, s in self.stats.items()}
        out["simplicial.act.repeat_share"] = _share(c["act.repeats"], calls["simplicial.act"])
        out["simplicial.word_ops.repeat_share"] = _share(
            c["word_ops.repeats"], calls["simplicial.word_ops"])
        out["simplicial.SimplexRef.created"] = c["SimplexRef.created"]
        out["simplicial.hom_set.candidates"] = c["hom_set.candidates"]
        out["simplicial.hom_set.maps"] = c["hom_set.maps"]
        out["simplicial.hom_set.yield"] = _share(c["hom_set.maps"], c["hom_set.candidates"])
        out["simplicial.hom_set.calls_per_target"] = _share(
            calls["simplicial.hom_set"], len(self._targets))
        out["simplicial.hom_set.budget_exhausted"] = c["hom_set.budget_exhausted"]
        out["simplicial.iso_check.candidates"] = c["iso_check.candidates"]
        out["simplicial.iso_check.candidates_per_call"] = _share(
            c["iso_check.candidates"], calls["simplicial.iso_check"])
        out["simplicial.from_elements.cells_out"] = c["from_elements.cells_out"]
        return out

    def write_spans(self, path):
        """One JSON header line (span names, case ids, column layout), then
        the five columns as raw native arrays."""
        header = {"names": self.names, "cases": self.case_ids, "spans": len(self.sp_start),
                  "columns": [["name", "i"], ["parent", "i"], ["case", "i"],
                              ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.sp_name, self.sp_parent, self.sp_case,
                        self.sp_start, self.sp_end):
                col.tofile(fh)


def _share(num, den):
    return num / den if den else 0.0


def _resolve(spec):
    """Function objects named by "module:qualname"; a `*` in the name
    matches every module-level function of that module."""
    import importlib

    mod_name, qual = spec.split(":")
    mod = importlib.import_module(f"gammaspace.{mod_name}")
    if "*" in qual:
        prefix, suffix = qual.split("*")
        return [v for k, v in vars(mod).items()
                if k.startswith(prefix) and k.endswith(suffix)
                and inspect.isfunction(v) and v.__module__ == mod.__name__]
    owner = mod
    *path, leaf = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return [vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)]


# -- per-metric hooks: before(tracer, fn, sig, args, kwargs) -> (args, kwargs, ctx)
#    and after(tracer, ctx, result, failed)


def _with_budget(sig, args, kwargs):
    """Pass an explicit Budget where the caller gave none.  The injected
    one has the default limit, which the function would have used anyway."""
    bound = sig.bind(*args, **kwargs)
    budget = bound.arguments.get("budget")
    if budget is None:
        budget = verdicts.Budget()
        bound.arguments["budget"] = budget
    return bound.args, bound.kwargs, (budget, budget.used)


def _hom_before(tracer, fn, sig, args, kwargs):
    args, kwargs, ctx = _with_budget(sig, args, kwargs)
    target = args[1]
    tracer._targets.setdefault(id(target), target)
    return args, kwargs, ctx


def _hom_after(tracer, ctx, result, failed):
    budget, used = ctx
    tracer.counts["hom_set.candidates"] += budget.used - used
    if failed:
        if budget.used > budget.limit:
            tracer.counts["hom_set.budget_exhausted"] += 1
    else:
        tracer.counts["hom_set.maps"] += len(result)


def _iso_before(tracer, fn, sig, args, kwargs):
    return _with_budget(sig, args, kwargs)


def _iso_after(tracer, ctx, result, failed):
    budget, used = ctx
    tracer.counts["iso_check.candidates"] += budget.used - used


def _act_before(tracer, fn, sig, args, kwargs):
    _note_repeat(tracer._act_seen, tracer.counts, "act.repeats", (args, tuple(kwargs.items())))
    return args, kwargs, None


def _word_before(tracer, fn, sig, args, kwargs):
    _note_repeat(tracer._word_seen, tracer.counts, "word_ops.repeats", (fn, args))
    return args, kwargs, None


def _note_repeat(seen, counts, counter, key):
    # args[0] of act is the FinSimpSet itself; keeping the key keeps it alive
    if key in seen:
        counts[counter] += 1
    else:
        seen.add(key)


def _from_elements_after(tracer, ctx, result, failed):
    if not failed:
        tracer.counts["from_elements.cells_out"] += result[0].total_cells()


_HOOKS = {
    "simplicial.hom_set": (_hom_before, _hom_after),
    "simplicial.iso_check": (_iso_before, _iso_after),
    "simplicial.act": (_act_before, None),
    "simplicial.word_ops": (_word_before, None),
    "simplicial.from_elements": (None, _from_elements_after),
}
