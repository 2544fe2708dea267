"""Per-layer tracing of fglcheck, installed from outside the package.

Every function and method defined in an fglcheck module is wrapped at run
time; its module is its layer.  Each name binding of a wrapped function is
patched, in every fglcheck module and in the acceptance ``CRITERIA`` table,
because several modules import functions by name (``formal_groups`` takes
``substitute`` and ``reversion`` from ``series``, ``theta_congruence`` and
``weights`` take ``residue_rank``, ``solve`` and friends from ``linalg``).

Bookkeeping per call:

* every call bumps its function's call counter;
* a call whose layer differs from the caller's opens a layer frame, so a
  layer's self time is its frames' time minus the frames they open;
* a call to one of the ``TIMED`` functions adds its inclusive time only when
  no call of the same metric is already running, so recursion
  (``TruncSeries.__mul__`` through ``__pow__``) is counted once;
* spans (name, parent, start, end, job) are kept in memory for jobs,
  criteria and the timed non-hot entry points; hot leaves (ring ops,
  series mul, matmul) only feed the aggregated counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("exact_arith", "series", "linalg", "formal_groups", "graded2",
          "twisted_bialgebra", "theta_congruence", "weights", "cli", "report",
          "acceptance")

# metric stem -> functions (module, qualname) whose outermost calls it times
TIMED = {
    "exact_arith.ring_new": [("exact_arith", "WittCoefRing.__init__")],
    "series.mul": [("series", "TruncSeries.__mul__")],
    "series.substitute": [("series", "substitute")],
    "series.reversion": [("series", "reversion")],
    "series.weierstrass_prepare": [("series", "weierstrass_prepare")],
    "linalg.matmul": [("linalg", "Mat.__matmul__")],
    "linalg.smith": [("linalg", "smith_normal_form")],
    "linalg.solve": [("linalg", "solve")],
    "linalg.residue_rank": [("linalg", "residue_rank")],
    "formal_groups.construct": [("formal_groups", "fgl_honda"),
                                ("formal_groups", "lubin_tate_deformation"),
                                ("formal_groups", "FormalGroupLaw.from_json")],
    "formal_groups.axiom_residuals": [("formal_groups", "FormalGroupLaw.axiom_residuals")],
    "formal_groups.height": [("formal_groups", "height")],
    "graded2.verify_coherence": [("graded2", "verify_coherence")],
    "twisted_bialgebra.verify_bialgebra": [("twisted_bialgebra", "verify_bialgebra")],
    "twisted_bialgebra.dualize": [("twisted_bialgebra", "dualize")],
    "twisted_bialgebra.points_category": [("twisted_bialgebra", "points_category")],
    "twisted_bialgebra.from_json": [("twisted_bialgebra", "TwistedBialgebra.from_json")],
    "theta_congruence.wilkerson_check": [("theta_congruence", "wilkerson_check")],
    "theta_congruence.derive_theta": [("theta_congruence", "derive_theta")],
    "theta_congruence.theta_consistency": [("theta_congruence", "theta_consistency")],
    "theta_congruence.gamma_congruence_check": [("theta_congruence", "gamma_congruence_check")],
    "theta_congruence.verify_weight_p_squares": [("theta_congruence", "verify_weight_p_squares")],
    "weights.epi_family_check": [("weights", "epi_family_check")],
    "weights.brute_force_surjective": [("weights", "brute_force_surjective")],
    "weights.binomial_gcd": [("weights", "binomial_gcd")],
    "cli.run": [("cli", "run")],
    "cli.dispatch": [("cli", f"cmd_{c}") for c in ("fgl", "graded", "bialg", "theta",
                                                   "congruence", "weights", "selftest")],
    "cli.emit": [("cli", "_emit")],
}
TIMED.update({f"acceptance.criterion_{i}": [] for i in range(1, 13)})

# metric stem -> function whose calls it counts
COUNTED = {
    "exact_arith.elem": ("exact_arith", "WittElem.__post_init__"),
    "exact_arith.add": ("exact_arith", "WittCoefRing.add"),
    "exact_arith.mul": ("exact_arith", "WittCoefRing.mul"),
    "exact_arith.inv": ("exact_arith", "WittCoefRing.inv"),
    "exact_arith.decode": ("exact_arith", "WittCoefRing.decode"),
    "graded2.compose": ("graded2", "GradedMap.compose"),
    "graded2.tensor_map": ("graded2", "tensor_map"),
    "graded2.associator": ("graded2", "associator"),
    "graded2.interchange": ("graded2", "interchange"),
}

HOT = {"exact_arith.ring_new", "series.mul", "linalg.matmul"}

# dunder methods worth attributing to their layer; the rest stay unwrapped
DUNDERS = {"__init__", "__post_init__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__mul__", "__rmul__", "__matmul__", "__neg__",
           "__pow__", "__eq__", "__call__", "__repr__"}

MAX_SPANS = 200_000


def _criterion_stem(fn):
    if fn.__name__.startswith("criterion_"):
        return "acceptance.criterion_" + fn.__name__.split("_")[1]
    return None


class Tracer:
    """Counters, layer self times and spans for one traced pass at a time."""

    def __init__(self, package):
        self.package = package
        self.modules = {n: sys.modules[f"{package}.{n}"] for n in LAYERS}
        self._patches = []  # restore callbacks, applied in reverse
        self._wrapped = {}  # id(original) -> (original, wrapper)
        self.spans = []
        self.dropped_spans = 0
        self.job = None
        self.calls = defaultdict(int)  # function key -> calls
        self.incl = defaultdict(float)  # stem -> outermost inclusive seconds
        self.self_s = defaultdict(float)  # layer -> exclusive seconds
        self._stem_keys = defaultdict(list)  # stem -> function keys
        self._active = defaultdict(int)  # stem -> 1 while its outermost call runs
        self._stack = []  # layer frames: [layer, seconds spent in child frames]
        self._span_stack = []
        self.reset()

    # ------------------------------------------------------------------
    # counters

    def reset(self):
        """Zero the counters in place; installed wrappers hold references."""
        self.calls.clear()
        self.incl.clear()
        self.self_s.clear()
        self.pairs = 0
        self._active.clear()
        self._stack[:] = [["bench", 0.0]]
        self._span_stack[:] = [None]

    def snapshot(self):
        """Per-layer metrics accumulated since the last reset."""
        out = {}
        for stem in TIMED:
            out[f"{stem}.s"] = self.incl.get(stem, 0.0)
            out[f"{stem}.calls"] = sum(self.calls.get(k, 0) for k in self._stem_keys[stem])
        for stem, (mod, qual) in COUNTED.items():
            out[f"{stem}.calls"] = self.calls.get(f"{mod}:{qual}", 0)
        out["series.mul.pairs"] = self.pairs
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["cli.parse.s"] = max(0.0, out["cli.run.s"] - out["cli.dispatch.s"])
        return out

    def function_calls(self):
        return dict(sorted(self.calls.items()))

    # ------------------------------------------------------------------
    # wrapping

    def _wrapper(self, fn, layer, key, stem, span_name, pre=None):
        calls = self.calls
        stack = self._stack
        active = self._active
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if pre is not None:
                pre(args)
            new_frame = stack[-1][0] is not layer
            outer = stem is not None and not active[stem]
            if not new_frame and not outer:
                return fn(*args, **kwargs)
            span = None
            if outer:
                active[stem] = 1
                if span_name is not None:
                    span = tracer._open_span(span_name)
            if new_frame:
                frame = [layer, 0.0]
                stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                if new_frame:
                    stack.pop()
                    tracer.self_s[layer] += dt - frame[1]
                    stack[-1][1] += dt
                if outer:
                    active[stem] = 0
                    tracer.incl[stem] += dt
                    if span is not None:
                        tracer._close_span(span, t0, t1)

        return functools.wraps(fn)(wrapper)

    def _open_span(self, name):
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return None
        parent = self._span_stack[-1]
        rec = [len(self.spans), parent, name, 0.0, 0.0, self.job]
        self.spans.append(rec)
        self._span_stack.append(rec[0])
        return rec

    def _close_span(self, rec, t0, t1):
        rec[3], rec[4] = t0, t1
        self._span_stack.pop()

    def job_span(self, name):
        """Open the span of one job; the runner closes it with end_job_span."""
        self.job = name
        return self._open_span(f"job:{name}")

    def end_job_span(self, rec, t0, t1):
        if rec is not None:
            self._close_span(rec, t0, t1)
        self.job = None

    # ------------------------------------------------------------------

    def install(self):
        """Wrap every fglcheck function and patch every binding of it."""
        timed_of = {}
        for stem, targets in TIMED.items():
            for mod, qual in targets:
                timed_of[(mod, qual)] = stem
        mul_key = ("series", "TruncSeries.__mul__")

        def count_pairs(args):
            a, b = args[0], args[1]
            if hasattr(b, "terms"):
                self.pairs += len(a.terms) * len(b.terms)

        originals = []
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals.append((layer, obj.__qualname__, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        fn = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
                        if not inspect.isfunction(fn):
                            continue
                        if attr.startswith("__") and attr not in DUNDERS:
                            continue
                        originals.append((layer, fn.__qualname__, fn))
        for layer, qual, fn in originals:
            if id(fn) in self._wrapped or inspect.isgeneratorfunction(fn):
                continue
            stem = timed_of.get((layer, qual))
            if layer == "acceptance":
                stem = _criterion_stem(fn) or stem
            key = f"{layer}:{qual}"
            if stem is not None:
                self._stem_keys[stem].append(key)
            span = stem if stem is not None and stem not in HOT else None
            pre = count_pairs if (layer, qual) == mul_key else None
            self._wrapped[id(fn)] = (fn, self._wrapper(fn, layer, key, stem, span, pre))
        self._patch_bindings()

    def _patch_bindings(self):
        wrapped = self._wrapped
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod in mods:
            d = vars(mod)
            for name, obj in list(d.items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._set(d, name, wrapped[id(obj)][1])
                elif inspect.isclass(obj) and obj.__module__.startswith(self.package):
                    self._patch_class(obj)
                elif isinstance(obj, list):
                    self._patch_table(obj)

    def _patch_class(self, cls):
        for attr, val in list(vars(cls).items()):
            raw = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
            hit = self._wrapped.get(id(raw))
            if hit is None or hit[0] is not raw:
                continue
            new = type(val)(hit[1]) if raw is not val else hit[1]
            self._patches.append((lambda c=cls, a=attr, v=val: setattr(c, a, v)))
            setattr(cls, attr, new)

    def _patch_table(self, table):
        """Lists of (name, function) rows, such as acceptance.CRITERIA."""
        for i, row in enumerate(table):
            if not isinstance(row, tuple):
                continue
            new = tuple(self._wrapped[id(x)][1] if id(x) in self._wrapped
                        and self._wrapped[id(x)][0] is x else x for x in row)
            if any(a is not b for a, b in zip(new, row)):
                self._patches.append((lambda t=table, j=i, r=row: t.__setitem__(j, r)))
                table[i] = new

    def _set(self, d, name, new):
        old = d[name]
        self._patches.append((lambda d=d, n=name, o=old: d.__setitem__(n, o)))
        d[name] = new

    def uninstall(self):
        for restore in reversed(self._patches):
            restore()
        self._patches = []
        self._wrapped = {}
        self._stem_keys.clear()

    def spans_json(self):
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], "job": s[5]} for s in self.spans]
