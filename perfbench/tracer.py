"""Benchmark-owned tracing of the momentkit modules.

``install`` wraps the public functions and methods of every layer module
from outside; nothing under ``src/`` changes.  Each wrapped call either
records a span (name, start, end, parent span, job) or, for the hot inner
calls listed in ``HOT``, only bumps a counter.  Both kinds keep a per-layer
self time online: a call's duration minus the time covered by the wrapped
calls made inside it, so the time of a counted call is not charged to the
span around it.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("forms", "traces", "symalg", "moments", "gaussian", "concentration",
          "solver", "scenarios", "cli")

# Calls made so often inside the sweeps that a span each would dominate the
# trace: they get counters (and self time) but no span.  A trailing ".*"
# covers every wrapped method of the class.
HOT = {
    "symalg.multiply", "symalg.power", "symalg.evaluate_character",
    "symalg.slice_monomials", "symalg.multinomial", "symalg.gradlex_key",
    "symalg.AlgebraElement.*", "symalg.Character.*",
    "moments.DiscreteMeasure.*", "moments.MomentFunctional.moment",
    "moments.MomentFunctional.__call__", "moments.monomials_up_to",
    "moments.QuadraticModuleSpec.contains",
    "concentration.pushforward", "concentration.restrict_form",
    "concentration.exact_tail", "concentration.SubalgebraIndex.*",
    "forms.is_infinite", "forms.dual_norm", "forms.is_continuous", "forms.kernel_component",
    "forms.evaluate", "forms.polarize", "forms.kernel_basis",
    "forms.whitening_system", "forms.kernel_contained",
    "forms.GramForm.*", "forms.DualFunctional.*", "forms.OrthonormalSystem.*",
    "forms.numpy.linalg.eigh", "forms.numpy.linalg.eigvalsh",
}

_WRAPPED_DUNDERS = ("__call__", "__post_init__")


def _is_hot(name: str) -> bool:
    return name in HOT or name.rsplit(".", 1)[0] + ".*" in HOT


class Tracer:
    """Spans, counters and per-layer self time of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.self_s = defaultdict(float)  # layer -> seconds
        self.self_by_name = defaultdict(float)  # span name -> seconds
        self.calls = Counter()  # qualified name -> calls
        self.errors = Counter()  # "layer:ExceptionType" -> raised calls
        self.counters = Counter()  # named work counters, see _HOOKS
        self.stack = []  # open frames: [covered seconds, span index or None]
        self.job = None
        self._last_error = None

    def wrap(self, fn, name, layer):
        hot = _is_hot(name)
        hook = _HOOKS.get(name)
        stack, spans = self.stack, self.spans
        self_s, by_name = self.self_s, self.self_by_name
        calls, perf = self.calls, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent, self.job])
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:  # count where it was raised
                    self._last_error = exc
                    self.errors[f"{layer}:{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                if not hot:
                    by_name[name] += dt - frame[0]
                    span = spans[frame[1]]
                    span[1], span[2] = t0, t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def layer_table(self) -> dict:
        """Per layer: self time, calls, errors by type, and call counts."""
        table = {layer: {"self_s": 0.0, "calls": 0, "errors": {}, "counts": {}}
                 for layer in LAYERS}
        for layer, s in self.self_s.items():
            table[layer]["self_s"] = s
        for name, n in self.calls.items():
            row = table[name.split(".", 1)[0]]
            row["calls"] += n
            row["counts"][name.split(".", 1)[1]] = n
        for key, n in self.errors.items():
            layer, exc = key.split(":", 1)
            table[layer]["errors"][exc] = n
        return table

    def span_seconds(self, name: str) -> dict:
        """Total duration of the spans called ``name``, per job."""
        out = defaultdict(float)
        for span_name, t0, t1, _, job in self.spans:
            if span_name == name:
                out[job] += t1 - t0
        return dict(out)

    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "self_by_name": dict(self.self_by_name),
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict, job=None):
        """Adds a child process's snapshot; its spans are re-parented into
        this tracer's list and tagged with ``job``."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in snap["spans"]:
            self.spans.append([name, t0, t1, None if parent is None else parent + base, job])
        for layer, s in snap["self_s"].items():
            self.self_s[layer] += s
        for name, s in snap["self_by_name"].items():
            self.self_by_name[name] += s
        self.calls.update(snap["calls"])
        self.errors.update(snap["errors"])
        self.counters.update(snap["counters"])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


# ---------------------------------------------------------------------------
# Work counters computed from call arguments and results
# ---------------------------------------------------------------------------


def _count_indices(tr, args, kwargs, result):
    tr.counters["concentration.indices"] += len(result)


def _count_covering_pairs(tr, args, kwargs, result):
    """Pairs S < T with |T| = |S| + 1 in the family a consistency check
    swept; by transitivity these are the pairs it needs."""
    fam = args[0] if args else kwargs["fam"]
    n = max(len(s) for s in fam.entries)
    tr.counters["concentration.covering_pairs"] += n * 2 ** (n - 1)


def _count_samples(tr, args, kwargs, result):
    cfg = args[-1] if args else kwargs["cfg"]
    tr.counters["gaussian.samples"] += cfg.samples


_HOOKS = {
    "concentration.full_lattice": _count_indices,
    "concentration.consistency_check": _count_covering_pairs,
    "gaussian.sample": _count_samples,
    "gaussian.second_moment_check": _count_samples,
    "gaussian.chebyshev_outside_ball": _count_samples,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


class _CountingLinalg:
    def __init__(self, linalg, tracer):
        self._linalg = linalg
        for fn in ("eigh", "eigvalsh"):
            setattr(self, fn, tracer.wrap(getattr(linalg, fn), f"forms.numpy.linalg.{fn}", "forms"))

    def __getattr__(self, name):
        return getattr(self._linalg, name)


class _NumpyWithCountingLinalg:
    """Stands in for ``numpy`` inside ``momentkit.forms`` so that the
    eigendecompositions forms makes are counted, and only those."""

    def __init__(self, np, tracer):
        self._np = np
        self.linalg = _CountingLinalg(np.linalg, tracer)

    def __getattr__(self, name):
        return getattr(self._np, name)


def _wrap_class(tracer, cls, layer):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(member.__func__, name, layer)))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(member.__func__, name, layer)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(member, name, layer))


def install(tracer: Tracer):
    """Wraps every layer module of the imported momentkit package."""
    package = importlib.import_module("momentkit")
    modules = {layer: importlib.import_module(f"momentkit.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(obj, f"{layer}.{attr}", layer)
                setattr(mod, attr, replaced[obj])
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, layer)
    # names bound by `from .x import f` must point at the wrapper as well
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    forms = modules["forms"]
    forms.np = _NumpyWithCountingLinalg(forms.np, tracer)
