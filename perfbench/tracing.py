"""Per-layer tracing from outside the program.

A layer is one ``cfglab`` module.  ``cfglab`` modules bind each other's
functions with ``from .x import y``, so a call from module A into module B
looks the name up in A's namespace.  ``Tracer.install`` replaces those
names in the *calling* module with wrappers that record a span (name,
start, end, parent) per call, or only count calls where a span per call
would cost more than the work.  Spans stay in memory until the run ends.

Spans started on a worker thread whose own stack is empty take as parent
the innermost open span of the thread that installed the tracer, which is
the call that started the pool (``integrate_backward``, a ``sweep_*``).

A name that no longer exists is skipped, and every metric that depends on
it is reported absent instead of wrong.
"""

from __future__ import annotations

import importlib
import itertools
import math
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# (module whose name is replaced, attribute, span name).  Several patches may
# feed one span name; a span name is absent if any of its patches is missing.
SPAN_PATCHES = (
    ("cfglab.cli", "sample_centroids", "simulator.centroids"),
    ("cfglab.cli", "integrate_backward", "simulator.integrate"),
    ("cfglab.cli", "measure_distortion", "simulator.bootstrap"),
    ("cfglab.cli", "guided_score_batch", "joint_gaussian.drift"),
    ("cfglab.cli", "sweep_beta_w", "sweeps.beta_w"),
    ("cfglab.cli", "sweep_sigma_w", "sweeps.sigma_w"),
    ("cfglab.cli", "sweep_schedule_phase_diagram", "sweeps.schedule"),
    ("cfglab.cli", "sweep_joint_gaussian_schedule", "sweeps.joint_schedule"),
    ("cfglab.sweeps", "assemble_trajectory", "mixture_theory.assemble"),
    ("cfglab.sweeps", "delta_estimators_linear", "mixture_theory.delta_linear"),
    ("cfglab.sweeps", "lambda_coeff_linear", "joint_gaussian.coeff_linear"),
    ("cfglab.sweeps", "Lambda_coeff_linear", "joint_gaussian.coeff_linear"),
    ("cfglab.mixture_theory", "lambda_coeff_linear", "joint_gaussian.coeff_linear"),
    ("cfglab.mixture_theory", "Lambda_coeff_linear", "joint_gaussian.coeff_linear"),
    ("cfglab.mixture_theory", "speciation_time", "mixture_theory.speciation"),
    ("cfglab.mixture_theory", "bisection_root", "special_math.bisection"),
    ("cfglab.joint_gaussian", "incomplete_beta_definite", "special_math.beta"),
    ("cfglab.special_math", "adaptive_quad", "special_math.quad"),
)
# About 1.4 million calls per theory_sweeps pass: counted, not spanned.
COUNT_PATCHES = (("cfglab.mixture_theory", "zeta_typical", "mixture_theory.zeta"),)
# The factory is spanned, and the score closure it returns is spanned per call.
SCORE_FACTORY = ("cfglab.cli", "make_mixture_score_fn")
SCORE_SETUP = "simulator.score_setup"
SCORE = "simulator.score"
SWEEP_SPANS = ("sweeps.beta_w", "sweeps.sigma_w", "sweeps.schedule", "sweeps.joint_schedule")
# The benchmark's span around each cfglab.cli.main call, and the spans directly under it.
CLI = "cli.main"
CLI_CHILDREN = SWEEP_SPANS + (
    "simulator.centroids", "simulator.integrate", "simulator.bootstrap", SCORE_SETUP)


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Records spans and counters; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._count_cells: list[dict[str, float]] = []
        self._cells_lock = threading.Lock()
        self._call_counters: dict[str, itertools.count] = {}
        self._call_totals: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            mine = threading.get_ident() == self._owner
            self._local.stack = self._owner_stack if mine else []
            return self._local.stack

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = self._stack()
        parent = stack[-1] if stack else (self._owner_stack[-1] if self._owner_stack else None)
        span = Span(name, parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, key: str, n: float = 1) -> None:
        # One dict per thread, so concurrent increments never race.
        try:
            cell = self._local.counts
        except AttributeError:
            cell = self._local.counts = {}
            with self._cells_lock:
                self._count_cells.append(cell)
        cell[key] = cell.get(key, 0) + n

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        total.update(self._call_totals)
        for cell in self._count_cells:
            for k, v in cell.items():
                total[k] += v
        return total

    # -- patching --------------------------------------------------------

    def _patch(self, module: str, attr: str, name: str, make: Callable[[Callable], Callable]) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.add(name)
            return
        self._restore.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def install(self) -> None:
        for module, attr, name in SPAN_PATCHES:
            self._patch(module, attr, name, lambda fn, name=name: self._spanned(name, fn))
        for module, attr, name in COUNT_PATCHES:
            self._patch(module, attr, name, lambda fn, name=name: self._counted(name, fn))
        self._patch(*SCORE_FACTORY, SCORE, self._score_factory)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        # The next value of a count is the number of calls made so far.
        self._call_totals = {name: next(calls) for name, calls in self._call_counters.items()}

    def _spanned(self, name: str, fn: Callable) -> Callable:
        sweep = name in SWEEP_SPANS

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if sweep:
                self.count("sweeps.cells", len(result))
                self.count("sweeps.failed_cells", sum(1 for r in result if getattr(r, "error", "")))
            return result

        return wrapped

    def _counted(self, name: str, fn: Callable) -> Callable:
        # next() on itertools.count is a single C call: cheap, and atomic under the GIL.
        calls = self._call_counters[name] = itertools.count()

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            next(calls)
            return fn(*args, **kwargs)

        return wrapped

    def _score_factory(self, factory: Callable) -> Callable:
        signature = inspect.signature(factory)

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            score = self.call(SCORE_SETUP, factory, *args, **kwargs)
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n_modes, dim = bound.arguments["inst"].centroids.shape
                itemsize = bound.arguments["softmax_dtype"](0).itemsize
            except (KeyError, AttributeError, TypeError, ValueError):
                # Signature changed: time the score, but the computed counts are absent.
                self.missing.add("score_shape")
                n_modes = dim = itemsize = 0

            def traced_score(x: Any, t: float) -> Any:
                rows = len(x)
                self.count("score_rows", rows)
                if n_modes > 1:
                    # Softmax branch (w != 0): X @ C^T and weights @ C, 2*rows*M*d flop each;
                    # the rows x M logits are written once at the softmax dtype.
                    self.count("score_flop", 4 * rows * n_modes * dim)
                    self.count("score_logit_bytes", rows * n_modes * itemsize)
                return self.call(SCORE, score, x, t)

            return traced_score

        return wrapped


# -- metrics ---------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the intervals, overlaps counted once."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


class SpanStats:
    """Wall time, busy time, self time and call counts per span name."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[id(s.parent)].append(s)

    def wall(self, name: str) -> float:
        """Time during which at least one call of this name was running."""
        return _union_length([(s.start, s.end) for s in self.by_name[name]])

    def busy(self, name: str) -> float:
        """Sum of call durations over all threads (exceeds wall when threads overlap)."""
        return sum(s.end - s.start for s in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def self_time(self, *names: str) -> float:
        """Duration minus the union of child-span intervals, summed over calls."""
        total = 0.0
        for n in names:
            for s in self.by_name[n]:
                kids = [(max(k.start, s.start), min(k.end, s.end)) for k in self.children[id(s)]]
                total += (s.end - s.start) - _union_length([iv for iv in kids if iv[0] < iv[1]])
        return total


Metric = tuple[str, tuple[str, ...], Callable[[SpanStats, dict], float]]


def _wall(span: str) -> Metric:
    return "s", (span,), lambda s, c: s.wall(span)


def _calls(span: str) -> Metric:
    return "count", (span,), lambda s, c: s.calls(span)


# metric -> (unit, spans or counters it depends on, value from (SpanStats, counts))
LAYER_METRICS: dict[str, Metric] = {
    "simulator.score_s": _wall(SCORE),
    "simulator.score_busy_s": ("s", (SCORE,), lambda s, c: s.busy(SCORE)),
    "simulator.score_calls": _calls(SCORE),
    "simulator.score_rows": ("count", (SCORE,), lambda s, c: c["score_rows"]),
    "simulator.score_gflop_computed": (
        "Gflop", (SCORE, "score_shape"), lambda s, c: c["score_flop"] / 1e9),
    "simulator.score_logit_gb_computed": (
        "GB", (SCORE, "score_shape"), lambda s, c: c["score_logit_bytes"] / 1e9),
    "simulator.score_flop_per_byte_computed": (
        "flop/B", (SCORE, "score_shape"),
        lambda s, c: c["score_flop"] / c["score_logit_bytes"] if c["score_logit_bytes"] else 0.0),
    "simulator.integrate_s": _wall("simulator.integrate"),
    "simulator.integrate_self_s": (
        "s", ("simulator.integrate", SCORE, "joint_gaussian.drift"),
        lambda s, c: s.self_time("simulator.integrate")),
    "simulator.bootstrap_s": _wall("simulator.bootstrap"),
    "simulator.centroids_s": _wall("simulator.centroids"),
    "joint_gaussian.drift_s": _wall("joint_gaussian.drift"),
    "joint_gaussian.drift_calls": _calls("joint_gaussian.drift"),
    "joint_gaussian.coeff_linear_s": _wall("joint_gaussian.coeff_linear"),
    "joint_gaussian.coeff_linear_calls": _calls("joint_gaussian.coeff_linear"),
    "mixture_theory.speciation_s": _wall("mixture_theory.speciation"),
    "mixture_theory.speciation_busy_s": (
        "s", ("mixture_theory.speciation",), lambda s, c: s.busy("mixture_theory.speciation")),
    "mixture_theory.speciation_calls": _calls("mixture_theory.speciation"),
    "mixture_theory.zeta_evals": ("count", ("mixture_theory.zeta",), lambda s, c: c["mixture_theory.zeta"]),
    "mixture_theory.assemble_s": _wall("mixture_theory.assemble"),
    "mixture_theory.delta_linear_s": _wall("mixture_theory.delta_linear"),
    "special_math.bisection_s": _wall("special_math.bisection"),
    "special_math.bisection_calls": _calls("special_math.bisection"),
    "special_math.quad_s": _wall("special_math.quad"),
    "special_math.quad_calls": _calls("special_math.quad"),
    "special_math.beta_calls": _calls("special_math.beta"),
    "sweeps.beta_w_s": _wall("sweeps.beta_w"),
    "sweeps.sigma_w_s": _wall("sweeps.sigma_w"),
    "sweeps.schedule_s": _wall("sweeps.schedule"),
    "sweeps.joint_schedule_s": _wall("sweeps.joint_schedule"),
    "sweeps.self_s": ("s", SWEEP_SPANS + (
        "mixture_theory.assemble", "mixture_theory.delta_linear", "joint_gaussian.coeff_linear"),
        lambda s, c: s.self_time(*SWEEP_SPANS)),
    "sweeps.cells": ("count", SWEEP_SPANS, lambda s, c: c["sweeps.cells"]),
    "sweeps.failed_cells": ("count", SWEEP_SPANS, lambda s, c: c["sweeps.failed_cells"]),
    "cli.self_s": ("s", CLI_CHILDREN + (SCORE,), lambda s, c: s.self_time(CLI)),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric whose sources were all found and wrapped."""
    stats, counts = SpanStats(tracer.spans), tracer.counts()
    return {
        name: float(value(stats, counts))
        for name, (_, sources, value) in LAYER_METRICS.items()
        if not tracer.missing.intersection(sources)
    }


def largest_self_layer(tracer: Tracer) -> tuple[str, float]:
    """The span name with the most self time, the CLI's own time excluded."""
    stats = SpanStats(tracer.spans)
    names = [n for n in stats.by_name if n != CLI]
    return max(((n, stats.self_time(n)) for n in names), key=lambda p: p[1], default=("", 0.0))
