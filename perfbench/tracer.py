"""In-memory span tracer for the benchmark's traced passes.

Spans are recorded at the boundaries of umdobench's public functions by
replacing each function where its caller looks it up (for example
``umdobench.driver.solve_mda``, the name ``umdobench.driver`` calls) for
the duration of a ``with tracer.installed():`` block. Nothing inside ``src/umdobench``
changes. A span is ``(name, start, end, parent, run)``; the parent is the
span that was open when the call started, and ``run`` is the pass the span
belongs to. Counters are read off the return values at the same
boundaries.

Self time of a span is its duration minus the durations of its direct
children: calls are synchronous, so children never overlap each other and
their durations are exactly the part of the parent they cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# Span names and the places each one is wrapped: ("module", "attribute"),
# where the attribute may be "Class.method". Every place a caller inside the
# package (or the benchmark itself) looks the function up is listed, so no
# call escapes its span.
SPAN_POINTS = {
    "mda.solve_mda": [("umdobench.driver", "solve_mda")],
    "uq.mc_estimate": [("umdobench.driver", "mc_estimate")],
    "uq.draw": [("umdobench.uq", "GaussianSampler.draw")],
    "uq.exact_stats": [("umdobench.driver", "exact_stats")],
    "driver.evaluate": [("umdobench.driver", "RobustEvaluator.evaluate")],
    "driver.optimize": [("umdobench.bench", "optimize")],
    "problem.generate": [("umdobench.problem", "generate"), ("umdobench.bench", "generate")],
    "problem.tune_feasibility": [
        ("umdobench.problem", "tune_feasibility"),
        ("umdobench.bench", "tune_feasibility"),
    ],
    "problem.assemble": [
        ("umdobench.problem", "assemble"),
        ("umdobench.bench", "assemble"),
        ("umdobench.driver", "assemble"),
    ],
    # Cached property: the wrapper runs only when the map is actually computed.
    "problem.linear_map": [("umdobench.problem", "BlockSystem.linear_map")],
    "problem.serialize": [("umdobench.problem", "serialize")],
    "problem.deserialize": [("umdobench.problem", "deserialize")],
    "problem.problem_digest": [
        ("umdobench.problem", "problem_digest"),
        ("umdobench.bench", "problem_digest"),
    ],
    "qp.reduce_margin": [("umdobench.qp", "reduce_margin"), ("umdobench.bench", "reduce_margin")],
    "qp.solve_qp": [("umdobench.qp", "solve_qp"), ("umdobench.bench", "solve_qp")],
    "bench.run_benchmark": [("umdobench.bench", "run_benchmark")],
}


def _count_mda(counts, args, result, before):
    counts["mda.sweeps"] += result.iterations
    counts["mda.unconverged"] += not result.converged


def _count_mc(counts, args, result, before):
    counts["uq.failed_samples"] += result.n_failed


def _count_evaluate(counts, args, result, before):
    # The evaluator's own counter grows only on a cache miss.
    counts["driver.point_evals"] += args[0].n_point_evals - before


def _count_optimize(counts, args, result, before):
    counts["driver.optimizer_iters"] += result.n_optimizer_iters
    counts["driver.unconverged_runs"] += not result.converged


def _count_qp(counts, args, result, before):
    counts["qp.ipm_iters"] += result.iterations


def _count_benchmark(counts, args, result, before):
    counts["bench.failed_runs"] += len(result.failures)


# name -> (counter hook, snapshot taken before the call)
_HOOKS = {
    "mda.solve_mda": (_count_mda, None),
    "uq.mc_estimate": (_count_mc, None),
    "driver.evaluate": (_count_evaluate, lambda args: args[0].n_point_evals),
    "driver.optimize": (_count_optimize, None),
    "qp.solve_qp": (_count_qp, None),
    "bench.run_benchmark": (_count_benchmark, None),
}

COUNTERS = (
    "mda.sweeps",
    "mda.unconverged",
    "uq.failed_samples",
    "driver.point_evals",
    "driver.optimizer_iters",
    "driver.unconverged_runs",
    "qp.ipm_iters",
    "bench.failed_runs",
)

# Every per-layer metric with its unit, in report order.
PER_LAYER_METRICS = {}
for _name in SPAN_POINTS:
    PER_LAYER_METRICS[f"{_name}.calls"] = "count"
    PER_LAYER_METRICS[f"{_name}.self_s"] = "s"
for _name in COUNTERS:
    PER_LAYER_METRICS[_name] = "count"
PER_LAYER_METRICS.update(
    {
        "mda.sweeps_per_call": "sweeps/call",
        "uq.failed_sample_ratio": "ratio",
        "driver.cache_hit_ratio": "ratio",
        "trace.overhead_s": "s",
    }
)


def _ratio(num, base):
    """num / base, reported as 0 when the base is 0 (the layer did no work)."""
    return num / base if base else 0.0


class Tracer:
    """Collects spans and counters while installed; one instance per process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run)
        self.counts = {}  # run -> counter values of that pass
        self.run = None
        self._stack = []

    def start_pass(self, run):
        """Attribute the spans and counts that follow to pass ``run``."""
        self.run = run
        self.counts[run] = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name, fn):
        hook, snapshot = _HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = snapshot(args) if snapshot else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if hook:
                hook(self.counts[self.run], args, result, before)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span point for the duration of the block, then restore it."""
        saved = []
        try:
            for name, places in SPAN_POINTS.items():
                for module_name, attr in places:
                    owner = importlib.import_module(module_name)
                    cls_name, _, attr = attr.rpartition(".")
                    if cls_name:
                        owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
                    if isinstance(original, functools.cached_property):
                        replacement = functools.cached_property(self._wrap(name, original.func))
                        replacement.__set_name__(owner, attr)
                    else:
                        replacement = self._wrap(name, original)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def pass_metrics(self, run):
        """Every per-layer metric of one pass except the tracing overhead."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, r in spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {}
        for name in SPAN_POINTS:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.self_s"] = 0.0
        for i, (name, start, end, parent, r) in enumerate(spans):
            if r != run:
                continue
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += (end - start) - child_time[i]
        metrics.update(self.counts[run])
        return _derived(metrics)


def nesting_errors(spans):
    """Spans that do not lie inside their parent span; empty when all nest."""
    bad = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        if end < start:
            bad.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend, _, prun = spans[parent]
            if not (pstart <= start and end <= pend and prun == run):
                bad.append(f"span {i} {name} is not inside its parent {parent} {pname}")
    return bad


def _derived(metrics):
    """Add the ratio metrics to a dict holding calls and counters."""
    metrics["mda.sweeps_per_call"] = _ratio(metrics["mda.sweeps"], metrics["mda.solve_mda.calls"])
    metrics["uq.failed_sample_ratio"] = _ratio(
        metrics["uq.failed_samples"], metrics["mda.solve_mda.calls"]
    )
    calls = metrics["driver.evaluate.calls"]
    metrics["driver.cache_hit_ratio"] = _ratio(calls - metrics["driver.point_evals"], calls)
    return metrics

