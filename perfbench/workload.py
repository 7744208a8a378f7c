"""One measured process of a benchmark run: set-up, timed passes, checks.

``run.py`` starts this script; it is not meant to be called by hand::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace {0,1} --size {full,tiny} [--spans FILE]

It times the set-up (importing umdobench and building the workload's input
problem), then repeats the workload's pass (one closed-loop call chain, each
call waiting for the previous one) until ``--seconds`` are used up, checks
every pass's outputs, and prints one JSON object with the per-pass records.
The set-up and every untraced pass run under a ``SpeedProbe``, which gauges
how much the shared host slowed them. With ``--seconds 0`` it only sets up.
With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured on the same input in the same process.

BLAS/OpenMP are pinned to one thread before numpy is imported, and
``UMDO_BENCH_THREADS`` is removed so ``run_benchmark`` stays in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

import tracer as tracing

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Seed set n offsets every workload seed by SEED_STRIDE * n; set 0 is the
# default (development) set, any other n is held out.
SEED_STRIDE = 100

# Relative tolerance of the closed-form statistics against the QP rows.
EXACT_MATCH_RTOL = 1e-10


class _MdfWorkload:
    """Shared shape of the two ``run_benchmark`` workloads."""

    probe_kernel = "python"

    def run_pass(self, problem):
        from umdobench import bench

        return bench.run_benchmark(problem, **self.benchmark_args)

    def operations(self, report):
        """(attempted, failed) optimizer runs of one pass."""
        return len(report.runs) + len(report.failures), len(report.failures)

    def work(self, report):
        """Discipline evaluations (coupled sweeps), the paper's cost unit."""
        return {"discipline_evals": sum(r.n_evals for r in report.runs)}

    def accuracy(self, report):
        metrics = {}
        for s in report.estimators:
            kind = s.estimator.partition(":")[0]
            metrics[f"{kind}.dx_pct"] = s.mean_dx_pct
            metrics[f"{kind}.df_pct"] = s.mean_df_pct
            metrics[f"{kind}.dg_pct"] = s.mean_dg_pct
        return metrics

    def fingerprint(self, report):
        """Everything a repeated pass must reproduce bit for bit."""
        return json.dumps(
            {
                "runs": [
                    [r.estimator, r.rep, r.dx_pct.hex(), r.df_pct.hex(), r.dg_pct.hex(), r.n_evals]
                    for r in report.runs
                ],
                "failures": report.failures,
                "reference": [v.hex() for v in report.reference["x_star"]],
            }
        )

    def check(self, problem, report):
        return _check_reference(report.reference["status"], report.reference["kkt_residual"])

    def check_once(self, problem, report):
        """The closed-form statistics at the reference optimum must equal the
        reference QP's objective and constraint rows."""
        from umdobench import qp as qp_mod
        from umdobench.problem import assemble
        from umdobench.uq import StatisticSpec, exact_stats

        errors = []
        system = assemble(problem)
        sigma = problem.uncertainty.sigma
        spec = StatisticSpec(constraint_stat="margin", kappa=2.0)
        qp = qp_mod.reduce_margin(system, problem.t, sigma, spec.kappa)
        x_star = report.reference["x_star"]
        stats = exact_stats(system, problem.t, sigma, x_star, spec)
        pairs = (
            ("objective", stats.objective.value, [qp.objective(x_star)]),
            ("constraint rows", stats.constraints.value, qp.constraints(x_star)),
        )
        for label, got, want in pairs:
            scale = max(abs(float(v)) for v in want)
            worst = max(abs(float(g) - float(w)) for g, w in zip(got, want))
            if worst > EXACT_MATCH_RTOL * scale:
                errors.append(
                    f"exact_stats {label} differ from the reference QP by {worst:.3e} "
                    f"(scale {scale:.3e})"
                )
        return errors


class McSmall(_MdfWorkload):
    """Criterion-6 configuration: Monte-Carlo and Taylor on the default problem."""

    def __init__(self, seed_set, size):
        from umdobench import OptimizerSettings

        self.seeds = {
            "problem": 70 + SEED_STRIDE * seed_set,
            "quantile": 71 + SEED_STRIDE * seed_set,
            "base_seed": 1000 + SEED_STRIDE * seed_set,
        }
        tiny = size == "tiny"
        self.benchmark_args = {
            "estimators": ("mc:20", "taylor") if tiny else ("mc:200", "taylor"),
            "repetitions": 1,
            "base_seed": self.seeds["base_seed"],
            "optimizer": OptimizerSettings(max_iter=20 if tiny else 100),
        }

    def setup(self):
        from umdobench import bench

        # default_benchmark_problem tunes with quantile seed problem + 1.
        return bench.default_benchmark_problem(seed=self.seeds["problem"], sigma_std=0.01)


class DetMid(_MdfWorkload):
    """Deterministic estimators on a mid-size problem: dense p^3 work per point."""

    probe_kernel = "blas"

    def __init__(self, seed_set, size):
        from umdobench import OptimizerSettings

        self.seeds = {"problem": 5 + SEED_STRIDE * seed_set, "quantile": 6 + SEED_STRIDE * seed_set}
        tiny = size == "tiny"
        self.p_block = 8 if tiny else 100
        self.benchmark_args = {
            "estimators": ("taylor", "exact"),
            "optimizer": OptimizerSettings(max_iter=30 if tiny else 100),
        }

    def setup(self):
        from umdobench import problem as problem_mod

        config = problem_mod.ProblemConfig(
            n_disciplines=4,
            d_shared=1,
            d_local=(2,) * 4,
            p_coupling=(self.p_block,) * 4,
            seed=self.seeds["problem"],
        )
        problem = problem_mod.generate(config)
        problem.uncertainty = problem_mod.UncertaintyModel.isotropic(config.p_coupling, 0.01)
        problem_mod.tune_feasibility(problem, quantile_seed=self.seeds["quantile"])
        return problem


class RefLarge:
    """Exact-reference chain: generate, tune, file round trip, reduce, solve."""

    kappa = 2.0
    # Most of the chain is serialize's float formatting.
    probe_kernel = "python"

    def __init__(self, seed_set, size):
        self.seeds = {"problem": 3 + SEED_STRIDE * seed_set, "quantile": 4 + SEED_STRIDE * seed_set}
        tiny = size == "tiny"
        self.n_disciplines = 3 if tiny else 20
        self.p_block = 6 if tiny else 30
        self.d_local = 2 if tiny else 5

    def setup(self):
        # Generation is part of the timed chain; set-up is the imports alone.
        return None

    def run_pass(self, _):
        from umdobench import problem as problem_mod
        from umdobench import qp as qp_mod

        config = problem_mod.ProblemConfig(
            n_disciplines=self.n_disciplines,
            d_shared=1,
            d_local=(self.d_local,) * self.n_disciplines,
            p_coupling=(self.p_block,) * self.n_disciplines,
            seed=self.seeds["problem"],
        )
        generated = problem_mod.generate(config)
        generated.uncertainty = problem_mod.UncertaintyModel.isotropic(config.p_coupling, 0.01)
        problem_mod.tune_feasibility(generated, quantile_seed=self.seeds["quantile"])
        # In-memory stand-in for the CLI's generate -> file -> solve-ref.
        blob = problem_mod.serialize(generated)
        loaded = problem_mod.deserialize(blob)
        system = problem_mod.assemble(loaded)
        system.linear_map
        qp = qp_mod.reduce_margin(system, loaded.t, loaded.uncertainty.sigma, self.kappa)
        solution = qp_mod.solve_qp(qp)
        return {"generated": generated, "blob": blob, "loaded": loaded, "solution": solution}

    def operations(self, outcome):
        return 1, int(outcome["solution"].status != "optimal")

    def work(self, outcome):
        return {"ipm_iters": outcome["solution"].iterations}

    def accuracy(self, outcome):
        return {}

    def fingerprint(self, outcome):
        s = outcome["solution"]
        return json.dumps(
            {
                "x_star": [float(v).hex() for v in s.x_star],
                "f_star": float(s.f_star).hex(),
                "iterations": s.iterations,
                "t": float(outcome["loaded"].t).hex(),
                "file": hashlib.sha256(outcome["blob"]).hexdigest(),
            }
        )

    def check(self, _, outcome):
        s = outcome["solution"]
        return _check_reference(s.status, s.kkt_residual)

    def check_once(self, _, outcome):
        """deserialize(serialize(p)) must be bitwise equal to p."""
        from umdobench import problem as problem_mod

        generated, loaded = outcome["generated"], outcome["loaded"]
        errors = []
        # The bytes are serialize(generated), so their hash is its digest.
        if problem_mod.problem_digest(loaded) != hashlib.sha256(outcome["blob"]).hexdigest():
            errors.append("problem_digest of the round-tripped problem differs")
        # A digest compares serializations, which a lossy but idempotent
        # float format would make equal; compare the arrays' bits as well.
        if not _same_bits(generated, loaded):
            errors.append("deserialize(serialize(p)) is not bitwise equal to p")
        return errors


def _same_bits(p, q):
    def fields(x):
        blocks = [x.C_blocks[k] for k in sorted(x.C_blocks)]
        return [x.a, *x.D_shared, *x.D_local, *blocks, *x.uncertainty.sigma_blocks]

    return (
        p.config == q.config
        and sorted(p.C_blocks) == sorted(q.C_blocks)
        and float(p.t).hex() == float(q.t).hex()
        and all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(fields(p), fields(q), strict=True)
        )
    )


def _check_reference(status, kkt_residual):
    import inspect

    from umdobench import qp as qp_mod

    tol = inspect.signature(qp_mod.solve_qp).parameters["tol"].default
    if status != "optimal":
        return [f"reference QP status is {status!r}, not 'optimal'"]
    if not kkt_residual <= tol:
        return [f"reference QP KKT residual {kkt_residual:.3e} exceeds {tol:.1e}"]
    return []


WORKLOADS = {"mdf-mc-small": McSmall, "mdf-det-mid": DetMid, "ref-large": RefLarge}


class SpeedProbe:
    """Samples the host's speed while a measured phase runs.

    On a shared host the CPU's speed drifts by tens of percent within
    seconds, and every stage of a pass slows by about the same factor. While
    a phase runs under ``measure``, an interval timer interrupts it every
    ``INTERVAL_S`` and times a fixed kernel that does not touch umdobench.
    Interpreter work and BLAS work slow by different factors, so there are
    two kernels and each workload names the one that matches where it spends
    its time: ``python`` (an integer loop and float formatting) or ``blas``
    (dense 200 x 200 matrix products). ``measure`` returns the phase's wall
    time net of the probe's own time, and the slowdown: the kernel's mean
    time over ``REF_S``, its time on the reference Intel Xeon when that host
    runs at full speed. A kernel takes about 2 ms, so the probe costs about
    2 % of a phase.
    """

    INTERVAL_S = 0.1
    REF_S = {"python": 0.0018, "blas": 0.0013}

    def __init__(self, kernel):
        self.ref_s = self.REF_S[kernel]
        if kernel == "python":
            rng = random.Random(0)
            self.values = [rng.random() for _ in range(400)]
            self.kernel = self._python_kernel
        else:
            import numpy as np

            self.matrix = np.random.default_rng(0).standard_normal((200, 200))
            self.kernel = self._blas_kernel
        self.samples = []
        self.spent = 0.0
        self.busy = False

    def _python_kernel(self):
        start = time.perf_counter()
        total = 0
        for i in range(15000):
            total += i * i % 7
        for _ in range(2):
            ",".join(repr(v) for v in self.values)
        return time.perf_counter() - start

    def _blas_kernel(self):
        start = time.perf_counter()
        for _ in range(4):
            self.matrix @ self.matrix
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        start = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - start
        self.busy = False

    @contextlib.contextmanager
    def measure(self):
        """Probe the enclosed phase; yields a dict filled in on exit with
        ``wall_s`` (net of the probe) and ``slowdown``."""
        self.samples, self.spent = [], 0.0
        result = {}
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:
            self.samples.append(self.kernel())
        result["wall_s"] = wall - self.spent
        result["slowdown"] = statistics.fmean(self.samples) / self.ref_s


def environment():
    """Library stack and machine the numbers were measured on."""
    import inspect
    import platform

    import numpy
    import scipy
    import scipy.optimize._cobyla_py as cobyla

    try:
        dispatch = inspect.getsource(cobyla._minimize_cobyla)
        cobyla_impl = "PRIMA (scipy._lib.pyprima)" if "pyprima" in dispatch else "scipy.optimize._cobyla"
    except (OSError, AttributeError):
        cobyla_impl = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cobyla": cobyla_impl,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
    }


def _timed_passes(workload, problem, seconds, trace, probe):
    """Repeat the pass until the budget is used; at least three passes run.

    Returns per-pass records and the tracer (or None). With ``trace`` even
    passes are untraced and odd passes traced; only untraced passes are
    probed, so the probe adds nothing to the spans. Every pass is checked,
    and the last one also by the once-per-invocation checks, outside the
    budget.
    """
    tracer = tracing.Tracer() if trace else None
    passes = []
    walls = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        slowdown = None
        if traced:
            tracer.start_pass(index)
            with tracer.installed():
                t0 = time.perf_counter()
                outcome = workload.run_pass(problem)
                wall = time.perf_counter() - t0
        else:
            with probe.measure() as measured:
                outcome = workload.run_pass(problem)
            wall, slowdown = measured["wall_s"], measured["slowdown"]
        walls.append(wall)
        last = len(walls) >= 3 and time.perf_counter() - start + statistics.median(walls) > seconds
        errors = workload.check(problem, outcome)
        if last:
            errors += workload.check_once(problem, outcome)
        attempted, failed = workload.operations(outcome)
        passes.append(
            {
                "traced": traced,
                "wall_s": wall,
                "slowdown": slowdown,
                "attempted": attempted,
                "failed": failed if not errors else attempted,
                "errors": errors,
                "accuracy": workload.accuracy(outcome),
                "work": workload.work(outcome),
                "fingerprint": workload.fingerprint(outcome),
                "layers": tracer.pass_metrics(index) if traced else None,
            }
        )
        del outcome
        if last:
            return passes, tracer


def _write_spans(path, tracer):
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, parent, run in tracer.spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                )
                + "\n"
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True, help="0 only sets up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("UMDO_BENCH_THREADS", None)

    # Before the imports only the python kernel can run.
    with SpeedProbe("python").measure() as setup:
        import umdobench

        workload = WORKLOADS[args.workload](args.seed, args.size)
        problem = workload.setup()

    passes, tracer = [], None
    if args.seconds > 0:
        probe = SpeedProbe(workload.probe_kernel)
        passes, tracer = _timed_passes(workload, problem, args.seconds, bool(args.trace), probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = [f"pass {i}: {e}" for i, p in enumerate(passes) for e in p.pop("errors")]
    if tracer is not None:
        errors += tracing.nesting_errors(tracer.spans)
        if args.spans:
            _write_spans(args.spans, tracer)
    print(
        json.dumps(
            {
                "umdobench": os.path.dirname(umdobench.__file__),
                "environment": environment(),
                "seeds": workload.seeds,
                "setup_s": setup["wall_s"],
                "setup_slowdown": setup["slowdown"],
                "peak_rss_mb": peak_rss_mb,
                "passes": passes,
                "errors": errors,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
