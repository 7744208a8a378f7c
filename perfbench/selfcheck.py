"""Self-check of the benchmark harness at tiny problem sizes.

Run from the repository root (takes about a minute)::

    python3 perfbench/selfcheck.py

It checks that BENCHMARK.json lists exactly the metrics the harness emits,
then runs every workload at ``--size tiny``, untraced and traced, and
asserts that each run passes its own checks, that the result line carries
every gated end-to-end metric (untraced) or every per-layer metric (traced)
with its unit, that the report prints all end-to-end metrics with their
units, and that every recorded span lies inside its parent span.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import tracer

RESULTS = run.HERE / "results" / "selfcheck"


def _fail(message):
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.ALL):
        _fail("BENCHMARK.json workloads differ from workload.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != {name: run.E2E_METRICS[name][0] for name in run.GATED}:
        _fail("BENCHMARK.json end_to_end differs from run.GATED")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layers != tracer.PER_LAYER_METRICS:
        _fail("BENCHMARK.json per_layer differs from tracer.PER_LAYER_METRICS")


def check_run(workload, trace):
    label = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        _fail(f"{label} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{label}: result line keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{label}: correct={result['correct']}, failed {result['failed']} "
              f"of {result['attempted']}")
    expected = (
        tracer.PER_LAYER_METRICS if trace
        else {name: run.E2E_METRICS[name][0] for name in run.GATED}
    )
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        _fail(f"{label}: metrics {sorted(set(got) ^ set(expected))} missing, extra or mis-united")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            _fail(f"{label}: {name} is not a number")

    report = "\n".join(lines[:-1])
    for name, (unit, where) in run.E2E_METRICS.items():
        printed = [ln.split() for ln in report.splitlines() if ln.split()[:1] == [name]]
        if not printed or unit not in printed[0]:
            _fail(f"{label}: report does not print {name} with unit {unit}")
    record = json.loads((RESULTS / f"{workload}.seed0.trace{trace}.json").read_text())
    for name, (unit, where) in run.E2E_METRICS.items():
        entry = record["end_to_end"].get(name)
        if workload in where and (entry is None or entry["unit"] != unit
                                  or not isinstance(entry["value"], (int, float))):
            _fail(f"{label}: results file lacks {name} in {unit}")
    if "environment" not in record:
        _fail(f"{label}: results file lacks the environment block")

    if trace:
        spans = []
        with open(record["spans_file"], encoding="ascii") as fh:
            for line in fh:
                s = json.loads(line)
                spans.append((s["name"], s["start"], s["end"], s["parent"], s["run"]))
        if not any(s[3] >= 0 for s in spans):
            _fail(f"{label}: no nested spans in {record['spans_file']}")
        errors = tracer.nesting_errors(spans)
        if errors:
            _fail(f"{label}: {len(errors)} spans do not nest, first: {errors[0]}")
    print(f"ok  {label}")


def main():
    check_benchmark_json()
    for workload in run.ALL:
        for trace in (0, 1):
            check_run(workload, trace)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
