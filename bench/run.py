"""Benchmark of the djets engine: time to an exact verdict.

Run from the root of a checkout:

    python3 bench/run.py --workload integrate --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md):

* integrate  -- `djets integrate` at N = 64..192 and `djets counterexample -N 96`
* horizontal -- `djets horizontal` at m = 1..3 and `djets verify-product`
* modules    -- `verify_tensor_pairing` on 20 seeded random delta-module pairs

The engine is loaded from `src/` of the checkout and driven only through
`djets.cli.main` and `djets.delta_modules.verify_tensor_pairing`, in this
process and thread.  A pass runs every job of the workload once; passes
repeat until `--seconds` is used up.  Every job's output is checked (see
workloads.py); a job that raises, exits non-zero or fails its check counts
as failed.

With `--trace 0` the end-to-end metrics are reported, tracing off, with
times scaled to a reference speed measured by `probe` between jobs.  With
`--trace 1` untraced and traced passes alternate; the traced ones give the
per-layer metrics (tracer.py) and the tracing overhead, and the spans of the
first traced pass are written to `.bench_out/`.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 2 means the benchmark could not start (no djets sources, unknown
workload).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# Standard-library modules djets itself imports; loading them here keeps them
# out of the timed set-ups.
import dataclasses  # noqa: F401
import math  # noqa: F401

import workloads
from tracer import Tracer

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 7

# Reference kernel: an exact product of two truncated series, computed by the
# benchmark itself with stdlib Fractions -- the same kind of work as djets,
# but code no djets change can touch.  The machine is shared, and its speed
# drifts by up to half within minutes; timing this kernel before and after
# every job measures that speed, and end-to-end times are scaled to the speed
# at which the kernel takes PROBE_REF_S.
PROBE_A = workloads.s_exp(Fraction(1, 3), 64)
PROBE_B = workloads.s_exp(Fraction(-2, 5), 64)
PROBE_REF_S = 0.020

END_TO_END_UNITS = {
    "verdict_s": "s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = (
    "dvariety.sharp_integrate.calls", "dvariety.sharp_integrate.s",
    "dvariety.sharp_integrate.self_s",
    "mpoly.eval.calls", "mpoly.eval.s",
    "series.mul.calls", "series.mul.s",
    "series.div.calls", "series.div.s",
    "series.add.calls",
    "linalg.rref.q.calls", "linalg.rref.q.s", "linalg.rref.q.cells", "linalg.rref.q.pivots",
    "linalg.constant_combination.calls", "linalg.constant_combination.s",
    "linalg.solve.calls", "linalg.solve.s",
    "linalg.rref.series.calls", "linalg.rref.series.s",
    "linalg.rref.series.cells", "linalg.rref.series.pivots",
    "jets.jet_space.calls", "jets.jet_space.s",
    "mpoly.taylor_coeffs.calls", "mpoly.taylor_coeffs.s",
    "dvariety.delta_jet_space.calls", "dvariety.delta_jet_space.s",
    "dvariety.delta_jet_space.self_s",
    "delta_modules.product_jet_decompose.calls", "delta_modules.product_jet_decompose.s",
    "series.fundamental_matrix.calls", "series.fundamental_matrix.s",
    "delta_modules.horizontal_sections.calls", "delta_modules.horizontal_sections.s",
    "delta_modules.is_horizontal.calls", "delta_modules.is_horizontal.s",
    "delta_modules.verify_tensor_pairing.calls", "delta_modules.verify_tensor_pairing.s",
    "tangent.counterexample_report.calls", "tangent.counterexample_report.s",
    "diffpoly.reduce.calls", "diffpoly.reduce.s",
    "dsl.parse_document.s",
    "cli.main.calls", "cli.main.s",
    "series.coeff_bits_max", "linalg.rref.bits_max",
    "trace.verdict_s", "trace.untraced_verdict_s", "trace.overhead_s",
)


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def is_timing(name):
    return layer_unit(name) == "s"


class SetupError(Exception):
    """The benchmark cannot run here (missing sources or documents)."""


class Api:
    """The djets modules the benchmark calls, looked up at call time."""

    def __init__(self):
        for name in ("cli", "delta_modules", "dsl", "series"):
            setattr(self, name, importlib.import_module(f"djets.{name}"))


def import_djets():
    """Import djets afresh from the checkout's `src/`."""
    for name in [m for m in sys.modules if m == "djets" or m.startswith("djets.")]:
        del sys.modules[name]
    try:
        api = Api()
    except ImportError as exc:
        raise SetupError(f"cannot import djets from {SRC}: {exc}") from exc
    origin = Path(api.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"djets was imported from {origin}, not from {SRC}")
    return api


def set_up(workload, seed):
    """Import djets, parse the sample documents and generate the seeded jobs."""
    start = time.perf_counter()
    api = import_djets()
    for name in workloads.DOCUMENTS:
        path = workloads.DJV / name
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SetupError(f"cannot read {path}: {exc}") from exc
        api.dsl.parse_document(text)
    jobs = workloads.make_jobs(workload, seed, api)
    return time.perf_counter() - start, api, jobs


class Verdicts:
    """Outcome of every job executed in a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.unrepeatable = []  # trace counts that differed between traced passes

    def check(self, jobs, results, api):
        for job, (output, error) in zip(jobs, results):
            self.attempted += 1
            if error is None:
                try:
                    job.verify(output, api)
                    continue
                except Exception as exc:  # any failed check counts against the job
                    error = exc
            self.failures.append(f"{job.id}: {type(error).__name__}: {error}")


class Pass:
    """One pass: per-job times to verdict, reference-probe times, results.

    `probes[j]` ran just before job j and `probes[j + 1]` just after it."""

    def __init__(self, times, probes, results):
        self.times = times
        self.probes = probes
        self.results = results

    @property
    def seconds(self):
        """Time of the pass: the sum of its jobs' times to verdict."""
        return sum(self.times)

    @property
    def scales(self):
        """Per job, the factor that brings its time to the reference speed."""
        p = self.probes
        return [2 * PROBE_REF_S / (p[j] + p[j + 1]) for j in range(len(self.times))]

    @property
    def scaled_times(self):
        return [t * k for t, k in zip(self.times, self.scales)]


def probe():
    """Time one run of the reference kernel."""
    start = time.perf_counter()
    workloads.s_mul(PROBE_A, PROBE_B)
    return time.perf_counter() - start


def run_pass(jobs, api):
    """Run every job once, with a reference probe before each job and after
    the last one."""
    gc.collect()
    results, times, probes = [], [], []
    for job in jobs:
        probes.append(probe())
        start = time.perf_counter()
        try:
            results.append((job.run(api), None))
        except Exception as exc:  # a raising job is a failed verdict, not a crash
            traceback.print_exc(file=sys.stderr)
            results.append((None, exc))
        times.append(time.perf_counter() - start)
    probes.append(probe())
    return Pass(times, probes, results)


def timed_run(jobs, api, seconds, verdicts):
    """Untraced passes until `seconds` is used up."""
    passes = []
    start = time.perf_counter()
    while True:
        one = run_pass(jobs, api)
        verdicts.check(jobs, one.results, api)
        passes.append(one)
        spent = time.perf_counter() - start
        if spent + statistics.median(p.seconds for p in passes) > seconds:
            return passes


def traced_run(jobs, api, seconds, verdicts, spans_path):
    """Alternate untraced and traced passes; returns per-layer metrics."""
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        one = run_pass(jobs, api)
        verdicts.check(jobs, one.results, api)
        untraced.append(one.seconds)
        tracer = Tracer()
        with tracer:
            one = run_pass(jobs, api)
        verdicts.check(jobs, one.results, api)
        traced.append(one.seconds)
        summaries.append(tracer.summary())
        if len(summaries) == 1:
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write_spans(spans_path)
        spent = time.perf_counter() - start
        if spent + statistics.median(untraced) + statistics.median(traced) > seconds:
            break
    first = summaries[0]
    for other in summaries[1:]:
        for key, value in other.items():
            if not is_timing(key) and value != first[key]:
                verdicts.unrepeatable.append(f"{key} was {first[key]}, then {value}")
    layers = {
        key: statistics.median(s[key] for s in summaries) if is_timing(key) else value
        for key, value in first.items()
    }
    layers["trace.verdict_s"] = statistics.median(traced)
    layers["trace.untraced_verdict_s"] = statistics.median(untraced)
    layers["trace.overhead_s"] = layers["trace.verdict_s"] - layers["trace.untraced_verdict_s"]
    return layers, len(summaries)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        setups = []
        for _ in range(SETUPS):
            before = probe()
            elapsed, api, jobs = set_up(args.workload, args.seed)
            setups.append((elapsed, PROBE_REF_S / statistics.fmean((before, probe()))))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    verdicts = Verdicts()
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per pass: "
          + ", ".join(job.id for job in jobs))
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        layers, npasses = traced_run(jobs, api, args.seconds, verdicts, spans_path)
        metrics = {name: {"value": layers[name], "unit": layer_unit(name)}
                   for name in PER_LAYER}
        total = layers["trace.verdict_s"]
        print(f"{npasses} untraced and {npasses} traced passes; spans of the first "
              f"traced pass in {spans_path.relative_to(ROOT)}")
        for name in PER_LAYER:
            value = layers[name]
            share = f"  {100 * value / total:5.1f}% of traced pass" if (
                name.endswith(".s") and not name.startswith("trace.")) else ""
            print(f"  {name:44s} {value:>14.6g} {layer_unit(name):5s}{share}")
    else:
        passes = timed_run(jobs, api, args.seconds, verdicts)
        raw = {
            "verdict_s": [p.seconds for p in passes],
            "job_p50_s": [t for p in passes for t in p.times],
            "setup_s": [t for t, _ in setups],
        }
        scaled = {
            "verdict_s": [sum(p.scaled_times) for p in passes],
            "job_p50_s": [t for p in passes for t in p.scaled_times],
            "setup_s": [t * scale for t, scale in setups],
        }
        metrics = {name: statistics.median(values) for name, values in scaled.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_ratio"] = 1 - len(verdicts.failures) / verdicts.attempted
        speed = [k for p in passes for k in p.scales]
        print(f"  reference speed: job times are scaled by {statistics.median(speed):.3f} "
              f"(median over jobs, range {min(speed):.3f}..{max(speed):.3f})")
        for name, values in scaled.items():
            lo, hi = quartiles(values)
            print(f"  {name:12s} {metrics[name]:.4f} s   median of {len(values)}, quartiles "
                  f"{lo:.4f}..{hi:.4f}; unscaled median {statistics.median(raw[name]):.4f} s")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
        print(f"  ok_ratio     {metrics['ok_ratio']:.4f}     fail_ratio "
              f"{len(verdicts.failures)}/{verdicts.attempted}")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    for failure in verdicts.failures[:20]:
        print(f"FAILED {failure}")
    for mismatch in verdicts.unrepeatable:
        print(f"UNREPEATABLE trace count {mismatch}")
    print(json.dumps({
        "correct": not verdicts.failures and not verdicts.unrepeatable,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
