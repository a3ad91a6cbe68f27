#!/usr/bin/env python3
"""fogsched benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  With
--trace 0 the workload's batches run closed-loop (one caller waiting on each
CLI-equivalent call) for S seconds and the end-to-end metrics are reported;
with --trace 1 the batches run in one process with every layer boundary
traced, and the per-layer metrics are reported.  Output checks run outside
the timed region.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
# End-to-end times are reported at the host speed at which `reference_s`
# takes this long (about a 2-vCPU 2.1 GHz Xeon VM); see `reference_s`.
REFERENCE_S = 0.005


def pool_size() -> int:
    """The sweep pool is pinned to at most two workers and never more than
    the CPUs this process may run on."""
    return min(2, len(os.sched_getaffinity(0)))


def environment(workers: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quantile(xs, q: int):
    """The q-th decile, with statistics' inclusive interpolation."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[q - 1]


def reference_s() -> float:
    """Wall time of a fixed pure-Python kernel: list indexing, float
    arithmetic and comparisons, like the evaluator's inner loop.

    On a shared VM the speed of the same code drifts by a third over minutes,
    as neighbours come and go; that drift, not the program, would set the
    spread between runs.  Each timed interval is bracketed by this kernel
    and scaled by REFERENCE_S / (mean of the two kernel times), so the
    drift cancels and the reported time is the interval's time at a fixed
    host speed.  The kernel is not fogsched code: no program change moves it.
    """
    xs = [float(i) for i in range(64)]
    ys = [0.0] * 64
    t0 = time.perf_counter()
    for _ in range(800):
        for i in range(64):
            a = xs[i] * 1.0001 + ys[i - 1]
            if a > ys[i]:
                ys[i] = a
    return time.perf_counter() - t0


def _batches(wl, prep, workers: int, budget: float, between=None):
    """Run batches back to back while the next one should still fit in
    `budget` seconds of batch time; returns [(wall seconds, Batch, speed
    scale)], where wall seconds x speed scale is the batch's time at the
    reference host speed (see `reference_s`).

    `between(fraction done)` runs after each batch, outside the timing."""
    out = []
    spent = 0.0
    ref = reference_s()
    while True:
        t0 = time.perf_counter()
        batch = wl.batch(prep, workers)
        dt = time.perf_counter() - t0
        ref_after = reference_s()
        if out:
            batch.drop_outputs()
        out.append((dt, batch, 2.0 * REFERENCE_S / (ref + ref_after)))
        ref = ref_after
        spent += dt
        if between is not None:
            between(min(1.0, spent / budget))
        if spent + dt > budget:
            return out


class SetupProbe:
    """Times fresh interpreters that import fogsched and load the scenario
    files; spread over the run so they sample the same machine state as the
    batches.  Each is scaled to the reference host speed like a batch."""

    def __init__(self, paths, repeats: int = SETUP_REPEATS):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, paths)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.repeats = repeats
        self.times: list[float] = []
        self.wall: list[float] = []

    def __call__(self, fraction: float) -> None:
        while len(self.times) < round(self.repeats * fraction):
            ref = reference_s()
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, check=True, cwd=ROOT)
            dt = time.perf_counter() - t0
            self.wall.append(dt)
            self.times.append(dt * 2.0 * REFERENCE_S / (ref + reference_s()))


def _output_failures(wl, prep, batches, report) -> int:
    """Failed solves: unexpected solver errors, batches that disagree with the
    first, and rows the CLI re-run does not reproduce."""
    from workloads import EXPECTED_ERRORS

    first = batches[0]
    failed = 0
    for b in batches:
        bad = [s for s in b.solves if s.error and not s.error.startswith(EXPECTED_ERRORS)]
        failed += len(bad)
        for s in bad[:3]:
            report(f"unexpected solver error: {s.error}")
        if b.fingerprint != first.fingerprint:
            failed += len(b.solves)
            report("a batch gave different results from the first on the same inputs")
    n, msgs = wl.check(prep, first)
    for m in msgs:
        report(m)
    return failed + n


def _gap_vs_opt_pct(batch) -> float:
    """Greedy's makespan gap to the exhaustive optimum; 0 when the batch has
    no exhaustive solve to compare with."""
    by = {s.solver: s for s in batch.solves}
    g, b = by.get("greedy"), by.get("brute")
    if g is None or b is None or not b.feasible or not b.makespan:
        return 0.0
    return 100.0 * (g.makespan - b.makespan) / b.makespan


def end_to_end(wl, prep, seconds: float, report) -> tuple[int, int, dict]:
    workers = pool_size() if wl.pooled else 1
    probe = SetupProbe(prep.paths)
    wl.batch(prep, workers)  # warm-up: file cache, lazy imports; not timed
    runs = _batches(wl, prep, workers, seconds, between=probe)
    probe(1.0)
    setup = probe.times
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        # ru_maxrss of children is the largest child's peak: a pool worker,
        # or a set-up probe, which imports and loads the same files
        rss_kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    samples = [t * 1e3 * k for _, b, k in runs for t in b.samples]
    attempted = sum(len(b.solves) for _, b, _ in runs)
    failed = _output_failures(wl, prep, [b for _, b, _ in runs], report)
    first = runs[0][1]
    report(f"batches {len(runs)}, solves {attempted}, per-solve samples {len(samples)}, "
           f"setup runs {len(setup)}")
    report(f"unscaled wall clock: solves_per_s {_median([len(b.solves) / dt for dt, b, _ in runs]):.6g}, "
           f"setup_s {_median(probe.wall):.6g}; speed scale median "
           f"{_median([k for _, _, k in runs]):.4f}, range {min(k for _, _, k in runs):.4f}"
           f"-{max(k for _, _, k in runs):.4f}")
    metrics = {
        "setup_s": (_median(setup), "s"),
        "solves_per_s": (_median([len(b.solves) / (dt * k) for dt, b, k in runs]), "1/s"),
        "solve_ms_p50": (_quantile(samples, 5), "ms"),
        "solve_ms_p90": (_quantile(samples, 9), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "feasible_frac": (sum(s.feasible for s in first.solves) / len(first.solves), "ratio"),
    }
    return attempted, failed, metrics


def _traced_batch(wl, prep, spans_path=None):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        t0 = time.perf_counter()
        batch = wl.batch(prep, 1)
        dt = time.perf_counter() - t0
    finally:
        tracer.restore()
    if spans_path is not None:
        tracer.write(spans_path)
    return dt, batch, layers.metrics(tracer, batch.solves), tracer.missing


def per_layer(wl, prep, seconds: float, report, spans_path: Path) -> tuple[int, int, dict]:
    import layers

    workers = pool_size() if wl.pooled else 1
    start = time.perf_counter()
    pooled = ([(dt, b) for dt, b, _ in _batches(wl, prep, workers, seconds / 2)]
              if workers > 1 else [])
    # untraced and traced single-process batches alternate, so the overhead
    # is a median of differences taken close together in time
    serial, traced = [], []
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        batch = wl.batch(prep, 1)
        serial.append((time.perf_counter() - t0, batch))
        traced.append(_traced_batch(wl, prep, None if traced else spans_path))
    if traced[0][3]:
        report(f"not traced (name not found): {', '.join(traced[0][3])}")
    report(f"spans written to {spans_path.relative_to(ROOT)}")
    at_pool_size = pooled or serial

    runs = pooled + serial + [(t[0], t[1]) for t in traced]
    attempted = sum(len(b.solves) for _, b in runs)
    failed = _output_failures(wl, prep, [b for _, b in runs], report)
    first = traced[0][2]
    for name in layers.COUNTS:
        values = {t[2][name][0] for t in traced}
        if len(values) > 1:
            failed += 1
            report(f"count {name} differs between traced batches: {sorted(values)}")

    # counts are equal; times are the mean over the traced batches
    metrics = {
        name: (v if name in layers.COUNTS else statistics.fmean(t[2][name][0] for t in traced), unit)
        for name, (v, unit) in first.items()
    }
    busy = [sum(s.wall_time for s in b.solves) / (dt * workers) for dt, b in at_pool_size]
    overhead = [dt - sum(s.wall_time for s in b.solves) / workers for dt, b in at_pool_size]
    metrics["bench.worker_busy_frac"] = (_median(busy), "ratio")
    metrics["bench.pool_overhead_s"] = (_median(overhead), "s")
    metrics["solvers.greedy.gap_vs_opt_pct"] = (_gap_vs_opt_pct(runs[0][1]), "%")
    metrics["trace.overhead_s"] = (
        _median([t[0] - u[0] for t, u in zip(traced, serial)]), "s")
    report(f"untraced batches at pool size {workers}: {len(at_pool_size)}, "
           f"single-process untraced/traced pairs: {len(traced)}")
    return attempted, failed, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", report=print) -> dict:
    from workloads import WORKLOADS, Prepared

    wl = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK_ROOT))
    report(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                       "trace": int(trace), "size": size,
                       **environment(pool_size() if wl.pooled else 1)}))
    try:
        prep = Prepared(work=work, seed=seed, size=wl.sizes[size])
        wl.prepare(prep)
        if trace:
            spans = WORK_ROOT / f"spans-{name}-s{seed}.jsonl"
            attempted, failed, metrics = per_layer(wl, prep, seconds, report, spans)
        else:
            attempted, failed, metrics = end_to_end(wl, prep, seconds, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, (v, _) in metrics.items():
        if not math.isfinite(v):
            failed += 1
            report(f"metric {key} is not finite")
            metrics[key] = (0.0, metrics[key][1])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def add_src_path() -> bool:
    if not (SRC / "fogsched" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not add_src_path():
        print(f"error: no fogsched sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          report=lambda m: print(f"# {m}"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
