"""One benchmark process: set up a workload, then probe, measure or trace.

Started by ``run.py`` in a fresh interpreter, so ``ru_maxrss`` and the
set-up time belong to one workload.  Every mode imports hetdata from the
checkout's ``src/``, generates the workload's inputs and runs op 0 as an
untimed warm-up.  Set-up time runs from ``--started``, the
CLOCK_MONOTONIC reading ``run.py`` took before starting this process, to
the end of the warm-up; the calibration kernel is timed right after it.

  probe    stop after the ready line.
  measure  run ops back to back, untraced, for ``--seconds``, timing a
           fixed calibration kernel before each op.
  trace    run each of the workload's first ``trace_ops`` ops twice, once traced and
           once not (alternating which goes first), for per-layer
           metrics and the tracing overhead.

The result is one JSON line on stdout; anything the program prints goes
to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

def _environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _calibration_kernel(array) -> float:
    """Fixed work that does not depend on hetdata.

    It has the shape of an op: Gauss-Hermite nodes from numpy, a Python
    loop of math calls over them, and one pass over an array.  So it slows
    down and speeds up with the machine as ops do.  The shared VM this was
    built on switches between two speeds about 1.5x apart every 10-30 s;
    op time over kernel time cancels that.
    """
    import numpy
    from numpy.polynomial.hermite import hermgauss

    total = float(numpy.exp(array).sum())
    g = lambda e: (0.1 * math.exp(e) + 0.9) ** -1.0
    for order in (40, 80):
        nodes, weights = hermgauss(order)
        for node, weight in zip(nodes, weights):
            total += weight * g(float(node))
    return total


def _calibration_array():
    import numpy

    return numpy.random.default_rng(0).standard_normal(200_000)


def _kernel_seconds(array, repeats: int = 5) -> float:
    """Median time of the calibration kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_kernel(array)
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def _se_misses(wrong, misses, missed_ops, se_checks) -> dict:
    """Tally the 3-SE misses; too many for chance make the run incorrect."""
    from workloads import THREE_SE_MISS, too_many_misses

    if too_many_misses(missed_ops, se_checks):
        wrong.append(f"{missed_ops} ops missed a 3-SE check in {se_checks} "
                     f"checks, {THREE_SE_MISS * se_checks:.3g} expected by chance")
    return dict(misses=dict(misses), se_missed_ops=missed_ops,
                se_checks=se_checks,
                expected_se_misses=THREE_SE_MISS * se_checks)


def _measure(workload, seconds) -> dict:
    from workloads import run_op

    array = _calibration_array()
    digest = hashlib.sha256()
    latencies, calibration = [], []
    errors, misses, wrong = Counter(), Counter(), []
    failed = no_solution = se_checks = missed_ops = 0
    start = time.perf_counter()
    for i in range(1, workload.capacity):
        c0 = time.perf_counter()
        _calibration_kernel(array)
        t0 = time.perf_counter()
        res = run_op(workload, i)
        t1 = time.perf_counter()
        calibration.append(t0 - c0)
        latencies.append(t1 - t0)
        failed += res.failed
        no_solution += res.no_solution
        misses.update(res.misses)
        missed_ops += bool(res.misses)
        se_checks += res.se_checks
        wrong += res.wrong
        if res.error:
            errors[res.error] += 1
        if i <= workload.digest_ops:
            digest.update(res.output.encode() + b"\n")
        if t1 - start >= seconds and i >= workload.digest_ops:
            break
    return dict(
        latencies=latencies,
        calibration=calibration,
        failed=failed,
        errors=dict(errors),
        wrong=wrong,
        no_solution=no_solution,
        **_se_misses(wrong, misses, missed_ops, se_checks),
        digest=digest.hexdigest(),
        digest_ops=workload.digest_ops,
    )


def _trace(workload, name, seed) -> dict:
    import tracing
    from workloads import quadrature_corner_probe, run_op

    tracer = tracing.Tracer()
    wall = {False: 0.0, True: 0.0}
    failed = attempted = artifact_bytes = se_checks = missed_ops = 0
    wrong, errors, misses = [], Counter(), Counter()
    digest = hashlib.sha256()
    for i in range(1, workload.trace_ops + 1):
        outputs = {}
        for traced in ((False, True) if i % 2 else (True, False)):
            if traced:
                with tracer.op(i):
                    res = run_op(workload, i)
                root = tracer.spans[-1]
                wall[True] += root[5] - root[4]
                artifact_bytes += res.artifact_bytes
                # the untraced run repeats these checks on the same inputs
                misses.update(res.misses)
                missed_ops += bool(res.misses)
                se_checks += res.se_checks
            else:
                t0 = time.perf_counter()
                res = run_op(workload, i)
                wall[False] += time.perf_counter() - t0
            outputs[traced] = res.output
            attempted += 1
            failed += res.failed
            wrong += res.wrong
            if res.error:
                errors[res.error] += 1
        if outputs[True] != outputs[False]:
            wrong.append(f"op {i}: traced output differs from untraced output")
        digest.update(outputs[True].encode() + b"\n")

    selfs = tracing.self_times(tracer.spans)
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span[2], []).append(span)
    worst_gap = max(tracing.check_op(spans, selfs) for spans in by_op.values())
    if worst_gap > 1e-9:
        wrong.append(f"layer self times miss op wall time by {worst_gap:.3g}")

    metrics = tracing.layer_metrics(tracer.spans, selfs, tracer.counts)
    metrics["cli.main.artifact_bytes"] = (artifact_bytes, "bytes")
    metrics["tracing_overhead_frac"] = (wall[True] / wall[False] - 1.0, "fraction")
    metrics["numerics.portfolio_moment.corner_fails"] = (
        quadrature_corner_probe(), "count")

    spans_path = HERE / "out" / f"spans-{name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span_id, parent, op_id, span_name, start, end, status in tracer.spans:
            fh.write(json.dumps({
                "id": span_id, "parent": parent, "op": op_id, "name": span_name,
                "start": start, "end": end, "self": selfs[span_id],
                "status": status}) + "\n")
    return dict(
        attempted=attempted,
        failed=failed,
        errors=dict(errors),
        **_se_misses(wrong, misses, missed_ops, se_checks),
        wrong=wrong,
        metrics=metrics,
        spans=len(tracer.spans),
        max_busy_sum_gap=worst_gap,
        digest=digest.hexdigest(),
        digest_ops=workload.trace_ops,
        spans_file=str(spans_path.relative_to(ROOT)),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"),
                        required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args(argv)
    result_stream, sys.stdout = sys.stdout, sys.stderr

    sys.path.insert(0, str(SRC))
    import hetdata
    from workloads import WORKLOADS, run_op

    if Path(hetdata.__file__).resolve().parent != SRC / "hetdata":
        raise SystemExit(f"hetdata imported from {hetdata.__file__}, not {SRC}")
    out_dir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, out_dir)
        warmup = run_op(workload, 0)
        results = {
            "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.started,
            "setup_kernel_s": _kernel_seconds(_calibration_array()),
            "warmup_digest": hashlib.sha256(warmup.output.encode()).hexdigest(),
        }
        if args.mode != "probe":
            results["environment"] = _environment()
            if args.mode == "measure":
                results.update(_measure(workload, args.seconds))
            else:
                results.update(_trace(workload, args.workload, args.seed))
            results["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(results), file=result_stream)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
