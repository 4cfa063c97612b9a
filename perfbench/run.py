"""hetdata benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tau_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; hetdata is imported from its ``src/``.
Each worker process is a fresh interpreter with one BLAS thread.

``--trace 0``: three processes set up the workload (import, inputs,
warm-up op); ``setup_s`` is their median, each rescaled by the time of a
fixed calibration kernel run right after set-up.  Their warm-up outputs must
hash alike, or the run is not correct.  The last of them then runs ops
back to back, closed loop and untraced, for ``--seconds``.  A fixed
calibration kernel is timed before each op; ``op_cost_cal``, the op time
over the kernel time, is the throughput metric that the machine's own
speed changes cancel out of.  Raw ``ops_per_s`` is in the details.

``--trace 1``: one process runs a fixed set of ops traced and untraced
and reports the per-layer metrics and the tracing overhead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the details (latency percentiles, failure
causes, digests, environment), which are also saved under
``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tau_sweep", "param_scan", "report")
SETUP_RUNS = 3
# setup_s is given in seconds of a machine on which one run of the
# calibration kernel takes this long, so the machine's speed changes cancel.
KERNEL_REF_S = 2e-3
DEADLINE_S = 170.0   # every run must end within 180 s
P90_MIN_OPS = 100    # at least ten samples beyond the 90th percentile
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _source_identity() -> dict:
    """Git SHA when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _worker(args, mode: str, deadline: float) -> dict:
    """Run one worker process to its end and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode,
           "--started", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=env, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{mode} worker ran past the deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _result_measure(args, deadline) -> tuple:
    setups, kernels, warmups = [], [], []
    for k in range(SETUP_RUNS):
        done = _worker(args, "measure" if k == SETUP_RUNS - 1 else "probe",
                       deadline)
        setups.append(done.pop("setup_s"))
        kernels.append(done.pop("setup_kernel_s"))
        warmups.append(done.pop("warmup_digest"))
    lat = done.pop("latencies")
    cal = done.pop("calibration")
    n = len(lat)
    wrong = done.pop("wrong")
    deterministic = len(set(warmups)) == 1
    if not deterministic:
        wrong.append(f"warm-up digests differ across processes: {warmups}")
    metrics = {
        "setup_s": (statistics.median(
            s * KERNEL_REF_S / k for s, k in zip(setups, kernels)), "s"),
        "op_cost_cal": (sum(lat) / sum(cal), "cal"),
        "peak_rss_mb": (done.pop("maxrss_kb") / 1024.0, "MB"),
    }
    detail = {
        "op_samples": n,
        "ops_per_s": n / sum(lat),
        "calibration_ms": 1e3 * statistics.median(cal),
        "fail_frac": done["failed"] / n,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8]
        if n >= P90_MIN_OPS else None,
        "op_max_ms": 1e3 * max(lat),
        "setup_raw_s": statistics.median(setups),
        "setup_samples_s": setups,
        "setup_kernel_ms": [1e3 * k for k in kernels],
        "warmup_digest": warmups[0],
        "wrong": wrong[:20],
        "wrong_count": len(wrong),
        **done,
    }
    return not wrong, n, done["failed"], metrics, detail


def _result_trace(args, deadline) -> tuple:
    done = _worker(args, "trace", deadline)
    wrong = done.pop("wrong")
    metrics = {k: tuple(v) for k, v in done.pop("metrics").items()}
    detail = {"wrong": wrong[:20], "wrong_count": len(wrong), **done}
    return not wrong, done["attempted"], done["failed"], metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "hetdata" / "__init__.py").is_file():
        print(f"no hetdata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    try:
        correct, attempted, failed, metrics, detail = (
            _result_trace if args.trace else _result_measure)(args, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **_source_identity(), **detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
