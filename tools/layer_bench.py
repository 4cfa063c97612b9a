"""Per-call times of hetdata's layers: memo misses and hits, and arrays.

Times ``numerics.portfolio_moment``, ``threshold.solve_threshold``,
``statics.threshold_sensitivity``, ``wealth.solve_lambda`` and
``model.validate`` over a fixed, seeded set of parameter sets drawn from
the box of perfbench's ``param_scan`` workload (a quarter at gamma = 1),
and the array layers ``mc.draw_population``, ``mc.lln_check``,
``mc.market_clearing_check`` and ``wealth.mc_expected_capital`` at
verify's sizes, and adds the result, under ``--label``, to the JSON file
``--out``.  A label already there for the same source and seed keeps,
for each time, the best of both runs, so that runs of two checkouts can
be alternated:

    PYTHONPATH=src python tools/layer_bench.py --label change --out BENCH.json
    PYTHONPATH=/path/to/other/checkout/src python tools/layer_bench.py \
        --label parent --out BENCH.json

For each memoised layer it reports three per-call times, each the best of
``--repeats`` passes over every case, with the garbage collector off:

* ``miss_us``: the layer's own memos cleared, the layers it calls warm, so
  the layer's own cost on a fresh parameter set;
* ``cold_us``: the memos of all four layers cleared, so what the call
  costs a fresh parameter set, the layers below included;
* ``hit_us``: the same inputs again, a memo hit.

``solve_threshold`` also gets ``g_evals_per_miss``, the mean number of
evaluations of its G per miss over the cases, counted (untimed) through
``threshold.log_ratio_and_slope``, which each evaluation calls once.

``_hermite_nodes`` stays warm throughout: it is built once per quadrature
order, not per parameter set.  ``validate`` has no memo and gets one
time, ``call_us``.  A layer that raises on any case stops the script.

The array layers get one time per call, in milliseconds, also the best of
``--repeats``: ``mc.draw_population`` draws 10^6 agents at default
parameters (``call_ms``; its threshold solve is a memo hit),
``mc.lln_check`` and ``mc.market_clearing_check`` check one such sample,
drawn once (``call_ms`` each), and ``wealth.mc_expected_capital``
simulates 10^5 paths of each of verify's three ``jump_diffusion_mean``
cases with its memo cleared (one ``<case>_ms`` each).  ``cli.wealth_grid``
(``call_ms``) is the whole command ``hetdata wealth --seed SEED
--lambda-grid 1:3:0.1``, in-process, with the ``mc_expected_capital`` memo
cleared, writing its ``wealth.csv`` to a temporary directory, and
``cli.report`` (``call_ms``) is ``hetdata report --seed SEED`` the same way,
with every artifact of the command written there.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

import hetdata
from hetdata import cli, mc, model, numerics, statics, threshold, wealth

BOX = {  # perfbench param_scan's box
    "gamma": (0.5, 8.0),
    "sigma_mu": (0.2, 2.0),
    "sigma_idio": (0.05, 0.8),
    "theta": (0.02, 0.95),
    "tau": (0.05, 0.95),
    "sigma_agg": (0.05, 0.5),
    "D": (0.5, 2.0),
}
# abilities whose friction match has a root at every case of the box
MU_RANGE = (3.0, 8.0)
# under the smallest memo a pass fills (portfolio_moment's 256; 64 in
# sources that memoise the ability laws in threshold), so a hit pass hits
# every layer below
CASES = 60

POPULATION = 10**6  # verify's default --population
PATHS = 10**5       # verify's default --paths
MC_CASES = {  # verify.check_jump_diffusion_mean's cases
    "degenerate_alpha0": {"alpha": 0.0, "w": 0.0},
    "diffusion_only": {"w": 0.0},
    "diffusion_and_jumps": {},
}

MEMOS = {  # layer: its own memos
    "numerics.portfolio_moment": [numerics.portfolio_moment],
    # every memo threshold defines: solve_threshold's, and in older sources
    # that of the ability laws too
    "threshold.solve_threshold": [
        memo for memo in vars(threshold).values()
        if hasattr(memo, "cache_clear") and memo.__module__ == threshold.__name__],
    "statics.threshold_sensitivity": [statics.threshold_sensitivity],
    "wealth.solve_lambda": [wealth.solve_lambda],
}
ALL_MEMOS = [memo for memos in MEMOS.values() for memo in memos]


def _raw_cases(seed: int) -> list:
    rng = np.random.default_rng(seed)
    draws = {k: rng.uniform(lo, hi, CASES) for k, (lo, hi) in BOX.items()}
    draws["gamma"][rng.random(CASES) < 0.25] = 1.0
    mus = rng.uniform(*MU_RANGE, CASES)
    default = model.default_params()
    base = {f.name: getattr(default, f.name) for f in fields(model.ModelParams)}
    return [(dict(base, **{k: float(v[i]) for k, v in draws.items()}),
             float(mus[i])) for i in range(CASES)]


def _calls(layer: str, cases: list) -> list:
    """One zero-argument call per case for the layer."""
    if layer == "numerics.portfolio_moment":
        return [lambda p=p: numerics.portfolio_moment(p.theta, p.sigma_idio,
                                                      p.gamma)
                for p, _ in cases]
    if layer == "threshold.solve_threshold":
        return [lambda p=p: threshold.solve_threshold(p.tau, p) for p, _ in cases]
    if layer == "statics.threshold_sensitivity":
        return [lambda p=p: statics.threshold_sensitivity(p.tau, p)
                for p, _ in cases]
    return [lambda p=p, mu=mu: wealth.solve_lambda(mu, p) for p, mu in cases]


def _pass_us(calls: list) -> float:
    """Mean microseconds per call over one pass, garbage collector off."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for call in calls:
            call()
        elapsed = time.perf_counter_ns() - start
    finally:
        gc.enable()
    return elapsed / len(calls) / 1e3


def _clear(memos) -> None:
    for memo in memos:
        memo.cache_clear()


def _fresh(raw_cases: list) -> list:
    """New ModelParams instances, so no per-instance value is warm."""
    return [(model.validate(raw), mu) for raw, mu in raw_cases]


def _array_calls(seed: int, out: str) -> dict:
    """(layer, key): one zero-argument call of an array layer, or of the
    wealth command, which writes into the directory out."""
    params = model.default_params()
    sample = mc.draw_population(POPULATION, params, numerics.make_stream(seed, 1))
    calls = {("mc.draw_population", "call_ms"):
             lambda: mc.draw_population(POPULATION, params,
                                        numerics.make_stream(seed, 1)),
             ("mc.lln_check", "call_ms"): lambda: mc.lln_check(sample, params),
             ("mc.market_clearing_check", "call_ms"):
             lambda: mc.market_clearing_check(sample, params)}
    for name, overrides in MC_CASES.items():
        case = model.default_params(**overrides)

        def simulate(case=case):
            wealth.mc_expected_capital.cache_clear()
            wealth.mc_expected_capital(case, wealth.LAMBDA_DEFAULT,
                                       case.t_star, PATHS, seed)
        calls[("wealth.mc_expected_capital", f"{name}_ms")] = simulate

    def command(*argv):
        def call():
            wealth.mc_expected_capital.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()):  # verify's lines
                code = cli.main([*argv, "--seed", str(seed), "--out", out])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"hetdata {argv[0]} did not exit 0")
        return call
    calls[("cli.wealth_grid", "call_ms")] = command("wealth", "--lambda-grid",
                                                    "1:3:0.1")
    calls[("cli.report", "call_ms")] = command("report")
    return calls


def _g_evaluations(raw_cases: list) -> float:
    """Mean evaluations of G per solve_threshold miss, every memo cold."""
    count = 0
    real = threshold.log_ratio_and_slope

    def counted(*args):
        nonlocal count
        count += 1
        return real(*args)
    calls = _calls("threshold.solve_threshold", _fresh(raw_cases))
    _clear(ALL_MEMOS)
    threshold.log_ratio_and_slope = counted
    try:
        for call in calls:
            call()
    finally:
        threshold.log_ratio_and_slope = real
    return count / len(calls)


def bench(seed: int, repeats: int, out: str) -> dict:
    """Best per-call times; each repeat passes over every layer in turn, so
    a slow spell of the machine costs every layer one sample, not one
    layer all of them.  The wealth command writes into the directory out."""
    raw_cases = _raw_cases(seed)
    raws = [raw for raw, _ in raw_cases]
    for order in (40, 80, 160, 320):
        numerics._hermite_nodes(order)
    times = {layer: {"miss_us": [], "cold_us": [], "hit_us": []}
             for layer in MEMOS}
    times["model.validate"] = {"call_us": []}
    array_calls = _array_calls(seed, out)
    for layer, key in array_calls:
        times.setdefault(layer, {})[key] = []
    for call in array_calls.values():  # warm the threshold memo and numpy
        call()
    for _ in range(repeats):
        for layer, own in MEMOS.items():
            calls = _calls(layer, _fresh(raw_cases))
            _clear(ALL_MEMOS)
            times[layer]["cold_us"].append(_pass_us(calls))
            times[layer]["hit_us"].append(_pass_us(calls))
            cases = _fresh(raw_cases)
            for lower in MEMOS:  # warm every layer, then clear this one
                for call in _calls(lower, cases):
                    call()
            _clear(own)
            times[layer]["miss_us"].append(_pass_us(_calls(layer, cases)))
        times["model.validate"]["call_us"].append(
            _pass_us([lambda r=r: model.validate(r) for r in raws]))
        default = model.default_params()  # the passes above cleared its solve
        threshold.solve_threshold(default.tau, default)
        for (layer, key), call in array_calls.items():
            times[layer][key].append(_pass_us([call]) / 1e3)
    result = {layer: {key: round(min(samples), 3)
                      for key, samples in t.items()}
              for layer, t in times.items()}
    result["threshold.solve_threshold"]["g_evals_per_miss"] = round(
        _g_evaluations(raw_cases), 3)
    return result


def _source_hash() -> str:
    digest = hashlib.sha256()
    src = Path(hetdata.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="key of this run in the output file")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file; other labels in it are kept")
    parser.add_argument("--repeats", type=int, default=15,
                        help="passes per time, the best kept (default 15)")
    parser.add_argument("--seed", type=int, default=16, help="case seed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    with tempfile.TemporaryDirectory() as out:
        layers = bench(args.seed, args.repeats, out)
    result = {
        "src_sha256": _source_hash(),
        "cases": CASES,
        "repeats": args.repeats,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "layers": layers,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("tool", "tools/layer_bench.py")
    runs = doc.setdefault("runs", {})
    old = runs.get(args.label)
    if old and (old["src_sha256"], old["seed"]) == (result["src_sha256"],
                                                    args.seed):
        result["repeats"] += old["repeats"]
        for layer, t in result["layers"].items():
            for key in t:
                t[key] = min(t[key], old["layers"][layer][key])
    runs[args.label] = result
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    json.dump({args.label: result["layers"]}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
