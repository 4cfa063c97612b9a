"""Command-line surface: solvers, verification suite, CSV/JSON artifacts.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 solver error.  Identical (config, seed) pairs produce byte-identical
artifacts; plot data is emitted as CSV only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import statics, threshold, verify, wealth
from .errors import (
    ConfigError,
    HetdataError,
    InvalidInputError,
    NumericalRangeError,
    ParamError,
)
from .model import ModelParams, default_params, load_params, validate

STAGES = ("threshold", "statics", "wealth", "figure1", "verify")
COMMANDS = STAGES + ("report",)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# The grids the paper's tables and figures need have tens of points, and
# every point is a solve; a spec past a million points is a slip, and one
# past numpy's size limit would crash np.arange, so it is refused first.
MAX_GRID_POINTS = 10**6
# draw_population keeps one block of agents at a time, so run time, not
# memory, bounds the population: `verify --population 100000000` took
# 3.8 s (2.8 s of it the draw) on one core of an x86-64 Xeon with numpy
# 2.4.6, and the time grows linearly, so a larger population is refused
# as a slip.
MAX_POPULATION = 10**8


@dataclass
class RunConfig:
    command: str
    params: ModelParams
    output_dir: Path
    n_paths: int
    population: int
    seed: Optional[int] = None
    tau_grid: Optional[List[float]] = None
    lambda_grid: Optional[List[float]] = None
    mu_grid: Optional[List[float]] = None


def _parse_grid(text: str, name: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} expects a:b:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--{name}: non-numeric grid spec {text!r}") from exc
    if not all(math.isfinite(x) for x in (a, b, step)):
        raise ConfigError(f"--{name}: non-finite grid spec {text!r}")
    if step <= 0.0 or b <= a:
        raise ConfigError(f"--{name}: grid must be strictly increasing, got {text!r}")
    # the grid is a, a + step, ... up to b; a point past b by no more than
    # the rounding of (b - a) / step, under 1e-9 of a step within the cap,
    # is b itself
    span = (b - a) / step
    count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"--{name}: grid {text!r} has {count:.3g} points, "
                          f"more than {MAX_GRID_POINTS}")
    points = np.arange(a, b + 0.5 * step, step)[:count]
    # a step below the float spacing near a point rounds two points together
    if np.any(points[1:] <= points[:-1]):
        raise ConfigError(f"--{name}: grid {text!r} repeats a point; its step "
                          f"is below the float spacing")
    return points.tolist()


def _with_tau(params: ModelParams, flag: str, tau: float) -> ModelParams:
    """params at cost rate tau, which must pass the parameter checks."""
    try:
        return validate(replace(params, tau=tau))
    except ParamError as exc:
        raise ConfigError(f"--{flag}: {exc}") from exc


def _stages(command: str) -> Tuple[str, ...]:
    """The stages a command runs, in order: report runs every stage."""
    return STAGES if command == "report" else (command,)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetdata",
        description="Threshold equilibrium, comparative statics, and "
        "jump-diffusion friction solver with built-in verification.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--params", help="JSON parameter file")
    parser.add_argument("--seed", type=int, help="master seed (required for "
                        "stochastic commands)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--tau", type=float, help="single data cost rate")
    parser.add_argument("--tau-grid", help="tau grid a:b:step")
    parser.add_argument("--lambda-grid", help="lambda grid a:b:step")
    parser.add_argument("--mu-grid", help="ability grid a:b:step")
    parser.add_argument("--paths", type=int, default=100_000,
                        help="Monte Carlo path count")
    parser.add_argument("--population", type=int, default=1_000_000,
                        help="finite-population size for LLN checks")
    return parser


def load_config(argv: List[str]) -> RunConfig:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        raise ConfigError("bad command line") from exc

    stages = _stages(args.command)
    if args.seed is None and ("wealth" in stages or "verify" in stages):
        raise ConfigError(f"--seed is required for the {args.command} command")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.paths < 100:
        raise ConfigError(f"--paths must be >= 100, got {args.paths}")
    if not 2 <= args.population <= MAX_POPULATION:
        raise ConfigError(f"--population must be in [2, {MAX_POPULATION}], "
                          f"got {args.population}")
    # the first of --out and its parents that exists must be a directory;
    # lexists, so that a dangling symlink counts as existing
    out = Path(args.out)
    found = next((p for p in (out, *out.parents) if os.path.lexists(p)), None)
    if found is not None and not found.is_dir():
        raise ConfigError(f"--out {out}: {found} is not a directory")

    if args.params is not None:
        path = Path(args.params)
        if not path.is_file():
            raise ConfigError(f"params file not found: {path}")
        # ParamError, the UTF-8 and JSON decoders' errors and json's limit
        # on integer digits are all ValueErrors
        try:
            params = load_params(path)
        except ValueError as exc:
            raise ConfigError(f"bad params file {path}: {exc}") from exc
    else:
        params = default_params()
    if args.tau is not None:
        params = _with_tau(params, "tau", args.tau)

    # each grid increases, so its ends are its extremes: the points checked
    tau_grid = _parse_grid(args.tau_grid, "tau-grid") if args.tau_grid else None
    if tau_grid is not None:
        _with_tau(params, "tau-grid", tau_grid[0])
        _with_tau(params, "tau-grid", tau_grid[-1])
        # statics compares the grid's first and last points as tau_L < tau_H
        if len(tau_grid) < 2 and "statics" in stages:
            raise ConfigError(f"--tau-grid needs two or more points for "
                              f"{args.command}, got {args.tau_grid!r}")
    lambda_grid = (_parse_grid(args.lambda_grid, "lambda-grid")
                   if args.lambda_grid else None)
    if "wealth" in stages:
        if lambda_grid is not None and lambda_grid[0] < 1.0:
            raise ConfigError(f"--lambda-grid points must be >= 1 for "
                              f"{args.command}, got {lambda_grid[0]}")
        # rows scale the one sample by E K_t*(lambda), whose log falls with
        # lambda (slope 1/lambda - t* < 0, as t* > 1): the first is largest
        lam = (lambda_grid or [wealth.LAMBDA_DEFAULT])[0]
        try:
            wealth.expected_capital(params, params.t_star, lam)
        except NumericalRangeError as exc:
            raise ConfigError(f"{args.command}: {exc}") from exc
    if lambda_grid is not None and "figure1" in stages:
        try:
            wealth.f_lambda(lambda_grid[0], params.t_star)
            wealth.f_lambda(lambda_grid[-1], params.t_star)
        except (InvalidInputError, NumericalRangeError) as exc:
            raise ConfigError(f"--lambda-grid for {args.command}: {exc}") from exc

    mu_grid = _parse_grid(args.mu_grid, "mu-grid") if args.mu_grid else None
    if "figure1" in stages:
        if mu_grid is None:  # figure1's default: about the threshold
            mu_k = threshold.solve_threshold(params.tau, params).mu_k
            mu_grid = [mu_k - 0.5, mu_k + 0.5, mu_k + 1.5]
        # f_mu increases with mu; only its level, figure1.csv's level column,
        # can overflow, since lambda* is solved in log space
        try:
            wealth.f_mu(mu_grid[-1], params)
        except NumericalRangeError as exc:
            raise ConfigError(f"--mu-grid for {args.command}: {exc}") from exc

    return RunConfig(
        command=args.command,
        params=params,
        output_dir=out,
        seed=args.seed,
        tau_grid=tau_grid,
        lambda_grid=lambda_grid,
        mu_grid=mu_grid,
        n_paths=args.paths,
        population=args.population,
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, *tables) -> None:
    """Each (header, rows) table as one line per row, each value written
    as its repr and None as an empty field; one blank line between
    tables."""
    def line(row):
        return ",".join("" if v is None else repr(v) for v in row)
    blocks = ["\n".join([header, *map(line, rows)]) for header, rows in tables]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def _run_threshold(config: RunConfig) -> int:
    taus = config.tau_grid or [config.params.tau]
    rows = []
    for tau in taus:
        sol = threshold.solve_threshold(tau, config.params)
        rows.append({"tau": tau, **sol.to_dict()})
    _write_json(config.output_dir / "threshold.json", rows)
    return EXIT_OK


def _run_statics(config: RunConfig) -> int:
    params = config.params
    taus = config.tau_grid or statics.TAU_GRID
    rows = []
    for tau in taus:
        sol = threshold.solve_threshold(tau, params)
        rows.append((tau, sol.mu_k, sol.dmu_dtau,
                     statics.output_ratio(sol.mu_k, params.sigma_mu)))
    _write_csv(config.output_dir / "sensitivity.csv",
               ("tau,mu_k,dmu_dtau,output_ratio", rows))
    tau_L, tau_H = ((taus[0], taus[-1]) if config.tau_grid
                    else statics.THEOREM1_TAUS)
    report = statics.theorem1_report(tau_L, tau_H, params)
    _write_json(config.output_dir / "theorem1.json", report.to_dict())
    return EXIT_OK


def _run_wealth(config: RunConfig) -> int:
    params, t = config.params, config.params.t_star
    # the one sample, judged at LAMBDA_DEFAULT in units of E K_t*, which
    # are lambda's only way into a path (the streams are keyed by the seed
    # alone): each row is that sample times its own E K_t*, with its verdict
    ratio, se, passed = verify.mc_ratio(params, config.seed, config.n_paths)
    rows = []
    for lam in config.lambda_grid or [wealth.LAMBDA_DEFAULT]:
        closed = wealth.expected_capital(params, t, lam)
        if not math.isfinite(max(ratio, se) * closed):  # E K_t* near max float
            raise NumericalRangeError(f"Monte Carlo row overflows at lambda={lam}")
        rows.append((lam, t, closed, ratio * closed, se * closed, passed))
    _write_csv(config.output_dir / "wealth.csv",
               ("lambda,t,closed_form,mc_estimate,mc_se,pass", rows))
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _run_figure1(config: RunConfig) -> int:
    params = config.params
    lam_grid = config.lambda_grid or [
        float(x) for x in np.arange(1.0, 5.001, 0.05)
    ]
    curve, levels = wealth.figure1_curves(params, lam_grid, config.mu_grid)
    _write_csv(config.output_dir / "figure1.csv",
               ("lambda,f_lambda", curve), ("mu,level,lambda_star", levels))
    return EXIT_OK


def _run_verify(config: RunConfig) -> int:
    results = verify.run_all(config.seed, config.n_paths, config.population)
    _write_json(
        config.output_dir / "verify.json",
        [r.to_dict() for r in results],
    )
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def run(config: RunConfig) -> int:
    """Execute a validated config; artifacts land in config.output_dir."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    runners = {
        "threshold": _run_threshold,
        "statics": _run_statics,
        "wealth": _run_wealth,
        "figure1": _run_figure1,
        "verify": _run_verify,
    }
    return max(runners[stage](config) for stage in _stages(config.command))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(load_config(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HetdataError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
