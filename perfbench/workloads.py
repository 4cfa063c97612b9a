"""The benchmark workloads: seeded inputs, one op, correctness checks.

Every op calls the program through module attributes (``threshold.
solve_threshold``, not a name imported from it), so the traced run's
wrappers see the benchmark's own calls.  Op ``i`` draws its inputs from
arrays generated once, in set-up, from the workload seed; op 0 is the
untimed warm-up.  ``digest_ops`` is how many timed ops make up the
determinism digest and ``trace_ops`` how many ops a traced run executes;
both are fixed so that digests and per-layer counts repeat exactly.

An op fails if it raises or if an exact identity of the model does not
hold (a wrong answer, which also makes the run incorrect); a Monte Carlo
estimate with standard error 0 must meet verify's rounding slack exactly.
A Monte Carlo estimate with a standard error is checked by the 3-SE
rule, which a correct program misses by chance at the rate
``THREE_SE_MISS`` per check.  Such a miss is tallied, not failed; the run
is incorrect only if too many of its ops miss for chance
(``too_many_misses``).  A ``NoSolutionError`` whose target lies below the
branch minimum is the friction match's documented no-root answer and is
counted, not failed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

from hetdata import cli, numerics, statics, threshold
from hetdata.errors import NoSolutionError
from hetdata.model import default_params

from tracing import is_documented_no_root

INDIFFERENCE_TOL = 1e-8  # verify.check_threshold_indifference
THREE_SE_MISS = 0.0026997960632601866  # P(|Z| > 3), Z standard normal
MISS_TAIL = 1e-6  # a run is incorrect if chance gives its 3-SE misses less often


@dataclass
class OpResult:
    output: str = ""                 # repr of everything the op computed
    error: str = ""                  # "Type: message" if the op raised
    wrong: List[str] = field(default_factory=list)   # exact identities failed
    misses: List[str] = field(default_factory=list)  # 3-SE checks missed
    se_checks: int = 0               # 3-SE comparisons with se > 0
    no_solution: int = 0
    artifact_bytes: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.error or self.wrong)


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def _indifference_error(tau, sol, params) -> float:
    v_user = threshold.user_utility(sol.K, tau, params)
    v_provider = threshold.provider_utility(tau, sol.m, sol.tail_mean, params)
    return abs(v_user - v_provider) / max(1.0, abs(v_user), abs(v_provider))


def _check_solution(res: OpResult, tau, params) -> tuple:
    """The moment, threshold, indifference and dmu/dtau shared by two ops."""
    moment = numerics.portfolio_moment(params.theta, params.sigma_idio,
                                       params.gamma)
    sol = threshold.solve_threshold(tau, params)
    gap = _indifference_error(tau, sol, params)
    sens = statics.threshold_sensitivity(tau, params)
    if not gap <= INDIFFERENCE_TOL:
        res.wrong.append(f"indifference gap {gap!r} at tau={tau!r}")
    if not sens > 0.0:
        res.wrong.append(f"dmu/dtau = {sens!r} <= 0 at tau={tau!r}")
    return moment, sol, gap, sens


def _mc_check(res: OpResult, name, passed, se) -> None:
    """A Monte Carlo estimate against its closed form: the 3-SE rule if
    se > 0, whose misses are tallied, else exact."""
    if se > 0.0:
        res.se_checks += 1
        if not passed:
            res.misses.append(name)
    elif not passed:
        res.wrong.append(name)


def too_many_misses(missed_ops: int, se_checks: int) -> bool:
    """Whether chance alone makes at least ``missed_ops`` ops miss a 3-SE
    check, in ops that made ``se_checks`` checks in all, with probability
    below ``MISS_TAIL``.

    Checks within an op may be correlated (``wealth.csv``'s row repeats a
    verify case), but ops are independent and an op with k checks misses
    with probability at most k * THREE_SE_MISS.  So the count of ops that
    miss has a lighter upper tail than a Poisson count of mean
    ``THREE_SE_MISS * se_checks``, which is the one tested.
    """
    mean = THREE_SE_MISS * se_checks
    if mean == 0.0:
        return missed_ops > 0
    below = sum(math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                for k in range(missed_ops))
    return 1.0 - below < MISS_TAIL


class TauSweep:
    """One random point of the tau grid at default params, for each gamma
    in {1, 2, 5}."""

    GAMMAS = (1.0, 2.0, 5.0)
    TAUS = tuple(round(0.02 + 0.01 * k, 2) for k in range(97))  # 0.02..0.98
    capacity, digest_ops, trace_ops = 200_000, 100, 100

    def __init__(self, seed: int, out_dir: Path):
        self.params = [default_params(gamma=g) for g in self.GAMMAS]
        self.tau_idx = _rng(seed, "tau_sweep").integers(len(self.TAUS),
                                                        size=self.capacity)

    def op(self, i: int, res: OpResult) -> None:
        tau = self.TAUS[self.tau_idx[i]]
        # the point 0.10 lower, or 0.10 higher where that leaves (0, 1)
        pair = (round(tau - 0.1, 2), tau) if tau >= 0.12 else (tau, round(tau + 0.1, 2))
        res.output = repr([self._point(res, tau, pair, params)
                           for params in self.params])

    @staticmethod
    def _point(res: OpResult, tau, pair, params) -> tuple:
        moment, sol, gap, sens = _check_solution(res, tau, params)
        ratio = statics.output_ratio(sol.mu_k, params.sigma_mu)
        try:
            report = statics.theorem1_report(*pair, params)
        except NoSolutionError as exc:
            if not is_documented_no_root(exc):
                raise
            res.no_solution += 1
            report = ("no_solution", exc.target, exc.branch_minimum)
        else:
            verdicts = report.to_dict()["verdicts"]
            if not all(verdicts.values()):
                res.wrong.append(f"theorem1 orderings {verdicts} at {pair}")
        return tau, moment, sol, gap, sens, ratio, report


class ParamScan:
    """A fresh ModelParams per op over a box wider than verify's.

    sigma_idio stops at verify's 0.8: above it, some (theta, gamma) in the
    box make ``portfolio_moment`` raise (ROADMAP item 3), and ops here must
    not fail.  That defect is measured by ``quadrature_corner_probe``.
    """

    BOX = {  # field: (low, high)
        "gamma": (0.5, 8.0),
        "sigma_mu": (0.2, 2.0),
        "sigma_idio": (0.05, 0.8),
        "theta": (0.02, 0.95),
        "tau": (0.05, 0.95),
        "sigma_agg": (0.05, 0.5),
        "D": (0.5, 2.0),
    }
    capacity, digest_ops, trace_ops = 200_000, 100, 200

    def __init__(self, seed: int, out_dir: Path):
        rng = _rng(seed, "param_scan")
        self.draws = {k: rng.uniform(lo, hi, self.capacity)
                      for k, (lo, hi) in self.BOX.items()}
        self.draws["gamma"][rng.random(self.capacity) < 0.25] = 1.0  # log branch

    def op(self, i: int, res: OpResult) -> None:
        params = default_params(**{k: float(v[i]) for k, v in self.draws.items()})
        res.output = repr(params)
        results = _check_solution(res, params.tau, params)
        res.output += repr(results)


class Report:
    """``hetdata report --seed s --out DIR``, run in-process."""

    capacity, digest_ops, trace_ops = 100_000, 3, 8

    def __init__(self, seed: int, out_dir: Path):
        self.op_seeds = _rng(seed, "report").integers(2**31, size=self.capacity)
        self.out = out_dir

    def op(self, i: int, res: OpResult) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["report", "--seed", str(int(self.op_seeds[i])),
                             "--out", str(self.out)])
        digest = hashlib.sha256(printed.getvalue().encode())
        for path in sorted(self.out.iterdir()):
            data = path.read_bytes()
            res.artifact_bytes += len(data)
            digest.update(path.name.encode() + b"\0" + data)
        res.output = f"{code} {digest.hexdigest()}"
        if code not in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL):
            res.error = f"exit code {code}"
            return
        self._check_artifacts(res)
        if code == cli.EXIT_VERIFY_FAIL and not (res.failed or res.misses):
            res.wrong.append("exit code 1 with every check passing")
        if code == cli.EXIT_OK and res.misses:
            res.wrong.append(f"exit code 0 with checks missed: {res.misses}")

    def _check_artifacts(self, res: OpResult) -> None:
        for entry in json.loads((self.out / "verify.json").read_text()):
            detail = entry["detail"]
            if entry["name"] == "lln_and_clearing":
                for r in detail["reports"]:
                    _mc_check(res, r["statistic"], r["pass"], r["se"])
            elif entry["name"] == "jump_diffusion_mean":
                for case, r in detail.items():
                    _mc_check(res, f"mc_mean:{case}", r["pass"], r["se"])
            elif not entry["pass"]:
                res.wrong.append(entry["name"])
        for row in (self.out / "wealth.csv").read_text().splitlines()[1:]:
            lam, *_, se, passed = row.split(",")
            _mc_check(res, f"wealth.csv:lambda={lam}", passed == "True", float(se))


# A fixed grid of (theta, sigma_idio, gamma), all accepted by ``validate``,
# in the corner of the moment's domain that ``ParamScan`` leaves out.
CORNER = tuple((theta, sigma, gamma) for gamma in (6.0, 7.0, 8.0)
               for theta in (0.8, 0.9, 0.95) for sigma in (1.2, 1.6, 2.0))


def quadrature_corner_probe() -> int:
    """How many ``CORNER`` points ``portfolio_moment`` fails to evaluate.

    Today 15 of 27 raise ``InvalidInputError("quadrature weights must be
    positive")``: ``hermgauss`` gives non-finite weights at order 640,
    which the doubling loop reaches there.  A fix of that defect shows up
    as this count falling to 0.  Not an op: no workload runs these points.
    """
    fails = 0
    for theta, sigma, gamma in CORNER:
        try:
            numerics.portfolio_moment(theta, sigma, gamma)
        except Exception:  # any failure to evaluate counts
            fails += 1
    return fails


WORKLOADS = {
    "tau_sweep": TauSweep,
    "param_scan": ParamScan,
    "report": Report,
}


def run_op(workload, i: int) -> OpResult:
    """Run op i; an exception is recorded as the op's failure, not raised."""
    res = OpResult()
    try:
        workload.op(i, res)
    except Exception as exc:  # the benchmark keeps going and counts it
        res.error = f"{type(exc).__name__}: {exc}"
        res.output += f"raised {res.error}"
    return res
