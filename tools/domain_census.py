"""Census of the validated parameter domain: what each command does with it.

Draws ``--count`` parameter files from a fixed box, keeping only those
that ``model.validate`` accepts, and runs four commands on each one,
in-process, with ``RuntimeWarning`` raised as an error:

    threshold, statics, wealth --paths 1000 --seed 1, figure1

It prints one JSON document: the box's draws that ``validate`` refused
(``rejected``) and, per command, the count of each exit code and error
type.  Exit 0 and exit 1 (a Monte Carlo verdict that failed) carry the
type ``none``; exit 2 is ``ConfigError``, with the type of the error it
wraps in parentheses; exit 3 is the solver's typed error; an exception
that is not a ``HetdataError``, a ``RuntimeWarning`` among them, is
counted under ``untyped``.  It is a report, not a gate: a count says
where the domain that ``validate`` accepts fails, and the box does not
shrink to improve one.  The draws do not depend on the hetdata source,
so two checkouts can be compared at one seed:

    PYTHONPATH=src python tools/domain_census.py --seed 2026 --count 400
    PYTHONPATH=/path/to/other/checkout/src python tools/domain_census.py \\
        --seed 2026 --count 400

The box is stated once, by ``GAMMA``, ``UNIFORM``, ``LOG_UNIFORM`` and
``LOSS`` below; the tests' ``validated_params()`` strategy
(``tests/domain.py``) is built from the same statement.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

from hetdata import cli
from hetdata.errors import ConfigError, HetdataError, ParamError
from hetdata.model import validate

COMMANDS = (
    ["threshold"],
    ["statics"],
    ["wealth", "--paths", "1000", "--seed", "1"],
    ["figure1"],
)

# gamma = 1 for this share of the files, else U[lo, hi]
GAMMA = (0.25, (0.3, 12.0))
UNIFORM = {
    "mu_bar": (-5.0, 5.0), "sigma_mu": (0.05, 3.0), "sigma_agg": (0.01, 1.0),
    "sigma_idio": (0.01, 3.0), "theta": (0.001, 0.999), "tau": (0.01, 0.99),
    "eta": (0.01, 0.99), "r_f": (-0.05, 0.1), "alpha": (0.0, 1.0),
    "mu0": (0.01, 0.5), "w": (0.0, 50.0), "sigma_w": (0.0, 5.0),
    "t_star": (1.01, 60.0),
}
LOG_UNIFORM = {"D": (1e-2, 1e2), "d0": (1e-2, 1e2), "W0": (1e-2, 1e2),
               "EK_target": (1e-4, 1e2)}
# a one-point loss for this share of the files, else a two-point one: each
# value U[values], the first probability U[first_prob]
LOSS = {"one_point": 0.5, "values": (0.0, 0.95), "first_prob": (0.05, 0.95)}


def draw_record(gen: np.random.Generator) -> dict:
    """One parameter record from the box, as a params file holds it."""
    share, (lo, hi) = GAMMA
    record = {"gamma": 1.0 if gen.random() < share else gen.uniform(lo, hi)}
    for name, (lo, hi) in UNIFORM.items():
        record[name] = gen.uniform(lo, hi)
    for name, (lo, hi) in LOG_UNIFORM.items():
        record[name] = math.exp(gen.uniform(math.log(lo), math.log(hi)))
    if gen.random() < LOSS["one_point"]:
        record["loss"] = gen.uniform(*LOSS["values"])
    else:
        p = gen.uniform(*LOSS["first_prob"])
        record["loss"] = {"values": [gen.uniform(*LOSS["values"]),
                                     gen.uniform(*LOSS["values"])],
                          "probs": [p, 1.0 - p]}
    return record


def run_command(argv: list) -> tuple:
    """(exit code, error type) of one in-process CLI run, with cli.main's
    map from errors to exit codes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return str(cli.run(cli.load_config(argv))), "none"
        except ConfigError as exc:
            cause = exc.__cause__
            kind = f"ConfigError({type(cause).__name__})" if cause else "ConfigError"
            return str(cli.EXIT_CONFIG), kind
        except HetdataError as exc:
            return str(cli.EXIT_SOLVER), type(exc).__name__
        except Exception as exc:  # noqa: BLE001 -- the census counts it
            return "untyped", type(exc).__name__


def census(seed: int, count: int) -> dict:
    gen = np.random.default_rng(seed)
    tally = {argv[0]: defaultdict(lambda: defaultdict(int)) for argv in COMMANDS}
    rejected = 0
    with tempfile.TemporaryDirectory() as tmp:
        kept = 0
        while kept < count:
            record = draw_record(gen)
            try:
                validate(record)
            except ParamError:
                rejected += 1
                continue
            path = Path(tmp) / f"params_{kept}.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            for argv in COMMANDS:
                out = Path(tmp) / f"out_{kept}_{argv[0]}"
                code, kind = run_command(
                    argv + ["--params", str(path), "--out", str(out)])
                tally[argv[0]][code][kind] += 1
            kept += 1
    return {
        "seed": seed,
        "count": count,
        "rejected": rejected,
        "tally": {cmd: {code: dict(kinds) for code, kinds in sorted(codes.items())}
                  for cmd, codes in tally.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the parameter draws")
    parser.add_argument("--count", type=int, required=True,
                        help="validated parameter files to run")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be >= 1")
    json.dump(census(args.seed, args.count), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
