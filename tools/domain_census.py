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
shrink to improve one.  To compare two checkouts at one seed, both must
state the box in ``hetdata.model``:

    PYTHONPATH=src python tools/domain_census.py --seed 2026 --count 400
    PYTHONPATH=/path/to/other/checkout/src python tools/domain_census.py \\
        --seed 2026 --count 400

The box is stated once, by ``GAMMA``, ``UNIFORM``, ``LOG_UNIFORM``,
``LOSS`` and ``draw_record`` in ``hetdata.model``; verify's criterion-2
sets and the tests' ``validated_params()`` strategy (``tests/domain.py``)
draw from the same statement.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

from hetdata import cli
from hetdata.errors import ConfigError, HetdataError, ParamError
from hetdata.model import draw_record, validate

COMMANDS = (
    ["threshold"],
    ["statics"],
    ["wealth", "--paths", "1000", "--seed", "1"],
    ["figure1"],
)

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
