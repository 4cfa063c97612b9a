"""The census box as hypothesis strategies (MacIver, Hatfield-Dodds et al.
2019, "Hypothesis", JOSS 4(43):1891).

The box is stated once, in ``hetdata.model`` (``GAMMA``, ``UNIFORM``,
``LOG_UNIFORM``, ``LOSS``); these strategies read that statement, so the
tests, the census and verify's criterion-2 sets cannot drift apart.  The
census tool is loaded by path only for ``test_cli``, which runs its
``COMMANDS`` through its ``run_command``.
"""
import importlib.util
import math
from pathlib import Path

from hypothesis import strategies as st

from hetdata.model import GAMMA, LOG_UNIFORM, LOSS, UNIFORM, validate

_PATH = Path(__file__).resolve().parents[1] / "tools" / "domain_census.py"
_spec = importlib.util.spec_from_file_location("domain_census", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def box(name):
    """The census box's strategy for one field of a parameter record."""
    if name == "gamma":
        return st.one_of(st.just(1.0), st.floats(*GAMMA[1]))
    if name == "loss":
        value = st.floats(*LOSS["values"])
        two_point = st.builds(
            lambda p, a, b: {"values": [a, b], "probs": [p, 1.0 - p]},
            st.floats(*LOSS["first_prob"]), value, value)
        return st.one_of(value, two_point)
    if name in LOG_UNIFORM:
        lo, hi = LOG_UNIFORM[name]
        return st.floats(math.log(lo), math.log(hi)).map(math.exp)
    return st.floats(*UNIFORM[name])


def validated_params():
    """A ModelParams from the census box; validate accepts every draw."""
    names = ["gamma", *UNIFORM, *LOG_UNIFORM, "loss"]
    return st.fixed_dictionaries({n: box(n) for n in names}).map(validate)
