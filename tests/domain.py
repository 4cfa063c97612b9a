"""The census box as hypothesis strategies (MacIver, Hatfield-Dodds et al.
2019, "Hypothesis", JOSS 4(43):1891).

The box is stated once, in ``tools/domain_census.py``; these strategies
read that statement, so the tests and the census cannot drift apart.
"""
import importlib.util
import math
from pathlib import Path

from hypothesis import strategies as st

from hetdata.model import validate

_PATH = Path(__file__).resolve().parents[1] / "tools" / "domain_census.py"
_spec = importlib.util.spec_from_file_location("domain_census", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def box(name):
    """The census box's strategy for one field of a parameter record."""
    if name == "gamma":
        return st.one_of(st.just(1.0), st.floats(*census.GAMMA[1]))
    if name == "loss":
        value = st.floats(*census.LOSS["values"])
        two_point = st.builds(
            lambda p, a, b: {"values": [a, b], "probs": [p, 1.0 - p]},
            st.floats(*census.LOSS["first_prob"]), value, value)
        return st.one_of(value, two_point)
    if name in census.LOG_UNIFORM:
        lo, hi = census.LOG_UNIFORM[name]
        return st.floats(math.log(lo), math.log(hi)).map(math.exp)
    return st.floats(*census.UNIFORM[name])


def validated_params():
    """A ModelParams from the census box; validate accepts every draw."""
    names = ["gamma", *census.UNIFORM, *census.LOG_UNIFORM, "loss"]
    return st.fixed_dictionaries({n: box(n) for n in names}).map(validate)
