"""Validated parameter record for the data-economy model.

Field conventions:

* ability distribution N(mu_bar, sigma_mu^2),
* aggregate shock N(-sigma_agg^2/2, sigma_agg^2) and idiosyncratic shock
  N(-sigma_idio^2/2, sigma_idio^2), so both have E[e^shock] = 1,
* sigma_agg (output shock) and sigma_w (wealth diffusion) are distinct
  parameters even though they play similar roles in their own equations.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields as dc_fields
from operator import attrgetter
from pathlib import Path
from typing import Union

from .errors import InvalidInputError, ParamError


@dataclass(frozen=True)
class LossSpec:
    """Jump-loss distribution: a constant or a bounded two-point draw."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.values) not in (1, 2) or len(self.probs) != len(self.values):
            raise InvalidInputError("loss spec needs 1 or 2 (value, prob) pairs")
        # alpha <= 1, so alpha*L rounds to at most L < 1: log1p(-alpha*L) is finite
        for v in self.values:
            if not (0.0 <= v < 1.0):
                raise InvalidInputError(f"loss values must lie in [0, 1), got {v}")
        if any(p <= 0.0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
            raise InvalidInputError("loss probabilities must be positive and sum to 1")

    @classmethod
    def constant(cls, value: float) -> "LossSpec":
        return cls(values=(float(value),), probs=(1.0,))

    @property
    def mean(self) -> float:
        return sum(v * p for v, p in zip(self.values, self.probs))


def _is_finite_number(v) -> bool:
    """An int or float with a finite float value; a bool is an int but
    not a number here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _parse_loss(raw) -> LossSpec:
    if isinstance(raw, LossSpec):
        return raw
    if _is_finite_number(raw):
        return LossSpec.constant(float(raw))
    if isinstance(raw, dict):
        vals = raw.get("values")
        probs = raw.get("probs")
        if vals is None or probs is None:
            raise InvalidInputError("loss dict needs 'values' and 'probs'")
        for key, seq in (("values", vals), ("probs", probs)):
            if not (isinstance(seq, (list, tuple))
                    and all(map(_is_finite_number, seq))):
                raise InvalidInputError(
                    f"{key!r} must be a list of finite numbers, got {seq!r}")
        return LossSpec(values=tuple(float(v) for v in vals),
                        probs=tuple(float(p) for p in probs))
    raise InvalidInputError(f"unrecognized loss descriptor: {raw!r}")


@dataclass(frozen=True)
class ModelParams:
    """Immutable, validated model parameters.  Build via `validate`."""

    gamma: float          # risk aversion; 1 selects log utility
    sigma_mu: float       # ability std
    sigma_agg: float      # aggregate output shock std
    sigma_idio: float     # idiosyncratic output shock std
    theta: float          # retained ownership share
    tau: float            # data cost rate
    D: float              # data contribution to output
    eta: float            # data -> technology exponent
    d0: float             # slope of the data-scale map d = d0 * tau
    r_f: float            # risk-free log return
    alpha: float          # risky portfolio share
    mu0: float            # excess return net of jumps; the drift adds w E L
    w: float              # jump intensity
    loss: LossSpec        # jump loss distribution
    sigma_w: float        # wealth diffusion volatility
    W0: float             # initial net wealth
    t_star: float         # matching horizon
    EK_target: float      # target expected capital in the friction match
    mu_bar: float = 0.0   # ability mean

    # Memo lookups hash params on every call, so the field tuple is hashed
    # once, here; equality stays field by field.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(_field_values(self)))

    def __hash__(self) -> int:
        return self._hash


# log(tau/(1-tau)) overflows floats outside this band
TAU_MIN, TAU_MAX = 1e-6, 1.0 - 1e-6
# exactly the stds s whose square is a normal float, where sqrt(s * s) == s:
# so each law's std is its sigma, and its variance sigma^2 is > 0 and finite
_STD_MIN, _STD_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)
_STD_RANGE = f"must be in [{_STD_MIN:.5g}, {_STD_MAX:.5g}]"

_RANGE_CHECKS = [
    ("gamma", lambda p: p["gamma"] > 0.0, "must be > 0"),
    ("sigma_mu", lambda p: _STD_MIN <= p["sigma_mu"] <= _STD_MAX, _STD_RANGE),
    ("sigma_agg", lambda p: _STD_MIN <= p["sigma_agg"] <= _STD_MAX, _STD_RANGE),
    ("sigma_idio", lambda p: _STD_MIN <= p["sigma_idio"] <= _STD_MAX, _STD_RANGE),
    ("theta", lambda p: 0.0 < p["theta"] < 1.0, "must be in (0, 1)"),
    ("tau", lambda p: TAU_MIN <= p["tau"] <= TAU_MAX,
     f"must be in [{TAU_MIN}, {TAU_MAX}]"),
    ("D", lambda p: p["D"] > 0.0, "must be > 0"),
    ("eta", lambda p: 0.0 < p["eta"] < 1.0, "must be in (0, 1)"),
    ("d0", lambda p: p["d0"] > 0.0, "must be > 0"),
    ("alpha", lambda p: 0.0 <= p["alpha"] <= 1.0, "must be in [0, 1]"),
    ("mu0", lambda p: p["mu0"] > 0.0, "must be > 0"),
    ("w", lambda p: p["w"] >= 0.0, "must be >= 0"),
    ("sigma_w", lambda p: p["sigma_w"] >= 0.0, "must be >= 0"),
    ("W0", lambda p: p["W0"] > 0.0, "must be > 0"),
    ("t_star", lambda p: p["t_star"] > 1.0,
     "must be > 1 (the friction match lives on the increasing branch)"),
    ("EK_target", lambda p: p["EK_target"] > 0.0, "must be > 0"),
]

_FIELD_NAMES = tuple(f.name for f in dc_fields(ModelParams))
# an exact-size tuple: tuple() of a generator over-allocates, and the freed
# tuples then pile up on CPython's free list for their size (~0.4 MB)
_field_values = attrgetter(*_FIELD_NAMES)
_FIELD_SET = frozenset(_FIELD_NAMES)
_REQUIRED_SET = _FIELD_SET - {"mu_bar"}
_NUMERIC = tuple(n for n in _FIELD_NAMES if n != "loss")


def validate(raw: Union[dict, ModelParams]) -> ModelParams:
    """Validate a raw record; raises ParamError with every violation found."""
    if isinstance(raw, ModelParams):
        raw = dict(zip(_FIELD_NAMES, _field_values(raw)))
    violations = []
    unknown = raw.keys() - _FIELD_SET
    if unknown:
        violations.append(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = _REQUIRED_SET - raw.keys()
    if missing:
        violations.append(f"missing keys: {', '.join(sorted(missing))}")
    if violations:
        raise ParamError(violations)

    vals = {"mu_bar": 0.0, **raw}
    try:
        vals["loss"] = _parse_loss(vals["loss"])
    except InvalidInputError as exc:
        raise ParamError([f"loss: {exc}"]) from exc

    for name in _NUMERIC:
        v = vals[name]
        if type(v) is float and v - v == 0.0:  # a finite float, kept as is
            continue
        if not _is_finite_number(v):
            violations.append(f"{name}: must be a finite number, got {v!r}")
        else:
            vals[name] = float(v)
    if violations:
        raise ParamError(violations)

    for name, ok, msg in _RANGE_CHECKS:
        if not ok(vals):
            violations.append(f"{name}: {msg} (got {vals[name]})")
    if violations:
        raise ParamError(violations)
    return ModelParams(**vals)


# The census box: a part of the validated domain, each range inside its
# _RANGE_CHECKS range, so validate accepts every draw.  gamma = 1 for this
# share of the records, else U[lo, hi]
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
# a one-point loss for this share of the records, else a two-point one: each
# value U[values], the first probability U[first_prob]
LOSS = {"one_point": 0.5, "values": (0.0, 0.95), "first_prob": (0.05, 0.95)}


def draw_record(gen) -> dict:
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


def load_params(path) -> ModelParams:
    """Read parameters from a JSON document with exactly the field names."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ParamError(["top-level JSON value must be an object"])
    return validate(raw)


# every default set shares one frozen loss record: _parse_loss keeps it
_DEFAULTS = dict(
    gamma=2.0,
    mu_bar=0.0,
    sigma_mu=1.0,
    sigma_agg=0.2,
    sigma_idio=0.5,
    theta=0.1,
    tau=0.5,
    D=1.0,
    eta=0.5,
    d0=1.0,
    r_f=0.02,
    alpha=0.5,
    mu0=0.08,
    w=0.1,
    loss=LossSpec.constant(0.2),
    sigma_w=0.3,
    W0=1.0,
    t_star=2.0,
    EK_target=0.02,
)


def default_params(**overrides) -> ModelParams:
    """Reference parameter set used by the CLI when no file is given."""
    return validate({**_DEFAULTS, **overrides})
