import copy
import json
import math
import pickle
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdata.errors import InvalidInputError, ParamError
from hetdata.model import (
    GAMMA,
    LOG_UNIFORM,
    LOSS,
    UNIFORM,
    LossSpec,
    ModelParams,
    default_params,
    load_params,
    validate,
)
from hetdata.numerics import shock_mean
from hetdata.threshold import solve_threshold


def base_record(**overrides):
    record = dict(
        gamma=2.0, sigma_mu=1.0, sigma_agg=0.2, sigma_idio=0.5, theta=0.1,
        tau=0.5, D=1.0, eta=0.5, d0=1.0, r_f=0.02, alpha=0.5, mu0=0.08,
        w=0.1, loss=0.2, sigma_w=0.3, W0=1.0, t_star=2.0, EK_target=0.02,
    )
    record.update(overrides)
    return record


class TestValidate:
    def test_accepts_in_range(self):
        params = validate(base_record())
        assert isinstance(params, ModelParams)
        assert params.mu_bar == 0.0

    def test_tau_out_of_range(self):
        with pytest.raises(ParamError, match="tau"):
            validate(base_record(tau=1.2))

    @pytest.mark.parametrize("tau", [1e-7, 1.0 - 1e-7])
    def test_tau_outside_solver_band(self, tau):
        with pytest.raises(ParamError, match="tau"):
            validate(base_record(tau=tau))

    def test_alpha_loss_log_domain(self):
        with pytest.raises(ParamError, match="loss"):
            validate(base_record(alpha=0.5, loss=2.5))

    def test_unknown_key_rejected(self):
        with pytest.raises(ParamError, match="unknown"):
            validate(base_record(sigma=0.2))

    def test_missing_key_reported(self):
        record = base_record()
        del record["gamma"], record["tau"]
        with pytest.raises(ParamError) as err:
            validate(record)
        assert "gamma" in str(err.value) and "tau" in str(err.value)

    def test_all_violations_collected(self):
        with pytest.raises(ParamError) as err:
            validate(base_record(tau=1.2, gamma=-1.0, sigma_mu=0.0))
        msg = str(err.value)
        assert "tau" in msg and "gamma" in msg and "sigma_mu" in msg

    def test_t_star_must_exceed_one(self):
        with pytest.raises(ParamError, match="t_star"):
            validate(base_record(t_star=0.5))

    def test_idempotent(self):
        once = validate(base_record())
        twice = validate(once)
        assert once == twice

    def test_shock_means_force_unit_lognormal_mean(self):
        params = validate(base_record(sigma_agg=0.37, sigma_idio=0.81))
        for s in (params.sigma_agg, params.sigma_idio):
            assert shock_mean(s).hex() == (-0.5 * (s * s)).hex()
            assert math.exp(shock_mean(s) + 0.5 * s * s) == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("name", ["sigma_mu", "sigma_agg", "sigma_idio"])
    def test_std_needs_a_normal_float_square(self, name):
        # below 2^-511 the square is subnormal, where sqrt(s * s) != s, or 0;
        # above sqrt(DBL_MAX) it overflows
        low = math.sqrt(sys.float_info.min)
        high = math.sqrt(sys.float_info.max)
        message = rf"^{name}: must be in \[1.4917e-154, 1.3408e\+154\] \(got"
        for bad in (1e-163, math.nextafter(low, 0.0),
                    math.nextafter(high, math.inf), -1.0):
            with pytest.raises(ParamError, match=message):
                validate(base_record(**{name: bad}))
        for good in (low, high):
            assert getattr(validate(base_record(**{name: good})), name) == good


class TestHashedOnce:
    """ModelParams hashes its field tuple once; equality, the hash value
    and the repr stay those of the fields."""

    REPR = (
        "ModelParams(gamma=2.0, sigma_mu=1.0, sigma_agg=0.2, sigma_idio=0.5, "
        "theta=0.1, tau=0.5, D=1.0, eta=0.5, d0=1.0, r_f=0.02, alpha=0.5, "
        "mu0=0.08, w=0.1, loss=LossSpec(values=(0.2,), probs=(1.0,)), "
        "sigma_w=0.3, W0=1.0, t_star=2.0, EK_target=0.02, mu_bar=0.0)"
    )

    @staticmethod
    def _copies(params):
        return [
            validate(base_record()),
            validate(params),
            replace(params),
            replace(replace(params, tau=0.4), tau=0.5),
            copy.deepcopy(params),
            pickle.loads(pickle.dumps(params)),
        ]

    @pytest.mark.parametrize("solved_first", [False, True])
    def test_equal_fields_share_hash_and_memo_entry(self, solved_first):
        params = validate(base_record())
        solve_threshold.cache_clear()
        if solved_first:  # the copies below are then taken of a memo key
            first = solve_threshold(0.5, params)
        copies = self._copies(params)
        if not solved_first:
            first = solve_threshold(0.5, params)
        for other in copies:
            assert other is not params
            assert other == params and hash(other) == hash(params)
            assert solve_threshold(0.5, other) is first
        info = solve_threshold.cache_info()
        assert (info.currsize, info.hits) == (1, len(copies))

    def test_hash_is_that_of_the_field_tuple(self):
        params = validate(base_record())
        assert hash(params) == hash(
            tuple(getattr(params, f.name) for f in fields(ModelParams)))

    def test_unequal_fields_stay_unequal(self):
        params = validate(base_record())
        changed = [replace(params, loss=LossSpec.constant(0.3))] + [
            replace(params, **{f.name: getattr(params, f.name) + 0.01})
            for f in fields(ModelParams) if f.name != "loss"]
        assert len(changed) == len(fields(ModelParams))
        for other in changed:
            assert other != params
        assert len({params, *changed}) == len(changed) + 1

    def test_repr_is_unchanged(self):
        params = validate(base_record())
        assert repr(params) == self.REPR

    def test_specs_wait_for_first_use(self):
        bad = replace(validate(base_record()), sigma_mu=0.0)
        with pytest.raises(ParamError, match="sigma_mu"):
            validate(bad)


class TestLossSpec:
    def test_constant(self):
        loss = LossSpec.constant(0.2)
        assert loss.mean == 0.2

    def test_two_point(self):
        loss = LossSpec((0.1, 0.5), (0.75, 0.25))
        assert loss.mean == pytest.approx(0.1 * 0.75 + 0.5 * 0.25)

    def test_value_out_of_range(self):
        with pytest.raises(Exception):
            LossSpec.constant(1.0)

    @pytest.mark.parametrize("value", [1.0, 1.0 + 2.0 ** -52, 1.5, math.inf])
    def test_refuses_a_value_of_one_or_more(self, value):
        for make in (lambda: LossSpec.constant(value),
                     lambda: LossSpec((0.1, value), (0.5, 0.5))):
            with pytest.raises(InvalidInputError, match=r"\[0, 1\)"):
                make()

    # what keeps the wealth process's log1p(-alpha*L) finite: alpha in [0, 1]
    # and every loss value in [0, 1)
    @given(alpha=st.floats(0.0, 1.0),
           value=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_accepted_alpha_and_loss_keep_the_log_finite(self, alpha, value):
        params = default_params(alpha=alpha, loss=value)
        (loss,) = params.loss.values
        assert math.isfinite(math.log1p(-params.alpha * loss))


class TestJsonLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(base_record()))
        assert load_params(path) == validate(base_record())

    def test_two_point_loss_from_json(self, tmp_path):
        record = base_record(loss={"values": [0.1, 0.3], "probs": [0.5, 0.5]})
        path = tmp_path / "params.json"
        path.write_text(json.dumps(record))
        assert load_params(path).loss.mean == pytest.approx(0.2)

    def test_unknown_json_key(self, tmp_path):
        record = base_record()
        record["taw"] = 0.5
        path = tmp_path / "params.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ParamError, match="taw"):
            load_params(path)


def _box_ends(name):
    """The values at the ends of the census box's range for one field."""
    if name == "gamma":
        return [1.0, *GAMMA[1]]
    if name == "loss":
        lo, hi = LOSS["values"]
        return [lo, hi, *({"values": [lo, hi], "probs": [p, 1.0 - p]}
                          for p in LOSS["first_prob"])]
    return list(LOG_UNIFORM.get(name) or UNIFORM[name])


# each range check reads one field and accepts an interval, so a box whose
# every end passes alone lies inside the validated domain: no draw is refused
@pytest.mark.parametrize("name", ["gamma", *UNIFORM, *LOG_UNIFORM, "loss"])
def test_each_box_end_is_validated(name):
    for value in _box_ends(name):
        validate(base_record(**{name: value}))


def test_default_params_valid():
    params = default_params()
    assert validate(params) == params


def test_default_loss_is_shared_and_an_override_parsed():
    assert default_params().loss is default_params(tau=0.3).loss
    assert default_params(loss=0.3).loss == LossSpec.constant(0.3)
    two_point = {"values": [0.1, 0.3], "probs": [0.5, 0.5]}
    assert default_params(loss=two_point).loss == LossSpec((0.1, 0.3),
                                                           (0.5, 0.5))


def _without(*names, **overrides):
    record = base_record(**overrides)
    for name in names:
        del record[name]
    return record


def _finite(name, v):
    return [f"{name}: must be a finite number, got {v!r}"]


@pytest.mark.parametrize("raw, expected", [
    (_without("gamma", "tau", taw=0.5, sigma=0.2),
     ["unknown keys: sigma, taw", "missing keys: gamma, tau"]),
    *[(base_record(theta=v), _finite("theta", v))
      for v in (math.nan, math.inf, -math.inf, True, "1.0", None, 10**400)],
    # in field order, mu_bar (the optional field) last; no range check
    # runs until every field is a finite number
    (base_record(mu_bar=None, gamma=math.nan, tau=1.2),
     _finite("gamma", math.nan) + _finite("mu_bar", None)),
    (base_record(theta=np.float64(0.3), gamma=2), {"theta": 0.3, "gamma": 2.0}),
    (base_record(r_f=-0.0, mu_bar=-0.0), {"r_f": -0.0, "mu_bar": -0.0}),
    (base_record(tau=1.2, gamma=-1.0),
     ["gamma: must be > 0 (got -1.0)",
      "tau: must be in [1e-06, 0.999999] (got 1.2)"]),
    # the first record whose alpha * L reaches 1: the loss's own check
    # refuses it, before any range check runs
    (base_record(alpha=1.0, loss=1.0, W0=0.0),
     ["loss: loss values must lie in [0, 1), got 1.0"]),
    (default_params(sigma_mu=np.float64(0.7)), {"sigma_mu": 0.7, "tau": 0.5}),
], ids=["keys", "nan", "inf", "-inf", "bool", "str", "none", "huge_int",
        "order", "coerced", "negative_zero", "ranges", "alpha_loss",
        "model_params"])
def test_validate_outcome(raw, expected):
    """The exact violations, in order, or the fields' values and types."""
    if isinstance(expected, list):
        with pytest.raises(ParamError) as err:
            validate(raw)
        assert err.value.violations == expected
        return
    params = validate(raw)
    for name, value in expected.items():
        got = getattr(params, name)
        assert (type(got), repr(got)) == (float, repr(value))
    assert all(type(getattr(params, f.name)) is float
               for f in fields(ModelParams) if f.name != "loss")
    if isinstance(raw, ModelParams):
        assert params == raw and hash(params) == hash(raw)
        assert repr(params) == repr(raw)
