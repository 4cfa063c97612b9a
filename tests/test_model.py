import copy
import json
import math
import pickle
import sys
from dataclasses import fields, replace

import pytest

from hetdata.errors import ParamError
from hetdata.model import (
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
        assert loss.mean == 0.2 and loss.maximum == 0.2

    def test_two_point(self):
        loss = LossSpec.two_point(0.1, 0.5, 0.75)
        assert loss.mean == pytest.approx(0.1 * 0.75 + 0.5 * 0.25)
        assert loss.maximum == 0.5

    def test_value_out_of_range(self):
        with pytest.raises(Exception):
            LossSpec.constant(1.0)


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


def test_default_params_valid():
    params = default_params()
    assert validate(params) == params
