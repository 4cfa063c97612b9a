import json
import math

import pytest

from hetdata.errors import ParamError
from hetdata.model import (
    LossSpec,
    ModelParams,
    default_params,
    load_params,
    validate,
)


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
        for spec in (params.agg_shock_spec, params.idio_shock_spec):
            assert math.exp(spec.mean + 0.5 * spec.variance) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_mu_hat(self):
        params = validate(base_record())
        assert params.mu_hat == pytest.approx(0.08 + 0.1 * 0.2)


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
