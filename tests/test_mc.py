import json
import math

import numpy as np
import pytest

from hetdata.errors import DegenerateInputError, InvalidInputError
from hetdata.mc import (
    consumption_convergence,
    draw_population,
    lln_check,
    market_clearing_check,
    role_sorting_check,
    within_three_se,
)
from hetdata.model import default_params
from hetdata.numerics import make_stream
from hetdata.statics import aggregate_output


class TestDrawPopulation:
    def test_sample_moments(self):
        params = default_params()
        n = 100_000
        sample = draw_population(n, params, make_stream(2, 0))
        assert abs(float(np.mean(sample.abilities))) < 3.0 / math.sqrt(n)
        exp_mean = float(np.mean(np.exp(sample.abilities)))
        se = float(np.std(np.exp(sample.abilities), ddof=1) / math.sqrt(n))
        assert abs(exp_mean - math.exp(0.5)) <= 3.0 * se

    def test_single_agent(self):
        sample = draw_population(1, default_params(), make_stream(2, 1))
        assert len(sample.abilities) == len(sample.idio_shocks) == len(sample.roles) == 1

    def test_roles_consistent_with_threshold(self):
        sample = draw_population(10_000, default_params(), make_stream(2, 2))
        assert np.array_equal(sample.roles, sample.abilities > sample.threshold.K)

    def test_deterministic_per_stream(self):
        a = draw_population(100, default_params(), make_stream(5, 3))
        b = draw_population(100, default_params(), make_stream(5, 3))
        assert np.array_equal(a.abilities, b.abilities)
        assert a.agg_shock == b.agg_shock


class TestLlnCheck:
    def test_large_population_passes(self):
        params = default_params()
        sample = draw_population(1_000_000, params, make_stream(3, 0))
        reports = lln_check(sample, params)
        assert all(r.passed for r in reports)

    def test_report_schema(self):
        params = default_params()
        sample = draw_population(10_000, params, make_stream(3, 1))
        payload = json.dumps([r.to_dict() for r in lln_check(sample, params)])
        for record in json.loads(payload):
            assert set(record) == {"statistic", "expected", "observed", "se",
                                   "pass"}

    def test_degenerate_ability_distribution(self):
        # sigma_mu -> 0: every user contributes e^(mu + eps) with mu ~ 0
        params = default_params(sigma_mu=1e-6, tau=0.3)
        sample = draw_population(200_000, params, make_stream(3, 2))
        reports = lln_check(sample, params)
        assert all(r.passed for r in reports)
        assert sample.threshold.tail_mean == pytest.approx(1.0, abs=1e-3)


class TestMarketClearing:
    def test_share_sum_exact(self):
        params = default_params(theta=0.1)
        sample = draw_population(50_000, params, make_stream(4, 0))
        reports = market_clearing_check(sample, params)
        by_name = {r.statistic: r for r in reports}
        assert by_name["clearing_share_sum"].passed
        assert abs(by_name["clearing_share_sum"].observed - 0.9) <= 1e-12
        assert by_name["risk_free_holdings"].passed

    def test_two_equal_abilities(self):
        params = default_params()
        sample = draw_population(2, params, make_stream(4, 1))
        object.__setattr__(sample, "abilities", np.array([0.3, 0.3]))
        weights = np.exp(sample.abilities)
        shares = 0.9 * weights / weights.sum()
        assert shares[0] == pytest.approx(0.45) and shares[1] == pytest.approx(0.45)

    def test_minimum_population(self):
        params = default_params()
        sample = draw_population(1, params, make_stream(4, 2))
        with pytest.raises(InvalidInputError):
            market_clearing_check(sample, params)


def _hex_rows(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row)
            for row in rows]


class TestInPlacePasses:
    """The in-place passes give the bits of the plain array expressions."""

    PARAMS = [default_params(),
              default_params(sigma_mu=0.5, mu_bar=0.3, sigma_idio=0.8,
                             theta=0.4, tau=0.3)]
    CASES = [(params, seed, n) for params in PARAMS
             for seed in (1, 2, 7, 42) for n in (2, 3, 17, 1000, 4097)]

    @staticmethod
    def _reference_draw(n, params, stream):
        ability, idio_spec, agg_spec = (
            params.ability_spec, params.idio_shock_spec, params.agg_shock_spec
        )
        abilities = ability.mean + ability.std * stream.standard_normal(n)
        idio = idio_spec.mean + idio_spec.std * stream.standard_normal(n)
        agg = float((agg_spec.mean + agg_spec.std * stream.standard_normal(1))[0])
        return abilities, idio, agg

    @staticmethod
    def _reference_lln(abilities, idio, agg, users, sol, params):
        terms = np.where(users, np.exp(abilities + idio), 0.0)
        observed = float(np.mean(terms))
        se = float(np.std(terms, ddof=1) / math.sqrt(len(terms)))
        scale = params.D * math.exp(agg)
        return [
            ("lln_user_aggregate", sol.m * sol.tail_mean, observed, se),
            ("lln_aggregate_output", aggregate_output(sol.mu_k, agg, params),
             scale * observed, scale * se),
        ]

    @staticmethod
    def _reference_clearing(abilities, theta):
        weights = np.exp(abilities)
        shares = (1.0 - theta) * weights / float(np.sum(weights))
        risk_free = 0.0 * weights
        return [float(np.sum(shares)), float(np.max(np.abs(risk_free)))]

    @pytest.mark.parametrize("params, seed, n", CASES)
    def test_bitwise_equal_to_array_expressions(self, params, seed, n):
        sample = draw_population(n, params, make_stream(seed, 1))
        abilities, idio, agg = self._reference_draw(n, params, make_stream(seed, 1))
        assert sample.abilities.tobytes() == abilities.tobytes()
        assert sample.idio_shocks.tobytes() == idio.tobytes()
        assert sample.agg_shock.hex() == agg.hex()
        users = sample.roles
        if np.any(users):
            got = [(r.statistic, r.expected, r.observed, r.se)
                   for r in lln_check(sample, params)]
            want = self._reference_lln(abilities, idio, agg, users,
                                       sample.threshold, params)
            assert _hex_rows(got) == _hex_rows(want)
        else:
            with pytest.raises(DegenerateInputError):
                lln_check(sample, params)
        got = [r.observed for r in market_clearing_check(sample, params)]
        want = self._reference_clearing(abilities, params.theta)
        assert _hex_rows([got]) == _hex_rows([want])

    def test_inputs_left_untouched(self):
        params = default_params()
        sample = draw_population(1000, params, make_stream(5, 1))
        before = [sample.abilities.copy(), sample.idio_shocks.copy(),
                  sample.roles.copy()]
        lln_check(sample, params)
        market_clearing_check(sample, params)
        for old, new in zip(before, [sample.abilities, sample.idio_shocks,
                                     sample.roles]):
            assert old.tobytes() == new.tobytes()


class TestConsumptionConvergence:
    def test_theta_one_exact(self):
        params = default_params(theta=1.0 - 1e-12)
        reports = consumption_convergence(params, [1000], make_stream(6, 0))
        gap = [r for r in reports if r.statistic.startswith("consumption_gap")][0]
        assert abs(gap.observed) < 1e-10

    def test_deviation_shrinks_with_n(self):
        params = default_params(theta=0.1)
        reports = consumption_convergence(
            params, [1000, 10_000, 100_000], make_stream(6, 1)
        )
        gaps = [r for r in reports if r.statistic.startswith("consumption_gap")]
        assert gaps[-1].passed
        ses = [r.se for r in gaps]
        assert ses[0] > ses[-1]  # ~1/sqrt(n) shrinkage

    def test_provider_consumption_matches_closed_form(self):
        params = default_params()
        reports = consumption_convergence(params, [200_000], make_stream(6, 2))
        provider = [r for r in reports if r.statistic == "provider_consumption"][0]
        assert provider.passed

    # at n = 2 seed 5 draws no user and seeds 2-4 draw one: no ddof=1
    # standard error exists for the gap
    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_fewer_than_two_users_raises(self, seed):
        with pytest.raises(DegenerateInputError, match=r"n=2 .* drew [01]$"):
            consumption_convergence(default_params(), [2, 5000],
                                    make_stream(seed, 9))

    def test_sizes_must_increase(self):
        with pytest.raises(InvalidInputError):
            consumption_convergence(default_params(), [100, 50], make_stream(6, 3))


class TestConsumptionBitwise:
    """The folded loop gives the bits of the plain array expressions,
    each exponential written where the formula uses it."""

    @staticmethod
    def _reference(params, sizes, stream):
        theta, rows = params.theta, []
        for n in sizes:
            sample = draw_population(n, params, stream)
            users = sample.roles
            mu, eps_i = sample.abilities[users], sample.idio_shocks[users]
            scale = params.D * math.exp(sample.agg_shock) * (1.0 - params.tau)
            own = theta * scale * np.exp(mu + eps_i)
            pool_ratio = float(np.sum(np.exp(mu + eps_i)) / np.sum(np.exp(mu)))
            built = own + (1.0 - theta) * scale * np.exp(mu) * pool_ratio
            closed = scale * np.exp(mu) * (theta * np.exp(eps_i) + 1.0 - theta)
            pool_terms = np.exp(mu + eps_i) - np.exp(mu)
            se = (1.0 - theta) * scale * float(
                np.std(pool_terms, ddof=1) / math.sqrt(len(pool_terms)))
            rows.append((f"consumption_gap_n{n}", 0.0,
                         float(np.mean(built - closed)), se))
        shock = math.exp(sample.agg_shock)
        user_output = params.D * shock * np.exp(
            sample.abilities + sample.idio_shocks) * sample.roles
        m_hat = float(np.mean(sample.roles))
        sol = sample.threshold
        rows.append((
            "provider_consumption",
            params.tau * params.D * shock * sol.m * sol.tail_mean / (1.0 - sol.m),
            params.tau * float(np.mean(user_output)) / (1.0 - m_hat),
            params.tau * float(np.std(user_output, ddof=1)) / math.sqrt(n)
            / (1.0 - m_hat),
        ))
        return rows

    @pytest.mark.parametrize("params", TestInPlacePasses.PARAMS)
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("sizes", [[50], [100, 4097], [30, 1000, 20_000]])
    def test_bitwise_equal_to_array_expressions(self, params, seed, sizes):
        got = [(r.statistic, r.expected, r.observed, r.se)
               for r in consumption_convergence(params, sizes,
                                                make_stream(seed, 9))]
        want = self._reference(params, sizes, make_stream(seed, 9))
        assert _hex_rows(got) == _hex_rows(want)


class TestThreeSeRule:
    def test_three_se_bound(self):
        assert within_three_se(1.3, 1.0, 0.1)
        assert not within_three_se(1.31, 1.0, 0.1)

    def test_rounding_slack_where_se_is_zero(self):
        # the reduction of equal terms may round: 8e-16 relative is allowed
        assert within_three_se(1.0 + 3.0 * 2.0 ** -52, 1.0, 0.0)
        assert not within_three_se(1.0 + 4.0 * 2.0 ** -52, 1.0, 0.0)
        assert not within_three_se(1e-300, 0.0, 0.0)


class TestRoleSorting:
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_full_agreement(self, gamma):
        params = default_params(gamma=gamma)
        sample = draw_population(10_000, params, make_stream(7, 0))
        report = role_sorting_check(sample, params)
        assert report.passed and report.observed == 1.0

    @pytest.mark.parametrize("tau", [0.3, 0.7])
    def test_agreement_at_the_sample_tau(self, tau):
        # the roles were assigned at params.tau, the only tau the check uses
        params = default_params(tau=tau)
        sample = draw_population(2000, params, make_stream(7, 2))
        report = role_sorting_check(sample, params)
        assert report.passed and report.observed == 1.0

    def test_boundary_agent_excluded(self):
        params = default_params()
        sample = draw_population(100, params, make_stream(7, 1))
        abilities = sample.abilities.copy()
        abilities[0] = sample.threshold.K  # exactly on the boundary
        object.__setattr__(sample, "abilities", abilities)
        roles = sample.roles.copy()
        roles[0] = False
        object.__setattr__(sample, "roles", roles)
        report = role_sorting_check(sample, params)
        assert report.passed
