import itertools
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
from hetdata.threshold import solve_threshold


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
        assert len(sample.abilities) == len(sample.roles) == 1
        assert len(sample.user_shocks) == int(sample.roles[0])

    # seed None: the first of seeds 0, 1, 2, ... whose stream 9 draws no user
    # among 2 agents (3), so the aggregate shock follows the abilities
    @pytest.mark.parametrize("seed, n", [(1, 1000), (42, 4097), (7, 3),
                                         pytest.param(None, 2, id="no_user-2")])
    def test_user_shocks_follow_the_abilities(self, seed, n):
        params = default_params(sigma_mu=0.5, mu_bar=0.3, sigma_idio=0.8)
        no_user = next(s for s in itertools.count() if not draw_population(
            2, params, make_stream(s, 9)).roles.any())
        seed = no_user if seed is None else seed
        sample = draw_population(n, params, make_stream(seed, 9))
        k = int(np.count_nonzero(sample.roles))
        z = make_stream(seed, 9).standard_normal(n + k + 1)
        ability, idio, agg = (params.ability_spec, params.idio_shock_spec,
                              params.agg_shock_spec)
        assert sample.abilities.tobytes() == (
            ability.mean + ability.std * z[:n]).tobytes()
        assert sample.user_shocks.tobytes() == (
            idio.mean + idio.std * z[n:n + k]).tobytes()
        assert sample.agg_shock == agg.mean + agg.std * z[n + k]
        assert (k == 0) == (seed == no_user)

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
        """Abilities, roles, then one shock per user, then the aggregate."""
        ability, idio_spec, agg_spec = (
            params.ability_spec, params.idio_shock_spec, params.agg_shock_spec
        )
        abilities = ability.mean + ability.std * stream.standard_normal(n)
        users = abilities > solve_threshold(params.tau, params).K
        shocks = idio_spec.mean + idio_spec.std * stream.standard_normal(
            int(np.sum(users)))
        agg = float((agg_spec.mean + agg_spec.std * stream.standard_normal(1))[0])
        return abilities, users, shocks, agg

    @staticmethod
    def _reference_mean_se(terms, n):
        """The users' terms with n - len(terms) zeros for the providers."""
        mean = np.sum(terms) / n
        squares = np.sum((terms - mean) ** 2) + (n - len(terms)) * mean ** 2
        return float(mean), float(np.sqrt(squares / (n - 1)) / math.sqrt(n))

    @classmethod
    def _reference_lln(cls, abilities, users, shocks, agg, sol, params):
        observed, se = cls._reference_mean_se(
            np.exp(abilities[users] + shocks), len(abilities))
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
        abilities, users, shocks, agg = self._reference_draw(
            n, params, make_stream(seed, 1))
        assert sample.abilities.tobytes() == abilities.tobytes()
        assert sample.roles.tobytes() == users.tobytes()
        assert sample.user_shocks.tobytes() == shocks.tobytes()
        assert sample.agg_shock.hex() == agg.hex()
        if np.any(users):
            got = [(r.statistic, r.expected, r.observed, r.se)
                   for r in lln_check(sample, params)]
            want = self._reference_lln(abilities, users, shocks, agg,
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
        before = [sample.abilities.copy(), sample.user_shocks.copy(),
                  sample.roles.copy()]
        lln_check(sample, params)
        market_clearing_check(sample, params)
        for old, new in zip(before, [sample.abilities, sample.user_shocks,
                                     sample.roles]):
            assert old.tobytes() == new.tobytes()


class TestLlnStatistics:
    """The users-only reduction against the zero-filled n-element array."""

    PARAMS = TestInPlacePasses.PARAMS + [
        default_params(sigma_mu=1.5, sigma_idio=0.1, tau=0.8, D=2.0)]

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("n", [2, 50, 1000, 100_000])
    def test_matches_numpy_on_zero_filled_terms(self, params, n):
        # the sums run over the users alone, so the bits may differ from
        # numpy's n-element ones by rounding
        checked = 0
        for seed in range(20):
            sample = draw_population(n, params, make_stream(seed, 4))
            if not np.any(sample.roles):
                continue
            terms = np.zeros(n)
            terms[sample.roles] = np.exp(sample.abilities[sample.roles]
                                         + sample.user_shocks)
            report = lln_check(sample, params)[0]
            assert report.observed == pytest.approx(np.mean(terms), rel=1e-14)
            assert report.se == pytest.approx(
                np.std(terms, ddof=1) / math.sqrt(n), rel=1e-14)
            checked += 1
        assert checked

    def test_three_se_coverage(self):
        # lognormal terms skew z at n = 10^4: 10,000 draws on another stream
        # missed 3 SE at a rate of 0.41% (1.6 of 400 expected; more than 7
        # has chance under 0.1%) with sd(z) = 1.01
        params = default_params()
        z = []
        for seed in range(400):
            sample = draw_population(10_000, params, make_stream(seed, 5))
            report = lln_check(sample, params)[0]
            z.append((report.observed - report.expected) / report.se)
        z = np.array(z)
        assert np.count_nonzero(np.abs(z) > 3.0) <= 7
        assert 0.85 < np.std(z, ddof=1) < 1.15


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
            abilities, users, eps_i, agg = TestInPlacePasses._reference_draw(
                n, params, stream)
            mu = abilities[users]
            scale = params.D * math.exp(agg) * (1.0 - params.tau)
            own = theta * scale * np.exp(mu + eps_i)
            pool_ratio = float(np.sum(np.exp(mu + eps_i)) / np.sum(np.exp(mu)))
            built = own + (1.0 - theta) * scale * np.exp(mu) * pool_ratio
            closed = scale * np.exp(mu) * (theta * np.exp(eps_i) + 1.0 - theta)
            pool_terms = np.exp(mu + eps_i) - np.exp(mu)
            se = (1.0 - theta) * scale * float(
                np.std(pool_terms, ddof=1) / math.sqrt(len(pool_terms)))
            rows.append((f"consumption_gap_n{n}", 0.0,
                         float(np.mean(built - closed)), se))
        # the users' output, 0 for each provider, at the largest size
        scale = params.tau * params.D * math.exp(agg)
        mean, se = TestInPlacePasses._reference_mean_se(np.exp(mu + eps_i), n)
        m_hat = float(np.mean(users))
        sol = solve_threshold(params.tau, params)
        rows.append((
            "provider_consumption",
            scale * sol.m * sol.tail_mean / (1.0 - sol.m),
            scale * mean / (1.0 - m_hat),
            scale * se / (1.0 - m_hat),
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
