import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from hetdata import mc
from hetdata.errors import DegenerateInputError, InvalidInputError
from hetdata.mc import (
    _BLOCK,
    draw_population,
    lln_check,
    market_clearing_check,
    within_three_se,
)
from hetdata.model import default_params
from hetdata.numerics import make_stream, mean_and_m2
from hetdata.statics import aggregate_output
from hetdata.threshold import ThresholdSolution, solve_threshold


def gaussian_laws(params):
    """(mean, std) of the ability, idiosyncratic and aggregate laws, each
    std the square root of its variance, each shock mean -variance/2."""
    ability = (params.mu_bar, math.sqrt(params.sigma_mu * params.sigma_mu))
    idio, agg = ((-0.5 * (s * s), math.sqrt(s * s))
                 for s in (params.sigma_idio, params.sigma_agg))
    return ability, idio, agg


def reference_draw(n, params, stream, roles=None):
    """The n agents as full arrays, drawn as draw_population draws them:
    block k of _BLOCK agents from the k-th generator of stream.spawn, its
    abilities, then one shock per user; then the aggregate shock from
    stream itself.  roles[k], where given and not None, overrides the
    threshold's roles of block k.  Returns (abilities, users, the users'
    shocks in agent order, aggregate shock)."""
    ability, idio, agg = gaussian_laws(params)
    K = solve_threshold(params.tau, params).K
    blocks = []
    for k, gen in enumerate(stream.spawn(-(-n // _BLOCK))):
        size = min(_BLOCK, n - k * _BLOCK)
        abilities = ability[0] + ability[1] * gen.standard_normal(size)
        role = None if roles is None else roles[k]
        users = abilities > K if role is None else np.full(size, role)
        shocks = idio[0] + idio[1] * gen.standard_normal(int(np.sum(users)))
        blocks.append((abilities, users, shocks))
    agg = float((agg[0] + agg[1] * stream.standard_normal(1))[0])
    return (*map(np.concatenate, zip(*blocks)), agg)


def user_count(n, params, stream):
    return draw_population(n, params, stream).n_users


class TestDrawPopulation:
    def test_sample_moments(self):
        params = default_params()
        n = 100_000
        sample = draw_population(n, params, make_stream(2, 0))
        abilities = reference_draw(n, params, make_stream(2, 0))[0]
        assert abs(float(np.mean(abilities))) < 3.0 / math.sqrt(n)
        exp_mean = sum(sample.weight_sums) / n
        assert exp_mean == pytest.approx(np.mean(np.exp(abilities)), rel=1e-14)
        se = float(np.std(np.exp(abilities), ddof=1) / math.sqrt(n))
        assert abs(exp_mean - math.exp(0.5)) <= 3.0 * se

    def test_single_agent(self):
        sample = draw_population(1, default_params(), make_stream(2, 1))
        assert sample.n == sample.output[0] == 1
        assert len(sample.weight_sums) == 1 and sample.n_users in (0, 1)

    # seed None: the first of seeds 0, 1, 2, ... whose stream 9 draws no user
    # among 2 agents, so the aggregate shock follows the abilities
    @pytest.mark.parametrize("seed, n", [(1, 1000), (42, 4097), (7, 3),
                                         pytest.param(None, 2, id="no_user-2")])
    def test_user_shocks_follow_the_abilities(self, seed, n):
        params = default_params(sigma_mu=0.5, mu_bar=0.3, sigma_idio=0.8)
        no_user = next(s for s in itertools.count()
                       if user_count(2, params, make_stream(s, 9)) == 0)
        seed = no_user if seed is None else seed
        sample = draw_population(n, params, make_stream(seed, 9))
        # one block: its generator draws the abilities, then one shock per
        # user; the aggregate shock is the stream's own first draw
        abilities, users, shocks, agg = reference_draw(
            n, params, make_stream(seed, 9))
        k = sample.n_users
        assert int(np.count_nonzero(users)) == k
        output = np.exp(abilities[users] + shocks)
        assert sample.output == (n, *mean_and_m2(output, n))
        assert sample.weight_sums == (float(np.sum(np.exp(abilities))),)
        assert sample.agg_shock == agg
        assert (k == 0) == (seed == no_user)

    def test_roles_consistent_with_threshold(self):
        params = default_params()
        sample = draw_population(10_000, params, make_stream(2, 2))
        abilities = reference_draw(10_000, params, make_stream(2, 2))[0]
        assert sample.n_users == np.count_nonzero(
            abilities > sample.threshold.K)

    def test_deterministic_per_stream(self):
        a = draw_population(100, default_params(), make_stream(5, 3))
        b = draw_population(100, default_params(), make_stream(5, 3))
        assert a == b

    def test_peak_memory_is_one_block(self):
        # the blocks are dropped as they are reduced: 14 more blocks of
        # agents cost less than one block's 8 B of ability, 1 B of role and
        # 8 B of shock per agent
        params = default_params()
        draw_population(2, params, make_stream(1, 1))  # warm the threshold

        def peak(n):
            tracemalloc.start()
            try:
                draw_population(n, params, make_stream(1, 1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(16 * _BLOCK) - peak(2 * _BLOCK) <= 17 * _BLOCK


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

    # from seed 1, the first seed whose one agent is a user; from seed 2,
    # the first whose one agent is a provider
    @pytest.mark.parametrize("start", [1, 2])
    def test_minimum_population(self, start):
        # one agent has no ddof=1 spread: a user divided by zero before
        params = default_params()
        seed = next(s for s in itertools.count(start)
                    if user_count(1, params, make_stream(s, 1)) == (start == 1))
        sample = draw_population(1, params, make_stream(seed, 1))
        with pytest.raises(InvalidInputError, match="n >= 2"):
            lln_check(sample, params)

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
        # each of two agents of ability 0.3 holds 0.45
        params = default_params()
        sample = dataclasses.replace(
            draw_population(2, params, make_stream(4, 1)),
            weight_sums=(2.0 * math.exp(0.3),))
        report = market_clearing_check(sample, params)[0]
        assert report.passed and report.observed == pytest.approx(0.45 + 0.45)

    def test_minimum_population(self):
        params = default_params()
        sample = draw_population(1, params, make_stream(4, 2))
        with pytest.raises(InvalidInputError):
            market_clearing_check(sample, params)

    def test_share_sum_does_not_follow_builtin_sum(self, monkeypatch):
        # builtin sum compensates (Neumaier) from Python 3.12 on; a share
        # sum by it read ...cdp-1 here under 3.12 and ...ccp-1 under 3.11
        def neumaier_sum(values, start=0):
            total, comp = start, 0.0
            for x in values:
                t = total + x
                comp += ((total - t) + x if abs(total) >= abs(x)
                         else (x - t) + total)
                total = t
            return total + comp if comp and math.isfinite(comp) else total

        params = default_params()
        sample = draw_population(10**6, params, make_stream(7, 1))
        folded = market_clearing_check(sample, params)[0].observed
        monkeypatch.setattr(mc, "sum", neumaier_sum, raising=False)
        compensated = market_clearing_check(sample, params)[0].observed
        assert folded.hex() == compensated.hex() == "0x1.cccccccccccccp-1"


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
        # the shares (1 - theta) e^mu_i / W summed, (1 - theta) and W
        # factored out of the sum
        weight_sum = float(np.sum(np.exp(abilities)))
        return [(1.0 - theta) * weight_sum / weight_sum, 0.0]

    @pytest.mark.parametrize("params, seed, n", CASES)
    def test_bitwise_equal_to_array_expressions(self, params, seed, n):
        sample = draw_population(n, params, make_stream(seed, 1))
        abilities, users, shocks, agg = reference_draw(
            n, params, make_stream(seed, 1))
        assert sample.n_users == len(shocks) == np.count_nonzero(users)
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
        lln_check(sample, params)
        market_clearing_check(sample, params)
        assert sample == draw_population(1000, params, make_stream(5, 1))


def assert_lln_matches(sample, reference, params):
    """Both LLN reports against numpy's mean and ddof=1 std of the
    zero-filled n-element terms: the sums run over the users alone, so the
    bits may differ from numpy's by rounding."""
    abilities, users, shocks, agg = reference
    n = len(abilities)
    terms = np.zeros(n)
    terms[users] = np.exp(abilities[users] + shocks)
    mean = float(np.mean(terms))
    se = float(np.std(terms, ddof=1)) / math.sqrt(n)
    scale = params.D * math.exp(agg)
    expected = [(mean, se), (scale * mean, scale * se)]
    for report, (observed, error) in zip(lln_check(sample, params), expected):
        assert report.observed == pytest.approx(observed, rel=1e-14)
        assert report.se == pytest.approx(error, rel=1e-14)
        assert report.passed == within_three_se(observed, report.expected,
                                                error)


class TestBlockedReductions:
    """The draw reduces 2^16 agents at a time; against the full arrays."""

    B = _BLOCK
    SIZES = [2, B - 1, B, B + 1, 3 * B + 7]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("params", TestInPlacePasses.PARAMS)
    def test_lln_matches_full_arrays(self, params, n):
        checked = 0
        for seed in (1, 2, 7):
            sample = draw_population(n, params, make_stream(seed, 1))
            if sample.n_users:
                assert_lln_matches(sample, reference_draw(
                    n, params, make_stream(seed, 1)), params)
                checked += 1
        assert checked

    @pytest.mark.parametrize("n", SIZES)
    def test_clearing_matches_full_arrays(self, n):
        params = TestInPlacePasses.PARAMS[1]
        sample = draw_population(n, params, make_stream(4, 1))
        weights = np.exp(reference_draw(n, params, make_stream(4, 1))[0])
        want = float(np.sum((1.0 - params.theta) * weights / np.sum(weights)))
        total = market_clearing_check(sample, params)[0].observed
        assert abs(total - want) <= 1e-15

    def test_block_without_users_and_blocks_of_users(self, monkeypatch):
        params = default_params()
        n = 3 * self.B + 7
        solution = solve_threshold(params.tau, params)
        patterns = [[None, False, True, None],  # the second block holds no
                                                # user, every agent of the
                                                # third is one
                    [True] * 4]                 # every agent a user
        for roles in patterns:
            blocks = iter(roles)

            class Patterned(ThresholdSolution):
                """roles[k] of block k, where not None."""

                def is_user(self, ability):
                    role = next(blocks)
                    return (super().is_user(ability) if role is None
                            else np.full(len(ability), role))
            monkeypatch.setattr(mc, "solve_threshold",
                                lambda tau, p: Patterned(**vars(solution)))
            sample = draw_population(n, params, make_stream(6, 1))
            reference = reference_draw(n, params, make_stream(6, 1), roles)
            assert sample.n_users == np.count_nonzero(reference[1])
            assert_lln_matches(sample, reference, params)

    def test_repeated_calls_bitwise_equal(self):
        params = default_params()
        sample = draw_population(3 * self.B + 7, params, make_stream(8, 1))
        for check in (lln_check, market_clearing_check):
            first, second = check(sample, params), check(sample, params)
            assert _hex_rows(map(dataclasses.astuple, first)) == _hex_rows(
                map(dataclasses.astuple, second))


class TestLlnStatistics:
    """The users-only reduction against the zero-filled n-element array."""

    PARAMS = TestInPlacePasses.PARAMS + [
        default_params(sigma_mu=1.5, sigma_idio=0.1, tau=0.8, D=2.0)]

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("n", [2, 50, 1000, 100_000])
    def test_matches_numpy_on_zero_filled_terms(self, params, n):
        checked = 0
        for seed in range(20):
            sample = draw_population(n, params, make_stream(seed, 4))
            if sample.n_users:
                assert_lln_matches(sample, reference_draw(
                    n, params, make_stream(seed, 4)), params)
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


class TestThreeSeRule:
    def test_three_se_bound(self):
        assert within_three_se(1.3, 1.0, 0.1)
        assert not within_three_se(1.31, 1.0, 0.1)

    def test_rounding_slack_where_se_is_zero(self):
        # the reduction of equal terms may round: 8e-16 relative is allowed
        assert within_three_se(1.0 + 3.0 * 2.0 ** -52, 1.0, 0.0)
        assert not within_three_se(1.0 + 4.0 * 2.0 ** -52, 1.0, 0.0)
        assert not within_three_se(1e-300, 0.0, 0.0)
