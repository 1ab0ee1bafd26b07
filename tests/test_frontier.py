import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dcecon.errors import DomainError, NumericalOverflowError, SingularSystemError
from dcecon.frontier import (
    draw_shocks,
    elasticities_from_frontier,
    frontier_output,
    synthesize,
    technical_efficiency,
)
from dcecon.production import evaluate_output

# exp(1 + 0.3 ln 58 + 0.7 ln 30 + 0.05 - 0.2), mpmath at 50 digits
FRONTIER_ORACLE = 85.53888520966685


def rel_err(value, expected):
    return abs(value - expected) / abs(expected)


class TestFrontierOutput:
    def test_single_input_identity(self):
        assert frontier_output(0, 1, 0, 5, 7) == pytest.approx(5.0)

    def test_shocks_cancel(self):
        assert frontier_output(0, 0.5, 0.5, 4, 9, v=0.1, u=0.1) == pytest.approx(6.0)

    def test_against_high_precision_oracle(self):
        value = frontier_output(1, 0.3, 0.7, 58, 30, v=0.05, u=0.2)
        assert rel_err(value, FRONTIER_ORACLE) <= 1e-12

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            frontier_output(0, 0.5, 0.5, 0, 1)
        with pytest.raises(DomainError):
            frontier_output(0, 0.5, 0.5, 1, -2)

    def test_overflow_is_numerical_overflow_error(self):
        with pytest.raises(NumericalOverflowError, match="^math range error$"):
            frontier_output(800, 0.5, 0.5, 2, 3)

    def test_negative_inefficiency_rejected(self):
        with pytest.raises(DomainError):
            frontier_output(0, 0.5, 0.5, 1, 1, u=-0.1)

    @given(
        u1=st.floats(min_value=0, max_value=2),
        du=st.floats(min_value=1e-3, max_value=2),
    )
    @settings(deadline=None)
    def test_output_decreases_with_inefficiency(self, u1, du):
        lo = frontier_output(0.5, 0.4, 0.5, 12, 7, v=0.1, u=u1)
        hi = frontier_output(0.5, 0.4, 0.5, 12, 7, v=0.1, u=u1 + du)
        assert hi < lo

    @given(
        v1=st.floats(min_value=-2, max_value=2),
        dv=st.floats(min_value=1e-3, max_value=2),
    )
    @settings(deadline=None)
    def test_output_increases_with_shock(self, v1, dv):
        lo = frontier_output(0.5, 0.4, 0.5, 12, 7, v=v1, u=0.2)
        hi = frontier_output(0.5, 0.4, 0.5, 12, 7, v=v1 + dv, u=0.2)
        assert hi > lo

    def test_shock_free_frontier_is_plain_production(self):
        rng = random.Random(41)
        for _ in range(100):
            K = rng.uniform(-2, 2)
            alpha, beta = rng.uniform(0, 2), rng.uniform(0, 2)
            S, I = rng.uniform(0.1, 80), rng.uniform(0.1, 80)
            plain = evaluate_output(math.exp(K), alpha, beta, S, I)
            assert rel_err(frontier_output(K, alpha, beta, S, I), plain) <= 1e-12


class TestTechnicalEfficiency:
    def test_fully_efficient(self):
        assert technical_efficiency(0.0) == 1.0

    def test_half_efficiency(self):
        assert technical_efficiency(math.log(2)) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            technical_efficiency(-0.01)

    def test_ratio_identity(self):
        rng = random.Random(43)
        for _ in range(100):
            K = rng.uniform(-1, 1)
            alpha, beta = rng.uniform(0, 1.5), rng.uniform(0, 1.5)
            v, u = rng.uniform(-0.5, 0.5), rng.uniform(0, 1.0)
            S, I = rng.uniform(0.5, 60), rng.uniform(0.5, 60)
            with_u = frontier_output(K, alpha, beta, S, I, v, u)
            without_u = frontier_output(K, alpha, beta, S, I, v, 0.0)
            assert rel_err(with_u / without_u, technical_efficiency(u)) <= 1e-12


class TestElasticityRecovery:
    def test_logs_collapse_case(self):
        alpha, beta = elasticities_from_frontier(math.exp(0.3), K=0, S=math.e, I=1, n=1)
        assert alpha == pytest.approx(0.3)
        assert beta == pytest.approx(0.7)

    def test_equal_inputs_singular(self):
        with pytest.raises(SingularSystemError):
            elasticities_from_frontier(5.0, K=0, S=13.0, I=13.0)

    def test_round_trip(self):
        rng = random.Random(47)
        for _ in range(1000):
            n = rng.uniform(0.3, 2.0)
            alpha = rng.uniform(0.01, n - 0.005)
            beta = n - alpha
            K = rng.uniform(-2, 2)
            v, u = rng.uniform(-0.5, 0.5), rng.uniform(0, 1.0)
            S = rng.uniform(0.5, 80)
            I = rng.uniform(0.5, 80)
            if abs(math.log(S) - math.log(I)) < 0.05:
                I *= 3.0
            y = frontier_output(K, alpha, beta, S, I, v=v, u=u)
            got_alpha, got_beta = elasticities_from_frontier(y, K, S, I, v=v, u=u, n=n)
            assert abs(got_alpha - alpha) <= 1e-10
            assert abs(got_beta - beta) <= 1e-10
            assert abs((got_alpha + got_beta) - n) <= 1e-12

    def test_matches_unit_scale_pair_form(self):
        # at n=1 the general formula reduces to the direct two-formula version
        rng = random.Random(53)
        for _ in range(100):
            K = rng.uniform(-1, 1)
            v, u = rng.uniform(-0.5, 0.5), rng.uniform(0, 0.8)
            S, I = rng.uniform(0.5, 40), rng.uniform(41, 90)
            y = rng.uniform(0.5, 50)
            alpha, beta = elasticities_from_frontier(y, K, S, I, v=v, u=u, n=1.0)
            denom = math.log(S / I)
            alpha_direct = (math.log(y) - K - math.log(I) - v + u) / denom
            beta_direct = (math.log(y) - K - math.log(S) - v + u) / math.log(I / S)
            assert alpha == pytest.approx(alpha_direct, rel=1e-12, abs=1e-12)
            assert beta == pytest.approx(beta_direct, rel=1e-12, abs=1e-12)
            assert alpha + beta == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            elasticities_from_frontier(-1.0, 0, 2, 3)
        with pytest.raises(DomainError):
            elasticities_from_frontier(1.0, 0, 2, 3, u=-0.5)


class TestSyntheticGeneration:
    def test_deterministic_given_seed(self):
        a = list(synthesize(0.0, 0.4, 0.6, 10, 4, 0.2, 0.1, 20, random.Random(7)))
        b = list(synthesize(0.0, 0.4, 0.6, 10, 4, 0.2, 0.1, 20, random.Random(7)))
        assert a == b

    def test_inefficiency_nonnegative_and_efficiency_consistent(self):
        rng = random.Random(61)
        for obs in synthesize(0.3, 0.5, 0.5, 9, 16, 0.3, 0.4, 200, rng):
            assert obs.u >= 0.0
            assert obs.efficiency == pytest.approx(math.exp(-obs.u))
            assert obs.output > 0.0

    def test_negative_scales_rejected(self):
        with pytest.raises(DomainError):
            draw_shocks(random.Random(1), -0.1, 0.2)


class TestNanRejected:
    @pytest.mark.parametrize("call", [
        lambda: frontier_output(0, 0.5, 0.5, 1.0, 1.0, u=math.nan),
        lambda: frontier_output(0, 0.5, 0.5, math.nan, 1.0),
        lambda: frontier_output(0, 0.5, 0.5, 1.0, math.nan),
        lambda: technical_efficiency(math.nan),
        lambda: elasticities_from_frontier(math.nan, 0, 2, 3),
        lambda: elasticities_from_frontier(1.0, 0, math.nan, 3),
        lambda: elasticities_from_frontier(1.0, 0, 2, 3, u=math.nan),
        lambda: draw_shocks(random.Random(1), math.nan, 0.2),
        lambda: draw_shocks(random.Random(1), 0.1, math.nan),
    ], ids=["spec-u", "output-S", "output-I", "efficiency", "recovery-y", "recovery-S",
            "recovery-u", "shocks-sigma-v", "shocks-sigma-u"])
    def test_nan_is_domain_error(self, call):
        with pytest.raises(DomainError, match="nan"):
            call()
