import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dcecon.errors import DomainError, NumericalOverflowError, ParameterError
from dcecon.production import (
    CostRecord,
    RdDeterminants,
    ScaleRegime,
    evaluate_augmented,
    evaluate_output,
    harrod_progress,
    invert_harrod,
    invert_solow,
    linear_cost,
    returns_to_scale,
    solow_progress,
)

# r * exp(b1*ln L* + (1-b1)*ln G) at (1.05, 10, 3, 0.3), mpmath at 50 digits
HARROD_ORACLE = 4.520372012624309

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def rel_err(value, expected):
    return abs(value - expected) / abs(expected)


class TestEvaluateOutput:
    @pytest.mark.parametrize(
        "alpha, beta, L, K, expected, tol",
        [
            (0.1670, 7.6964e-4, 60, 40, 1.9872, 1e-3),
            (0.693, 1.1052, 60, 40, 1006.59, 0.5),
        ],
    )
    def test_reference_rows(self, alpha, beta, L, K, expected, tol):
        value = evaluate_output(1.0, alpha, beta, L, K)
        assert abs(value - expected) <= tol

    def test_unit_exponents(self):
        assert evaluate_output(2.0, 1.0, 1.0, 3, 4) == pytest.approx(24.0)

    def test_zero_elasticities(self):
        assert evaluate_output(1.0, 0.0, 0.0, 17, 99) == pytest.approx(1.0)

    @pytest.mark.parametrize("L, K", [(0, 1), (-3, 1), (1, 0), (1, -0.5), (math.nan, 1)])
    def test_nonpositive_inputs_rejected(self, L, K):
        with pytest.raises(DomainError):
            evaluate_output(1.0, 0.5, 0.5, L, K)

    @given(P=positive, alpha=st.floats(0, 3), beta=st.floats(0, 3), L=positive, K=positive)
    @settings(deadline=None)
    def test_matches_log_space_formula(self, P, alpha, beta, L, K):
        value = evaluate_output(P, alpha, beta, L, K)
        direct = math.exp(math.log(P) + alpha * math.log(L) + beta * math.log(K))
        assert rel_err(value, direct) <= 1e-12

    @given(
        P=positive,
        alpha=st.floats(0, 3),
        beta=st.floats(0, 3),
        L=positive,
        K=positive,
        t=st.floats(min_value=0.1, max_value=10),
    )
    @settings(deadline=None)
    def test_homogeneous_of_degree_n(self, P, alpha, beta, L, K, t):
        scaled = evaluate_output(P, alpha, beta, t * L, t * K)
        expected = t ** (alpha + beta) * evaluate_output(P, alpha, beta, L, K)
        assert rel_err(scaled, expected) <= 1e-10

    @given(
        alpha=st.floats(min_value=1e-4, max_value=3),
        L=st.floats(min_value=0.5, max_value=500),
        factor=st.floats(min_value=1.01, max_value=10),
        K=positive,
    )
    @settings(deadline=None)
    def test_strictly_increasing_in_first_input(self, alpha, L, factor, K):
        larger = evaluate_output(1.0, alpha, 0.3, L * factor, K)
        assert larger > evaluate_output(1.0, alpha, 0.3, L, K)


class TestParamsValidation:
    def test_nonpositive_tfp_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_output(0.0, 0.5, 0.5, 1, 1)
        with pytest.raises(ParameterError):
            evaluate_output(math.nan, 0.5, 0.5, 1, 1)

    def test_negative_elasticity_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_output(1.0, -0.1, 0.5, 1, 1)
        with pytest.raises(ParameterError):
            evaluate_output(1.0, 0.5, math.nan, 1, 1)

    def test_cost_record_requires_positive_costs(self):
        with pytest.raises(DomainError):
            CostRecord(2000, 0.0, 5.0)
        with pytest.raises(DomainError):
            CostRecord(2000, 5.0, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                CostRecord(2000, bad, 5.0)


class TestAugmented:
    def test_unit_augmentation(self):
        assert evaluate_augmented(1.0, 1.0, 2, 3, R=2, I=1) == pytest.approx(4.0)

    def test_hand_arithmetic(self):
        assert evaluate_augmented(3.0, 1.0, 1, 1, R=2, I=5) == pytest.approx(30.0)

    def test_reduces_to_plain_output(self):
        rng = random.Random(7)
        for _ in range(100):
            A, B = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            alpha, beta = rng.uniform(0, 2), rng.uniform(0, 2)
            R, I = rng.uniform(0.1, 50), rng.uniform(0.1, 50)
            augmented = evaluate_augmented(A, B, alpha, beta, R, I)
            plain = evaluate_output(1.0, alpha, beta, A * R, B * I)
            assert rel_err(augmented, plain) <= 1e-12

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            evaluate_augmented(1.0, 1.0, 1, 1, R=0, I=1)


class TestTechProgressFactors:
    def test_harrod_all_ones(self):
        assert harrod_progress(1, 1, 1, 0.5) == pytest.approx(1.0)

    def test_harrod_hand_case(self):
        assert harrod_progress(2, 4, 9, 0.5) == pytest.approx(12.0)

    def test_harrod_against_high_precision_oracle(self):
        assert rel_err(harrod_progress(1.05, 10, 3, 0.3), HARROD_ORACLE) <= 1e-12

    def test_solow_trivial_cases(self):
        assert solow_progress(1, 1, 1, 0.9) == pytest.approx(1.0)
        assert solow_progress(3, 16, 25, 0.5) == pytest.approx(60.0)

    def test_harrod_solow_structural_symmetry(self):
        rng = random.Random(11)
        for _ in range(100):
            r = rng.uniform(0.5, 3)
            x = rng.uniform(0.1, 100)
            y = rng.uniform(0.1, 100)
            e = rng.uniform(0.05, 0.95)
            assert harrod_progress(r, x, y, e) == pytest.approx(solow_progress(r, x, y, e))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_exponent_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ParameterError):
            harrod_progress(1, 1, 1, bad)
        with pytest.raises(ParameterError):
            solow_progress(1, 1, 1, bad)


class TestInversions:
    def test_invert_hand_cases(self):
        assert invert_harrod(12, 2, 9, 0.5) == pytest.approx(4.0)
        assert invert_solow(60, 3, 25, 0.5) == pytest.approx(16.0)

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(1000):
            r = rng.uniform(0.5, 3)
            L_star = rng.uniform(0.05, 200)
            Gamma = rng.uniform(0.05, 200)
            beta1 = rng.uniform(0.05, 0.95)
            A = harrod_progress(r, L_star, Gamma, beta1)
            assert rel_err(invert_harrod(A, r, Gamma, beta1), L_star) <= 1e-12
            B = solow_progress(r, L_star, Gamma, beta1)
            assert rel_err(invert_solow(B, r, Gamma, beta1), L_star) <= 1e-12

    def test_tech_progress_validation(self):
        rd = {"r": 1.1, "Gamma": 2.0, "Delta": 4.0, "alpha1": 0.5, "beta1": 0.6}
        with pytest.raises(ParameterError):
            evaluate_augmented(0.0, 1.0, 0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ParameterError):
            RdDeterminants(**{**rd, "alpha1": 1.5})
        with pytest.raises(ParameterError):
            RdDeterminants(**{**rd, "r": -1.0})


class TestLinearCost:
    def test_reference_rows(self):
        assert abs(linear_cost(0.0150, 0.6550, 65, 5) - 4.25) <= 1e-2
        assert abs(linear_cost(0.02, 0.40, 58, 30) - 13.16) <= 1e-2

    def test_zero_weights(self):
        assert linear_cost(0, 0, 123, 456) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            linear_cost(-0.1, 0.5, 1, 1)

    def test_nan_rejected(self):
        with pytest.raises(ParameterError, match="^w1 must be non-negative, got nan$"):
            linear_cost(math.nan, 1, 1, 1)
        with pytest.raises(DomainError, match="^L must be strictly positive, got nan$"):
            linear_cost(1, 1, math.nan, 1)


class TestNanAndOverflow:
    @pytest.mark.parametrize("field", ["r", "Gamma", "Delta"])
    def test_nan_rd_determinant_rejected(self, field):
        values = {"r": 1.1, "Gamma": 2.0, "Delta": 4.0, "alpha1": 0.5, "beta1": 0.6}
        with pytest.raises(ParameterError, match=f"^{field} must be strictly positive, got nan$"):
            RdDeterminants(**{**values, field: math.nan})

    @pytest.mark.parametrize("field", ["A", "B", "r", "L_star", "K_star", "Gamma", "Delta"])
    def test_nan_tech_progress_field_rejected(self, field):
        # A and B are read by evaluate_augmented, the rest by the two progress factors
        v = {"A": 1.0, "B": 1.0, "r": 1.1, "L_star": 10.0, "K_star": 20.0, "Gamma": 2.0,
             "Delta": 4.0, field: math.nan}
        with pytest.raises((ParameterError, DomainError), match=f"^{field} must .*, got nan$"):
            evaluate_augmented(v["A"], v["B"], 0.5, 0.5, 1.0, 1.0)
            harrod_progress(v["r"], v["L_star"], v["Gamma"], 0.6)
            solow_progress(v["r"], v["K_star"], v["Delta"], 0.5)

    @pytest.mark.parametrize("call", [
        lambda: evaluate_output(1.0, 800.0, 1.0, 10.0, 1.0),
        lambda: evaluate_augmented(1.0, 1.0, 800.0, 1.0, 10.0, 1.0),
        lambda: invert_harrod(1e10, 1.0, 1.0, 0.01),
        lambda: invert_solow(1e10, 1.0, 1.0, 0.01),
    ], ids=["evaluate_output", "evaluate_augmented", "invert_harrod", "invert_solow"])
    def test_overflow_is_numerical_overflow_error(self, call):
        with pytest.raises(NumericalOverflowError, match="^math range error$"):
            call()

    # exp stays finite (its argument averages two logs); the product with r overflows
    @pytest.mark.parametrize("progress", [harrod_progress, solow_progress])
    def test_progress_product_overflow_is_numerical_overflow_error(self, progress):
        with pytest.raises(NumericalOverflowError,
                           match="^progress factor 1e\\+300 \\* .* overflows$"):
            progress(1e300, 1e300, 1e300, 0.5)

    # r * power is 1e-300 * 1e-300, below the least subnormal
    @pytest.mark.parametrize("progress, message", [
        (harrod_progress, "r * L_star^beta1 * Gamma^(1-beta1) underflows to 0"),
        (solow_progress, "r * K_star^alpha1 * Delta^(1-alpha1) underflows to 0"),
    ])
    def test_progress_product_underflow_is_domain_error(self, progress, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            progress(1e-300, 1e-300, 1e-300, 0.5)

    @pytest.mark.parametrize("call", [
        lambda: invert_harrod(math.inf, 1.0, 1.0, 0.5),
        lambda: invert_solow(1.0, math.inf, 1.0, 0.5),
        lambda: harrod_progress(1.0, math.inf, 1.0, 0.5),
        lambda: solow_progress(1.0, 1.0, math.inf, 0.5),
        lambda: evaluate_output(1.0, 0.5, 0.5, math.inf, 1.0),
        lambda: linear_cost(1.0, 1.0, 1.0, math.inf),
    ], ids=["invert_harrod", "invert_solow", "harrod_progress", "solow_progress",
            "evaluate_output", "linear_cost"])
    def test_infinite_input_is_domain_error(self, call):
        with pytest.raises(DomainError, match="must be finite, got inf$"):
            call()

    @pytest.mark.parametrize("field", ["r", "Gamma", "Delta"])
    def test_infinite_rd_determinant_rejected(self, field):
        values = {"r": 1.1, "Gamma": 2.0, "Delta": 4.0, "alpha1": 0.5, "beta1": 0.6}
        with pytest.raises(ParameterError, match=f"^{field} must be finite, got inf$"):
            RdDeterminants(**{**values, field: math.inf})

    @pytest.mark.parametrize("A, B", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_tech_progress_factor_rejected(self, A, B):
        name = "A" if A == math.inf else "B"
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got inf$"):
            evaluate_augmented(A, B, 0.5, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5)])
    def test_non_finite_elasticities_have_no_scale_regime(self, alpha, beta):
        name, value = ("alpha", alpha) if not math.isfinite(alpha) else ("beta", beta)
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got {value}$"):
            returns_to_scale(alpha, beta)


class TestReturnsToScale:
    def test_constant(self):
        regime, n = returns_to_scale(0.4, 0.6)
        assert regime is ScaleRegime.CRS
        assert n == pytest.approx(1.0)

    def test_increasing(self):
        regime, n = returns_to_scale(0.693, 1.1052)
        assert regime is ScaleRegime.IRS
        assert n == pytest.approx(1.7982)

    def test_decreasing(self):
        regime, _ = returns_to_scale(0.1670, 7.6964e-4)
        assert regime is ScaleRegime.DRS

    def test_tolerance_band(self):
        assert returns_to_scale(0.5, 0.5 + 1e-10).regime is ScaleRegime.CRS
        assert returns_to_scale(0.5, 0.5 + 1e-8).regime is ScaleRegime.IRS
        assert returns_to_scale(0.5, 0.5 - 1e-8).regime is ScaleRegime.DRS
