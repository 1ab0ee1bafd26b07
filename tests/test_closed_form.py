import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcecon.closed_form import cost_min, profit_max, revenue_max
from dcecon.errors import (DegenerateProblemError, DomainError, EconModelError,
                           NumericalOverflowError, ParameterError)
from dcecon.production import RdDeterminants, harrod_progress, linear_cost, solow_progress

ORACLE_POINTS = 10_000


def rel_err(value, expected):
    return abs(value - expected) / abs(expected)


def random_budget_problem(rng):
    """revenue_max's inputs m, w1, w2, R, I, alpha and beta, by name."""
    return SimpleNamespace(
        m=rng.uniform(0.5, 50),
        w1=rng.uniform(0.1, 5),
        w2=rng.uniform(0.1, 5),
        R=rng.uniform(0.1, 20),
        I=rng.uniform(0.1, 20),
        alpha=rng.uniform(0.1, 3),
        beta=rng.uniform(0.1, 3),
    )


def budget_line_objective(problem, t):
    """Output along the budget line, parametrized by the budget fraction on input 1."""
    u = t * problem.m / problem.w1
    v = (1.0 - t) * problem.m / problem.w2
    return np.exp(problem.alpha * np.log(u) + problem.beta * np.log(v))


class TestRevenueMax:
    def test_symmetric_unit_case(self):
        sol = revenue_max(m=2, w1=1, w2=1, R=1, I=1, alpha=1, beta=1)
        assert sol.A == pytest.approx(1.0)
        assert sol.B == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        sol = revenue_max(m=6, w1=1, w2=2, R=2, I=1, alpha=2, beta=1)
        assert sol.A == pytest.approx(2.0)
        assert sol.B == pytest.approx(1.0)
        assert sol.objective == pytest.approx(16.0)

    def test_budget_exhaustion(self):
        rng = random.Random(3)
        for _ in range(200):
            p = random_budget_problem(rng)
            sol = revenue_max(**vars(p))
            spend = p.w1 * sol.A * p.R + p.w2 * sol.B * p.I
            assert rel_err(spend, p.m) <= 1e-12

    def test_dominates_budget_line_sampling_oracle(self):
        rng = random.Random(5)
        np_rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_budget_problem(rng)
            sol = revenue_max(**vars(p))
            t = np_rng.uniform(1e-6, 1.0 - 1e-6, size=ORACLE_POINTS)
            oracle_best = budget_line_objective(p, t).max()
            assert oracle_best <= sol.objective * (1.0 + 1e-6)

    def test_objective_consistent_with_augmented_evaluation(self):
        from dcecon.production import evaluate_augmented

        rng = random.Random(37)
        for _ in range(100):
            p = random_budget_problem(rng)
            sol = revenue_max(**vars(p))
            re_evaluated = evaluate_augmented(sol.A, sol.B, p.alpha, p.beta, p.R, p.I)
            assert rel_err(re_evaluated, sol.objective) <= 1e-10

    def test_rd_back_out_composes_to_identity(self):
        rd = RdDeterminants(r=1.05, Gamma=3.0, Delta=6.0, alpha1=0.4, beta1=0.3)
        p = SimpleNamespace(m=10, w1=1.5, w2=0.8, R=4, I=7, alpha=0.6, beta=0.9)
        sol = revenue_max(**vars(p), rd=rd)
        assert sol.L_star is not None and sol.K_star is not None
        assert rel_err(harrod_progress(rd.r, sol.L_star, rd.Gamma, rd.beta1), sol.A) <= 1e-12
        assert rel_err(solow_progress(rd.r, sol.K_star, rd.Delta, rd.alpha1), sol.B) <= 1e-12

    def test_underflowing_effective_input_is_domain_error(self):
        # A = 0.5 * 1e-300 / 1e300 underflows to 0, so ln(A * R) has no value
        with pytest.raises(DomainError, match="^effective inputs underflow to 0: A\\*R = 0.0, "):
            revenue_max(m=1e-300, w1=1e300, w2=1, R=1, I=1, alpha=0.5, beta=0.5)

    def test_overflowing_effective_input_is_named(self):
        # alpha*m and w1*R*n both overflow to inf, so A = inf/inf is NaN, not an underflow
        with pytest.raises(NumericalOverflowError,
                           match="^effective inputs overflow: A\\*R = nan, B\\*I = 1.0$"):
            revenue_max(m=1e300, w1=1e300, w2=1, R=1e300, I=1, alpha=1e300, beta=1)

    @pytest.mark.parametrize("name", ["m", "w1", "w2", "R", "I", "alpha", "beta"])
    def test_infinite_problem_input_rejected(self, name):
        values = dict(m=1, w1=1, w2=1, R=1, I=1, alpha=1, beta=1)
        with pytest.raises(ParameterError, match=f"^{name} must be finite, got inf$"):
            revenue_max(**{**values, name: math.inf})

    def test_problem_validation(self):
        with pytest.raises(ParameterError):
            revenue_max(m=0, w1=1, w2=1, R=1, I=1, alpha=1, beta=1)
        with pytest.raises(ParameterError):
            revenue_max(m=1, w1=1, w2=1, R=1, I=1, alpha=-1, beta=1)
        with pytest.raises(ParameterError):
            revenue_max(m=1, w1=math.nan, w2=1, R=1, I=1, alpha=1, beta=1)


class TestCostMin:
    def test_symmetric_case(self):
        sol = cost_min(1.0, 1, 1, 1, 1, 0.5, 0.5)
        assert sol.A == pytest.approx(1.0)
        assert sol.B == pytest.approx(1.0)
        assert sol.objective == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        # v = u/4 and u*v = 256, so u=32, v=8, c = 32 + 4*8 = 64
        sol = cost_min(16.0, 1, 4, 1, 1, 0.5, 0.5)
        assert sol.A == pytest.approx(32.0)
        assert sol.B == pytest.approx(8.0)
        assert sol.objective == pytest.approx(64.0)

    def test_meets_output_constraint(self):
        rng = random.Random(9)
        for _ in range(200):
            p = random_budget_problem(rng)
            y_tar = rng.uniform(0.5, 100)
            sol = cost_min(y_tar, p.w1, p.w2, p.R, p.I, p.alpha, p.beta)
            u, v = sol.A * p.R, sol.B * p.I
            produced = math.exp(p.alpha * math.log(u) + p.beta * math.log(v))
            assert rel_err(produced, y_tar) <= 1e-10

    def test_tangency_condition(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_budget_problem(rng)
            sol = cost_min(3.7, p.w1, p.w2, p.R, p.I, p.alpha, p.beta)
            u, v = sol.A * p.R, sol.B * p.I
            # first-order condition: w1/w2 = (alpha*v)/(beta*u)
            assert rel_err(p.w1 / p.w2, (p.alpha * v) / (p.beta * u)) <= 1e-10

    def test_dominates_constraint_parametrized_oracle(self):
        rng = random.Random(17)
        np_rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_budget_problem(rng)
            y_tar = rng.uniform(0.5, 50)
            sol = cost_min(y_tar, p.w1, p.w2, p.R, p.I, p.alpha, p.beta)
            u_star = sol.A * p.R
            # sweep the output isoquant around the solution, v solved from the constraint
            u = u_star * np.exp(np_rng.uniform(-4, 4, size=ORACLE_POINTS))
            v = np.exp((np.log(y_tar) - p.alpha * np.log(u)) / p.beta)
            oracle_best = (p.w1 * u + p.w2 * v).min()
            assert sol.objective <= oracle_best * (1.0 + 1e-6)

    def test_duality_with_revenue_max(self):
        rng = random.Random(19)
        for _ in range(100):
            p = random_budget_problem(rng)
            y_star = revenue_max(**vars(p)).objective
            back = cost_min(y_star, p.w1, p.w2, p.R, p.I, p.alpha, p.beta)
            assert rel_err(back.objective, p.m) <= 1e-10

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            cost_min(0.0, 1, 1, 1, 1, 0.5, 0.5)
        with pytest.raises(DomainError):
            cost_min(1.0, 1, 1, 1, 1, 0.5, 0.0)
        with pytest.raises(DomainError):
            cost_min(math.nan, 1, 1, 1, 1, 0.5, 0.5)

    @pytest.mark.parametrize("position", range(7))
    def test_infinite_inputs_rejected(self, position):
        values = [1.0, 1, 1, 1, 1, 0.5, 0.5]
        values[position] = math.inf
        with pytest.raises(DomainError, match="must be finite, got inf$"):
            cost_min(*values)


def refine_profit_grid(w1, w2, alpha, beta, P):
    """Iteratively shrunk grid search over (u, v), independent of the closed form."""
    lo_u, hi_u = math.log(1e-6), math.log(1e6)
    lo_v, hi_v = math.log(1e-6), math.log(1e6)
    best = -math.inf
    for _ in range(12):
        u = np.exp(np.linspace(lo_u, hi_u, 100))
        v = np.exp(np.linspace(lo_v, hi_v, 100))
        uu, vv = np.meshgrid(u, v)
        profit = P * np.exp(alpha * np.log(uu) + beta * np.log(vv)) - w1 * uu - w2 * vv
        idx = np.unravel_index(np.argmax(profit), profit.shape)
        best = profit[idx]
        span_u = (hi_u - lo_u) / 10
        span_v = (hi_v - lo_v) / 10
        lo_u, hi_u = math.log(uu[idx]) - span_u, math.log(uu[idx]) + span_u
        lo_v, hi_v = math.log(vv[idx]) - span_v, math.log(vv[idx]) + span_v
    return best


class TestProfitMax:
    def test_symmetric_foc_by_hand(self):
        sol = profit_max(1, 1, 1, 1, 0.25, 0.25, P=1.0)
        assert sol.A == pytest.approx(1 / 16)
        assert sol.B == pytest.approx(1 / 16)
        assert sol.output == pytest.approx(0.25)
        assert sol.profit == pytest.approx(0.125)

    def test_output_invariant_to_input_levels(self):
        base = profit_max(1, 1, 1, 1, 0.25, 0.25)
        moved = profit_max(1, 1, 7, 3, 0.25, 0.25)
        assert rel_err(moved.output, base.output) <= 1e-12
        assert rel_err(moved.profit, base.profit) <= 1e-12
        assert moved.A == pytest.approx(1 / 112)
        assert moved.B == pytest.approx(1 / 48)

    def test_first_order_conditions(self):
        rng = random.Random(29)
        for _ in range(200):
            alpha = rng.uniform(0.05, 0.85)
            beta = rng.uniform(0.05, 0.9 - alpha)
            w1, w2 = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            P = rng.uniform(0.2, 5)
            sol = profit_max(w1, w2, 1, 1, alpha, beta, P=P)
            u, v = sol.A, sol.B
            mp_u = P * alpha * math.exp((alpha - 1) * math.log(u) + beta * math.log(v))
            mp_v = P * beta * math.exp(alpha * math.log(u) + (beta - 1) * math.log(v))
            assert rel_err(mp_u, w1) <= 1e-10
            assert rel_err(mp_v, w2) <= 1e-10
            assert sol.profit >= 0.0

    def test_beats_grid_refinement_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            alpha = rng.uniform(0.05, 0.8)
            beta = rng.uniform(0.05, 0.9 - alpha)
            w1, w2 = rng.uniform(0.2, 3), rng.uniform(0.2, 3)
            P = rng.uniform(0.5, 3)
            sol = profit_max(w1, w2, 1, 1, alpha, beta, P=P)
            oracle = refine_profit_grid(w1, w2, alpha, beta, P)
            assert abs(oracle - sol.profit) <= 1e-6 * max(1.0, abs(sol.profit))
            assert oracle <= sol.profit + 1e-6 * max(1.0, abs(sol.profit))

    def test_constant_returns_rejected(self):
        with pytest.raises(DegenerateProblemError):
            profit_max(1, 1, 1, 1, 0.5, 0.5)
        with pytest.raises(DegenerateProblemError):
            profit_max(1, 1, 1, 1, 0.7, 0.6)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            profit_max(0.0, 1, 1, 1, 0.25, 0.25)
        with pytest.raises(DomainError):
            profit_max(1, 1, 1, 1, 0.25, math.nan)

    @pytest.mark.parametrize("position", range(7))
    def test_infinite_inputs_rejected(self, position):
        values = [1.0, 1, 1, 1, 0.25, 0.25, 1]
        values[position] = math.inf
        with pytest.raises(DomainError, match="must be finite, got inf$"):
            profit_max(*values)

    def test_overflow_is_numerical_overflow_error(self):
        with pytest.raises(NumericalOverflowError, match="^math range error$"):
            profit_max(1e-300, 1e-300, 1, 1, 0.45, 0.5)
        with pytest.raises(NumericalOverflowError, match="^math range error$"):
            cost_min(1e300, 1, 1, 1, 1, 0.01, 0.01)
        # (A*R)^alpha with A*R = 5e307 and alpha = 5
        with pytest.raises(NumericalOverflowError, match="^math range error$"):
            revenue_max(m=1e300, w1=1e-8, w2=1e-8, R=1, I=1, alpha=5, beta=5)

    def test_rd_back_out(self):
        rd = RdDeterminants(r=1.1, Gamma=2.0, Delta=4.0, alpha1=0.5, beta1=0.6)
        sol = profit_max(1, 1, 2, 3, 0.3, 0.4, P=1.0, rd=rd)
        assert rel_err(harrod_progress(rd.r, sol.L_star, rd.Gamma, rd.beta1), sol.A) <= 1e-12
        assert rel_err(solow_progress(rd.r, sol.K_star, rd.Delta, rd.alpha1), sol.B) <= 1e-12


# positive inputs drawn log-uniform over [1e-300, 1e300]; R&D elasticities over (0, 1)
wide = st.floats(min_value=-300, max_value=300).map(lambda e: 10.0 ** e)
unit = st.floats(min_value=-300, max_value=-1e-6).map(lambda e: 10.0 ** e)
rd_or_none = st.none() | st.builds(RdDeterminants, r=wide, Gamma=wide, Delta=wide,
                                   alpha1=unit, beta1=unit)

WIDE_CALLS = {
    "revenue_max": lambda v, rd: revenue_max(*v, rd),
    "cost_min": lambda v, rd: cost_min(*v, rd=rd),
    "profit_max": lambda v, rd: profit_max(*v, rd=rd),
    "linear_cost": lambda v, rd: linear_cost(*v[:4]),
}


@pytest.mark.parametrize("name", sorted(WIDE_CALLS))
@given(values=st.lists(wide, min_size=7, max_size=7), rd=rd_or_none)
@settings(deadline=None)
def test_wide_inputs_give_finite_fields_or_a_library_error(name, values, rd):
    try:
        result = WIDE_CALLS[name](values, rd)
    except EconModelError:
        return
    if isinstance(result, float):
        fields = [result]
    else:
        fields = [getattr(result, f.name) for f in dataclasses.fields(result)]
    assert all(math.isfinite(value) for value in fields if value is not None), result
