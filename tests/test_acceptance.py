"""Acceptance suite: one test (or test group) per acceptance criterion.

Each criterion prints a PASS/FAIL line (visible with `pytest -s`). Criterion 1
contains one check that is expected to fail and is kept at its stated tolerance
on purpose: the 1997 minimum-cost value cannot be reproduced to 1e-3 absolute
from the reference table's 4-decimal elasticities (the rounding floor is about
1.5e-3). See README.
"""

import json
import math
import random
import runpy
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dcecon import reference
from dcecon.closed_form import cost_min, profit_max, revenue_max
from dcecon.concentration import Concentration, MarketShares, classify_hhi, hhi
from dcecon.fitting import DesignMatrix, QuadraticProgram, certify_solution, ols_fit, qp_fit, qp_solve
from dcecon.frontier import elasticities_from_frontier, frontier_output
from dcecon.optimizers import (
    OptimizerConfig,
    Termination,
    sga_revenue_max,
    sgd_cost_min,
)
from dcecon.production import CostRecord, evaluate_output, linear_cost
from dcecon.reports import reference_profit_report

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
# one backward step of the marginal update, shared with the script that derives REVENUE_INITS
previous_iterate = runpy.run_path(str(ROOT / "scripts" / "derive_revenue_inits.py"))[
    "previous_iterate"]

COST_TOL = 1e-3
REVENUE_TOL = 0.5
LINEAR_TOL = 1e-2
PROFIT_TOL = 1e-2
RUN_OBJECTIVE_TOL = 1e-2


def announce(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {criterion} ({name}): {status}{suffix}")


def evaluate_row(row):
    """L^alpha * K^beta at a reference table row's elasticities and its year's costs."""
    (year,) = [year for table in (reference.MIN_COST_TABLE, reference.MAX_REVENUE_TABLE)
               for year, entry in table.items() if entry is row]
    record = reference.COST_RECORDS[year]
    return evaluate_output(1.0, row.alpha, row.beta, record.server_cost, record.power_cooling_cost)


def check_revenue_run(year, start):
    """Assert that the marginal ascent (lr 0.01, cap 1.8) from start stops with cap_reached
    at its revenue row: alpha and beta to 4 decimals, the objective within RUN_OBJECTIVE_TOL."""
    row = reference.MAX_REVENUE_TABLE[year]
    config = OptimizerConfig(learning_rate=0.01, cap=1.8, init_alpha=start[0], init_beta=start[1])
    result = sga_revenue_max(reference.COST_RECORDS[year], config)
    assert result.terminated_by is Termination.CAP_REACHED, result
    assert (round(result.alpha, 4), round(result.beta, 4)) == (row.alpha, row.beta), result
    assert abs(result.objective - row.objective) <= RUN_OBJECTIVE_TOL, result
    return result


def reference_profit_rows():
    """The rows of the reference profit report over the bundled years, by year."""
    report = reference_profit_report(list(reference.COST_RECORDS.values()))
    return {row.pop("year"): row for row in report.rows}


class TestCriterion1TableReproduction:
    @pytest.mark.parametrize("year", [2002, 2009, 2012])
    def test_cost_table_rows(self, year):
        row = reference.MIN_COST_TABLE[year]
        diff = abs(evaluate_row(row) - row.objective)
        announce(1, f"cost table {year} row, abs tol {COST_TOL}", diff <= COST_TOL)
        assert diff <= COST_TOL

    def test_cost_table_1997_row_strict(self):
        # Expected failure, kept at the stated tolerance: the printed 4-decimal
        # elasticities cannot reproduce 6.8672 closer than ~1.2e-3.
        row = reference.MIN_COST_TABLE[1997]
        value = evaluate_row(row)
        diff = abs(value - row.objective)
        announce(1, f"cost table 1997 row, abs tol {COST_TOL}", diff <= COST_TOL,
                 f"computed {value:.7f} vs {row.objective}, |diff| {diff:.2e}; "
                 "known rounding floor of the reference elasticities")
        assert diff <= COST_TOL, (
            f"computed {value:.7f} vs reference {row.objective}: |diff| {diff:.2e} exceeds "
            f"{COST_TOL}. The reference elasticities are printed to 4 decimals; a half-ULP "
            f"perturbation of alpha alone moves the output by ~1.4e-3, so this tolerance "
            f"is below the reproducibility floor of the published row."
        )

    @pytest.mark.parametrize("year", reference.YEARS)
    def test_no_analytic_descent_step_ends_at_a_cost_row(self, year):
        # An analytic descent step at lr 0.01 moves (alpha, beta) by -lr * c * (ln L, ln K),
        # c = L^alpha K^beta, so alpha - (ln L / ln K) * beta stays constant. A step that
        # ends at the row (alpha_T, beta_T) starts at beta = b on that line, with
        # alpha(b) = alpha_T + (ln L / ln K) * (b - beta_T), and solves g(b) = 0, where
        # g(b) = beta_T + lr * ln K * L^alpha(b) * K^b - b. The bound checked: g > 0.05
        # for every b in [0, 10] (minima 0.1105, 0.0935, 0.0863, 0.0601 on this grid),
        # so no such start exists and no analytic descent reaches a cost row.
        row, lr = reference.MIN_COST_TABLE[year], 0.01
        record = reference.COST_RECORDS[year]
        log_L, log_K = math.log(record.server_cost), math.log(record.power_cooling_cost)
        b = np.linspace(0.0, 10.0, 100_001)
        alpha = row.alpha + (log_L / log_K) * (b - row.beta)
        g = row.beta + lr * log_K * np.exp(alpha * log_L + b * log_K) - b
        announce(1, f"no analytic descent reaches the cost {year} row", g.min() > 0.05,
                 f"min g = {g.min():.4f}")
        assert g.min() > 0.05

    @pytest.mark.parametrize("year", reference.YEARS)
    def test_marginal_descent_meets_a_cost_row_only_from_beta_below_0_004(self, year):
        # Stepped backwards from the row (lr 0.01), the marginal descent passes alpha = 1
        # after 331, 611, 1,288 and 2,280 steps, and beta on those paths stays at most
        # 7.1e-5, 0.00338, 0.00142 and 0.00343. The bound checked: alpha > 1 within 2,500
        # steps, and beta < 0.004 on the whole path. So a marginal descent from a start with
        # alpha <= 1 meets the row only if it started with beta < 0.004; replayed forwards,
        # the path ends at the row stopped by max_iters, and one more step from the row
        # stays positive, so nothing else stops a run there.
        row, lr = reference.MIN_COST_TABLE[year], 0.01
        record = reference.COST_RECORDS[year]
        alpha, beta, steps, largest_beta = row.alpha, row.beta, 0, row.beta
        while alpha <= 1.0 and steps < 2500:
            alpha, beta = previous_iterate(record.server_cost, record.power_cooling_cost,
                                           alpha, beta, -lr)
            steps += 1
            largest_beta = max(largest_beta, beta)
        replay = sgd_cost_min(record, OptimizerConfig(learning_rate=lr, init_alpha=alpha,
                                                      init_beta=beta, max_iters=steps))
        step_on = sgd_cost_min(record, OptimizerConfig(learning_rate=lr, init_alpha=row.alpha,
                                                       init_beta=row.beta, max_iters=1))
        ok = alpha > 1.0 and largest_beta < 0.004
        announce(1, f"marginal descent meets the cost {year} row only from beta < 0.004", ok,
                 f"alpha > 1 after {steps} steps back, largest beta {largest_beta:.3g}")
        assert ok
        assert abs(replay.alpha - row.alpha) < 1e-12 and abs(replay.beta - row.beta) < 1e-12
        assert replay.terminated_by is Termination.MAX_ITERS
        assert step_on.terminated_by is Termination.MAX_ITERS and step_on.iterations == 1

    @pytest.mark.parametrize("year", reference.YEARS)
    def test_revenue_run_from_pinned_start_reproduces_row(self, year):
        result = check_revenue_run(year, reference.REVENUE_INITS[year])
        gap = abs(result.objective - reference.MAX_REVENUE_TABLE[year].objective)
        announce(1, f"revenue run {year} from REVENUE_INITS, objective abs tol "
                    f"{RUN_OBJECTIVE_TOL}", True,
                 f"{result.iterations} iterations, objective gap {gap:.4f}")

    @pytest.mark.parametrize("year", reference.YEARS)
    def test_revenue_table_rows(self, year):
        row = reference.MAX_REVENUE_TABLE[year]
        diff = abs(evaluate_row(row) - row.objective)
        announce(1, f"revenue table {year} row, abs tol {REVENUE_TOL}", diff <= REVENUE_TOL)
        assert diff <= REVENUE_TOL

    def test_runtime_is_milliseconds(self):
        start = time.perf_counter()
        for table in (reference.MIN_COST_TABLE, reference.MAX_REVENUE_TABLE):
            for row in table.values():
                evaluate_row(row)
        elapsed = time.perf_counter() - start
        announce(1, "evaluation runtime", elapsed < 0.1, f"{elapsed * 1e3:.2f} ms")
        assert elapsed < 0.1


class TestCriterion2LinearCost:
    @pytest.mark.parametrize("year", reference.YEARS)
    def test_linear_cost_rows(self, year):
        w1, w2, expected = reference.LINEAR_COST_TABLE[year]
        record = reference.COST_RECORDS[year]
        value = linear_cost(w1, w2, record.server_cost, record.power_cooling_cost)
        diff = abs(value - expected)
        announce(2, f"linear cost {year} row, abs tol {LINEAR_TOL}", diff <= LINEAR_TOL)
        assert diff <= LINEAR_TOL


class TestCriterion3ProfitConsistency:
    def test_cd_profit_2009_2012(self):
        rows = reference_profit_rows()
        for year in (2009, 2012):
            expected = reference.PROFIT_TABLE[year][0]
            diff = abs(rows[year]["profit_cd"] - expected)
            announce(3, f"CD profit {year}, abs tol {PROFIT_TOL}", diff <= PROFIT_TOL)
            assert diff <= PROFIT_TOL

    def test_linear_profit_all_rows(self):
        rows = reference_profit_rows()
        for year in reference.YEARS:
            expected = reference.PROFIT_TABLE[year][1]
            diff = abs(rows[year]["profit_linear"] - expected)
            announce(3, f"linear profit {year}, abs tol {PROFIT_TOL}", diff <= PROFIT_TOL)
            assert diff <= PROFIT_TOL

    def test_1997_2002_cd_rows_are_documented_deviations(self):
        rows = reference_profit_rows()
        computed = {1997: 63.76, 2002: 252.74}
        for year, value in computed.items():
            cross_table = rows[year]["profit_cd"]
            recorded = reference.PROFIT_TABLE[year][0]
            consistent = abs(cross_table - value) <= PROFIT_TOL
            deviates = abs(cross_table - recorded) > PROFIT_TOL
            announce(3, f"CD profit {year} known deviation", consistent and deviates,
                     f"cross-table {cross_table:.4f}, recorded {recorded}")
            assert consistent, f"{year}: cross-table profit {cross_table} != {value}"
            assert deviates, f"{year}: recorded value unexpectedly matches"


class TestCriterion4OptimizerProperties:
    def _random_setups(self, count, seed):
        rng = random.Random(seed)
        setups = []
        for _ in range(count):
            record = CostRecord(2000, rng.uniform(1.5, 80), rng.uniform(1.5, 80))
            config_kwargs = dict(
                learning_rate=rng.uniform(0.01, 0.06),
                init_alpha=rng.uniform(0.05, 0.85),
                init_beta=rng.uniform(0.05, 0.85),
            )
            setups.append((record, config_kwargs))
        return setups

    def test_a_descent_and_ascent_monotonicity(self):
        start = time.perf_counter()
        for record, kwargs in self._random_setups(1000, seed=2024):
            result = sgd_cost_min(record, OptimizerConfig(max_iters=120, record_trajectory=True,
                                                           **kwargs))
            objectives = [obj for _, _, obj in result.trajectory]
            assert all(b < a for a, b in zip(objectives, objectives[1:])), (record, kwargs)
        for record, kwargs in self._random_setups(1000, seed=4048):
            result = sga_revenue_max(record, OptimizerConfig(max_iters=60_000, record_trajectory=True,
                                                              **kwargs))
            objectives = [obj for _, _, obj in result.trajectory]
            assert all(b > a for a, b in zip(objectives, objectives[1:])), (record, kwargs)
        elapsed = time.perf_counter() - start
        announce(4, "monotone descent/ascent over 1000 random configs", True,
                 f"{elapsed:.1f} s")
        assert elapsed < 10.0

    def test_b_ascent_terminates_within_one_step_of_cap(self):
        for record, kwargs in self._random_setups(1000, seed=777):
            config = OptimizerConfig(max_iters=60_000, **kwargs)
            result = sga_revenue_max(record, config)
            assert result.terminated_by is Termination.CAP_REACHED
            total = result.alpha + result.beta
            assert total < config.cap
            L, K = record.server_cost, record.power_cooling_cost
            g_alpha = result.alpha * L ** (result.alpha - 1) * K ** result.beta
            g_beta = result.beta * L ** (result.beta - 1) * K ** result.alpha
            assert total + config.learning_rate * (g_alpha + g_beta) >= config.cap
        announce(4, "ascent terminal within one step below the cap", True)

    def test_c_golden_determinism(self):
        config = OptimizerConfig(learning_rate=0.01, init_alpha=0.5, init_beta=0.5,
                                 max_iters=10_000, mode="marginal", record_trajectory=True)
        record = CostRecord(1997, 65.0, 5.0)
        result = sgd_cost_min(record, config)
        again = sgd_cost_min(record, config)
        bitwise = result.trajectory == again.trajectory and (
            result.alpha, result.beta, result.objective) == (
            again.alpha, again.beta, again.objective)
        golden = dict(alpha=0.02339322514121684, beta=0.02339322514121684,
                      objective=1.1448828583650097, iterations=10_000)
        close = (
            abs(result.alpha - golden["alpha"]) <= 1e-12 * golden["alpha"]
            and abs(result.beta - golden["beta"]) <= 1e-12 * golden["beta"]
            and abs(result.objective - golden["objective"]) <= 1e-12 * golden["objective"]
            and result.iterations == golden["iterations"]
        )
        announce(4, "golden-run determinism for the documented default config",
                 bitwise and close)
        assert bitwise
        assert close


class TestCriterion5ClosedFormVsOracles:
    N_PROBLEMS = 100
    N_POINTS = 10_000

    def _random_problem(self, rng):
        return SimpleNamespace(
            m=rng.uniform(0.5, 50), w1=rng.uniform(0.1, 5), w2=rng.uniform(0.1, 5),
            R=rng.uniform(0.1, 20), I=rng.uniform(0.1, 20),
            alpha=rng.uniform(0.1, 3), beta=rng.uniform(0.1, 3),
        )

    def test_revenue_max_dominates_sampling_oracle(self):
        rng = random.Random(501)
        np_rng = np.random.default_rng(501)
        for _ in range(self.N_PROBLEMS):
            p = self._random_problem(rng)
            sol = revenue_max(**vars(p))
            t = np_rng.uniform(1e-9, 1.0 - 1e-9, size=self.N_POINTS)
            u = t * p.m / p.w1
            v = (1.0 - t) * p.m / p.w2
            oracle = np.exp(p.alpha * np.log(u) + p.beta * np.log(v)).max()
            assert oracle <= sol.objective * (1.0 + 1e-6)
            spend = p.w1 * sol.A * p.R + p.w2 * sol.B * p.I
            assert abs(spend - p.m) <= 1e-12 * p.m
        announce(5, "revenue max beats 1e4-point budget-line oracle on 100 problems", True)

    def test_cost_min_dominates_isoquant_oracle(self):
        rng = random.Random(503)
        np_rng = np.random.default_rng(503)
        for _ in range(self.N_PROBLEMS):
            p = self._random_problem(rng)
            y_tar = rng.uniform(0.5, 50)
            sol = cost_min(y_tar, p.w1, p.w2, p.R, p.I, p.alpha, p.beta)
            u_star = sol.A * p.R
            u = u_star * np.exp(np_rng.uniform(-4, 4, size=self.N_POINTS))
            v = np.exp((np.log(y_tar) - p.alpha * np.log(u)) / p.beta)
            oracle = (p.w1 * u + p.w2 * v).min()
            assert sol.objective <= oracle * (1.0 + 1e-6)
        announce(5, "cost min beats 1e4-point isoquant oracle on 100 problems", True)

    def test_profit_max_dominates_grid_oracle_and_is_input_invariant(self):
        rng = random.Random(509)
        np_rng = np.random.default_rng(509)
        for _ in range(self.N_PROBLEMS):
            alpha = rng.uniform(0.05, 0.8)
            beta = rng.uniform(0.05, min(0.85 - alpha, 0.8))
            w1, w2 = rng.uniform(0.2, 3), rng.uniform(0.2, 3)
            P = rng.uniform(0.5, 3)
            sol = profit_max(w1, w2, 1.0, 1.0, alpha, beta, P=P)
            u = sol.A * np.exp(np_rng.uniform(-3, 3, size=self.N_POINTS))
            v = sol.B * np.exp(np_rng.uniform(-3, 3, size=self.N_POINTS))
            oracle = (P * np.exp(alpha * np.log(u) + beta * np.log(v))
                      - w1 * u - w2 * v).max()
            assert oracle <= sol.profit + 1e-6 * max(1.0, abs(sol.profit))
            # output invariance across input levels
            moved = profit_max(w1, w2, rng.uniform(0.1, 9), rng.uniform(0.1, 9),
                               alpha, beta, P=P)
            assert abs(moved.output - sol.output) <= 1e-12 * sol.output
            assert abs(moved.profit - sol.profit) <= 1e-12 * max(1e-300, sol.profit)
        announce(5, "profit max beats 1e4-point sampling oracle; output input-invariant", True)

    def test_runtime_budget(self):
        start = time.perf_counter()
        self.test_revenue_max_dominates_sampling_oracle()
        self.test_cost_min_dominates_isoquant_oracle()
        elapsed = time.perf_counter() - start
        announce(5, "oracle suite runtime", elapsed < 30.0, f"{elapsed:.1f} s")
        assert elapsed < 30.0


class TestCriterion6FrontierRoundTrip:
    def test_recovery_round_trip_1000_specs(self):
        rng = random.Random(601)
        for _ in range(1000):
            n = rng.uniform(0.3, 2.0)
            alpha = rng.uniform(0.01, n - 0.005)
            beta = n - alpha
            K = rng.uniform(-2, 2)
            v, u = rng.uniform(-0.5, 0.5), rng.uniform(0, 1.0)
            S, I = rng.uniform(0.5, 80), rng.uniform(0.5, 80)
            if abs(math.log(S / I)) < 0.05:
                I = S * rng.choice([0.25, 4.0])
            y = frontier_output(K, alpha, beta, S, I, v=v, u=u)
            got_alpha, got_beta = elasticities_from_frontier(y, K, S, I, v=v, u=u, n=n)
            assert abs(got_alpha - alpha) <= 1e-10
            assert abs(got_beta - beta) <= 1e-10
        announce(6, "frontier elasticity recovery round trip, 1000 specs at 1e-10", True)

    def test_unit_scale_matches_pair_formulas(self):
        rng = random.Random(607)
        for _ in range(100):
            K = rng.uniform(-1, 1)
            v, u = rng.uniform(-0.5, 0.5), rng.uniform(0, 0.8)
            S, I = rng.uniform(0.5, 40), rng.uniform(41, 90)
            y = rng.uniform(0.5, 50)
            alpha, beta = elasticities_from_frontier(y, K, S, I, v=v, u=u, n=1.0)
            alpha_pair = (math.log(y) - K - math.log(I) - v + u) / math.log(S / I)
            beta_pair = (math.log(y) - K - math.log(S) - v + u) / math.log(I / S)
            assert abs(alpha - alpha_pair) <= 1e-12 * max(1.0, abs(alpha_pair))
            assert abs(beta - beta_pair) <= 1e-12 * max(1.0, abs(beta_pair))
            assert abs(alpha + beta - 1.0) <= 1e-12
        announce(6, "unit-scale recovery matches the direct pair formulas", True)


class TestCriterion7Fitting:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(701)
        S = rng.uniform(2, 90, size=6)
        P = rng.uniform(2, 90, size=6)
        y = np.exp(1.0 + 2.0 * np.log(S) + 3.0 * np.log(P))
        fit = ols_fit(DesignMatrix.log_scale(S, P, y))
        ok = (abs(fit.intercept - 1.0) <= 1e-10 and abs(fit.alpha - 2.0) <= 1e-10
              and abs(fit.beta - 3.0) <= 1e-10)
        announce(7, "OLS noiseless recovery at 1e-10", ok)
        assert ok

    def test_unconstrained_qp_equals_ols_with_certificates(self):
        rng = np.random.default_rng(709)
        constraints = (np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 1.0]]),
                       np.array([0.0, 0.0, 1.0]))
        for _ in range(100):
            S = rng.uniform(2, 90, size=25)
            P = rng.uniform(2, 90, size=25)
            log_y = (rng.uniform(-0.5, 0.5) + rng.uniform(0.05, 0.4) * np.log(S)
                     + rng.uniform(0.05, 0.4) * np.log(P)
                     + rng.normal(0, 0.05, size=25))
            design = DesignMatrix.log_scale(S, P, np.exp(log_y))
            ols = ols_fit(design)
            qp_result = qp_fit(design, constraints)
            assert np.max(np.abs(np.subtract(ols.coefficients, qp_result.coefficients))) <= 1e-8
            A, y = np.array(design.matrix), np.array(design.outputs)
            qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y,
                                  C=constraints[0], b=constraints[1])
            x = qp_solve(qp)
            assert certify_solution(qp, x)
        announce(7, "unconstrained-at-optimum QP equals OLS on 100 designs, KKT certified", True)

    def test_binding_constraint_certified(self):
        rng = np.random.default_rng(719)
        constraints = (np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 1.0]]),
                       np.array([0.0, 0.0, 1.0]))
        S = rng.uniform(2, 90, size=30)
        P = rng.uniform(2, 90, size=30)
        y = np.exp(0.2 + 0.9 * np.log(S) + 0.7 * np.log(P) + rng.normal(0, 0.05, size=30))
        design = DesignMatrix.log_scale(S, P, y)
        fit = qp_fit(design, constraints)
        A, out = np.array(design.matrix), np.array(design.outputs)
        qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ out,
                              C=constraints[0], b=constraints[1])
        ok = abs(fit.alpha + fit.beta - 1.0) <= 1e-9 and certify_solution(qp, fit.coefficients)
        announce(7, "binding returns-to-scale constraint on the boundary, certified", ok)
        assert ok


class TestCriterion8Hhi:
    def test_apac_exact(self):
        value = hhi(MarketShares.from_shares(reference.APAC_SHARES))
        ok = value == 1708.0 and classify_hhi(value) is Concentration.MODERATE
        announce(8, "APAC shares give exactly 1708, moderate", ok)
        assert value == 1708.0
        assert classify_hhi(value) is Concentration.MODERATE

    def test_iaas_computed_with_known_discrepancy(self):
        with pytest.warns(UserWarning):
            shares = MarketShares.from_shares([s for _, s in reference.IAAS_SHARES])
        value = hhi(shares)
        ok = abs(value - 2469.46) <= 0.01 and abs(value - 2456.34) > 1.0
        announce(8, "IaaS computed 2469.46 +- 0.01; recorded 2456.34 is a known discrepancy",
                 ok, f"computed {value:.2f}")
        assert abs(value - 2469.46) <= 0.01
        # the recorded figure differs by a constant 13.12; assert the discrepancy, not the figure
        assert abs(value - 2456.34) == pytest.approx(13.12, abs=0.01)

    def test_merge_monotonicity_1000_tables(self):
        rng = random.Random(809)
        for _ in range(1000):
            n = rng.randrange(2, 10)
            shares = [rng.uniform(0.0, 100.0 / n) for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            merged = [s for k, s in enumerate(shares) if k not in (i, j)]
            merged.append(shares[i] + shares[j])
            before = hhi(MarketShares.from_shares(shares))
            after = hhi(MarketShares.from_shares(merged))
            assert after >= before - 1e-9
        announce(8, "merging two firms never decreases the index, 1000 random tables", True)


class TestCriterion9CliEndToEnd:
    def _run(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "dcecon", *args],
            capture_output=True, cwd=cwd or Path(__file__).resolve().parent.parent,
        )

    def test_repeated_runs_are_byte_identical(self):
        args = ("profit", "--input", str(DATA_DIR / "tables.csv"),
                "--format", "json", "--seed", "7", "--max-iters", "1500")
        first = self._run(*args)
        second = self._run(*args)
        ok = first.returncode == 0 and first.stdout == second.stdout and first.stdout
        announce(9, "same seed twice gives byte-identical reports", bool(ok))
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert len(payload["rows"]) == 4

    def test_exit_code_contract(self, tmp_path):
        usage = self._run("definitely-not-a-command")
        bad = tmp_path / "bad.csv"
        bad.write_text("year,new_server_cost,power_cooling_cost\n1997,-5,5\n")
        data = self._run("cost-min", "--input", str(bad))
        numeric = self._run("profit-max-closed", "--w1", "1", "--w2", "1",
                            "--recurring", "1", "--infrastructure", "1",
                            "--alpha", "0.6", "--beta", "0.6")
        good = self._run("hhi", "--input", str(DATA_DIR / "apac_shares.csv"))
        ok = (usage.returncode, data.returncode, numeric.returncode, good.returncode) == (1, 2, 3, 0)
        announce(9, "exit codes 1/2/3/0 for usage, data, numerical, success", ok)
        assert usage.returncode == 1
        assert data.returncode == 2
        assert numeric.returncode == 3
        assert good.returncode == 0
