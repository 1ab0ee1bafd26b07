"""The input-domain contract of the library, checked over generated floats.

Every public constructor and function of production, closed_form, frontier,
concentration, optimizers and fitting, and the year-table layer of reports
(run_year, profit_row, profit_table), called with arguments drawn from normal
and subnormal floats, +-0, +-inf, NaN and +-1e300, either returns a result
whose float fields are all finite, or raises an EconModelError. When it
rejects an input (DomainError or ParameterError) the message names the
offending argument; other EconModelErrors (an overflow, a singular or
degenerate problem) report an outcome of valid inputs. No raw ValueError,
TypeError, ZeroDivisionError or LinAlgError escapes.
"""

import dataclasses
import enum
import math
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dcecon import (closed_form, concentration, fitting, frontier, optimizers, production,
                    reports)
from dcecon.errors import DomainError, EconModelError, ParameterError

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -5e-324,
           1.0, 0.5, 2.0]
# normal and subnormal floats, the specials above, and plausible values
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL), st.floats(0.05, 3.0))
MAYBE = st.one_of(st.none(), FLOATS)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def finite_fields(value):
    """Every float inside value (nested tuples, lists, dicts, dataclasses, arrays) is finite."""
    if isinstance(value, (bool, str, enum.Enum)) or value is None:
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if dataclasses.is_dataclass(value):
        return all(finite_fields(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(finite_fields(v) for v in value.values())
    if isinstance(value, (tuple, list)):
        return all(finite_fields(v) for v in value)
    return True


def holds(names, call, *args, **kwargs):
    """Run call; its result must be finite, or its rejection must name one of names."""
    try:
        result = call(*args, **kwargs)
    except (DomainError, ParameterError) as exc:
        named = [n for n in names if re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", str(exc))]
        assert named, f"{type(exc).__name__}({exc}) names none of {names}"
    except EconModelError:
        pass
    else:
        assert finite_fields(result), result


class TestProduction:
    @given(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS)
    @example(math.inf, 0.5, 0.5, 2.0, 3.0)
    @example(1.0, math.inf, 0.5, 0.5, 3.0)
    @SETTINGS
    def test_evaluate_output(self, P, alpha, beta, L, K):
        holds(["P", "alpha", "beta", "L", "K"], production.evaluate_output, P, alpha, beta, L, K)

    @given(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS)
    @example(1e300, 1.0, 0.5, 0.5, 1e300, 1.0)
    @SETTINGS
    def test_evaluate_augmented(self, A, B, alpha, beta, R, I):
        holds(["A", "B", "alpha", "beta", "R", "I"], production.evaluate_augmented,
              A, B, alpha, beta, R, I)

    @given(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS)
    @SETTINGS
    def test_from_determinants(self, r, L_star, K_star, Gamma, Delta, alpha1, beta1):
        holds(["r", "L_star", "K_star", "Gamma", "Delta", "alpha1", "beta1"],
              lambda: (production.harrod_progress(r, L_star, Gamma, beta1),
                       production.solow_progress(r, K_star, Delta, alpha1)))

    @pytest.mark.parametrize("progress, names", [
        (production.harrod_progress, ["r", "L_star", "Gamma", "beta1"]),
        (production.solow_progress, ["r", "K_star", "Delta", "alpha1"]),
        (production.invert_harrod, ["A", "r", "Gamma", "beta1"]),
        (production.invert_solow, ["B", "r", "Delta", "alpha1"]),
    ], ids=["harrod", "solow", "invert_harrod", "invert_solow"])
    @given(FLOATS, FLOATS, FLOATS, FLOATS)
    @example(10.0, 1.0, 1.0, 5e-324)
    @SETTINGS
    def test_progress_and_inverses(self, progress, names, a, b, c, d):
        holds(names, progress, a, b, c, d)

    @given(FLOATS, FLOATS)
    @SETTINGS
    def test_cost_record(self, server, power):
        holds(["server_cost", "power_cooling_cost"], production.CostRecord, 2000, server, power)

    @given(FLOATS, FLOATS, FLOATS, FLOATS)
    @SETTINGS
    def test_linear_cost(self, w1, w2, L, K):
        holds(["w1", "w2", "L", "K"], production.linear_cost, w1, w2, L, K)

    @given(FLOATS, FLOATS, FLOATS)
    @example(0.5, 0.5, math.nan)
    @SETTINGS
    def test_returns_to_scale(self, alpha, beta, tol):
        holds(["alpha", "beta", "tol"], production.returns_to_scale, alpha, beta, tol)


RD = ["r", "Gamma", "Delta", "alpha1", "beta1"]
RD_VALUES = st.one_of(st.none(), st.tuples(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS),
                      st.just((1.05, 3.0, 6.0, 0.4, 0.3)))


def rd_from(values):
    return None if values is None else production.RdDeterminants(*values)


class TestClosedForm:
    # a failed back-out of L* or K* names the factor it inverted
    FACTORS = ["A", "B"]

    @given(st.tuples(*[FLOATS] * 7), RD_VALUES)
    @SETTINGS
    def test_revenue_max(self, args, rd):
        holds(["m", "w1", "w2", "R", "I", "alpha", "beta"] + RD + self.FACTORS,
              lambda: closed_form.revenue_max(*args, rd=rd_from(rd)))

    @given(st.tuples(*[FLOATS] * 7), RD_VALUES)
    @SETTINGS
    def test_cost_min(self, args, rd):
        holds(["y_tar", "w1", "w2", "R", "I", "alpha", "beta"] + RD + self.FACTORS,
              lambda: closed_form.cost_min(*args, rd=rd_from(rd)))

    @given(st.tuples(*[FLOATS] * 7), RD_VALUES)
    @SETTINGS
    def test_profit_max(self, args, rd):
        holds(["w1", "w2", "R", "I", "alpha", "beta", "P"] + RD + self.FACTORS,
              lambda: closed_form.profit_max(*args, rd=rd_from(rd)))


class TestFrontier:
    @given(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS)
    @example(math.inf, 0.5, 0.5, 1.0, 1.0, 0.0, 0.0)
    @SETTINGS
    def test_frontier_output(self, K, alpha, beta, S, I, v, u):
        holds(["K", "alpha", "beta", "S", "I", "v", "u"], frontier.frontier_output,
              K, alpha, beta, S, I, v, u)

    @given(FLOATS)
    @SETTINGS
    def test_technical_efficiency(self, u):
        holds(["u"], frontier.technical_efficiency, u)

    @given(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS)
    @example(2.0, math.nan, 2.0, 3.0, 0.0, 0.0, 1.0)
    @SETTINGS
    def test_elasticities_from_frontier(self, y, K, S, I, v, u, n):
        holds(["y", "K", "S", "I", "v", "u", "n"],
              frontier.elasticities_from_frontier, y, K, S, I, v, u, n)

    @given(FLOATS, FLOATS)
    @example(math.inf, 0.0)
    @SETTINGS
    def test_draw_shocks(self, sigma_v, sigma_u):
        holds(["sigma_v", "sigma_u"], frontier.draw_shocks, random.Random(1), sigma_v, sigma_u)

    @given(st.tuples(*[FLOATS] * 7), st.one_of(st.integers(-2, 3), st.sampled_from([1.0, 2.5])))
    @example((0.0, 0.5, 0.5, 2.0, 3.0, 0.1, 0.1), 0)
    @example((0.0, 0.5, 0.5, 2.0, 3.0, 0.1, 0.1), -2)
    @SETTINGS
    def test_synthesize(self, args, count):
        holds(["K", "alpha", "beta", "S", "I", "sigma_v", "sigma_u", "v", "u", "count"],
              lambda: list(frontier.synthesize(*args, count, random.Random(3))))

    @pytest.mark.parametrize("count", [0, -2, 2.0])
    def test_synthesize_rejects_a_count_that_is_not_a_positive_integer(self, count):
        with pytest.raises(ParameterError, match=f"^count must be an integer of at least 1, "
                                                 f"got {count}$"):
            list(frontier.synthesize(0.0, 0.5, 0.5, 2.0, 3.0, 0.1, 0.1, count, random.Random(3)))


class TestConcentration:
    @given(FLOATS)
    @SETTINGS
    def test_share_entry(self, share):
        holds(["share"], concentration.ShareEntry, "f", share)

    @given(st.lists(FLOATS, max_size=4))
    @SETTINGS
    def test_hhi(self, shares):
        holds(["share", "shares"],
              lambda: concentration.hhi(concentration.MarketShares.from_shares(shares)))

    @given(FLOATS)
    @SETTINGS
    def test_classify_hhi(self, value):
        holds(["index"], concentration.classify_hhi, value)


CONFIG = ["learning_rate", "init_alpha", "init_beta", "max_iters", "cap"]
MAX_ITERS = st.one_of(st.integers(-1, 50), st.sampled_from([1.5, 2.0, math.nan]))


def config_from(values, mode, record):
    learning_rate, init_alpha, init_beta, max_iters, cap = values
    return optimizers.OptimizerConfig(learning_rate=learning_rate, init_alpha=init_alpha,
                                      init_beta=init_beta, max_iters=max_iters, cap=cap,
                                      mode=mode, record_trajectory=record)


CONFIG_VALUES = st.tuples(FLOATS, MAYBE, MAYBE, MAX_ITERS, FLOATS)
MODES = st.sampled_from(["marginal", "analytic"])


class TestOptimizers:
    @given(CONFIG_VALUES)
    @example((0.01, None, None, 1.5, 1.8))
    @SETTINGS
    def test_config(self, values):
        holds(CONFIG, lambda: config_from(values, "marginal", True).resolved())

    @given(st.one_of(st.none(), FLOATS, st.integers(), st.integers(-10 ** 400, 10 ** 400),
                     st.text(max_size=3), st.lists(st.integers(), max_size=2)))
    @SETTINGS
    def test_config_seed(self, seed):
        holds(["seed"], lambda: optimizers.OptimizerConfig(seed=seed).resolved())

    @pytest.mark.parametrize("runner", [optimizers.sgd_cost_min, optimizers.sga_revenue_max])
    @given(FLOATS, FLOATS, CONFIG_VALUES, MODES, st.booleans())
    @SETTINGS
    def test_runner(self, runner, L, K, values, mode, record):
        holds(["server_cost", "power_cooling_cost", "alpha", "beta"] + CONFIG,
              lambda: reports.run_year(runner, production.CostRecord(2000, L, K),
                                       config_from(values, mode, record), "run"))

    @given(FLOATS, FLOATS, FLOATS)
    @example(1e308, -1e308, 0.0)
    @SETTINGS
    def test_profit_row(self, revenue, cost, linear):
        holds(["max_rev", "min_cost", "min_cost_linear"], reports.profit_row,
              revenue, cost, linear)

    @given(FLOATS, FLOATS, FLOATS, FLOATS, CONFIG_VALUES)
    @SETTINGS
    def test_profit_table(self, L, K, w1, w2, values):
        holds(["server_cost", "power_cooling_cost", "w1", "w2", "L", "K"] + CONFIG,
              lambda: reports.profit_table([production.CostRecord(2000, L, K)],
                                           config_from(values, "marginal", False),
                                           {2000: (w1, w2)}))


ROWS = st.lists(FLOATS, min_size=4, max_size=4)
MATRIX = st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=3, max_size=3)
FIT = st.tuples(*[FLOATS] * 5)


# a design of 1-4 columns: DesignMatrix takes 2 (no intercept) or 3 (intercept)
DESIGNS = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(FLOATS, min_size=width, max_size=width),
                           min_size=4, max_size=4))
# a scalar, a 0-d array, a flat row, a nested row and a str: none is a matrix
NOT_MATRICES = [1.0, np.array(1.0), [1.0, 0.0], [[[1.0, 0.0]], [[0.0, 1.0]]], "10"]
# a scalar, a 0-d array, nested rows and a str: none is a sequence of numbers
NOT_VECTORS = [1.0, np.array(1.0), [[1.0], [0.0]], "10"]


class TestFitting:
    @given(DESIGNS, ROWS)
    @SETTINGS
    def test_design_matrix(self, matrix, outputs):
        if len(matrix[0]) in (2, 3):
            holds(["matrix", "outputs"], fitting.DesignMatrix, matrix, outputs)
        else:
            with pytest.raises(ParameterError, match="^design matrix "):
                fitting.DesignMatrix(matrix, outputs)

    @pytest.mark.parametrize("name, value", [
        *[("design matrix", value) for value in NOT_MATRICES],
        *[("design outputs", value) for value in NOT_VECTORS],
    ])
    def test_design_matrix_rejects_a_misshaped_argument(self, name, value):
        args = {"design matrix": [[1.0, 2.0, 3.0]] * 2, "design outputs": [1.0, 2.0]}
        args[name] = value
        with pytest.raises(ParameterError, match=f"^{name} "):
            fitting.DesignMatrix(*args.values())

    @pytest.mark.parametrize("scale", ["log_scale", "raw_scale"])
    @pytest.mark.parametrize("name, value", [(name, value) for name in ("x1", "x2", "y")
                                             for value in NOT_VECTORS])
    def test_design_scales_reject_a_misshaped_column(self, scale, name, value):
        columns = {"x1": [1.0, 2.0, 3.0, 4.0], "x2": [2.0, 1.0, 5.0, 3.0],
                   "y": [3.0, 2.0, 6.0, 5.0], name: value}
        with pytest.raises(ParameterError, match=f"^{name} "):
            getattr(fitting.DesignMatrix, scale)(**columns)

    @pytest.mark.parametrize("name, value", [
        *[(name, value) for name in ("H", "C", "C_eq") for value in NOT_MATRICES],
        *[(name, value) for name in ("f", "b", "b_eq") for value in NOT_VECTORS],
    ])
    def test_quadratic_program_rejects_a_misshaped_argument(self, name, value):
        args = {"H": [[1.0, 0.0], [0.0, 1.0]], "f": [0.0, 0.0], "C": [[1.0, 0.0]], "b": [1.0],
                "C_eq": [[0.0, 1.0]], "b_eq": [0.0], name: value}
        with pytest.raises(ParameterError, match=f"^QP {name} "):
            fitting.QuadraticProgram(**args)

    @pytest.mark.parametrize("value", NOT_VECTORS)
    def test_certificates_reject_a_misshaped_point(self, value):
        qp = fitting.QuadraticProgram(H=[[1.0, 0.0], [0.0, 1.0]], f=[0.0, 0.0], C=[[1.0, 0.0]],
                                      b=[1.0])
        for call in (lambda: fitting.certify_solution(qp, value), lambda: qp.objective(value),
                     lambda: fitting.kkt_certificate(qp, value, [0.0]),
                     lambda: fitting.kkt_certificate(qp, [0.0, 0.0], value)):
            with pytest.raises(ParameterError, match="^(x|lam) "):
                call()

    @pytest.mark.parametrize("scale", ["log_scale", "raw_scale"])
    @given(ROWS, ROWS, ROWS, st.booleans())
    @example([1.0, 2.0, 3.0, math.nan], [1.0, 4.0, 2.0, 3.0], [2.0, 1.0, 5.0, 3.0], True)
    @SETTINGS
    def test_ols_fit(self, scale, x1, x2, y, intercept):
        holds(["x1", "x2", "y", "matrix", "outputs"],
              lambda: fitting.ols_fit(getattr(fitting.DesignMatrix, scale)(x1, x2, y, intercept)))

    @given(ROWS, ROWS, ROWS, MATRIX, st.lists(FLOATS, min_size=3, max_size=3))
    @SETTINGS
    def test_qp_fit(self, x1, x2, y, C, b):
        holds(["x1", "x2", "y", "matrix", "outputs", "C", "b", "H", "f"],
              lambda: fitting.qp_fit(fitting.DesignMatrix.raw_scale(x1, x2, y), (C, b)))

    @given(MATRIX, st.lists(FLOATS, min_size=3, max_size=3), MATRIX,
           st.lists(FLOATS, min_size=3, max_size=3), st.lists(FLOATS, min_size=3, max_size=3))
    @SETTINGS
    def test_qp_solve_and_certificates(self, M, f, C, b, x):
        def call():
            qp = fitting.QuadraticProgram(H=np.array(M) + np.array(M).T, f=f, C=C, b=b)
            return (fitting.kkt_certificate(qp, np.array(x), np.zeros(3)),
                    fitting.certify_solution(qp, x), fitting.qp_solve(qp))
        holds(["H", "f", "C", "b", "x"], call)

    @given(FIT)
    @SETTINGS
    def test_fit_result(self, values):
        holds(["intercept", "alpha", "beta", "r_squared", "residual_norm"],
              fitting.FitResult, *values)

    @given(FIT, ROWS, ROWS, ROWS)
    @SETTINGS
    def test_r_squared(self, values, x1, x2, y):
        holds(["x1", "x2", "y", "matrix", "outputs", "alpha", "beta"],
              lambda: fitting.r_squared(fitting.FitResult(*values),
                                        fitting.DesignMatrix.raw_scale(x1, x2, y)))

    @pytest.mark.parametrize("scale", ["log_linear", "raw_linear"])
    @given(FIT, FLOATS, FLOATS)
    @example((0.8, 0.9, 0.6, 0.9, 0.1), math.nan, 1.0)
    @SETTINGS
    def test_predict(self, scale, values, S, P):
        holds(["S", "P", "intercept", "alpha", "beta"],
              lambda: fitting.predict(fitting.FitResult(*values), S, P, scale))


@pytest.mark.parametrize("call, error, message", [
    (lambda: production.evaluate_output(math.inf, 0.5, 0.5, 2, 3),
     ParameterError, "P must be finite, got inf"),
    (lambda: frontier.frontier_output(math.inf, 0.5, 0.5, 1, 1),
     DomainError, "K must be finite, got inf"),
    (lambda: frontier.elasticities_from_frontier(2, math.nan, 2, 3),
     DomainError, "K must be finite, got nan"),
    (lambda: frontier.draw_shocks(random.Random(1), math.inf, 0),
     DomainError, "sigma_v must be finite, got inf"),
    (lambda: production.harrod_progress(1, math.inf, 1, 0.5),
     DomainError, "L_star must be finite, got inf"),
    (lambda: optimizers.OptimizerConfig(max_iters=1.5),
     ParameterError, "max_iters must be an integer of at least 1, got 1.5"),
    (lambda: optimizers.OptimizerConfig(max_iters=True),
     ParameterError, "max_iters must be an integer of at least 1, got True"),
    (lambda: optimizers.OptimizerConfig(seed=None),
     ParameterError, "seed must be an integer, got None"),
    (lambda: optimizers.OptimizerConfig(seed=False),
     ParameterError, "seed must be an integer, got False"),
    (lambda: list(frontier.synthesize(0.0, 0.5, 0.5, 2.0, 3.0, 0.1, 0.1, True,
                                      random.Random(3))),
     ParameterError, "count must be an integer of at least 1, got True"),
    (lambda: production.returns_to_scale(0.5, 0.5, tol=math.nan),
     ParameterError, "tol must be non-negative, got nan"),
    (lambda: fitting.DesignMatrix.raw_scale([1, 2, math.nan, 4], [1, 3, 2, 5], [1, 2, 3, 4]),
     ParameterError, "design matrix has non-finite entries"),
    (lambda: fitting.DesignMatrix([[1, 2, 3]], [math.inf]),
     ParameterError, "design outputs has non-finite entries"),
    (lambda: fitting.DesignMatrix([[1.0], [2.0], [3.0]], [1.0, 2.0, 4.0]),
     ParameterError, r"design matrix must have 2 columns \(no intercept\) or 3 \(intercept\), "
                     "got 1"),
    (lambda: fitting.DesignMatrix([[1, 2, 3, 4]] * 5, [1, 2, 4, 3, 5]),
     ParameterError, r"design matrix must have 2 columns \(no intercept\) or 3 \(intercept\), "
                     "got 4"),
    (lambda: fitting.predict(fitting.FitResult(0.8, 0.9, 0.6, 0.9, 0.1), math.nan, 1.0),
     DomainError, "S must be strictly positive, got nan"),
    (lambda: production.evaluate_augmented(1e300, 1.0, 0.5, 0.5, 1e300, 1.0),
     DomainError, r"A\*R must be finite, got inf"),
    (lambda: production.evaluate_augmented(1.0, 1e-300, 0.5, 0.5, 1.0, 1e-300),
     DomainError, r"B\*I must be strictly positive, got 0.0"),
], ids=["params-P", "spec-K", "recovery-K", "shocks-sigma-v", "progress-L-star", "max-iters",
        "max-iters-bool", "seed", "seed-bool", "synthesize-count-bool", "scale-tol",
        "design-matrix", "design-outputs", "design-width-1", "design-width-4", "predict-S",
        "augmented-A-R", "augmented-B-I"])
def test_rejection_names_the_argument(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_non_finite_design_never_reaches_lapack(capfd):
    with pytest.raises(ParameterError):
        fitting.ols_fit(fitting.DesignMatrix.raw_scale([1, 2, 3, 4], [1, 3, 2, math.inf],
                                                       [1, 2, 3, 4]))
    assert capfd.readouterr().err == ""
