import errno
import json
import math
import os
import random
import re
import signal
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from dcecon import optimizers
from dcecon.cli import main
from dcecon.errors import DataValidationError, NumericalOverflowError, ParameterError
from dcecon.optimizers import (
    SETTLE_FORK_STEPS,
    OptimizerConfig,
    OptimResult,
    Termination,
    sga_revenue_max,
    sgd_cost_min,
)
from dcecon.production import CostRecord, evaluate_output
from dcecon.reports import profit_table
from test_reports import assert_no_children, forks, use_cpus  # noqa: F401 (forks is a fixture)

# frozen terminal values from a reference run of the documented configs below
GOLDEN_SGD_CONFIG = dict(learning_rate=0.01, init_alpha=0.5, init_beta=0.5,
                         max_iters=10_000, mode="marginal")
GOLDEN_SGD = dict(alpha=0.02339322514121684, beta=0.02339322514121684,
                  objective=1.1448828583650097, iterations=10_000,
                  terminated_by=Termination.MAX_ITERS)

GOLDEN_SGA_CONFIG = dict(learning_rate=0.01, seed=0, max_iters=100_000, mode="marginal")
GOLDEN_SGA = dict(alpha=0.9382287511943347, beta=0.8229790378232296,
                  objective=188.87092020317232, iterations=5,
                  terminated_by=Termination.CAP_REACHED)

RECORD_1997 = CostRecord(1997, 65.0, 5.0)
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def rel_err(value, expected):
    return abs(value - expected) / abs(expected)


def objectives(result):
    return [obj for _, _, obj in result.trajectory]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            OptimizerConfig(cap=-1.0)
        with pytest.raises(ParameterError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ParameterError):
            OptimizerConfig(mode="newton")
        with pytest.raises(ParameterError):
            OptimizerConfig(init_alpha=-0.5)
        for name in ("learning_rate", "cap", "init_alpha", "init_beta"):
            with pytest.raises(ParameterError, match=f"^{name} must be strictly positive, got nan$"):
                OptimizerConfig(**{name: math.nan})
            with pytest.raises(ParameterError, match=f"^{name} must be finite, got inf$"):
                OptimizerConfig(**{name: math.inf})

    @pytest.mark.parametrize("max_iters", [1.5, 2.0, math.nan, 0])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ParameterError,
                           match=f"^max_iters must be an integer of at least 1, got {max_iters}$"):
            OptimizerConfig(max_iters=max_iters)

    @pytest.mark.parametrize("seed", [None, [1], 1.5, "7", math.nan])
    def test_seed_must_be_an_integer(self, seed):
        # seed=None would draw a new start on each call, seeded from the OS
        with pytest.raises(ParameterError,
                           match=f"^{re.escape(f'seed must be an integer, got {seed}')}$"):
            OptimizerConfig(seed=seed)

    def test_seed_beyond_the_float_range_is_an_integer(self):
        config = OptimizerConfig(seed=-10 ** 400)
        assert config.initial_point() == config.initial_point()

    def test_seed_zero_initial_point_is_stable(self):
        assert OptimizerConfig(seed=0).initial_point() == (
            0.8444218515250481, 0.7579544029403025)

    def test_trajectory_is_recorded_only_on_request(self):
        assert OptimizerConfig().record_trajectory is False

    def test_resolved_pins_initialization(self):
        resolved = OptimizerConfig(seed=123).resolved()
        assert resolved.init_alpha is not None and resolved.init_beta is not None
        assert resolved.initial_point() == OptimizerConfig(seed=123).initial_point()


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["marginal", "analytic"])
    def test_identical_configs_give_identical_trajectories(self, mode):
        config = OptimizerConfig(learning_rate=0.02, seed=99, max_iters=400, mode=mode,
                                 record_trajectory=True)
        first = sgd_cost_min(RECORD_1997, config)
        second = sgd_cost_min(RECORD_1997, config)
        assert first.trajectory == second.trajectory
        assert (first.alpha, first.beta, first.objective) == (
            second.alpha, second.beta, second.objective)

    def test_ascent_deterministic_too(self):
        config = OptimizerConfig(learning_rate=0.005, seed=4, max_iters=100_000,
                                 record_trajectory=True)
        first = sga_revenue_max(RECORD_1997, config)
        second = sga_revenue_max(RECORD_1997, config)
        assert first.trajectory == second.trajectory


class TestDescent:
    def test_golden_terminal_values(self):
        result = sgd_cost_min(RECORD_1997, OptimizerConfig(**GOLDEN_SGD_CONFIG))
        assert rel_err(result.alpha, GOLDEN_SGD["alpha"]) <= 1e-12
        assert rel_err(result.beta, GOLDEN_SGD["beta"]) <= 1e-12
        assert rel_err(result.objective, GOLDEN_SGD["objective"]) <= 1e-12
        assert result.iterations == GOLDEN_SGD["iterations"]
        assert result.terminated_by is GOLDEN_SGD["terminated_by"]

    @pytest.mark.parametrize("mode", ["marginal", "analytic"])
    def test_objective_strictly_decreasing(self, mode):
        rng = random.Random(71)
        for _ in range(50):
            record = CostRecord(2000, rng.uniform(1.5, 90), rng.uniform(1.5, 90))
            config = OptimizerConfig(
                learning_rate=rng.uniform(0.001, 0.05),
                init_alpha=rng.uniform(0.05, 0.9),
                init_beta=rng.uniform(0.05, 0.9),
                max_iters=300,
                mode=mode,
                record_trajectory=True,
            )
            seq = objectives(sgd_cost_min(record, config))
            assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_terminal_iterate_stays_positive(self):
        rng = random.Random(73)
        for _ in range(50):
            record = CostRecord(2000, rng.uniform(1.5, 90), rng.uniform(1.5, 90))
            config = OptimizerConfig(learning_rate=rng.uniform(0.001, 0.2),
                                     seed=rng.randrange(10_000), max_iters=500,
                                     mode=rng.choice(["marginal", "analytic"]))
            result = sgd_cost_min(record, config)
            assert result.alpha > 0 and result.beta > 0

    def test_terminal_objective_matches_direct_evaluation(self):
        result = sgd_cost_min(RECORD_1997, OptimizerConfig(seed=5, max_iters=200))
        direct = evaluate_output(1.0, result.alpha, result.beta, 65.0, 5.0)
        assert result.objective == direct

    def test_violating_candidate_discarded(self):
        # one huge step drives alpha nonpositive; the initial point is reported
        config = OptimizerConfig(learning_rate=100.0, init_alpha=0.5, init_beta=0.5,
                                 max_iters=50, mode="analytic", record_trajectory=True)
        result = sgd_cost_min(RECORD_1997, config)
        assert result.terminated_by is Termination.BOUNDARY_ALPHA
        assert result.iterations == 0
        assert (result.alpha, result.beta) == (0.5, 0.5)
        assert result.trajectory[-1][:2] == (0.5, 0.5)

    def test_analytic_mode_reaches_boundary(self):
        config = OptimizerConfig(learning_rate=0.01, init_alpha=0.4, init_beta=0.4,
                                 max_iters=1_000_000, mode="analytic")
        result = sgd_cost_min(RECORD_1997, config)
        assert result.terminated_by in (Termination.BOUNDARY_ALPHA, Termination.BOUNDARY_BETA)
        assert result.iterations < 1_000_000

    def test_max_iters_is_flagged_not_raised(self):
        config = OptimizerConfig(learning_rate=1e-6, init_alpha=0.5, init_beta=0.5,
                                 max_iters=10)
        result = sgd_cost_min(RECORD_1997, config)
        assert result.terminated_by is Termination.MAX_ITERS
        assert result.iterations == 10

    def test_trajectory_recording_can_be_disabled(self):
        config = OptimizerConfig(init_alpha=0.5, init_beta=0.5, max_iters=50,
                                 record_trajectory=False)
        result = sgd_cost_min(RECORD_1997, config)
        assert result.trajectory == []


class TestAscent:
    def test_golden_terminal_values(self):
        result = sga_revenue_max(RECORD_1997, OptimizerConfig(**GOLDEN_SGA_CONFIG))
        assert rel_err(result.alpha, GOLDEN_SGA["alpha"]) <= 1e-12
        assert rel_err(result.beta, GOLDEN_SGA["beta"]) <= 1e-12
        assert rel_err(result.objective, GOLDEN_SGA["objective"]) <= 1e-12
        assert result.iterations == GOLDEN_SGA["iterations"]
        assert result.terminated_by is GOLDEN_SGA["terminated_by"]

    def test_objective_strictly_increasing(self):
        rng = random.Random(79)
        for _ in range(50):
            record = CostRecord(2000, rng.uniform(1.5, 90), rng.uniform(1.5, 90))
            config = OptimizerConfig(
                learning_rate=rng.uniform(0.001, 0.05),
                init_alpha=rng.uniform(0.05, 0.8),
                init_beta=rng.uniform(0.05, 0.8),
                max_iters=200_000,
                record_trajectory=True,
            )
            seq = objectives(sga_revenue_max(record, config))
            assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_cap_reached_within_one_step(self):
        rng = random.Random(83)
        for _ in range(50):
            L, K = rng.uniform(1.5, 80), rng.uniform(1.5, 80)
            record = CostRecord(2000, L, K)
            config = OptimizerConfig(
                learning_rate=rng.uniform(0.005, 0.05),
                init_alpha=rng.uniform(0.05, 0.8),
                init_beta=rng.uniform(0.05, 0.8),
                max_iters=500_000,
            )
            result = sga_revenue_max(record, config)
            assert result.terminated_by is Termination.CAP_REACHED
            total = result.alpha + result.beta
            assert total < config.cap
            # the rejected candidate (one more step from the terminal) crosses the cap
            g_alpha = result.alpha * L ** (result.alpha - 1) * K ** result.beta
            g_beta = result.beta * L ** (result.beta - 1) * K ** result.alpha
            assert total + config.learning_rate * (g_alpha + g_beta) >= config.cap

    def test_custom_cap_respected(self):
        config = OptimizerConfig(init_alpha=0.2, init_beta=0.2, cap=1.2, max_iters=500_000)
        result = sga_revenue_max(RECORD_1997, config)
        assert result.terminated_by is Termination.CAP_REACHED
        assert result.alpha + result.beta < 1.2

    def test_initial_point_must_satisfy_cap(self):
        config = OptimizerConfig(init_alpha=1.0, init_beta=0.9)
        with pytest.raises(ParameterError):
            sga_revenue_max(RECORD_1997, config)

    def test_overflow_is_numerical_overflow_error(self):
        config = OptimizerConfig(init_alpha=0.6, init_beta=0.6)
        with pytest.raises(NumericalOverflowError, match="^math range error$"):
            sga_revenue_max(CostRecord(2000, 1e300, 1e300), config)


class TestProfitTable:
    def test_rows_are_consistent_differences(self):
        records = [CostRecord(1997, 65, 5), CostRecord(2002, 45, 15)]
        weights = {1997: (0.0150, 0.6550), 2002: (0.0150, 0.5050)}
        config = OptimizerConfig(seed=0, max_iters=3000, record_trajectory=False)
        rows = profit_table(records, config, weights)
        assert sorted(rows) == [1997, 2002]
        for year, row in rows.items():
            assert row["profit_cd"] == pytest.approx(
                row["max_rev_cd"] - row["min_cost_cd"])
            assert row["profit_linear"] == pytest.approx(
                row["max_rev_cd"] - row["min_cost_linear"])

    def test_equal_revenue_and_cost_give_zero_profit(self):
        record = CostRecord(2000, 30.0, 20.0)
        config = OptimizerConfig(seed=1, max_iters=3000, record_trajectory=False)
        revenue = sga_revenue_max(record, config).objective
        # weights chosen so the linear cost equals the ascent revenue exactly
        rows = profit_table([record], config, {2000: (revenue / 30.0, 0.0)})
        assert rows[2000]["profit_linear"] == pytest.approx(0.0, abs=1e-9)

    def test_missing_weights_rejected(self):
        with pytest.raises(DataValidationError):
            profit_table([RECORD_1997], OptimizerConfig(max_iters=10), {})

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            profit_table([], OptimizerConfig(), {})


# The kernel before its steady-phase loop, kept verbatim as the reference the
# current kernel must match bit for bit.
def _oracle_gradients(mode, alpha: float, beta: float,
                      log_L: float, log_K: float):
    if mode == "marginal":
        g_alpha = alpha * math.exp((alpha - 1.0) * log_L + beta * log_K)
        g_beta = beta * math.exp((beta - 1.0) * log_L + alpha * log_K)
    else:
        value = math.exp(alpha * log_L + beta * log_K)
        g_alpha = log_L * value
        g_beta = log_K * value
    return g_alpha, g_beta


def _oracle_run(record: CostRecord, config: OptimizerConfig, direction: float,
                cap) -> OptimResult:
    L, K = record.server_cost, record.power_cooling_cost
    log_L, log_K = math.log(L), math.log(K)
    alpha, beta = config.initial_point()
    if cap is not None and alpha + beta >= cap:
        raise ParameterError(
            f"initial alpha + beta = {alpha + beta} already violates the cap {cap}"
        )

    # trajectory points use the inline form of evaluate_output (ln P = 0), bit for bit
    trajectory = []
    if config.record_trajectory:
        trajectory.append((alpha, beta, math.exp(alpha * log_L + beta * log_K)))

    terminated_by = Termination.MAX_ITERS
    iterations = 0
    for _ in range(config.max_iters):
        g_alpha, g_beta = _oracle_gradients(config.mode, alpha, beta, log_L, log_K)
        next_alpha = alpha + direction * config.learning_rate * g_alpha
        next_beta = beta + direction * config.learning_rate * g_beta
        if next_alpha <= 0:
            terminated_by = Termination.BOUNDARY_ALPHA
            break
        if next_beta <= 0:
            terminated_by = Termination.BOUNDARY_BETA
            break
        if cap is not None and next_alpha + next_beta >= cap:
            terminated_by = Termination.CAP_REACHED
            break
        alpha, beta = next_alpha, next_beta
        iterations += 1
        if config.record_trajectory:
            trajectory.append((alpha, beta, math.exp(alpha * log_L + beta * log_K)))

    objective = evaluate_output(1.0, alpha, beta, L, K)
    return OptimResult(alpha=alpha, beta=beta, objective=objective,
                       iterations=iterations, trajectory=trajectory,
                       terminated_by=terminated_by)


def _outcome(run, *args):
    """A run's result with every float as float.hex, or the exception it raised."""
    try:
        result = run(*args)
    except Exception as exc:
        return exc
    return (result.alpha.hex(), result.beta.hex(), result.objective.hex(),
            result.iterations, result.terminated_by,
            [tuple(value.hex() for value in point) for point in result.trajectory])


def assert_kernel_matches_oracle(record: CostRecord, config: OptimizerConfig) -> None:
    for run, direction, cap in ((sgd_cost_min, -1.0, None),
                                (sga_revenue_max, 1.0, config.cap)):
        expected = _outcome(_oracle_run, record, config, direction, cap)
        actual = _outcome(run, record, config)
        if isinstance(expected, Exception):
            assert isinstance(actual, type(expected)), (record, config, run, actual)
            assert str(actual) == str(expected)
        else:
            assert actual == expected, (record, config, run)


def random_kernel_cases(count: int):
    rng = random.Random(97)
    for _ in range(count):
        L = rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 90.0), 1.0])
        K = rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 90.0), 1.0, L])
        config = OptimizerConfig(learning_rate=rng.choice([0.01, rng.uniform(0.001, 0.4)]),
                                 seed=rng.randrange(10_000),
                                 max_iters=rng.choice([500, 4000]),
                                 mode=rng.choice(["marginal", "marginal", "analytic"]),
                                 record_trajectory=rng.random() < 0.5)
        yield CostRecord(2000, L, K), config


# records and configs at the kernel's edges; the untraced steady phases among them take
# _settle_pair, which forks where SETTLE_FORK_STEPS allows
EDGE_CASES = [
    # L in [5, 6]: the descent reaches the subnormal fixed point (1.34e-321) within 1M steps
    (CostRecord(2000, 5.5, 3.0), OptimizerConfig(seed=5, record_trajectory=False)),
    # L < 1 with a trajectory: the fixed point (5e-324) within a few thousand steps
    (CostRecord(2000, 0.7, 0.4), OptimizerConfig(learning_rate=0.3, seed=4, max_iters=5000,
                                                 record_trajectory=True)),
    # ln L = 0: the exp arguments reach -ln L only once beta * ln K underflows
    (CostRecord(2000, 1.0, 7.0), OptimizerConfig(seed=3, max_iters=100_000,
                                                 record_trajectory=False)),
    (CostRecord(2000, 1.0, 1.0), OptimizerConfig(seed=3, max_iters=20_000,
                                                 record_trajectory=True)),
    # alpha ln L = -beta ln K: both exp arguments round to -ln L at the start, long
    # before alpha - 1.0 rounds to -1.0, and stop doing so a few steps later
    (CostRecord(2000, 8.936146760190548, 0.11190505559452972),
     OptimizerConfig(learning_rate=0.19721992695321505, init_alpha=0.16049072518625881,
                     init_beta=0.1604907251862588, max_iters=3000,
                     record_trajectory=True)),
    # an ascent from tiny elasticities starts where a descent's steady phase would
    (CostRecord(2000, 0.5, 0.5), OptimizerConfig(learning_rate=0.3, init_alpha=1e-200,
                                                 init_beta=1e-200, max_iters=3000,
                                                 record_trajectory=True)),
    # exp overflows in the ascent's trajectory point
    (CostRecord(2000, 1e300, 1e300), OptimizerConfig(init_alpha=0.6, init_beta=0.6,
                                                     record_trajectory=True)),
    # untraced steady phases: learning_rate * exp(-ln L) just below 0.25 runs alpha
    # and beta apart to their subnormal fixed points; just above it, alpha reaches 0
    (CostRecord(2000, 2.0001, 3.0), OptimizerConfig(learning_rate=0.5, seed=1,
                                                    max_iters=5000, record_trajectory=False)),
    (CostRecord(2000, 1.9999, 3.0), OptimizerConfig(learning_rate=0.50001, seed=1,
                                                    max_iters=5000, record_trajectory=False)),
    # L < 1, so exp(-ln L) > 1, inside the bound
    (CostRecord(2000, 0.7, 0.4), OptimizerConfig(learning_rate=0.1, seed=2, max_iters=5000,
                                                 record_trajectory=False)),
    # traced steady phases stay in the plain loop, inside and outside the bound
    (CostRecord(2000, 6.9, 55.98), OptimizerConfig(seed=3, max_iters=80_000,
                                                   record_trajectory=True)),
    (CostRecord(2000, 1.9999, 3.0), OptimizerConfig(learning_rate=0.50001, seed=1,
                                                    max_iters=5000, record_trajectory=True)),
    # subnormal L: exp(-ln L) overflows, yet the first step already leaves the quadrant
    (CostRecord(2000, 1e-310, 1.0), OptimizerConfig(seed=2, max_iters=5000,
                                                    record_trajectory=False)),
]
EDGE_IDS = ["fixed-point-1M", "fixed-point-traced", "log-L-zero", "unit-costs",
            "coinciding-arguments", "tiny-ascent", "overflow", "steady-inside-bound",
            "steady-outside-bound", "steady-L-below-1", "steady-traced",
            "steady-traced-outside-bound", "subnormal-L"]


class TestKernelMatchesOracle:
    def test_seeded_records_both_modes(self):
        for record, config in random_kernel_cases(60):
            assert_kernel_matches_oracle(record, config)

    @pytest.mark.parametrize("record, config", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_records(self, record, config):
        assert_kernel_matches_oracle(record, config)

    def test_fixed_point_records_reach_it(self):
        untraced = sgd_cost_min(CostRecord(2000, 5.5, 3.0),
                                OptimizerConfig(seed=5, record_trajectory=False))
        assert 0 < untraced.alpha < 1e-320 and untraced.iterations == 1_000_000
        traced = sgd_cost_min(CostRecord(2000, 0.7, 0.4),
                              OptimizerConfig(learning_rate=0.3, seed=4, max_iters=5000,
                                              record_trajectory=True))
        assert traced.trajectory[-1000:] == [traced.trajectory[-1]] * 1000

    def test_steady_bound_records_end_as_described(self):
        inside = sgd_cost_min(CostRecord(2000, 2.0001, 3.0),
                              OptimizerConfig(learning_rate=0.5, seed=1, max_iters=5000,
                                              record_trajectory=False))
        assert inside.terminated_by is Termination.MAX_ITERS and 0 < inside.alpha < 1e-320
        outside = sgd_cost_min(CostRecord(2000, 1.9999, 3.0),
                               OptimizerConfig(learning_rate=0.50001, seed=1, max_iters=5000,
                                               record_trajectory=False))
        assert outside.terminated_by is Termination.BOUNDARY_ALPHA
        assert outside.alpha == 5e-324 and outside.iterations < 5000


# default 1M-iteration descents of the kinds perfbench's compute-mix runs: two in the
# L 30-65 range, whose steady phases begin 109k and 220k iterations in, and one on the
# subnormal path (L in [5, 6]), whose steady phase begins 21k in
PAPER_SCALE_CASES = [(CostRecord(2000, L, K), OptimizerConfig(seed=seed))
                     for L, K, seed in ((30.9, 17.85, 66), (62.6, 27.95, 3913),
                                        (5.78, 51.55, 8753))]
PAPER_SCALE_IDS = ["L-30.9", "L-62.6", "L-5.78"]
# an untraced descent whose steady phase begins at iteration 260
EARLY_STEADY = (CostRecord(2000, 0.7, 0.4), OptimizerConfig(learning_rate=0.1, seed=2))
EARLY_STEADY_START = 260


def descent_outcome(record, config):
    """_outcome of the descent, with an exception as its class and message."""
    outcome = _outcome(sgd_cost_min, record, config)
    return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else outcome


def in_process_outcome(monkeypatch, record, config):
    """descent_outcome with both elasticities settled in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(optimizers, "SETTLE_FORK_STEPS", config.max_iters)
        return descent_outcome(record, config)


class TestForkedSteadyPhase:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        use_cpus(monkeypatch, 2)

    @pytest.mark.parametrize("record, config", EDGE_CASES + PAPER_SCALE_CASES,
                             ids=EDGE_IDS + PAPER_SCALE_IDS)
    def test_forked_and_in_process_agree_bit_for_bit(self, monkeypatch, forks, request,
                                                     record, config):
        expected = in_process_outcome(monkeypatch, record, config)
        assert forks == []
        # every steady phase forks, however short
        monkeypatch.setattr(optimizers, "SETTLE_FORK_STEPS", 0)
        assert descent_outcome(record, config) == expected
        steady = request.node.callspec.id in {"fixed-point-1M", "steady-inside-bound",
                                              "steady-L-below-1", *PAPER_SCALE_IDS}
        assert len(forks) == steady
        assert_no_children()

    @pytest.mark.parametrize("record, config", PAPER_SCALE_CASES, ids=PAPER_SCALE_IDS)
    def test_a_default_descent_forks_once(self, monkeypatch, forks, record, config):
        expected = in_process_outcome(monkeypatch, record, config)
        assert descent_outcome(record, config) == expected
        assert len(forks) == 1
        assert_no_children()

    def test_only_a_steady_phase_above_the_fork_steps_forks(self, monkeypatch, forks):
        record, config = EARLY_STEADY
        shortest = replace(config, max_iters=EARLY_STEADY_START + SETTLE_FORK_STEPS + 1)
        sgd_cost_min(record, shortest)
        assert len(forks) == 1
        sgd_cost_min(record, replace(shortest, max_iters=shortest.max_iters - 1))
        assert len(forks) == 1
        use_cpus(monkeypatch, 1)
        sgd_cost_min(record, shortest)
        assert len(forks) == 1
        assert_no_children()

    def test_traced_ascent_and_analytic_runs_never_fork(self, monkeypatch, forks):
        monkeypatch.setattr(optimizers, "SETTLE_FORK_STEPS", 0)
        record, config = EARLY_STEADY
        config = replace(config, max_iters=5000)
        sgd_cost_min(record, config)
        assert len(forks) == 1
        sgd_cost_min(record, replace(config, record_trajectory=True))
        sgd_cost_min(record, replace(config, mode="analytic"))
        sga_revenue_max(CostRecord(2000, 0.5, 0.5),
                        OptimizerConfig(learning_rate=0.3, init_alpha=1e-200,
                                        init_beta=1e-200, max_iters=3000))
        assert len(forks) == 1

    @pytest.mark.parametrize("failure", ["no-fork", "fork-raises", "pipe-raises",
                                         "child-exits-1", "child-killed"])
    def test_a_failed_fork_gives_the_same_bits(self, monkeypatch, forks, failure):
        record, config = PAPER_SCALE_CASES[0]
        expected = in_process_outcome(monkeypatch, record, config)
        parent = os.getpid()
        settle = optimizers._settle

        def dying(x, step, factor, count):
            if os.getpid() != parent:
                if failure == "child-killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("the child fails before its answer")
            return settle(x, step, factor, count)

        def refused(*args):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        if failure == "no-fork":  # as on Windows
            monkeypatch.delattr(os, "fork")
        elif failure == "fork-raises":
            monkeypatch.setattr(os, "fork", refused)
        elif failure == "pipe-raises":
            monkeypatch.setattr(os, "pipe", refused)
        else:
            monkeypatch.setattr(optimizers, "_settle", dying)
        assert descent_outcome(record, config) == expected
        assert len(forks) == failure.startswith("child")
        assert_no_children()

    def test_an_error_here_kills_and_reaps_the_child(self, monkeypatch, forks):
        parent = os.getpid()
        settle = optimizers._settle

        class Interrupted(Exception):
            pass

        def stalling(x, step, factor, count):
            if os.getpid() != parent:
                time.sleep(60)  # only a kill ends the child within the test
                return settle(x, step, factor, count)
            raise Interrupted
        monkeypatch.setattr(optimizers, "_settle", stalling)
        started = time.monotonic()
        with pytest.raises(Interrupted):
            sgd_cost_min(*PAPER_SCALE_CASES[0])
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert_no_children()

    def test_forked_cost_min_reports_no_warning(self, forks, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["cost-min", "--input", str(DATA_DIR / "tables.csv"), "--seed", "7"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["warnings"] == []
        assert len(forks) == 4  # one per year
        assert_no_children()
