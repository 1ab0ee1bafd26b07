"""Gradient iterations over the elasticities of c = L^alpha * K^beta.

Descent (cost minimization) subtracts the update terms, ascent (revenue
maximization) adds them. Two update modes:

* ``marginal`` -- the terms have the marginal-product form
  g_alpha = alpha * L^(alpha-1) * K^beta,  g_beta = beta * L^(beta-1) * K^alpha.
  This is the default and the rule behind the bundled reference tables.
* ``analytic`` -- the true gradient with respect to the exponents,
  g_alpha = ln(L) * L^alpha * K^beta,  g_beta = ln(K) * L^alpha * K^beta.

Descent continues while both elasticities stay positive; ascent additionally
requires alpha + beta to stay below the cap (default 1.8). A candidate step that
would violate a constraint is discarded and the previous iterate is reported.
Runs are deterministic given the config, including its seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from typing import List, Literal, Optional, Tuple, get_args

from .errors import ParameterError, check_domain, overflow_as_error
from .production import CostRecord, evaluate_output

GradientMode = Literal["marginal", "analytic"]

# unchecked steps between the fixed-point tests of the steady phase
STEADY_BLOCK = 1024
# The most steady-phase steps that alpha and beta settle in one process. Forking,
# piping one value and reaping a child costs about 2.5 ms and a steady step about
# 40 ns, so on a 2-vCPU x86-64 VM the child first wins at about 60,000 steps:
# settling both took 7.6 ms in one process and 7.1 ms forked at 64,000 steps,
# and 3.8 against 4.9 ms at 32,000.
SETTLE_FORK_STEPS = 1 << 16


class Termination(str, Enum):
    BOUNDARY_ALPHA = "boundary_alpha"
    BOUNDARY_BETA = "boundary_beta"
    CAP_REACHED = "cap_reached"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class OptimizerConfig:
    """Learning rate, initialization, stopping cap, and update mode for one run.

    When init_alpha/init_beta are absent the elasticities start uniform in (0, 1),
    drawn from a generator seeded with `seed`.
    """

    learning_rate: float = 0.01
    init_alpha: Optional[float] = None
    init_beta: Optional[float] = None
    seed: int = 0
    max_iters: int = 1_000_000
    cap: float = 1.8
    mode: GradientMode = "marginal"
    record_trajectory: bool = False

    def __post_init__(self):
        for name in ("learning_rate", "cap", "init_alpha", "init_beta"):
            value = getattr(self, name)
            if value is not None:
                check_domain(name, value, "positive", ParameterError)
        check_domain("max_iters", self.max_iters, "count", ParameterError)
        check_domain("seed", self.seed, "integer", ParameterError)
        if self.mode not in get_args(GradientMode):
            raise ParameterError(f"unknown gradient mode {self.mode!r}")

    def initial_point(self) -> Tuple[float, float]:
        """Resolve the starting elasticities (seed-driven when not fixed)."""
        rng = random.Random(self.seed)
        alpha = self.init_alpha if self.init_alpha is not None else _positive_uniform(rng)
        beta = self.init_beta if self.init_beta is not None else _positive_uniform(rng)
        return alpha, beta

    def resolved(self) -> "OptimizerConfig":
        """Copy with the initialization pinned to concrete values (for reporting)."""
        alpha, beta = self.initial_point()
        return replace(self, init_alpha=alpha, init_beta=beta)


def _positive_uniform(rng: random.Random) -> float:
    x = rng.random()
    while x == 0.0:
        x = rng.random()
    return x


@dataclass
class OptimResult:
    alpha: float
    beta: float
    objective: float
    iterations: int
    trajectory: List[Tuple[float, float, float]] = field(default_factory=list)
    terminated_by: Termination = Termination.MAX_ITERS


@overflow_as_error
def _run(record: CostRecord, config: OptimizerConfig, direction: float,
         cap: Optional[float]) -> OptimResult:
    """The update loop; every float operation is the documented update rule's.

    A marginal descent reaches a steady phase: once alpha - 1.0 and beta - 1.0
    round to -1.0 and both exp arguments round to -ln L, rounding is monotone and
    alpha, beta only shrink, so both arguments stay exactly -ln L and both exp
    calls return E = exp(-ln L). From there alpha and beta no longer interact:
    each follows x -> x + step * (x * E) on its own. When no trajectory is
    recorded and -step * E < 0.25, each is run to max_iters by _settle, without
    the boundary tests, because no step can reach 0; every other run stays in
    the loop. Proof: 0.25 is a float and rounding is monotone, so the exact
    s * E is below 0.25 too, where s = -step. Let x > 0 and p = fl(x * E); if
    p = 0 the step leaves x as it is. If p > 0, then p <= 2 * x * E: in the
    normal range the relative rounding error is below 2^-53, and in the
    subnormal range the absolute error is at most 2^-1075 while p >= 2^-1074.
    So s * p < x / 2, and fl(s * p) <= fl(x / 2) < x: the floats next to x / 2
    lie within 2^-1075 of it, so below x, except at x = 2^-1074, where x / 2 is
    a tie that rounds to the even 0. The new x is the rounded x - fl(s * p), a
    positive multiple of 2^-1074 (as x and fl(s * p) are), so it is a positive
    float.

    The two settles run at once, beta's in a forked child, where two CPUs are
    usable and more than SETTLE_FORK_STEPS steps remain (see _settle_pair); the
    result is the same bits either way.
    """
    L, K = record.server_cost, record.power_cooling_cost
    log_L, log_K = math.log(L), math.log(K)
    alpha, beta = config.initial_point()
    if cap is not None and alpha + beta >= cap:
        raise ParameterError(
            f"initial alpha + beta = {alpha + beta} already violates the cap {cap}"
        )

    exp = math.exp
    step = direction * config.learning_rate  # direction * lr * g is (direction * lr) * g
    max_iters = config.max_iters
    marginal = config.mode == "marginal"
    neg_log_L = -log_L
    recording = config.record_trajectory
    # exp(-ln L) overflows only for subnormal L; such runs keep to the plain loop
    E = exp(neg_log_L) if log_L > -709.0 else math.inf
    settle = marginal and direction < 0 and not recording and -step * E < 0.25
    # trajectory points use the inline form of evaluate_output (ln P = 0), bit for bit
    trajectory: List[Tuple[float, float, float]] = []
    append = trajectory.append
    if recording:
        append((alpha, beta, exp(alpha * log_L + beta * log_K)))

    terminated_by = Termination.MAX_ITERS
    iterations = 0
    for iterations in range(max_iters):
        if marginal:
            arg_alpha = (alpha - 1.0) * log_L + beta * log_K
            arg_beta = (beta - 1.0) * log_L + alpha * log_K
            if (settle and arg_alpha == neg_log_L and arg_beta == neg_log_L
                    and alpha - 1.0 == -1.0 and beta - 1.0 == -1.0):
                alpha, beta = _settle_pair(alpha, beta, step, E, max_iters - iterations)
                iterations = max_iters
                break
            next_alpha = alpha + step * (alpha * exp(arg_alpha))
            next_beta = beta + step * (beta * exp(arg_beta))
        else:
            value = exp(alpha * log_L + beta * log_K)
            next_alpha = alpha + step * (log_L * value)
            next_beta = beta + step * (log_K * value)
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
        if recording:
            append((alpha, beta, exp(alpha * log_L + beta * log_K)))
    else:
        iterations = max_iters

    objective = evaluate_output(1.0, alpha, beta, L, K)
    return OptimResult(alpha=alpha, beta=beta, objective=objective,
                       iterations=iterations, trajectory=trajectory,
                       terminated_by=terminated_by)


def _settle(x: float, step: float, factor: float, count: int) -> float:
    """x after count steps of x + step * (x * factor), cut short at a fixed point.

    The steps run unchecked in blocks of STEADY_BLOCK. The map is the same on
    every step, so once one more step leaves x unchanged, so do all later ones.
    """
    while count > 0:
        block = min(count, STEADY_BLOCK)
        for _ in repeat(None, block):
            x = x + step * (x * factor)
        count -= block
        if x + step * (x * factor) == x:
            break
    return x


def _settle_pair(alpha: float, beta: float, step: float, factor: float,
                 count: int) -> Tuple[float, float]:
    """(_settle(alpha, ...), _settle(beta, ...)), beta in a forked child where that pays.

    A child is forked only where usable_cpus() > 1 and count > SETTLE_FORK_STEPS.
    It writes beta.hex() to a pipe while this process settles alpha, and
    float.fromhex reads the same bits back. A pipe or fork that fails, or a child
    that does not exit 0 (which it does only once its whole answer is written),
    leaves beta to settle here: that changes the time taken, never the result.
    The child is reaped before this returns, and on an error here first killed.
    """
    forked = (_fork_settle(beta, step, factor, count)
              if count > SETTLE_FORK_STEPS and usable_cpus() > 1 else None)
    if forked is None:
        return _settle(alpha, step, factor, count), _settle(beta, step, factor, count)
    pid, read_fd = forked
    try:
        with open(read_fd, "rb") as pipe:
            alpha = _settle(alpha, step, factor, count)
            answer = pipe.read()
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status == 0:
        return alpha, float.fromhex(answer.decode())
    return alpha, _settle(beta, step, factor, count)


def _fork_settle(x: float, step: float, factor: float,
                 count: int) -> Optional[Tuple[int, int]]:
    """Fork a child that writes _settle(x, ...).hex() to a pipe and exits 0.

    Returns the child's pid and the pipe's read end, or None when the pipe or the
    fork fails. The child leaves by os._exit, with status 1 on any failure.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        # a write of at most PIPE_BUF bytes to a pipe is never partial
        os.write(write_fd, _settle(x, step, factor, count).hex().encode())
        status = 0
    finally:
        os._exit(status)


def usable_cpus() -> int:
    """The CPUs this process may run forked children on; 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def sgd_cost_min(record: CostRecord, config: OptimizerConfig) -> OptimResult:
    """Descend on the elasticities until one would leave the positive quadrant.

    Returns the last iterate with both elasticities positive and the cost
    c = L^alpha * K^beta evaluated there. Hitting max_iters is reported via
    terminated_by, not raised.
    """
    return _run(record, config, direction=-1.0, cap=None)


def sga_revenue_max(record: CostRecord, config: OptimizerConfig) -> OptimResult:
    """Ascend on the elasticities while alpha, beta > 0 and alpha + beta < cap."""
    return _run(record, config, direction=+1.0, cap=config.cap)
