"""Closed-form Lagrangian optima for the augmented production function.

Three problems over the effective inputs u = A*R and v = B*I:

* revenue_max -- maximize (A*R)^alpha * (B*I)^beta subject to w1*A*R + w2*B*I = m
* cost_min   -- minimize w1*A*R + w2*B*I subject to (A*R)^alpha * (B*I)^beta = y_tar
* profit_max -- maximize P*(A*R)^alpha * (B*I)^beta - w1*A*R - w2*B*I (needs alpha+beta < 1)

Each solution reports the augmentation factors (A, B) and, when the R&D
determinants are supplied, the implied R&D inputs L* and K*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateProblemError, DomainError, ParameterError, overflow_as_error
from .production import RdDeterminants, invert_harrod, invert_solow


@dataclass(frozen=True)
class BudgetProblem:
    """Production maximization under the budget w1*A*R + w2*B*I = m."""

    m: float
    w1: float
    w2: float
    R: float
    I: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("m", "w1", "w2", "R", "I", "alpha", "beta"):
            value = getattr(self, name)
            if not value > 0:
                raise ParameterError(f"{name} must be strictly positive, got {value}")


@dataclass(frozen=True)
class ClosedFormSolution:
    """Optimal augmentation factors plus the objective value at the optimum."""

    A: float
    B: float
    objective: float
    L_star: Optional[float] = None
    K_star: Optional[float] = None


@dataclass(frozen=True)
class ProfitSolution:
    """Profit-maximizing factors, the output at the optimum, and the profit itself."""

    A: float
    B: float
    output: float
    profit: float
    L_star: Optional[float] = None
    K_star: Optional[float] = None


def _back_out_rd(A: float, B: float, rd: Optional[RdDeterminants]):
    if rd is None:
        return None, None
    return (invert_harrod(A, rd.r, rd.Gamma, rd.beta1),
            invert_solow(B, rd.r, rd.Delta, rd.alpha1))


@overflow_as_error
def revenue_max(problem: BudgetProblem, rd: Optional[RdDeterminants] = None) -> ClosedFormSolution:
    """Budget-constrained output maximum.

    A = alpha*m / (w1*R*(alpha+beta)) and B = beta*m / (w2*I*(alpha+beta)); the
    budget is exhausted exactly and the objective is (A*R)^alpha * (B*I)^beta.
    """
    p = problem
    n = p.alpha + p.beta
    A = p.alpha * p.m / (p.w1 * p.R * n)
    B = p.beta * p.m / (p.w2 * p.I * n)
    u, v = A * p.R, B * p.I
    if not (u > 0 and v > 0):
        raise DomainError(f"effective inputs underflow to 0: A*R = {u}, B*I = {v}")
    objective = math.exp(p.alpha * math.log(u) + p.beta * math.log(v))
    L_star, K_star = _back_out_rd(A, B, rd)
    return ClosedFormSolution(A=A, B=B, objective=objective, L_star=L_star, K_star=K_star)


@overflow_as_error
def cost_min(y_tar: float, w1: float, w2: float, R: float, I: float,
             alpha: float, beta: float,
             rd: Optional[RdDeterminants] = None) -> ClosedFormSolution:
    """Cheapest way to produce y_tar.

    With u = A*R and v = B*I the tangency condition w1/w2 = (alpha/beta)*(v/u)
    combined with the output constraint u^alpha * v^beta = y_tar gives

        u = y_tar^(1/(alpha+beta)) * (alpha*w2 / (beta*w1))^(beta/(alpha+beta))
        v = y_tar^(1/(alpha+beta)) * (beta*w1 / (alpha*w2))^(alpha/(alpha+beta))

    and the minimum cost is c = w1*u + w2*v.
    """
    for name, value in (("y_tar", y_tar), ("w1", w1), ("w2", w2), ("R", R),
                        ("I", I), ("alpha", alpha), ("beta", beta)):
        if not value > 0:
            raise DomainError(f"{name} must be strictly positive, got {value}")
    n = alpha + beta
    log_y = math.log(y_tar) / n
    log_ratio = math.log(alpha * w2) - math.log(beta * w1)
    u = math.exp(log_y + (beta / n) * log_ratio)
    v = math.exp(log_y - (alpha / n) * log_ratio)
    L_star, K_star = _back_out_rd(u / R, v / I, rd)
    return ClosedFormSolution(A=u / R, B=v / I, objective=w1 * u + w2 * v,
                              L_star=L_star, K_star=K_star)


@overflow_as_error
def profit_max(w1: float, w2: float, R: float, I: float,
               alpha: float, beta: float, P: float = 1.0,
               rd: Optional[RdDeterminants] = None) -> ProfitSolution:
    """Unconstrained profit maximum from the first-order conditions.

    Solving df/dA = w1*R and df/dB = w2*I for f = P*(A*R)^alpha * (B*I)^beta gives
    u = alpha*Y/w1 and v = beta*Y/w2 with

        Y = (P * (alpha/w1)^alpha * (beta/w2)^beta)^(1/(1-alpha-beta))

    so Y does not depend on R or I (only A = u/R and B = v/I rescale), and the
    profit is Y - w1*u - w2*v = Y*(1 - alpha - beta) > 0.
    """
    for name, value in (("w1", w1), ("w2", w2), ("R", R), ("I", I),
                        ("alpha", alpha), ("beta", beta), ("P", P)):
        if not value > 0:
            raise DomainError(f"{name} must be strictly positive, got {value}")
    n = alpha + beta
    if n >= 1.0:
        raise DegenerateProblemError(
            f"profit maximization needs alpha + beta < 1 for an interior maximum, got {n}"
        )
    log_Y = (math.log(P)
             + alpha * (math.log(alpha) - math.log(w1))
             + beta * (math.log(beta) - math.log(w2))) / (1.0 - n)
    Y = math.exp(log_Y)
    u = alpha * Y / w1
    v = beta * Y / w2
    L_star, K_star = _back_out_rd(u / R, v / I, rd)
    return ProfitSolution(A=u / R, B=v / I, output=Y, profit=Y - w1 * u - w2 * v,
                          L_star=L_star, K_star=K_star)
