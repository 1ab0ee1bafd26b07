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

from .errors import (DegenerateProblemError, DomainError, NumericalOverflowError, ParameterError,
                     check_domain, first_non_finite, overflow_as_error)
from .production import RdDeterminants, invert_harrod, invert_solow


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


def _solution(cls, A: float, B: float, rd: Optional[RdDeterminants], **values):
    """cls(A, B, **values) with L* and K* backed out when rd is given; a non-finite field raises."""
    if rd is not None:
        values.update(L_star=invert_harrod(A, rd.r, rd.Gamma, rd.beta1),
                      K_star=invert_solow(B, rd.r, rd.Delta, rd.alpha1))
    solution = cls(A=A, B=B, **values)
    if found := first_non_finite(solution):
        raise NumericalOverflowError("non-finite result %s = %s" % found)
    return solution


@overflow_as_error
def revenue_max(m: float, w1: float, w2: float, R: float, I: float,
                alpha: float, beta: float,
                rd: Optional[RdDeterminants] = None) -> ClosedFormSolution:
    """Output maximum under the budget w1*A*R + w2*B*I = m.

    A = alpha*m / (w1*R*(alpha+beta)) and B = beta*m / (w2*I*(alpha+beta)); the
    budget is exhausted exactly and the objective is (A*R)^alpha * (B*I)^beta.
    """
    for name, value in (("m", m), ("w1", w1), ("w2", w2), ("R", R),
                        ("I", I), ("alpha", alpha), ("beta", beta)):
        check_domain(name, value, "positive", ParameterError)
    n = alpha + beta
    price_A, price_B = w1 * R * n, w2 * I * n
    if not (price_A > 0 and price_B > 0):
        raise DomainError(f"price products underflow to 0: w1*R*n = {price_A}, w2*I*n = {price_B}")
    A = alpha * m / price_A
    B = beta * m / price_B
    u, v = A * R, B * I
    # inf / inf: alpha*m and a price both overflowed (an infinite u or v is named later)
    if math.isnan(u) or math.isnan(v):
        raise NumericalOverflowError(f"effective inputs overflow: A*R = {u}, B*I = {v}")
    if not (u > 0 and v > 0):
        raise DomainError(f"effective inputs underflow to 0: A*R = {u}, B*I = {v}")
    objective = math.exp(alpha * math.log(u) + beta * math.log(v))
    return _solution(ClosedFormSolution, A, B, rd, objective=objective)


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
        check_domain(name, value, "positive", DomainError)
    n = alpha + beta
    log_y = math.log(y_tar) / n
    aw2, bw1 = alpha * w2, beta * w1
    if not (aw2 > 0 and bw1 > 0):
        raise DomainError(f"log arguments underflow to 0: alpha*w2 = {aw2}, beta*w1 = {bw1}")
    log_ratio = math.log(aw2) - math.log(bw1)
    u = math.exp(log_y + (beta / n) * log_ratio)
    v = math.exp(log_y - (alpha / n) * log_ratio)
    return _solution(ClosedFormSolution, u / R, v / I, rd, objective=w1 * u + w2 * v)


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
        check_domain(name, value, "positive", DomainError)
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
    return _solution(ProfitSolution, u / R, v / I, rd, output=Y, profit=Y - w1 * u - w2 * v)
