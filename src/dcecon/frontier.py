"""Stochastic frontier production function.

Forward model ln y = K + alpha*ln S + beta*ln I + v - u, where v is a symmetric
random shock and u >= 0 is one-sided technical inefficiency, plus the closed-form
recovery of (alpha, beta) from one observation under a returns-to-scale constraint
alpha + beta = n. Shocks are supplied by the caller; the synthetic generator takes
an explicit caller-owned random source.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Tuple

from .errors import (DomainError, ParameterError, SingularSystemError, check_domain,
                     overflow_as_error)


@overflow_as_error
def frontier_output(K: float, alpha: float, beta: float, S: float, I: float,
                    v: float = 0.0, u: float = 0.0) -> float:
    """y = exp(K + alpha*ln S + beta*ln I + v - u) with shock v and inefficiency u >= 0."""
    for name, value in (("K", K), ("alpha", alpha), ("beta", beta), ("v", v)):
        check_domain(name, value, "finite", DomainError)
    check_domain("u", u, "non-negative", DomainError)
    check_domain("S", S, "positive", DomainError)
    check_domain("I", I, "positive", DomainError)
    return math.exp(K + alpha * math.log(S) + beta * math.log(I) + v - u)


def technical_efficiency(u: float) -> float:
    """TE = exp(-u), the ratio of observed output to the maximum frontier output."""
    check_domain("u", u, "non-negative", DomainError)
    return math.exp(-u)


@overflow_as_error
def elasticities_from_frontier(y: float, K: float, S: float, I: float,
                               v: float = 0.0, u: float = 0.0,
                               n: float = 1.0) -> Tuple[float, float]:
    """Recover (alpha, beta) from one frontier observation with alpha + beta = n.

    With X = ln y - K - v + u:  alpha = (X - n*ln I) / ln(S/I)  and  beta = n - alpha.
    S = I makes the system singular (the two inputs are indistinguishable).
    """
    for name, value, domain in (("y", y, "positive"), ("S", S, "positive"), ("I", I, "positive"),
                                ("K", K, "finite"), ("v", v, "finite"), ("n", n, "finite"),
                                ("u", u, "non-negative")):
        check_domain(name, value, domain, DomainError)
    denom = math.log(S) - math.log(I)
    if denom == 0.0:
        raise SingularSystemError("S and I coincide; elasticities are not identified")
    X = math.log(y) - K - v + u
    alpha = (X - n * math.log(I)) / denom
    return alpha, n - alpha


@overflow_as_error
def draw_shocks(rng: random.Random, sigma_v: float, sigma_u: float) -> Tuple[float, float]:
    """One draw of (v, u): v ~ Normal(0, sigma_v), u = |Normal(0, sigma_u)|."""
    check_domain("sigma_v", sigma_v, "non-negative", DomainError)
    check_domain("sigma_u", sigma_u, "non-negative", DomainError)
    return rng.gauss(0.0, sigma_v), abs(rng.gauss(0.0, sigma_u))


@dataclass(frozen=True)
class SyntheticObservation:
    v: float
    u: float
    output: float
    efficiency: float


def synthesize(K: float, alpha: float, beta: float, S: float, I: float,
               sigma_v: float, sigma_u: float, count: int,
               rng: random.Random) -> Iterator[SyntheticObservation]:
    """Generate `count` frontier observations at fixed input levels (S, I)."""
    check_domain("count", count, "count", ParameterError)
    for _ in range(count):
        v, u = draw_shocks(rng, sigma_v, sigma_u)
        yield SyntheticObservation(v=v, u=u, output=frontier_output(K, alpha, beta, S, I, v, u),
                                   efficiency=technical_efficiency(u))
