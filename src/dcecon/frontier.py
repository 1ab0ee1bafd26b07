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
from typing import Iterator, Optional, Tuple

from .errors import DomainError, SingularSystemError, overflow_as_error


@dataclass(frozen=True)
class FrontierSpec:
    """Log-frontier intercept, elasticities, shock v, inefficiency u >= 0, and scale sum n."""

    K: float
    alpha: float
    beta: float
    v: float = 0.0
    u: float = 0.0
    n: Optional[float] = None

    def __post_init__(self):
        if not self.u >= 0:
            raise DomainError(f"inefficiency u must be non-negative, got {self.u}")
        if self.n is None:
            object.__setattr__(self, "n", self.alpha + self.beta)


@overflow_as_error
def frontier_output(spec: FrontierSpec, S: float, I: float) -> float:
    """y = exp(K + alpha*ln S + beta*ln I + v - u)."""
    if not (S > 0 and I > 0):
        raise DomainError(f"inputs must be strictly positive, got S={S}, I={I}")
    return math.exp(spec.K + spec.alpha * math.log(S) + spec.beta * math.log(I) + spec.v - spec.u)


def technical_efficiency(u: float) -> float:
    """TE = exp(-u), the ratio of observed output to the maximum frontier output."""
    if not u >= 0:
        raise DomainError(f"inefficiency u must be non-negative, got {u}")
    return math.exp(-u)


def elasticities_from_frontier(y: float, K: float, S: float, I: float,
                               v: float = 0.0, u: float = 0.0,
                               n: float = 1.0) -> Tuple[float, float]:
    """Recover (alpha, beta) from one frontier observation with alpha + beta = n.

    With X = ln y - K - v + u:  alpha = (X - n*ln I) / ln(S/I)  and  beta = n - alpha.
    S = I makes the system singular (the two inputs are indistinguishable).
    """
    if not (y > 0 and S > 0 and I > 0):
        raise DomainError(f"y, S, I must be strictly positive, got ({y}, {S}, {I})")
    if not u >= 0:
        raise DomainError(f"inefficiency u must be non-negative, got {u}")
    denom = math.log(S) - math.log(I)
    if denom == 0.0:
        raise SingularSystemError("S and I coincide; elasticities are not identified")
    X = math.log(y) - K - v + u
    alpha = (X - n * math.log(I)) / denom
    return alpha, n - alpha


def draw_shocks(rng: random.Random, sigma_v: float, sigma_u: float) -> Tuple[float, float]:
    """One draw of (v, u): v ~ Normal(0, sigma_v), u = |Normal(0, sigma_u)|."""
    if not (sigma_v >= 0 and sigma_u >= 0):
        raise DomainError(f"shock scales must be non-negative, got ({sigma_v}, {sigma_u})")
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
    for _ in range(count):
        v, u = draw_shocks(rng, sigma_v, sigma_u)
        spec = FrontierSpec(K=K, alpha=alpha, beta=beta, v=v, u=u)
        yield SyntheticObservation(v=v, u=u, output=frontier_output(spec, S, I),
                                   efficiency=technical_efficiency(u))
