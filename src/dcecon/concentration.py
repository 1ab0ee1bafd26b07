"""Herfindahl-Hirschman market concentration index over percentage shares."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

from .errors import DomainError, check_domain

# DOJ concentration bands (shares in percent, index in [0, 10000])
MODERATE_THRESHOLD = 1000.0
HIGH_THRESHOLD = 1800.0

SHARE_SUM_LIMIT = 101.0


class Concentration(str, Enum):
    COMPETITIVE = "competitive"
    MODERATE = "moderate"
    HIGH = "high"


@dataclass(frozen=True)
class ShareEntry:
    firm: str
    share: float
    included: bool = True

    def __post_init__(self):
        check_domain("share", self.share, "percent", DomainError)


@dataclass(frozen=True)
class MarketShares:
    """Firm shares in percent; entries can be flagged excluded (e.g. an 'others' bucket)."""

    entries: Tuple[ShareEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        total = sum(e.share for e in self.included_entries())
        if total > SHARE_SUM_LIMIT:
            raise DomainError(f"included shares sum to {total}, above {SHARE_SUM_LIMIT}")
        index = hhi(self)
        if index > 10000.0:
            raise DomainError(f"included shares give an index of {index}, above 10000")
        if total > 100.0 + 1e-9:
            warnings.warn(f"included shares sum to {total} > 100", stacklevel=2)

    @classmethod
    def from_shares(cls, shares: Sequence[float]) -> "MarketShares":
        return cls(tuple(ShareEntry(f"firm_{i}", s) for i, s in enumerate(shares)))

    def included_entries(self) -> List[ShareEntry]:
        return [e for e in self.entries if e.included]


def hhi(shares: MarketShares) -> float:
    """Sum of squared included shares; 10000 is a monopoly."""
    return sum(e.share ** 2 for e in shares.included_entries())


def classify_hhi(value: float) -> Concentration:
    """DOJ bands: < 1000 competitive, [1000, 1800) moderate, >= 1800 high."""
    if not 0.0 <= value <= 10000.0:
        raise DomainError(f"index outside [0, 10000]: {value}")
    if value < MODERATE_THRESHOLD:
        return Concentration.COMPETITIVE
    if value < HIGH_THRESHOLD:
        return Concentration.MODERATE
    return Concentration.HIGH
