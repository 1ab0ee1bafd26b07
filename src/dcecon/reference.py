"""Bundled reference dataset: four sampled years of data-center input costs
(new-server vs power & cooling, billions USD) with the reference simulation
results the regression suite checks against.

This module is data only; reports.reference_profit_report builds the profit
table of these objectives.

Known quirks of the reference tables, asserted as such by the tests:

* The 1997 minimum-cost value (6.8672) is not reproducible to 1e-3 absolute
  from its 4-decimal elasticities; direct evaluation gives 6.86598.
* The 1997 and 2002 profit rows (64.9679, 252.5919) disagree with the
  difference of the revenue and cost tables (63.7628, 252.7387); the 2009 and
  2012 rows are exact.

Which rows real runs reproduce:

* Revenue rows: a marginal ascent (lr 0.01, cap 1.8) from each start in
  REVENUE_INITS ends at its row's alpha and beta to 4 decimals and its
  objective to 0.01, stopping with cap_reached.
* Cost rows: no analytic descent (lr 0.01) reaches one. A marginal descent
  passes through one only from a start with beta < 0.004 (among starts with
  alpha <= 1), and is stopped there only by max_iters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .production import CostRecord


@dataclass(frozen=True)
class ReferenceRow:
    """One year of reference results: terminal elasticities and objective value."""

    alpha: float
    beta: float
    objective: float


COST_RECORDS: Dict[int, CostRecord] = {
    1997: CostRecord(1997, 65.0, 5.0),
    2002: CostRecord(2002, 45.0, 15.0),
    2009: CostRecord(2009, 58.0, 30.0),
    2012: CostRecord(2012, 60.0, 40.0),
}

YEARS: Tuple[int, ...] = tuple(COST_RECORDS)

# cost minimization (descent) terminal elasticities and minimum cost
MIN_COST_TABLE: Dict[int, ReferenceRow] = {
    1997: ReferenceRow(0.4615, 6.1674e-05, 6.8672),
    2002: ReferenceRow(0.3338, 0.0019, 3.5813),
    2009: ReferenceRow(0.2416, 5.1719e-04, 2.6715),
    2012: ReferenceRow(0.1670, 7.6964e-04, 1.9872),
}

# revenue maximization (ascent, cap 1.8) terminal elasticities and maximum revenue
MAX_REVENUE_TABLE: Dict[int, ReferenceRow] = {
    1997: ReferenceRow(0.5312, 1.2676, 70.63),
    2002: ReferenceRow(0.6151, 1.1835, 256.32),
    2009: ReferenceRow(0.6612, 1.1362, 698.68),
    2012: ReferenceRow(0.693, 1.1052, 1006.59),
}

# starts (alpha, beta) from which the marginal ascent (lr 0.01, cap 1.8) runs to
# each MAX_REVENUE_TABLE row; printed by scripts/derive_revenue_inits.py
REVENUE_INITS: Dict[int, Tuple[float, float]] = {
    1997: (0.2630559347685598, 0.3367945857476731),
    2002: (0.2464249740335404, 0.35298130617298684),
    2009: (0.2440615257884398, 0.35498709717307053),
    2012: (0.2449069082488733, 0.35500272590064264),
}

# linear cost weights (w1, w2) and the resulting minimum cost
LINEAR_COST_TABLE: Dict[int, Tuple[float, float, float]] = {
    1997: (0.0150, 0.6550, 4.25),
    2002: (0.0150, 0.5050, 8.25),
    2009: (0.0200, 0.4000, 13.16),
    2012: (5.5e-17, 0.3000, 12.0),
}

# reference profit rows (CD profit, linear profit) as published; 1997/2002 CD
# values deviate from the cross-table arithmetic, see the module docstring
PROFIT_TABLE: Dict[int, Tuple[float, float]] = {
    1997: (64.9679, 66.38),
    2002: (252.5919, 248.07),
    2009: (696.0085, 685.52),
    2012: (1004.6028, 994.59),
}

# market shares in percent: Asia-Pacific data-center infrastructure (2011)
APAC_SHARES: Tuple[float, ...] = (21.0, 19.0, 11.0, 8.0, 8.0, 4.0, 4.0, 25.0)

# infrastructure-as-a-service shares (2015 H1); last entry is the 'others' bucket
IAAS_SHARES: Tuple[Tuple[str, float], ...] = (
    ("AWS", 27.2),
    ("vendor_2", 16.6),
    ("vendor_3", 11.8),
    ("vendor_4", 3.6),
    ("vendor_5", 2.7),
    ("vendor_6", 2.4),
    ("others", 35.9),
)

