"""Derive the starts of the revenue runs (reference.REVENUE_INITS) by running the
marginal ascent backwards from each row of the revenue table.

A forward step of the marginal update is x -> x + step * g(x), with
g = (alpha * L^(alpha-1) * K^beta, beta * L^(beta-1) * K^alpha) and step =
+0.01 for the ascent. A backward step solves x + step * g(x) = x_next for x by
Newton's method on the 2x2 system, from x_next - step * g(x_next). Stepping
back from a row's (alpha, beta) until alpha + beta < 0.6 gives a start from
which sga_revenue_max (lr 0.01, cap 1.8) runs to the row and stops with
cap_reached. The starts are printed at full repr precision, as a dict literal.

Run from the repository root:  python3 scripts/derive_revenue_inits.py
"""

import math

from dcecon import reference

LEARNING_RATE = 0.01
# the backward path ends at its first point with alpha + beta below this sum
START_SUM = 0.6
# Newton iterations per backward step; 10 print the same starts as 6
NEWTON_ITERS = 6


def previous_iterate(L, K, alpha, beta, step):
    """The (alpha, beta) that one marginal update with step (direction * learning
    rate) on costs L, K takes to the given (alpha, beta)."""
    log_L, log_K = math.log(L), math.log(K)
    a = alpha - step * alpha * math.exp((alpha - 1.0) * log_L + beta * log_K)
    b = beta - step * beta * math.exp((beta - 1.0) * log_L + alpha * log_K)
    for _ in range(NEWTON_ITERS):
        e_a = math.exp((a - 1.0) * log_L + b * log_K)
        e_b = math.exp((b - 1.0) * log_L + a * log_K)
        f_a = a + step * a * e_a - alpha
        f_b = b + step * b * e_b - beta
        j_aa, j_ab = 1.0 + step * e_a * (1.0 + a * log_L), step * a * e_a * log_K
        j_ba, j_bb = step * b * e_b * log_K, 1.0 + step * e_b * (1.0 + b * log_L)
        det = j_aa * j_bb - j_ab * j_ba
        a, b = a - (f_a * j_bb - f_b * j_ab) / det, b - (j_aa * f_b - j_ba * f_a) / det
    return a, b


def revenue_start(record, row):
    """(alpha, beta, steps): the first point with alpha + beta < START_SUM on the
    backward ascent path from row over record's costs, and the number of steps back to it."""
    alpha, beta, steps = row.alpha, row.beta, 0
    while alpha + beta >= START_SUM:
        alpha, beta = previous_iterate(record.server_cost, record.power_cooling_cost,
                                       alpha, beta, LEARNING_RATE)
        steps += 1
    return alpha, beta, steps


def main():
    print("REVENUE_INITS = {")
    for year in reference.YEARS:
        alpha, beta, steps = revenue_start(reference.COST_RECORDS[year],
                                           reference.MAX_REVENUE_TABLE[year])
        print(f"    {year}: ({alpha!r}, {beta!r}),  # {steps} steps")
    print("}")


if __name__ == "__main__":
    main()
