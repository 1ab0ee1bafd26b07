"""Compare direct evaluations against the bundled reference tables.

Evaluates L^alpha * K^beta at each reference row's terminal elasticities, the
linear cost at the reference weights, and the cross-table profit arithmetic,
printing computed vs reference values side by side.

Run from the repository root:  python3 scripts/reproduce_tables.py
"""

from dcecon import reference
from dcecon.production import evaluate_output, linear_cost
from dcecon.reports import reference_profit_report


def evaluate_row(row):
    return evaluate_output(1.0, row.alpha, row.beta, row.server_cost, row.power_cooling_cost)


def main():
    print("cost minimization (descent terminals)")
    print(f"{'year':>6} {'alpha':>10} {'beta':>12} {'computed':>10} {'reference':>10} {'diff':>10}")
    for year in reference.YEARS:
        row = reference.MIN_COST_TABLE[year]
        value = evaluate_row(row)
        print(f"{year:>6} {row.alpha:>10.4f} {row.beta:>12.4e} "
              f"{value:>10.4f} {row.objective:>10.4f} {value - row.objective:>10.2e}")

    print("\nrevenue maximization (ascent terminals, cap 1.8)")
    print(f"{'year':>6} {'alpha':>10} {'beta':>12} {'computed':>10} {'reference':>10} {'diff':>10}")
    for year in reference.YEARS:
        row = reference.MAX_REVENUE_TABLE[year]
        value = evaluate_row(row)
        print(f"{year:>6} {row.alpha:>10.4f} {row.beta:>12.4f} "
              f"{value:>10.2f} {row.objective:>10.2f} {value - row.objective:>10.2e}")

    print("\nlinear cost at reference weights")
    print(f"{'year':>6} {'w1':>12} {'w2':>8} {'computed':>10} {'reference':>10}")
    for year in reference.YEARS:
        w1, w2, expected = reference.LINEAR_COST_TABLE[year]
        record = reference.COST_RECORDS[year]
        value = linear_cost(w1, w2, record.server_cost, record.power_cooling_cost)
        print(f"{year:>6} {w1:>12.4e} {w2:>8.4f} {value:>10.4f} {expected:>10.4f}")

    print("\nprofit from reference objectives (CD and linear variants)")
    print(f"{'year':>6} {'profit_cd':>12} {'recorded':>12} {'profit_lin':>12} {'recorded':>10}")
    report = reference_profit_report(list(reference.COST_RECORDS.values()))
    for row in report.rows:
        year = row["year"]
        rec_cd, rec_lin = reference.PROFIT_TABLE[year]
        flag = "" if abs(row["profit_cd"] - rec_cd) <= 1e-2 else "  <- known deviation"
        print(f"{year:>6} {row['profit_cd']:>12.4f} {rec_cd:>12.4f} "
              f"{row['profit_linear']:>12.2f} {rec_lin:>10.2f}{flag}")


if __name__ == "__main__":
    main()
