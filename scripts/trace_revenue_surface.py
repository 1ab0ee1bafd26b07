"""Emit plot-ready data for the ascent trajectory over the revenue surface.

Writes two CSV files per requested year into an output directory:

* revenue_max_<year>.csv      -- iteration, alpha, beta, objective (the trajectory)
* revenue_surface_<year>.csv  -- alpha, beta, revenue grid over [0, 1] x [0, 1.8]

Any plotting tool can overlay the trajectory on the surface. Example:

    python3 scripts/trace_revenue_surface.py --year 2012 --out /tmp/surface
"""

import argparse
import csv
import math
from pathlib import Path

from dcecon import reference
from dcecon.optimizers import OptimizerConfig
from dcecon.reports import run_table


def write_surface(path, record, alpha_steps=60, beta_steps=60, cap=1.8):
    log_L = math.log(record.server_cost)
    log_K = math.log(record.power_cooling_cost)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["alpha", "beta", "revenue"])
        for i in range(1, alpha_steps + 1):
            alpha = i / alpha_steps
            for j in range(1, beta_steps + 1):
                beta = cap * j / beta_steps
                writer.writerow([alpha, beta, math.exp(alpha * log_L + beta * log_K)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--year", type=int, default=2012, choices=sorted(reference.YEARS))
    parser.add_argument("--out", default="surface_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--learning-rate", type=float, default=5e-4)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = reference.COST_RECORDS[args.year]
    config = OptimizerConfig(learning_rate=args.learning_rate, seed=args.seed)
    row, = run_table("revenue_max", [record], config, trace_dir=out).rows
    write_surface(out / f"revenue_surface_{args.year}.csv", record)

    print(f"year {args.year}: terminal alpha={row['alpha']:.4f} beta={row['beta']:.4f} "
          f"revenue={row['max_revenue']:.2f} after {row['iterations']} steps "
          f"({row['terminated_by']})")
    print(f"wrote {out / f'revenue_max_{args.year}.csv'} and "
          f"{out / f'revenue_surface_{args.year}.csv'}")


if __name__ == "__main__":
    main()
