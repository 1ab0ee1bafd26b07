"""Print the outcome and the KKT solve count of the QP solver on a fixed set of problems.

The problems come from the generators in tests/test_fitting.py, loaded by path: the
204 random_qp seeds; ill_conditioned_qp seeds 0-299 with cond(H) in 10^(0-3), 10^(3-6)
and 10^(6-9), each with degenerate off and on; returns_to_scale_qp seeds 0-49 at
(m, duplicates) = (12, 0), (12, 2), (16, 3) and (20, 0); and a raw-scale qp_fit on
raw_costs_and_block seeds 0-999. That is 3,204 problems. One line is printed per problem:

    <name> <outcome> <KKT solves>

The outcome is the solution's coordinates by float.hex, joined by commas, or the class
name of the exception raised. The last lines give the number of problems and of KKT
solves for each outcome kind ("solved" or an exception class), then in total. The
lines depend only on the solver, so two checkouts can be compared with diff:

    python3 scripts/qp_probe.py > change.txt
    python3 scripts/qp_probe.py --root ../parent > parent.txt
    diff parent.txt change.txt

--root runs the package in another checkout's src (the generators stay this
checkout's); --quick runs the first six seeds of each family.
"""

import argparse
import runpy
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems(generators):
    """(seeds, name, run) for each family of problems: name(seed) is a problem's name and
    run(seed) returns its solution."""
    fitting = generators["fitting"]

    def raw_fit(seed):
        S, P, y, C, b = generators["raw_costs_and_block"](seed)
        return fitting.qp_fit(fitting.DesignMatrix.raw_scale(S, P, y), (C, b)).coefficients

    def solve(build, *args):
        return lambda seed: fitting.qp_solve(generators[build](seed, *args))

    yield range(204), "random_qp({})".format, solve("random_qp")
    for low in (0, 3, 6):
        for degenerate in (False, True):
            yield (range(300), f"ill_conditioned_qp({{}},({low},{low + 3}),{degenerate})".format,
                   solve("ill_conditioned_qp", (float(low), low + 3.0), degenerate))
    for m, duplicates in ((12, 0), (12, 2), (16, 3), (20, 0)):
        yield (range(50), f"returns_to_scale_qp({{}},{m},{duplicates})".format,
               solve("returns_to_scale_qp", m, duplicates))
    yield range(1000), "raw_costs_and_block({})".format, raw_fit


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT),
                        help="checkout whose src is run (default: this one)")
    parser.add_argument("--quick", action="store_true",
                        help="run the first six seeds of each family only")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    from dcecon import fitting
    from dcecon.errors import EconModelError

    generators = runpy.run_path(str(ROOT / "tests" / "test_fitting.py"))
    kkt_solver, solved = fitting._kkt_solver, []

    def counted(qp):
        solve = kkt_solver(qp)
        return lambda members: solved.append(members) or solve(members)
    fitting._kkt_solver = counted

    problem_counts, solve_counts = Counter(), Counter()
    for seeds, name, run in problems(generators):
        for seed in seeds[:6] if args.quick else seeds:
            solved.clear()
            try:
                x = run(seed)
                outcome, kind = ",".join(v.hex() for v in x), "solved"
            except EconModelError as exc:
                outcome = kind = type(exc).__name__
            print(name(seed), outcome, len(solved))
            problem_counts[kind] += 1
            solve_counts[kind] += len(solved)
    for kind in sorted(problem_counts):
        print(f"# {kind}: {problem_counts[kind]} problems, {solve_counts[kind]} KKT solves")
    print(f"# total: {sum(problem_counts.values())} problems, "
          f"{sum(solve_counts.values())} KKT solves")


if __name__ == "__main__":
    main()
