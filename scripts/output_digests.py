"""Print a digest line for each of a fixed list of dcecon CLI invocations.

Each invocation runs as a fresh `python -m dcecon` process, with
PYTHONUNBUFFERED removed from its environment, over the bundled
data/ files and a few small generated CSVs, inside a temporary directory that
also receives every --trace directory. One line is printed per invocation:

    <exit code> out=<sha256 of stdout> err=<sha256 of stderr> trace=<digest|-> <argv>

The trace digest is the SHA-256 over the sorted trace file names and their own
SHA-256s ("-" when the invocation writes no trace). The lines depend only on
the program's behaviour, so two checkouts can be compared with diff:

    python3 scripts/output_digests.py > change.txt
    python3 scripts/output_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

--quick skips the long runs (the traced 300k- and 1M-iteration descents and the
default 1M-iteration runs); every subcommand is still covered, and so are trace
files long enough to be formatted in forked slices on a machine with two or more
usable CPUs.
"""

import argparse
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# small inputs written next to the copied data/ directory
INPUTS = {
    # y = exp(0.8) * S^0.9 * P^0.6 times a small fixed wobble, so the m = 3
    # returns-to-scale constraints bind
    "fit.csv": "new_server_cost,power_cooling_cost,output\n"
               "5,7,25.1\n12,6,47.9\n20,33,209.0\n41,18,282.5\n"
               "55,71,760.3\n63,9,267.7\n77,48,856.2\n80,80,1190.4\n",
    "fit_raw.csv": "new_server_cost,power_cooling_cost,output\n"
                   "1,2,13\n4,3,26.1\n9,1,33\n7,8,55.2\n3,12,59.9\n11,6,59\n",
    # A^T A overflows in the constrained QP
    "fit_huge.csv": "new_server_cost,power_cooling_cost,output\n"
                    "1e200,2e200,3e200\n2e200,1e200,4e200\n3e200,5e200,2e200\n4e200,3e200,6e200\n",
    # L < 1: the descent reaches the subnormal fixed point within a few thousand steps
    "one_row.csv": "year,new_server_cost,power_cooling_cost\n2000,0.7,0.4\n",
    "nan_costs.csv": "year,new_server_cost,power_cooling_cost\n2000,nan,3\n",
    "repeated_year_weights.csv": "year,w1,w2\n1997,0.0150,0.6550\n2002,0.0150,0.5050\n"
                                 "1997,0.0200,0.4000\n",
    # the raw OLS fit's sums of squares overflow
    "ols_huge.csv": "new_server_cost,power_cooling_cost,output\n"
                    "1,2,1e160\n4,3,3e160\n9,1,2e160\n7,8,5e160\n",
    "typo_included_shares.csv": "firm,share_percent,included\na,50,true\nb,30,ture\n",
    "negative_share.csv": "firm,share_percent\na,50\nb,-5\n",
    "share_above_100.csv": "firm,share_percent\na,120\n",
    "shares_above_101.csv": "firm,share_percent\na,60\nb,50\n",
    "index_above_10000_shares.csv": "firm,share_percent\na,100\nb,1\n",
    "fit_zero_cost.csv": "new_server_cost,power_cooling_cost,output\n"
                         "5,7,25.1\n0,6,47.9\n20,33,209.0\n41,18,282.5\n",
    # Latin-1, not UTF-8
    "latin1_shares.csv": b"firm,share_percent\n\xc9tat,50\n",
    # a year with neither bundled weights nor reference objectives
    "year_1890.csv": "year,new_server_cost,power_cooling_cost\n1890,65,5\n",
    # a header naming a column twice, and one behind a UTF-8 byte-order mark
    "repeated_column_costs.csv": "year,new_server_cost,power_cooling_cost,new_server_cost\n"
                                 "1997,65,5,1\n",
    "bom_costs.csv": b"\xef\xbb\xbfyear,new_server_cost,power_cooling_cost\n1997,65,5\n",
    # 200 rows of y = exp(0.6) * S^0.55 * P^0.6 times a wobble of up to 5 %
    "fit_200.csv": "new_server_cost,power_cooling_cost,output\n" + "".join(
        f"{S},{P},{round(math.exp(0.6 + 0.55 * math.log(S) + 0.6 * math.log(P) + wobble), 6)}\n"
        for S, P, wobble in ((5 + i * 37 % 61, 5.5 + i * 53 % 59, 0.05 * math.sin(i))
                             for i in range(200))),
    # the shape of the benchmark's blocks: the returns-to-scale rows and 17 random
    # directions; alpha + beta <= 0.7532 binds for fit_200.csv (OLS gives about 1.15)
    "constraints_m20.csv": "c1,c2,c3,b\n0,-1,0,0\n0,0,-1,0\n0,1,1,0.7532\n"
                           "0.9437,0.6876,-0.3594,1.2278\n-0.3255,-0.7999,-0.7522,0.7461\n"
                           "0.3936,0.4367,-0.3977,0.6188\n0.9555,-0.6466,-0.9659,0.8535\n"
                           "0.2463,0.41,0.5646,0.5597\n0.9427,0.8013,0.0634,1.1051\n"
                           "-0.8481,0.915,-0.003,1.6275\n0.1451,0.4822,0.2742,1.7166\n"
                           "0.1618,-0.8616,0.9689,1.0641\n-0.5936,0.2644,0.0648,1.8092\n"
                           "0.7444,0.6348,0.4337,1.2355\n-0.8878,-0.0505,0.8202,0.358\n"
                           "0.7836,0.7495,0.1506,0.766\n-0.3621,0.6257,-0.6816,1.5059\n"
                           "-0.8448,-0.2858,0.6268,0.4605\n-0.3061,0.2936,-0.9585,0.522\n"
                           "0.655,-0.9973,-0.7145,0.5605\n",
}

COSTS = ("--input", "data/tables.csv")
CLOSED = {
    "revenue-max-closed": ("--budget", "10", "--w1", "1.5", "--w2", "0.8", "--recurring", "4",
                           "--infrastructure", "7", "--alpha", "0.6", "--beta", "0.9"),
    "cost-min-closed": ("--target-output", "5", "--w1", "1.5", "--w2", "0.8",
                        "--recurring", "4", "--infrastructure", "7",
                        "--alpha", "0.6", "--beta", "0.9"),
    "profit-max-closed": ("--w1", "1", "--w2", "1.2", "--recurring", "2",
                          "--infrastructure", "3", "--alpha", "0.25", "--beta", "0.35"),
}
RD = ("--discount-rate", "1.05", "--harrod-capital", "3", "--solow-labor", "6",
      "--alpha1", "0.4", "--beta1", "0.3")


def invocations(quick):
    """(argv, slow) pairs; a "{trace}" argument is replaced by a fresh trace directory."""
    calls = []
    for fmt in ("json", "csv"):
        form = ("--format", fmt)
        short = ("--max-iters", "3000")
        calls += [
            (("cost-min", *COSTS, "--seed", "7", *form), True),
            (("cost-min", *COSTS, "--seed", "7", *short, *form), False),
            (("revenue-max", *COSTS, "--seed", "7", *form), False),
            (("cost-min", *COSTS, "--mode", "analytic", *form), False),
            (("profit", *COSTS, *short, *form), False),
            (("profit", *COSTS, "--weights", "data/linear_weights.csv", *short, *form), False),
            (("profit", *COSTS, "--reference", *form), False),
        ]
        for name, args in CLOSED.items():
            calls += [((name, *args, *form), False), ((name, *args, *RD, *form), False)]
        calls += [
            (("sfa", "--S", "9", "--I", "16", "--output", "20", "--alpha", "0.6",
              "--beta", "0.3", *form), False),
            (("sfa", "--S", "9", "--I", "16", "--output", "20", "--intercept", "0.5",
              "--n", "0.9", "--inefficiency", "0.2", "--shock", "0.1", *form), False),
            (("sfa", "--S", "9", "--I", "16", "--alpha", "0.6", "--beta", "0.3",
              "--synthesize", "5", "--sigma-v", "0.1", "--sigma-u", "0.2", "--seed", "3",
              *form), False),
            (("fit", "--input", "inputs/fit.csv", *form), False),
            (("fit", "--input", "inputs/fit.csv", "--constrained", "data/constraints_rts.csv",
              *form), False),
            (("fit", "--input", "inputs/fit_raw.csv", "--scale", "raw", "--no-intercept",
              *form), False),
            (("hhi", "--input", "data/apac_shares.csv", *form), False),
            (("hhi", "--input", "data/iaas_shares.csv", *form), False),
        ]
    long_trace = ("--seed", "7", "--trace", "{trace}", "--max-iters", "300000")
    calls += [
        (("cost-min", *COSTS, *long_trace), True),
        (("revenue-max", *COSTS, *long_trace), True),
        (("profit", *COSTS, "--weights", "data/linear_weights.csv", "--max-iters", "20000",
          "--trace", "{trace}"), False),
        (("cost-min", "--input", "inputs/one_row.csv", "--seed", "2"), False),
        (("cost-min", "--input", "inputs/one_row.csv", "--seed", "2", "--trace", "{trace}"),
         True),
        (("revenue-max", "--input", "inputs/one_row.csv", "--seed", "4",
          "--trace", "{trace}"), False),
        (("cost-min", "--input", "inputs/one_row.csv", "--learning-rate", "0.3", "--seed", "4",
          "--max-iters", "5000", "--trace", "{trace}"), False),
        # error paths: exit 1 usage, 2 data, 3 numerical
        (("cost-min",), False),
        (("profit", *COSTS, "--weights", "data/linear_weights.csv", "--reference"), False),
        (("cost-min", "--input", "inputs/missing.csv"), False),
        (("cost-min", "--input", "inputs/nan_costs.csv"), False),
        (("cost-min", *COSTS, "--learning-rate", "nan"), False),
        (("revenue-max", "--input", "inputs/one_row.csv", "--init-alpha", "1.0",
          "--init-beta", "0.9"), False),
        (("revenue-max-closed", "--budget", "1e-300", "--w1", "1e300", "--w2", "1",
          "--recurring", "1", "--infrastructure", "1", "--alpha", "0.5", "--beta", "0.5"),
         False),
        (("cost-min-closed", "--target-output", "1e300", "--w1", "1", "--w2", "1",
          "--recurring", "1", "--infrastructure", "1", "--alpha", "0.01", "--beta", "0.01"),
         False),
        (("profit-max-closed", "--w1", "1e-300", "--w2", "1e-300", "--recurring", "1",
          "--infrastructure", "1", "--alpha", "0.45", "--beta", "0.5"), False),
        (("profit-max-closed", "--w1", "1", "--w2", "1", "--recurring", "1",
          "--infrastructure", "1", "--alpha", "0.7", "--beta", "0.6"), False),
        (("sfa", "--S", "9", "--I", "16", "--output", "20", "--inefficiency", "nan"), False),
        (("fit", "--input", "inputs/fit_huge.csv", "--scale", "raw",
          "--constrained", "data/constraints_rts.csv"), False),
    ]
    # invalid R&D determinants, an R&D back-out that overflows, underflowing
    # closed-form products and an overflowing OLS fit
    calls += [
        (("revenue-max-closed", *CLOSED["revenue-max-closed"], *RD, "--beta1", "1.5"), False),
        (("cost-min-closed", *CLOSED["cost-min-closed"], *RD, "--discount-rate", "0"), False),
        (("profit-max-closed", *CLOSED["profit-max-closed"], *RD, "--alpha1", "0"), False),
        (("revenue-max-closed", *CLOSED["revenue-max-closed"], *RD, "--beta1", "1e-3",
          "--discount-rate", "0.01"), False),
        (("revenue-max-closed", "--budget", "1", "--w1", "1e-300", "--w2", "1",
          "--recurring", "1e-300", "--infrastructure", "1", "--alpha", "0.5", "--beta", "0.5"),
         False),
        (("cost-min-closed", "--target-output", "1", "--w1", "1", "--w2", "1e-200",
          "--recurring", "1", "--infrastructure", "1", "--alpha", "1e-200", "--beta", "0.5"),
         False),
        (("fit", "--input", "inputs/ols_huge.csv", "--scale", "raw"), False),
    ]
    # a --trace path that is an existing file (exit 2), and a multi-year profit run
    # whose 300,001-row descent traces are formatted in forked slices
    calls += [
        (("cost-min", *COSTS, "--max-iters", "100", "--trace", "inputs/fit.csv"), False),
        (("profit", *COSTS, "--weights", "data/linear_weights.csv", "--max-iters", "300000",
          "--trace", "{trace}"), True),
    ]
    # a constrained fit without an intercept, and a weights file with a repeated year (exit 2)
    calls += [
        (("fit", "--input", "inputs/fit.csv", "--no-intercept",
          "--constrained", "data/constraints_rts.csv"), False),
        (("profit", *COSTS, "--weights", "inputs/repeated_year_weights.csv"), False),
    ]
    # share files with an `included` typo, a share below 0 or above 100, and included
    # shares above 101, and a log-scale fit over a 0 cost (exit 2); a synthesis count
    # of 0 (exit 3); a flag of the other sfa mode (exit 1)
    calls += [
        (("hhi", "--input", "inputs/typo_included_shares.csv"), False),
        (("hhi", "--input", "inputs/negative_share.csv"), False),
        (("hhi", "--input", "inputs/share_above_100.csv"), False),
        (("hhi", "--input", "inputs/shares_above_101.csv"), False),
        (("fit", "--input", "inputs/fit_zero_cost.csv"), False),
        (("sfa", "--S", "9", "--I", "16", "--alpha", "0.6", "--beta", "0.3",
          "--synthesize", "0"), False),
        (("sfa", "--S", "9", "--I", "16", "--output", "20", "--seed", "3"), False),
    ]
    # included shares within the sum limit whose index is above 10000 (exit 2)
    calls += [(("hhi", "--input", "inputs/index_above_10000_shares.csv"), False)]
    # an input that is a directory and one that is not UTF-8 (exit 2); --trace and an
    # optimizer flag, which the reference table makes no run to read (exit 1)
    calls += [
        (("hhi", "--input", "data"), False),
        (("hhi", "--input", "inputs/latin1_shares.csv"), False),
        (("profit", *COSTS, "--reference", "--trace", "{trace}"), False),
        (("profit", *COSTS, "--reference", "--max-iters", "5"), False),
    ]
    # profit over a year without weights, and --reference over a year without
    # reference objectives (exit 2)
    calls += [
        (("profit", "--input", "inputs/year_1890.csv"), False),
        (("profit", "--input", "inputs/year_1890.csv", "--reference"), False),
    ]
    # a budget of 0, and a synthesis with an infinite elasticity or a NaN intercept (exit 3)
    synthesis = ("sfa", "--S", "9", "--I", "16", "--alpha", "0.6", "--beta", "0.3",
                 "--synthesize", "2")
    calls += [
        (("revenue-max-closed", *CLOSED["revenue-max-closed"], "--budget", "0"), False),
        ((*synthesis, "--alpha", "inf"), False),
        ((*synthesis, "--intercept", "nan"), False),
    ]
    # a cost header naming a column twice (exit 2) and one behind a byte-order mark;
    # fit columns named twice: the target as a regressor, and one regressor twice
    # (exit 3); a synthesis without --beta (exit 1)
    calls += [
        (("cost-min", "--input", "inputs/repeated_column_costs.csv", "--max-iters", "3000"),
         False),
        (("cost-min", "--input", "inputs/bom_costs.csv", "--seed", "7", "--max-iters", "3000"),
         False),
        (("fit", "--input", "inputs/fit.csv", "--x1", "output", "--x2", "power_cooling_cost",
          "--target", "output"), False),
        (("fit", "--input", "inputs/fit.csv", "--x1", "new_server_cost",
          "--x2", "new_server_cost"), False),
        (("sfa", "--S", "9", "--I", "16", "--alpha", "0.6", "--synthesize", "2"), False),
    ]
    # a constrained fit over a 20-row block and an OLS fit over 200 rows
    calls += [
        (("fit", "--input", "inputs/fit_200.csv", "--constrained", "inputs/constraints_m20.csv"),
         False),
        (("fit", "--input", "inputs/fit_200.csv"), False),
    ]
    return [argv for argv, slow in calls if not (quick and slow)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(trace_dir: Path) -> str:
    if not trace_dir.is_dir():
        return sha256(b"")
    digest = hashlib.sha256()
    for path in sorted(trace_dir.iterdir()):
        content = hashlib.sha256()
        with path.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                content.update(chunk)
        digest.update(f"{path.name}\0{content.hexdigest()}\n".encode())
    return digest.hexdigest()


def run(argv, root: Path, workdir: Path, index: int) -> str:
    trace = f"traces/{index}"
    argv = tuple(trace if arg == "{trace}" else arg for arg in argv)
    # without PYTHONUNBUFFERED, output sits in the streams' buffers until the
    # process flushes them, so a missing flush changes a digest
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run([sys.executable, "-m", "dcecon", *argv], cwd=workdir, env=env,
                          capture_output=True)
    traced = trace in argv
    digest = trace_digest(workdir / trace) if traced else "-"
    if traced:
        shutil.rmtree(workdir / trace, ignore_errors=True)
    return (f"{proc.returncode} out={sha256(proc.stdout)} err={sha256(proc.stderr)} "
            f"trace={digest} {shlex.join(argv)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and data/ are run (default: this one)")
    parser.add_argument("--quick", action="store_true", help="skip the long runs")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    with tempfile.TemporaryDirectory(prefix="dcecon-digests-") as tmp:
        workdir = Path(tmp)
        shutil.copytree(root / "data", workdir / "data")
        (workdir / "inputs").mkdir()
        for name, content in INPUTS.items():
            data = content if isinstance(content, bytes) else content.encode()
            (workdir / "inputs" / name).write_bytes(data)
        for index, argv in enumerate(invocations(args.quick)):
            print(run(argv, root, workdir, index), flush=True)


if __name__ == "__main__":
    main()
