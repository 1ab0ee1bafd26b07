"""Command-line front end.

Subcommands: cost-min, revenue-max, profit (optimizer runs over a cost CSV),
revenue-max-closed, cost-min-closed, profit-max-closed (closed forms), sfa
(frontier recovery or synthesis), fit (least squares / constrained QP), hhi.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import re
import sys
import warnings
from pathlib import Path
from typing import List, Optional, get_args

from .errors import DataValidationError, EconModelError
from .optimizers import GradientMode, OptimizerConfig
from .reports import (RunReport, ingest_costs, ingest_shares, ingest_weights, read_numeric_csv,
                      record_row, reference_profit_report, run_table)

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# the flags each sfa mode reads, with the default it gives each (None: the mode needs
# it); the parser adds them defaulting to None, so a flag of the other mode is refused
SFA_MODE_FLAGS = {
    "recovery": {"output": None, "shock": 0.0, "inefficiency": 0.0, "n": 1.0},
    "synthesis": {"alpha": None, "beta": None, "sigma_v": 0.0, "sigma_u": 0.0, "seed": 0},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1e-05, the repr of a small negative float, as a flag
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits 2 on usage errors; the contract reserves 2 for data errors
    def error(self, message):
        raise _UsageError(message)


def _add_command(sub, name: str, run) -> argparse.ArgumentParser:
    """A subcommand parser with --format whose run(args) builds the report."""
    parser = sub.add_parser(name)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.set_defaults(run=run)
    return parser


def _add_optimizer_flags(parser: argparse.ArgumentParser, ascent: bool) -> None:
    parser.add_argument("--input", required=True, help="cost CSV (year,new_server_cost,power_cooling_cost)")
    # an absent flag is left out of args, so the config keeps its field's default
    absent = argparse.SUPPRESS
    parser.add_argument("--seed", type=int, default=absent)
    parser.add_argument("--learning-rate", type=float, default=absent)
    parser.add_argument("--mode", choices=get_args(GradientMode), default=absent)
    if ascent:
        parser.add_argument("--cap", type=float, default=absent)
    parser.add_argument("--max-iters", type=int, default=absent)
    parser.add_argument("--init-alpha", type=float, default=absent)
    parser.add_argument("--init-beta", type=float, default=absent)
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="write per-iteration trajectories as CSV files into DIR")


def _add_rd_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("R&D determinants (all five needed to back out L*/K*)")
    group.add_argument("--discount-rate", type=float, default=None)
    group.add_argument("--harrod-capital", type=float, default=None, help="Gamma")
    group.add_argument("--solow-labor", type=float, default=None, help="Delta")
    group.add_argument("--alpha1", type=float, default=None)
    group.add_argument("--beta1", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcecon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name in ("cost-min", "revenue-max", "profit"):
        p = _add_command(sub, name, _cmd_optimizer)
        _add_optimizer_flags(p, ascent=name != "cost-min")
        if name == "profit":
            source = p.add_mutually_exclusive_group()
            source.add_argument("--weights", default=None,
                                help="CSV of year,w1,w2 (integer years, each once) for the "
                                     "linear-cost comparison")
            source.add_argument("--reference", action="store_true",
                                help="build the table from bundled reference objectives "
                                     "and weights")

    for name, own in (("revenue-max-closed", ["--budget"]),
                      ("cost-min-closed", ["--target-output"]), ("profit-max-closed", [])):
        p = _add_command(sub, name, _cmd_closed)
        for flag in own + ["--w1", "--w2", "--recurring", "--infrastructure", "--alpha", "--beta"]:
            p.add_argument(flag, type=float, required=True)
        if name == "profit-max-closed":
            p.add_argument("--tfp", type=float, default=1.0, help="total factor productivity P")
        _add_rd_flags(p)

    p = _add_command(sub, "sfa", _cmd_sfa)
    p.add_argument("--intercept", type=float, default=0.0, help="log-frontier intercept")
    p.add_argument("--S", type=float, required=True, help="server cost input")
    p.add_argument("--I", type=float, required=True, help="infrastructure cost input")
    p.add_argument("--synthesize", type=int, default=None, metavar="COUNT",
                   help="generate COUNT shocked observations (synthesis mode)")
    for mode, flags in SFA_MODE_FLAGS.items():
        group = p.add_argument_group(f"{mode} mode")
        for name, default in flags.items():
            # a needed flag is a float; any other takes its default's type
            group.add_argument(f"--{name.replace('_', '-')}",
                               type=float if default is None else type(default),
                               help="needed" if default is None else f"default {default}")

    p = _add_command(sub, "fit", _cmd_fit)
    p.add_argument("--input", required=True)
    p.add_argument("--x1", default="new_server_cost", help="first regressor column")
    p.add_argument("--x2", default="power_cooling_cost", help="second regressor column")
    p.add_argument("--target", default="output", help="dependent-variable column")
    p.add_argument("--scale", choices=["log", "raw"], default="log")
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--constrained", metavar="PATH", default=None,
                   help="constraint CSV: rows c1,c2,c3,b encoding Cx <= b over "
                        "x = (intercept, alpha, beta); --no-intercept uses c2,c3")

    p = _add_command(sub, "hhi", _cmd_hhi)
    p.add_argument("--input", required=True, help="CSV of firm,share_percent[,included]")

    return parser


def _rd_from_args(args):
    from .production import RdDeterminants

    values = (args.discount_rate, args.harrod_capital, args.solow_labor, args.alpha1, args.beta1)
    if all(v is None for v in values):
        return None
    if any(v is None for v in values):
        raise _UsageError("all five R&D determinant flags must be given together")
    return RdDeterminants(*values)


def _refuse_unread(args, names, where: str) -> None:
    """Refuse the first of names that args gives: `--name is not read <where>`."""
    for name in names:
        if getattr(args, name) is not None:
            raise _UsageError(f"--{name.replace('_', '-')} is not read {where}")


def _cmd_optimizer(args) -> RunReport:
    # the flags named after config fields; an absent flag keeps the field's default
    names = {field.name for field in dataclasses.fields(OptimizerConfig)}
    flags = {name: value for name, value in vars(args).items() if name in names}
    if getattr(args, "reference", False):
        # the reference table makes no optimizer run, so a flag that configures one is refused
        _refuse_unread(args, [*flags, "trace"], "with --reference")
        return reference_profit_report(ingest_costs(args.input))
    records = ingest_costs(args.input)
    weights = getattr(args, "weights", None)
    return run_table(args.command.replace("-", "_"), records, OptimizerConfig(**flags),
                     linear_weights=None if weights is None else ingest_weights(weights),
                     trace_dir=args.trace)


def _cmd_closed(args) -> RunReport:
    from . import closed_form

    rd = _rd_from_args(args)
    # the inputs every closed form takes, in its argument order (after m or y_tar)
    inputs = (args.w1, args.w2, args.recurring, args.infrastructure, args.alpha, args.beta)
    config = dict(zip(("w1", "w2", "R", "I", "alpha", "beta"), inputs))
    if args.command == "revenue-max-closed":
        solution = closed_form.revenue_max(args.budget, *inputs, rd)
        config = {"m": args.budget, **config}
    elif args.command == "cost-min-closed":
        solution = closed_form.cost_min(args.target_output, *inputs, rd)
        config = {"y_tar": args.target_output, **config}
    else:
        solution = closed_form.profit_max(*inputs, P=args.tfp, rd=rd)
        config = {"P": args.tfp, **config}
    return RunReport(command=args.command, config=config, rows=[record_row(solution)])


def _cmd_sfa(args) -> RunReport:
    from . import frontier

    mode, other = (("recovery", "synthesis") if args.synthesize is None
                   else ("synthesis", "recovery"))
    _refuse_unread(args, SFA_MODE_FLAGS[other], f"in {mode} mode")
    for name, default in SFA_MODE_FLAGS[mode].items():
        if getattr(args, name) is None:
            if default is None:
                raise _UsageError(f"{mode} mode needs --{name}")
            setattr(args, name, default)
    if mode == "synthesis":
        config = {"intercept": args.intercept, "S": args.S, "I": args.I, "seed": args.seed,
                  "alpha": args.alpha, "beta": args.beta, "sigma_v": args.sigma_v,
                  "sigma_u": args.sigma_u, "count": args.synthesize}
        rng = random.Random(args.seed)
        rows = [record_row(obs) for obs in frontier.synthesize(
            args.intercept, args.alpha, args.beta, args.S, args.I, args.sigma_v, args.sigma_u,
            args.synthesize, rng)]
        return RunReport(command="sfa", config=config, rows=rows)
    config = {"intercept": args.intercept, "n": args.n, "S": args.S, "I": args.I,
              "y": args.output, "v": args.shock, "u": args.inefficiency}
    alpha, beta = frontier.elasticities_from_frontier(
        args.output, args.intercept, args.S, args.I,
        v=args.shock, u=args.inefficiency, n=args.n,
    )
    summary = {"alpha": alpha, "beta": beta,
               "efficiency": frontier.technical_efficiency(args.inefficiency)}
    return RunReport(command="sfa", config=config, rows=[summary], summary=summary)


def _cmd_fit(args) -> RunReport:
    # the log scale takes the logarithm of every value
    data = read_numeric_csv(args.input, [args.x1, args.x2, args.target],
                            "positive" if args.scale == "log" else "finite")
    block = (read_numeric_csv(args.constrained, ["c1", "c2", "c3", "b"])
             if args.constrained else None)
    from . import fitting

    builder = fitting.DesignMatrix.log_scale if args.scale == "log" else fitting.DesignMatrix.raw_scale
    design = builder(data[args.x1], data[args.x2], data[args.target],
                     intercept=not args.no_intercept)
    if block is not None:
        # the block is written over x = (K', alpha, beta), and K' is 0 without an intercept
        columns = ["c2", "c3"] if args.no_intercept else ["c1", "c2", "c3"]
        C = list(zip(*(block[column] for column in columns)))
        result = fitting.qp_fit(design, (C, block["b"]))
        method = "constrained_qp"
    else:
        result = fitting.ols_fit(design)
        method = "ols"
    config = {"x1": args.x1, "x2": args.x2, "target": args.target,
              "scale": args.scale, "intercept": not args.no_intercept, "method": method}
    row = record_row(result)
    return RunReport(command="fit", config=config, rows=[row], summary=row)


def _cmd_hhi(args) -> RunReport:
    from . import concentration

    shares = ingest_shares(args.input)
    index = concentration.hhi(shares)
    rows = [{**record_row(e), "contribution": e.share ** 2 if e.included else 0.0}
            for e in shares.entries]
    summary = {"hhi": index, "classification": concentration.classify_hhi(index).value}
    return RunReport(command="hhi", config={"input": str(Path(args.input))}, rows=rows,
                     summary=summary)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a warning from any library call lands in the report, not on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = args.run(args)
        report.warnings += [str(w.message) for w in caught]
        output = report.render(args.format)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EconModelError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    sys.stdout.write(output)
    return 0
