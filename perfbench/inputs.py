"""Seeded input generation for the dcecon CLI benchmark.

Every workload is a fixed-size pool of CLI calls built from one seed. The data
helpers are pure functions of a ``random.Random``; ``build_pool`` writes the
generated CSVs into a work directory and returns the calls that read them. The
program under test only ever sees those files and the flags in ``Call.argv``.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# the range of the bundled cost table (data/tables.csv), in billions USD
COST_RANGE = (5.0, 65.0)
REFERENCE_YEARS = (1997, 2002, 2009, 2012)
COST_HEADER = ("year", "new_server_cost", "power_cooling_cost")

# plain cost-min calls run the CLI default iteration budget, with no trajectory
DESCENT_MAX_ITERS = 1_000_000
# Descent shrinks both elasticities by about 0.01 / L per iteration, so with a
# server cost L below about 14 they reach subnormal floats within 1M
# iterations, where each iteration is slower. compute-mix has one plain call on
# that path and two off it, so its work does not depend on the seed.
DESCENT_SERVER_COSTS = ((30.0, 65.0), (5.0, 6.0), (30.0, 65.0))
# traced calls record every iteration and write it as one CSV row
TRACED_MAX_ITERS = 80_000
# the CLI's default --cap for ascent
ASCENT_CAP = 1.8
SYNTH_ROWS = 1000
FIT_ROWS = 200
# the m of the constrained fits in compute-mix (cli-quick fits the bundled m = 3)
CONSTRAINT_SIZES = (18, 12, 20)

WORKLOADS = ("cli-quick", "compute-mix")


@dataclass
class Call:
    """One CLI invocation: argv after ``python -m dcecon`` and what its check needs."""

    argv: Tuple[str, ...]
    kind: str
    expect: Dict = field(default_factory=dict)
    trace_dir: Optional[str] = None


def _num(x: float) -> str:
    return repr(float(x))


def _cost(rng: random.Random) -> float:
    return round(rng.uniform(*COST_RANGE), 2)


def cost_series(rng: random.Random, n_years: int,
                years: Optional[Sequence[int]] = None) -> List[Tuple[int, float, float]]:
    """Rows (year, server cost, power & cooling cost), costs uniform in COST_RANGE."""
    if years is None:
        years = sorted(rng.sample(range(1990, 2031), n_years))
    return [(year, _cost(rng), _cost(rng)) for year in years]


def share_table(rng: random.Random) -> List[Tuple[str, float, bool]]:
    """Firm shares in percent; the trailing 'others' bucket is excluded from the index."""
    n = rng.randint(5, 9)
    weights = [rng.uniform(0.5, 10.0) for _ in range(n)]
    total = rng.uniform(60.0, 90.0)
    firms = [(f"firm_{i}", round(total * w / sum(weights), 1), True) for i, w in enumerate(weights)]
    return firms + [("others", round(100.0 - sum(s for _, s, _ in firms), 1), False)]


def fit_dataset(rng: random.Random, rows: int) -> Dict[str, List[float]]:
    """Log-linear Cobb-Douglas data y = exp(K + a ln x1 + b ln x2 + noise)."""
    K, a, b = rng.uniform(0.2, 1.0), rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
    data: Dict[str, List[float]] = {"new_server_cost": [], "power_cooling_cost": [], "output": []}
    for _ in range(rows):
        x1, x2 = _cost(rng), _cost(rng)
        y = math.exp(K + a * math.log(x1) + b * math.log(x2) + rng.gauss(0.0, 0.05))
        data["new_server_cost"].append(x1)
        data["power_cooling_cost"].append(x2)
        data["output"].append(round(y, 6))
    return data


def constraint_block(rng: random.Random, m: int) -> List[Tuple[float, float, float, float]]:
    """m rows (c1, c2, c3, b) of C x <= b over x = (intercept, alpha, beta).

    The first three rows have the bundled returns-to-scale shape (alpha >= 0,
    beta >= 0, alpha + beta <= s); the rest are random directions. Every b is
    non-negative, so the origin is feasible and the QP has a solution.
    """
    rows = [(0.0, -1.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0),
            (0.0, 1.0, 1.0, round(rng.uniform(0.6, 1.0), 4))]
    while len(rows) < m:
        c = [round(rng.uniform(-1.0, 1.0), 4) for _ in range(3)]
        rows.append((c[0], c[1], c[2], round(rng.uniform(0.2, 2.0), 4)))
    return rows[:m]


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_num(v) if isinstance(v, float) else v for v in row])


class _Files:
    """Writes generated CSVs into the work directory; argv paths are relative to the root."""

    def __init__(self, root: Path, workdir: Path):
        self.root, self.workdir, self.count = root, workdir, 0

    def write(self, stem: str, header: Sequence[str], rows) -> str:
        self.count += 1
        path = self.workdir / f"{stem}-{self.count}.csv"
        _write_csv(path, header, rows)
        return str(path.relative_to(self.root))

    def costs(self, series) -> str:
        return self.write("costs", COST_HEADER, series)

    def fit(self, data: Dict[str, List[float]]) -> str:
        return self.write("fit", list(data), zip(*data.values()))


def optimizer_seed(rng: random.Random, cap: float = ASCENT_CAP) -> int:
    """A --seed whose starting point lies below the ascent cap.

    Without --init-alpha/--init-beta the CLI starts at two draws of
    random.Random(seed).random(); ascent rejects a start with alpha + beta >= cap.
    """
    while True:
        seed = rng.randrange(10_000)
        start = random.Random(seed)
        if start.random() + start.random() < cap:
            return seed


def _optimizer_call(files: _Files, rng: random.Random, command: str, series,
                    extra: Sequence[str] = (), trace_dir: Optional[str] = None) -> Call:
    argv = [command, "--input", files.costs(series), "--seed", str(optimizer_seed(rng)), *extra]
    expect = {"costs": series, "format": "json", "cap": ASCENT_CAP, "max_iters": DESCENT_MAX_ITERS}
    if "--format" in extra:
        expect["format"] = extra[extra.index("--format") + 1]
    if "--max-iters" in extra:
        expect["max_iters"] = int(extra[extra.index("--max-iters") + 1])
    if command == "profit":
        weights = [(year, round(rng.uniform(0.01, 0.7), 4), round(rng.uniform(0.01, 0.7), 4))
                   for year, _, _ in series]
        argv += ["--weights", files.write("weights", ("year", "w1", "w2"), weights)]
        expect["weights"] = weights
    if trace_dir is not None:
        argv += ["--trace", trace_dir]
    return Call(tuple(argv), command, expect, trace_dir)


def _cli_quick(rng: random.Random, files: _Files) -> List[Call]:
    u = rng.uniform
    calls = []
    for bundled in ("data/apac_shares.csv", "data/iaas_shares.csv"):
        calls.append(Call(("hhi", "--input", bundled), "hhi", {"format": "json"}))
    shares = [(f, s, "true" if inc else "false") for f, s, inc in share_table(rng)]
    shares_path = files.write("shares", ("firm", "share_percent", "included"), shares)
    for fmt in ("json", "csv"):
        calls.append(Call(("hhi", "--input", shares_path, "--format", fmt), "hhi", {"format": fmt}))
    series = cost_series(rng, 3)
    for fmt in ("json", "csv"):
        calls.append(_optimizer_call(files, rng, "revenue-max", series, ("--format", fmt)))
    calls.append(Call(("profit", "--input", files.costs(cost_series(rng, 4, REFERENCE_YEARS)),
                       "--reference"), "profit-reference", {}))

    params = {"--budget": u(2, 20), "--w1": u(0.5, 3), "--w2": u(0.5, 3),
              "--recurring": u(0.5, 3), "--infrastructure": u(0.5, 3),
              "--alpha": u(0.2, 2), "--beta": u(0.2, 2)}
    calls.append(_params_call("revenue-max-closed", params))
    params = {"--target-output": u(2, 30), "--w1": u(0.5, 3), "--w2": u(0.5, 3),
              "--recurring": u(0.5, 3), "--infrastructure": u(0.5, 3),
              "--alpha": u(0.2, 1), "--beta": u(0.2, 1)}
    calls.append(_params_call("cost-min-closed", params))
    params = {"--w1": u(0.5, 2), "--w2": u(0.5, 2), "--recurring": u(0.5, 3),
              "--infrastructure": u(0.5, 3), "--alpha": u(0.1, 0.45), "--beta": u(0.1, 0.45),
              "--tfp": u(0.5, 3)}
    calls.append(_params_call("profit-max-closed", params))

    S = _cost(rng)
    I = _cost(rng)
    while abs(S - I) < 5.0:
        I = _cost(rng)
    params = {"--S": S, "--I": I, "--intercept": u(0, 1), "--shock": u(-0.1, 0.1),
              "--inefficiency": u(0, 0.3), "--output": u(10, 100)}
    calls.append(_params_call("sfa", params, kind="sfa-recover"))
    params = {"--S": S, "--I": I, "--intercept": u(0, 1), "--alpha": u(0.2, 0.8),
              "--beta": u(0.2, 0.8), "--sigma-v": u(0.01, 0.2), "--sigma-u": u(0.01, 0.2)}
    call = _params_call("sfa", params, kind="sfa-synth")
    call.argv += ("--synthesize", str(SYNTH_ROWS), "--seed", str(rng.randrange(10_000)))
    call.expect["count"] = SYNTH_ROWS
    calls.append(call)

    data = fit_dataset(rng, FIT_ROWS)
    fit_path = files.fit(data)
    calls.append(Call(("fit", "--input", fit_path), "fit-ols", {"data": data}))
    bundled = "data/constraints_rts.csv"
    with (files.root / bundled).open(newline="") as handle:
        block = [tuple(map(float, row)) for row in list(csv.reader(handle))[1:]]
    calls.append(Call(("fit", "--input", fit_path, "--constrained", bundled), "fit-qp",
                      {"data": data, "block": block}))
    rng.shuffle(calls)
    return calls


def _params_call(command: str, params: Dict[str, float], kind: Optional[str] = None) -> Call:
    """A call whose inputs are all flags (closed forms and frontier recovery)."""
    params = {flag: round(value, 4) for flag, value in params.items()}
    argv = [command]
    for flag, value in params.items():
        argv += [flag, _num(value)]
    return Call(tuple(argv), kind or command, {"params": params})


def _compute_mix(rng: random.Random, files: _Files, trace_dir: str) -> List[Call]:
    """Plain descent, traced optimizer runs and large constrained fits, interleaved.

    The order is fixed, so that runs of the same length do the same work
    whatever the seed. Five of the eight calls do 0.6-0.8 s of work past the
    import, so the median call falls inside that group and not between groups.
    """
    plain = []
    for low, high in DESCENT_SERVER_COSTS:
        series = [(rng.randrange(1990, 2031), round(rng.uniform(low, high), 2), _cost(rng))]
        plain.append(_optimizer_call(files, rng, "cost-min", series))
    extra = ("--max-iters", str(TRACED_MAX_ITERS))
    traced = [_optimizer_call(files, rng, command, cost_series(rng, 1), extra, trace_dir)
              for command in ("cost-min", "profit")]
    data = fit_dataset(rng, FIT_ROWS)
    fit_path = files.fit(data)
    fits = []
    for m in CONSTRAINT_SIZES:
        block = constraint_block(rng, m)
        path = files.write(f"constraints-m{m}", ("c1", "c2", "c3", "b"), block)
        fits.append(Call(("fit", "--input", fit_path, "--constrained", path), "fit-qp",
                         {"data": data, "block": block}))
    return [plain[0], fits[0], traced[0], plain[1], traced[1], fits[1], plain[2], fits[2]]


def build_pool(workload: str, seed: int, root: Path, workdir: Path) -> List[Call]:
    """Write the workload's inputs for `seed` into workdir and return its call pool."""
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(root, workdir)
    if workload == "cli-quick":
        return _cli_quick(rng, files)
    if workload == "compute-mix":
        return _compute_mix(rng, files, str((workdir / "trace").relative_to(root)))
    raise ValueError(f"unknown workload {workload!r}")
