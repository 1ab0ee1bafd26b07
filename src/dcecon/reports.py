"""Dataset ingestion, the per-year optimizer tables and their traces, and run reports.

A RunReport is the canonical, reproducible record of one CLI invocation: the
command, the fully resolved configuration (seed and initialization pinned), the
per-year result rows, any warnings, and a note naming the bundled reference
table the run is comparable to. RunReport.render is its only serializer. JSON
is the canonical encoding: its keys are the field names, so
RunReport(**json.loads(text)) rebuilds the report. CSV is a lossy view of the rows.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (DataValidationError, DomainError, EconModelError, ParameterError,
                     check_domain, first_non_finite)
from .optimizers import (OptimizerConfig, OptimResult, sga_revenue_max, sgd_cost_min,
                         usable_cpus)
from .production import CostRecord, linear_cost

if TYPE_CHECKING:
    from .concentration import MarketShares

# the values of a share file's `included` cell, lower-cased; an empty cell means true
INCLUDED = {"true": True, "1": True, "yes": True, "": True,
            "false": False, "0": False, "no": False}
# trace rows formatted per write
TRACE_CHUNK_ROWS = 4096
# The fewest trace rows a slice gets, so traces under twice this are written by
# one process. Forking and reaping a child costs about 2 ms and formatting about
# 2.2 us a row, so on a 2-vCPU x86-64 VM two slices first win at about 5,000
# rows: one process against two slices took 9.3 against 11.4 ms at 4,000 rows
# and 17.4 against 12.5 ms at 8,000.
TRACE_SLICE_ROWS = 4096


def read_rows(path, columns: Sequence[str]) -> List[Tuple[int, Dict[str, str]]]:
    """Read a headed UTF-8 CSV into (line number, row) pairs, checking its shape.

    The file must exist (a leading byte-order mark is dropped), and its header
    must name every one of columns, extra ones allowed, and no column twice,
    empty cells aside. Every data row must have as many fields as the header;
    blank rows are skipped. Values stay strings, see parse_number. Any failure
    to open, decode or parse the file is a DataValidationError naming it.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = [cell.strip() for cell in next(reader, [])]
            if not any(header):
                raise DataValidationError(f"{path}: empty file")
            if twice := next((c for i, c in enumerate(header) if c and c in header[:i]), None):
                raise DataValidationError(f"{path}: column {twice!r} appears twice in the header")
            missing = [c for c in columns if c not in header]
            if missing:
                raise DataValidationError(f"{path}: expected header with columns "
                                          f"{','.join(columns)!r}, missing columns {missing}")
            rows = []
            for line, cells in enumerate(reader, start=2):
                if not any(cell.strip() for cell in cells):
                    continue
                if len(cells) != len(header):
                    raise DataValidationError(
                        f"{path}:{line}: expected {len(header)} fields, got {len(cells)}")
                rows.append((line, dict(zip(header, cells))))
    except (FileNotFoundError, NotADirectoryError):
        raise DataValidationError(f"input file not found: {path}") from None
    except OSError as exc:
        raise DataValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    return rows


def parse_number(path, line: int, row: Mapping[str, str], column: str,
                 kind: Callable[[str], float] = float, domain: str = "finite") -> float:
    """Parse row[column] as a finite number in domain (see errors.DOMAINS).

    Every error names file:line and the column.
    """
    try:
        value = kind(row[column])
    except ValueError:
        raise DataValidationError(
            f"{path}:{line}: non-numeric value {row[column]!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise DataValidationError(
            f"{path}:{line}: non-finite value {row[column]!r} in column {column!r}")
    check_domain(f"{path}:{line}: {column}", value, domain, DataValidationError)
    return value


def read_by_year(path, columns: Sequence[str], domain: str) -> Dict[int, Tuple[float, ...]]:
    """Read a headed CSV keyed by its `year` column into {year: values}, in year order.

    values are the row's columns, each a number in domain (see
    errors.DOMAINS). A year must be an integer and appear once; every error
    names file:line.
    """
    table: Dict[int, Tuple[float, ...]] = {}
    for line, row in read_rows(path, ["year", *columns]):
        year = parse_number(path, line, row, "year", int)
        values = tuple(parse_number(path, line, row, column, domain=domain)
                       for column in columns)
        if year in table:
            raise DataValidationError(f"{path}:{line}: duplicate year {year}")
        table[year] = values
    return {year: table[year] for year in sorted(table)}


def ingest_costs(path) -> List[CostRecord]:
    """Parse and validate a `year,new_server_cost,power_cooling_cost` CSV, sorted by year."""
    costs = read_by_year(path, ["new_server_cost", "power_cooling_cost"], "positive")
    return [CostRecord(year, *values) for year, values in costs.items()]


def ingest_weights(path) -> Dict[int, Tuple[float, float]]:
    """Parse a `year,w1,w2` CSV of linear-cost weights into {year: (w1, w2)}."""
    return read_by_year(path, ["w1", "w2"], "non-negative")


def ingest_shares(path) -> MarketShares:
    """Parse a `firm,share_percent[,included]` CSV of market shares in percent.

    A share lies in [0, 100], an `included` cell is read through INCLUDED (a
    missing column means true), and every error names the file.
    """
    from . import concentration  # only hhi reads a share file

    entries = []
    for line, row in read_rows(path, ["firm", "share_percent"]):
        share = parse_number(path, line, row, "share_percent", domain="percent")
        included = row.get("included", "").strip().lower()
        if included not in INCLUDED:
            raise DataValidationError(f"{path}:{line}: included must be true/false, 1/0 or "
                                      f"yes/no, got {row['included']!r}")
        entries.append(concentration.ShareEntry(row["firm"], share, INCLUDED[included]))
    try:
        return concentration.MarketShares(tuple(entries))
    except DomainError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def read_numeric_csv(path, columns: Sequence[str],
                     domain: str = "finite") -> Dict[str, List[float]]:
    """Read named numeric columns (each once), each value in domain, from a headed CSV."""
    data: Dict[str, List[float]] = {c: [] for c in columns}
    for line, row in read_rows(path, columns):
        for column in data:
            data[column].append(parse_number(path, line, row, column, domain=domain))
    return data


@dataclass
class RunReport:
    """Self-contained record of one run; the config suffices to reproduce it bit-exactly."""

    command: str
    config: Dict
    rows: List[Dict]
    warnings: List[str] = field(default_factory=list)
    reference_note: Optional[str] = None
    summary: Optional[Dict] = None

    def render(self, fmt: str = "json") -> str:
        """The report as JSON (every field, by name) or CSV (the rows only); a NaN
        or infinite value anywhere is an error."""
        if found := first_non_finite(self):
            raise EconModelError(f"non-finite value in report field {found[0]}")
        if fmt == "json":
            # vars(self) holds the fields in declaration order; asdict would deep-copy them
            return json.dumps(vars(self), indent=2, allow_nan=False) + "\n"
        if fmt == "csv":
            buffer = io.StringIO()
            if self.rows:
                writer = csv.DictWriter(buffer, fieldnames=list(self.rows[0].keys()),
                                        lineterminator="\n")
                writer.writeheader()
                writer.writerows(self.rows)
            return buffer.getvalue()
        raise ParameterError(f"unknown format {fmt!r}")


def record_row(record) -> Dict:
    """A result dataclass as a report row: its fields in declaration order, None ones dropped."""
    # vars(record) holds the fields in declaration order, as in RunReport.render
    return {name: value for name, value in vars(record).items() if value is not None}


def _write_trace(path: Path, points: Sequence[Tuple[float, float, float]]) -> None:
    """Write a trajectory as trace CSV; a file that fails part way is removed."""
    with path.open("wb") as handle:
        try:
            handle.write(b"iteration,alpha,beta,objective\n")
            _write_slices(handle, path.parent, points, _trace_slices(len(points)))
            handle.flush()
        except BaseException:
            path.unlink(missing_ok=True)
            raise


def _trace_slices(rows: int) -> int:
    """How many slices a trace of rows rows is formatted in: one per usable CPU,
    each of at least TRACE_SLICE_ROWS rows, and one where os.fork is missing."""
    return max(1, min(usable_cpus(), rows // TRACE_SLICE_ROWS))


def _write_rows(handle, points: Sequence[Tuple[float, float, float]],
                start: int, stop: int) -> None:
    """Write trace rows start..stop-1 to a binary handle, TRACE_CHUNK_ROWS per write."""
    # float reprs hold no comma or quote, so these are the rows csv.writer writes
    for low in range(start, stop, TRACE_CHUNK_ROWS):
        high = min(low + TRACE_CHUNK_ROWS, stop)
        rows = zip(range(low, high), points[low:high])
        handle.write("".join([f"{i},{a!r},{b!r},{o!r}\n" for i, (a, b, o) in rows]).encode())


def _write_slices(handle, spill_dir: Path, points: Sequence[Tuple[float, float, float]],
                  slices: int) -> None:
    """Write all rows in equal slices: the first here, each other one by a forked child.

    A child writes its slice into an unnamed spill file in spill_dir; the
    spills are appended in order once their children exit. Every child is
    reaped, and on an error in this process first killed. One slice forks nothing.
    """
    import os
    import shutil
    import signal
    import tempfile

    bounds = [len(points) * k // slices for k in range(slices + 1)]
    spills, pids = [], []  # pids holds the children not yet reaped
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            spills.append(tempfile.TemporaryFile(dir=spill_dir))
            pids.append(_fork_rows(spills[-1], points, start, stop))
        _write_rows(handle, points, 0, bounds[1])
        for spill in spills:
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if 0 < status < 255:
                raise OSError(status, os.strerror(status))
            if status != 0:
                raise OSError(f"trace formatting process ended with status {status}")
            spill.seek(0)
            shutil.copyfileobj(spill, handle)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for spill in spills:
            spill.close()


def _fork_rows(spill, points: Sequence[Tuple[float, float, float]], start: int, stop: int) -> int:
    """Fork a child that writes rows start..stop-1 into spill; return its pid.

    The child leaves by os._exit, with status 0, the errno of an OSError it
    met, or 255 for any other failure.
    """
    import os

    pid = os.fork()
    if pid:
        return pid
    status = 255
    try:
        _write_rows(spill, points, start, stop)
        spill.flush()
        status = 0
    except OSError as exc:
        if exc.errno and exc.errno < 255:
            status = exc.errno
    finally:
        os._exit(status)


def run_year(runner, record: CostRecord, config: OptimizerConfig, command: str,
             trace_dir=None) -> OptimResult:
    """runner(record, config) with the year prefixed to its errors.

    When trace_dir is given the run records its trajectory, which is written to
    trace_dir/<command>_<year>.csv and not returned: the result's trajectory is
    empty. An OSError from creating the directory or writing the file is raised
    as a DataValidationError naming the path.
    """
    if trace_dir is not None:
        config = dataclasses.replace(config, record_trajectory=True)
    try:
        result = runner(record, config)
    except EconModelError as exc:
        raise type(exc)(f"year {record.year}: {exc}") from exc
    if trace_dir is not None:
        path = Path(trace_dir) / f"{command}_{record.year}.csv"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_trace(path, result.trajectory)
        except OSError as exc:
            raise DataValidationError(
                f"cannot write trace {exc.filename or path}: {exc.strerror or exc}") from None
        result.trajectory = []
    return result


def profit_row(max_rev: float, min_cost: float, min_cost_linear: float) -> Dict[str, float]:
    """One profit-table row: revenue minus the Cobb-Douglas and the linear cost."""
    for name, value in (("max_rev", max_rev), ("min_cost", min_cost),
                        ("min_cost_linear", min_cost_linear)):
        check_domain(name, value, "non-negative", ParameterError)
    return {
        "max_rev_cd": max_rev,
        "min_cost_cd": min_cost,
        "profit_cd": max_rev - min_cost,
        "min_cost_linear": min_cost_linear,
        "profit_linear": max_rev - min_cost_linear,
    }


def profit_table(records: Sequence[CostRecord], config: OptimizerConfig,
                 linear_weights: Mapping[int, Tuple[float, float]],
                 trace_dir=None) -> Dict[int, Dict[str, float]]:
    """Per-year profit rows: ascent revenue minus descent cost, plus the linear-cost variant.

    linear_weights maps year -> (w1, w2) for the linear comparison column. With
    trace_dir, each run's trace is written there as revenue_max_<year>.csv or
    cost_min_<year>.csv (see run_year).
    """
    if not records:
        raise ParameterError("records must be non-empty")
    missing = [r.year for r in records if r.year not in linear_weights]
    if missing:
        raise DataValidationError(f"linear weights missing for years {missing}")
    rows: Dict[int, Dict[str, float]] = {}
    for record in sorted(records, key=lambda r: r.year):
        revenue = run_year(sga_revenue_max, record, config, "revenue_max", trace_dir)
        cost = run_year(sgd_cost_min, record, config, "cost_min", trace_dir)
        w1, w2 = linear_weights[record.year]
        cost_linear = linear_cost(w1, w2, record.server_cost, record.power_cooling_cost)
        rows[record.year] = profit_row(revenue.objective, cost.objective, cost_linear)
    return rows


def run_table(command: str, records: Sequence[CostRecord], config: OptimizerConfig,
              linear_weights: Optional[Mapping[int, Tuple[float, float]]] = None,
              trace_dir=None) -> RunReport:
    """Run one optimizer command over a year series and assemble the report.

    command is one of cost_min, revenue_max, profit. Traces are written as one
    CSV per run and year when trace_dir is given. For profit, linear_weights
    defaults to the bundled reference weights for reference years.
    """
    from . import reference

    if not records:
        raise ParameterError("records must be non-empty")
    records = sorted(records, key=lambda r: r.year)
    if trace_dir is not None:
        config = dataclasses.replace(config, record_trajectory=True)
    resolved = dataclasses.asdict(config.resolved())

    if command in ("cost_min", "revenue_max"):
        if command == "cost_min":
            runner, key, table = sgd_cost_min, "min_cost", "cost-minimization table"
        else:
            runner, key, table = sga_revenue_max, "max_revenue", "revenue-maximization table"
        rows = []
        for record in records:
            result = run_year(runner, record, config, command, trace_dir)
            rows.append({"year": record.year, "alpha": result.alpha, "beta": result.beta,
                         key: result.objective, "iterations": result.iterations,
                         "terminated_by": result.terminated_by.value})
    elif command == "profit":
        table = "profit table"
        weights = {r.year: reference.LINEAR_COST_TABLE[r.year][:2] for r in records
                   if r.year in reference.LINEAR_COST_TABLE}
        weights.update(linear_weights or {})
        per_year = profit_table(records, config, weights, trace_dir)
        rows = [{"year": year, **row} for year, row in per_year.items()]
    else:
        raise ParameterError(f"unknown command {command!r}")

    comparable = all(r.year in reference.YEARS for r in records)
    return RunReport(command=command, config=resolved, rows=rows, reference_note=(
        f"comparable to the bundled reference {table}" if comparable else None))


def reference_profit_report(records: Sequence[CostRecord]) -> RunReport:
    """The profit report of the bundled reference objectives, not of fresh optimizer runs.

    Only the years of records are read, and each must be a reference year. The
    CD profit is the reference maximum revenue minus the reference minimum
    cost; the linear cost is w1*L + w2*K at that year's reference weights and costs.
    """
    from . import reference

    years = sorted({r.year for r in records})
    missing = [year for year in years if year not in reference.YEARS]
    if missing:
        raise DataValidationError(f"reference mode has no data for years {missing}")
    rows = []
    for year in years:
        record, (w1, w2, _) = reference.COST_RECORDS[year], reference.LINEAR_COST_TABLE[year]
        rows.append({"year": year, **profit_row(
            reference.MAX_REVENUE_TABLE[year].objective, reference.MIN_COST_TABLE[year].objective,
            linear_cost(w1, w2, record.server_cost, record.power_cooling_cost))})
    return RunReport(command="profit", config={}, rows=rows,
                     warnings=["profit computed from bundled reference objectives, not fresh runs"],
                     reference_note="comparable to the bundled reference profit table")
