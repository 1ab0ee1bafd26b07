"""Dataset ingestion and run reports.

A RunReport is the canonical, reproducible record of one CLI invocation: the
command, the fully resolved configuration (seed and initialization pinned), the
per-year result rows, any warnings, and a note naming the bundled reference
table the run is comparable to. JSON is the canonical encoding and round-trips
losslessly; CSV is a lossy convenience view of the rows.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DataValidationError, EconModelError, ParameterError
from .optimizers import (Observer, OptimizerConfig, OptimResult, profit_table, run_year,
                         sga_revenue_max, sgd_cost_min)
from .production import CostRecord

COST_HEADER = ["year", "new_server_cost", "power_cooling_cost"]


def read_rows(path, columns: Sequence[str]) -> List[Tuple[int, Dict[str, str]]]:
    """Read a headed CSV into (line number, row) pairs, checking its shape.

    The file must exist and its header must name every one of columns (extra
    columns are allowed). Every data row must have as many fields as the
    header; blank rows are skipped. Values stay strings, see parse_number.
    """
    if not Path(path).exists():
        raise DataValidationError(f"input file not found: {path}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [cell.strip() for cell in next(reader, [])]
        if not any(header):
            raise DataValidationError(f"{path}: empty file")
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
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    return rows


def parse_number(path, line: int, row: Mapping[str, str], column: str,
                 kind: Callable[[str], float] = float) -> float:
    """Parse row[column] as a finite number; errors name file:line and the column."""
    try:
        value = kind(row[column])
    except ValueError:
        raise DataValidationError(
            f"{path}:{line}: non-numeric value {row[column]!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise DataValidationError(
            f"{path}:{line}: non-finite value {row[column]!r} in column {column!r}")
    return value


def ingest_costs(path) -> List[CostRecord]:
    """Parse and validate a `year,new_server_cost,power_cooling_cost` CSV, sorted by year."""
    records: Dict[int, CostRecord] = {}
    for line, row in read_rows(path, COST_HEADER):
        year = parse_number(path, line, row, "year", int)
        server = parse_number(path, line, row, "new_server_cost")
        power = parse_number(path, line, row, "power_cooling_cost")
        if server <= 0 or power <= 0:
            raise DataValidationError(
                f"{path}:{line}: costs must be strictly positive, got ({server}, {power})")
        if year in records:
            raise DataValidationError(f"{path}:{line}: duplicate year {year}")
        records[year] = CostRecord(year=year, server_cost=server, power_cooling_cost=power)
    return [records[year] for year in sorted(records)]


def read_numeric_csv(path, columns: Sequence[str]) -> Dict[str, List[float]]:
    """Read named numeric columns from a CSV with a header row."""
    data: Dict[str, List[float]] = {c: [] for c in columns}
    for line, row in read_rows(path, columns):
        for column in columns:
            data[column].append(parse_number(path, line, row, column))
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

    def to_json(self) -> str:
        # vars(self) holds the fields in declaration order; dataclasses.asdict would deep-copy them
        return json.dumps(vars(self), indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        payload = json.loads(text)
        return cls(command=payload["command"], config=payload["config"], rows=payload["rows"],
                   warnings=payload.get("warnings", []),
                   reference_note=payload.get("reference_note"), summary=payload.get("summary"))

    def to_csv(self) -> str:
        """Rows only (no config, warnings, or nested structures)."""
        buffer = io.StringIO()
        if self.rows:
            writer = csv.DictWriter(buffer, fieldnames=list(self.rows[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(self.rows)
        return buffer.getvalue()

    def render(self, fmt: str = "json") -> str:
        """The report as JSON or CSV; a NaN or infinite value anywhere is an error."""
        field_name = _non_finite_field(vars(self))
        if field_name is not None:
            raise EconModelError(f"non-finite value in report field {field_name}")
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ParameterError(f"unknown format {fmt!r}")


def _non_finite_field(value, path: str = "") -> Optional[str]:
    """Path (such as rows[0].objective) of the first NaN or infinity in value, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    for item_path, item in items:
        found = _non_finite_field(item, item_path)
        if found is not None:
            return found
    return None


def _trace_writer(trace_dir) -> Observer:
    """Observer that writes each run's trajectory to trace_dir/<command>_<year>.csv."""
    trace_dir = Path(trace_dir)

    def write(command: str, year: int, result: OptimResult) -> None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        with (trace_dir / f"{command}_{year}.csv").open("w", newline="") as handle:
            # float reprs hold no comma or quote, so these are the rows csv.writer writes
            handle.write("iteration,alpha,beta,objective\n")
            handle.writelines(f"{i},{alpha!r},{beta!r},{objective!r}\n"
                              for i, (alpha, beta, objective) in enumerate(result.trajectory))
    return write


def _reference_note(records: Sequence[CostRecord], table: str) -> Optional[str]:
    from . import reference

    if all(r.year in reference.YEARS for r in records):
        return f"comparable to the bundled reference {table}"
    return None


def run_table(command: str, records: Sequence[CostRecord], config: OptimizerConfig,
              linear_weights: Optional[Mapping[int, Tuple[float, float]]] = None,
              trace_dir=None, use_reference: bool = False) -> RunReport:
    """Run one optimizer command over a year series and assemble the report.

    command is one of cost_min, revenue_max, profit. Traces are written as one
    CSV per run and year when trace_dir is given. For profit, use_reference
    swaps fresh optimizer runs for the bundled reference objectives, and
    linear_weights defaults to the bundled reference weights for reference years.
    """
    if not records:
        raise ParameterError("records must be non-empty")
    records = sorted(records, key=lambda r: r.year)
    observe = None
    if trace_dir is not None:
        config = dataclasses.replace(config, record_trajectory=True)
        observe = _trace_writer(trace_dir)
    resolved = dataclasses.asdict(config.resolved())
    rows: List[Dict] = []
    warnings: List[str] = []

    if command in ("cost_min", "revenue_max"):
        if command == "cost_min":
            runner, key, table = sgd_cost_min, "min_cost", "cost-minimization table"
        else:
            runner, key, table = sga_revenue_max, "max_revenue", "revenue-maximization table"
        note = _reference_note(records, table)
        for record in records:
            result = run_year(runner, record, config, observe, command)
            rows.append({"year": record.year, "alpha": result.alpha, "beta": result.beta,
                         key: result.objective, "iterations": result.iterations,
                         "terminated_by": result.terminated_by.value})
    elif command == "profit":
        from . import reference

        note = _reference_note(records, "profit table")
        if use_reference:
            missing = [r.year for r in records if r.year not in reference.YEARS]
            if missing:
                raise ParameterError(f"reference mode has no data for years {missing}")
            all_rows = reference.reference_profit_rows()
            per_year = {r.year: all_rows[r.year] for r in records}
            warnings.append("profit computed from bundled reference objectives, not fresh runs")
        else:
            weights = {r.year: reference.LINEAR_COST_TABLE[r.year][:2] for r in records
                       if r.year in reference.LINEAR_COST_TABLE}
            weights.update(linear_weights or {})
            per_year = profit_table(records, config, weights, observe)
        rows = [{"year": year, **per_year[year]} for year in sorted(per_year)]
    else:
        raise ParameterError(f"unknown command {command!r}")

    return RunReport(command=command, config=resolved, rows=rows,
                     warnings=warnings, reference_note=note)
