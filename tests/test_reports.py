import csv
import errno
import io
import json
import math
import os
import tracemalloc
from pathlib import Path

import pytest

from dcecon import reference, reports
from dcecon.cli import main
from dcecon.errors import DataValidationError, EconModelError, ParameterError
from dcecon.optimizers import OptimizerConfig, sgd_cost_min
from dcecon.production import CostRecord
from dcecon.reports import (TRACE_SLICE_ROWS, RunReport, ingest_costs, ingest_shares,
                            ingest_weights, parse_number, read_by_year, read_numeric_csv,
                            record_row, reference_profit_report, run_table)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

FAST_CONFIG = OptimizerConfig(seed=0, max_iters=1500, record_trajectory=False)


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return target


class TestIngest:
    def test_bundled_dataset(self):
        records = ingest_costs(DATA_DIR / "tables.csv")
        assert [r.year for r in records] == [1997, 2002, 2009, 2012]
        assert records[0] == CostRecord(1997, 65.0, 5.0)
        assert records[-1] == CostRecord(2012, 60.0, 40.0)

    def test_rows_sorted_by_year(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "year,new_server_cost,power_cooling_cost\n2012,60,40\n1997,65,5\n")
        assert [r.year for r in ingest_costs(path)] == [1997, 2012]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            ingest_costs(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="empty"):
            ingest_costs(write(tmp_path, "c.csv", ""))

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "c.csv", "year,new_server_cost,power_cooling_cost\n")
        with pytest.raises(DataValidationError, match="no data rows"):
            ingest_costs(path)

    def test_wrong_header(self, tmp_path):
        path = write(tmp_path, "c.csv", "year,server,power\n1997,65,5\n")
        with pytest.raises(DataValidationError, match="expected header"):
            ingest_costs(path)

    def test_extra_columns_allowed(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "year,new_server_cost,power_cooling_cost,note\n1997,65,5,x\n")
        assert ingest_costs(path) == [CostRecord(1997, 65.0, 5.0)]

    @pytest.mark.parametrize("row", ["1997,65", "1997,65,5,1"])
    def test_ragged_row_rejected(self, tmp_path, row):
        path = write(tmp_path, "c.csv",
                     f"year,new_server_cost,power_cooling_cost\n2002,45,15\n{row}\n")
        with pytest.raises(DataValidationError, match=":3: expected 3 fields"):
            ingest_costs(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cost_rejected(self, tmp_path, value):
        path = write(tmp_path, "c.csv",
                     f"year,new_server_cost,power_cooling_cost\n1997,65,{value}\n")
        with pytest.raises(DataValidationError, match=":2: non-finite .* 'power_cooling_cost'"):
            ingest_costs(path)

    def test_malformed_row_names_line_number(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "year,new_server_cost,power_cooling_cost\n1997,65,5\n2002,x,15\n")
        with pytest.raises(DataValidationError, match=":3:"):
            ingest_costs(path)

    def test_nonpositive_cost_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "year,new_server_cost,power_cooling_cost\n1997,0,5\n")
        with pytest.raises(DataValidationError,
                           match=":2: new_server_cost must be strictly positive, got 0.0$"):
            ingest_costs(path)

    def test_duplicate_year_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "year,new_server_cost,power_cooling_cost\n1997,65,5\n1997,64,6\n")
        with pytest.raises(DataValidationError, match="duplicate year"):
            ingest_costs(path)

    @pytest.mark.parametrize("header", [
        "year,new_server_cost,power_cooling_cost,new_server_cost",
        "year, new_server_cost,power_cooling_cost,new_server_cost ",
        "new_server_cost,year,new_server_cost,power_cooling_cost",
    ])
    def test_column_named_twice_rejected(self, tmp_path, header):
        # the last copy used to win: 1997,65,5,1 ran at L = 1
        path = write(tmp_path, "c.csv", f"{header}\n1997,65,5,1\n")
        with pytest.raises(DataValidationError) as raised:
            ingest_costs(path)
        assert str(raised.value) == f"{path}: column 'new_server_cost' appears twice in the header"

    def test_empty_header_cells_may_repeat(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "year,new_server_cost,,power_cooling_cost,\n1997,65,,5,\n")
        assert ingest_costs(path) == [CostRecord(1997, 65.0, 5.0)]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbfyear,new_server_cost,power_cooling_cost\n1997,65,5\n")
        assert ingest_costs(path) == [CostRecord(1997, 65.0, 5.0)]

    def test_latin1_file_is_not_utf8(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"firm,share_percent\n\xc9tat,50\n")
        with pytest.raises(DataValidationError) as raised:
            ingest_shares(path)
        assert str(raised.value) == f"cannot read {path}: not UTF-8 text (invalid continuation byte)"

    def test_bundled_files_hold_the_reference_data(self):
        # each value is written both in data/ and in dcecon.reference
        assert ingest_costs(DATA_DIR / "tables.csv") == list(reference.COST_RECORDS.values())
        assert ingest_weights(DATA_DIR / "linear_weights.csv") == {
            year: (w1, w2) for year, (w1, w2, _) in reference.LINEAR_COST_TABLE.items()}
        apac = ingest_shares(DATA_DIR / "apac_shares.csv")
        assert tuple(entry.share for entry in apac.entries) == reference.APAC_SHARES
        with pytest.warns(UserWarning):  # the IaaS shares sum to 100.1
            iaas = ingest_shares(DATA_DIR / "iaas_shares.csv")
        assert tuple((entry.firm, entry.share) for entry in iaas.entries) == reference.IAAS_SHARES


class TestRunReport:
    def sample(self):
        return RunReport(
            command="cost_min",
            config={"seed": 3, "learning_rate": 0.01},
            rows=[{"year": 1997, "min_cost": 2.5}, {"year": 2002, "min_cost": 3.0}],
            warnings=["example"],
            reference_note="note",
            summary={"total": 5.5},
        )

    def test_json_round_trip_is_lossless(self):
        report = self.sample()
        assert RunReport(**json.loads(report.render())) == report

    def test_json_is_valid_and_complete(self):
        payload = json.loads(self.sample().render("json"))
        assert payload["command"] == "cost_min"
        assert payload["config"]["seed"] == 3
        assert len(payload["rows"]) == 2

    def test_csv_view_contains_rows_only(self):
        text = self.sample().render("csv")
        lines = text.strip().splitlines()
        assert lines[0] == "year,min_cost"
        assert len(lines) == 3
        assert "seed" not in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError):
            self.sample().render("yaml")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused_with_its_field(self, fmt, value):
        report = self.sample()
        report.rows[1]["min_cost"] = value
        with pytest.raises(EconModelError, match=r"report field rows\[1\]\.min_cost$"):
            report.render(fmt)
        report = self.sample()
        report.summary = {"nested": [1.0, {"x": value}]}
        with pytest.raises(EconModelError, match=r"report field summary\.nested\[1\]\.x$"):
            report.render(fmt)


class TestRunTable:
    def records(self):
        return ingest_costs(DATA_DIR / "tables.csv")

    def test_cost_min_rows(self):
        report = run_table("cost_min", self.records(), FAST_CONFIG)
        assert report.command == "cost_min"
        assert [row["year"] for row in report.rows] == [1997, 2002, 2009, 2012]
        for row in report.rows:
            assert row["min_cost"] > 0
            assert row["alpha"] > 0 and row["beta"] > 0
        assert report.reference_note is not None
        assert report.config["init_alpha"] is not None

    def test_revenue_max_rows(self):
        report = run_table("revenue_max", self.records(), FAST_CONFIG)
        for row in report.rows:
            assert row["terminated_by"] == "cap_reached"
            assert row["alpha"] + row["beta"] < 1.8

    def test_profit_rows_use_bundled_weights_by_default(self):
        report = run_table("profit", self.records(), FAST_CONFIG)
        for row in report.rows:
            year = row["year"]
            w1, w2, _ = reference.LINEAR_COST_TABLE[year]
            record = reference.COST_RECORDS[year]
            expected = w1 * record.server_cost + w2 * record.power_cooling_cost
            assert row["min_cost_linear"] == pytest.approx(expected)
            assert row["profit_cd"] == pytest.approx(row["max_rev_cd"] - row["min_cost_cd"])

    def test_profit_reference_mode_reproduces_reference_rows(self):
        # the costs of the records are not read: each row is the reference year's
        records = [CostRecord(2009, 1.0, 2.0), CostRecord(1997, 3.0, 4.0)]
        report = reference_profit_report(records)
        assert (report.command, report.config) == ("profit", {})
        assert [row["year"] for row in report.rows] == [1997, 2009]
        for row in report.rows:
            year = row["year"]
            record = reference.COST_RECORDS[year]
            w1, w2, _ = reference.LINEAR_COST_TABLE[year]
            assert row == {"year": year, **reports.profit_row(
                reference.MAX_REVENUE_TABLE[year].objective,
                reference.MIN_COST_TABLE[year].objective,
                w1 * record.server_cost + w2 * record.power_cooling_cost)}
        assert report.warnings == [
            "profit computed from bundled reference objectives, not fresh runs"]
        assert report.reference_note == "comparable to the bundled reference profit table"

    def test_reference_mode_rejects_unknown_years(self):
        with pytest.raises(DataValidationError,
                           match=r"^reference mode has no data for years \[1890\]$"):
            reference_profit_report([CostRecord(1890, 5, 5), CostRecord(1997, 5, 5)])

    def test_profit_needs_weights_for_unknown_years(self):
        with pytest.raises(DataValidationError,
                           match=r"^linear weights missing for years \[1890\]$"):
            run_table("profit", [CostRecord(1890, 5, 5)], FAST_CONFIG)

    def test_unknown_command_rejected(self):
        with pytest.raises(ParameterError):
            run_table("maximize_vibes", self.records(), FAST_CONFIG)

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            run_table("cost_min", [], FAST_CONFIG)

    def test_note_absent_for_foreign_years(self):
        report = run_table("cost_min", [CostRecord(1890, 5.0, 4.0)], FAST_CONFIG)
        assert report.reference_note is None

    def test_trace_files_written(self, tmp_path):
        records = self.records()[:2]
        report = run_table("cost_min", records, FAST_CONFIG, trace_dir=tmp_path)
        for record, row in zip(records, report.rows):
            trace = tmp_path / f"cost_min_{record.year}.csv"
            assert trace.exists()
            lines = trace.read_text().strip().splitlines()
            assert lines[0] == "iteration,alpha,beta,objective"
            # initial point plus one line per accepted iteration
            assert len(lines) == row["iterations"] + 2

    def test_profit_trace_writes_both_optimizers(self, tmp_path):
        records = self.records()[:1]
        run_table("profit", records, FAST_CONFIG, trace_dir=tmp_path)
        assert (tmp_path / "cost_min_1997.csv").exists()
        assert (tmp_path / "revenue_max_1997.csv").exists()

    def test_profit_table_writes_the_traces_run_table_writes(self, tmp_path):
        records = self.records()[:2]
        run_table("profit", records, FAST_CONFIG, trace_dir=tmp_path / "run_table")
        weights = {r.year: reference.LINEAR_COST_TABLE[r.year][:2] for r in records}
        # FAST_CONFIG records no trajectory: a trace_dir alone makes the runs record one
        reports.profit_table(records, FAST_CONFIG, weights, trace_dir=tmp_path / "profit_table")
        names = sorted(p.name for p in (tmp_path / "run_table").iterdir())
        assert names == ["cost_min_1997.csv", "cost_min_2002.csv",
                         "revenue_max_1997.csv", "revenue_max_2002.csv"]
        assert sorted(p.name for p in (tmp_path / "profit_table").iterdir()) == names
        for name in names:
            trace = (tmp_path / "profit_table" / name).read_bytes()
            assert trace.count(b"\n") > 2
            assert trace == (tmp_path / "run_table" / name).read_bytes()

    def test_traced_run_year_returns_no_points(self, tmp_path):
        result = reports.run_year(sgd_cost_min, self.records()[0], FAST_CONFIG, "cost_min",
                                  tmp_path)
        assert result.trajectory == []
        lines = (tmp_path / "cost_min_1997.csv").read_bytes().splitlines()
        assert len(lines) == result.iterations + 2

    def test_traced_years_hold_one_trajectory_at_a_time(self, tmp_path):
        # 6,001 rows are below 2 * TRACE_SLICE_ROWS, so no forked child formats a slice
        # that tracemalloc would not see
        config = OptimizerConfig(seed=3, max_iters=6000)
        peaks = []
        for count in (1, 2):
            tracemalloc.start()
            try:
                run_table("cost_min", self.records()[:count], config,
                          trace_dir=tmp_path / str(count))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_run_year_into_an_unwritable_trace_dir_is_data_error(self, tmp_path):
        trace_dir = write(tmp_path, "taken", "") / "traces"
        with pytest.raises(DataValidationError) as raised:
            reports.run_year(sgd_cost_min, self.records()[0], FAST_CONFIG, "cost_min", trace_dir)
        assert str(raised.value) == (f"cannot write trace {trace_dir}: "
                                     f"{os.strerror(errno.ENOTDIR)}")


def csv_writer_trace(trajectory) -> bytes:
    """A trace file as csv.writer wrote it before rows were formatted directly."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["iteration", "alpha", "beta", "objective"])
    writer.writerows((i, *point) for i, point in enumerate(trajectory))
    return buffer.getvalue().encode()


@pytest.fixture
def forks(monkeypatch):
    """Count the os.fork calls made in this process."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def full_disk(monkeypatch, in_children: bool):
    """Make trace row writes fail with ENOSPC in the forked children or in this process."""
    parent = os.getpid()
    write_rows = reports._write_rows

    def failing(handle, points, start, stop):
        if (os.getpid() != parent) == in_children:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_rows(handle, points, start, stop)
    monkeypatch.setattr(reports, "_write_rows", failing)


class TestParallelTraceWriter:
    # a descent on these costs runs all max_iters steps: one row each, plus the start
    RECORD = CostRecord(1997, 65.0, 5.0)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows", [3 * TRACE_SLICE_ROWS + 5, 2 * TRACE_SLICE_ROWS - 1, 2],
                             ids=["above", "just-below", "two-points"])
    def test_trace_is_byte_identical_on_any_cpu_count(self, tmp_path, monkeypatch, forks,
                                                      cpus, rows):
        use_cpus(monkeypatch, cpus)
        config = OptimizerConfig(seed=3, max_iters=rows - 1, record_trajectory=True)
        run_table("cost_min", [self.RECORD], config, trace_dir=tmp_path)
        expected = csv_writer_trace(sgd_cost_min(self.RECORD, config).trajectory)
        assert expected.count(b"\n") == rows + 1
        assert (tmp_path / "cost_min_1997.csv").read_bytes() == expected
        slices = min(cpus, rows // TRACE_SLICE_ROWS) if rows >= 2 * TRACE_SLICE_ROWS else 1
        assert len(forks) == slices - 1
        assert [p.name for p in tmp_path.iterdir()] == ["cost_min_1997.csv"]
        assert_no_children()

    def test_without_fork_a_trace_is_written_in_one_slice(self, tmp_path, monkeypatch, forks):
        # as on Windows, which has no os.fork
        use_cpus(monkeypatch, 3)
        config = OptimizerConfig(seed=3, max_iters=3 * TRACE_SLICE_ROWS + 4,
                                 record_trajectory=True)
        run_table("cost_min", [self.RECORD], config, trace_dir=tmp_path / "forked")
        assert len(forks) == 2
        monkeypatch.delattr(os, "fork")
        run_table("cost_min", [self.RECORD], config, trace_dir=tmp_path / "unforked")
        assert len(forks) == 2
        assert ((tmp_path / "unforked" / "cost_min_1997.csv").read_bytes()
                == (tmp_path / "forked" / "cost_min_1997.csv").read_bytes())
        assert_no_children()

    @pytest.mark.parametrize("cpus, slices", [(None, 1), (1, 1), (2, 2), (3, 3)])
    def test_without_cpu_affinity_the_cpu_count_sets_the_slices(self, tmp_path, monkeypatch,
                                                                 forks, cpus, slices):
        # as on macOS, which has no os.sched_getaffinity; os.cpu_count() may be None
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        config = OptimizerConfig(seed=3, max_iters=3 * TRACE_SLICE_ROWS + 4,
                                 record_trajectory=True)
        run_table("cost_min", [self.RECORD], config, trace_dir=tmp_path)
        assert len(forks) == slices - 1
        assert ((tmp_path / "cost_min_1997.csv").read_bytes()
                == csv_writer_trace(sgd_cost_min(self.RECORD, config).trajectory))
        assert_no_children()

    def test_failing_child_is_one_line_data_error(self, tmp_path, monkeypatch, capsys):
        use_cpus(monkeypatch, 3)
        full_disk(monkeypatch, in_children=True)
        costs = write(tmp_path, "costs.csv", "year,new_server_cost,power_cooling_cost\n1997,65,5\n")
        trace_dir = tmp_path / "trace"
        code = main(["cost-min", "--input", str(costs), "--trace", str(trace_dir),
                     "--max-iters", str(3 * TRACE_SLICE_ROWS)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == (f"data error: cannot write trace {trace_dir / 'cost_min_1997.csv'}: "
                       f"{os.strerror(errno.ENOSPC)}\n")
        assert list(trace_dir.iterdir()) == []
        assert_no_children()

    def test_failing_parent_kills_and_reaps_children(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        full_disk(monkeypatch, in_children=False)
        config = OptimizerConfig(seed=3, max_iters=2 * TRACE_SLICE_ROWS)
        with pytest.raises(DataValidationError, match="No space left on device$"):
            run_table("cost_min", [self.RECORD], config, trace_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert_no_children()

    def test_existing_file_as_trace_dir_is_one_line_data_error(self, tmp_path, capsys):
        taken = write(tmp_path, "taken", "")
        code = main(["cost-min", "--input", str(DATA_DIR / "tables.csv"), "--max-iters", "100",
                     "--trace", str(taken)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"data error: cannot write trace {taken}: File exists\n"


class TestReadNumericCsv:
    def test_reads_columns(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        data = read_numeric_csv(path, ["a", "b"])
        assert data == {"a": [1.0, 3.0], "b": [2.0, 4.0]}

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n")
        with pytest.raises(DataValidationError, match="missing columns"):
            read_numeric_csv(path, ["a", "c"])

    def test_non_numeric_value_names_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\nx,4\n")
        with pytest.raises(DataValidationError, match=":3:"):
            read_numeric_csv(path, ["a", "b"])

    def test_non_finite_value_names_line_and_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,NaN\n")
        with pytest.raises(DataValidationError, match=":3: non-finite value 'NaN' in column 'b'"):
            read_numeric_csv(path, ["a", "b"])

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataValidationError, match=":3: expected 2 fields, got 1"):
            read_numeric_csv(path, ["a", "b"])

    def test_blank_rows_skipped(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n\n3,4\n")
        assert read_numeric_csv(path, ["a", "b"]) == {"a": [1.0, 3.0], "b": [2.0, 4.0]}

    def test_column_asked_for_twice_is_read_once(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        assert read_numeric_csv(path, ["b", "a", "b"]) == {"b": [2.0, 4.0], "a": [1.0, 3.0]}


class TestReadByYear:
    def test_keyed_by_year_in_year_order(self, tmp_path):
        path = write(tmp_path, "w.csv", "year,w1,w2\n2002,0.5,1\n1997,0,2e-3\n")
        assert ingest_weights(path) == {1997: (0.0, 0.002), 2002: (0.5, 1.0)}
        assert list(ingest_weights(DATA_DIR / "linear_weights.csv")) == [1997, 2002, 2009, 2012]

    @pytest.mark.parametrize("year", ["1997.9", "1997.0", "1e3", "x"])
    def test_year_must_be_an_integer(self, tmp_path, year):
        path = write(tmp_path, "w.csv", f"year,w1\n2002,1\n{year},1\n")
        with pytest.raises(DataValidationError,
                           match=f":3: non-numeric value '{year}' in column 'year'$"):
            read_by_year(path, ["w1"], "non-negative")


class TestParseNumber:
    @pytest.mark.parametrize("cell, kind, domain, value", [
        ("-2.5", float, "finite", -2.5),
        ("0", float, "non-negative", 0.0),
        ("1e-300", float, "positive", 1e-300),
        ("100", float, "percent", 100.0),
        ("1997", int, "finite", 1997),
    ])
    def test_value_in_domain(self, cell, kind, domain, value):
        parsed = parse_number("f.csv", 4, {"x": cell}, "x", kind, domain)
        assert (parsed, type(parsed)) == (value, kind)

    @pytest.mark.parametrize("cell, domain, message", [
        ("0", "positive", "x must be strictly positive, got 0.0"),
        ("-1e-300", "non-negative", "x must be non-negative, got -1e-300"),
        ("100.5", "percent", "x must lie in [0, 100], got 100.5"),
        ("-5", "percent", "x must lie in [0, 100], got -5.0"),
        # finiteness is checked before the domain
        ("nan", "positive", "non-finite value 'nan' in column 'x'"),
        ("-inf", "percent", "non-finite value '-inf' in column 'x'"),
        ("1,5", "percent", "non-numeric value '1,5' in column 'x'"),
    ])
    def test_value_outside_domain_names_file_line_and_column(self, cell, domain, message):
        with pytest.raises(DataValidationError) as raised:
            parse_number("f.csv", 4, {"x": cell}, "x", domain=domain)
        assert str(raised.value) == f"f.csv:4: {message}"

    def test_numeric_csv_takes_a_domain(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,-4\n")
        assert read_numeric_csv(path, ["a", "b"]) == {"a": [1.0, 3.0], "b": [2.0, -4.0]}
        with pytest.raises(DataValidationError, match=":3: b must be strictly positive"):
            read_numeric_csv(path, ["a", "b"], "positive")


class TestIngestShares:
    def test_bundled_files(self):
        apac = ingest_shares(DATA_DIR / "apac_shares.csv")
        assert [e.share for e in apac.entries] == list(reference.APAC_SHARES)
        assert all(e.included for e in apac.entries)
        with pytest.warns(UserWarning, match="included shares sum to 100.1.* > 100$"):
            iaas = ingest_shares(DATA_DIR / "iaas_shares.csv")
        assert [(e.firm, e.share, e.included) for e in iaas.entries][:2] == [
            ("AWS", 27.2, True), ("vendor_2", 16.6, True)]
        assert len(iaas.entries) == 7 and all(e.included for e in iaas.entries)

    def test_included_values_in_any_case(self, tmp_path):
        cells = ["true", "TRUE", "Yes", "1", "", " no ", "False", "0"]
        rows = "".join(f"f{i},1,{cell}\n" for i, cell in enumerate(cells))
        shares = ingest_shares(write(tmp_path, "s.csv", "firm,share_percent,included\n" + rows))
        assert [e.included for e in shares.entries] == [True] * 5 + [False] * 3

    @pytest.mark.parametrize("cell", ["ture", "y", "2", "on", "none"])
    def test_other_included_value_rejected(self, tmp_path, cell):
        path = write(tmp_path, "s.csv", f"firm,share_percent,included\na,50,true\nb,10,{cell}\n")
        with pytest.raises(DataValidationError) as raised:
            ingest_shares(path)
        assert str(raised.value) == (f"{path}:3: included must be true/false, 1/0 or yes/no, "
                                     f"got {cell!r}")

    @pytest.mark.parametrize("share", ["-5", "120", "100.000001"])
    def test_share_outside_percent_rejected(self, tmp_path, share):
        path = write(tmp_path, "s.csv", f"firm,share_percent\na,{share}\n")
        with pytest.raises(DataValidationError) as raised:
            ingest_shares(path)
        assert str(raised.value) == (f"{path}:2: share_percent must lie in [0, 100], "
                                     f"got {float(share)}")

    def test_included_sum_above_limit_names_the_file(self, tmp_path):
        path = write(tmp_path, "s.csv", "firm,share_percent,included\na,60,1\nb,50,yes\n"
                                        "c,70,no\n")
        with pytest.raises(DataValidationError) as raised:
            ingest_shares(path)
        assert str(raised.value) == f"{path}: included shares sum to 110.0, above 101.0"

    def test_excluded_shares_may_sum_above_limit(self, tmp_path):
        path = write(tmp_path, "s.csv", "firm,share_percent,included\na,60,1\nb,50,0\n")
        assert [e.included for e in ingest_shares(path).entries] == [True, False]


def test_record_row_keeps_declaration_order_and_drops_none():
    from dcecon.closed_form import ProfitSolution

    row = record_row(ProfitSolution(A=1.0, B=2.0, output=3.0, profit=0.5))
    assert list(row.items()) == [("A", 1.0), ("B", 2.0), ("output", 3.0), ("profit", 0.5)]
