import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dcecon import reference
from dcecon.cli import main
from dcecon.reports import reference_profit_report

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
SRC_DIR = ROOT / "src"

FAST = ["--max-iters", "1500"]
# the flags every closed form takes, with values that have an interior profit maximum
CLOSED_FLAGS = ("--w1", "1", "--w2", "1", "--recurring", "1", "--infrastructure", "1",
                "--alpha", "0.25", "--beta", "0.25")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, cwd, stdout=subprocess.PIPE, **kwargs):
    """Run `python -m dcecon` in a fresh process, stderr on a pipe.

    PYTHONUNBUFFERED is dropped from the environment, so output sits in the
    streams' buffers until the process flushes them, as in a user's shell.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dcecon", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, **kwargs)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "maximize-vibes")
        assert code == 1
        assert "usage error" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "cost-min")
        assert code == 1

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,new_server_cost,power_cooling_cost\n1997,sixty,5\n")
        code, _, err = run_cli(capsys, "cost-min", "--input", str(bad), *FAST)
        assert code == 2
        assert "data error" in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "cost-min", "--input", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_degenerate_problem_is_numerical_error(self, capsys):
        code, _, err = run_cli(
            capsys, "profit-max-closed", "--w1", "1", "--w2", "1",
            "--recurring", "1", "--infrastructure", "1", "--alpha", "0.7", "--beta", "0.6")
        assert code == 3
        assert "numerical error" in err

    @pytest.mark.parametrize("argv", [
        ("sfa", "--S", "2", "--I", "3", "--alpha", "0.5", "--beta", "0.5",
         "--intercept", "800", "--synthesize", "2"),
        ("profit-max-closed", "--w1", "1e-300", "--w2", "1e-300", "--recurring", "1",
         "--infrastructure", "1", "--alpha", "0.45", "--beta", "0.5"),
    ], ids=["sfa-synthesize", "profit-max-closed"])
    def test_float_overflow_is_numerical_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "numerical error: math range error\n"

    @pytest.mark.parametrize("argv, message", [
        (("cost-min", "--learning-rate", "nan"), "learning_rate must be strictly positive, got nan"),
        (("revenue-max", "--cap", "nan"), "cap must be strictly positive, got nan"),
        (("cost-min", "--init-alpha", "nan"), "init_alpha must be strictly positive, got nan"),
        (("revenue-max", "--init-beta", "inf"), "init_beta must be finite, got inf"),
    ], ids=["learning-rate", "cap", "init-alpha", "init-beta"])
    def test_non_finite_optimizer_parameter_is_numerical_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--input", str(DATA_DIR / "tables.csv"))
        assert code == 3
        assert out == ""
        assert err == f"numerical error: {message}\n"

    def test_kernel_overflow_names_the_year(self, tmp_path, capsys):
        costs = tmp_path / "costs.csv"
        costs.write_text("year,new_server_cost,power_cooling_cost\n2000,1e300,1e300\n")
        code, out, err = run_cli(capsys, "revenue-max", "--input", str(costs),
                                 "--init-alpha", "0.6", "--init-beta", "0.6")
        assert code == 3
        assert out == ""
        assert err == "numerical error: year 2000: math range error\n"

    def test_nan_closed_form_input_is_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "profit-max-closed", "--w1", "nan", "--w2", "1", "--recurring", "1",
            "--infrastructure", "1", "--alpha", "0.25", "--beta", "0.25")
        assert code == 3
        assert out == ""
        assert err == "numerical error: w1 must be strictly positive, got nan\n"

    @pytest.mark.parametrize("argv, message", [
        (("revenue-max-closed", "--budget", "inf", "--w1", "1", "--w2", "2", "--recurring", "2",
          "--infrastructure", "1", "--alpha", "2", "--beta", "1"), "m must be finite, got inf"),
        (("cost-min-closed", "--target-output", "5", "--w1", "1", "--w2", "1", "--recurring",
          "1", "--infrastructure", "inf", "--alpha", "0.5", "--beta", "0.5"),
         "I must be finite, got inf"),
        (("profit-max-closed", "--w1", "1", "--w2", "1", "--recurring", "1",
          "--infrastructure", "1", "--alpha", "0.25", "--beta", "0.25", "--discount-rate", "inf",
          "--harrod-capital", "3", "--solow-labor", "6", "--alpha1", "0.4", "--beta1", "0.3"),
         "r must be finite, got inf"),
    ], ids=["budget", "infrastructure", "discount-rate"])
    def test_infinite_closed_form_input_is_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"numerical error: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_numerical_error(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "revenue-max-closed", "--budget", "1e300", "--w1", "1e-300",
            "--w2", "1e-300", "--recurring", "1e300", "--infrastructure", "1e300",
            "--alpha", "0.9", "--beta", "0.9", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err == "numerical error: non-finite result objective = inf\n"

    def test_closed_form_underflow_is_numerical_error(self, capsys):
        code, out, err = run_cli(
            capsys, "revenue-max-closed", "--budget", "1e-300", "--w1", "1e300", "--w2", "1",
            "--recurring", "1", "--infrastructure", "1", "--alpha", "0.5", "--beta", "0.5")
        assert code == 3
        assert out == ""
        assert err == ("numerical error: effective inputs underflow to 0: "
                       "A*R = 0.0, B*I = 5e-301\n")

    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "hhi", "--input", str(DATA_DIR / "apac_shares.csv"))
        assert code == 0
        assert out

    @pytest.mark.parametrize("argv, flag", [
        (("hhi", "--input", str(DATA_DIR / "apac_shares.csv")), "--seed"),
        (("fit", "--input", str(DATA_DIR / "tables.csv")), "--seed"),
        (("revenue-max-closed", "--budget", "6", *CLOSED_FLAGS), "--seed"),
        (("cost-min-closed", "--target-output", "6", *CLOSED_FLAGS), "--seed"),
        (("profit-max-closed", *CLOSED_FLAGS), "--seed"),
        (("cost-min", "--input", str(DATA_DIR / "tables.csv")), "--cap"),
    ], ids=["hhi-seed", "fit-seed", "revenue-max-closed-seed", "cost-min-closed-seed",
            "profit-max-closed-seed", "cost-min-cap"])
    def test_flag_that_changes_nothing_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, flag, "1.5")
        assert code == 1
        assert out == ""
        assert err == f"usage error: unrecognized arguments: {flag} 1.5\n"

    def test_library_warning_lands_in_the_report(self, monkeypatch, capsys):
        from dcecon import closed_form

        profit_max = closed_form.profit_max

        def warning_profit_max(*args, **kwargs):
            warnings.warn("a library warning")
            return profit_max(*args, **kwargs)

        monkeypatch.setattr(closed_form, "profit_max", warning_profit_max)
        code, out, err = run_cli(capsys, "profit-max-closed", *CLOSED_FLAGS)
        assert code == 0
        assert err == ""
        assert json.loads(out)["warnings"] == ["a library warning"]


# closed-form products that underflow to 0 and fits whose numpy arithmetic overflows
ONE_LINE_ERRORS = {
    "revenue-max-underflowing-price": (
        "revenue-max-closed", "--budget", "1", "--w1", "1e-300", "--w2", "1",
        "--recurring", "1e-300", "--infrastructure", "1", "--alpha", "0.5", "--beta", "0.5"),
    "cost-min-underflowing-log": (
        "cost-min-closed", "--target-output", "1", "--w1", "1", "--w2", "1e-200",
        "--recurring", "1", "--infrastructure", "1", "--alpha", "1e-200", "--beta", "0.5"),
    "fit-qp-overflow": ("fit", "--input", "huge.csv", "--scale", "raw",
                        "--constrained", str(DATA_DIR / "constraints_rts.csv")),
    "fit-ols-overflow": ("fit", "--input", "ols_huge.csv", "--scale", "raw"),
}


@pytest.mark.parametrize("argv", list(ONE_LINE_ERRORS.values()), ids=list(ONE_LINE_ERRORS))
def test_numerical_failure_is_one_line_on_stderr(tmp_path, argv):
    (tmp_path / "huge.csv").write_text("new_server_cost,power_cooling_cost,output\n"
                                       "1e200,2e200,3e200\n2e200,1e200,4e200\n"
                                       "3e200,5e200,2e200\n4e200,3e200,6e200\n")
    (tmp_path / "ols_huge.csv").write_text("new_server_cost,power_cooling_cost,output\n"
                                           "1,2,1e160\n4,3,3e160\n9,1,2e160\n7,8,5e160\n")
    proc = run_module(*argv, cwd=tmp_path, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical error: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr


class TestOptimizerCommands:
    def test_cost_min_json(self, capsys):
        code, out, _ = run_cli(capsys, "cost-min", "--input", str(DATA_DIR / "tables.csv"),
                               "--seed", "3", *FAST)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "cost_min"
        assert len(payload["rows"]) == 4
        assert payload["config"]["seed"] == 3

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "cost-min", "--input", str(DATA_DIR / "tables.csv"),
                               "--format", "csv", *FAST)
        assert code == 0
        assert out.splitlines()[0].startswith("year,alpha,beta,min_cost")

    def test_mode_changes_trajectory(self, capsys):
        _, out_marginal, _ = run_cli(capsys, "cost-min", "--input", str(DATA_DIR / "tables.csv"),
                                     "--mode", "marginal", "--seed", "1", *FAST)
        _, out_analytic, _ = run_cli(capsys, "cost-min", "--input", str(DATA_DIR / "tables.csv"),
                                     "--mode", "analytic", "--seed", "1", *FAST)
        rows_m = json.loads(out_marginal)["rows"]
        rows_a = json.loads(out_analytic)["rows"]
        assert rows_m != rows_a

    def test_profit_reference_mode_matches_reference_table(self, capsys):
        code, out, _ = run_cli(capsys, "profit", "--input", str(DATA_DIR / "tables.csv"),
                               "--reference")
        assert code == 0
        payload = json.loads(out)
        expected = reference_profit_report(list(reference.COST_RECORDS.values()))
        assert payload["config"] == {}
        assert payload["rows"] == expected.rows
        assert payload["warnings"] == expected.warnings

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "3"), ("--learning-rate", "0.1"), ("--mode", "analytic"), ("--cap", "1.5"),
        ("--max-iters", "5"), ("--init-alpha", "0.3"), ("--init-beta", "0.3"),
        ("--trace", None),
    ])
    def test_reference_mode_refuses_the_flags_of_a_run(self, tmp_path, capsys, flag, value):
        trace = tmp_path / "trace"
        code, out, err = run_cli(capsys, "profit", "--input", str(DATA_DIR / "tables.csv"),
                                 "--reference", flag, value or str(trace))
        assert (code, out) == (1, "")
        assert err == f"usage error: {flag} is not read with --reference\n"
        assert not trace.exists()

    def test_profit_with_explicit_weights(self, capsys):
        code, out, _ = run_cli(capsys, "profit", "--input", str(DATA_DIR / "tables.csv"),
                               "--weights", str(DATA_DIR / "linear_weights.csv"), *FAST)
        assert code == 0
        payload = json.loads(out)
        for row in payload["rows"]:
            w1, w2, _ = reference.LINEAR_COST_TABLE[row["year"]]
            record = reference.COST_RECORDS[row["year"]]
            assert row["min_cost_linear"] == pytest.approx(
                w1 * record.server_cost + w2 * record.power_cooling_cost)

    @pytest.mark.parametrize("rows, line, message", [
        ("1997,0.015,0.655\n1997.9,0.015,0.505\n", 3,
         "non-numeric value '1997.9' in column 'year'"),
        ("1997,0.015,0.655\n2002,0.015,0.505\n1997,0.02,0.4\n", 4, "duplicate year 1997"),
        ("1997,0.015,-0.655\n", 2, "w2 must be non-negative, got -0.655"),
    ], ids=["fractional-year", "repeated-year", "negative-weight"])
    def test_bad_weights_file_is_data_error(self, tmp_path, capsys, rows, line, message):
        weights = tmp_path / "weights.csv"
        weights.write_text("year,w1,w2\n" + rows)
        code, out, err = run_cli(capsys, "profit", "--input", str(DATA_DIR / "tables.csv"),
                                 "--weights", str(weights), *FAST)
        assert code == 2
        assert out == ""
        assert err == f"data error: {weights}:{line}: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        ((), "linear weights missing for years [1890]"),
        (("--reference",), "reference mode has no data for years [1890]"),
    ], ids=["no-weights", "reference"])
    def test_profit_year_without_data_is_data_error(self, tmp_path, capsys, flags, message):
        costs = tmp_path / "costs.csv"
        costs.write_text("year,new_server_cost,power_cooling_cost\n1890,65,5\n")
        code, out, err = run_cli(capsys, "profit", "--input", str(costs), *flags)
        assert (code, out) == (2, "")
        assert err == f"data error: {message}\n"

    def test_weights_and_reference_are_exclusive(self, capsys):
        code, out, err = run_cli(capsys, "profit", "--input", str(DATA_DIR / "tables.csv"),
                                 "--weights", str(DATA_DIR / "linear_weights.csv"),
                                 "--reference")
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--reference" in err

    def test_profit_trace_matches_single_runs(self, tmp_path, capsys):
        common = ("--input", str(DATA_DIR / "tables.csv"), "--seed", "3", *FAST)
        _, profit_out, _ = run_cli(capsys, "profit", *common, "--trace", str(tmp_path / "p"))
        _, cost_out, _ = run_cli(capsys, "cost-min", *common, "--trace", str(tmp_path / "s"))
        _, revenue_out, _ = run_cli(capsys, "revenue-max", *common,
                                    "--trace", str(tmp_path / "s"))
        names = sorted(p.name for p in (tmp_path / "p").iterdir())
        assert len(names) == 8
        assert names == sorted(p.name for p in (tmp_path / "s").iterdir())
        for name in names:
            assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()
        rows = zip(json.loads(profit_out)["rows"], json.loads(cost_out)["rows"],
                   json.loads(revenue_out)["rows"])
        for profit, cost, revenue in rows:
            assert profit["year"] == cost["year"] == revenue["year"]
            assert profit["max_rev_cd"] == revenue["max_revenue"]
            assert profit["min_cost_cd"] == cost["min_cost"]

    def test_trace_writes_files(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "revenue-max", "--input", str(DATA_DIR / "tables.csv"),
                             "--trace", str(tmp_path), *FAST)
        assert code == 0
        assert (tmp_path / "revenue_max_1997.csv").exists()
        header = (tmp_path / "revenue_max_1997.csv").read_text().splitlines()[0]
        assert header == "iteration,alpha,beta,objective"


class TestClosedFormCommands:
    def test_revenue_max_closed(self, capsys):
        code, out, _ = run_cli(capsys, "revenue-max-closed", "--budget", "6", "--w1", "1",
                               "--w2", "2", "--recurring", "2", "--infrastructure", "1",
                               "--alpha", "2", "--beta", "1")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["A"] == pytest.approx(2.0)
        assert row["objective"] == pytest.approx(16.0)

    def test_cost_min_closed_with_rd_backout(self, capsys):
        code, out, _ = run_cli(capsys, "cost-min-closed", "--target-output", "16",
                               "--w1", "1", "--w2", "4", "--recurring", "1",
                               "--infrastructure", "1", "--alpha", "0.5", "--beta", "0.5",
                               "--discount-rate", "1.05", "--harrod-capital", "3",
                               "--solow-labor", "6", "--alpha1", "0.4", "--beta1", "0.3")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["objective"] == pytest.approx(64.0)
        assert row["L_star"] > 0 and row["K_star"] > 0

    def test_partial_rd_flags_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "cost-min-closed", "--target-output", "16",
                             "--w1", "1", "--w2", "4", "--recurring", "1",
                             "--infrastructure", "1", "--alpha", "0.5", "--beta", "0.5",
                             "--discount-rate", "1.05")
        assert code == 1

    def test_profit_max_closed(self, capsys):
        code, out, _ = run_cli(capsys, "profit-max-closed", "--w1", "1", "--w2", "1",
                               "--recurring", "1", "--infrastructure", "1",
                               "--alpha", "0.25", "--beta", "0.25")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["output"] == pytest.approx(0.25)
        assert row["profit"] == pytest.approx(0.125)


class TestSfaCommand:
    def test_recovery_mode(self, capsys):
        y = math.exp(0.5 + 0.3 * math.log(58) + 0.7 * math.log(30) + 0.05 - 0.2)
        code, out, _ = run_cli(capsys, "sfa", "--S", "58", "--I", "30",
                               "--intercept", "0.5", "--shock", "0.05",
                               "--inefficiency", "0.2", "--output", str(y))
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["alpha"] == pytest.approx(0.3, abs=1e-9)
        assert summary["beta"] == pytest.approx(0.7, abs=1e-9)

    def test_recovery_singular_inputs_is_numerical_error(self, capsys):
        code, _, _ = run_cli(capsys, "sfa", "--S", "30", "--I", "30", "--output", "5")
        assert code == 3

    def test_synthesis_mode_is_seeded(self, capsys):
        args = ("sfa", "--S", "9", "--I", "16", "--alpha", "0.4", "--beta", "0.6",
                "--sigma-v", "0.2", "--sigma-u", "0.1", "--synthesize", "5",
                "--seed", "11")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        rows = json.loads(first)["rows"]
        assert len(rows) == 5
        for row in rows:
            assert row["u"] >= 0
            assert row["efficiency"] == pytest.approx(math.exp(-row["u"]))

    def test_synthesis_needs_elasticities(self, capsys):
        code, _, err = run_cli(capsys, "sfa", "--S", "9", "--I", "16", "--synthesize", "5")
        assert (code, err) == (1, "usage error: synthesis mode needs --alpha\n")

    @pytest.mark.parametrize("argv, message", [
        (("--synthesize", "5", "--alpha", "0.4"), "synthesis mode needs --beta"),
        (("--synthesize", "5", "--beta", "0.6"), "synthesis mode needs --alpha"),
        ((), "recovery mode needs --output"),
        # a flag of the other mode is refused before a missing one is named
        (("--synthesize", "5", "--n", "1"), "--n is not read in synthesis mode"),
    ])
    def test_each_missing_flag_is_named(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "sfa", "--S", "9", "--I", "16", *argv)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_synthesis_count_below_one_is_rejected(self, capsys, count):
        code, out, err = run_cli(capsys, "sfa", "--S", "9", "--I", "16", "--alpha", "0.4",
                                 "--beta", "0.6", "--synthesize", count)
        assert (code, out) == (3, "")
        assert err == f"numerical error: count must be an integer of at least 1, got {count}\n"

    @pytest.mark.parametrize("argv, flag, mode", [
        (("--output", "20", "--seed", "3"), "--seed", "recovery"),
        (("--output", "20", "--alpha", "0.6", "--beta", "0.3"), "--alpha", "recovery"),
        (("--output", "20", "--sigma-u", "0.1"), "--sigma-u", "recovery"),
        (("--synthesize", "2", "--alpha", "0.4", "--beta", "0.6", "--n", "1"), "--n", "synthesis"),
        (("--synthesize", "2", "--alpha", "0.4", "--beta", "0.6", "--output", "20"), "--output",
         "synthesis"),
        (("--synthesize", "2", "--alpha", "0.4", "--beta", "0.6", "--shock", "0"), "--shock",
         "synthesis"),
    ], ids=["recovery-seed", "recovery-alpha", "recovery-sigma-u", "synthesis-n",
            "synthesis-output", "synthesis-shock"])
    def test_flag_of_the_other_mode_is_usage_error(self, capsys, argv, flag, mode):
        code, out, err = run_cli(capsys, "sfa", "--S", "9", "--I", "16", *argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: {flag} is not read in {mode} mode\n"

    @pytest.mark.parametrize("flag, value, key", [("--shock", "-1e-05", "v"),
                                                  ("--intercept", "-2.5E+3", "intercept")])
    def test_negative_value_in_exponent_form_is_read_as_a_value(self, capsys, flag, value, key):
        # repr writes a small float in exponent form, which argparse took for a flag
        argv = ("sfa", "--S", "2", "--I", "3", "--output", "10")
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"][key] == float(value)
        assert run_cli(capsys, *argv, f"{flag}={value}") == (0, out, "")

    def test_each_mode_echoes_only_the_flags_it_reads(self, capsys):
        _, out, _ = run_cli(capsys, "sfa", "--S", "9", "--I", "16", "--output", "20")
        assert json.loads(out)["config"] == {"intercept": 0.0, "n": 1.0, "S": 9.0, "I": 16.0,
                                             "y": 20.0, "v": 0.0, "u": 0.0}
        _, out, _ = run_cli(capsys, "sfa", "--S", "9", "--I", "16", "--alpha", "0.4",
                            "--beta", "0.6", "--synthesize", "2")
        assert json.loads(out)["config"] == {"intercept": 0.0, "S": 9.0, "I": 16.0, "seed": 0,
                                             "alpha": 0.4, "beta": 0.6, "sigma_v": 0.0,
                                             "sigma_u": 0.0, "count": 2}


class TestFitCommand:
    def make_csv(self, tmp_path, intercept=0.8, alpha=0.3, beta=0.5, noise=0.0, n=12):
        rng = np.random.default_rng(42)
        S = rng.uniform(5, 80, size=n)
        P = rng.uniform(5, 80, size=n)
        y = np.exp(intercept + alpha * np.log(S) + beta * np.log(P)
                   + rng.normal(0, noise, size=n))
        path = tmp_path / "fit.csv"
        lines = ["new_server_cost,power_cooling_cost,output"]
        lines += [f"{s},{p},{v}" for s, p, v in zip(S, P, y)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_ols_fit_recovers_coefficients(self, tmp_path, capsys):
        path = self.make_csv(tmp_path)
        code, out, _ = run_cli(capsys, "fit", "--input", str(path))
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["intercept"] == pytest.approx(0.8, abs=1e-8)
        assert summary["alpha"] == pytest.approx(0.3, abs=1e-8)
        assert summary["beta"] == pytest.approx(0.5, abs=1e-8)
        assert summary["r_squared"] == pytest.approx(1.0)

    def test_constrained_fit_hits_scale_boundary(self, tmp_path, capsys):
        path = self.make_csv(tmp_path, alpha=0.9, beta=0.6, noise=0.02)
        code, out, _ = run_cli(capsys, "fit", "--input", str(path),
                               "--constrained", str(DATA_DIR / "constraints_rts.csv"))
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["alpha"] + summary["beta"] == pytest.approx(1.0, abs=1e-8)

    def test_constrained_fit_without_intercept_drops_the_intercept_column(self, tmp_path,
                                                                          capsys):
        path = self.make_csv(tmp_path, intercept=0.0, alpha=0.9, beta=0.6, noise=0.02)
        constraints = DATA_DIR / "constraints_rts.csv"
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--no-intercept",
                                 "--constrained", str(constraints))
        assert code == 0
        assert err == ""
        summary = json.loads(out)["summary"]
        assert summary["intercept"] == 0.0
        # the block is written over (K', alpha, beta), and K' is 0 without an intercept
        block = np.loadtxt(constraints, delimiter=",", skiprows=1, ndmin=2)
        x = np.array([0.0, summary["alpha"], summary["beta"]])
        assert np.all(block[:, :3] @ x <= block[:, 3] + 1e-10)
        assert summary["alpha"] + summary["beta"] == pytest.approx(1.0, abs=1e-8)

    def test_constrained_fit_overflowing_in_the_qp_is_named(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("new_server_cost,power_cooling_cost,output\n"
                        "1e200,2e200,3e200\n2e200,1e200,4e200\n"
                        "3e200,5e200,2e200\n4e200,3e200,6e200\n")
        with np.errstate(over="ignore"):  # A^T A overflows to inf
            code, out, err = run_cli(capsys, "fit", "--input", str(path), "--scale", "raw",
                                     "--constrained", str(DATA_DIR / "constraints_rts.csv"))
        assert code == 3
        assert out == ""
        assert err == "numerical error: QP H has non-finite entries\n"

    def test_raw_scale_fit(self, tmp_path, capsys):
        path = tmp_path / "raw.csv"
        rows = ["new_server_cost,power_cooling_cost,output"]
        rng = np.random.default_rng(7)
        for _ in range(10):
            x1, x2 = rng.uniform(1, 50), rng.uniform(1, 50)
            rows.append(f"{x1},{x2},{2.0 + 3.0 * x1 + 4.0 * x2}")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--scale", "raw")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["alpha"] == pytest.approx(3.0, abs=1e-8)
        assert summary["beta"] == pytest.approx(4.0, abs=1e-8)

    def test_raw_scale_constrained_fit_on_costs_in_the_thousands(self, tmp_path, capsys):
        # H = A^T A has entries near 1e9, so the KKT residuals round far above 1e-8
        rng = np.random.default_rng(11)
        a, b = rng.uniform(1000, 9000, size=(2, 50))
        y = 3.0 + 0.8 * a + 0.7 * b + rng.normal(0.0, 40.0, size=50)
        path = tmp_path / "raw_costs.csv"
        path.write_text("new_server_cost,power_cooling_cost,output\n"
                        + "".join(f"{u},{v},{w}\n" for u, v, w in zip(a, b, y)))
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--scale", "raw",
                                 "--constrained", str(DATA_DIR / "constraints_rts.csv"))
        assert (code, err) == (0, "")
        summary = json.loads(out)["summary"]
        # the oracle: OLS breaks alpha + beta <= 1, so the optimum lies on alpha + beta = 1,
        # where y - b = K' + alpha (a - b) is an ordinary least-squares problem
        A = np.column_stack([np.ones(50), a, b])
        assert np.linalg.lstsq(A, y, rcond=None)[0][1:].sum() > 1.0
        (intercept, alpha), *_ = np.linalg.lstsq(np.column_stack([np.ones(50), a - b]), y - b,
                                                 rcond=None)
        assert 0.0 <= alpha <= 1.0
        assert summary["intercept"] == pytest.approx(intercept, rel=1e-9)
        assert summary["alpha"] == pytest.approx(alpha, rel=1e-9)
        assert summary["beta"] == pytest.approx(1.0 - alpha, rel=1e-9)

    def test_raw_scale_constrained_fit_with_a_bound_at_zero(self, tmp_path, capsys):
        # alpha >= 0 and alpha + beta <= 1 bind, so alpha = 0, beta = 1 and K' = mean(y - P);
        # complementary slackness sized by |C_i x| + |b_i| refused this point (exit 3)
        rng = random.Random(8)
        a, b = rng.uniform(-1, 3), rng.uniform(-1, 3)
        rows = []
        for _ in range(50):
            S, P = round(rng.uniform(1000, 9000)), round(rng.uniform(1000, 9000))
            rows.append((S, P, round(3 + a * S + b * P + rng.gauss(0, 900), 2)))
        path = tmp_path / "raw_costs.csv"
        path.write_text(FIT_HEADER + "".join(f"{S},{P},{y}\n" for S, P, y in rows))
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--scale", "raw",
                                 "--constrained", str(DATA_DIR / "constraints_rts.csv"))
        assert (code, err) == (0, "")
        summary = json.loads(out)["summary"]
        assert summary["intercept"] == pytest.approx(math.fsum(y - P for _, P, y in rows) / 50,
                                                     rel=1e-9)
        assert summary["alpha"] == 0.0
        assert summary["alpha"] + summary["beta"] == pytest.approx(1.0, abs=1e-12)

    def test_column_named_twice_is_read_once(self, tmp_path, capsys):
        path = self.make_csv(tmp_path)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--x1", "output",
                                 "--x2", "power_cooling_cost", "--target", "output")
        assert (code, err) == (0, "")
        summary = json.loads(out)["summary"]
        assert summary["alpha"] == pytest.approx(1.0)
        assert summary["r_squared"] == pytest.approx(1.0)

    def test_one_regressor_named_twice_is_rank_deficient(self, tmp_path, capsys):
        path = self.make_csv(tmp_path)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--x1", "new_server_cost",
                                 "--x2", "new_server_cost")
        assert (code, out) == (3, "")
        assert err == "numerical error: design matrix is rank deficient (rank 2 of 3)\n"

    def test_one_regressor_named_twice_is_rank_deficient_under_constraints(self, tmp_path,
                                                                          capsys):
        # alpha + beta <= 1 holds the fit to one split of the shared column's effect, which
        # the data do not identify
        path = self.make_csv(tmp_path, alpha=0.9, beta=0.6)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--x1", "new_server_cost",
                                 "--x2", "new_server_cost",
                                 "--constrained", str(DATA_DIR / "constraints_rts.csv"))
        assert (code, out) == (3, "")
        assert err == "numerical error: design matrix is rank deficient (rank 2 of 3)\n"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_value_on_the_log_scale_is_data_error(self, tmp_path, capsys, value):
        path = tmp_path / "fit.csv"
        path.write_text(FIT_HEADER + f"5,7,25\n12,{value},47\n20,33,209\n41,18,282\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"data error: {path}:3: power_cooling_cost must be strictly positive, "
                       f"got {float(value)}\n")
        # the raw scale takes the logarithm of nothing
        assert run_cli(capsys, "fit", "--input", str(path), "--scale", "raw")[0] == 0

    def test_missing_target_column_is_data_error(self, tmp_path, capsys):
        path = self.make_csv(tmp_path)
        code, _, _ = run_cli(capsys, "fit", "--input", str(path), "--target", "profit")
        assert code == 2


class TestHhiCommand:
    def test_apac_shares(self, capsys):
        code, out, _ = run_cli(capsys, "hhi", "--input", str(DATA_DIR / "apac_shares.csv"))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["hhi"] == pytest.approx(1708.0)
        assert payload["summary"]["classification"] == "moderate"
        assert len(payload["rows"]) == 8

    def test_excluded_entries_do_not_contribute(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("firm,share_percent,included\na,50,true\nb,50,false\n")
        code, out, _ = run_cli(capsys, "hhi", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["hhi"] == pytest.approx(2500.0)

    def test_ragged_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("firm,share_percent\na,50\nb,30,extra\n")
        code, out, err = run_cli(capsys, "hhi", "--input", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:3:" in err

    def test_bad_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("name,pct\na,50\n")
        code, _, _ = run_cli(capsys, "hhi", "--input", str(path))
        assert code == 2

    def test_included_in_any_case_and_empty_means_true(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("firm,share_percent,included\na,30,YES\nb,40,False\nc,20,\nd,10,0\n")
        code, out, _ = run_cli(capsys, "hhi", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert [row["included"] for row in payload["rows"]] == [True, False, True, False]
        assert payload["summary"]["hhi"] == 1300.0

    def test_no_included_firm_prints_a_float_index(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("firm,share_percent,included\na,50,false\nb,30,no\n")
        code, out, _ = run_cli(capsys, "hhi", "--input", str(path))
        assert code == 0
        assert '"hhi": 0.0,' in out
        assert json.loads(out)["summary"] == {"hhi": 0.0, "classification": "competitive"}

    def test_included_shares_above_the_limit_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("firm,share_percent\na,60\nb,50\n")
        code, out, err = run_cli(capsys, "hhi", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"data error: {path}: included shares sum to 110.0, above 101.0\n"

    def test_included_shares_with_an_index_above_10000_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("firm,share_percent\na,100\nb,1\n")
        code, out, err = run_cli(capsys, "hhi", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"data error: {path}: included shares give an index of 10001.0, "
                       f"above 10000\n")


COST_HEADER = "year,new_server_cost,power_cooling_cost\n"
FIT_HEADER = "new_server_cost,power_cooling_cost,output\n"
FIT_ROWS = "5,7,25.1\n12,6,47.9\n20,33,209.0\n41,18,282.5\n"


@pytest.mark.parametrize("command, text, line, column", [
    (("revenue-max", *FAST), COST_HEADER + "1997,65,5\n2002,nan,15\n", 3, "new_server_cost"),
    (("revenue-max", "--format", "csv", *FAST), COST_HEADER + "1997,65,inf\n", 2,
     "power_cooling_cost"),
    (("hhi",), "firm,share_percent\na,50\nb,nan\n", 3, "share_percent"),
    (("fit",), FIT_HEADER + "10,20,30\n11,nan,31\n12,22,33\n13,23,37\n", 3,
     "power_cooling_cost"),
], ids=["nan-cost", "inf-cost", "nan-share", "nan-fit"])
def test_non_finite_input_is_data_error(tmp_path, capsys, command, text, line, column):
    path = tmp_path / "input.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, *command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("data error: ")
    assert f"{path}:{line}:" in err
    assert repr(column) in err


# each command ends with the flag that takes the bad file; "{fit}" is a good fit file
@pytest.mark.parametrize("command, text, line, column", [
    (("cost-min", *FAST, "--input"), COST_HEADER + "1997,65,5\n2002,0,15\n", 3,
     "new_server_cost"),
    (("profit", "--input", str(DATA_DIR / "tables.csv"), *FAST, "--weights"),
     "year,w1,w2\n1997,x,0.5\n", 2, "w1"),
    (("fit", "--input"), FIT_HEADER + FIT_ROWS + "12,6,0\n", 6, "output"),
    (("fit", "--input", "{fit}", "--constrained"), "c1,c2,c3,b\n0,1,1,1\n0,-1,0,zero\n", 3,
     "b"),
    (("hhi", "--input"), "firm,share_percent,included\na,50,true\nb,30,ture\n", 3,
     "included"),
    (("hhi", "--input"), "firm,share_percent\na,50\nb,-5\n", 3, "share_percent"),
    (("hhi", "--input"), "firm,share_percent\na,120\n", 2, "share_percent"),
], ids=["costs", "weights", "fit-data-log-scale", "constraint-block", "shares-included",
        "shares-negative", "shares-above-100"])
def test_bad_cell_in_any_input_file_is_one_data_error_line(tmp_path, capsys, command, text,
                                                          line, column):
    fit = tmp_path / "fit.csv"
    fit.write_text(FIT_HEADER + FIT_ROWS)
    path = tmp_path / "input.csv"
    path.write_text(text)
    argv = [str(fit) if arg == "{fit}" else arg for arg in command]
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"data error: {path}:{line}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert f" {column} " in err or f"{column!r}" in err, err


# each command ends with the flag that takes the file, whose header is given;
# "{fit}" is a good fit file
INPUT_FILES = {
    "costs": (("cost-min", *FAST, "--input"), COST_HEADER),
    "weights": (("profit", "--input", str(DATA_DIR / "tables.csv"), *FAST, "--weights"),
                "year,w1,w2\n"),
    "fit-data": (("fit", "--input"), FIT_HEADER),
    "constraints": (("fit", "--input", "{fit}", "--constrained"), "c1,c2,c3,b\n"),
    "shares": (("hhi", "--input"), "firm,share_percent\n"),
}


@pytest.mark.parametrize("kind", list(INPUT_FILES))
@pytest.mark.parametrize("failure", ["directory", "not-utf-8", "field-over-csv-limit"])
def test_unreadable_input_file_is_one_data_error_line(tmp_path, capsys, kind, failure):
    command, header = INPUT_FILES[kind]
    fit = tmp_path / "fit.csv"
    fit.write_text(FIT_HEADER + FIT_ROWS)
    path = tmp_path / "input.csv"
    if failure == "directory":
        path.mkdir()
        message = f"cannot read {path}: Is a directory"
    elif failure == "not-utf-8":
        path.write_bytes(header.encode() + b"\xff,1,2,3\n")
        message = f"cannot read {path}: not UTF-8 text (invalid start byte)"
    else:
        path.write_text(header + "1" * 131_073 + "\n")
        message = f"{path}:2: field larger than field limit (131072)"
    argv = [str(fit) if arg == "{fit}" else arg for arg in command]
    assert run_cli(capsys, *argv, str(path)) == (2, "", f"data error: {message}\n")


class TestProcessEntry:
    """`python -m dcecon` ends by os._exit after flushing stdout and stderr itself."""

    def test_large_stdout_is_flushed_whole(self, tmp_path, capsys):
        argv = ("sfa", "--S", "9", "--I", "16", "--alpha", "0.6", "--beta", "0.3",
                "--sigma-v", "0.1", "--sigma-u", "0.2", "--synthesize", "1000", "--seed", "3")
        proc = run_module(*argv, cwd=tmp_path)
        code, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stderr) == (code, b"") == (0, b"")
        assert len(proc.stdout) > 64 * 1024
        assert proc.stdout == out.encode()

    # exit 3 runs the same way in test_numerical_failure_is_one_line_on_stderr
    @pytest.mark.parametrize("argv, code, prefix", [
        (("cost-min",), 1, b"usage error: "),
        (("cost-min", "--input", "missing.csv"), 2, b"data error: "),
    ], ids=["usage", "data"])
    def test_error_exit_prints_one_stderr_line(self, tmp_path, argv, code, prefix):
        proc = run_module(*argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert proc.stderr.startswith(prefix)
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n"), proc.stderr

    def test_forked_trace_files_match_an_in_process_run(self, tmp_path, capsys):
        # 10,001 rows per year: two slices, one of them formatted by a forked
        # child, wherever two CPUs are usable
        argv = ("cost-min", "--input", str(DATA_DIR / "tables.csv"), "--seed", "7",
                "--max-iters", "10000", "--trace")
        proc = run_module(*argv, str(tmp_path / "fresh"), cwd=tmp_path)
        code, out, _ = run_cli(capsys, *argv, str(tmp_path / "in_process"))
        assert (proc.returncode, proc.stderr) == (code, b"") == (0, b"")
        assert proc.stdout == out.encode()
        names = sorted(path.name for path in (tmp_path / "in_process").iterdir())
        assert len(names) == 4
        assert names == sorted(path.name for path in (tmp_path / "fresh").iterdir())
        for name in names:
            trace = (tmp_path / "fresh" / name).read_bytes()
            assert trace.count(b"\n") == 10_002
            assert trace == (tmp_path / "in_process" / name).read_bytes()

    def test_forked_settles_match_an_in_process_run(self, tmp_path, capsys):
        # each year's default 1M-iteration descent settles beta in a forked child
        # wherever two CPUs are usable
        argv = ("cost-min", "--input", str(DATA_DIR / "tables.csv"), "--seed", "7")
        proc = run_module(*argv, cwd=tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stderr) == (code, err.encode()) == (0, b"")
        assert proc.stdout == out.encode()

    def test_closed_stdout_exits_120(self, tmp_path):
        # the reader is gone before the command writes: the flush fails with
        # EPIPE, and the interpreter's own exit path reports it with status 120
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module("hhi", "--input", str(DATA_DIR / "apac_shares.csv"),
                              cwd=tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert b"BrokenPipeError" in proc.stderr

    def test_import_runs_nothing_and_keeps_gc(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import gc, sys\nimport dcecon.__main__\n"
             "print(gc.isenabled(), 'dcecon.cli' in sys.modules)"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True False\n", "")

    def test_console_script_shares_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"dcecon": "dcecon.__main__:run"}
