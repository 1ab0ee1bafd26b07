"""The exit-code contract of cli.main, checked over generated argv and CSV contents.

Every invocation either exits 0 with a strict JSON report (no NaN or Infinity)
or a CSV view free of non-finite values, or exits 1, 2 or 3 with one line on
stderr and nothing on stdout. No exception escapes main. Optimizer runs are
capped at 1,000 iterations so that every example stays fast.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from dcecon.cli import main

# flag values and CSV cells: plausible positive numbers, or anything number-like,
# extreme, non-finite or malformed
PLAUSIBLE = st.floats(0.05, 3).map(repr)
ANY = st.one_of(
    PLAUSIBLE,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 3000).map(str),
    st.sampled_from(["0", "-1", "1e400", "-1e400", "nan", "inf", "1e-320", "1e300", "x", "",
                     "true", " ", '"']),
)
# the bundled reference years (which need no profit weights) or any other
REFERENCE_YEAR = st.sampled_from(["1997", "2002", "2009", "2012"])
YEAR = st.one_of(REFERENCE_YEAR, st.integers(1990, 2030).map(str))
# clean values for the flags that PLAUSIBLE would mostly make invalid
CLEAN_VALUES = {
    "--seed": st.integers(0, 2**32).map(str),
    "--alpha": st.floats(0.05, 0.6).map(repr),
    "--beta": st.floats(0.05, 0.6).map(repr),
    "--alpha1": st.floats(0.05, 0.95).map(repr),
    "--beta1": st.floats(0.05, 0.95).map(repr),
}
MAX_ITERS = st.one_of(st.integers(1, 1000).map(str), st.sampled_from(["0", "-3", "x"]))

HEADERS = {
    "costs": "year,new_server_cost,power_cooling_cost",
    "weights": "year,w1,w2",
    "fit": "new_server_cost,power_cooling_cost,output",
    "constraints": "c1,c2,c3,b",
    "shares": "firm,share_percent,included",
}
CLOSED = {
    "revenue-max-closed": ["--budget", "--w1", "--w2", "--recurring", "--infrastructure",
                           "--alpha", "--beta"],
    "cost-min-closed": ["--target-output", "--w1", "--w2", "--recurring", "--infrastructure",
                        "--alpha", "--beta"],
    "profit-max-closed": ["--w1", "--w2", "--recurring", "--infrastructure", "--alpha",
                          "--beta"],
}
RD_FLAGS = ["--discount-rate", "--harrod-capital", "--solow-labor", "--alpha1", "--beta1"]
OPTIMIZER_FLAGS = ["--learning-rate", "--init-alpha", "--init-beta", "--seed"]
# the flags only recovery, or only synthesis, reads; the other mode refuses them
SFA_RECOVERY_FLAGS = ["--shock", "--inefficiency", "--n"]
SFA_SYNTHESIS_FLAGS = ["--alpha", "--beta", "--sigma-v", "--sigma-u", "--seed"]


@st.composite
def invocations(draw, workdir: Path):
    """(argv, format) for one of the nine subcommands, with its input files written.

    Half the examples draw every value from PLAUSIBLE and write well-formed
    files, so that successful runs are common; the others draw from ANY and
    may drop columns, cells and required flags.
    """
    clean = draw(st.booleans())
    value = PLAUSIBLE if clean else ANY

    def pairs(names):
        return [item for name in names for item in
                (name, draw(CLEAN_VALUES.get(name, PLAUSIBLE) if clean else ANY))]

    def some(names):
        """Flags with drawn values: a sample of names, or every name when clean."""
        return pairs(names if clean else draw(st.lists(st.sampled_from(names), unique=True)))

    def optional(names):
        return pairs(draw(st.lists(st.sampled_from(names), unique=True)))

    def table(kind, columns):
        """Write a CSV of kind with rows of drawn cells; columns maps position to strategy."""
        header = HEADERS[kind]
        if not clean:
            header = draw(st.sampled_from([header, header.rsplit(",", 1)[0], ""]))
        width = len(header.split(","))
        cells = [columns.get(i, value) for i in range(width)]
        if not clean:
            cells = draw(st.lists(st.sampled_from(cells), min_size=width - 1, max_size=width + 1))
        rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=8,
                             unique_by=(lambda row: row[0]) if clean else None))
        data = ("\n".join([header, *(",".join(row) for row in rows)]) + "\n").encode()
        if not clean and draw(st.booleans()):
            # raw bytes spliced in: invalid UTF-8, NUL, quotes, line breaks
            at = draw(st.integers(0, len(data)))
            raw = draw(st.one_of(st.just(b"\xff"), st.binary(min_size=1, max_size=8)))
            data = data[:at] + raw + data[at:]
        path = workdir / f"{kind}.csv"
        path.write_bytes(data)
        return str(path)

    command = draw(st.sampled_from(["cost-min", "revenue-max", "profit", *CLOSED, "sfa",
                                    "fit", "hhi"]))
    fmt = draw(st.sampled_from(["json", "csv"]))
    argv = [command, "--format", fmt]
    if command in ("cost-min", "revenue-max", "profit"):
        source = []
        if command == "profit":
            source = draw(st.sampled_from([[], ["--reference"],
                                           ["--weights", table("weights", {0: YEAR})]]))
        # a clean --reference example gives only the years it has data for
        years = REFERENCE_YEAR if clean and "--reference" in source else YEAR
        argv += ["--input", table("costs", {0: years})]
        # --reference makes no run and refuses the flags of one; unclean examples may give them
        if not (clean and "--reference" in source):
            argv += ["--max-iters", draw(MAX_ITERS)]
            # only the ascents stop at a cap
            argv += optional(OPTIMIZER_FLAGS + (["--cap"] if command != "cost-min" else []))
            argv += draw(st.sampled_from([[], ["--mode", "analytic"],
                                          ["--trace", str(workdir / "t")]]))
        argv += source
    elif command in CLOSED:
        argv += some(CLOSED[command])
        if draw(st.booleans()):
            argv += some(RD_FLAGS)
    elif command == "sfa":
        argv += some(["--S", "--I"])
        mode = draw(st.sampled_from([["--output", draw(value)],
                                     ["--synthesize", str(draw(st.integers(-2, 50)))], []]))
        own = SFA_SYNTHESIS_FLAGS if "--synthesize" in mode else SFA_RECOVERY_FLAGS
        # unclean examples may also give a flag of the other mode
        argv += optional(["--intercept", *(own if clean else
                                           SFA_RECOVERY_FLAGS + SFA_SYNTHESIS_FLAGS)])
        argv += mode
    elif command == "fit":
        argv += ["--input", table("fit", {})]
        argv += draw(st.sampled_from([[], ["--scale", "raw"], ["--no-intercept"]]))
        if draw(st.booleans()):
            signed = st.floats(-2, 2).map(repr) if clean else value
            argv += ["--constrained", table("constraints", dict.fromkeys(range(4), signed))]
    else:
        firm = st.sampled_from(["AWS", "Azure", "Google", "IBM", ""])
        included = st.sampled_from(["true", "false", "1", "no", "", "YES"]
                                   + ([] if clean else ["ture"]))
        argv += ["--input", table("shares", {0: firm, 2: included})]
    return argv, fmt


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_invocation_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv, fmt = data.draw(invocations(Path(tmp)), label="argv")
        code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3), (code, err)
    if code == 0:
        assert err == ""
        if fmt == "json":
            json.loads(out, parse_constant=reject_constant)
        else:
            cells = [cell.lower() for row in csv.reader(io.StringIO(out)) for cell in row]
            assert not set(cells) & {"nan", "inf", "-inf"}, out
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err


# the success path of profit --reference, which the draws above reach in few runs
@given(rows=st.lists(st.tuples(REFERENCE_YEAR, PLAUSIBLE, PLAUSIBLE), min_size=1, max_size=4,
                     unique_by=lambda row: row[0]))
@settings(max_examples=100, deadline=None)
def test_clean_reference_profit_exits_0_with_strict_json(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "costs.csv"
        path.write_text("\n".join([HEADERS["costs"], *map(",".join, rows)]) + "\n")
        code, out, err = run_main(["profit", "--input", str(path), "--reference"])
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=reject_constant)
    assert [row["year"] for row in report["rows"]] == sorted(int(row[0]) for row in rows)
