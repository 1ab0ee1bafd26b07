"""Output checks for benchmark calls.

Each check parses a call's stdout strictly and recomputes one invariant from
the call's generated inputs with plain math, independently of the code under
test (the constrained fit is also run through ``dcecon.fitting.certify_solution``).
A check returns None when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Optional

TERMINATIONS = ("boundary_alpha", "boundary_beta", "cap_reached", "max_iters")
REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _reject_constant(name: str):
    raise CheckFailed(f"stdout is not strict JSON: {name}")


def parse_json(text: str) -> Dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _csv_rows(text: str) -> List[Dict]:
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = float(value)
            except (TypeError, ValueError):
                parsed[key] = value
            if isinstance(parsed[key], float) and not math.isfinite(parsed[key]):
                raise CheckFailed(f"non-finite value in column {key!r}")
        rows.append(parsed)
    if not rows:
        raise CheckFailed("CSV output has no rows")
    return rows


def _rows(text: str, fmt: str) -> List[Dict]:
    return parse_json(text)["rows"] if fmt == "json" else _csv_rows(text)


def _close(got: float, want: float, what: str, tol: float = REL_TOL) -> None:
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _check_optimizer(text: str, expect: Dict, command: str) -> None:
    rows = _rows(text, expect["format"])
    costs = expect["costs"]
    _require([int(r["year"]) for r in rows] == [c[0] for c in costs], "years differ from input")
    key = "min_cost" if command == "cost-min" else "max_revenue"
    for row, (_, L, K) in zip(rows, costs):
        alpha, beta = row["alpha"], row["beta"]
        _require(alpha > 0 and beta > 0, f"elasticities not positive: {alpha}, {beta}")
        if command == "revenue-max":
            _require(alpha + beta < expect["cap"], f"alpha + beta {alpha + beta} not below the cap")
        _close(row[key], L ** alpha * K ** beta, f"{key} vs L^alpha K^beta")
        stop = row["terminated_by"]
        _require(stop in TERMINATIONS, f"unknown terminated_by {stop!r}")
        _require(0 <= int(row["iterations"]) <= expect["max_iters"], "iterations out of range")


def _check_profit(rows: List[Dict], years) -> None:
    _require([r["year"] for r in rows] == list(years), "years differ from input")
    for row in rows:
        _close(row["profit_cd"], row["max_rev_cd"] - row["min_cost_cd"], "profit_cd")
        _close(row["profit_linear"], row["max_rev_cd"] - row["min_cost_linear"], "profit_linear")


def _check_profit_run(text: str, expect: Dict) -> None:
    rows = parse_json(text)["rows"]
    _check_profit(rows, [c[0] for c in expect["costs"]])
    for row, (_, L, K), (_, w1, w2) in zip(rows, expect["costs"], expect["weights"]):
        _require(row["max_rev_cd"] > 0 and row["min_cost_cd"] > 0, "non-positive objective")
        _close(row["min_cost_linear"], w1 * L + w2 * K, "min_cost_linear vs w1 L + w2 K")


def _check_profit_reference(text: str, expect: Dict) -> None:
    report = parse_json(text)
    _check_profit(report["rows"], [1997, 2002, 2009, 2012])
    _require(len(report["warnings"]) == 1, "reference mode should warn once")


def _check_hhi(text: str, expect: Dict) -> None:
    if expect["format"] == "json":
        report = parse_json(text)
        rows, index = report["rows"], report["summary"]["hhi"]
        bands = report["summary"]["classification"]
    else:
        rows = _csv_rows(text)
        for row in rows:
            row["included"] = row["included"] == "True"
        index = bands = None
    total = 0.0
    for row in rows:
        want = row["share"] ** 2 if row["included"] else 0.0
        _close(row["contribution"], want, f"contribution of {row['firm']}")
        total += want
    if index is not None:
        _close(index, total, "hhi vs sum of squared shares")
        band = "competitive" if total < 1000 else "moderate" if total < 1800 else "high"
        _require(bands == band, f"classification {bands!r}, expected {band!r}")


def _params(expect: Dict) -> Dict[str, float]:
    return {flag.lstrip("-").replace("-", "_"): v for flag, v in expect["params"].items()}


def _check_closed(text: str, expect: Dict, command: str) -> None:
    p = _params(expect)
    row = parse_json(text)["rows"][0]
    u, v = row["A"] * p["recurring"], row["B"] * p["infrastructure"]
    output = u ** p["alpha"] * v ** p["beta"]
    spend = p["w1"] * u + p["w2"] * v
    if command == "revenue-max-closed":
        _close(spend, p["budget"], "budget not exhausted")
        _close(row["objective"], output, "objective vs (AR)^alpha (BI)^beta")
    elif command == "cost-min-closed":
        _close(output, p["target_output"], "target output not met")
        _close(row["objective"], spend, "objective vs w1 AR + w2 BI")
    else:
        _close(row["profit"], row["output"] * (1 - p["alpha"] - p["beta"]), "profit vs Y(1-a-b)")
        _close(row["output"], p["tfp"] * output, "output vs P (AR)^alpha (BI)^beta")


def _check_sfa_recover(text: str, expect: Dict) -> None:
    p = _params(expect)
    summary = parse_json(text)["summary"]
    alpha, beta = summary["alpha"], summary["beta"]
    _close(alpha + beta, 1.0, "alpha + beta vs n")
    y = math.exp(p["intercept"] + alpha * math.log(p["S"]) + beta * math.log(p["I"])
                 + p["shock"] - p["inefficiency"])
    _close(y, p["output"], "frontier output at the recovered elasticities")


def _check_sfa_synth(text: str, expect: Dict) -> None:
    p = _params(expect)
    rows = parse_json(text)["rows"]
    _require(len(rows) == expect["count"], f"{len(rows)} rows, expected {expect['count']}")
    base = p["intercept"] + p["alpha"] * math.log(p["S"]) + p["beta"] * math.log(p["I"])
    for row in rows:
        _require(row["u"] >= 0, "negative inefficiency")
        _close(row["output"], math.exp(base + row["v"] - row["u"]), "synthesized output")
        _close(row["efficiency"], math.exp(-row["u"]), "efficiency vs exp(-u)")


def _design(data: Dict):
    import numpy as np

    A = np.column_stack([np.ones(len(data["output"])), np.log(data["new_server_cost"]),
                         np.log(data["power_cooling_cost"])])
    return A, np.log(data["output"])


def _coefficients(text: str):
    import numpy as np

    summary = parse_json(text)["summary"]
    return np.array([summary["intercept"], summary["alpha"], summary["beta"]])


def _check_fit_ols(text: str, expect: Dict) -> None:
    import numpy as np

    A, y = _design(expect["data"])
    x = _coefficients(text)
    # normal equations: the residual is orthogonal to every design column
    gradient = A.T @ (y - A @ x)
    _require(np.linalg.norm(gradient) <= 1e-8 * (1.0 + np.linalg.norm(A.T @ y)),
             f"normal equations violated by {np.linalg.norm(gradient):.3e}")


def _check_fit_qp(text: str, expect: Dict) -> None:
    import numpy as np
    from dcecon.fitting import QuadraticProgram, certify_solution

    A, y = _design(expect["data"])
    x = _coefficients(text)
    block = np.array(expect["block"], dtype=float)
    C, b = block[:, :3], block[:, 3]
    _require(bool(np.all(C @ x <= b + 1e-9)), "C x <= b violated")
    qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y, C=C, b=b)
    _require(certify_solution(qp, x), "certify_solution rejects the fit")


def check(call, text: str) -> Optional[str]:
    """None when `text` is a correct stdout for `call`, else the reason it is not."""
    kind, expect = call.kind, call.expect
    try:
        if kind in ("cost-min", "revenue-max"):
            _check_optimizer(text, expect, kind)
        elif kind == "profit":
            _check_profit_run(text, expect)
        elif kind == "profit-reference":
            _check_profit_reference(text, expect)
        elif kind == "hhi":
            _check_hhi(text, expect)
        elif kind.endswith("-closed"):
            _check_closed(text, expect, kind)
        elif kind == "sfa-recover":
            _check_sfa_recover(text, expect)
        elif kind == "sfa-synth":
            _check_sfa_synth(text, expect)
        elif kind == "fit-ols":
            _check_fit_ols(text, expect)
        elif kind == "fit-qp":
            _check_fit_qp(text, expect)
        else:
            return f"no check for {kind!r}"
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
