"""Span tracing of in-process ``dcecon.cli.main`` calls, recorded from the outside.

Wrappers are installed on the module attributes that callers look names up in
(for example ``dcecon.cli.ingest_costs`` and ``dcecon.reports.sgd_cost_min``),
so nothing inside ``src/`` is edited. A span is ``[name, start, end, parent,
call_id, attrs]``; spans stay in memory and the runner writes them out at the end.
"""

from __future__ import annotations

import io
import math
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from checks import TERMINATIONS

NAME, START, END, PARENT, CALL, ATTRS = range(6)
USEFUL_REL_TOL = 1e-9


def _run_attrs(fn_name: str) -> Callable:
    def attrs(args, result) -> Dict:
        record, config = args[0], args[1]
        return {"fn": fn_name, "iterations": result.iterations,
                "stop": result.terminated_by.value, "points": len(result.trajectory),
                "trajectory": config.record_trajectory, "record": record, "config": config,
                "objective": result.objective}
    return attrs


def _qp_attrs(args, result) -> Dict:
    qp = args[0]
    return {"m": qp.C.shape[0] if qp.C.size else 0, "n": qp.H.shape[0],
            "n_eq": qp.C_eq.shape[0] if qp.C_eq is not None else 0}


def _materialized(synthesize):
    # the CLI consumes synthesize() lazily; draining it inside the span keeps
    # the consumer's row building out of the frontier layer's time
    def frontier_synthesize(*args, **kwargs):
        return list(synthesize(*args, **kwargs))
    return frontier_synthesize


def _targets(dcecon) -> List[Tuple[object, str, str, Optional[Callable]]]:
    cli, reports, optimizers = dcecon.cli, dcecon.reports, dcecon.optimizers
    fitting, closed_form = dcecon.fitting, dcecon.closed_form
    frontier, concentration = dcecon.frontier, dcecon.concentration
    targets = [
        (cli, "ingest_costs", "reports.ingest", lambda a, r: {"rows": len(r)}),
        (cli, "read_numeric_csv", "reports.ingest",
         lambda a, r: {"rows": len(next(iter(r.values())))}),
        (cli, "run_table", "reports.run_table", None),
        (reports.RunReport, "render", "reports.render", lambda a, r: {"bytes": len(r.encode())}),
        (reports, "profit_table", "optimizers.profit_table", None),
        (fitting, "ols_fit", "fitting.ols", None),
        (fitting, "qp_fit", "fitting.qp_fit", None),
        (fitting, "qp_solve", "fitting.qp_solve", _qp_attrs),
        (frontier, "elasticities_from_frontier", "frontier", None),
        (frontier, "synthesize", "frontier", lambda a, r: {"rows": len(r)}),
    ]
    for module in (reports, optimizers):
        for attr in ("sgd_cost_min", "sga_revenue_max"):
            targets.append((module, attr, "optimizers.run", _run_attrs(attr)))
    for attr in ("revenue_max", "cost_min", "profit_max"):
        targets.append((closed_form, attr, "closed_form", None))
    for attr in ("ShareEntry", "MarketShares", "hhi", "classify_hhi"):
        targets.append((concentration, attr, "concentration", None))
    return targets


class Tracer:
    """Installs span wrappers around dcecon's layers and replays CLI calls."""

    def __init__(self, dcecon):
        self.dcecon = dcecon
        self.spans: List[list] = []
        self.call_id = -1
        self._stack: List[int] = []
        self._root = self._wrap("cli", dcecon.cli.main)
        # count pass only: evaluate_output calls and tracemalloc peaks per optimizer run
        self.evaluate_output_calls = 0
        self.alloc_peaks: List[int] = []

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.call_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if attrs is not None:
                record[ATTRS] = attrs(args, result)
            return result
        return traced

    def _count_evaluate_output(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.evaluate_output_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _alloc_peak(self, fn: Callable) -> Callable:
        # only runs that record a trajectory allocate per iteration; tracemalloc
        # slows the plain loop about tenfold, so plain runs are not measured
        def measured(record, config):
            if not config.record_trajectory:
                return fn(record, config)
            tracemalloc.start()
            try:
                return fn(record, config)
            finally:
                self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    @contextmanager
    def installed(self, count: bool = False):
        """Wrap every target for the duration; with count, also count calls and measure memory."""
        saved = []
        try:
            for owner, attr, name, attrs in _targets(self.dcecon):
                original = owner.__dict__[attr]
                fn = _materialized(original) if attr == "synthesize" else original
                wrapped = self._wrap(name, fn, attrs)
                if count and name == "optimizers.run":
                    wrapped = self._alloc_peak(wrapped)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            if count:
                optimizers = self.dcecon.optimizers
                saved.append((optimizers, "evaluate_output", optimizers.evaluate_output))
                optimizers.evaluate_output = self._count_evaluate_output(optimizers.evaluate_output)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, argv, traced: bool) -> Tuple[int, str, float]:
        """Run one CLI call in-process; returns (exit code, stdout, wall seconds)."""
        self.call_id += 1
        buffer = io.StringIO()
        main = self._root if traced else self.dcecon.cli.main
        start = time.perf_counter()
        with redirect_stdout(buffer):
            code = main(list(argv))
        return code, buffer.getvalue(), time.perf_counter() - start


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest properly, so a parent's children are
    disjoint and their durations can be summed.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# the per-layer self-time metric each span name adds to
SELF_METRICS = {
    "cli": "cli.self_s",
    "reports.ingest": "reports.ingest_s",
    "reports.run_table": "reports.run_table_self_s",
    "reports.render": "reports.render_s",
    "optimizers.run": "optimizers.busy_s",
    "optimizers.profit_table": "optimizers.busy_s",
    "fitting.ols": "fitting.ols_s",
    "fitting.qp_fit": "fitting.qp_fit_self_s",
    "fitting.qp_solve": "fitting.qp_busy_s",
    "closed_form": "closed_form.busy_s",
    "frontier": "frontier.busy_s",
    "concentration": "concentration.busy_s",
}


def masks_and_solves(m: int, n: int, n_eq: int) -> Tuple[int, int]:
    """qp_solve walks all 2^m masks and solves those with at most n - n_eq members."""
    return 1 << m, sum(math.comb(m, k) for k in range(min(m, n - n_eq) + 1))


def useful_iterations(optimizers, attrs: Dict, resolution: int = 2000) -> int:
    """Iterations until the objective is within 1e-9 relative of its final value.

    The runs are deterministic and a run capped at k iterations is a prefix of
    the full run, so the count is bisected over max_iters with the unwrapped
    kernel, to within iterations / resolution.
    """
    n, final = attrs["iterations"], attrs["objective"]
    if n == 0:
        return 0
    run = getattr(optimizers, attrs["fn"])
    config = replace(attrs["config"], record_trajectory=False)

    def settled(k: int) -> bool:
        value = run(attrs["record"], replace(config, max_iters=k)).objective
        return abs(value - final) <= USEFUL_REL_TOL * abs(final)

    lo, hi, step = 1, n, max(1, n // resolution)
    while hi - lo > step:
        mid = (lo + hi) // 2
        if settled(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def self_time_metrics(spans: List[list], call_walls: Dict[int, Tuple[int, float]]
                      ) -> Tuple[Dict[str, float], List[int]]:
    """Per-layer self times summed over calls, plus `trace.other_s`.

    call_walls maps a pool index to (call id, wall seconds of the traced call).
    Also returns the pool indices of calls whose self times plus the remainder
    outside the root span do not add up to the call's wall time.
    """
    own = self_times(spans)
    metrics = dict.fromkeys(sorted(set(SELF_METRICS.values())), 0.0)
    metrics["trace.other_s"] = 0.0
    unbalanced = []
    for index, (call_id, wall) in call_walls.items():
        members = [i for i, s in enumerate(spans) if s[CALL] == call_id]
        root = next(i for i in members if spans[i][NAME] == "cli")
        root_time = spans[root][END] - spans[root][START]
        for i in members:
            metrics[SELF_METRICS[spans[i][NAME]]] += own[i]
        metrics["trace.other_s"] += wall - root_time
        if min(own[i] for i in members) < -1e-6 or wall < root_time \
                or abs(sum(own[i] for i in members) - root_time) > 1e-6:
            unbalanced.append(index)
    return metrics, unbalanced


def _total(spans: List[list], name: str, key: str) -> int:
    return sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS])


def call_counts(spans: List[list], call_id: int, trace) -> Tuple:
    """The exact counts one call produced, to compare between two traced passes."""
    spans = [s for s in spans if s[CALL] == call_id]
    runs = [(s[ATTRS]["iterations"], s[ATTRS]["points"], s[ATTRS]["stop"])
            for s in spans if s[NAME] == "optimizers.run"]
    qps = [s[ATTRS]["m"] for s in spans if s[NAME] == "fitting.qp_solve"]
    return (tuple(runs), tuple(qps), _total(spans, "reports.ingest", "rows"),
            _total(spans, "reports.render", "bytes"), _total(spans, "frontier", "rows"), trace)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(spans: List[list], optimizers, qp_sizes: Sequence[int]) -> Dict[str, float]:
    """Work counts, per-iteration costs and useful-work ratios from span attributes."""
    runs = [s for s in spans if s[NAME] == "optimizers.run"]
    busy = {True: 0.0, False: 0.0}
    iterations = {True: 0, False: 0}
    useful = {}
    for s in runs:
        attrs = s[ATTRS]
        busy[attrs["trajectory"]] += s[END] - s[START]
        iterations[attrs["trajectory"]] += attrs["iterations"]
        key = (attrs["fn"], attrs["record"], attrs["config"])
        if key not in useful:
            useful[key] = (useful_iterations(optimizers, attrs), attrs["iterations"])
    qps = [s for s in spans if s[NAME] == "fitting.qp_solve"]
    masks = solves = 0
    for s in qps:
        m, k = masks_and_solves(s[ATTRS]["m"], s[ATTRS]["n"], s[ATTRS]["n_eq"])
        masks, solves = masks + m, solves + k
    metrics = {
        "reports.ingest_rows": _total(spans, "reports.ingest", "rows"),
        "reports.render_bytes": _total(spans, "reports.render", "bytes"),
        "optimizers.iterations": iterations[True] + iterations[False],
        "optimizers.trajectory_points": _total(spans, "optimizers.run", "points"),
        "optimizers.ns_per_iter.plain": _ratio(busy[False] * 1e9, iterations[False]),
        "optimizers.ns_per_iter.trajectory": _ratio(busy[True] * 1e9, iterations[True]),
        "optimizers.useful_iter_ratio": _ratio(sum(u for u, _ in useful.values()),
                                               sum(n for _, n in useful.values())),
        "fitting.masks_enumerated": masks,
        "fitting.kkt_solves": solves,
        "fitting.useful_mask_ratio": _ratio(solves, masks),
        "frontier.synth_rows": _total(spans, "frontier", "rows"),
    }
    for stop in TERMINATIONS:
        metrics[f"optimizers.stop.{stop}"] = sum(s[ATTRS]["stop"] == stop for s in runs)
    for m in qp_sizes:
        metrics[f"fitting.qp_s.m{m}"] = sum((s[END] - s[START] for s in qps if s[ATTRS]["m"] == m),
                                            0.0)
    return metrics
