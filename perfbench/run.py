"""Fresh-process benchmark of the dcecon CLI.

    python3 perfbench/run.py --workload cli-quick --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one client drives ``python -m dcecon`` as a closed loop: it
starts one child process, waits for it to exit, and only then starts the next,
for ``--seconds`` seconds. It prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it replays the workload's calls in-process through
``dcecon.cli.main`` with span wrappers installed and prints the per-layer
metrics. ``--workload all`` runs every workload in turn. The last line of
stdout is one JSON object; the full record, with the environment stamp,
per-call samples and spans, goes to ``.perfbench/results/``.

Run it from a checkout of the repository: it imports dcecon from ``src/`` next
to this directory and refuses to run without it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(HERE), str(SRC)]

from checks import check  # noqa: E402
from inputs import CONSTRAINT_SIZES, WORKLOADS, build_pool  # noqa: E402
from spans import ATTRS, Tracer, call_counts, count_metrics, self_time_metrics  # noqa: E402

# setup_s samples taken before the timed loop and again after it, so that the
# median spans the run and not only its first seconds
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CALL_TIMEOUT_S = 120.0
# a tail needs at least this many samples beyond it
TAIL_MARGIN = 10


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no dcecon sources)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _stamp() -> Dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dcecon").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0))}


class _CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _CallTimeout()


def spawn(args: List[str], out_path: Path, err_path: Path, env) -> Tuple[float, float, int]:
    """Run one child to completion: (wall seconds from spawn to exit, max RSS MB, exit code)."""
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def _check_source(env, workdir: Path) -> None:
    """Make sure children import dcecon from this checkout's src/."""
    out, err = workdir / "where.out", workdir / "where.err"
    code_line = ("import importlib.util, sys; "
                 "sys.stdout.write(importlib.util.find_spec('dcecon').origin)")
    _, _, code = spawn([sys.executable, "-c", code_line], out, err, env)
    where = Path(out.read_text()).resolve() if code == 0 else None
    if where is None or where.parent != (SRC / "dcecon").resolve():
        raise BenchmarkError(f"dcecon resolves to {where}, not to {SRC / 'dcecon'}: "
                             f"{err.read_text().strip()[-200:]}")


def measure_setup(env, workdir: Path) -> List[float]:
    """Wall times of fresh `python -c "import dcecon.cli"` processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        elapsed, _, code = spawn([sys.executable, "-c", "import dcecon.cli"],
                                 workdir / "setup.out", workdir / "setup.err", env)
        if code != 0:
            raise BenchmarkError("importing dcecon.cli failed")
        samples.append(elapsed)
    return samples


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_MARGIN samples beyond it.

    A tail below the median is no tail: with fewer than 2 * TAIL_MARGIN + 1
    samples the median is reported, labelled as the 50th percentile.
    """
    n = len(samples)
    if n < 2 * TAIL_MARGIN + 1:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - TAIL_MARGIN - 1], 100.0 * (n - TAIL_MARGIN) / n


def _reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _dir_digest(path: Path) -> Tuple[str, int, int]:
    """(sha256 over file names and contents, data rows, bytes) of a trace directory."""
    digest, rows, size = hashlib.sha256(), 0, 0
    for file in sorted(path.iterdir()):
        data = file.read_bytes()
        digest.update(file.name.encode() + b"\0" + data)
        rows += max(data.count(b"\n") - 1, 0)
        size += len(data)
    return digest.hexdigest(), rows, size


class _Verdicts:
    """Output checks with the determinism rule: a repeated call must repeat its stdout."""

    def __init__(self):
        self.first: Dict[Tuple[str, ...], Tuple[bytes, Optional[str], Optional[str]]] = {}
        self.failures: List[str] = []

    def judge(self, call, code: int, out: bytes, err: bytes, trace_digest=None) -> bool:
        reason = None
        if code != 0:
            tail_line = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            reason = f"exit {code}: {tail_line[0][:200]}"
        elif call.argv in self.first:
            first_out, first_digest, first_reason = self.first[call.argv]
            if out != first_out or trace_digest != first_digest:
                reason = "repeat of the same call gave different output"
            else:
                reason = first_reason
        else:
            try:
                reason = check(call, out.decode())
            except UnicodeDecodeError:
                reason = "stdout is not UTF-8"
            self.first[call.argv] = (out, trace_digest, reason)
        if reason is not None:
            self.failures.append(f"{' '.join(call.argv)}: {reason}")
        return reason is None


def timed_run(workload: str, seed: int, seconds: float, workdir: Path) -> Dict:
    env = _child_env()
    _check_source(env, workdir)
    pool = build_pool(workload, seed, ROOT, workdir)
    setup = measure_setup(env, workdir)
    out_path, err_path = workdir / "call.out", workdir / "call.err"
    base = [sys.executable, "-m", "dcecon"]
    latencies, rss, outcomes = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        call = pool[len(latencies) % len(pool)]
        if call.trace_dir:
            _reset_dir(ROOT / call.trace_dir)
        elapsed, peak, code = spawn(base + list(call.argv), out_path, err_path, env)
        digest = _dir_digest(ROOT / call.trace_dir)[0] if call.trace_dir and code == 0 else None
        latencies.append(elapsed)
        rss.append(peak)
        outcomes.append((call, code, out_path.read_bytes(), err_path.read_bytes(), digest))
    wall = time.perf_counter() - start
    setup += measure_setup(env, workdir)
    # checks run after the loop so that the client does no extra work between calls
    verdicts = _Verdicts()
    failed = sum(not verdicts.judge(*outcome) for outcome in outcomes)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": max(rss),
        "success_rate": 1.0 - failed / len(latencies),
    }
    return {"metrics": metrics, "attempted": len(latencies), "failed": failed,
            "failures": verdicts.failures,
            "detail": {"tail_percentile": tail_pct, "samples": len(latencies), "wall_s": wall,
                       "pool_size": len(pool), "setup_samples_s": setup,
                       "latencies_s": latencies, "max_rss_mb": rss,
                       "error_rate": failed / len(latencies)}}


def importtime(env, workdir: Path) -> Dict[str, float]:
    """import.* metrics from `python -X importtime -c "import dcecon.cli"` (median of runs)."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        err = workdir / "importtime.err"
        _, _, code = spawn([sys.executable, "-X", "importtime", "-c", "import dcecon.cli"],
                           workdir / "importtime.out", err, env)
        if code != 0:
            raise BenchmarkError("importing dcecon.cli failed")
        runs.append(_parse_importtime(err.read_text()))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def _parse_importtime(text: str) -> Dict[str, float]:
    # lines are "import time: self [us] | cumulative | <indent>module", children first;
    # the top-level dcecon entries hold everything `import dcecon.cli` pulled in
    total = scipy = numpy = own = 0.0
    pending = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        pending.append((module, float(self_us)))
        if name[1:2] != " ":
            if module.split(".")[0] == "dcecon":
                total += float(cumulative_us)
                for entry, self_time in pending:
                    top = entry.split(".")[0]
                    scipy += self_time if top == "scipy" else 0.0
                    numpy += self_time if top == "numpy" else 0.0
                    own += self_time if top == "dcecon" else 0.0
            pending = []
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6,
            "import.numpy_s": numpy / 1e6, "import.dcecon_self_s": own / 1e6}


def _import_dcecon():
    import dcecon
    import dcecon.cli

    if Path(dcecon.__file__).resolve().parent != (SRC / "dcecon").resolve():
        raise BenchmarkError(f"dcecon resolves to {dcecon.__file__}, not to {SRC / 'dcecon'}")
    return dcecon


def traced_run(workload: str, seed: int, workdir: Path) -> Dict:
    env = _child_env()
    _check_source(env, workdir)
    pool = build_pool(workload, seed, ROOT, workdir)
    metrics = importtime(env, workdir)
    dcecon = _import_dcecon()
    verdicts = _Verdicts()
    timing, counting = Tracer(dcecon), Tracer(dcecon)

    def replay(tracer, call, traced):
        if call.trace_dir:
            _reset_dir(ROOT / call.trace_dir)
        code, out, wall = tracer.call(call.argv, traced)
        trace = _dir_digest(ROOT / call.trace_dir) if call.trace_dir and code == 0 else None
        ok = verdicts.judge(call, code, out.encode(), b"", trace and trace[0])
        return ok, wall, trace

    # warm lazy imports and first-use caches before the timed pairs
    timing.call(pool[0].argv, traced=False)
    walls = {"untraced": 0.0, "traced": 0.0}
    failed, counts, trace_totals, call_walls = set(), {}, [0, 0], {}
    problems = []
    for i, call in enumerate(pool):
        ok, wall, _ = replay(timing, call, traced=False)
        walls["untraced"] += wall
        with timing.installed():
            ok_traced, wall, trace = replay(timing, call, traced=True)
        walls["traced"] += wall
        call_walls[i] = (timing.call_id, wall)
        if trace:
            trace_totals[0] += trace[1]
            trace_totals[1] += trace[2]
        counts[i] = call_counts(timing.spans, timing.call_id, trace and trace[1:])
        if not (ok and ok_traced):
            failed.add(i)
    with counting.installed(count=True):
        for i, call in enumerate(pool):
            ok, _, trace = replay(counting, call, traced=True)
            again = call_counts(counting.spans, counting.call_id, trace and trace[1:])
            if not ok:
                failed.add(i)
            elif again != counts[i]:
                failed.add(i)
                problems.append(f"{' '.join(call.argv)}: counts differ between traced passes")

    times, unbalanced = self_time_metrics(timing.spans, call_walls)
    for i in unbalanced:
        failed.add(i)
        problems.append(f"{' '.join(pool[i].argv)}: self times do not add up to its wall time")
    metrics.update(times)
    # m = 3 is the bundled block that cli-quick fits
    qp_sizes = sorted({3, *CONSTRAINT_SIZES})
    metrics.update(count_metrics(timing.spans, dcecon.optimizers, qp_sizes))
    metrics["optimizers.alloc_peak_mb"] = max(counting.alloc_peaks, default=0) / 2**20
    metrics["production.evaluate_output_calls"] = counting.evaluate_output_calls
    metrics["reports.trace_rows"], metrics["reports.trace_bytes"] = trace_totals
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["untraced"]

    return {"metrics": metrics, "attempted": len(pool), "failed": len(failed),
            "failures": verdicts.failures + problems,
            "detail": {"pool_size": len(pool), "walls_s": walls,
                       "spans": [s[:ATTRS] + [_plain(s[ATTRS])] for s in timing.spans]}}


def _plain(attrs: Optional[Dict]) -> Optional[Dict]:
    if attrs is None:
        return None
    return {k: v if isinstance(v, (int, float, str, bool)) else repr(v) for k, v in attrs.items()}


def _declared_units(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    workdir = OUT / f"work-{os.getpid()}"
    _reset_dir(workdir)
    try:
        if trace:
            result = traced_run(workload, seed, workdir)
        else:
            result = timed_run(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = _declared_units(trace)
    if set(result["metrics"]) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(result['metrics']) ^ set(units))} "
                             "differ from BENCHMARK.json")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    return result


def _print_result(workload: str, seed: int, result: Dict) -> None:
    detail = result["detail"]
    print(f"workload {workload} seed {seed}: {result['attempted']} calls, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{detail['tail_percentile']:.1f} of {detail['samples']} calls)"
        elif name == "success_rate":
            note = (f"  (error_rate {detail['error_rate']:.4g} = {result['failed']} failed"
                    f" / {result['attempted']} attempted)")
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}{note}")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if not (SRC / "dcecon" / "__init__.py").is_file():
            raise BenchmarkError(f"no dcecon sources under {SRC}")
        stamp = _stamp()
        print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
        results = {}
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            _print_result(workload, args.seed, result)
            results[workload] = result
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(
        {"stamp": stamp, "seed": args.seed, "seconds": args.seconds, "results": results},
        indent=1) + "\n")
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = all(not r["failures"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
