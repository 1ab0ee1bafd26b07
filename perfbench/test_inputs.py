"""Tests for the benchmark's seeded input generator.

    python3 -m pytest perfbench/test_inputs.py -q
"""

import random
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import (  # noqa: E402
    ASCENT_CAP,
    CONSTRAINT_SIZES,
    COST_RANGE,
    DESCENT_SERVER_COSTS,
    WORKLOADS,
    build_pool,
    constraint_block,
    cost_series,
    optimizer_seed,
)


def _pool_files(tmp_path: Path, workload: str, seed: int, name: str):
    root = tmp_path / name
    workdir = root / "work"
    workdir.mkdir(parents=True)
    # cli-quick also reads the bundled data files
    shutil.copytree(HERE.parent / "data", root / "data")
    pool = build_pool(workload, seed, root, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [c.argv for c in pool], files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    assert _pool_files(tmp_path, workload, 5, "a") == _pool_files(tmp_path, workload, 5, "b")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_inputs(tmp_path, workload):
    assert _pool_files(tmp_path, workload, 5, "a")[1] != _pool_files(tmp_path, workload, 6, "b")[1]


@pytest.mark.parametrize("seed", range(50))
def test_cost_series_stay_in_range(seed):
    rng = random.Random(seed)
    for n_years in (1, 3, 4):
        series = cost_series(rng, n_years)
        years = [year for year, _, _ in series]
        assert years == sorted(set(years)) and len(years) == n_years
        for _, server, power in series:
            assert COST_RANGE[0] <= server <= COST_RANGE[1]
            assert COST_RANGE[0] <= power <= COST_RANGE[1]


@pytest.mark.parametrize("seed", range(50))
def test_constraint_blocks_are_feasible(seed):
    rng = random.Random(seed)
    for m in CONSTRAINT_SIZES:
        block = constraint_block(rng, m)
        assert len(block) == m
        # C x <= b holds at the origin exactly when every b is non-negative
        assert all(b >= 0 for *_, b in block)


def test_cost_inputs_of_every_pool_stay_in_range(tmp_path):
    for seed in range(10):
        root = tmp_path / str(seed)
        (root / "work").mkdir(parents=True)
        for call in build_pool("compute-mix", seed, root, root / "work"):
            for _, server, power in call.expect.get("costs", ()):
                assert COST_RANGE[0] <= server <= COST_RANGE[1]
                assert COST_RANGE[0] <= power <= COST_RANGE[1]


@pytest.mark.parametrize("seed", range(50))
def test_optimizer_seeds_start_below_the_cap(seed):
    start = random.Random(optimizer_seed(random.Random(seed)))
    assert start.random() + start.random() < ASCENT_CAP


@pytest.mark.parametrize("seed", range(20))
def test_plain_descent_calls_cover_both_server_cost_classes(tmp_path, seed):
    (tmp_path / "work").mkdir()
    pool = build_pool("compute-mix", seed, tmp_path, tmp_path / "work")
    plain = [c for c in pool if c.kind == "cost-min" and c.trace_dir is None]
    assert len(plain) == len(DESCENT_SERVER_COSTS)
    for call, (low, high) in zip(plain, DESCENT_SERVER_COSTS):
        [(_, server, _)] = call.expect["costs"]
        assert low <= server <= high
