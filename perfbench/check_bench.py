"""Self-checks of the benchmark (not part of the simulator's test suite).

    python3 -m pytest -q perfbench/check_bench.py

They run the benchmark briefly on every workload and assert that the same
seed gives the same output digest and the same traced counts, that the
sweep's digest does not depend on its job count, that the printed metrics
are exactly those `BENCHMARK.json` names, and that the benchmark refuses to
run without the simulator's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5
REPEATED = ("game.distinct_params_ratio", "ledger.transfers_per_episode", "market.purchase_ratio")


@cache
def bench(workload: str, trace: int, attempt: int) -> tuple[dict, dict]:
    """One short run: (final JSON object, {label: value} of the other lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    labelled = {}
    for line in lines[:-1]:
        _, label, value = line.split(" ", 2)
        labelled[label] = value
    return json.loads(lines[-1]), labelled


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    first, second = bench(workload, 0, 0)[1], bench(workload, 0, 1)[1]
    assert first["outputs_sha256"] == second["outputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1, 0)[0]["metrics"], bench(workload, 1, 1)[0]["metrics"]
    exact = [k for k in first if k.endswith((".calls", ".failed")) or k in REPEATED]
    assert len(exact) > 30
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_are_those_benchmark_json_names(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace, 0)[0]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }


def test_sweep_digest_does_not_depend_on_jobs():
    workloads = run._import_simulator()
    sweep = workloads.SweepGrid(SEED)
    config = sweep.next_input()
    digests = set()
    for jobs in (1, 2):
        sweep.jobs = jobs
        outcome = sweep.check(config, sweep.request(config))
        assert not outcome.problems
        digests.add(outcome.canonical)
    assert len(digests) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
