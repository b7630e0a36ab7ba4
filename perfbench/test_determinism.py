"""Determinism self-test of the benchmark.

    PYTHONPATH=src:. python -m pytest perfbench/test_determinism.py -q

Two runs of one workload with the same seed must report identical
virtual-clock metrics and identical per-layer counts; a different seed must
generate different inputs, which shows the seed reaches the generators.
Runs the real command (one round of repetitions), so it takes a few
minutes.  Also checks that BENCHMARK.json lists exactly the metrics and
units the command reports.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SCALE_FACTOR,
    ServeMix,
    refresh_rows,
)

WORKLOADS = ("tpch-power", "serve-mix", "churn-restart")

#: Metrics read from the host (wall clock, memory, live OS threads) rather
#: than from the simulation; every other metric must repeat exactly.
HOST_METRICS = {
    "setup_s", "wall_s", "peak_rss_mb",
    "trace.overhead_ratio", "sim.sessions.peak_threads",
}


def _run(workload: str, seed: int, trace: int) -> "dict":
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"]
    return {
        name: entry["value"] for name, entry in result["metrics"].items()
    }


def _simulated(metrics: "dict") -> "dict":
    return {
        name: value for name, value in metrics.items()
        if name not in HOST_METRICS and "wall_s" not in name
    }


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_virtual_metrics(workload: str, trace: int) -> None:
    first = _run(workload, 5, trace)
    second = _run(workload, 5, trace)
    assert set(first) == set(
        run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    )
    assert _simulated(first) == _simulated(second)


def test_seed_reaches_the_generators() -> None:
    from repro.tpch.datagen import TpchGenerator

    one, two = run.input_seed(5, 0), run.input_seed(6, 0)
    assert (TpchGenerator(SCALE_FACTOR, one).orders_and_lineitems()
            != TpchGenerator(SCALE_FACTOR, two).orders_and_lineitems())
    assert refresh_rows(one, 1000) != refresh_rows(two, 1000)
    arrivals = [
        ServeMix().setup(seed)._arrival_times() for seed in (one, two)
    ]
    assert arrivals[0] != arrivals[1]


def test_benchmark_json_lists_what_the_command_reports() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER_UNITS
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
