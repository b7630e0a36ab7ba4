"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch-power --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run repeats set-up + timed phase over ``INPUT_SETS``
input sets derived from ``--seed``, in whole rounds, until ``--seconds``
have passed, and reports the end-to-end metrics: the drift-normalised
wall times (median over rounds of the round's mean), the peak RSS, and the virtual-clock metrics
pooled over the input sets (deterministic; a repeated set must reproduce
them exactly, which is checked).  With ``--trace 1`` it runs one untraced
and one traced repetition of the first input set and reports the
per-layer metrics.  Correctness checks run
after timing.  The last stdout line is the result object; the line before
it is the full record (raw seconds and kernel timings included).  The exit
code is 1 when a check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Distinct seeded input sets per run.  Repetitions cycle through them in
#: whole rounds, and the end-to-end metrics pool the sets: the work of
#: one TPC-H dataset or one arrival trace varies with its seed by several
#: percent, which one set alone would carry into every metric.
INPUT_SETS = 3

#: End-to-end metrics (every workload reports all of them) and units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "usd": "USD",
    "ok_ratio": "ratio",
    "virtual_s": "s",
    "load_virtual_s": "s",
    "geomean_virtual_s": "s",
    "p50_virtual_s": "s",
    "p95_virtual_s": "s",
    "space_amp": "ratio",
}

#: Per-layer metrics of the traced run, and units.
PER_LAYER_UNITS = {
    "tpch.datagen.wall_s": "s",
    "columnar.load.wall_s": "s",
    "columnar.load.virtual_s": "s",
    "columnar.append.virtual_s": "s",
    "columnar.query.self_wall_s": "s",
    "columnar.query.self_virtual_s": "s",
    "sim.cpu.busy_virtual_s": "s",
    "core.buffer.hit_ratio": "ratio",
    "core.buffer.misses": "count",
    "core.buffer.evictions": "count",
    "core.buffer.dirty_flushes": "count",
    "core.buffer.self_wall_s": "s",
    "core.ocm.hit_ratio": "ratio",
    "core.ocm.evictions": "count",
    "core.ocm.write_through": "count",
    "core.ocm.write_back": "count",
    "core.ocm.self_wall_s": "s",
    "core.ocm.self_virtual_s": "s",
    "objectstore.client.retries": "count",
    "objectstore.client.self_wall_s": "s",
    "objectstore.client.wait_virtual_s": "s",
    "objectstore.s3sim.get_requests": "count",
    "objectstore.s3sim.put_requests": "count",
    "objectstore.s3sim.delete_requests": "count",
    "objectstore.s3sim.head_requests": "count",
    "objectstore.s3sim.get_bytes": "bytes",
    "objectstore.s3sim.put_bytes": "bytes",
    "objectstore.s3sim.self_wall_s": "s",
    "checksum.crc32c.wall_s": "s",
    "checksum.crc32c.bytes": "bytes",
    "core.txn.commits": "count",
    "core.txn.commit_virtual_s": "s",
    "core.txn.commit_wall_s": "s",
    "core.keygen.ranges_allocated": "count",
    "core.keygen.active_keys_at_crash": "count",
    "core.recovery.wall_s": "s",
    "blockstore.freelist.decode_wall_s": "s",
    "engine.restart_gc.polled_keys": "count",
    "engine.restart_gc.virtual_s": "s",
    "engine.restart_gc.wall_s": "s",
    "sim.sessions.handoffs": "count",
    "sim.sessions.self_wall_s": "s",
    "sim.sessions.peak_threads": "count",
    "bench.load.admission_waits": "count",
    "bench.load.admission_wait_p99_s": "s",
    "core.autoscale.router.max_node_share": "ratio",
    "sim.metrics.histogram_samples": "count",
    "trace.unattributed_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Workloads whose traced phase runs on one thread; their per-layer self
#: times must reconcile exactly with the phase.
SINGLE_STREAM = ("tpch-power", "churn-restart")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def input_seed(seed: int, repetition: int) -> int:
    """Repetition ``r`` builds input set ``r % INPUT_SETS`` of the seed."""
    return seed * INPUT_SETS + repetition % INPUT_SETS


def round_median(seconds: "List[float]") -> float:
    """Median over rounds of each round's mean over its input sets."""
    return statistics.median(
        statistics.fmean(seconds[start:start + INPUT_SETS])
        for start in range(0, len(seconds), INPUT_SETS)
    )


def timed_rep(workload, seed: int, drift):
    """One set-up and one timed phase; space amplification afterwards."""
    from perfbench.workloads import space_amp

    with drift.phase("setup") as setup:
        state = workload.setup(seed)
    with drift.phase("phase") as phase:
        result = workload.phase(state)
    result.scalars["space_amp"] = space_amp(workload.nodes(state)[0])
    return state, setup, phase, result


def run_untraced(workload, seed: int, seconds: float) -> "Tuple[dict, dict]":
    from perfbench.calib import DriftClock, drift_ticks
    from perfbench.workloads import op_stats

    drift = DriftClock()
    started = time.perf_counter()
    reps: "List[tuple]" = []
    with drift_ticks(drift):
        while True:
            state = None
            gc.collect()
            state, setup, phase, result = timed_rep(
                workload, input_seed(seed, len(reps)), drift
            )
            reps.append((setup, phase, result))
            if (len(reps) % INPUT_SETS == 0
                    and time.perf_counter() - started >= seconds):
                break
    rss = peak_rss_mb()
    failures = workload.check(state, result,
                              input_seed(seed, len(reps) - 1))
    for index, (__, ___, again) in enumerate(reps):
        first = reps[index % INPUT_SETS][2]
        if (again.scalars, again.op_seconds) != (first.scalars,
                                                 first.op_seconds):
            failures.append(f"repetition {index + 1} changed virtual metrics")
    firsts = [rep[2] for rep in reps[:INPUT_SETS]]
    attempted = sum(r.attempted for r in firsts)
    failed = sum(r.failed for r in firsts)
    metrics: "Dict[str, float]" = {
        name: statistics.fmean(r.scalars[name] for r in firsts)
        for name in firsts[0].scalars
    }
    metrics.update(op_stats([v for r in firsts for v in r.op_seconds]))
    metrics["ok_ratio"] = (attempted - failed) / attempted
    metrics["setup_s"] = round_median([r[0].normalised_s for r in reps])
    metrics["wall_s"] = round_median([r[1].normalised_s for r in reps])
    metrics["peak_rss_mb"] = rss
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": 0,
        "repetitions": len(reps),
        "metrics": metrics,
        "input_sets": [
            {"input_seed": input_seed(seed, i), **r.scalars,
             "attempted": r.attempted, "failed": r.failed, **r.detail}
            for i, r in enumerate(firsts)
        ],
        "timings": [[r[0].record(), r[1].record()] for r in reps],
        "failures": failures,
    }
    summary = {
        "correct": not failures,
        "attempted": sum(r[2].attempted for r in reps),
        "failed": sum(r[2].failed for r in reps),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
    }
    return record, summary


def _node_counters(nodes) -> "Dict[str, float]":
    """Buffer, OCM, client and store counters summed over the nodes."""
    totals: "Dict[str, float]" = {}
    stores = {}

    def add(prefix: str, snapshot: "Dict[str, float]", names) -> None:
        for name in names:
            key = f"{prefix}.{name}"
            totals[key] = totals.get(key, 0.0) + snapshot.get(name, 0.0)

    for node in nodes:
        add("buffer", node.buffer.stats(),
            ("hits", "misses", "evictions", "dirty_flushes"))
        add("ocm", node.ocm.stats(),
            ("hits", "misses", "evictions", "write_through", "write_back"))
        client = getattr(node, "object_client", None) or node.client
        snapshot = client.metrics.snapshot()
        totals["client.retries"] = totals.get("client.retries", 0.0) + sum(
            value for name, value in snapshot.items()
            if name.endswith("_retries")
        )
        stores[id(client.store)] = client.store
    for store in stores.values():
        add("s3", store.metrics.snapshot(),
            ("get_requests", "put_requests", "delete_requests",
             "head_requests", "get_bytes", "put_bytes"))
    return totals


def run_traced(workload, seed: int) -> "Tuple[dict, dict]":
    from perfbench.calib import DriftClock, drift_ticks
    from perfbench.spans import Tracer, instrument, to_seconds

    drift = DriftClock()
    with drift_ticks(drift):
        gc.collect()
        seed = input_seed(seed, 0)
        untraced = timed_rep(workload, seed, drift)[2]
        gc.collect()
        tracer = Tracer()
        drift.on_pause, drift.on_resume = tracer.pause, tracer.resume
        with instrument(tracer) as counters:
            with drift.phase("setup") as setup:
                state = workload.setup(seed)
            setup_calls = {k: list(v) for k, v in tracer.inclusive.items()}
            before = _node_counters(workload.nodes(state))
            samples_before = counters["histogram_samples"]
            with drift.phase("phase") as phase:
                start = tracer.mark()
                result = workload.phase(state)
                end = tracer.mark()
            after = _node_counters(workload.nodes(state))
            histogram_samples = counters["histogram_samples"] - samples_before
            crc_bytes = counters["crc32c_bytes"]

    failures = workload.check(state, result, seed)

    # Self times over the phase, per layer.
    wall_ns = {layer: end[2].get(layer, 0) - start[2].get(layer, 0)
               for layer in end[2]}
    virtual = {layer: end[3].get(layer, 0) - start[3].get(layer, 0)
               for layer in end[3]}
    phase_wall_ns = sum(wall_ns.values())
    if workload.name in SINGLE_STREAM:
        if sum(virtual.values()) != end[1] - start[1]:
            failures.append("self virtual times do not add up to the phase")
        if to_seconds(end[1] - start[1]) != result.scalars["virtual_s"]:
            failures.append("traced phase virtual time differs from virtual_s")
    factor = phase.factor

    def self_wall(layer: str) -> float:
        return wall_ns.get(layer, 0) / 1e9 * factor

    def self_virtual(layer: str) -> float:
        return to_seconds(virtual.get(layer, 0))

    def phase_calls(name: str) -> "Tuple[int, float, float]":
        """(calls, normalised inclusive wall s, virtual s) in the phase."""
        total = tracer.inclusive.get(name, [0, 0, 0])
        base = setup_calls.get(name, [0, 0, 0])
        return (total[0] - base[0], (total[1] - base[1]) / 1e9 * factor,
                to_seconds(total[2] - base[2]))

    def setup_inclusive(name: str) -> "Tuple[float, float]":
        base = setup_calls.get(name, [0, 0, 0])
        return base[1] / 1e9 * setup.factor, to_seconds(base[2])

    delta = {key: after[key] - before.get(key, 0.0) for key in after}

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    detail = result.detail
    admission = detail.get("admission") or {}
    routing = detail.get("routing") or {"coordinator": 1}
    commits, commit_wall, commit_virtual = phase_calls(
        "TransactionManager.commit")
    __, gc_wall, gc_virtual = phase_calls("Database._restart_gc")
    rep_crc = tracer.inclusive.get("checksum.crc32c", [0, 0, 0])
    metrics = {
        "tpch.datagen.wall_s": setup_inclusive("TpchGenerator.all_tables")[0],
        "columnar.load.wall_s": setup_inclusive("ColumnStore.load")[0],
        "columnar.load.virtual_s": setup_inclusive("ColumnStore.load")[1],
        "columnar.append.virtual_s": phase_calls("ColumnStore.append")[2],
        "columnar.query.self_wall_s": self_wall("columnar.query"),
        "columnar.query.self_virtual_s": self_virtual("columnar.query"),
        "sim.cpu.busy_virtual_s": phase_calls("CpuModel.charge")[2]
        + phase_calls("MorselScheduler.charge")[2],
        "core.buffer.hit_ratio": ratio(delta["buffer.hits"],
                                       delta["buffer.misses"]),
        "core.buffer.misses": delta["buffer.misses"],
        "core.buffer.evictions": delta["buffer.evictions"],
        "core.buffer.dirty_flushes": delta["buffer.dirty_flushes"],
        "core.buffer.self_wall_s": self_wall("core.buffer"),
        "core.ocm.hit_ratio": ratio(delta["ocm.hits"], delta["ocm.misses"]),
        "core.ocm.evictions": delta["ocm.evictions"],
        "core.ocm.write_through": delta["ocm.write_through"],
        "core.ocm.write_back": delta["ocm.write_back"],
        "core.ocm.self_wall_s": self_wall("core.ocm"),
        "core.ocm.self_virtual_s": self_virtual("core.ocm"),
        "objectstore.client.retries": delta["client.retries"],
        "objectstore.client.self_wall_s": self_wall("objectstore.client"),
        "objectstore.client.wait_virtual_s":
            self_virtual("objectstore.client"),
        "objectstore.s3sim.get_requests": delta["s3.get_requests"],
        "objectstore.s3sim.put_requests": delta["s3.put_requests"],
        "objectstore.s3sim.delete_requests": delta["s3.delete_requests"],
        "objectstore.s3sim.head_requests": delta["s3.head_requests"],
        "objectstore.s3sim.get_bytes": delta["s3.get_bytes"],
        "objectstore.s3sim.put_bytes": delta["s3.put_bytes"],
        "objectstore.s3sim.self_wall_s": self_wall("objectstore.s3sim"),
        "checksum.crc32c.wall_s": rep_crc[1] / 1e9 * factor,
        "checksum.crc32c.bytes": float(crc_bytes),
        "core.txn.commits": float(commits),
        "core.txn.commit_virtual_s": commit_virtual,
        "core.txn.commit_wall_s": commit_wall,
        "core.keygen.ranges_allocated":
            float(phase_calls("ObjectKeyGenerator.allocate_range")[0]),
        "core.keygen.active_keys_at_crash":
            float(detail.get("active_keys_at_crash", 0)),
        "core.recovery.wall_s": phase_calls("recovery.recover")[1],
        "blockstore.freelist.decode_wall_s":
            phase_calls("Freelist.from_bytes")[1],
        "engine.restart_gc.polled_keys":
            float(detail.get("restart_gc_polled_keys", 0)),
        "engine.restart_gc.virtual_s": gc_virtual,
        "engine.restart_gc.wall_s": gc_wall,
        "sim.sessions.handoffs": float(detail.get("handoffs", 0)),
        "sim.sessions.self_wall_s": self_wall("sim.sessions"),
        "sim.sessions.peak_threads": float(tracer.peak_threads),
        "bench.load.admission_waits": float(admission.get("waits", 0)),
        "bench.load.admission_wait_p99_s":
            float((admission.get("wait_seconds") or {}).get("p99", 0.0)),
        "core.autoscale.router.max_node_share":
            max(routing.values()) / sum(routing.values()),
        "sim.metrics.histogram_samples": float(histogram_samples),
        "trace.unattributed_wall_s": self_wall("unattributed"),
        "trace.overhead_ratio": phase.normalised_s / untraced.normalised_s,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": 1,
        "metrics": metrics,
        "self_wall_s": {k: self_wall(k) for k in sorted(wall_ns)},
        "self_virtual_s": {k: self_virtual(k) for k in sorted(virtual)},
        "traced_phase_wall_s": phase_wall_ns / 1e9 * factor,
        "untraced_phase_wall_s": untraced.normalised_s,
        "spans": len(tracer.spans),
        "timings": [untraced.record(), setup.record(), phase.record()],
        "failures": failures,
    }
    summary = {
        "correct": not failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
    return record, summary


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    # One CPU: a session handoff that wakes a thread on another CPU costs
    # 2-3x more and varies with the host's load (measured: serve-mix phase
    # 13-17 s unpinned vs 4.3-5.0 s pinned, same seed, same minute).  Only
    # one thread of the program runs at a time, so one CPU loses nothing.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        record, summary = run_traced(workload, args.seed)
    else:
        record, summary = run_untraced(workload, args.seed, args.seconds)
    for failure in record["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
