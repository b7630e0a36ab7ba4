"""Fixed-window ablation regression: the default write path must not drift.

The adaptive write pipeline (AIMD upload window, PUT coalescing, group
commit flush, backpressure) is strictly opt-in.  With every knob at its
default the simulator must reproduce the seed's Table 2 / Table 5 bench
outputs **byte-for-byte** — same virtual load time, same per-query times,
same cache counters, same billed request counts.  The digest in
``tests/data/fixed_window_golden.json`` was captured before the pipeline
landed; these tests recompute it and compare exactly (floats survive a
JSON round-trip losslessly, so ``==`` is the right comparison).

If one of these fails, a supposedly-gated change leaked into the default
path.  Regenerate the golden only when a default-path behaviour change is
intended and called out in the PR.
"""

import json
from pathlib import Path

import pytest

from repro.bench.experiments import VolumeRun

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "fixed_window_golden.json"
LOAD_GOLDEN_PATH = (
    Path(__file__).parent.parent / "data" / "load_summary_golden.json"
)

STORE_KEYS = ("put_requests", "get_requests", "put_bytes", "get_bytes")


def _digest(run: VolumeRun) -> dict:
    snap = run.db.object_store.metrics.snapshot()
    return {
        "table2": {
            "load_virtual_seconds": run.load_seconds,
            "query_virtual_seconds": {
                f"Q{q}": v for q, v in sorted(run.query_times.items())
            },
            "geomean_seconds": run.geomean_seconds,
        },
        "table5": {k: v for k, v in sorted(run.ocm_stats().items())},
        "store": {k: snap[k] for k in STORE_KEYS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        payload = json.load(handle)
    return {key: payload[key] for key in ("table2", "table5", "store")}


def test_default_knobs_reproduce_golden(golden):
    """Out-of-the-box configuration == the seed's bench outputs."""
    run = VolumeRun("s3", instance_type="m5ad.24xlarge")
    assert _digest(run) == golden


def test_explicit_fixed_window_reproduces_golden(golden):
    """Spelling the ablation out (`adaptive_upload_window=False` et al.)
    is the same as not mentioning it — the knobs have no side channel."""
    run = VolumeRun(
        "s3",
        instance_type="m5ad.24xlarge",
        adaptive_upload_window=False,
        coalesce_puts=False,
        group_commit_flush=False,
        ocm_max_pending_uploads=0,
    )
    assert _digest(run) == golden


def test_integrity_knobs_off_reproduce_golden(golden):
    """Checksumming off — implicitly or spelled out — changes no byte.

    Checksums are *recorded* unconditionally at PUT time (pure
    computation, no RNG draw, no timed request), but verification and
    the page trailer are strictly opt-in; with both knobs at their
    explicit-false defaults the run must still match the golden digest
    captured before the integrity machinery existed.
    """
    run = VolumeRun(
        "s3",
        instance_type="m5ad.24xlarge",
        verify_reads=False,
        page_checksums=False,
    )
    assert _digest(run) == golden


def test_single_scheduled_session_matches_inline_run():
    """The session scheduler must be invisible to single-stream work.

    Running the bench workload as ONE scheduled session turns every
    `clock.advance` into a park/wake round-trip through the event heap;
    the resulting virtual times and store request counts must still be
    byte-identical to the plain inline run.  This is the scheduled-mode
    extension of the golden guarantee above: the scheduler adds
    interleaving, never timing.
    """
    from repro.bench.configs import load_engine
    from repro.tpch import power_run

    def workload(db):
        db.buffer.invalidate_all()
        if db.ocm is not None:
            db.ocm.drain_all()
            db.ocm.invalidate_all()
        return power_run(db, 0.002, query_numbers=[1, 6])

    def digest(db, times, load_seconds):
        return {
            "load_seconds": load_seconds,
            "query_times": dict(times),
            "final_clock": db.clock.now(),
            "store": dict(sorted(
                db.object_store.metrics.snapshot().items()
            )),
        }

    inline_db, _, inline_load = load_engine(
        "m5ad.4xlarge", "s3", 0.002
    )
    inline = digest(inline_db, workload(inline_db), inline_load)

    sched_db, _, sched_load = load_engine(
        "m5ad.4xlarge", "s3", 0.002
    )
    scheduler = sched_db.new_session_scheduler()
    session = scheduler.spawn(lambda s: workload(sched_db))
    scheduler.run()
    scheduled = digest(sched_db, session.result, sched_load)

    assert scheduled == inline


@pytest.fixture(scope="module")
def load_golden() -> dict:
    with LOAD_GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_default_load_run_reproduces_golden(load_golden):
    """The single-node load harness must not drift under autoscaling.

    The elastic multiplex machinery (node routing, the controller
    session, OCM pre-warming) is strictly opt-in: a plain `repro load`
    with `nodes=1` and no autoscale config takes the exact pre-multiplex
    engine path and must reproduce the committed summary byte-for-byte.
    """
    from repro.bench.load import LoadConfig, run_load

    summary = run_load(LoadConfig(
        sessions=40, seed=0, scale_factor=0.002, arrival_rate=20.0,
    ))
    assert json.loads(json.dumps(summary)) == load_golden


def test_explicitly_disabled_autoscale_reproduces_golden(load_golden):
    """Spelling the defaults out (`nodes=1, autoscale=None`) is the same
    as not mentioning them — the knobs have no side channel."""
    from repro.bench.load import LoadConfig, run_load

    summary = run_load(LoadConfig(
        sessions=40, seed=0, scale_factor=0.002, arrival_rate=20.0,
        nodes=1, autoscale=None,
    ))
    assert json.loads(json.dumps(summary)) == load_golden
