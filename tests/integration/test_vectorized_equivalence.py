"""The executor's TPC-H answers against a committed golden.

``tests/data/tpch_answers_golden.json`` holds all 22 answers at SF 0.01
(``load_engine("m5ad.24xlarge", "s3")``), captured from the row-at-a-time
operators that preceded the numpy kernels.  Every answer must match it
exactly — same columns, same rows, same order, same python types, same
float bits (JSON round-trips floats exactly).  Also pins the per-context
decoded-page cache and simulated query time shrinking with vCPUs under
the Amdahl CPU model.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.columnar.query import QueryContext
from repro.tpch.queries import QUERIES, run_query
from repro.tpch.runner import power_run

SCALE_FACTOR = 0.01
GOLDEN = pathlib.Path(__file__).parent.parent / "data" / "tpch_answers_golden.json"


@pytest.fixture(scope="module")
def engine():
    from repro.bench.configs import load_engine

    db, store, __ = load_engine("m5ad.24xlarge", "s3",
                                scale_factor=SCALE_FACTOR)
    return db


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_results_identical(engine, golden, number):
    with QueryContext(engine) as ctx:
        answer = run_query(ctx, number, SCALE_FACTOR)
    assert all(type(values) is list for values in answer.values())
    assert sorted(answer) == sorted(golden[str(number)])
    for column, expected in golden[str(number)].items():
        # Compared as JSON text so 1 and 1.0 (or True and 1) differ.
        assert json.dumps(answer[column]) == json.dumps(expected), (
            f"Q{number} column {column!r} diverges"
        )


def test_decoded_cache_serves_repeat_scans(engine):
    """A re-scan in the same context reuses its decoded pages and skips
    the decode charge; a new context decodes again, because decoded
    pages are never shared across contexts or sessions."""
    def scan(ctx):
        before = engine.cpu.total_ops
        rel = ctx.read("orders", ["o_totalprice"])
        return engine.cpu.total_ops - before, len(rel["o_totalprice"])

    with QueryContext(engine) as ctx:
        first, count = scan(ctx)
        repeat, __ = scan(ctx)
    with QueryContext(engine) as ctx:
        fresh, __ = scan(ctx)
    assert count > 0
    assert first == fresh == repeat + 0.5 * count  # 0.5 decode ops/value


def test_simulated_time_shrinks_with_vcpus(engine):
    """The Figure 7 scale-up story: more vCPUs, faster queries."""
    original = engine.cpu.vcpus
    try:
        times = {}
        for vcpus in (1, 8, 16):
            engine.cpu.vcpus = vcpus
            per_query = power_run(engine, SCALE_FACTOR,
                                  query_numbers=[1, 3, 6])
            times[vcpus] = sum(per_query.values())
        assert times[1] > times[8] > times[16]
    finally:
        engine.cpu.vcpus = original


def test_scalar_path_never_touches_vectorized_state():
    """Queries leave no executor state on the session: decoded pages
    live in each query's own context, never in a session-wide cache.
    Only the parsed-metadata cache is shared across queries."""
    from repro.bench.configs import load_engine

    db, __, ___ = load_engine("m5ad.24xlarge", "s3", scale_factor=0.002)
    before = set(vars(db))
    power_run(db, 0.002, query_numbers=[1, 6])
    assert set(vars(db)) - before <= {"_query_meta_cache"}
