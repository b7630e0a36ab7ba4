"""The benchmark's three workloads.

Each workload is a set-up (building the seeded inputs into a loaded
system) and a timed phase, followed by correctness checks that run after
timing.  Every workload runs the default ``bench_config`` (the paper
profile, no knob overrides), so a later change of a default shows here.

Every workload reports the same end-to-end metric names (the benchmark
contract requires each metric on each workload); ``p50_virtual_s``,
``p95_virtual_s`` and ``geomean_virtual_s`` are taken over the workload's
primary operations: the 22 queries (tpch-power), the point lookups
(serve-mix) and the refresh functions (churn-restart).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bench.configs import (
    BENCH_PARTITIONS,
    BENCH_ROWS_PER_PAGE,
    PAPER_SCALE_FACTOR,
    make_engine,
)
from repro.bench.experiments import _cold_caches
from repro.bench.load import LOOKUP_BANK, LoadConfig, LoadHarness, TenantSpec
from repro.columnar import ColumnStore, QueryContext
from repro.columnar.query import ROWID
from repro.core.audit import StoreAuditor
from repro.costs.pricing import DEFAULT_PRICES
from repro.sim.metrics import Histogram, snapshot_delta
from repro.storage.keys import object_key_from_name
from repro.tpch import load_tpch
from repro.tpch.datagen import TpchGenerator
from repro.tpch.queries import QUERIES, run_query

HERE = pathlib.Path(__file__).resolve().parent

#: TPC-H scale factor of tpch-power and churn-restart.  At SF 0.004 the
#: loaded data (~0.75 MB compressed, ~0.56 MB of it lineitem) is about the
#: size of the m5ad.24xlarge bench buffer (0.75 MiB) and below the OCM
#: (1.25 MiB), and one power run takes ~1.3 s of wall time.
SCALE_FACTOR = 0.004
INSTANCE = "m5ad.24xlarge"


# ---------------------------------------------------------------------- #
# shared pieces
# ---------------------------------------------------------------------- #

@dataclass
class PhaseResult:
    """What one timed phase produced, besides its wall time.

    ``scalars`` are virtual-clock metrics of the phase (``virtual_s``,
    ``load_virtual_s``, ``usd``); ``op_seconds`` are the virtual seconds
    of each of the phase's primary operations.  Both are deterministic.
    """

    scalars: "Dict[str, float]"
    op_seconds: "List[float]"
    attempted: int
    failed: int
    detail: "Dict[str, object]" = field(default_factory=dict)


def op_stats(latencies: "Sequence[float]") -> "Dict[str, float]":
    """Median, p95 and geometric mean of per-operation virtual seconds."""
    histogram = Histogram("ops")
    for value in latencies:
        histogram.observe(value)
    return {
        "p50_virtual_s": histogram.percentile(50.0),
        "p95_virtual_s": histogram.percentile(95.0),
        "geomean_virtual_s": histogram.geomean(),
    }


def phase_usd(instance: str, nodes: int, virtual_s: float,
              requests: "Dict[str, float]", scale_factor: float) -> float:
    """Instance-hours of the phase plus request charges, scaled to SF 1000.

    The request-count convention of ``run_bulk_load_workload`` in
    ``repro.bench.experiments``; HEADs bill as GETs.
    """
    ratio = PAPER_SCALE_FACTOR / scale_factor
    puts = int(requests.get("put_requests", 0.0) * ratio)
    gets = int((requests.get("get_requests", 0.0)
                + requests.get("head_requests", 0.0)) * ratio)
    return (
        DEFAULT_PRICES.instance_rate(instance) * nodes * virtual_s / 3600.0
        + DEFAULT_PRICES.request_price("s3").cost(puts=puts, gets=gets)
    )


def space_amp(db) -> float:
    """Bytes the store holds ÷ bytes of objects the catalog reaches."""
    store = db.object_store
    live_keys = db._reachable_cloud_keys()
    live = 0
    for name in store.all_keys():
        if object_key_from_name(name) in live_keys:
            live += len(store.latest_data(name))
    return store.stored_bytes() / live


def load_single_node(seed: int) -> "Tuple[object, ColumnStore, float]":
    """One m5ad.24xlarge S3+OCM node with seeded TPC-H bulk-loaded.

    ``repro.bench.configs.load_engine`` minus its fixed generator seed.
    """
    db = make_engine(INSTANCE, "s3", SCALE_FACTOR)
    store = ColumnStore(db)
    started = db.clock.now()
    load_tpch(store, SCALE_FACTOR, partitions=BENCH_PARTITIONS,
              rows_per_page=BENCH_ROWS_PER_PAGE, seed=seed)
    return db, store, db.clock.now() - started


def answer_digest(relation: "Dict[str, object]") -> str:
    """Digest of a query answer; floats to 9 significant digits."""
    def canon(value: object) -> str:
        if hasattr(value, "item"):  # numpy scalars
            value = value.item()
        if isinstance(value, float):
            return format(value, ".9g")
        return repr(value)

    text = json.dumps(
        {column: [canon(v) for v in relation[column]]
         for column in sorted(relation)},
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def request_counts(db) -> "Dict[str, float]":
    return db.object_store.metrics.snapshot()


class Workload:
    name = ""

    def setup(self, seed: int):
        raise NotImplementedError

    def phase(self, state) -> PhaseResult:
        raise NotImplementedError

    def check(self, state, result: PhaseResult, seed: int) -> "List[str]":
        raise NotImplementedError

    def nodes(self, state) -> "List[object]":
        """Engine nodes, the coordinator first; the trace reads their
        buffer, OCM and client counters."""
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# tpch-power
# ---------------------------------------------------------------------- #

@dataclass
class PowerState:
    db: object
    store: ColumnStore
    load_virtual_s: float
    answers: "Dict[int, object]" = field(default_factory=dict)


def run_power(db, answers: "Dict[int, object]") -> "Tuple[Dict[int, float], int]":
    """The 22 queries once, in order; returns per-query seconds, failures."""
    times: "Dict[int, float]" = {}
    failed = 0
    for number in sorted(QUERIES):
        started = db.clock.now()
        try:
            with QueryContext(db, prefetch_window=32) as ctx:
                answers[number] = run_query(ctx, number, SCALE_FACTOR)
        except Exception:  # counted; the checks then fail the run
            failed += 1
        times[number] = db.clock.now() - started
    return times, failed


class TpchPower(Workload):
    """Cold 22-query power run over the read path.

    The query executor, buffer prefetch, OCM read-through and GETs do
    almost all the work; nothing is written.
    """

    name = "tpch-power"

    def setup(self, seed: int) -> PowerState:
        db, store, load_virtual_s = load_single_node(seed)
        return PowerState(db, store, load_virtual_s)

    def phase(self, state: PowerState) -> PhaseResult:
        db = state.db
        before = request_counts(db)
        started = db.clock.now()
        _cold_caches(db)
        times, failed = run_power(db, state.answers)
        virtual_s = db.clock.now() - started
        requests = snapshot_delta(before, request_counts(db))
        scalars = {
            "virtual_s": virtual_s,
            "load_virtual_s": state.load_virtual_s,
            "usd": phase_usd(INSTANCE, 1, virtual_s, requests, SCALE_FACTOR),
        }
        ocm = db.ocm.stats()
        return PhaseResult(scalars, list(times.values()), len(times), failed, {
            "query_virtual_s": {f"Q{q}": t for q, t in times.items()},
            "ocm_hits": ocm["hits"],
            "ocm_misses": ocm["misses"],
            "user_data_bytes": db.user_data_bytes(),
            "buffer_capacity_bytes": db.config.buffer_capacity_bytes,
            "ocm_capacity_bytes": db.config.ocm_capacity_bytes,
        })

    def check(self, state: PowerState, result: PhaseResult,
              seed: int) -> "List[str]":
        digests = {q: answer_digest(a) for q, a in state.answers.items()}
        expected = committed_digests().get(str(seed))
        source = "committed digests"
        if expected is None:
            # No committed digest for this seed: compare with the same
            # queries over a block-device (EBS) engine, which shares no
            # object-store, OCM or cloud-dbspace code with the run.
            expected = oracle_digests(seed)
            source = "EBS oracle"
        failures = [
            f"Q{q}: answer digest {digests.get(q)} != {digest} ({source})"
            for q, digest in sorted((int(k), v) for k, v in expected.items())
            if digests.get(q) != digest
        ]
        if len(digests) != len(QUERIES):
            failures.append(f"only {len(digests)} of 22 queries answered")
        return failures

    def nodes(self, state: PowerState) -> "List[object]":
        return [state.db]


DIGESTS_PATH = HERE / "tpch_digests.json"


def committed_digests() -> "Dict[str, Dict[str, str]]":
    """Per-seed, per-query answer digests at SCALE_FACTOR."""
    payload = json.loads(DIGESTS_PATH.read_text())
    if payload["scale_factor"] != SCALE_FACTOR:
        return {}
    return payload["seeds"]


def oracle_digests(seed: int) -> "Dict[str, str]":
    db = make_engine(INSTANCE, "ebs", SCALE_FACTOR)
    store = ColumnStore(db)
    load_tpch(store, SCALE_FACTOR, partitions=BENCH_PARTITIONS,
              rows_per_page=BENCH_ROWS_PER_PAGE, seed=seed)
    answers: "Dict[int, object]" = {}
    run_power(db, answers)
    return {str(q): answer_digest(a) for q, a in answers.items()}


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #

#: Per-tenant latency limits: 1.5x each tenant's unloaded p95 service time
#: on this 2-node m5ad.4xlarge multiplex at SF 0.002 (600 sessions at one
#: per 200 s, seeds 0 and 1): lookup 0.469 s, churn 2.63 s, analyst (Q6)
#: 196-206 s.  The harness defaults (0.25 s, 1.5 s, 120 s) lie below the
#: unloaded service times, so they could not be met even without load.
SERVE_TENANTS: "Tuple[TenantSpec, ...]" = (
    TenantSpec("lookup", 0.77, "lookup", think_mean=0.25,
               ops_per_session=2, slo_seconds=0.7),
    TenantSpec("churn", 0.20, "churn", think_mean=0.5,
               ops_per_session=1, slo_seconds=4.0),
    TenantSpec("analyst", 0.03, "query", think_mean=2.0,
               ops_per_session=1, slo_seconds=300.0),
)
#: Many short sessions rather than few long ones: the tenant of each
#: session is drawn at random, so the spread of the mix between seeds
#: shrinks with the session count, not with the operations per session.
SERVE_SESSIONS = 1200
#: Session arrivals per second: the highest rate of the one-time sweep
#: (recorded in WORKLOADS.md) whose latency stays flat, with no backlog.
SERVE_RATE = 1.25
#: In-engine operations admitted per serving node.
SERVE_ADMISSION = 32


class ServeMix(Workload):
    """Open-loop Poisson serving mix on a 2-node round-robin multiplex."""

    name = "serve-mix"

    def setup(self, seed: int) -> LoadHarness:
        return LoadHarness(LoadConfig(
            sessions=SERVE_SESSIONS,
            seed=seed,
            profile="poisson",
            arrival_rate=SERVE_RATE,
            stages=1,
            admission_limit=SERVE_ADMISSION,
            tenants=SERVE_TENANTS,
            query_numbers=(6,),
            nodes=2,
        ))

    def phase(self, harness: LoadHarness) -> PhaseResult:
        db = harness.db
        before = request_counts(db)
        summary = harness.run()
        requests = snapshot_delta(before, request_counts(db))
        virtual_s = summary["clock_seconds"]
        completed = summary["ops"]["completed"]
        failed = summary["ops"]["failed"]
        attempted = completed + failed
        counters = harness.metrics.snapshot()
        within = sum(
            counters.get(f"ops_within_slo:{spec.name}", 0.0)
            for spec in SERVE_TENANTS
        )
        latency = {
            spec.name: harness.metrics.histogram(f"latency:{spec.name}")
            for spec in SERVE_TENANTS
        }
        scalars = {
            "virtual_s": virtual_s,
            "load_virtual_s": harness.load_seconds,
            "usd": phase_usd(harness.config.instance_type, 2, virtual_s,
                             requests, harness.config.scale_factor),
        }
        return PhaseResult(scalars, latency["lookup"].values, attempted,
                           failed, {
            "lookup_p50_s": latency["lookup"].percentile(50.0),
            "lookup_p99_s": latency["lookup"].percentile(99.0),
            "churn_p99_s": latency["churn"].percentile(99.0),
            "query_p90_s": latency["analyst"].percentile(90.0),
            "slo_attainment": within / attempted,
            "fail_ratio": failed / attempted,
            "tenants": summary["tenants"],
            "routing": summary["routing"],
            "admission": summary["admission"],
            "handoffs": summary["scheduler"]["handoffs"],
        })

    def check(self, harness: LoadHarness, result: PhaseResult,
              seed: int) -> "List[str]":
        failures: "List[str]" = []
        churn = result.detail["tenants"]["churn"]  # type: ignore[index]
        committed_ops = churn["ops"] - churn["failed"]
        pages_per_op = harness.config.churn_pages_per_op
        churn_objects = {  # the latest version of each churn object
            identity.name: identity.page_count
            for identity in sorted(harness.db.catalog.all_identities(),
                                   key=lambda identity: identity.version)
            if identity.name.startswith("churn/")
        }
        total_pages = sum(churn_objects.values())
        if total_pages != committed_ops * pages_per_op:
            failures.append(
                f"{total_pages} churn pages committed, expected "
                f"{committed_ops * pages_per_op}"
            )
        for node in [harness.db, *harness.multiplex.secondaries()]:
            txn = node.begin()
            for page in range(harness.config.lookup_pages):
                if node.read_page(txn, LOOKUP_BANK, page) != (
                    b"pb-%06d|" % page
                ) * 64:
                    failures.append(f"{LOOKUP_BANK} page {page} differs")
            for name, page_count in sorted(churn_objects.items()):
                session_id = int(name.split("/", 1)[1])
                for page in range(page_count):
                    if node.read_page(txn, name, page) != (
                        b"ch-%06d-%04d|" % (session_id, page)
                    ) * 48:
                        failures.append(f"{name} page {page} differs")
            node.commit(txn)
        return failures

    def nodes(self, harness: LoadHarness) -> "List[object]":
        return [harness.db, *harness.multiplex.secondaries()]


# ---------------------------------------------------------------------- #
# churn-restart
# ---------------------------------------------------------------------- #

#: Committed refresh pairs per phase, and orders per refresh function.
REFRESH_PAIRS = 8
REFRESH_ORDERS = 24


@dataclass
class ChurnState:
    db: object
    store: ColumnStore
    load_virtual_s: float
    new_orders: "List[List[tuple]]" = field(default_factory=list)
    new_lineitems: "List[List[tuple]]" = field(default_factory=list)
    deleted_keys: "List[Tuple[int, int]]" = field(default_factory=list)


def refresh_rows(seed: int, base_max_orderkey: int
                 ) -> "Tuple[List[List[tuple]], List[List[tuple]]]":
    """RF1 inserts for REFRESH_PAIRS + 1 refreshes, keyed past the base.

    Drawn from a separate seeded generator stream, then re-keyed above the
    base's largest orderkey, as TPC-H RF1 adds new orders.
    """
    count = (REFRESH_PAIRS + 1) * REFRESH_ORDERS
    generator = TpchGenerator((count + 0.5) / 1_500_000, seed + 7919)
    orders, lineitems = generator.orders_and_lineitems()
    offset = base_max_orderkey
    by_order: "Dict[int, List[tuple]]" = {}
    for row in lineitems:
        by_order.setdefault(row[0], []).append((row[0] + offset,) + row[1:])
    new_orders: "List[List[tuple]]" = []
    new_lineitems: "List[List[tuple]]" = []
    for index in range(REFRESH_PAIRS + 1):
        chunk = orders[index * REFRESH_ORDERS:(index + 1) * REFRESH_ORDERS]
        new_orders.append([(row[0] + offset,) + row[1:] for row in chunk])
        new_lineitems.append([
            line for row in chunk for line in by_order[row[0]]
        ])
    return new_orders, new_lineitems


class ChurnRestart(Workload):
    """TPC-H refresh pairs, one refresh left open, crash and restart."""

    name = "churn-restart"

    def setup(self, seed: int) -> ChurnState:
        db, store, load_virtual_s = load_single_node(seed)
        state = ChurnState(db, store, load_virtual_s)
        with QueryContext(db) as ctx:
            keys = ctx.read("orders", ["o_orderkey"])["o_orderkey"]
        state.new_orders, state.new_lineitems = refresh_rows(seed, max(keys))
        lowest = sorted(keys)[:REFRESH_PAIRS * REFRESH_ORDERS]
        state.deleted_keys = [
            (lowest[i * REFRESH_ORDERS], lowest[(i + 1) * REFRESH_ORDERS - 1])
            for i in range(REFRESH_PAIRS)
        ]
        return state

    def phase(self, state: ChurnState) -> PhaseResult:
        db, store = state.db, state.store
        before = request_counts(db)
        started = db.clock.now()
        op_times: "List[float]" = []
        failed = 0
        for index in range(REFRESH_PAIRS):
            for refresh in (self._rf1, self._rf2):
                op_started = db.clock.now()
                txn = db.begin()
                try:
                    refresh(state, index, txn)
                    db.commit(txn)
                except Exception:  # counted; the checks then fail the run
                    db.rollback(txn)
                    failed += 1
                op_times.append(db.clock.now() - op_started)
        refresh_s = db.clock.now() - started
        # One more refresh, flushed to the store but never committed: its
        # keys are the restart GC's orphans.
        txn = db.begin()
        self._rf1(state, REFRESH_PAIRS, txn)
        db.buffer.flush_txn(txn.txn_id, commit_mode=False)
        db.ocm.drain_all()
        active_keys = db.keygen.active_set(db.config.node_id).key_count()
        db.crash()
        restart_started = db.clock.now()
        db.restart()
        restart_s = db.clock.now() - restart_started
        virtual_s = db.clock.now() - started
        requests = snapshot_delta(before, request_counts(db))
        attempted = len(op_times)
        scalars = {
            "virtual_s": virtual_s,
            "load_virtual_s": state.load_virtual_s,
            "usd": phase_usd(INSTANCE, 1, virtual_s, requests, SCALE_FACTOR),
        }
        return PhaseResult(scalars, op_times, attempted, failed, {
            "refresh_virtual_s": refresh_s,
            "restart_virtual_s": restart_s,
            "active_keys_at_crash": active_keys,
            "restart_gc_polled_keys": db.metrics.snapshot().get(
                "restart_gc_polled_keys", 0.0
            ),
        })

    @staticmethod
    def _rf1(state: ChurnState, index: int, txn) -> None:
        state.store.append("orders", state.new_orders[index], txn=txn)
        state.store.append("lineitem", state.new_lineitems[index], txn=txn)

    @staticmethod
    def _rf2(state: ChurnState, index: int, txn) -> None:
        lo, hi = state.deleted_keys[index]
        with QueryContext(state.db, txn=txn) as ctx:
            orders = ctx.read("orders", [], {"o_orderkey": (lo, hi)},
                              with_rowids=True)[ROWID]
            lines = ctx.read("lineitem", [], {"l_orderkey": (lo, hi)},
                             with_rowids=True)[ROWID]
        state.store.delete_rows("orders", orders, txn=txn)
        state.store.delete_rows("lineitem", lines, txn=txn)

    def check(self, state: ChurnState, result: PhaseResult,
              seed: int) -> "List[str]":
        failures: "List[str]" = []
        db = state.db
        committed = {row[0] for rows in state.new_orders[:REFRESH_PAIRS]
                     for row in rows}
        committed_lines = sum(
            len(rows) for rows in state.new_lineitems[:REFRESH_PAIRS]
        )
        open_keys = {row[0] for row in state.new_orders[REFRESH_PAIRS]}
        new_lo = min(committed)
        with QueryContext(db) as ctx:
            orders = set(ctx.read("orders", ["o_orderkey"],
                                  {"o_orderkey": (new_lo, None)})["o_orderkey"])
            lines = ctx.read("lineitem", ["l_orderkey"],
                             {"l_orderkey": (new_lo, None)})["l_orderkey"]
            deleted_lo = state.deleted_keys[0][0]
            deleted_hi = state.deleted_keys[-1][1]
            survivors = ctx.read("orders", ["o_orderkey"],
                                 {"o_orderkey": (deleted_lo, deleted_hi)})
            dead_lines = ctx.read("lineitem", ["l_orderkey"],
                                  {"l_orderkey": (deleted_lo, deleted_hi)})
        if orders - open_keys != committed:
            failures.append("committed refresh orders are not all present")
        if orders & open_keys:
            failures.append("rows of the open refresh are visible")
        if len(lines) != committed_lines:
            failures.append(
                f"{len(lines)} refresh lineitems visible, "
                f"expected {committed_lines}"
            )
        if survivors["o_orderkey"] or dead_lines["l_orderkey"]:
            failures.append("deleted rows are still visible")
        report = StoreAuditor(db).audit()
        if report.missing or report.leaked:
            failures.append(
                f"audit: {len(report.missing)} MISSING, "
                f"{len(report.leaked)} LEAKED"
            )
        if not result.detail["restart_gc_polled_keys"]:
            failures.append("restart GC polled no key (a clean restart)")
        return failures

    def nodes(self, state: ChurnState) -> "List[object]":
        return [state.db]


WORKLOADS: "Dict[str, Workload]" = {
    workload.name: workload
    for workload in (TpchPower(), ServeMix(), ChurnRestart())
}
