"""The traced run: spans around each layer's public functions.

The program itself is not edited.  :func:`instrument` wraps the public
functions of every layer at class (or module) level for the duration of a
traced run and restores them afterwards.  Each call becomes a span with its
name and layer, start and end on both clocks, its parent span and the id
of the session that made it.  Span stacks are per thread.

Self time is charged by events, not by subtracting child durations: at
every span entry or exit the interval since the previous event (on either
clock) is charged to the layer on top of the *calling* thread's stack.
Session threads hand control over strictly (one runs at a time), so the
charges form one timeline, and a session parked inside a layer call is
charged to ``sim.sessions`` through the span around the park, not to the
layer it parked in.  Intervals telescope, so per-layer self times add up
exactly to the elapsed time: wall time in integer nanoseconds, virtual
time as exact dyadic integers (every float is ``n / 2**k``).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Virtual seconds are kept as integers in units of 2**-_SHIFT seconds,
#: which represents every double of magnitude above 2**-1000 exactly.
_SHIFT = 1100
#: The layer charged when the main thread runs outside every span.
UNATTRIBUTED = "unattributed"
#: The layer charged when a session worker thread runs outside every span
#: (thread start, first activation, exit).
SESSIONS = "sim.sessions"


def exact(seconds: float) -> int:
    numerator, denominator = seconds.as_integer_ratio()
    return numerator << (_SHIFT + 1 - denominator.bit_length())


def to_seconds(value: int) -> float:
    return float(Fraction(value, 1 << _SHIFT))


class Tracer:
    """Per-thread span stacks with exact self-time charging."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: "Dict[int, List[tuple]]" = defaultdict(list)
        self._session_of: "Dict[int, int]" = {}
        self._main = threading.get_ident()
        self._clock = None
        self._last_ns = time.perf_counter_ns()
        self._last_v = 0
        self._next_id = 1
        #: Finished spans: (id, parent id, layer, name, session id,
        #: wall start ns, wall end ns, virtual start, virtual end).
        self.spans: "List[tuple]" = []
        self.self_wall_ns: "Dict[str, int]" = defaultdict(int)
        self.self_virtual: "Dict[str, int]" = defaultdict(int)
        #: name -> [calls, inclusive wall ns, inclusive virtual (exact)]
        self.inclusive: "Dict[str, List[int]]" = defaultdict(
            lambda: [0, 0, 0]
        )
        self.peak_threads = threading.active_count()

    # -- clocks ----------------------------------------------------------- #

    def bind_clock(self, clock) -> None:
        """Read virtual time from ``clock`` from now on (not charged)."""
        with self._lock:
            self._clock = clock
            self._last_v = exact(clock.now())

    def _now_v(self) -> int:
        return exact(self._clock.now()) if self._clock is not None else 0

    def _charge(self, ident: int, now_ns: int, now_v: int) -> None:
        stack = self._stacks.get(ident)
        if stack:
            layer = stack[-1][2]
        elif ident == self._main:
            layer = UNATTRIBUTED
        else:
            layer = SESSIONS
        self.self_wall_ns[layer] += now_ns - self._last_ns
        if now_v != self._last_v:
            self.self_virtual[layer] += now_v - self._last_v
        self._last_ns = now_ns
        self._last_v = now_v

    def pause(self) -> bool:
        """Stop charging wall time (the drift kernel is about to run).

        Returns False when the calling thread is inside the tracer itself
        (the kernel runs from a timer signal), and charges nothing.
        """
        if not self._lock.acquire(blocking=False):
            return False
        try:
            self._charge(threading.get_ident(), time.perf_counter_ns(),
                         self._now_v())
        finally:
            self._lock.release()
        return True

    def resume(self) -> None:
        with self._lock:
            self._last_ns = time.perf_counter_ns()

    def mark(self) -> "Tuple[int, int, Dict[str, int], Dict[str, int]]":
        """Charge up to now; return (wall ns, virtual, self snapshots)."""
        with self._lock:
            now_ns = time.perf_counter_ns()
            now_v = self._now_v()
            self._charge(threading.get_ident(), now_ns, now_v)
            return (now_ns, now_v, dict(self.self_wall_ns),
                    dict(self.self_virtual))

    # -- spans ------------------------------------------------------------ #

    def enter(self, layer: str, name: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            now_ns = time.perf_counter_ns()
            now_v = self._now_v()
            self._charge(ident, now_ns, now_v)
            stack = self._stacks[ident]
            parent = stack[-1][0] if stack else 0
            stack.append((self._next_id, parent, layer, name, now_ns, now_v))
            self._next_id += 1

    def exit(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            now_ns = time.perf_counter_ns()
            now_v = self._now_v()
            self._charge(ident, now_ns, now_v)
            span_id, parent, layer, name, w0, v0 = self._stacks[ident].pop()
            self.spans.append((
                span_id, parent, layer, name, self._session_of.get(ident),
                w0, now_ns, v0, now_v,
            ))
            totals = self.inclusive[name]
            totals[0] += 1
            totals[1] += now_ns - w0
            totals[2] += now_v - v0

    def set_session(self, session_id: int) -> None:
        with self._lock:
            self._session_of[threading.get_ident()] = session_id
            self.peak_threads = max(self.peak_threads,
                                    threading.active_count())

    @contextmanager
    def span(self, layer: str, name: str) -> "Iterator[None]":
        self.enter(layer, name)
        try:
            yield
        finally:
            self.exit()


# ---------------------------------------------------------------------- #
# the layers and their public functions
# ---------------------------------------------------------------------- #

#: (module, class or None for a module function, attributes, layer).
#: Span names are ``<Class or module>.<attribute>``.
LAYER_FUNCTIONS: "Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...]" = (
    ("repro.tpch.datagen", "TpchGenerator", ("all_tables",), "tpch.datagen"),
    ("repro.columnar.store", "ColumnStore",
     ("load", "append", "delete_rows"), "columnar.store"),
    ("repro.tpch.queries", None, ("run_query",), "columnar.query"),
    ("repro.columnar.query", "QueryContext", ("read", "read_rows"),
     "columnar.query"),
    ("repro.sim.cpu", "CpuModel", ("charge",), "sim.cpu"),
    ("repro.sim.cpu", "MorselScheduler", ("charge",), "sim.cpu"),
    ("repro.core.buffer", "BufferManager",
     ("get_page", "prefetch", "prefetch_issue", "prefetch_issue_many",
      "write_page", "flush_txn", "promote_txn_frames", "drop_txn_frames",
      "invalidate_all"),
     "core.buffer"),
    ("repro.core.ocm", "ObjectCacheManager",
     ("get", "get_many", "get_many_at", "put", "put_many",
      "flush_for_commit", "discard_txn", "drain_all", "delete",
      "delete_many", "exists", "warm_set", "bulk_admit", "invalidate_all"),
     "core.ocm"),
    ("repro.objectstore.client", "RetryingObjectClient",
     ("put_at", "get_at", "delete_at", "exists_at", "put", "get", "delete",
      "exists", "put_batch_at", "put_many_at", "get_many_at", "get_many",
      "put_many", "delete_many"),
     "objectstore.client"),
    ("repro.objectstore.s3sim", "SimulatedObjectStore",
     ("put_at", "put_range_at", "try_get_at", "get_range_at",
      "try_get_verified_at", "get_range_verified_at", "delete_at",
      "exists_at", "put", "get", "delete", "exists"),
     "objectstore.s3sim"),
    ("repro.checksum", None, ("crc32c",), "checksum"),
    ("repro.core.txn", "TransactionManager", ("commit", "rollback"),
     "core.txn"),
    ("repro.core.keygen", "ObjectKeyGenerator", ("allocate_range",),
     "core.keygen"),
    ("repro.core.recovery", None, ("recover",), "core.recovery"),
    ("repro.blockstore.freelist", "Freelist", ("from_bytes",),
     "blockstore.freelist"),
    ("repro.engine", "Database", ("_restart_gc",), "engine"),
    ("repro.sim.sessions", "SessionScheduler", ("run", "_yield_from"),
     "sim.sessions"),
    ("repro.bench.load", "AdmissionController", ("acquire",), "bench.load"),
)


def _wrap(tracer: Tracer, layer: str, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: "List[Tuple[object, str, object]]" = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def _patch_function_everywhere(patches: _Patches, original: Callable,
                               replacement: Callable) -> None:
    """Rebind a module-level function in every module of the program or
    the workloads that imported it by name (``from repro.checksum import
    crc32c``)."""
    import sys

    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(
            ("repro", "perfbench.workloads")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attribute, replacement)


@contextmanager
def instrument(tracer: Tracer) -> "Iterator[Dict[str, int]]":
    """Trace every layer function; yields live extra counters.

    Besides the spans, the run counts histogram observations
    (``sim.metrics``) and crc32c input bytes, records each session's id on
    its worker thread, and binds the tracer to each new engine's clock.
    """
    import importlib

    from repro.engine import Database
    from repro.sim.metrics import Histogram
    from repro.sim.sessions import SessionScheduler

    import repro.bench.load  # noqa: F401  (its classes are patched below)

    counters: "Dict[str, int]" = defaultdict(int)
    patches = _Patches()
    for module_name, class_name, attributes, layer in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        prefix = class_name or module_name.rsplit(".", 1)[1]
        for attribute in attributes:
            raw = owner.__dict__[attribute]
            name = f"{prefix}.{attribute}"
            if isinstance(raw, classmethod):
                patches.set(owner, attribute,
                            classmethod(_wrap(tracer, layer, name,
                                              raw.__func__)))
            elif class_name is None:
                _patch_function_everywhere(
                    patches, raw, _wrap(tracer, layer, name, raw)
                )
            else:
                patches.set(owner, attribute, _wrap(tracer, layer, name, raw))

    crc_traced = vars(importlib.import_module("repro.checksum"))["crc32c"]

    def crc32c(data, value=0):
        counters["crc32c_bytes"] += len(data)
        return crc_traced(data, value)

    _patch_function_everywhere(patches, crc_traced, crc32c)

    observe = Histogram.__dict__["observe"]

    def counted_observe(self, value):
        counters["histogram_samples"] += 1
        return observe(self, value)

    patches.set(Histogram, "observe", counted_observe)

    spawn = SessionScheduler.__dict__["spawn"]

    def traced_spawn(self, fn, **kwargs):
        def body(session):
            tracer.set_session(session.session_id)
            with tracer.span("bench.load", "Session.body"):
                return fn(session)
        return spawn(self, body, **kwargs)

    patches.set(SessionScheduler, "spawn", traced_spawn)

    database_init = Database.__dict__["__init__"]

    def bound_init(self, *args, **kwargs):
        database_init(self, *args, **kwargs)
        tracer.bind_clock(self.clock)

    patches.set(Database, "__init__", bound_init)
    try:
        yield counters
    finally:
        patches.restore()
