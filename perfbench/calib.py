"""Drift-normalised wall time.

On a small shared host the speed at which *any* Python code runs drifts by
up to 2x within a second (measured on a 2-core VM: a fixed 100k-step integer
loop took 15.6-29.7 ms across one second of back-to-back samples).  Raw wall
seconds of an unchanged program therefore spread far wider than any
regression bound worth having.  Because the drift moves all Python code
together, the benchmark divides it out: every timed phase is cut into short
segments, each bracketed by a fixed reference kernel, and each segment's
raw seconds are scaled by ``NOMINAL_KERNEL_S / kernel_seconds`` measured
around it.  The result reads as seconds on a machine that runs the kernel
in its nominal time.

The kernel imports nothing from ``repro`` and allocates no container
objects, so the program's heap (and the garbage collector it triggers)
cannot slow it.
The benchmark also pins itself to one CPU (see ``run.py``), so thread
handoffs do not cross CPUs.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

#: Loop steps of one kernel slice.
KERNEL_STEPS = 12_000
#: Seconds one kernel slice takes on the reference machine: about the
#: median of 400 slices (3.5 ms) on the 2-core host the bounds in
#: BENCHMARK.json were set on.  It only sets the unit of the results.
NOMINAL_KERNEL_S = 0.0035
#: Raw seconds of program work between two kernel slices.  Drift on the
#: reference host holds a level for roughly 0.2-0.5 s, so 50 ms segments
#: see one speed each.
SEGMENT_S = 0.05


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 1

    def bump(self, step: int) -> int:
        self.value = (self.value * 31 + step) & 0xFFFFF
        return self.value


# Built once at import: a kernel run allocates nothing, it only looks up
# the table and stores ints into the counter.
_TABLE = {i: (i * 7919) & 0xFFFF for i in range(256)}
_COUNTER = _Counter()


def reference_kernel(steps: int = KERNEL_STEPS) -> int:
    """A fixed interpreter workload that allocates no container objects.

    A method call, a dict lookup, an attribute store and a compare per
    step: the mix the program's own hot paths are made of.  Of the kernels
    tried on the reference host (see perfbench/WORKLOADS.md) it had the
    smallest worst case over the three workloads.
    """
    counter = _COUNTER
    table = _TABLE
    x = 0
    i = 0
    while i < steps:
        x = counter.bump(table.get(x & 255, 0))
        if x > 1000:
            x -= 1000
        i += 1
    return x


def time_kernel() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


@dataclass
class PhaseTiming:
    """One timed phase: raw and normalised seconds plus the audit trail."""

    name: str
    raw_s: float = 0.0
    normalised_s: float = 0.0
    # (segment raw seconds, kernel seconds before, kernel seconds after)
    segments: "List[Tuple[float, float, float]]" = field(default_factory=list)

    @property
    def factor(self) -> float:
        return self.normalised_s / self.raw_s if self.raw_s > 0 else 1.0

    def record(self) -> "dict":
        kernels = [self.segments[0][1]] + [s[2] for s in self.segments]
        return {
            "name": self.name,
            "raw_s": self.raw_s,
            "normalised_s": self.normalised_s,
            "nominal_kernel_s": NOMINAL_KERNEL_S,
            "kernel_steps": KERNEL_STEPS,
            "segments": len(self.segments),
            "kernel_median_s": statistics.median(kernels),
            "kernel_min_s": min(kernels),
            "kernel_max_s": max(kernels),
            "segment_raw_s": [round(s[0], 7) for s in self.segments],
            "kernel_s": [round(k, 7) for k in kernels],
        }


class DriftClock:
    """Times phases in drift-normalised wall seconds.

    :meth:`tick` is called often while the program runs (see
    :func:`drift_ticks`); whenever a segment has run for ``SEGMENT_S`` it
    closes the segment with a kernel slice.  Kernel time is excluded from
    the phase.  ``on_pause``/``on_resume`` let a tracer keep kernel slices
    out of its per-layer wall times; ``on_pause`` returning False defers
    the cut.
    """

    def __init__(self) -> None:
        self._phase: "Optional[PhaseTiming]" = None
        self._segment_started = 0.0
        self._last_kernel = 0.0
        self._cutting = False
        self.on_pause: "Optional[Callable[[], bool]]" = None
        self.on_resume: "Optional[Callable[[], None]]" = None

    def tick(self) -> None:
        if (
            self._phase is not None
            and not self._cutting
            and time.perf_counter() - self._segment_started >= SEGMENT_S
        ):
            self._cut()

    def _cut(self) -> None:
        ended = time.perf_counter()
        if self.on_pause is not None and not self.on_pause():
            return  # the tracer is mid-update; cut at a later tick
        self._cutting = True
        try:
            kernel = time_kernel()
        finally:
            self._cutting = False
        phase = self._phase
        raw = ended - self._segment_started
        phase.segments.append((raw, self._last_kernel, kernel))
        phase.raw_s += raw
        phase.normalised_s += raw * NOMINAL_KERNEL_S / (
            (self._last_kernel + kernel) / 2.0
        )
        self._last_kernel = kernel
        if self.on_resume is not None:
            self.on_resume()
        self._segment_started = time.perf_counter()

    @contextmanager
    def phase(self, name: str) -> "Iterator[PhaseTiming]":
        """Time the body as one phase, bracketed by kernel slices."""
        if self._phase is not None:
            raise RuntimeError(f"phase {self._phase.name!r} is still open")
        timing = PhaseTiming(name)
        self._last_kernel = time_kernel()
        self._segment_started = time.perf_counter()
        self._phase = timing
        try:
            yield timing
            # Leftover program threads would compete with the closing
            # kernel slice and flatter the ratio.
            assert_no_session_threads()
            self._cut()
        finally:
            self._phase = None


def assert_no_session_threads(timeout_s: float = 5.0) -> None:
    """Join finished session workers; fail if any is still alive."""
    for thread in threading.enumerate():
        if thread.name.startswith("session/"):
            thread.join(timeout_s)
            if thread.is_alive():
                raise RuntimeError(
                    f"session worker {thread.name} outlived its phase"
                )


@contextmanager
def drift_ticks(drift: DriftClock) -> "Iterator[None]":
    """Tick ``drift`` from a 10 ms interval timer and every clock move.

    The timer's signal handler runs on the main thread between bytecodes,
    so it reaches stretches that never touch the virtual clock (data
    generation, freelist decoding); it stands aside while session worker
    threads exist, because a kernel slice on the main thread would then
    contend with a session for the interpreter lock.  Session workloads
    tick instead on every virtual-clock move, which the scheduler makes on
    each handoff, on whichever thread runs.
    """
    from repro.sim.clock import VirtualClock

    originals = {
        name: VirtualClock.__dict__[name]
        for name in ("advance", "advance_to", "_set_now")
    }

    def hooked(original):
        def method(self, value):
            drift.tick()
            return original(self, value)
        method.__name__ = original.__name__
        return method

    def on_alarm(signum, frame) -> None:
        if threading.active_count() == 1:
            drift.tick()

    for name, original in originals.items():
        setattr(VirtualClock, name, hooked(original))
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
        for name, original in originals.items():
            setattr(VirtualClock, name, original)
