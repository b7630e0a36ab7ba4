"""CPU time accounting for the simulated instance.

The columnar executor and load engine charge abstract *work units*
(tuple operations) to a :class:`CpuModel`; the model converts them into
virtual seconds given the instance's vCPU count and a parallel fraction
(Amdahl-style), which is what produces the paper's scale-up curves
(Figure 7).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.clock import VirtualClock


class CpuModel:
    """Charges work units against the virtual clock."""

    def __init__(
        self,
        clock: VirtualClock,
        vcpus: int,
        ops_per_second: float = 50e6,
        parallel_fraction: float = 0.97,
    ) -> None:
        if vcpus < 1:
            raise ValueError(f"need at least one vCPU, got {vcpus}")
        if ops_per_second <= 0:
            raise ValueError("ops_per_second must be positive")
        if not 0.0 <= parallel_fraction <= 1.0:
            raise ValueError("parallel fraction must be in [0, 1]")
        self.clock = clock
        self.vcpus = vcpus
        self.ops_per_second = ops_per_second
        self.parallel_fraction = parallel_fraction
        self.total_ops = 0.0

    def seconds_for(self, ops: float) -> float:
        """Virtual seconds a workload of ``ops`` units takes (Amdahl)."""
        if ops < 0:
            raise ValueError(f"cannot charge negative work {ops!r}")
        serial = (1.0 - self.parallel_fraction) * ops
        parallel = self.parallel_fraction * ops / self.vcpus
        return (serial + parallel) / self.ops_per_second

    def charge(self, ops: float) -> float:
        """Advance the clock by the work's duration; return seconds."""
        seconds = self.seconds_for(ops)
        self.total_ops += ops
        self.clock.advance(seconds)
        return seconds


class MorselScheduler:
    """Morsel-driven parallel CPU charging (an alternative CPU model).

    Work is handed over as ``(ops, rows)``.  Rows are split into
    fixed-size *morsels* which the scheduler dispatches to the instance's
    vCPUs in waves, so a batch's virtual duration is

        waves * (ops / morsels) / rate  +  morsels * dispatch_ops / rate

    where ``waves = ceil(morsels / vcpus)``.  The first term shrinks
    nearly linearly with vCPUs until a batch has fewer morsels than
    cores; the second models the serial scheduler loop that eventually
    binds — which is exactly the mechanism behind the paper's Figure 7
    scale-up curve.  Reading ``cpu.vcpus`` live means re-provisioning an
    instance immediately changes query times without rebuilding anything.

    The executor charges every operator through :class:`CpuModel`; no
    program path calls this class.  It stays because the benchmark's
    traced run (``perfbench/spans.py``) wraps ``charge`` by name.
    """

    def __init__(
        self,
        cpu: CpuModel,
        rows_per_morsel: int = 4096,
        dispatch_ops: float = 32.0,
        metrics: "Optional[object]" = None,
    ) -> None:
        if rows_per_morsel < 1:
            raise ValueError(
                f"rows_per_morsel must be positive, got {rows_per_morsel}"
            )
        if dispatch_ops < 0:
            raise ValueError("dispatch_ops cannot be negative")
        self.cpu = cpu
        self.rows_per_morsel = rows_per_morsel
        self.dispatch_ops = dispatch_ops
        self.morsels_dispatched = 0
        self.waves_run = 0
        self._morsel_counter = (
            metrics.counter("morsels_dispatched") if metrics is not None else None
        )
        self._wave_counter = (
            metrics.counter("morsel_waves") if metrics is not None else None
        )

    def plan(self, rows: float) -> "tuple[int, int]":
        """(morsels, waves) a batch of ``rows`` splits into right now."""
        morsels = max(1, math.ceil(rows / self.rows_per_morsel))
        return morsels, math.ceil(morsels / self.cpu.vcpus)

    def seconds_for(self, ops: float, rows: "Optional[float]" = None) -> float:
        """Virtual seconds the batch takes under morsel parallelism."""
        if ops < 0:
            raise ValueError(f"cannot charge negative work {ops!r}")
        morsels, waves = self.plan(rows if rows is not None else ops)
        per_morsel = ops / morsels
        return (
            waves * per_morsel + morsels * self.dispatch_ops
        ) / self.cpu.ops_per_second

    def charge(self, ops: float, rows: "Optional[float]" = None) -> float:
        """Advance the clock by the batch's duration; return seconds."""
        seconds = self.seconds_for(ops, rows)
        morsels, waves = self.plan(rows if rows is not None else ops)
        self.morsels_dispatched += morsels
        self.waves_run += waves
        if self._morsel_counter is not None:
            self._morsel_counter.increment(morsels)
            self._wave_counter.increment(waves)
        self.cpu.total_ops += ops
        self.cpu.clock.advance(seconds)
        return seconds
