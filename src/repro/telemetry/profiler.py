"""Engine profiling: how hard is the fast path actually working?

:class:`EngineProfiler` is the hook the cycle-skipping driver
(:class:`repro.sim.fastpath.FastSystem`) reports into when profiling is
enabled: per-stride horizon-jump sizes, total driver iterations,
simulated cycles, and wall-clock time.  Combined with the process-global
schedule-memo counters of :mod:`repro.core.schedule` it yields the
numbers the ROADMAP's perf work steers by:

* **events per second** — driver iterations / wall second (the fast
  engine's overhead floor);
* **cycles per second** — simulated cycles / wall second (the headline
  throughput number);
* **horizon-jump distribution** — how far each stride skipped; a
  healthy fast run jumps hundreds of cycles per event, a degraded one
  (deep queues, fault injection) degenerates toward 1-cycle reference
  stepping;
* **template cache hit rate** — fraction of runs that reused a solved
  schedule instead of re-running the pipeline solver.

Everything wall-clock-derived is exported as **volatile** metrics:
present in JSON/Prometheus artifacts, excluded from the determinism
snapshots the differential suite compares.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from .registry import MetricsRegistry

class EngineProfiler:
    """Accumulates fast-driver activity across one or more runs."""

    def __init__(self) -> None:
        self.runs = 0
        self.iterations = 0
        self.cycles = 0
        self.wall_seconds = 0.0
        self.stride_count = 0
        self.stride_cycles = 0
        self.max_stride = 0
        #: Power-of-two bucketed horizon-jump sizes:
        #: ``stride.bit_length() -> count`` (bucket k holds strides in
        #: ``[2**(k-1), 2**k)``).
        self.stride_hist: Counter = Counter()

    # -- hot-path hooks (called from FastSystem.run) --------------------

    def note_stride(self, stride: int) -> None:
        """One driver iteration advanced the clock by ``stride``."""
        self.iterations += 1
        self.stride_count += 1
        self.stride_cycles += stride
        if stride > self.max_stride:
            self.max_stride = stride
        self.stride_hist[stride.bit_length()] += 1

    def note_run(self, cycles: int, wall_seconds: float) -> None:
        """One simulation finished."""
        self.runs += 1
        self.cycles += cycles
        self.wall_seconds += wall_seconds

    # -- derived --------------------------------------------------------

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.iterations / self.wall_seconds

    @property
    def cycles_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def mean_stride(self) -> float:
        if self.stride_count == 0:
            return 0.0
        return self.stride_cycles / self.stride_count

    # -- export ---------------------------------------------------------

    def to_registry(self, registry: MetricsRegistry) -> None:
        """Export the profile.

        Every ``engine_*`` metric is **volatile**: either it is
        wall-clock-derived, or it exists only under the fast engine —
        both would break the cross-engine determinism snapshot.
        """
        registry.counter(
            "engine_driver_iterations_total",
            "fast-driver loop iterations (one per demand-side event)",
            volatile=True,
        ).inc(self.iterations)
        registry.counter(
            "engine_stride_cycles_total",
            "cycles covered by fast-driver strides", volatile=True,
        ).inc(self.stride_cycles)
        registry.gauge(
            "engine_max_stride_cycles",
            "largest single horizon jump observed", volatile=True,
        ).set(self.max_stride)
        registry.gauge(
            "engine_mean_stride_cycles",
            "mean horizon-jump size (cycles per driver event)",
            volatile=True,
        ).set(round(self.mean_stride, 6))
        stride_counter = registry.counter(
            "engine_stride_size_total",
            "horizon-jump size distribution; bucket k holds strides in "
            "[2^(k-1), 2^k) cycles", ("bucket",), volatile=True,
        )
        for bits, count in sorted(self.stride_hist.items()):
            stride_counter.inc(count, bucket=f"2^{bits}")
        # Wall-clock-derived: volatile by construction.
        registry.gauge(
            "engine_wall_seconds", "wall-clock simulation time",
            volatile=True,
        ).set(self.wall_seconds)
        registry.gauge(
            "engine_events_per_second",
            "fast-driver iterations per wall second", volatile=True,
        ).set(round(self.events_per_second, 3))
        registry.gauge(
            "engine_cycles_per_second",
            "simulated cycles per wall second", volatile=True,
        ).set(round(self.cycles_per_second, 3))
        # Schedule-memo effectiveness (process-global counters owned by
        # repro.core.schedule and shared by both engines; volatile
        # because the memo outlives runs — the hit rate depends on what
        # ran earlier in the process).
        from ..core.schedule import template_cache_stats

        stats = template_cache_stats()
        registry.gauge(
            "engine_template_cache_hits",
            "schedule-template cache hits (process-global)",
            volatile=True,
        ).set(stats["hits"])
        registry.gauge(
            "engine_template_cache_misses",
            "schedule-template cache misses (process-global)",
            volatile=True,
        ).set(stats["misses"])
        total = stats["hits"] + stats["misses"]
        registry.gauge(
            "engine_template_cache_hit_rate",
            "fraction of schedule builds served from the template cache",
            volatile=True,
        ).set(round(stats["hits"] / total, 6) if total else 0.0)


__all__ = ["EngineProfiler"]
