"""Compatibility shim: legacy stat structs -> the metrics registry.

The simulator predates the registry: controllers accumulate a
:class:`~repro.controllers.base.ControllerStats` dataclass, DRAM channels
keep ``stat_commands`` / ``stat_data_cycles`` integers, ranks keep
:class:`~repro.dram.rank.RankEnergyCounters`, the power model returns an
:class:`~repro.dram.power.EnergyBreakdown`, and the monitor a violation
total.  None of that plumbing changes — this module *harvests* each
legacy struct into registry metrics after a run, so every consumer
(JSON, Prometheus, snapshots, dashboards) sees one unified namespace
while the hot paths keep their plain-integer accounting.  Fault strikes
are not harvested: the live
:class:`~repro.telemetry.session.TelemetrySession` counts each one as
it happens.

Field lists are discovered with :func:`dataclasses.fields`, so a new
``ControllerStats`` / ``RankEnergyCounters`` / ``EnergyBreakdown`` field
shows up as a metric automatically.

Everything harvested here is a pure function of simulated observables —
no wall-clock, no engine internals — so nothing is volatile and the
cross-engine snapshot comparison in ``tests/test_differential.py``
covers all of it.
"""

from __future__ import annotations

import dataclasses

from .registry import MetricsRegistry
from .report import (
    histogram_to_registry,
    inter_service_histogram,
    is_degenerate,
)


def harvest_controller_stats(registry: MetricsRegistry, stats) -> None:
    """Export a :class:`ControllerStats` (or compatible dataclass)."""
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        registry.counter(
            f"controller_{field.name}_total",
            f"controller stat: {field.name}",
        ).inc(value)
    registry.gauge(
        "controller_mean_read_latency_cycles",
        "mean demand-read latency (enqueue to release)",
    ).set(round(stats.mean_read_latency, 6))
    registry.gauge(
        "controller_dummy_fraction",
        "fraction of serviced slots filled by dummy transactions",
    ).set(round(stats.dummy_fraction, 6))
    registry.gauge(
        "controller_prefetch_fraction",
        "fraction of serviced slots filled by prefetches",
    ).set(round(stats.prefetch_fraction, 6))


def harvest_dram(registry: MetricsRegistry, dram) -> None:
    """Export per-channel bus stats and per-rank energy counters."""
    commands = registry.counter(
        "dram_channel_commands_total",
        "DRAM commands accepted by each channel", ("channel",),
    )
    data_cycles = registry.counter(
        "dram_channel_data_cycles_total",
        "data-bus busy cycles per channel", ("channel",),
    )
    for channel in dram.channels:
        commands.inc(channel.stat_commands, channel=channel.channel_id)
        data_cycles.inc(
            channel.stat_data_cycles, channel=channel.channel_id
        )
        for rank_id, rank in enumerate(channel.ranks):
            for field in dataclasses.fields(rank.energy):
                registry.counter(
                    f"dram_rank_{field.name}_total",
                    f"rank activity counter: {field.name}",
                    ("channel", "rank"),
                ).inc(
                    getattr(rank.energy, field.name),
                    channel=channel.channel_id, rank=rank_id,
                )


def harvest_energy(registry: MetricsRegistry, energy) -> None:
    """Export an :class:`EnergyBreakdown` as per-component gauges."""
    for field in dataclasses.fields(energy):
        registry.gauge(
            f"energy_{field.name}",
            f"energy component: {field.name} (picojoules)",
        ).set(round(getattr(energy, field.name), 3))
    registry.gauge(
        "energy_total_pj", "total DRAM energy (picojoules)",
    ).set(round(energy.total_pj, 3))


def harvest_cores(registry: MetricsRegistry, cores) -> None:
    """Export per-core outcomes (labeled by security domain)."""
    ipc = registry.gauge(
        "core_ipc", "retired instructions per cycle", ("domain",)
    )
    reads = registry.counter(
        "core_reads_completed_total",
        "demand reads completed per core", ("domain",),
    )
    instructions = registry.counter(
        "core_instructions_total",
        "instructions retired per core", ("domain",),
    )
    done = registry.gauge(
        "core_done", "1 when the core finished its trace", ("domain",)
    )
    for core in cores:
        ipc.set(round(core.ipc, 6), domain=core.domain)
        reads.inc(core.reads_completed, domain=core.domain)
        instructions.inc(core.instructions, domain=core.domain)
        done.set(1 if core.done else 0, domain=core.domain)


def harvest_monitor(registry: MetricsRegistry, monitor) -> None:
    """Export the online watchdog's verdict."""
    if monitor is None:
        return
    registry.gauge(
        "monitor_ok",
        "1 when the online invariant monitor saw zero violations",
    ).set(1 if monitor.ok else 0)
    registry.gauge(
        "monitor_total_violations",
        "invariant violations flagged by the online monitor",
    ).set(monitor.total_violations)


def harvest_run(
    registry: MetricsRegistry, result, controller=None
) -> None:
    """Harvest one :class:`~repro.sim.system.RunResult` end to end.

    ``controller`` additionally pulls DRAM channel/rank activity and the
    monitor verdict.
    """
    registry.gauge("run_info", "1; labels carry run identity",
                   ("scheme",)).set(1, scheme=result.scheme)
    registry.gauge("run_cycles", "simulated memory-controller cycles")\
        .set(result.cycles)
    registry.gauge("bus_utilization", "data-bus busy fraction")\
        .set(round(result.bus_utilization, 6))
    harvest_controller_stats(registry, result.stats)
    harvest_energy(registry, result.energy)
    harvest_cores(registry, result.cores)
    histograms = inter_service_histogram(result.service_trace)
    histogram_to_registry(registry, histograms)
    registry.gauge(
        "service_cadence_degenerate",
        "1 when every domain's inter-service-time histogram has a "
        "single bucket (the FS invariance)",
    ).set(1 if is_degenerate(histograms) else 0)
    if controller is not None:
        harvest_dram(registry, controller.dram)
        harvest_monitor(registry, getattr(controller, "monitor", None))


__all__ = [
    "harvest_controller_stats",
    "harvest_cores",
    "harvest_dram",
    "harvest_energy",
    "harvest_monitor",
    "harvest_run",
]
