"""The live telemetry session: observe one run event by event.

A :class:`TelemetrySession` bundles the two per-event surfaces —
:class:`~repro.telemetry.registry.MetricsRegistry` and an optional
:class:`~repro.telemetry.collector.TraceCollector` — behind the hook
methods the simulation stack calls:

* ``on_service`` — every slot grant, from
  :meth:`repro.controllers.base.MemoryController._trace`;
* ``on_command`` — every DRAM command, from the issue paths (checked
  and trusted);
* ``on_fault`` — every struck fault, from
  :meth:`repro.faults.FaultInjector.record`;
* ``on_violation`` — every invariant violation, from the online monitor.

It is the only telemetry object that reaches a controller, and
attaching one makes the run *observed*: a trusted Fixed Service
controller then issues command by command instead of settling its
DRAM counters in closed form.  Span tracing and run timing belong to
the driver instead (``SchemeOptions.tracer`` /
:attr:`repro.sim.system.System.tracer`), so a traced run takes the
same code path as an untraced one.

**Zero overhead when absent** is the design rule: controllers hold
``self.telemetry = None`` and guard each hook behind one ``is None``
check — the same pattern as the online monitor — so a run without a
session pays a single attribute load per event and allocates nothing.

Attachment goes through :meth:`attach`, which delegates to the
controller's ``attach_telemetry`` so composites
(:class:`~repro.sim.multichannel.MultiChannelFsController`) can fan the
session out to their per-channel sub-controllers and register the
local-to-global domain renumbering via :meth:`register_domain_map` —
metric labels and trace tracks always carry *global* domain ids.
"""

from __future__ import annotations

from typing import Dict, Optional

from .collector import TraceCollector
from .registry import MetricsRegistry

#: Service-trace kind codes -> human-readable event names.
KIND_NAMES: Dict[str, str] = {
    "R": "demand-read",
    "W": "demand-write",
    "P": "prefetch",
    "D": "dummy",
    "-": "bubble",
    "F": "fault",
    "p": "power-down",
}


class TelemetrySession:
    """Registry + collector behind the simulator's per-event hooks.

    Parameters
    ----------
    registry:
        Metrics registry to populate (fresh one when omitted).
    collector:
        Optional cycle-accurate trace collector; ``None`` keeps the
        session metrics-only (no per-event records retained).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        collector: Optional[TraceCollector] = None,
    ) -> None:
        self.registry = registry if registry is not None else (
            MetricsRegistry()
        )
        self.collector = collector
        #: id(controller) -> {local domain: global domain} for
        #: composite controllers whose sub-controllers renumber domains.
        self._domain_maps: Dict[int, Dict[int, int]] = {}
        # Hot-path metric families, resolved once.
        r = self.registry
        self._service = r.counter(
            "service_events_total",
            "slot grants by security domain and kind code",
            ("domain", "kind"),
        )
        # Queue occupancy is sampled live at service time.  Whether a
        # request arriving *on the service cycle itself* is already
        # enqueued depends on the engine's core/controller interleaving
        # (the fast driver batches core advancement), so — like wall
        # clock — the sample is volatile: useful for dashboards,
        # excluded from the cross-engine determinism contract.
        self._queue_depth = r.gauge(
            "queue_depth",
            "pending demand per domain at its last service event",
            ("domain",), volatile=True,
        )
        self._commands = r.counter(
            "commands_issued_total",
            "DRAM commands issued, by command type and channel",
            ("type", "channel"),
        )
        self._faults = r.counter(
            "faults_injected_total",
            "injected faults that struck", ("kind",),
        )
        self._recoveries = r.counter(
            "recoveries_total",
            "faults recovered within the victim domain's own slots",
        )
        self._violations = r.counter(
            "monitor_violations_total",
            "invariant violations flagged live by the online monitor",
        )

    # -- wiring ---------------------------------------------------------

    def attach(self, controller) -> None:
        """Attach to a controller (and its injector/monitor/subs)."""
        controller.attach_telemetry(self)

    def register_domain_map(
        self, controller, mapping: Dict[int, int]
    ) -> None:
        """Record a sub-controller's local -> global domain renumbering."""
        self._domain_maps[id(controller)] = dict(mapping)

    # -- hot-path hooks -------------------------------------------------

    def on_service(
        self, controller, domain: int, cycle: int, kind: str
    ) -> None:
        """One slot grant, live from the controller's ``_trace``."""
        mapping = self._domain_maps.get(id(controller))
        shown = mapping[domain] if mapping is not None else domain
        self._service.inc(domain=shown, kind=kind)
        depth = controller.pending(domain)
        self._queue_depth.set(depth, domain=shown)
        collector = self.collector
        if collector is not None:
            track = f"domain {shown}"
            collector.record(
                cycle, "slots", track,
                KIND_NAMES.get(kind, kind), ph="i",
            )
            # The "queues" track mirrors the volatile gauge above and
            # carries the same caveat: same-cycle arrivals make it
            # engine-timing-sensitive, so equivalence suites compare
            # every track *except* this one.
            collector.record(
                cycle, "queues", track, "queue_depth", ph="C",
                args={"pending": depth},
            )

    def on_command(self, controller, command) -> None:
        """One DRAM command, live from the issue path."""
        self._commands.inc(
            type=command.type.value, channel=command.channel
        )
        collector = self.collector
        if collector is not None:
            tid = (
                f"rank {command.rank} bank {command.bank}"
                if command.bank >= 0 else f"rank {command.rank}"
            )
            args = None
            if command.domain >= 0:
                mapping = self._domain_maps.get(id(controller))
                shown = (
                    mapping[command.domain] if mapping is not None
                    else command.domain
                )
                args = {"domain": shown}
            collector.record(
                command.cycle, f"channel {command.channel}", tid,
                command.type.value, ph="i", args=args,
            )

    def on_fault(
        self, kind, domain: int, cycle: int, detail: str = ""
    ) -> None:
        """One struck fault, live from :meth:`FaultInjector.record`."""
        name = kind.value if hasattr(kind, "value") else str(kind)
        self._faults.inc(kind=name)
        if name != "borrow_foreign_slot":
            self._recoveries.inc()
        if self.collector is not None:
            self.collector.record(
                cycle, "faults", f"domain {domain}", name, ph="i",
                args={"detail": detail} if detail else None,
            )

    def on_violation(
        self, domain: Optional[int], cycle: int, reason: str
    ) -> None:
        """One invariant violation, live from the online monitor."""
        self._violations.inc()
        if self.collector is not None:
            track = (
                f"domain {domain}"
                if domain is not None and domain >= 0 else "channel"
            )
            self.collector.record(
                cycle, "monitor", track, "violation", ph="i",
                args={"reason": reason},
            )

    # -- post-run -------------------------------------------------------

    def harvest(self, result, controller=None) -> None:
        """Fold a finished run's legacy stat structs into the registry.

        Faults are *not* re-harvested — every strike was already counted
        live through :meth:`on_fault`.
        """
        from .compat import harvest_run

        harvest_run(self.registry, result, controller)

    def close(self) -> None:
        """Flush and close the collector's sink, if any (idempotent)."""
        if self.collector is not None:
            self.collector.close()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["KIND_NAMES", "TelemetrySession"]
