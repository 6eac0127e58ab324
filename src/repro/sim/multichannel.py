"""Multi-channel Fixed Service: the paper's full target system.

The paper's platform is a 32-core processor with four channels of eight
ranks (Section 4.1); its evaluation simulates one channel with eight
cores to bound Simics time.  Channels have private buses, so the full
system is simply one FS controller per channel, each serving the
domains whose ranks live there — this module provides the composition.

:class:`MultiChannelFsController` groups domains by the channel their
partition assigns them to, builds one rank-partitioned FS timetable per
channel, and routes requests.  Security composes: each sub-controller is
non-interfering among its own domains, and domains on different channels
share nothing at all.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..controllers.base import ControllerStats, MemoryController
from ..core.fs_controller import FixedServiceController
from ..core.pipeline_solver import SharingLevel
from ..core.schedule import cached_fs_schedule
from ..dram.commands import Request
from ..dram.system import DramSystem
from ..errors import ConfigError
from ..mapping.partition import PartitionPolicy, RankPartition


class _ChannelLocalPartition(PartitionPolicy):
    """A view of a global partition restricted to one channel, with
    domain ids renumbered 0..k-1 for the channel's sub-controller."""

    def __init__(
        self,
        parent: PartitionPolicy,
        channel: int,
        global_domains: List[int],
    ) -> None:
        super().__init__(parent.geometry, len(global_domains))
        self.parent = parent
        self.channel = channel
        self.global_domains = list(global_domains)

    @property
    def level(self) -> str:
        return self.parent.level

    def decode(self, domain: int, line: int):
        self._check_domain(domain)
        return self.parent.decode(self.global_domains[domain], line)

    def resources(self, domain: int):
        self._check_domain(domain)
        return [
            r for r in self.parent.resources(self.global_domains[domain])
            if r[0] == self.channel
        ]


class MultiChannelFsController(MemoryController):
    """One FS_RP controller per channel, composed behind one interface."""

    #: Per-channel controller class; the fast engine's subclass
    #: (:mod:`repro.sim.fastpath`) slots in its trusted-issue controller.
    SUB_CONTROLLER = FixedServiceController

    def __init__(
        self,
        dram: DramSystem,
        partition: RankPartition,
        num_domains: int,
        log_commands: bool = False,
    ) -> None:
        super().__init__(dram, num_domains, log_commands)
        # Group domains by the (single) channel their ranks live on.
        by_channel: Dict[int, List[int]] = {}
        for d in range(num_domains):
            channels = {ch for ch, _, _ in partition.resources(d)}
            if len(channels) != 1:
                raise ConfigError(
                    f"domain {d} spans channels {sorted(channels)}; "
                    "multi-channel FS needs channel-local domains"
                )
            by_channel.setdefault(channels.pop(), []).append(d)
        self._sub: Dict[int, FixedServiceController] = {}
        self._local_id: Dict[int, Tuple[int, int]] = {}
        for channel, domains in sorted(by_channel.items()):
            schedule = cached_fs_schedule(
                dram.params, len(domains), SharingLevel.RANK
            )
            view = _ChannelLocalPartition(partition, channel, domains)
            controller = self.SUB_CONTROLLER(
                dram, schedule, view, channel=channel,
                log_commands=log_commands,
            )
            self._sub[channel] = controller
            for local, global_id in enumerate(domains):
                self._local_id[global_id] = (channel, local)

    # ------------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        channel, local = self._local_id[request.domain]
        request.domain = local
        self._sub[channel].enqueue(request)

    def pending(self, domain: Optional[int] = None) -> int:
        if domain is None:
            return sum(c.pending() for c in self._sub.values())
        channel, local = self._local_id[domain]
        return self._sub[channel].pending(local)

    def can_accept(self, domain: int) -> bool:
        """Back-pressure routes to the domain's own channel controller."""
        channel, local = self._local_id[domain]
        return self._sub[channel].can_accept(local)

    def next_event(self) -> Optional[int]:
        events = [c.next_event() for c in self._sub.values()]
        events = [e for e in events if e is not None]
        return min(events) if events else None

    def drain_deadline(self) -> Optional[int]:
        """Earliest pending release across all channels.

        The base-class implementation reads ``self._release_heap``, which
        this composite never populates (each sub-controller owns its own
        heap), so without this override the fast driver would see ``None``
        and jump past in-flight releases.
        """
        deadlines = [c.drain_deadline() for c in self._sub.values()]
        deadlines = [d for d in deadlines if d is not None]
        return min(deadlines) if deadlines else None

    def busy(self) -> bool:
        return any(c.busy() for c in self._sub.values())

    def release_horizon(self) -> Optional[int]:
        """Earliest new-release bound across channels (see
        :meth:`FixedServiceController.release_horizon`).  A channel
        with queued work but no bound leaves the composite unbounded."""
        best: Optional[int] = None
        for controller in self._sub.values():
            horizon = controller.release_horizon()
            if horizon is None:
                if controller.pending():
                    return None
            elif best is None or horizon < best:
                best = horizon
        return best

    def advance(self, until: int):
        self.now = until
        released = []
        for controller in self._sub.values():
            released.extend(controller.advance(until))
        released.sort(key=lambda r: (r.release, r.req_id))
        return released

    def _work(self, until: int) -> None:  # pragma: no cover - unused
        raise NotImplementedError("advance() fans out directly")

    def finalize(self) -> None:
        """Settle each channel's closed-form records, then close the
        shared DRAM system's accounting once."""
        for controller in self._sub.values():
            controller.settle_ledger()
        super().finalize()

    @property
    def command_log(self):
        log = []
        for controller in self._sub.values():
            log.extend(controller.command_log)
        return log

    @command_log.setter
    def command_log(self, value) -> None:
        # Base-class __init__ assigns an empty list; sub-controllers own
        # the real logs.
        pass

    @property
    def service_trace(self):
        merged = {}
        for global_id, (channel, local) in self._local_id.items():
            merged[global_id] = self._sub[channel].service_trace[local]
        return merged

    @service_trace.setter
    def service_trace(self, value) -> None:
        pass

    def attach_monitor(self, monitor) -> None:
        """Share one watchdog with every per-channel sub-controller.

        The sub-controllers issue the commands, so each must observe
        through the monitor.  The composite has no single timetable
        (``schedule`` is absent), so only the JEDEC command checks run.
        """
        super().attach_monitor(monitor)
        for controller in self._sub.values():
            controller.attach_monitor(monitor)

    def attach_telemetry(self, session) -> None:
        """Fan the session out to every per-channel sub-controller.

        Sub-controllers trace with *channel-local* domain ids, so each
        one registers its local -> global renumbering with the session:
        metric labels and trace tracks stay globally consistent.
        """
        super().attach_telemetry(session)
        by_sub: Dict[int, Dict[int, int]] = {}
        for global_id, (channel, local) in self._local_id.items():
            by_sub.setdefault(channel, {})[local] = global_id
        for channel, controller in self._sub.items():
            controller.attach_telemetry(session)
            session.register_domain_map(
                controller, by_sub.get(channel, {})
            )

    @property
    def stats(self):
        """Combined ControllerStats across channels (sub-controllers do
        the per-release accounting)."""
        return self.aggregate_stats()

    @stats.setter
    def stats(self, value) -> None:
        pass  # base-class __init__ assigns a placeholder

    def aggregate_stats(self) -> ControllerStats:
        """Combined ControllerStats across channels: every field is the
        sum over the sub-controllers."""
        total = ControllerStats()
        for controller in self._sub.values():
            for f in dataclasses.fields(ControllerStats):
                setattr(total, f.name, getattr(total, f.name)
                        + getattr(controller.stats, f.name))
        return total
