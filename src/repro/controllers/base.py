"""Memory-controller framework shared by all schedulers.

A controller owns one :class:`~repro.dram.system.DramSystem`, accepts
:class:`~repro.dram.commands.Request` transactions, and advances through
time issuing DRAM commands.  The interface is event-driven:

* :meth:`MemoryController.enqueue` — a new transaction arrives.
* :meth:`MemoryController.advance` — process through ``until`` cycles,
  returning every request *released* (result returned to the core) in the
  meantime.
* :meth:`MemoryController.next_event` — the next cycle at which the
  controller could do something, used by the simulation loop.

Subclasses implement :meth:`_work` which performs scheduling between the
current cycle and ``until``.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..dram.commands import (
    Address,
    Command,
    CommandType,
    OpType,
    Request,
    RequestKind,
)
from ..dram.system import DramSystem
from ..dram.timing import TimingParams

# Hot-path Enum members as module constants (see repro.dram.commands).
_DEMAND = RequestKind.DEMAND
_PREFETCH = RequestKind.PREFETCH
_DUMMY = RequestKind.DUMMY


@dataclass
class ControllerStats:
    """Aggregate service statistics, split demand / prefetch / dummy."""

    demand_reads: int = 0
    demand_writes: int = 0
    prefetches: int = 0
    dummies: int = 0
    suppressed_dummies: int = 0
    row_hit_boosts: int = 0
    read_latency_sum: int = 0
    read_count: int = 0
    #: Requests whose slot had to stay empty (intra-domain hazard).
    bubbles: int = 0
    #: Slots filled with a dummy although the domain had pending demand
    #: (blocked by a bank-class restriction or a self-hazard).
    blocked_slots: int = 0
    #: Slots struck by an injected fault (dropped commands, delayed
    #: service, spurious refresh collisions).
    faulted_slots: int = 0
    #: Duplicated commands squashed by the issue-path guard before they
    #: could reach the command bus.
    squashed_duplicates: int = 0

    @property
    def serviced(self) -> int:
        return (
            self.demand_reads + self.demand_writes
            + self.prefetches + self.dummies
        )

    @property
    def dummy_fraction(self) -> float:
        if self.serviced == 0:
            return 0.0
        return self.dummies / self.serviced

    @property
    def prefetch_fraction(self) -> float:
        if self.serviced == 0:
            return 0.0
        return self.prefetches / self.serviced

    @property
    def mean_read_latency(self) -> float:
        if self.read_count == 0:
            return 0.0
        return self.read_latency_sum / self.read_count

    def record_service(self, request: Request) -> None:
        kind = request.kind
        if kind is _DUMMY:
            self.dummies += 1
        elif kind is _PREFETCH:
            self.prefetches += 1
        elif request.is_read:
            self.demand_reads += 1
        else:
            self.demand_writes += 1

    def record_release(self, request: Request) -> None:
        if request.kind is _DEMAND and request.is_read:
            latency = request.latency
            assert latency is not None
            self.read_latency_sum += latency
            self.read_count += 1


class MemoryController(abc.ABC):
    """Base class: request queues, command log, release plumbing."""

    #: Skip per-command JEDEC re-validation.  Only for controllers whose
    #: command stream was proved legal offline (the FS timetables; a
    #: controller clears it on its instance when that proof does not
    #: cover it).  A trusted FS controller with a command log, online
    #: monitor or telemetry session issues each command through
    #: :meth:`~repro.dram.channel.Channel.issue_trusted`, so they still
    #: see every command; one that nothing observes settles its DRAM
    #: counters in closed form instead (see
    #: :class:`~repro.core.fs_controller.FsControllerBase`).  A span
    #: tracer never makes a run observed: the driver holds it.
    trusted_issue = False

    def __init__(
        self,
        dram: DramSystem,
        num_domains: int,
        log_commands: bool = False,
    ) -> None:
        if num_domains < 1:
            raise ValueError("need at least one domain")
        self.dram = dram
        self.params: TimingParams = dram.params
        self.num_domains = num_domains
        self.now = 0
        self.stats = ControllerStats()
        self.log_commands = log_commands
        #: Optional online watchdog (see
        #: :class:`repro.core.online_monitor.OnlineInvariantMonitor`);
        #: observes every service event and issued command live.
        self.monitor = None
        #: Optional observability session (see
        #: :class:`repro.telemetry.session.TelemetrySession`); strictly
        #: passive, guarded by one ``is None`` check per event.
        self.telemetry = None
        #: Full command log (only when log_commands is set; used by the
        #: timing checker and the security tests).
        self.command_log: List[Command] = []
        self._release_heap: List[Tuple[int, int, Request]] = []
        self._seq = itertools.count()
        #: Per-domain service trace: (slot/issue cycle, kind) — the
        #: observable the non-interference tests compare.
        self.service_trace: Dict[int, List[Tuple[int, str]]] = {
            d: [] for d in range(num_domains)
        }

    # ------------------------------------------------------------------
    # Public interface.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, request: Request) -> None:
        """Accept a transaction.

        Contract: requests are delivered in arrival order, no earlier than
        ``advance`` has reached them (``request.arrival`` may not exceed
        the next ``advance`` horizon).  Demand-sensitive policies (write
        drain, FS slot decisions) read queue occupancy, so future-dated
        enqueues would distort scheduling.
        """

    @abc.abstractmethod
    def pending(self, domain: Optional[int] = None) -> int:
        """Number of queued demand transactions (optionally per domain)."""

    def can_accept(self, domain: int) -> bool:
        """Whether a new transaction from ``domain`` may be enqueued now.

        Returning False applies back-pressure: the system holds the
        request and the producing core stalls, exactly as Section 5.1
        describes for a full transaction queue.  Default: unbounded.
        """
        del domain
        return True

    def advance(self, until: int) -> List[Request]:
        """Process through cycle ``until`` and return released requests."""
        if until < self.now:
            raise ValueError("time cannot move backwards")
        self._work(until)
        self.now = until
        released: List[Request] = []
        while self._release_heap and self._release_heap[0][0] <= until:
            _, _, request = heapq.heappop(self._release_heap)
            released.append(request)
            self.stats.record_release(request)
        return released

    @abc.abstractmethod
    def next_event(self) -> Optional[int]:
        """Next cycle > now at which this controller can make progress,
        or None if it is idle until new requests arrive."""

    def busy(self) -> bool:
        """Queued demand or an undelivered release.  Dummy slots alone
        never count: an FS pipeline ticks forever, but there is nothing
        left to wait for (see :func:`repro.sim.openloop.drive_open_loop`)."""
        return bool(self.pending() or self._release_heap)

    def drain_deadline(self) -> Optional[int]:
        """Earliest cycle by which every accepted request will have been
        released, if the controller can tell; used for clean shutdown."""
        if self._release_heap:
            return self._release_heap[0][0]
        return None

    # ------------------------------------------------------------------
    # Helpers for subclasses.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _work(self, until: int) -> None:
        """Scheduling work between ``self.now`` and ``until``."""

    def attach_monitor(self, monitor) -> None:
        """Attach an online invariant watchdog to this controller."""
        self.monitor = monitor

    def attach_telemetry(self, session) -> None:
        """Attach a telemetry session to this controller.

        Also wires the session into the controller's fault injector and
        online monitor when present, so fault strikes and invariant
        violations stream into the same registry/timeline.  Composite
        controllers override this to fan out to their sub-controllers.
        """
        self.telemetry = session
        injector = getattr(self, "fault_injector", None)
        if injector is not None:
            injector.telemetry = session
        if self.monitor is not None:
            self.monitor.telemetry = session

    def _issue(self, command: Command) -> Optional[int]:
        """Issue a command to its channel, with optional logging."""
        channel = self.dram.channels[command.channel]
        if self.trusted_issue:
            data_start = channel.issue_trusted(command)
        else:
            data_start = channel.issue(command)
        if self.log_commands:
            self.command_log.append(command)
        if self.monitor is not None:
            self.monitor.observe_command(command)
        if self.telemetry is not None:
            self.telemetry.on_command(self, command)
        return data_start

    def _schedule_release(self, request: Request, cycle: int) -> None:
        request.release = cycle
        heapq.heappush(
            self._release_heap, (cycle, next(self._seq), request)
        )

    def _trace(self, domain: int, cycle: int, what: str) -> None:
        self.service_trace[domain].append((cycle, what))
        if self.monitor is not None:
            self.monitor.observe_service(domain, cycle, what)
        if self.telemetry is not None:
            self.telemetry.on_service(self, domain, cycle, what)

    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Close out power-state accounting at the current cycle."""
        self.dram.finalize(self.now)
        if self.monitor is not None:
            self.monitor.finalize()

    @property
    def name(self) -> str:
        return type(self).__name__
