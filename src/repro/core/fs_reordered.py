"""FS with reordered bank partitioning (Section 4.2).

All domains inject one transaction at the start of each interval; the
controller issues every read first, then every write, with a uniform
6-cycle data pitch and a single write-to-read tail before the next
interval — nearly doubling bus utilization over the basic bank-partitioned
pipeline (Q = 63 vs 120 for eight domains).

Re-ordering reads before writes would leak the read/write mix of
co-runners through read latencies, so read results are *released en masse*
at the end of the interval: a domain's observable timing depends only on
which interval its request was served in, which in turn depends only on
its own queue.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dram.commands import OpType, Request, RequestKind
from ..dram.system import DramSystem
from ..faults import FaultInjector, FaultKind
from ..mapping.partition import PartitionPolicy
from .energy_opts import FsEnergyOptions
from .fs_controller import FsControllerBase, service_code
from .schedule import (
    CommandTimes,
    ReorderedBpGeometry,
    cached_reordered_bp_geometry,
    reordered_bp_lead,
    reordered_bp_times,
    validate_reordered_bp_geometry,
)

# Hot-path Enum members as module constants (see repro.dram.commands).
_READ = OpType.READ
_DEMAND = RequestKind.DEMAND
_DUMMY = RequestKind.DUMMY


class ReorderedBpController(FsControllerBase):
    """Interval-batched FS: reads first, writes after, en-masse release.

    No pipeline solver proves a reordered geometry legal, so the
    controller issues trusted only when its geometry passed
    :func:`~repro.core.schedule.validate_reordered_bp_geometry` on its
    own timing parameters; otherwise it sets ``trusted_issue = False``
    on the instance and every command is checked.
    """

    def __init__(
        self,
        dram: DramSystem,
        partition: PartitionPolicy,
        num_domains: int,
        geometry: Optional[ReorderedBpGeometry] = None,
        channel: int = 0,
        energy_options: FsEnergyOptions = None,
        log_commands: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if geometry is None:
            geometry, legal = cached_reordered_bp_geometry(
                dram.params, num_domains
            )
        elif geometry.num_domains != num_domains:
            raise ValueError("geometry domain count mismatch")
        else:
            legal = not validate_reordered_bp_geometry(
                dram.params, geometry
            )
        # One decision per interval, at the interval's first cycle.
        super().__init__(
            dram, num_domains, partition, channel, energy_options,
            log_commands, fault_injector, (0,), geometry.interval_length,
        )
        self.geometry = geometry
        if not legal:
            self.trusted_issue = False
        self._lead = reordered_bp_lead(dram.params)

    # ------------------------------------------------------------------

    def interval_start(self, index: int) -> int:
        """Cycle of the interval's first data burst."""
        return self._lead + index * self.geometry.interval_length

    def release_horizon(self) -> Optional[int]:
        """Earliest cycle a *new* core release could be created.

        Every demand read served in interval ``i`` is released en masse
        at that interval's last data end — a pure function of ``i`` —
        and undecided intervals start at ``self._next_decision``, so no
        future dispatch can release before the next interval's release
        point.  Releases from already-decided intervals sit in the
        release heap and are covered by ``drain_deadline``.  Faults keep
        the bound: ``drop_command`` and ``delay_slot`` only move a demand
        to a later interval, and this controller has no borrow path.
        """
        g = self.geometry
        return (
            self.interval_start(self._next_decision)
            + (g.num_domains - 1) * g.data_gap
            + self.params.tBURST
        )

    # ------------------------------------------------------------------

    def _decide(self, index: int, pos: int, offset: int) -> None:
        decide_at = offset
        start = self.interval_start(index)
        last_slot = start + (
            (self.geometry.num_domains - 1) * self.geometry.data_gap
        )
        last_data_end = last_slot + self.params.tBURST
        # Pick against the interval's earliest slot, commit hazards at
        # its last (see _dispatch): both pairs are indexed by is_read.
        p = self.params
        pick_times = (
            reordered_bp_times(p, start, False),
            reordered_bp_times(p, start, True),
        )
        hazard_times = (
            reordered_bp_times(p, last_slot, False),
            reordered_bp_times(p, last_slot, True),
        )
        picks: List[Request] = []
        for domain in range(self.num_domains):
            request = self._pick(
                domain, start, decide_at, index, pick_times
            )
            if request is not None:
                picks.append(request)
            else:
                self.stats.bubbles += 1
                self._trace(domain, start, "-")
        # Reads first, then writes; domain order within each group.
        reads = [r for r in picks if r.is_read]
        writes = [r for r in picks if not r.is_read]
        for position, request in enumerate(reads + writes):
            data_at = start + self.geometry.data_offset(position)
            self._dispatch(
                request, data_at,
                release_at=last_data_end,
                hazard_times=hazard_times[request.is_read],
            )

    def _pick(
        self, domain: int, start: int, decide_at: int,
        interval_index: int,
        times: Tuple[CommandTimes, CommandTimes],
    ) -> Optional[Request]:
        """The domain's transaction for this interval: a legal queued
        demand, else a dummy.  ``times`` are the interval's earliest-slot
        command times, indexed by ``is_read``."""
        tracker = self._hazards[domain]
        injector = self.fault_injector
        delayed = injector is not None and injector.delay_slot(
            domain, interval_index
        )
        if delayed:
            # Interval logic stalled for this domain: its demand waits
            # for the domain's next interval; the interval is filled
            # exactly like an empty-queue one (dummy below).
            injector.record(
                FaultKind.DELAY_SLOT, domain, start,
                "interval service delayed to next interval",
            )
            self.stats.faulted_slots += 1
        scanned = 0
        for request in self._queues[domain] if not delayed else ():
            if request.arrival > decide_at:
                continue
            scanned += 1
            if scanned > self.SCAN_DEPTH:
                break
            # Hazard check against the worst-case placement for the
            # domain's own history: the earliest slot of this interval.
            if tracker.legal(
                times[request.is_read], request.address, request.is_read
            ):
                self._queues[domain].remove(request)
                return request
        read_times = times[True]
        for address in self._dummies[domain].candidates():
            if tracker.legal(read_times, address, True):
                return Request(
                    op=_READ,
                    address=address,
                    domain=domain,
                    kind=_DUMMY,
                    arrival=decide_at,
                )
        return None

    def _dispatch(
        self,
        request: Request,
        data_at: int,
        release_at: int,
        hazard_times: CommandTimes,
    ) -> None:
        domain = request.domain
        addr = request.address
        is_read = request.is_read
        kind = request.kind
        times = reordered_bp_times(self.params, data_at, is_read)
        # SECURITY: the hazard tracker must never learn the transaction's
        # slot *position* — positions depend on co-runners' read/write mix.
        # Commit the position-independent worst case (the interval's last
        # slot, ``hazard_times``): conservative for every future gap
        # check, and a pure function of the domain's own stream.
        self._hazards[domain].commit(hazard_times, addr, is_read)
        injector = self.fault_injector
        # SECURITY: the fault key must be position-independent too —
        # ``data_at`` encodes the slot position (which depends on the
        # co-runners' read/write mix), so keying the drop on it would
        # let a co-runner modulate the victim's fault schedule.  Key on
        # the interval's release point instead: a pure function of the
        # interval index.
        if injector is not None and injector.drop_command(
            domain, release_at
        ):
            # Commands lost in transit: hazards stay committed
            # (conservative), the observable stays the interval-granular
            # trace event, and the demand is re-issued in the SAME
            # domain's next interval.
            injector.record(
                FaultKind.DROP_COMMAND, domain, data_at,
                f"{kind.value} commands dropped; "
                f"retrying next interval",
            )
            self.stats.faulted_slots += 1
            if kind is _DEMAND:
                self._queues[domain].insert(0, request)
            self._trace(domain, release_at, "F")
            return
        if kind is _DUMMY and self.energy_options.suppress_dummies:
            request.suppressed = True
            self.stats.suppressed_dummies += 1
        else:
            self._stage_transaction(
                times, addr, is_read, request.req_id, domain
            )
        request.issue = times.first
        request.data_start = times.data
        request.completion = times.data + self.params.tBURST
        self.stats.record_service(request)
        # The trace records the *interval*, not the slot position: slot
        # positions depend on co-runners' read/write mix, intervals do not.
        self._trace(domain, release_at, service_code(request))
        if kind is _DEMAND and is_read:
            self._schedule_release(request, release_at)
