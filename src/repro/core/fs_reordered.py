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

from typing import Dict, List, Optional, Tuple

from ..dram.commands import (
    Command,
    CommandType,
    OpType,
    Request,
    RequestKind,
)
from ..dram.system import DramSystem
from ..faults import FaultInjector, FaultKind
from ..mapping.partition import PartitionPolicy
from .energy_opts import FsEnergyOptions
from .fs_controller import FsControllerBase, service_code
from .schedule import CommandTimes, ReorderedBpGeometry, \
    build_reordered_bp_geometry


class ReorderedBpController(FsControllerBase):
    """Interval-batched FS: reads first, writes after, en-masse release."""

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
        super().__init__(
            dram, num_domains, partition, channel, energy_options,
            log_commands, fault_injector,
        )
        self.geometry = geometry or build_reordered_bp_geometry(
            dram.params, num_domains
        )
        if self.geometry.num_domains != num_domains:
            raise ValueError("geometry domain count mismatch")
        self._times_memo: Dict[Tuple[int, bool], CommandTimes] = {}
        # The earliest command of an interval precedes its first data
        # burst by tRCD + tCAS (a read activate).
        self._lead = dram.params.tRCD + max(
            dram.params.tCAS, dram.params.tCWD
        )

    # ------------------------------------------------------------------

    def interval_start(self, index: int) -> int:
        """Cycle of the interval's first data burst."""
        return self._lead + index * self.geometry.interval_length

    def _decide_cycle(self, index: int) -> int:
        return index * self.geometry.interval_length

    def release_horizon(self) -> Optional[int]:
        """Earliest cycle a *new* core release could be created.

        Every demand read served in interval ``i`` is released en masse
        at that interval's last data end — a pure function of ``i`` —
        and undecided intervals start at ``self._next_decision``, so no
        future dispatch can release before the next interval's release
        point.  Releases from already-decided intervals sit in the
        release heap and are covered by ``drain_deadline``.  ``None``
        under fault injection (``drop_command`` re-queues a demand and
        ``delay_slot`` shifts service, both at reference granularity).
        """
        if self.fault_injector is not None:
            return None
        g = self.geometry
        return (
            self.interval_start(self._next_decision)
            + (g.num_domains - 1) * g.data_gap
            + self.params.tBURST
        )

    # ------------------------------------------------------------------

    def _decide(self, index: int) -> None:
        start = self.interval_start(index)
        decide_at = self._decide_cycle(index)
        picks: List[Request] = []
        for domain in range(self.num_domains):
            request = self._pick(domain, start, decide_at, index)
            if request is not None:
                picks.append(request)
            else:
                self.stats.bubbles += 1
                self._trace(domain, start, "-")
        # Reads first, then writes; domain order within each group.
        reads = [r for r in picks if r.is_read]
        writes = [r for r in picks if not r.is_read]
        last_slot = start + (
            (self.geometry.num_domains - 1) * self.geometry.data_gap
        )
        last_data_end = last_slot + self.params.tBURST
        for position, request in enumerate(reads + writes):
            data_at = start + self.geometry.data_offset(position)
            self._dispatch(
                request, data_at,
                release_at=last_data_end,
                hazard_data_at=last_slot,
            )

    def _pick(
        self, domain: int, start: int, decide_at: int,
        interval_index: int = 0,
    ) -> Optional[Request]:
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
            times = self._times(start, request.is_read)
            if tracker.legal(times, request.address, request.is_read):
                self._queues[domain].remove(request)
                return request
        times = self._times(start, True)
        for address in self._dummies[domain].candidates():
            if tracker.legal(times, address, True):
                return Request(
                    op=OpType.READ,
                    address=address,
                    domain=domain,
                    kind=RequestKind.DUMMY,
                    arrival=decide_at,
                )
        return None

    def _times(self, data_at: int, is_read: bool) -> CommandTimes:
        # One interval touches the same (data_at, direction) pair ~3x
        # per transaction (pick scan, hazard commit, dispatch), so a
        # one-entry memo per direction removes most CommandTimes
        # constructions.  CommandTimes is an immutable value object;
        # sharing an instance is observationally identical.
        cached = self._times_memo.get((data_at, is_read))
        if cached is not None:
            return cached
        p = self.params
        if is_read:
            times = CommandTimes(
                act=data_at - p.tRCD - p.tCAS,
                col=data_at - p.tCAS,
                data=data_at,
            )
        else:
            times = CommandTimes(
                act=data_at - p.tRCD - p.tCWD,
                col=data_at - p.tCWD,
                data=data_at,
            )
        memo = self._times_memo
        if len(memo) > 8:  # one interval's worth; stays tiny
            memo.clear()
        memo[(data_at, is_read)] = times
        return times

    def _dispatch(
        self,
        request: Request,
        data_at: int,
        release_at: int,
        hazard_data_at: int,
    ) -> None:
        domain = request.domain
        addr = request.address
        times = self._times(data_at, request.is_read)
        # SECURITY: the hazard tracker must never learn the transaction's
        # slot *position* — positions depend on co-runners' read/write mix.
        # Commit the position-independent worst case (the interval's last
        # slot): conservative for every future gap check, and a pure
        # function of the domain's own stream.
        self._hazards[domain].commit(
            self._times(hazard_data_at, request.is_read),
            addr, request.is_read,
        )
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
                f"{request.kind.value} commands dropped; "
                f"retrying next interval",
            )
            self.stats.faulted_slots += 1
            if request.kind is RequestKind.DEMAND:
                self._queues[domain].insert(0, request)
            self._trace(domain, release_at, "F")
            return
        suppress = (
            request.kind is RequestKind.DUMMY
            and self.energy_options.suppress_dummies
        )
        if suppress:
            request.suppressed = True
            self.stats.suppressed_dummies += 1
        else:
            col_type = (
                CommandType.COL_READ_AP if request.is_read
                else CommandType.COL_WRITE_AP
            )
            self._stage(Command(
                CommandType.ACTIVATE, times.act, self.channel_id,
                addr.rank, addr.bank, addr.row, request.req_id, domain,
            ))
            self._stage(Command(
                col_type, times.col, self.channel_id, addr.rank,
                addr.bank, addr.row, request.req_id, domain,
            ))
        request.issue = times.first
        request.data_start = times.data
        request.completion = times.data + self.params.tBURST
        self.stats.record_service(request)
        # The trace records the *interval*, not the slot position: slot
        # positions depend on co-runners' read/write mix, intervals do not.
        self._trace(domain, release_at, service_code(request))
        if request.kind is RequestKind.DEMAND and request.is_read:
            self._schedule_release(request, release_at)
