"""The Fixed Service memory controller (Sections 3-5).

:class:`FixedServiceController` interprets a precomputed
:class:`~repro.core.schedule.FixedServiceSchedule`: at every slot it
dispatches one transaction of the slot's domain — the queue head when
legal, another queued transaction when the head would violate one of the
domain's *own* DRAM hazards, a prefetch when the queue is empty, a dummy
otherwise, and a bubble when even a dummy is illegal.  Command times are
pure functions of the slot anchor, never of resource availability, so a
domain's service is bit-for-bit independent of its co-runners.

The same class covers the paper's FS_RP (rank partitioning), the basic
bank-partitioned and no-partitioning pipelines, and the triple-alternation
optimization (whose bank restrictions ride in on the schedule's
:attr:`~repro.core.schedule.SlotSpec.bank_mod`).  Reordered bank
partitioning lives in :mod:`repro.core.fs_reordered`; both controllers
build on :class:`FsControllerBase`, which owns the per-domain state, the
one loop over timetable decisions, and the two ways a decision's
commands reach the DRAM model: staged and issued one by one, or
recorded and settled in closed form.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..controllers.base import MemoryController
from ..dram.commands import (
    Command,
    CommandType,
    OpType,
    Request,
    RequestKind,
)
from ..dram.refresh import RefreshScheduler
from ..dram.system import DramSystem
from ..faults import FaultInjector, FaultKind
from ..mapping.partition import PartitionPolicy
from .energy_opts import EnergyAdjustments, FsEnergyOptions
from .pipeline_solver import SharingLevel
from .schedule import CommandTimes, FixedServiceSchedule, SlotSpec
from .shaping import DomainHazardTracker, DummyGenerator

# Hot-path Enum members as module constants (see repro.dram.commands).
_ACTIVATE = CommandType.ACTIVATE
_COL_READ_AP = CommandType.COL_READ_AP
_COL_WRITE_AP = CommandType.COL_WRITE_AP
_READ = OpType.READ
_DEMAND = RequestKind.DEMAND
_PREFETCH = RequestKind.PREFETCH
_DUMMY = RequestKind.DUMMY


class _Unchosen:
    """``FsControllerBase._ledger`` before the first ``_work`` picks a
    path: falsy, like a ledger with nothing on it."""

    def __bool__(self) -> bool:
        return False


_UNCHOSEN = _Unchosen()


class PrefetchBuffer:
    """A small per-domain buffer holding prefetched lines (FIFO evict)."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lines: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.fills = 0

    def fill(self, line: int) -> None:
        if line in self._lines:
            self._lines.move_to_end(line)
            return
        self._lines[line] = True
        self.fills += 1
        while len(self._lines) > self.capacity:
            self._lines.popitem(last=False)

    def hit(self, line: Optional[int]) -> bool:
        if line is None or line not in self._lines:
            return False
        del self._lines[line]
        self.hits += 1
        return True

    @property
    def useful_fraction(self) -> float:
        if self.fills == 0:
            return 0.0
        return self.hits / self.fills


def service_code(request: Request) -> str:
    """The service-trace letter of a dispatched transaction."""
    kind = request.kind
    if kind is _DEMAND:
        return "R" if request.is_read else "W"
    if kind is _PREFETCH:
        return "P"
    return "D"


class FsControllerBase(MemoryController):
    """What every FS controller shares.

    Per-domain queues, self-hazard trackers and dummy streams, and
    :meth:`_work`, the single loop over timetable decisions.  Subclasses
    declare their timetable as tables: decision ``g`` (a slot, or a
    whole interval) is taken at ``decide_base[g % len(decide_base)]``
    plus ``period`` per completed round of the table.  They serve each
    decision in :meth:`_decide` and hand its commands to
    :meth:`_stage_transaction` / :meth:`_stage_rank_command`.

    Those commands take one of two paths, chosen at the first
    :meth:`_work` from what the controller can see then:

    * **Per command.**  Commands go on a staged heap and ``_work``
      issues them in time order between decisions, through the checked
      channel path or, with ``trusted_issue``, through
      :meth:`~repro.dram.channel.Channel.issue_trusted`.  This is the
      reference engine's path, and the path of any controller with a
      command log, online monitor or telemetry session attached.
    * **Closed form.**  A trusted controller that nothing observes
      command by command only records each transaction as ``(ACT
      cycle, column cycle, rank, is_read)`` and each REF/PDN/PUP as
      ``(cycle, cycle, rank, type)`` on a ledger heap; ``_work`` is a
      loop over decisions alone, and
      :meth:`~repro.dram.channel.Channel.settle_trusted` folds the
      records ``now`` has passed into the same counters the per-command
      path produces.  :meth:`settle_ledger` folds the rest at the end.
    """

    #: How deep to scan a domain's queue for a legal transaction when the
    #: head is blocked by one of the domain's own hazards.
    SCAN_DEPTH = 8

    def __init__(
        self,
        dram: DramSystem,
        num_domains: int,
        partition: PartitionPolicy,
        channel: int,
        energy_options: Optional[FsEnergyOptions],
        log_commands: bool,
        fault_injector: Optional[FaultInjector],
        decide_base: Sequence[int],
        period: int,
    ) -> None:
        super().__init__(dram, num_domains, log_commands)
        if channel >= dram.num_channels:
            raise ValueError("channel out of range")
        self.partition = partition
        self.channel_id = channel
        self.energy_options = energy_options or FsEnergyOptions.none()
        self.adjustments = EnergyAdjustments()
        #: Optional fault-injection oracle; every predicate it answers is
        #: a pure function of (seed, domain, the domain's own progress),
        #: so faults cannot carry information between domains.
        self.fault_injector = fault_injector
        #: Whether the plan arms the deliberately-broken borrow-foreign-
        #: slot recovery.  A borrowed transaction runs in a slot the
        #: offline proof never placed it in, so its commands may break a
        #: shared resource's timing: they are issued checked.
        self._borrows = fault_injector is not None and \
            fault_injector.plan.arms(FaultKind.BORROW_FOREIGN_SLOT)
        if self._borrows:
            self.trusted_issue = False
        self._queues: Dict[int, List[Request]] = {
            d: [] for d in range(num_domains)
        }
        self._hazards: Dict[int, DomainHazardTracker] = {
            d: DomainHazardTracker(dram.params)
            for d in range(num_domains)
        }
        self._dummies: Dict[int, DummyGenerator] = {
            d: DummyGenerator(d, partition, channel)
            for d in range(num_domains)
        }
        #: Staged commands, applied to the channel in time order (the
        #: per-command path).
        self._staged: List[Tuple[int, int, Command]] = []
        self._stage_seq = itertools.count()
        self._last_issued_key: Optional[Tuple] = None
        #: Closed-form ledger (see the class docstring): a heap of
        #: records, ``None`` on the per-command path, ``_UNCHOSEN``
        #: until the first ``_work``.
        self._ledger = _UNCHOSEN
        #: ACT cycles of duplicated ACTs on the closed form, counted as
        #: squashed once ``now`` passes them.
        self._duplicate_acts: List[int] = []
        #: Decision cycles of one round of the timetable, and the cycles
        #: each round adds.
        self._decide_base = tuple(decide_base)
        self._period = period
        #: Cursor at the next undecided decision: its index ``g``, its
        #: table position ``g % len(decide_base)`` and the cycle its
        #: round starts at.
        self._next_decision = 0
        self._next_pos = 0
        self._next_offset = 0

    @abc.abstractmethod
    def _decide(self, g: int, pos: int, offset: int) -> None:
        """Serve decision ``g`` (table position ``pos`` of the round
        starting at cycle ``offset``): pick, dispatch and stage its
        commands."""

    # ------------------------------------------------------------------
    # MemoryController interface.
    # ------------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        if request.address.channel != self.channel_id:
            raise ValueError("request routed to the wrong FS channel")
        self._admit(request)

    def _admit(self, request: Request) -> None:
        self._queues[request.domain].append(request)
        if self.fault_injector is not None:
            # Transient queue-overflow faults are armed per actual
            # enqueue, i.e. per position in the domain's own stream.
            self.fault_injector.note_enqueue(
                request.domain, request.arrival
            )

    def pending(self, domain: Optional[int] = None) -> int:
        if domain is not None:
            return len(self._queues[domain])
        return sum(map(len, self._queues.values()))

    def next_event(self) -> Optional[int]:
        """FS always has a next decision; report the sooner of it, the
        next command not yet issued, and the next release."""
        candidates = [self._next_offset + self._decide_base[self._next_pos]]
        if self._staged:
            candidates.append(self._staged[0][0])
        elif self._ledger:
            # The closed form stops where the per-command path would:
            # at the next ACT or column after ``now``.
            now = self.now
            for start, done, _, _ in self._ledger:
                t = start if start > now else done
                if t > now:
                    candidates.append(t)
        if self._release_heap:
            candidates.append(self._release_heap[0][0])
        return max(self.now + 1, min(candidates))

    def settles_in_closed_form(self) -> bool:
        """Whether the commands are trusted and nothing observes them
        one by one: no command log, online monitor or telemetry session.
        A span tracer never counts — it belongs to the driver and never
        reaches the controller."""
        return self.trusted_issue and not self.log_commands and (
            self.monitor is None and self.telemetry is None
        )

    def _choose_path(self) -> Optional[list]:
        """Settle in closed form exactly when
        :meth:`settles_in_closed_form` holds."""
        self._ledger = [] if self.settles_in_closed_form() else None
        return self._ledger

    def _stage_ahead(self, until: int) -> None:
        """Stage the commands the timetable fixes ahead of any decision
        up to about ``until`` (refresh)."""

    def _work(self, until: int) -> None:
        ledger = self._ledger
        if ledger is _UNCHOSEN:
            ledger = self._choose_path()
        if ledger is None:
            self._stage_ahead(until)
            self._work_per_command(until)
            return
        stage_ahead = self._stage_ahead
        settle = self.dram.channels[self.channel_id].settle_trusted
        decide = self._decide
        base = self._decide_base
        period = self._period
        g, pos, offset = (
            self._next_decision, self._next_pos, self._next_offset
        )
        decide_at = offset + base[pos]
        while decide_at <= until:
            if pos == 0:
                # Once per round of the table, stage ahead and fold what
                # the clock has passed (no command precedes its
                # decision), so however long the stride the ledger holds
                # about one round.
                stage_ahead(decide_at)
                if ledger:
                    settle(ledger, decide_at - 1)
            decide(g, pos, offset)
            g += 1
            pos += 1
            if pos == len(base):
                pos = 0
                offset += period
            decide_at = offset + base[pos]
        self._next_decision, self._next_pos, self._next_offset = (
            g, pos, offset
        )
        self.settle_until(until)

    def settle_until(self, until: int) -> None:
        """Close the closed form up to ``until`` once every decision at
        or before it is taken: stage what the timetable fixes ahead,
        fold the ledger records ``until`` has passed (no later decision
        puts a command at or before it) and count the duplicated ACTs
        it has passed as squashed."""
        self._stage_ahead(until)
        ledger = self._ledger
        if ledger:
            self.dram.channels[self.channel_id].settle_trusted(
                ledger, until
            )
        if self._duplicate_acts:
            # A legal FS stream has one command per bus cycle, so a
            # duplicated ACT pops right after its original and the
            # issue-path guard always squashes it.
            duplicates = self._duplicate_acts
            passed = sum(1 for act in duplicates if act <= until)
            if passed:
                self.stats.squashed_duplicates += passed
                duplicates[:] = [act for act in duplicates if act > until]

    def _work_per_command(self, until: int) -> None:
        staged = self._staged
        # Without a fault injector no duplicate is ever staged, so the
        # duplicate-command guard below would be a no-op.
        guard = self.fault_injector is not None
        decide = self._decide
        base = self._decide_base
        period = self._period
        g, pos, offset = (
            self._next_decision, self._next_pos, self._next_offset
        )
        decide_at = offset + base[pos]
        while True:
            staged_at = staged[0][0] if staged else None
            if decide_at <= until and (
                staged_at is None or decide_at <= staged_at
            ):
                decide(g, pos, offset)
                g += 1
                pos += 1
                if pos == len(base):
                    pos = 0
                    offset += period
                decide_at = offset + base[pos]
                continue
            if staged_at is not None and staged_at <= until:
                _, _, command = heapq.heappop(staged)
                if guard:
                    key = (
                        command.type, command.cycle, command.channel,
                        command.rank, command.bank, command.row,
                    )
                    if key == self._last_issued_key:
                        # Issue-path guard: a duplicated command (fault
                        # model ``duplicate_command``) is squashed before
                        # it can collide on the command bus or disturb
                        # bank state.
                        self.stats.squashed_duplicates += 1
                        continue
                    self._last_issued_key = key
                self._issue(command)
                continue
            break
        self._next_decision, self._next_pos, self._next_offset = (
            g, pos, offset
        )
        self.dram.channels[self.channel_id].prune(self.now)

    def _stage(self, command: Command) -> None:
        heapq.heappush(
            self._staged, (command.cycle, next(self._stage_seq), command)
        )

    def _stage_transaction(
        self, times: CommandTimes, addr, is_read: bool, request_id: int,
        domain: int, duplicate: bool = False,
    ) -> None:
        """Hand one transaction's ACT and auto-precharging column to
        the DRAM model.  ``duplicate`` stages the ACT twice (fault model
        ``duplicate_command``); the issue path squashes the copy."""
        ledger = self._ledger
        if ledger is not None:
            heapq.heappush(
                ledger, (times.act, times.col, addr.rank, is_read)
            )
            if duplicate:
                self._duplicate_acts.append(times.act)
            return
        act = Command(
            _ACTIVATE, times.act, self.channel_id,
            addr.rank, addr.bank, addr.row, request_id, domain,
        )
        self._stage(act)
        if duplicate:
            self._stage(act)
        self._stage(Command(
            _COL_READ_AP if is_read else _COL_WRITE_AP, times.col,
            self.channel_id, addr.rank, addr.bank, addr.row,
            request_id, domain,
        ))

    def _stage_rank_command(
        self, ctype: CommandType, cycle: int, rank: int
    ) -> None:
        """Hand a REF, PDN or PUP for ``rank`` to the DRAM model."""
        if self._ledger is not None:
            heapq.heappush(self._ledger, (cycle, cycle, rank, ctype))
        else:
            self._stage(Command(ctype, cycle, self.channel_id, rank))

    def settle_ledger(self) -> None:
        """Fold the closed-form records left at the run's end (``now``)
        into the DRAM model; a no-op on the per-command path."""
        if self._ledger:
            self.dram.channels[self.channel_id].settle_trusted(
                self._ledger, self.now, final=True
            )

    def finalize(self) -> None:
        """Settle the ledger, then close the power-state accounting."""
        self.settle_ledger()
        super().finalize()


class FixedServiceController(FsControllerBase):
    """FS scheduling over a validated slot timetable."""

    #: Latency (cycles) of returning a read that hits the prefetch buffer.
    PREFETCH_HIT_LATENCY = 5
    #: Per-domain transaction-queue capacity (Section 5.1: "the FS
    #: transaction queue can be relatively small because it is largely
    #: in-order"); a full queue back-pressures the owning core only.
    QUEUE_CAPACITY = 64

    def __init__(
        self,
        dram: DramSystem,
        schedule: FixedServiceSchedule,
        partition: PartitionPolicy,
        channel: int = 0,
        energy_options: FsEnergyOptions = None,
        prefetchers: Optional[Dict[int, object]] = None,
        refresh: "RefreshScheduler" = None,
        log_commands: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(
            dram, schedule.num_domains, partition, channel,
            energy_options, log_commands, fault_injector,
            schedule.decide_base, schedule.interval_length,
        )
        self.schedule = schedule
        self.prefetchers = prefetchers or {}
        self.prefetch_buffers: Dict[int, PrefetchBuffer] = {
            d: PrefetchBuffer() for d in range(self.num_domains)
        }
        #: Last (bank-key -> row) serviced per domain, for the row-buffer
        #: energy boost.
        self._last_row: Dict[int, Dict[Tuple[int, int], int]] = {
            d: {} for d in range(self.num_domains)
        }
        #: Domain -> its slot positions within one interval.
        self._domain_slot_pos: Dict[int, List[int]] = {
            d: [i for i, s in enumerate(schedule.slots) if s.domain == d]
            for d in range(self.num_domains)
        }
        # release_horizon memo: between driver stops with no slot
        # decided and no enqueue, the per-domain queue emptiness — the
        # only other input — cannot have changed (dequeues happen only
        # inside slot decisions, which bump ``_next_decision``).
        self._rh_key = (-1, -1)
        self._rh_value: Optional[int] = None
        self._enq_count = 0
        self.refresh = refresh
        self._refreshing = refresh is not None and refresh.enabled
        #: Domain -> ranks it owns on this channel (refresh suppression).
        self._domain_ranks: Dict[int, Tuple[int, ...]] = {
            d: tuple(sorted({
                rk for ch, rk, _ in partition.resources(d)
                if ch == channel
            }))
            for d in range(self.num_domains)
        }
        if self._refreshing:
            if schedule.sharing is not SharingLevel.RANK:
                raise ValueError(
                    "deterministic refresh is only supported with rank "
                    "partitioning (a refresh blackout must map to whole "
                    "domains)"
                )
            self._refresh_residue = self._free_command_residue()
            self._next_ref_windows = [
                self.refresh.next_refresh(rk, 0)
                for rk in range(len(dram.channels[channel].ranks))
            ]
        self.stat_refreshes = 0

    # ------------------------------------------------------------------

    def _free_command_residues(self) -> List[int]:
        """Cycle residues (mod the slot gap) no FS command ever uses.

        Section 5.2 observes that the FS pipeline leaves fixed command-bus
        cycles idle ("the command bus is free to transmit the power-down
        signal in that cycle"); we use them to issue REFRESH and
        power-down/up commands without any possibility of a bus conflict.
        """
        l = self.schedule.slot_gap
        used = set()
        for is_read in (True, False):
            rel = self.schedule.command_times(0, is_read)
            used.add(rel.act % l)
            used.add(rel.col % l)
        return [r for r in range(l) if r not in used]

    def _free_command_residue(self) -> int:
        residues = self._free_command_residues()
        if not residues:
            raise RuntimeError(
                "no free command-bus residue: refresh cannot be "
                "scheduled deterministically for this pipeline"
            )
        return residues[0]

    def _refresh_blackout(self, rank: int, anchor: int) -> bool:
        """Is a slot anchored at ``anchor`` inside ``rank``'s refresh
        blackout?  Purely clock-driven, hence leakage-free.

        A slot is suppressed when a refresh window starts inside
        ``(anchor - guard_post, anchor + guard_pre]``: ``guard_pre``
        covers the slot's own tail (worst-case activate-to-precharge
        recovery plus the REF residue shift) and ``guard_post`` covers
        tRFC plus the slot's command lead.
        """
        p = self.params
        l = self.schedule.slot_gap
        guard_pre = p.write_turnaround_same_bank + l
        guard_post = p.tRFC + (-self.schedule.decision_lead) + l
        window = self.refresh.next_refresh(
            rank, max(0, anchor - guard_post + 1)
        )
        return window is not None and window.start <= anchor + guard_pre

    def _pump_refreshes(self, until: int) -> None:
        """Stage REF commands whose windows open before ``until``."""
        for rank in range(len(self._next_ref_windows)):
            while True:
                window = self._next_ref_windows[rank]
                if window.start > until:
                    break
                # Land on the schedule's free command-bus residue.
                l = self.schedule.slot_gap
                cycle = window.start
                shift = (
                    self._refresh_residue
                    - (cycle - self.schedule.lead)
                ) % l
                cycle += shift
                self._stage_rank_command(CommandType.REFRESH, cycle, rank)
                self.stat_refreshes += 1
                self._next_ref_windows[rank] = self.refresh.next_refresh(
                    rank, window.start + 1
                )

    def release_horizon(self) -> Optional[int]:
        """Earliest cycle a *new* core release could be created.

        The fast driver only needs to stop where a completion might
        unblock a core.  Releases already scheduled are covered by
        ``drain_deadline``; a new one can only come from a demand read
        served at a future slot of a domain that has queued work, which
        cannot complete before that domain's next own slot's read-data
        burst ends (write-forward and prefetch-hit releases are created
        at enqueue time).  The composable faults keep the bound: a drop,
        delay or refresh collision only moves a demand to a later slot
        of its own domain, and queue overflow already forces
        ``next_event`` granularity through the driver's back-pressure
        check.  Returns ``None`` when the plan arms the deliberately-
        broken borrow-foreign-slot recovery, which can complete a
        *pending* domain's request inside an idle domain's slot — the
        driver then falls back to ``next_event`` granularity.
        """
        if self._borrows:
            return None
        g0 = self._next_decision
        key = (g0, self._enq_count)
        if key == self._rh_key:
            return self._rh_value
        schedule = self.schedule
        length = schedule.interval_length
        rb = schedule.release_base
        interval, off = divmod(g0, len(rb))
        base = interval * length
        best: Optional[int] = None
        for d, queue in self._queues.items():
            if not queue:
                continue
            for pos in self._domain_slot_pos[d]:
                t = rb[pos] + (base if pos >= off else base + length)
                if best is None or t < best:
                    best = t
        self._rh_key = key
        self._rh_value = best
        return best

    # ------------------------------------------------------------------
    # MemoryController interface.
    # ------------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        if request.address.channel != self.channel_id:
            raise ValueError("request routed to the wrong FS channel")
        self._enq_count += 1
        if request.is_read:
            # Store-to-load bypass within the domain's own transaction
            # queue, "just as in a baseline transaction queue" (Section
            # 5.1).  Only the domain's own writes are visible — no
            # cross-domain state is consulted.
            for queued in self._queues[request.domain]:
                if not queued.is_read and queued.line == request.line \
                        and request.line is not None:
                    self._schedule_release(request, request.arrival + 1)
                    return
        if request.is_read and self.prefetch_buffers[
            request.domain
        ].hit(request.line):
            # The prefetcher must keep seeing the demand stream even
            # when its own prefetches absorb it, or streams die after
            # one queue depth.
            prefetcher = self.prefetchers.get(request.domain)
            if prefetcher is not None and request.line is not None:
                prefetcher.observe(request.line)
            self._schedule_release(
                request, request.arrival + self.PREFETCH_HIT_LATENCY
            )
            return
        self._admit(request)

    def can_accept(self, domain: int) -> bool:
        """Back-pressure is a pure function of the domain's own queue
        (and, under fault injection, of the domain's own fault schedule —
        a transient overflow shrinks only the faulted domain's capacity,
        stalling only the owning core)."""
        capacity = self.QUEUE_CAPACITY
        if self.fault_injector is not None:
            capacity = self.fault_injector.effective_capacity(
                domain, capacity
            )
        return len(self._queues[domain]) < capacity

    def _stage_ahead(self, until: int) -> None:
        if self._refreshing:
            self._pump_refreshes(until + self.schedule.interval_length)

    # ------------------------------------------------------------------
    # Slot decisions.
    # ------------------------------------------------------------------

    def _decide(self, g: int, pos: int, offset: int) -> None:
        schedule = self.schedule
        spec = schedule.slots[pos]
        anchor = offset + schedule.anchor_base[pos]
        domain = spec.domain
        decide_at = offset + schedule.decide_base[pos]
        if self._refreshing:
            if any(
                self._refresh_blackout(rk, anchor)
                for rk in self._domain_ranks[domain]
            ):
                self.stats.bubbles += 1
                self._trace(domain, anchor, "-")
                return
        injector = self.fault_injector
        if injector is not None:
            if injector.refresh_collision(domain, g):
                # A spurious refresh blackout: the slot becomes a bubble
                # (exactly what a real blackout produces) and the demand
                # stays queued for the domain's next slot.
                injector.record(
                    FaultKind.REFRESH_COLLISION, domain, anchor,
                    "spurious refresh blackout",
                )
                self.stats.faulted_slots += 1
                self.stats.bubbles += 1
                self._trace(domain, anchor, "-")
                return
            if injector.delay_slot(domain, g):
                # Slot logic stalled for one slot: externally the slot
                # looks exactly like an empty-queue slot (dummy or
                # bubble); the demand is served at the domain's next
                # slot, never a borrowed one.
                injector.record(
                    FaultKind.DELAY_SLOT, domain, anchor,
                    "slot service delayed to next own slot",
                )
                self.stats.faulted_slots += 1
                self._fill_like_empty(
                    domain, spec, anchor, decide_at,
                    schedule.command_times(anchor, True),
                )
                return
            if injector.borrow_foreign_slot(domain, g) and \
                    self._borrow_foreign(domain, anchor, decide_at):
                return
        queue = self._queues[domain]
        found = self._select_demand(domain, spec, anchor, decide_at)
        if found is not None:
            request, times = found
            queue.remove(request)
            self._dispatch(request, anchor, times)
            return
        if queue and any(r.arrival <= decide_at for r in queue):
            self.stats.blocked_slots += 1
        # Prefetches and dummies are reads: one CommandTimes serves
        # whichever of them the slot dispatches.
        times = schedule.command_times(anchor, True)
        prefetch = self._select_prefetch(domain, spec, times, decide_at)
        if prefetch is not None:
            self._dispatch(prefetch, anchor, times)
            return
        if self.energy_options.power_down_idle and \
                self._try_power_down(domain, spec, anchor):
            return
        self._fill_like_empty(domain, spec, anchor, decide_at, times)

    def _fill_like_empty(
        self, domain: int, spec: SlotSpec, anchor: int, decide_at: int,
        times: CommandTimes,
    ) -> None:
        """Fill a slot exactly as if the domain's queue were empty: a
        dummy when legal, a bubble otherwise.  Also the delay-slot fault
        path, so a fault is externally indistinguishable from an idle
        slot.  ``times`` are the slot's read command times."""
        dummy = self._select_dummy(domain, spec, times, decide_at)
        if dummy is not None:
            self._dispatch(dummy, anchor, times)
            return
        self.stats.bubbles += 1
        self._trace(domain, anchor, "-")

    def _borrow_foreign(
        self, domain: int, anchor: int, decide_at: int
    ) -> bool:
        """DELIBERATELY BROKEN recovery policy — test-only.

        Serves another domain's backlog inside this domain's slot.  This
        is precisely the recovery shortcut the paper's security argument
        forbids: the borrowed service lands at a foreign slot offset, so
        the borrowing is observable and re-opens the timing channel
        (Kadloor et al. make the same point for TDMA slot borrowing).
        It exists only so the test-suite can prove the online watchdog
        catches a broken recovery path the cycle it happens.
        """
        for other in range(self.num_domains):
            if other == domain:
                continue
            for request in self._queues[other]:
                if request.arrival > decide_at:
                    continue
                # Only the served domain's own hazards are checked.
                # Under rank partitioning that keeps the borrow JEDEC-
                # legal; where domains share a rank (bank or no
                # partitioning) it need not be, and the checked issue
                # path raises TimingViolation — which is why a plan
                # arming this fault turns trusted issue off.
                times = self.schedule.command_times(
                    anchor, request.is_read
                )
                if not self._hazards[other].legal(
                    times, request.address, request.is_read
                ):
                    continue
                self._queues[other].remove(request)
                if self.fault_injector is not None:
                    self.fault_injector.record(
                        FaultKind.BORROW_FOREIGN_SLOT, other, anchor,
                        f"served in domain {domain}'s slot",
                    )
                self._dispatch(request, anchor, times)
                return True
        return False

    def _try_power_down(self, domain: int, spec: SlotSpec,
                        anchor: int) -> bool:
        """Energy optimization 3 (Section 5.2): instead of a dummy,
        power the rank down for the rest of the interval and wake it up
        before the domain's next slot.

        The decision is a pure function of the domain's own queue (it is
        empty) and the clock, and the PDN/PUP commands land on
        command-bus residues the FS pipeline provably never uses —
        nothing observable changes for any other domain.
        """
        p = self.params
        l = self.schedule.slot_gap
        ranks = self._domain_ranks[domain]
        if len(ranks) != 1 or \
                len(self.schedule.slots_of_domain(domain)) != 1:
            return False  # only the canonical one-rank/one-slot layout
        residues = self._free_command_residues()
        if len(residues) < 3:
            return False
        rank = ranks[0]
        next_anchor = anchor + self.schedule.interval_length
        if self.refresh is not None and self.refresh.enabled:
            window = self.refresh.next_refresh(
                rank, max(0, anchor - p.tRFC - 64)
            )
            if window is not None and window.start < next_anchor + 64:
                return False  # never power down across a refresh window
        # Dedicated residues: residues[0] belongs to REF; PDN and PUP
        # each get their own so commands from different domains (whose
        # anchors all share the same residue) can never collide.
        pdn_residue, pup_residue = residues[1], residues[2]

        def on_residue(cycle: int, residue: int) -> bool:
            return (cycle - self.schedule.lead) % l == residue

        # Enter after this (empty) slot's span; exit with tXP headroom
        # before the next slot's earliest command.
        pdn = anchor + p.tBURST
        while not on_residue(pdn, pdn_residue):
            pdn += 1
        pup = next_anchor + self.schedule.decision_lead - p.tXP - 1
        while not on_residue(pup, pup_residue):
            pup -= 1
        if pup - pdn < p.tCKE + p.tXP:
            return False
        self._stage_rank_command(CommandType.POWER_DOWN, pdn, rank)
        self._stage_rank_command(CommandType.POWER_UP, pup, rank)
        self._trace(domain, anchor, "p")
        return True

    def _select_demand(
        self, domain: int, spec: SlotSpec, anchor: int, decide_at: int
    ) -> Optional[Tuple[Request, CommandTimes]]:
        """The first legal queued demand for the slot, with its command
        times (``None`` when nothing in the scan window is legal)."""
        queue = self._queues[domain]
        if not queue:
            return None
        tracker = self._hazards[domain]
        command_times = self.schedule.command_times
        bank_mod = spec.bank_mod
        scanned = 0
        for request in queue:
            if request.arrival > decide_at:
                continue
            if bank_mod is not None and (
                request.address.bank % 3 != bank_mod
            ):
                # The class filter is a cheap tag compare ("scan a few
                # bits in one queue", Section 5.1); it does not consume
                # the hazard-check scan budget.
                continue
            scanned += 1
            if scanned > self.SCAN_DEPTH:
                break
            times = command_times(anchor, request.is_read)
            if tracker.legal(times, request.address, request.is_read):
                return request, times
        return None

    def _select_prefetch(
        self, domain: int, spec: SlotSpec, times: CommandTimes,
        decide_at: int,
    ) -> Optional[Request]:
        prefetcher = self.prefetchers.get(domain)
        if prefetcher is None:
            return None
        tracker = self._hazards[domain]
        for line in prefetcher.claim_candidates():
            address = self.partition.decode(domain, line)
            if address.channel != self.channel_id:
                continue
            if spec.bank_mod is not None and address.bank % 3 != (
                spec.bank_mod
            ):
                continue
            if not tracker.legal(times, address, True):
                continue
            return Request(
                op=_READ,
                address=address,
                domain=domain,
                kind=_PREFETCH,
                arrival=decide_at,
                line=line,
            )
        return None

    def _select_dummy(
        self, domain: int, spec: SlotSpec, times: CommandTimes,
        decide_at: int,
    ) -> Optional[Request]:
        tracker = self._hazards[domain]
        for address in self._dummies[domain].candidates(spec.bank_mod):
            if tracker.legal(times, address, True):
                return Request(
                    op=_READ,
                    address=address,
                    domain=domain,
                    kind=_DUMMY,
                    arrival=decide_at,
                )
        return None

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def _dispatch(
        self, request: Request, anchor: int, times: CommandTimes
    ) -> None:
        domain = request.domain
        addr = request.address
        is_read = request.is_read
        kind = request.kind
        self._hazards[domain].commit(times, addr, is_read)

        injector = self.fault_injector
        if injector is not None and injector.drop_command(domain, anchor):
            # The transaction's commands are lost in transit.  Security-
            # preserving recovery: commit the hazards conservatively (the
            # controller cannot know the loss yet), keep the slot's
            # external appearance, and re-issue the transaction in the
            # SAME domain's next slot — never a borrowed foreign slot,
            # which would leak the fault to a co-runner.
            injector.record(
                FaultKind.DROP_COMMAND, domain, anchor,
                f"{kind.value} commands dropped; "
                f"retrying next own slot",
            )
            self.stats.faulted_slots += 1
            if kind is _DEMAND:
                self._queues[domain].insert(0, request)
            self._trace(domain, anchor, "F")
            return

        bank_key = (addr.rank, addr.bank)
        last_row = self._last_row[domain]
        row_hit = last_row.get(bank_key) == addr.row
        last_row[bank_key] = addr.row
        request.row_hit = row_hit
        if row_hit and self.energy_options.boost_row_hits:
            self.adjustments.rowhit_saved_activates += 1
            self.stats.row_hit_boosts += 1

        if kind is _DUMMY and self.energy_options.suppress_dummies:
            request.suppressed = True
            self.stats.suppressed_dummies += 1
        else:
            duplicate = injector is not None and \
                injector.duplicate_command(domain, anchor)
            if duplicate:
                # Fault model: the staging logic repeats the ACT; the
                # issue-path guard in _work squashes the copy before it
                # can reach the command bus.
                injector.record(
                    FaultKind.DUPLICATE_COMMAND, domain, anchor,
                    "ACT staged twice",
                )
            self._stage_transaction(
                times, addr, is_read, request.req_id, domain, duplicate
            )

        request.issue = times.first
        request.data_start = times.data
        request.completion = times.data + self.params.tBURST
        self.stats.record_service(request)
        self._trace(domain, anchor, service_code(request))

        if kind is _PREFETCH:
            self.prefetch_buffers[domain].fill(request.line)
        elif kind is _DEMAND:
            prefetcher = self.prefetchers.get(domain)
            if prefetcher is not None and is_read and (
                request.line is not None
            ):
                prefetcher.observe(request.line)
            if is_read:
                self._schedule_release(request, request.completion)
