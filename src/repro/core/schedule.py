"""Concrete Fixed Service slot schedules (Figures 1 and 2).

A :class:`FixedServiceSchedule` is the artifact the paper's trusted OS
component computes offline: a periodic timetable assigning each security
domain fixed anchor cycles, from which every command time follows
deterministically.  The FS controllers *interpret* a schedule; they never
search.  Schedules are built from the :mod:`pipeline solver
<repro.core.pipeline_solver>` output, and the reordered-BP geometry is
searched here; both accept a candidate only when it replays cleanly
through :class:`~repro.dram.checker.TimingChecker`.
:func:`validate_schedule` replays a whole timetable the same way.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..dram.checker import TimingChecker, Violation
from ..dram.commands import Command
from ..dram.timing import TimingParams
from ..errors import ConfigError
from .pipeline_solver import (
    PeriodicMode,
    PipelineSolver,
    SharingLevel,
    Transaction,
    replay,
    slot_timing,
    transaction_commands,
)


@dataclass(frozen=True)
class SlotSpec:
    """One service slot within a schedule interval."""

    #: Position of the slot in the interval (0-based).
    index: int
    #: Security domain served by this slot.
    domain: int
    #: Anchor cycle of the slot, relative to the interval start.
    anchor_offset: int
    #: If set, the slot may only touch banks with ``bank % 3 == bank_mod``
    #: (the triple-alternation restriction of Section 4.3).
    bank_mod: Optional[int] = None


class CommandTimes(NamedTuple):
    """Absolute cycles of one transaction's commands.

    A named tuple: one is built per dispatched FS transaction, and a
    tuple costs well under a frozen dataclass to construct.
    """

    act: int
    col: int
    data: int

    @property
    def first(self) -> int:
        return min(self.act, self.col)


class FixedServiceSchedule:
    """A periodic FS timetable.

    ``slots`` covers one interval of ``interval_length`` cycles; the
    pattern repeats forever.  ``lead`` shifts the whole timetable so no
    command of interval 0 lands before cycle 0.
    """

    def __init__(
        self,
        params: TimingParams,
        mode: PeriodicMode,
        slot_gap: int,
        num_domains: int,
        slots: Sequence[SlotSpec],
        interval_length: int,
        sharing: SharingLevel,
        name: str = "fs",
    ) -> None:
        if num_domains < 1:
            raise ValueError("need at least one domain")
        if interval_length < 1:
            raise ValueError("interval length must be positive")
        if not slots:
            raise ValueError("schedule needs at least one slot")
        domains_seen = {s.domain for s in slots}
        if domains_seen != set(range(num_domains)):
            raise ValueError(
                "every domain must own at least one slot per interval"
            )
        self.params = params
        self.mode = mode
        self.slot_gap = slot_gap
        self.num_domains = num_domains
        self.slots = list(slots)
        self.interval_length = interval_length
        self.sharing = sharing
        self.name = name
        read_t = slot_timing(params, mode, True)
        write_t = slot_timing(params, mode, False)
        self._read_rel = (read_t.act, read_t.col, read_t.data)
        self._write_rel = (write_t.act, write_t.col, write_t.data)
        #: Offset of a slot's earliest possible command from its anchor:
        #: a slot is decided this far ahead of the anchor (negative).
        self.decision_lead = min(
            read_t.act, read_t.col, write_t.act, write_t.col
        )
        # Shift so that the earliest command of interval 0 is >= cycle 0.
        self.lead = max(0, -(min(s.anchor_offset for s in slots)
                             + self.decision_lead))
        # Interval-0 tables; slot ``g`` of interval ``i`` adds
        # ``i * interval_length`` to entry ``g % slots_per_interval``.
        #: Anchor cycle of each slot.
        self.anchor_base = tuple(self.anchor(0, s) for s in self.slots)
        #: Decision cycle of each slot.
        self.decide_base = tuple(
            a + self.decision_lead for a in self.anchor_base
        )
        #: End of the read-data burst each slot would produce: the
        #: earliest release a demand read served there can have.
        self.release_base = tuple(
            a + read_t.data + params.tBURST for a in self.anchor_base
        )

    # ------------------------------------------------------------------

    @property
    def slots_per_interval(self) -> int:
        return len(self.slots)

    def slots_of_domain(self, domain: int) -> List[SlotSpec]:
        return [s for s in self.slots if s.domain == domain]

    def anchor(self, interval: int, slot: SlotSpec) -> int:
        """Absolute anchor cycle of ``slot`` in the given interval."""
        return (
            self.lead + interval * self.interval_length + slot.anchor_offset
        )

    def command_times(self, anchor: int, is_read: bool) -> CommandTimes:
        """Absolute ACT/column/data cycles for a transaction anchored at
        ``anchor``."""
        act, col, data = self._read_rel if is_read else self._write_rel
        return CommandTimes(anchor + act, anchor + col, anchor + data)

    def iter_slots(self, start_interval: int = 0
                   ) -> Iterator[Tuple[int, SlotSpec]]:
        """Yield (absolute anchor, slot) pairs in time order, forever."""
        for interval in itertools.count(start_interval):
            for slot in self.slots:
                yield self.anchor(interval, slot), slot

    def peak_utilization(self) -> float:
        """Theoretical peak data-bus utilization of the timetable."""
        return (
            self.slots_per_interval * self.params.tBURST
            / self.interval_length
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FixedServiceSchedule({self.name}, mode={self.mode.value}, "
            f"l={self.slot_gap}, Q={self.interval_length}, "
            f"domains={self.num_domains})"
        )


# ----------------------------------------------------------------------
# Builders for the paper's design points.
# ----------------------------------------------------------------------


def build_fs_schedule(
    params: TimingParams,
    num_domains: int,
    sharing: SharingLevel,
    mode: Optional[PeriodicMode] = None,
    slots_per_domain: int = 1,
) -> FixedServiceSchedule:
    """The basic FS timetable: round-robin slots every ``l`` cycles.

    ``mode=None`` picks the most efficient periodic mode for the sharing
    level (DATA for rank partitioning, RAS otherwise), exactly as the
    paper does.  ``slots_per_domain`` > 1 statically assigns a domain
    multiple issue slots per interval (Section 3, "a thread can also be
    statically assigned multiple issue slots").
    """
    if slots_per_domain < 1:
        raise ValueError("slots_per_domain must be >= 1")
    if mode is None:
        # The smallest gap, DATA first on ties (PipelineSolver.best).
        mode = min(
            PeriodicMode, key=lambda m: _solved_gap(params, m, sharing)
        )
    slot_gap = _solved_gap(params, mode, sharing)
    solver = PipelineSolver(params)
    if sharing is SharingLevel.BANK:
        # The solver only spaces *distinct* slots, which under bank
        # partitioning always hit distinct banks.  A domain's own bank,
        # though, recurs every ``num_domains * slot_gap`` cycles (the
        # wrap-around to its next occurrence), and for small tRC-like
        # parts that distance can undercut the same-bank ACT-to-ACT
        # window.  Widen the gap until the wrap-around is safe.
        wrap_gap = -(-solver.same_bank_min_gap() // num_domains)
        if wrap_gap > slot_gap:
            # The widened gap skipped the solver's search, so it can
            # itself collide (e.g. land exactly on tRCD, putting a
            # column command and the next slot's ACT in one cycle).
            # Re-check and keep widening until conflict-free.
            slot_gap = wrap_gap
            while solver.check(slot_gap, mode, sharing) is not None:
                slot_gap += 1
    total_slots = num_domains * slots_per_domain
    slots = [
        SlotSpec(index=i, domain=i % num_domains, anchor_offset=i * slot_gap)
        for i in range(total_slots)
    ]
    names = {
        SharingLevel.RANK: "fs_rp",
        SharingLevel.BANK: "fs_bp",
        SharingLevel.NONE: "fs_np",
    }
    return FixedServiceSchedule(
        params=params,
        mode=mode,
        slot_gap=slot_gap,
        num_domains=num_domains,
        slots=slots,
        interval_length=slot_gap * total_slots,
        sharing=sharing,
        name=names[sharing],
    )


def build_triple_alternation_schedule(
    params: TimingParams, num_domains: int
) -> FixedServiceSchedule:
    """Triple alternation, Section 4.3 / Figure 2(b).

    Slots repeat every ``l_bp`` cycles (the bank-partitioned gap, 15) and
    carry a ``bank % 3`` restriction equal to the *global* slot index mod
    3.  Consecutive slots therefore always touch different banks — so the
    bank-partitioned spacing is safe — while same-bank reuse is at least
    three slots (45 >= 43 cycles) apart.  Each domain's restriction
    rotates across the three sub-intervals, so a domain reaches its whole
    address space every interval.

    When ``num_domains`` is a multiple of 3, a fixed domain order would
    pin each domain to a single bank class forever; the builder then
    rotates the domain order by one position per sub-interval, which
    restores full coverage and keeps the adjacency property.
    """
    l_bp = _solved_gap(params, PeriodicMode.RAS, SharingLevel.BANK)
    same_bank_gap = PipelineSolver(params).same_bank_min_gap()
    if 3 * l_bp < same_bank_gap:
        raise RuntimeError(
            "triple alternation unsafe: three bank-partitioned slots "
            f"({3 * l_bp}) do not cover the same-bank gap "
            f"({same_bank_gap}); a deeper alternation is required"
        )
    rotate = 1 if num_domains % 3 == 0 else 0
    slots: List[SlotSpec] = []
    for sub in range(3):
        for j in range(num_domains):
            g = sub * num_domains + j
            domain = (j + sub * rotate) % num_domains
            slots.append(
                SlotSpec(
                    index=g,
                    domain=domain,
                    anchor_offset=g * l_bp,
                    bank_mod=g % 3,
                )
            )
    return FixedServiceSchedule(
        params=params,
        mode=PeriodicMode.RAS,
        slot_gap=l_bp,
        num_domains=num_domains,
        slots=slots,
        interval_length=3 * num_domains * l_bp,
        sharing=SharingLevel.NONE,
        name="fs_np_triple",
    )


# ----------------------------------------------------------------------
# Process-wide memo: solve each timetable once.
# ----------------------------------------------------------------------

#: Solved timetables keyed on (kind, params, num_domains, extras...).
#: Schedules are never mutated after construction, so runs share them.
_SCHEDULE_CACHE: Dict[Tuple, FixedServiceSchedule] = {}
#: Lookup counters, read through :func:`template_cache_stats` (the bench
#: ledger's ``template_cache_hit_rate``).
_CACHE_STATS = {"hits": 0, "misses": 0}


@functools.lru_cache(maxsize=None)
def _solved_gap(
    params: TimingParams, mode: PeriodicMode, sharing: SharingLevel
) -> int:
    """Memoized :meth:`PipelineSolver.solve`: the builders of one part
    ask for the same gaps, and each is a replay search.  Not a
    timetable, so :func:`template_cache_stats` does not count it."""
    return PipelineSolver(params).solve(mode, sharing)


def _memoized(key: Tuple, build) -> FixedServiceSchedule:
    schedule = _SCHEDULE_CACHE.get(key)
    if schedule is None:
        _CACHE_STATS["misses"] += 1
        schedule = _SCHEDULE_CACHE[key] = build()
    else:
        _CACHE_STATS["hits"] += 1
    return schedule


def cached_fs_schedule(
    params: TimingParams,
    num_domains: int,
    sharing: SharingLevel,
    mode: Optional[PeriodicMode] = None,
    slots_per_domain: int = 1,
) -> FixedServiceSchedule:
    """Memoized :func:`build_fs_schedule`: the pipeline solver runs once
    per ``(timing, domains, sharing, ...)`` key, not once per run."""
    return _memoized(
        ("fs", params, num_domains, sharing, mode, slots_per_domain),
        lambda: build_fs_schedule(
            params, num_domains, sharing, mode=mode,
            slots_per_domain=slots_per_domain,
        ),
    )


def cached_triple_alternation_schedule(
    params: TimingParams, num_domains: int
) -> FixedServiceSchedule:
    """Memoized :func:`build_triple_alternation_schedule`."""
    return _memoized(
        ("ta", params, num_domains),
        lambda: build_triple_alternation_schedule(params, num_domains),
    )


def template_cache_stats() -> Dict[str, int]:
    """Hit/miss counts of the process-wide schedule memo."""
    return dict(_CACHE_STATS)


def clear_caches() -> None:
    """Drop the schedule and gap memos and zero the schedule memo's
    counters (test isolation)."""
    _SCHEDULE_CACHE.clear()
    _solved_gap.cache_clear()
    _CACHE_STATS.update(hits=0, misses=0)


@dataclass(frozen=True)
class ReorderedBpGeometry:
    """Timetable constants for reordered bank partitioning (Section 4.2).

    All domains inject at the interval start; the controller performs all
    reads first, then all writes, with ``data_gap`` cycles between burst
    starts and a write-to-read turnaround ``tail`` before the next
    interval.  Read results are released en masse at the interval end so
    the read/write mix of co-scheduled domains cannot modulate observed
    latencies.
    """

    num_domains: int
    data_gap: int
    tail: int

    @property
    def interval_length(self) -> int:
        return self.num_domains * self.data_gap + self.tail

    def data_offset(self, position: int) -> int:
        if not 0 <= position < self.num_domains:
            raise ValueError("slot position out of range")
        return position * self.data_gap

    def peak_utilization(self, tburst: int) -> float:
        return self.num_domains * tburst / self.interval_length


def build_reordered_bp_geometry(
    params: TimingParams, num_domains: int
) -> ReorderedBpGeometry:
    """The first geometry that passes
    :func:`validate_reordered_bp_geometry` on ``params``.

    The search starts from the closed form: ``data_gap`` covers the
    cross-rank bubble and tCCD, and the tail (the bank-partitioned slot
    gap) covers the write -> read pair between intervals.  On Table 1
    that is legal as it stands: gap 6, tail 15, Q = 8*6 + 15 = 63.  Interval lengths Q0 up
    to 2 * Q0 are tried in turn, each with every gap from the closed
    form's upward and the rest as tail; nothing legal raises
    :class:`~repro.errors.ConfigError`.  The ACT stays tRCD before its
    column, so its placement is not searched.
    """
    min_gap = max(params.tBURST + params.tRTRS, params.tCCD)
    min_tail = _solved_gap(params, PeriodicMode.RAS, SharingLevel.BANK)
    shortest = num_domains * min_gap + min_tail
    for length in range(shortest, 2 * shortest + 1):
        for data_gap in range(min_gap, (length - 1) // num_domains + 1):
            geometry = ReorderedBpGeometry(
                num_domains=num_domains, data_gap=data_gap,
                tail=length - num_domains * data_gap,
            )
            replays = _reordered_bp_replays(params, geometry)
            if next(replay(params, replays), None) is None:
                return geometry
    raise ConfigError(
        f"no legal reordered-BP geometry for {num_domains} domains with "
        f"an interval of at most {2 * shortest} cycles on {params}"
    )


def reordered_bp_lead(params: TimingParams) -> int:
    """Cycle of interval 0's first data burst: the earliest command of
    an interval (a read's ACT) precedes it by tRCD + tCAS."""
    return params.tRCD + max(params.tCAS, params.tCWD)


def reordered_bp_times(
    params: TimingParams, data_at: int, is_read: bool
) -> CommandTimes:
    """ACT/column/data cycles of a reordered-BP transaction whose burst
    starts at ``data_at``."""
    col = data_at - (params.tCAS if is_read else params.tCWD)
    return CommandTimes(col - params.tRCD, col, data_at)


def cached_reordered_bp_geometry(
    params: TimingParams, num_domains: int
) -> ReorderedBpGeometry:
    """Memoized :func:`build_reordered_bp_geometry`."""
    return _memoized(
        ("reordered_bp", params, num_domains),
        lambda: build_reordered_bp_geometry(params, num_domains),
    )


# ----------------------------------------------------------------------
# Validation: replay through the JEDEC checker.
# ----------------------------------------------------------------------


def schedule_commands(
    schedule: FixedServiceSchedule,
    pattern: Sequence[bool],
    intervals: int = 3,
    rank_of_slot=None,
    bank_of_slot=None,
) -> List[Command]:
    """Expand a schedule into a concrete command stream.

    ``pattern[g % len(pattern)]`` decides whether global slot ``g`` is a
    read; ``rank_of_slot`` / ``bank_of_slot`` map a global slot index to
    its target (defaults: worst-case placement for the schedule's sharing
    level).  Used by the validation tests.
    """
    cmds: List[Command] = []
    n = schedule.slots_per_interval
    occurrences: Dict[int, int] = {}
    for interval in range(intervals):
        for slot in schedule.slots:
            g = interval * n + slot.index
            occurrence = occurrences.get(slot.domain, 0)
            occurrences[slot.domain] = occurrence + 1
            anchor = schedule.anchor(interval, slot)
            is_read = bool(pattern[g % len(pattern)])
            times = schedule.command_times(anchor, is_read)
            if schedule.sharing is SharingLevel.RANK:
                rank = slot.domain if rank_of_slot is None \
                    else rank_of_slot(g)
                if bank_of_slot is not None:
                    bank = bank_of_slot(g)
                else:
                    # Model the controller's per-domain bank rotation: a
                    # domain never reuses a bank until it has cycled
                    # through the rank (the Section 7 small-N hazard is a
                    # controller duty, not a timetable property).
                    bank = occurrence % 8
            elif schedule.sharing is SharingLevel.BANK:
                # Bank-partitioned layout: a domain owns one bank id in
                # every rank.  Single-slot domains all stay in rank 0
                # (the solver's same-rank worst case); a multi-slot
                # domain rotates ranks across its own occurrences, as
                # the controller's hazard scan would make it do.
                if rank_of_slot is not None:
                    rank = rank_of_slot(g)
                elif len(schedule.slots_of_domain(slot.domain)) == 1:
                    rank = 0
                else:
                    rank = occurrence % 8
                bank = slot.domain if bank_of_slot is None \
                    else bank_of_slot(g)
            else:
                rank = 0 if rank_of_slot is None else rank_of_slot(g)
                if bank_of_slot is not None:
                    bank = bank_of_slot(g)
                elif slot.bank_mod is not None:
                    bank = slot.bank_mod
                else:
                    bank = 0
            cmds.extend(transaction_commands(
                times.act, times.col, rank, bank, is_read,
                row=g, domain=slot.domain,
            ))
    return cmds


def validation_patterns(slots: int) -> List[List[bool]]:
    """Worst-case read/write patterns for a timetable of ``slots`` slots
    per interval: all reads, all writes, both alternations, and one write
    in an otherwise read stream at each of the first eight positions."""
    return [
        [True] * slots,
        [False] * slots,
        [bool(i % 2) for i in range(slots)],
        [not bool(i % 2) for i in range(slots)],
    ] + [
        [i != j for i in range(slots)] for j in range(min(slots, 8))
    ]


def validate_schedule(
    schedule: FixedServiceSchedule,
    intervals: int = 3,
    patterns: Optional[Sequence[Sequence[bool]]] = None,
) -> List[Violation]:
    """Replay worst-case expansions of a schedule through the JEDEC
    checker (by default, every :func:`validation_patterns` pattern); an
    empty result certifies the timetable."""
    if patterns is None:
        patterns = validation_patterns(schedule.slots_per_interval)
    checker = TimingChecker(schedule.params)
    violations: List[Violation] = []
    for pattern in patterns:
        violations.extend(
            checker.check(schedule_commands(schedule, pattern, intervals))
        )
    return violations


def validate_reordered_bp_geometry(
    params: TimingParams, geometry: ReorderedBpGeometry
) -> List[Violation]:
    """Replay two consecutive reordered-BP intervals through the JEDEC
    checker, for every pair of read counts; an empty result certifies
    the geometry on ``params``.

    Interval ``i`` serves ``reads_i`` reads and then writes, one per
    domain, at the controller's data pitch.  Every transaction gets its
    own bank: same-domain and same-bank gaps are the hazard tracker's
    duty, not the timetable's.  The transactions sit all on one rank
    (tRRD, tFAW, tCCD and the turnarounds bind hardest), and again on
    alternating ranks, where tRTRS separates every pair of neighbouring
    bursts.
    """
    return list(replay(params, _reordered_bp_replays(params, geometry)))


def _reordered_bp_replays(
    params: TimingParams, geometry: ReorderedBpGeometry
) -> Iterator[List[Transaction]]:
    """The transactions of each replay
    :func:`validate_reordered_bp_geometry` makes."""
    n = geometry.num_domains
    lead = reordered_bp_lead(params)
    for alternate in (False, True):
        for reads in itertools.product(range(n + 1), repeat=2):
            transactions: List[Transaction] = []
            for interval, read_count in enumerate(reads):
                start = lead + interval * geometry.interval_length
                for position in range(n):
                    k = interval * n + position
                    is_read = position < read_count
                    times = reordered_bp_times(
                        params, start + geometry.data_offset(position),
                        is_read,
                    )
                    transactions.append((
                        times.act, times.col, k % 2 if alternate else 0, k,
                        is_read,
                    ))
            yield transactions
