"""Offline constraint solver for Fixed Service pipelines (Section 3-4).

The paper builds FS schedules by solving systems of integer inequalities
over the DRAM timing parameters: pick the anchor event that repeats with a
fixed period ``l`` (the data burst, the Activate/RAS, or the column
command/CAS), then find the smallest ``l`` such that *no* assignment of
reads and writes to slots can create a command-bus, data-bus, bank, or
rank conflict.

This module does not restate those inequalities.  For a candidate ``l``
it places every slot pair within the constraint horizon, in every
read/write combination and on every placement the sharing level allows,
expands each transaction into an ACTIVATE and its auto-precharging column
command (:func:`transaction_commands`), and replays them through
:class:`~repro.dram.checker.TimingChecker`: the JEDEC rules that check
finished runs also decide which gaps the solver accepts.  For the Table-1
part it reproduces the paper's solutions exactly:

====================  ==========  ==========  =========
sharing level         DATA        RAS         CAS
====================  ==========  ==========  =========
rank partitioning     **7**       12          12
bank partitioning     21          **15**      15
no partitioning       49          **43**      43
====================  ==========  ==========  =========

(bold = the pipeline the paper selects for that level).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..dram.checker import TimingChecker, Violation
from ..dram.commands import Command, CommandType
from ..dram.timing import TimingParams


class PeriodicMode(enum.Enum):
    """Which event recurs every ``l`` cycles (paper Section 3)."""

    DATA = "data"
    RAS = "ras"
    CAS = "cas"


class SharingLevel(enum.Enum):
    """Worst-case resource relationship between two different slots."""

    #: Different slots always target different ranks (rank partitioning):
    #: only the channel buses are shared.
    RANK = "rank"
    #: Different slots may target the same rank, never the same bank.
    BANK = "bank"
    #: Different slots may target the very same bank (no partitioning).
    NONE = "none"


@dataclass(frozen=True)
class SlotTiming:
    """Command/data times of one slot relative to its anchor.

    ``act``, ``col`` and ``data`` are offsets from ``k * l`` for slot k;
    they depend on whether the slot is a read or a write.
    """

    act: int
    col: int
    data: int
    is_read: bool


def slot_timing(
    params: TimingParams, mode: PeriodicMode, is_read: bool
) -> SlotTiming:
    """Offsets of ACT / column / data for one slot, per periodic mode."""
    p = params
    col_to_data = p.tCAS if is_read else p.tCWD
    if mode is PeriodicMode.DATA:
        data = 0
        col = -col_to_data
        act = col - p.tRCD
    elif mode is PeriodicMode.RAS:
        act = 0
        col = p.tRCD
        data = col + col_to_data
    else:  # CAS periodic
        col = 0
        act = -p.tRCD
        data = col_to_data
    return SlotTiming(act=act, col=col, data=data, is_read=is_read)


#: One FS transaction: (ACT cycle, column cycle, rank, bank, is_read).
Transaction = Tuple[int, int, int, int, bool]
#: Both directions, read first.
_RW = (True, False)


def transaction_commands(
    act: int, col: int, rank: int, bank: int, is_read: bool,
    row: int = -1, domain: int = -1,
) -> Tuple[Command, Command]:
    """One FS transaction as it goes on the bus (channel 0): an
    ACTIVATE and its auto-precharging column command."""
    column = CommandType.COL_READ_AP if is_read else CommandType.COL_WRITE_AP
    return (
        Command(CommandType.ACTIVATE, act, 0, rank, bank, row,
                domain=domain),
        Command(column, col, 0, rank, bank, row, domain=domain),
    )


def replay(
    params: TimingParams, replays: Iterable[Sequence[Transaction]]
) -> Iterator[Violation]:
    """Replay each group of transactions on its own through
    :class:`~repro.dram.checker.TimingChecker`, in order, yielding what
    it flags; a caller that stops reading stops the replays."""
    checker = TimingChecker(params)
    for transactions in replays:
        yield from checker.check(
            cmd for t in transactions for cmd in transaction_commands(*t)
        )


class PipelineSolver:
    """Finds the minimal conflict-free slot gap ``l``."""

    def __init__(self, params: TimingParams) -> None:
        self.params = params

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def check(
        self, l: int, mode: PeriodicMode, sharing: SharingLevel
    ) -> Optional[Violation]:
        """The checker's first violation for slot gap ``l``, or None if
        the gap is legal.

        Slot pairs up to the constraint horizon apart are replayed in
        all four read/write combinations on each placement the sharing
        level allows: every slot on its own rank (RANK); one rank with
        slot k on bank k (BANK) or all slots on one bank (NONE), then
        those banks on distinct ranks, where tRTRS binds.  One-rank
        placements also replay all 32 read/write patterns of five
        consecutive slots (the tFAW window).  Slot 0's anchor sits one
        horizon after cycle 0, so no command lands before it.
        """
        if l < 1:
            raise ValueError("slot gap must be >= 1")
        horizon = self._horizon()
        timings = {
            True: slot_timing(self.params, mode, True),
            False: slot_timing(self.params, mode, False),
        }

        def slot(k: int, is_read: bool, ranks: int, banks: int):
            # ranks/banks 1: slot k on rank/bank k; 0: all on the first.
            t = timings[is_read]
            anchor = horizon + k * l
            return (anchor + t.act, anchor + t.col, k * ranks, k * banks,
                    is_read)

        def pairs(ranks: int, banks: int):
            for d in range(1, max(1, -(-horizon // l)) + 1):
                for first, second in itertools.product(_RW, repeat=2):
                    yield (slot(0, first, ranks, banks),
                           slot(d, second, ranks, banks))

        def windows(banks: int):
            for pattern in itertools.product(_RW, repeat=5):
                yield [slot(k, r, 0, banks) for k, r in enumerate(pattern)]

        if sharing is SharingLevel.RANK:
            replays = pairs(1, 0)
        else:
            banks = 1 if sharing is SharingLevel.BANK else 0
            # One rank first: most rejected gaps fail on its first pair.
            replays = itertools.chain(
                pairs(0, banks), windows(banks), pairs(1, banks)
            )
        return next(replay(self.params, replays), None)

    def solve(
        self,
        mode: PeriodicMode,
        sharing: SharingLevel,
        max_l: int = 512,
    ) -> int:
        """Smallest ``l`` with no conflicts (paper Equations 1-4)."""
        for l in range(self.params.tBURST, max_l + 1):
            if self.check(l, mode, sharing) is None:
                return l
        raise RuntimeError(
            f"no feasible slot gap <= {max_l} for mode={mode.value} "
            f"sharing={sharing.value}"
        )

    def solve_all(
        self, max_l: int = 512
    ) -> Dict[Tuple[str, str], int]:
        """Minimal ``l`` for every (sharing, mode) combination."""
        out: Dict[Tuple[str, str], int] = {}
        for sharing in SharingLevel:
            for mode in PeriodicMode:
                out[(sharing.value, mode.value)] = self.solve(
                    mode, sharing, max_l
                )
        return out

    def best(self, sharing: SharingLevel, max_l: int = 512
             ) -> Tuple[PeriodicMode, int]:
        """The (mode, l) pair with the smallest ``l`` for a sharing level.

        Ties break in PeriodicMode declaration order (DATA first), which
        matches the paper's choices: DATA for rank partitioning, RAS for
        bank and no partitioning.
        """
        options = [
            (self.solve(mode, sharing, max_l), mode) for mode in PeriodicMode
        ]
        l, mode = min(options, key=lambda t: t[0])
        return mode, l

    def same_bank_min_gap(self) -> int:
        """Worst-case anchor gap for two transactions to the *same bank*.

        A write followed by a read to a different row of the same bank
        needs ``tRCD + tCWD + tBURST + tWR + tRP`` = 43 cycles between
        activates (Section 4.3 / Section 7 sensitivity discussion).
        """
        p = self.params
        return max(p.tRC, p.write_turnaround_same_bank,
                   p.tRCD + p.tCAS + p.tRTP + p.tRP)

    def _horizon(self) -> int:
        """Largest time span any pairwise constraint can reach across."""
        p = self.params
        reach = max(
            p.tFAW,
            p.tRC,
            p.write_turnaround_same_bank,
            p.write_to_read,
            p.read_to_write,
            p.tBURST + p.tRTRS,
        )
        offsets = p.tRCD + max(p.tCAS, p.tCWD)
        return reach + 2 * offsets


@dataclass(frozen=True)
class GroupedPipeline:
    """A grouped FS pipeline: each domain issues ``group_size``
    consecutive transactions, ``intra_gap`` apart (same rank, different
    banks), with ``inter_gap`` before the next domain's group."""

    group_size: int
    intra_gap: int
    inter_gap: int

    @property
    def cycles_per_slot(self) -> float:
        """Average pipeline cost of one transaction slot."""
        total = (self.group_size - 1) * self.intra_gap + self.inter_gap
        return total / self.group_size

    def anchors(self, period_index: int = 0) -> list:
        """Anchor offsets of one group, starting at the period origin."""
        base = period_index * (
            (self.group_size - 1) * self.intra_gap + self.inter_gap
        )
        return [base + i * self.intra_gap for i in range(self.group_size)]


class GroupedPipelineSolver:
    """Section 3 "Improving bandwidth": N transactions per thread.

    Within a group the transactions share a rank (no tRTRS) but use
    different banks; between groups the rank changes.  The solver finds
    the (intra, inter) gap pair minimizing average cycles per
    transaction and lets the caller compare against the plain pipeline —
    reproducing the paper's conclusion that grouping does *not* help for
    the Table-1 part.
    """

    def __init__(self, params: TimingParams) -> None:
        self.params = params
        self._plain = PipelineSolver(params)

    def check(
        self, mode: PeriodicMode, group_size: int,
        intra_gap: int, inter_gap: int, horizon_groups: int = 8,
    ) -> bool:
        """Is the periodic grouped pattern conflict-free?

        Group g runs on rank g and its k-th transaction on bank k.  Every
        pair of anchors up to the constraint horizon apart is replayed
        through the checker in all four read/write combinations, nearest
        pairs first; a group of five or more also replays every
        read/write pattern of its first five transactions (the tFAW
        window).
        """
        if group_size < 1 or intra_gap < 1 or inter_gap < 1:
            raise ValueError("gaps and group size must be positive")
        pipeline = GroupedPipeline(group_size, intra_gap, inter_gap)
        horizon = self._plain._horizon()
        slots = [
            (horizon + anchor, g, k)
            for g in range(horizon_groups)
            for k, anchor in enumerate(pipeline.anchors(g))
        ]
        timings = {
            True: slot_timing(self.params, mode, True),
            False: slot_timing(self.params, mode, False),
        }

        def transaction(slot, is_read: bool) -> Transaction:
            anchor, group, k = slot
            t = timings[is_read]
            return (anchor + t.act, anchor + t.col, group, k, is_read)

        n = len(slots)
        replays = itertools.chain(
            (
                (transaction(slots[i], first),
                 transaction(slots[i + d], second))
                for d in range(1, n)
                for i in range(n - d)
                if slots[i + d][0] - slots[i][0] <= horizon
                for first, second in itertools.product(_RW, repeat=2)
            ),
            (
                [transaction(s, r) for s, r in zip(slots, pattern)]
                for pattern in itertools.product(_RW, repeat=5)
                if group_size >= 5
            ),
        )
        return next(replay(self.params, replays), None) is None

    def solve(
        self, mode: PeriodicMode, group_size: int, max_gap: int = 64
    ) -> GroupedPipeline:
        """Cheapest feasible (intra, inter) pair for a group size.

        An intra gap is skipped whole when its first intra-group pair
        fails: a one-group check of a group of two replays that pair
        alone, and every full :meth:`check` replays it too, whatever the
        inter gap."""
        best: Optional[GroupedPipeline] = None
        for intra in range(self.params.tBURST, max_gap + 1):
            if group_size >= 2 and not self.check(
                mode, 2, intra, 1, horizon_groups=1
            ):
                continue
            for inter in range(
                self.params.tBURST + self.params.tRTRS, max_gap + 1
            ):
                candidate = GroupedPipeline(group_size, intra, inter)
                if best is not None and (
                    candidate.cycles_per_slot >= best.cycles_per_slot
                ):
                    continue
                if self.check(mode, group_size, intra, inter):
                    best = candidate
        if best is None:
            raise RuntimeError(
                f"no feasible grouped pipeline within gap <= {max_gap}"
            )
        return best

    def grouping_helps(
        self, mode: PeriodicMode = PeriodicMode.DATA,
        group_sizes=(2, 3, 4),
    ) -> Dict[int, float]:
        """Average cycles/transaction for each group size vs plain.

        For the Table-1 part every entry is >= the plain pipeline's
        slot gap — the paper's negative result.
        """
        plain = self._plain.solve(mode, SharingLevel.RANK)
        out = {1: float(plain)}
        for n in group_sizes:
            out[n] = self.solve(mode, n).cycles_per_slot
        return out


def paper_solutions(params: TimingParams) -> Dict[str, int]:
    """The named design points from Sections 3-4, solved from scratch.

    Keys: ``fs_rp`` (rank partitioning, periodic data), ``fs_bp``
    (bank partitioning, periodic RAS), ``fs_np`` (no partitioning,
    periodic RAS), plus the rejected alternatives the paper quotes.
    """
    solver = PipelineSolver(params)
    return {
        "fs_rp": solver.solve(PeriodicMode.DATA, SharingLevel.RANK),
        "fs_rp_ras": solver.solve(PeriodicMode.RAS, SharingLevel.RANK),
        "fs_rp_cas": solver.solve(PeriodicMode.CAS, SharingLevel.RANK),
        "fs_bp_data": solver.solve(PeriodicMode.DATA, SharingLevel.BANK),
        "fs_bp": solver.solve(PeriodicMode.RAS, SharingLevel.BANK),
        "fs_np": solver.solve(PeriodicMode.RAS, SharingLevel.NONE),
        "same_bank_gap": solver.same_bank_min_gap(),
    }
