"""A DRAM channel: shared command bus, shared data bus, and its ranks.

The channel is the arbitration point the paper's pipelines are built
around: one command per cycle on the command bus, one burst at a time on
the data bus with a ``tRTRS`` bubble between transfers from different
ranks.  The channel exposes *earliest-issue* queries (pure) and a single
:meth:`Channel.issue` mutation that validates every constraint before
applying, so an illegal schedule can never be silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .bank import TimingViolation
from .commands import Command, CommandType
from .rank import Rank
from .timing import TimingParams


@dataclass(frozen=True)
class DataReservation:
    """One burst on the data bus: [start, end) by ``rank``."""

    start: int
    end: int
    rank: int


class Channel:
    """One DDR3 channel with ``num_ranks`` ranks of ``num_banks`` banks."""

    def __init__(
        self,
        params: TimingParams,
        num_ranks: int = 8,
        num_banks: int = 8,
        channel_id: int = 0,
    ) -> None:
        if num_ranks < 1:
            raise ValueError("a channel needs at least one rank")
        self.params = params
        self.channel_id = channel_id
        self.ranks: List[Rank] = [
            Rank(params, num_banks) for _ in range(num_ranks)
        ]
        self.num_banks = num_banks
        #: Cycles on which the command bus is occupied.
        self._cmd_bus: Set[int] = set()
        self._cmd_bus_horizon = 0  # cycles below this have been pruned
        #: Outstanding/past data-bus reservations, kept sorted by start.
        self._data: List[DataReservation] = []
        self.stat_commands = 0
        self.stat_data_cycles = 0
        self.stat_last_activity = 0

    # ------------------------------------------------------------------
    # Command bus.
    # ------------------------------------------------------------------

    def cmd_bus_free(self, cycle: int) -> bool:
        return cycle not in self._cmd_bus

    def next_free_cmd_cycle(self, cycle: int) -> int:
        while cycle in self._cmd_bus:
            cycle += 1
        return cycle

    def _reserve_cmd(self, cycle: int) -> None:
        if cycle in self._cmd_bus:
            raise TimingViolation(f"command bus conflict at cycle {cycle}")
        self._cmd_bus.add(cycle)

    # ------------------------------------------------------------------
    # Data bus.
    # ------------------------------------------------------------------

    def data_conflict(self, start: int, rank: int) -> bool:
        """Would a burst [start, start+tBURST) by ``rank`` conflict?"""
        end = start + self.params.tBURST
        for res in self._data:
            gap = 0 if res.rank == rank else self.params.tRTRS
            if start < res.end + gap and res.start < end + gap:
                return True
        return False

    def earliest_data_start(self, lower: int, rank: int) -> int:
        """Smallest burst start >= ``lower`` with no data-bus conflict."""
        start = lower
        moved = True
        while moved:
            moved = False
            end = start + self.params.tBURST
            for res in self._data:
                gap = 0 if res.rank == rank else self.params.tRTRS
                if start < res.end + gap and res.start < end + gap:
                    start = res.end + gap
                    moved = True
                    break
        return start

    def _reserve_data(self, start: int, rank: int) -> None:
        if self.data_conflict(start, rank):
            raise TimingViolation(f"data bus conflict at cycle {start}")
        res = DataReservation(start, start + self.params.tBURST, rank)
        self._data.append(res)
        self._data.sort(key=lambda r: r.start)
        self.stat_data_cycles += self.params.tBURST

    def prune(self, before: int) -> None:
        """Drop bookkeeping that can no longer affect scheduling."""
        margin = self.params.tRTRS + self.params.tBURST
        self._data = [r for r in self._data if r.end + margin > before]
        if before > self._cmd_bus_horizon + 4096:
            self._cmd_bus = {c for c in self._cmd_bus if c >= before}
            self._cmd_bus_horizon = before

    # ------------------------------------------------------------------
    # Earliest-issue queries for whole commands.
    # ------------------------------------------------------------------

    def earliest_activate(self, now: int, rank: int, bank: int) -> int:
        t = self.ranks[rank].earliest_activate(now, bank)
        return self.next_free_cmd_cycle(t)

    def earliest_column(
        self, now: int, rank: int, bank: int, is_read: bool
    ) -> int:
        """Earliest column-command cycle honouring rank timing, the command
        bus, and the data-bus slot its burst will need."""
        p = self.params
        offset = p.tCAS if is_read else p.tCWD
        t = self.ranks[rank].earliest_column(now, bank, is_read)
        while True:
            t = self.next_free_cmd_cycle(t)
            data_start = self.earliest_data_start(t + offset, rank)
            if data_start == t + offset:
                return t
            # Align the column command with the available data slot.
            t = data_start - offset

    def earliest_column_after_planned_act(
        self, act_at: int, rank: int, is_read: bool
    ) -> int:
        """Earliest column cycle for a transaction whose ACTIVATE will
        issue at ``act_at`` but has not been applied yet."""
        p = self.params
        offset = p.tCAS if is_read else p.tCWD
        t = self.ranks[rank].earliest_column_rank_level(
            act_at + p.tRCD, is_read
        )
        while True:
            t = self.next_free_cmd_cycle(t)
            data_start = self.earliest_data_start(t + offset, rank)
            if data_start == t + offset:
                return t
            t = data_start - offset

    def earliest_precharge(self, now: int, rank: int, bank: int) -> int:
        t = self.ranks[rank].earliest_precharge(now, bank)
        return self.next_free_cmd_cycle(t)

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------

    def issue(self, cmd: Command) -> Optional[int]:
        """Put ``cmd`` on the command bus at ``cmd.cycle``.

        Returns the data-burst start cycle for column commands, else
        ``None``.  Raises :class:`TimingViolation` if any constraint is
        broken — the schedulers are expected to have computed a legal time.
        """
        if cmd.channel != self.channel_id:
            raise ValueError("command routed to the wrong channel")
        self._reserve_cmd(cmd.cycle)
        data_start: Optional[int] = None
        if cmd.type.is_column:
            offset = (
                self.params.tCAS if cmd.type.is_read else self.params.tCWD
            )
            data_start = cmd.cycle + offset
            self._reserve_data(data_start, cmd.rank)
        self.ranks[cmd.rank].apply(cmd)
        self.stat_commands += 1
        self.stat_last_activity = max(self.stat_last_activity, cmd.cycle)
        return data_start

    def issue_trusted(self, cmd: Command) -> Optional[int]:
        """Apply ``cmd`` without validation or bus bookkeeping.

        For pre-validated fixed schedules only (:mod:`repro.sim.fastpath`):
        the pipeline solver already proved the command stream free of
        command-bus and data-bus conflicts, so the per-cycle bus
        reservations exist only to re-check that proof.  This path skips
        them while keeping every *observable* update (rank/bank state,
        energy counters, ``stat_commands`` / ``stat_data_cycles`` /
        ``stat_last_activity``) identical to :meth:`issue`.

        CAVEAT: the ``earliest_*`` queries and ``cmd_bus_free`` /
        ``data_conflict`` are NOT maintained by this path.  Controllers
        that consult them (FR-FCFS, TP, FCFS) must keep using
        :meth:`issue`.
        """
        data_start: Optional[int] = None
        ctype = cmd.type
        if ctype.is_column:
            p = self.params
            data_start = cmd.cycle + (p.tCAS if ctype.is_read else p.tCWD)
            self.stat_data_cycles += p.tBURST
        # Straight to the rank's state transition: no validation layer
        # in between (the FS slot loop issues two commands per slot).
        self.ranks[cmd.rank]._transition(cmd, False)
        self.stat_commands += 1
        if cmd.cycle > self.stat_last_activity:
            self.stat_last_activity = cmd.cycle
        return data_start

    # ------------------------------------------------------------------
    # Introspection helpers.
    # ------------------------------------------------------------------

    def bank(self, rank: int, bank: int):
        return self.ranks[rank].banks[bank]

    def finalize(self, end_cycle: int) -> None:
        for rank in self.ranks:
            rank.finalize(end_cycle)

    def bus_utilization(self, elapsed_cycles: int) -> float:
        """Fraction of cycles the data bus carried data."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.stat_data_cycles / elapsed_cycles
