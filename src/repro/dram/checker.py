"""Independent JEDEC timing validator.

:class:`TimingChecker` holds the raw pairwise DDR3 constraints as
streaming rules: :meth:`~TimingChecker.observe` takes one command at a
time and reports a violation as soon as it is certain, and
:meth:`~TimingChecker.finish` closes the stream.
:meth:`~TimingChecker.check` replays a finished command stream through
the rules, and the online monitor (:mod:`repro.core.online_monitor`)
feeds them live, so the offline and runtime verdicts come from one copy.

The rules deliberately share no code with the
:class:`~repro.dram.bank.Bank` / :class:`~repro.dram.rank.Rank` state
machines: the two implementations cross-check each other, which is how the
tests establish that the FS schedules produced by the constraint solver are
genuinely conflict-free (the paper's central claim in Section 3).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from .commands import Command, CommandType
from .timing import TimingParams


@dataclass
class Violation:
    """One detected constraint violation."""

    rule: str
    first: Command
    second: Command
    required_gap: int
    actual_gap: int

    def __str__(self) -> str:
        return (
            f"{self.rule}: {self.first.type.value}@{self.first.cycle} -> "
            f"{self.second.type.value}@{self.second.cycle} needs "
            f">= {self.required_gap}, got {self.actual_gap}"
        )


@dataclass
class _BankState:
    last_act: Optional[Command] = None
    #: The PRE or auto-precharging column command whose precharge the
    #: next ACT must wait for, and the cycle that precharge completes.
    pre: Optional[Command] = None
    pre_done: int = -(10 ** 9)


@dataclass
class _RankState:
    #: The last four ACTs: tRRD reads the newest, tFAW the oldest.
    acts: Deque[Command] = field(default_factory=lambda: deque(maxlen=4))
    last_col: Optional[Command] = None
    #: Refreshes whose tRFC window may still cover a later command.
    refreshes: List[Command] = field(default_factory=list)
    #: The latest cycle and its non-REF commands, which a REF sorted
    #: after them in that cycle still covers.
    cycle: int = -1
    cycle_cmds: List[Command] = field(default_factory=list)


@dataclass
class _ChannelState:
    #: First command at the latest command-bus cycle, and how many.
    bus_first: Optional[Command] = None
    bus_count: int = 0
    #: Data-bus transfers whose order may still change: (start, seq, cmd).
    transfers: List[Tuple[int, int, Command]] = field(default_factory=list)
    seq: int = 0
    last_transfer: Optional[Tuple[int, Command]] = None
    banks: Dict[Tuple[int, int], _BankState] = field(default_factory=dict)
    ranks: Dict[int, _RankState] = field(default_factory=dict)


class TimingChecker:
    """Validate a command stream against JEDEC constraints.

    ``sink`` receives every violation the streaming rules find; by
    default they collect in :attr:`violations`.
    """

    def __init__(
        self,
        params: TimingParams,
        sink: Optional[Callable[[Violation], None]] = None,
    ) -> None:
        self.params = params
        self.violations: List[Violation] = []
        self._flag = sink if sink is not None else self.violations.append
        self._channels: Dict[int, _ChannelState] = {}

    def check(self, commands: Iterable[Command]) -> List[Violation]:
        """Return every violation found in the stream (empty == legal).

        Replays the stream through a fresh set of rules, so the checker
        is reusable.  Channels have private command/address/data buses,
        so each keeps its own state; commands are replayed in
        ``(cycle, type)`` order.
        """
        replay = TimingChecker(self.params)
        for cmd in sorted(commands, key=lambda c: (c.cycle, c.type.value)):
            replay.observe(cmd)
        replay.finish()
        return replay.violations

    def observe(self, cmd: Command) -> None:
        """Check one command against the commands observed before it.

        Commands must arrive in non-decreasing cycle order per channel.
        """
        state = self._channels.get(cmd.channel)
        if state is None:
            state = self._channels[cmd.channel] = _ChannelState()
        rank = state.ranks.get(cmd.rank)
        if rank is None:
            rank = state.ranks[cmd.rank] = _RankState()
        if cmd.type not in (CommandType.POWER_DOWN, CommandType.POWER_UP):
            self._command_bus(state, cmd)
        self._data_bus(state, cmd)
        self._refresh(rank, cmd)
        if cmd.type is not CommandType.REFRESH and cmd.bank >= 0:
            self._bank(state, cmd)
        self._rank(rank, cmd)

    def finish(self) -> None:
        """Close the stream: check the transfers still in the window."""
        for state in self._channels.values():
            self._flush_data_bus(state, None)

    # ------------------------------------------------------------------

    def _command_bus(self, state: _ChannelState, cmd: Command) -> None:
        first = state.bus_first
        if first is None or first.cycle != cmd.cycle:
            state.bus_first, state.bus_count = cmd, 1
            return
        state.bus_count += 1
        if state.bus_count == 2:
            # One violation per overcommitted cycle.
            self._flag(Violation("command-bus", first, cmd, 1, 0))

    def _data_bus(self, state: _ChannelState, cmd: Command) -> None:
        p = self.params
        # No later command's transfer can start before this floor.
        self._flush_data_bus(state, cmd.cycle + min(p.tCAS, p.tCWD))
        if cmd.type.is_column:
            start = cmd.cycle + (p.tCAS if cmd.type.is_read else p.tCWD)
            heapq.heappush(state.transfers, (start, state.seq, cmd))
            state.seq += 1

    def _flush_data_bus(
        self, state: _ChannelState, floor: Optional[int]
    ) -> None:
        """Check, in start order, the transfers starting before
        ``floor`` (all of them when ``floor`` is None)."""
        p = self.params
        transfers = state.transfers
        while transfers and (floor is None or transfers[0][0] < floor):
            start, _, cmd = heapq.heappop(transfers)
            if state.last_transfer is not None:
                s1, c1 = state.last_transfer
                gap = (
                    p.tBURST if c1.rank == cmd.rank
                    else p.tBURST + p.tRTRS
                )
                if start - s1 < gap:
                    self._flag(
                        Violation("data-bus", c1, cmd, gap, start - s1)
                    )
            state.last_transfer = (start, cmd)

    def _refresh(self, rank: _RankState, cmd: Command) -> None:
        """tRFC: a refresh blocks every other command to its rank."""
        p = self.params
        if rank.refreshes:
            rank.refreshes = [
                ref for ref in rank.refreshes
                if cmd.cycle < ref.cycle + p.tRFC
            ]
        if rank.cycle != cmd.cycle:
            rank.cycle, rank.cycle_cmds = cmd.cycle, []
        if cmd.type is CommandType.REFRESH:
            for other in rank.cycle_cmds:
                self._flag(Violation("tRFC", cmd, other, p.tRFC, 0))
            rank.refreshes.append(cmd)
        else:
            for ref in rank.refreshes:
                self._flag(Violation(
                    "tRFC", ref, cmd, p.tRFC, cmd.cycle - ref.cycle
                ))
            rank.cycle_cmds.append(cmd)

    def _bank(self, state: _ChannelState, cmd: Command) -> None:
        """Sequential per-bank rules: tRC, tRCD, tRAS, tRTP, tWR, tRP."""
        p = self.params
        bank = state.banks.get((cmd.rank, cmd.bank))
        if bank is None:
            bank = state.banks[(cmd.rank, cmd.bank)] = _BankState()
        last = bank.last_act
        if cmd.type is CommandType.ACTIVATE:
            if last is not None and cmd.cycle - last.cycle < p.tRC:
                self._flag(Violation(
                    "tRC", last, cmd, p.tRC, cmd.cycle - last.cycle
                ))
            if cmd.cycle < bank.pre_done:
                self._flag(Violation(
                    "tRP(auto)", bank.pre, cmd, 0,
                    cmd.cycle - bank.pre_done,
                ))
            bank.last_act = cmd
        elif cmd.type.is_column:
            if last is None:
                self._flag(Violation("no-activate", cmd, cmd, 0, 0))
                return
            if cmd.cycle - last.cycle < p.tRCD:
                self._flag(Violation(
                    "tRCD", last, cmd, p.tRCD, cmd.cycle - last.cycle
                ))
            if cmd.type.auto_precharge:
                if cmd.type.is_read:
                    pre_at = cmd.cycle + p.tRTP
                else:
                    pre_at = cmd.cycle + p.tCWD + p.tBURST + p.tWR
                bank.pre = cmd
                bank.pre_done = max(pre_at, last.cycle + p.tRAS) + p.tRP
        elif cmd.type is CommandType.PRECHARGE:
            if last is not None and cmd.cycle - last.cycle < p.tRAS:
                self._flag(Violation(
                    "tRAS", last, cmd, p.tRAS, cmd.cycle - last.cycle
                ))
            bank.pre = cmd
            bank.pre_done = cmd.cycle + p.tRP

    def _rank(self, rank: _RankState, cmd: Command) -> None:
        """tRRD, tFAW, tCCD and read/write turnaround."""
        p = self.params
        if cmd.type is CommandType.ACTIVATE:
            acts = rank.acts
            if acts and cmd.cycle - acts[-1].cycle < p.tRRD:
                self._flag(Violation(
                    "tRRD", acts[-1], cmd, p.tRRD,
                    cmd.cycle - acts[-1].cycle,
                ))
            if len(acts) == 4 and cmd.cycle - acts[0].cycle < p.tFAW:
                self._flag(Violation(
                    "tFAW", acts[0], cmd, p.tFAW, cmd.cycle - acts[0].cycle
                ))
            acts.append(cmd)
        elif cmd.type.is_column:
            c1 = rank.last_col
            if c1 is not None:
                if c1.type.is_read == cmd.type.is_read:
                    need, rule = p.tCCD, "tCCD"
                elif c1.type.is_read:
                    need, rule = p.read_to_write, "rd->wr"
                else:
                    need, rule = p.write_to_read, "wr->rd(tWTR)"
                gap = cmd.cycle - c1.cycle
                if gap < need:
                    self._flag(Violation(rule, c1, cmd, need, gap))
            rank.last_col = cmd
