"""Per-rank DRAM state: tRRD/tFAW activation windows, column turnaround,
power modes, and energy counters.

The banks of a rank share charge pumps and I/O, so activates are limited by
``tRRD`` (pairwise) and ``tFAW`` (four per sliding window), and column
commands by ``tCCD`` plus the read/write turnaround delays.  The rank also
tracks power-state residency so the Micron-style power model can price
background energy.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from .bank import Bank, TimingViolation
from .commands import Command, CommandType
from .timing import TimingParams

# Hot-path Enum members as module constants (see repro.dram.commands).
_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_REFRESH = CommandType.REFRESH
_PDN = CommandType.POWER_DOWN
_PUP = CommandType.POWER_UP


class PowerState(enum.Enum):
    """Rank power states (a subset of the DDR3 state machine)."""

    ACTIVE = "active"          # at least one bank open, clock on
    PRECHARGED = "precharged"  # all banks closed, clock on
    POWER_DOWN = "power_down"  # fast-exit precharge power-down


_ACTIVE = PowerState.ACTIVE
_PRECHARGED = PowerState.PRECHARGED
_POWERED_DOWN = PowerState.POWER_DOWN


@dataclass
class RankEnergyCounters:
    """Raw activity counts consumed by :mod:`repro.dram.power`."""

    activates: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    cycles_active: int = 0
    cycles_precharged: int = 0
    cycles_power_down: int = 0

    def total_cycles(self) -> int:
        return (
            self.cycles_active
            + self.cycles_precharged
            + self.cycles_power_down
        )


class Rank:
    """One rank: a set of banks plus rank-level constraints."""

    def __init__(self, params: TimingParams, num_banks: int = 8) -> None:
        if num_banks < 1:
            raise ValueError("a rank needs at least one bank")
        self.params = params
        self.banks: List[Bank] = [Bank(params) for _ in range(num_banks)]
        #: Issue cycles of recent activates (for tFAW window).
        self._act_times: Deque[int] = deque(maxlen=4)
        self._last_act: int = -(10**9)
        #: Last column command issue cycle and direction.
        self._last_col: int = -(10**9)
        self._last_col_was_read: bool = True
        #: Column turnarounds, fixed by ``params``.
        self._read_to_write = params.read_to_write
        self._write_to_read = params.write_to_read
        self.power_state: PowerState = PowerState.PRECHARGED
        self._power_until: int = 0  # earliest cycle a command may issue
        self._state_since: int = 0
        self.energy = RankEnergyCounters()

    # ------------------------------------------------------------------
    # Earliest-time queries.
    # ------------------------------------------------------------------

    def earliest_activate(self, now: int, bank: int) -> int:
        b = self.banks[bank]
        p = self.params
        t = b.next_activate
        if now > t:
            t = now
        if b.auto_precharge_at is not None:
            auto = b.auto_precharge_at + p.tRP
            if auto > t:
                t = auto
        rrd = self._last_act + p.tRRD
        if rrd > t:
            t = rrd
        if self._power_until > t:
            t = self._power_until
        acts = self._act_times
        if len(acts) == 4:
            faw = acts[0] + p.tFAW
            if faw > t:
                t = faw
        return t

    def earliest_column_rank_level(self, now: int, is_read: bool) -> int:
        """Rank-level column bound only (tCCD / turnaround / power),
        ignoring per-bank state — for planning a column that will follow
        an activate not yet issued."""
        t = now
        if self._power_until > t:
            t = self._power_until
        if self._last_col_was_read == is_read:
            col = self._last_col + self.params.tCCD
        elif is_read:
            col = self._last_col + self._write_to_read
        else:
            col = self._last_col + self._read_to_write
        return col if col > t else t

    def earliest_column(self, now: int, bank: int, is_read: bool) -> int:
        b = self.banks[bank]
        if b.open_row is None:
            raise RuntimeError("column command to a closed bank")
        t = b.next_column
        return self.earliest_column_rank_level(
            now if now > t else t, is_read
        )

    def earliest_precharge(self, now: int, bank: int) -> int:
        t = self.banks[bank].next_precharge
        if now > t:
            t = now
        return t if t > self._power_until else self._power_until

    def earliest_refresh(self, now: int) -> int:
        """Refresh needs all banks precharged; report when that holds."""
        t = max(now, self._power_until)
        for bank in self.banks:
            if bank.is_open:
                # Caller must precharge first; report the bound assuming a
                # precharge issued as early as possible.
                t = max(t, bank.earliest_precharge(now) + self.params.tRP)
            else:
                t = max(t, bank.next_activate)
                if bank.auto_precharge_at is not None:
                    t = max(t, bank.auto_precharge_at + self.params.tRP)
        return t

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------

    def apply(self, cmd: Command) -> None:
        """Validate the rank-level JEDEC constraints, then transition."""
        t = cmd.cycle
        ctype = cmd.type
        if ctype is _ACTIVATE:
            lower = self.earliest_activate(t, cmd.bank)
            if t < lower:
                raise TimingViolation(
                    f"ACT at {t} violates rank constraint "
                    f"(earliest {lower})"
                )
        elif ctype.is_column:
            lower = self.earliest_column(t, cmd.bank, ctype.is_read)
            if t < lower:
                raise TimingViolation(
                    f"{ctype.value} at {t} violates rank constraint "
                    f"(earliest {lower})"
                )
        elif ctype is _REFRESH:
            lower = self.earliest_refresh(t)
            if t < lower:
                raise TimingViolation(
                    f"REF at {t} violates rank constraint (earliest {lower})"
                )
        elif ctype is _PDN:
            if self.any_bank_open:
                raise TimingViolation("power-down with open banks")
        elif ctype is _PUP:
            if self.power_state is not _POWERED_DOWN:
                raise TimingViolation("power-up while not powered down")
        self._transition(cmd, True)

    def _transition(self, cmd: Command, checked: bool) -> None:
        """Apply ``cmd``'s state and energy updates.

        :meth:`apply` validates first and passes ``checked=True``;
        :meth:`~repro.dram.channel.Channel.issue_trusted` calls this
        directly with ``checked=False`` for command streams whose
        legality was proved offline (the Fixed Service timetables).  Both
        make the *same* updates in the same order, so power-state
        residency and energy counters stay bit-identical across paths.
        """
        t = cmd.cycle
        ctype = cmd.type
        if ctype is _ACTIVATE:
            self._account_state(t)
            self._act_times.append(t)
            self._last_act = t
            self.energy.activates += 1
            bank = self.banks[cmd.bank]
            bank.apply(cmd) if checked else bank.apply_trusted(cmd)
            self._enter(_ACTIVE, t)
        elif ctype.is_column:
            self._last_col = t
            self._last_col_was_read = ctype.is_read
            if ctype.is_read:
                self.energy.reads += 1
            else:
                self.energy.writes += 1
            bank = self.banks[cmd.bank]
            bank.apply(cmd) if checked else bank.apply_trusted(cmd)
            if ctype.auto_precharge and not self.any_bank_open:
                self._account_state(t)
                self._enter(_PRECHARGED, t)
        elif ctype is _PRECHARGE:
            bank = self.banks[cmd.bank]
            bank.apply(cmd) if checked else bank.apply_trusted(cmd)
            if not self.any_bank_open:
                self._account_state(t)
                self._enter(_PRECHARGED, t)
        elif ctype is _REFRESH:
            self._account_state(t)
            self.energy.refreshes += 1
            for bank in self.banks:
                bank.apply(cmd) if checked else bank.apply_trusted(cmd)
            self._enter(_PRECHARGED, t)
        elif ctype is _PDN:
            self._account_state(t)
            self._enter(_POWERED_DOWN, t)
            self._power_until = t + self.params.tCKE
        elif ctype is _PUP:
            self._account_state(t)
            self._enter(_PRECHARGED, t)
            self._power_until = t + self.params.tXP
        else:  # pragma: no cover - defensive
            raise ValueError(f"rank cannot apply {ctype}")

    @property
    def any_bank_open(self) -> bool:
        # Plain loop over ``open_row`` slots: this runs once per column/
        # precharge command, and the generator frame of an ``any(...)``
        # genexpr is measurable there.
        for bank in self.banks:
            if bank.open_row is not None:
                return True
        return False

    def finalize(self, end_cycle: int) -> None:
        """Close the power-state accounting at the end of simulation."""
        self._account_state(end_cycle)

    def _enter(self, state: PowerState, t: int) -> None:
        self.power_state = state
        self._state_since = t

    def _account_state(self, t: int) -> None:
        span = t - self._state_since
        if span > 0:
            state = self.power_state
            if state is _ACTIVE:
                self.energy.cycles_active += span
            elif state is _PRECHARGED:
                self.energy.cycles_precharged += span
            else:
                self.energy.cycles_power_down += span
        self._state_since = t
