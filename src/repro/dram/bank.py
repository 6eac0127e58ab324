"""Per-bank DRAM state machine.

A bank tracks its open row and the earliest cycles at which each command
class may legally target it.  All state updates are driven by
:meth:`Bank.apply`, which is called exactly once per issued command; the
earliest-time queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .commands import Command, CommandType
from .timing import TimingParams

# Hot-path Enum members as module constants (see repro.dram.commands).
_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_REFRESH = CommandType.REFRESH


@dataclass
class Bank:
    """State of one DRAM bank."""

    params: TimingParams
    open_row: Optional[int] = None
    #: Earliest cycle an ACTIVATE may issue to this bank.
    next_activate: int = 0
    #: Earliest cycle a column command may issue to this bank.
    next_column: int = 0
    #: Earliest cycle a PRECHARGE may issue to this bank.
    next_precharge: int = 0
    #: Cycle of the last activate (for row-open-time accounting).
    last_activate: int = -1
    #: Pending auto-precharge completion, if any.
    auto_precharge_at: Optional[int] = None
    #: Statistics.
    stat_activates: int = 0
    stat_row_hits: int = 0
    stat_row_misses: int = 0

    @property
    def is_open(self) -> bool:
        return self.open_row is not None

    def is_row_hit(self, row: int) -> bool:
        return self.open_row == row

    # ------------------------------------------------------------------
    # Earliest-time queries (pure).
    # ------------------------------------------------------------------

    def earliest_activate(self, now: int) -> int:
        """Earliest cycle an ACT may issue, ignoring rank/channel limits."""
        t = max(now, self.next_activate)
        if self.auto_precharge_at is not None:
            t = max(t, self.auto_precharge_at + self.params.tRP)
        return t

    def earliest_column(self, now: int, is_read: bool) -> int:
        """Earliest cycle a column command may issue to the open row."""
        if not self.is_open:
            raise RuntimeError("column command to a closed bank")
        del is_read  # direction limits are rank-level (tCCD/tWTR)
        return max(now, self.next_column)

    def earliest_precharge(self, now: int) -> int:
        return max(now, self.next_precharge)

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------

    def apply(self, cmd: Command) -> None:
        """Update bank state for a command issued at ``cmd.cycle``,
        validating the bank-level JEDEC constraints first."""
        t = cmd.cycle
        ctype = cmd.type
        if ctype is _ACTIVATE:
            self._check(t, self.earliest_activate(t), cmd)
        elif ctype.is_column:
            self._check(t, self.earliest_column(t, ctype.is_read), cmd)
        elif ctype is _PRECHARGE:
            self._check(t, self.earliest_precharge(t), cmd)
        self.apply_trusted(cmd)

    def apply_trusted(self, cmd: Command) -> None:
        """State transition without the validation checks.

        The fast-path engine (:mod:`repro.sim.fastpath`) uses this for
        commands whose legality was proved offline by the pipeline
        solver; the state updates are *identical* to :meth:`apply` so
        every downstream observable (stats, energy, power states) stays
        bit-exact.  Never call this for commands that were not
        pre-validated.
        """
        p = self.params
        t = cmd.cycle
        ctype = cmd.type
        if ctype is _ACTIVATE:
            self.open_row = cmd.row
            self.last_activate = t
            self.auto_precharge_at = None
            self.next_activate = t + p.tRC
            self.next_column = t + p.tRCD
            self.next_precharge = t + p.tRAS
            self.stat_activates += 1
        elif ctype.is_column:
            if ctype.is_read:
                # Read-to-precharge and auto-precharge bookkeeping.
                pre_ready = t + p.tRTP
            else:
                pre_ready = t + p.tCWD + p.tBURST + p.tWR
            self.next_precharge = max(self.next_precharge, pre_ready)
            if ctype.auto_precharge:
                # The precharge engages as soon as it legally can.
                auto_at = max(
                    pre_ready, self.last_activate + p.tRAS
                )
                self.auto_precharge_at = auto_at
                self.open_row = None
                self.next_activate = max(
                    self.next_activate, auto_at + p.tRP
                )
        elif ctype is _PRECHARGE:
            self.open_row = None
            self.auto_precharge_at = None
            self.next_activate = max(self.next_activate, t + p.tRP)
        elif ctype is _REFRESH:
            # Refresh is issued to a precharged bank; it blocks everything
            # for tRFC.
            self.open_row = None
            self.auto_precharge_at = None
            self.next_activate = max(self.next_activate, t + p.tRFC)
            self.next_precharge = max(self.next_precharge, t + p.tRFC)
        else:
            raise ValueError(f"bank cannot apply {ctype}")

    @staticmethod
    def _check(t: int, earliest: int, cmd: Command) -> None:
        if t < earliest:
            raise TimingViolation(
                f"{cmd.type.value} at cycle {t} violates bank timing "
                f"(earliest legal cycle is {earliest})"
            )


class TimingViolation(RuntimeError):
    """Raised when a command is applied earlier than JEDEC allows."""
