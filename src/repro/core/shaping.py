"""Per-domain request shaping helpers (Section 3 / Section 5.2).

The FS controller shapes every security domain to one fixed-footprint
memory access per slot.  The pieces here are deliberately *per-domain
only*: every decision they make depends exclusively on the domain's own
history, which is what makes the controller non-interfering by
construction.

* :class:`DomainHazardTracker` — tracks the domain's own recent commands
  so intra-domain DRAM hazards (the Section-7 "two back-to-back
  transactions to the same rank need 43 cycles" problem at low thread
  counts) can be detected before dispatch.  Cross-domain hazards never
  need checking: the pipeline solver proved the timetable free of them.
* :class:`DummyGenerator` — deterministic dummy-address stream confined
  to the domain's partition (and, under triple alternation, to the slot's
  ``bank % 3`` class).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..dram.commands import Address
from ..dram.timing import TimingParams
from ..mapping.partition import PartitionPolicy
from .schedule import CommandTimes


class DomainHazardTracker:
    """The domain's own command history, for self-hazard checks.

    ``legal`` answers: if this domain dispatches a transaction with the
    given command times, do any of *its own* earlier commands forbid it?
    ``commit`` records a dispatched transaction.
    """

    def __init__(self, params: TimingParams) -> None:
        self.params = params
        #: (rank, bank) -> (act cycle, col cycle, col was read)
        self._bank_last: Dict[Tuple[int, int], Tuple[int, int, bool]] = {}
        #: rank -> recent activate cycles (tFAW window)
        self._rank_acts: Dict[int, Deque[int]] = {}
        #: rank -> (last column cycle, was read)
        self._rank_col: Dict[int, Tuple[int, bool]] = {}

    def legal(
        self, times: CommandTimes, address: Address, is_read: bool
    ) -> bool:
        p = self.params
        key = (address.rank, address.bank)
        last = self._bank_last.get(key)
        if last is not None:
            act, col, col_was_read = last
            if times.act - act < p.tRC:
                return False
            if col_was_read:
                pre_done = max(col + p.tRTP, act + p.tRAS) + p.tRP
            else:
                pre_done = max(
                    col + p.tCWD + p.tBURST + p.tWR, act + p.tRAS
                ) + p.tRP
            if times.act < pre_done:
                return False
        acts = self._rank_acts.get(address.rank)
        if acts:
            if times.act - acts[-1] < p.tRRD:
                return False
            if len(acts) == 4 and times.act - acts[0] < p.tFAW:
                return False
        rank_col = self._rank_col.get(address.rank)
        if rank_col is not None:
            col, was_read = rank_col
            if was_read == is_read:
                need = p.tCCD
            elif was_read:
                need = p.read_to_write
            else:
                need = p.write_to_read
            if times.col - col < need:
                return False
        return True

    def commit(
        self, times: CommandTimes, address: Address, is_read: bool
    ) -> None:
        key = (address.rank, address.bank)
        self._bank_last[key] = (times.act, times.col, is_read)
        self._rank_acts.setdefault(
            address.rank, deque(maxlen=4)
        ).append(times.act)
        self._rank_col[address.rank] = (times.col, is_read)


class DummyGenerator:
    """Deterministic per-domain dummy requests (Section 5.2).

    Banks rotate round-robin through the domain's partition resources and
    rows follow a xorshift stream seeded only by the domain id, so the
    dummy pattern is a pure function of the domain — never of co-runners.
    """

    def __init__(
        self,
        domain: int,
        partition: PartitionPolicy,
        channel: int = 0,
        rows: int = 65536,
    ) -> None:
        resources = [
            r for r in partition.resources(domain) if r[0] == channel
        ]
        if not resources:
            raise ValueError(
                f"domain {domain} owns no resources on channel {channel}"
            )
        self.domain = domain
        self._resources = resources
        self._rows = rows
        self._cursor = 0
        #: bank_mod -> the resources in that bank class.
        self._allowed: Dict[Optional[int], List[Tuple[int, int, int]]] = {}
        self._state = (domain * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF

    def _next_row(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x % self._rows

    def candidates(
        self, bank_mod: Optional[int] = None, limit: int = 8
    ) -> Iterator[Address]:
        """Up to ``limit`` dummy addresses, rotating over allowed banks.

        The row draw and the bank-cursor step happen at call time (one
        of each per call, none when the class filter leaves no bank);
        the addresses are built as the caller iterates, because the
        first is almost always legal.
        """
        allowed = self._allowed.get(bank_mod)
        if allowed is None:
            allowed = self._allowed[bank_mod] = [
                (ch, rk, bk)
                for ch, rk, bk in self._resources
                if bank_mod is None or bk % 3 == bank_mod
            ]
        if not allowed:
            return iter(())
        row = self._next_row()
        cursor = self._cursor
        n = len(allowed)
        self._cursor = (cursor + 1) % n
        return (
            Address(*allowed[(cursor + i) % n], row, 0)
            for i in range(min(limit, n))
        )
