"""Temporal Partitioning (Wang et al., HPCA 2014) — the prior secure scheme.

The memory controller is time-sliced: during a *turn* only one security
domain may start memory transactions; near the end of each turn new issue
is blocked for the *dead time* so in-flight work cannot contend with the
next domain.  Turn order and lengths are fixed (they never adapt to
demand), which is what makes TP non-interfering and also what makes it
slow: idle turns are wasted and every queued request waits for its turn.

Two variants from the paper:

* **bank-partitioned TP** — each domain has private banks, so the next
  turn only shares the channel buses; the dead time is small
  (``write_to_read`` = 15 cycles ~ the paper's "12 ns").
* **no-partitioning TP** — domains share banks, so the dead time must
  cover the full worst-case bank turnaround (43 cycles ~ "65 ns" with
  command overheads).

Transactions are closed-page (ACT + column-with-auto-precharge), issued
FCFS per bank with bank-level parallelism inside the turn.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dram.commands import Command, CommandType, Request
from ..dram.system import DramSystem
from ..dram.timing import TimingParams
from .base import MemoryController

_INF = float("inf")

# Hot-path Enum members as module constants (see repro.dram.commands).
_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_COL_READ = CommandType.COL_READ
_COL_WRITE = CommandType.COL_WRITE
_COL_READ_AP = CommandType.COL_READ_AP
_COL_WRITE_AP = CommandType.COL_WRITE_AP


def default_dead_time(params: TimingParams, bank_partitioned: bool) -> int:
    """Minimal dead time for *exact* non-interference, derived from the
    timing parameters.

    This controller only starts a transaction when its whole command
    pair fits before the issue deadline, so the last column is at most
    ``deadline - 1`` and the last activate at most
    ``deadline - 1 - tRCD``.  The dead time must then absorb every
    rank/bank constraint the old turn can impose on the new one:

    * tFAW — the binding one for bank partitioning:
      ``dead >= tFAW - tRCD - 1`` (12 cycles for Table 1, matching the
      12 ns Wang et al. quote for their bank-partitioned TP);
    * write-to-read column turnaround: ``wr2rd - 2*tRCD - 1`` (negative
      here);
    * shared-bank write turnaround (no partitioning only):
      ``tCWD + tBURST + tWR + tRP - 1`` = 31, and
      ``tRC - tRCD - 1`` = 27.
    """
    p = params
    dead = max(
        p.tFAW - p.tRCD - 1,
        p.write_to_read - 2 * p.tRCD - 1,
        p.tBURST + p.tRTRS,  # data-bus drain floor
    )
    if not bank_partitioned:
        dead = max(
            dead,
            p.tCWD + p.tBURST + p.tWR + p.tRP - 1,
            p.tRC - p.tRCD - 1,
        )
    return dead


#: The best-performing turn lengths from the paper's Figure 5 sweep
#: (the shortest feasible turns it evaluates).
DEFAULT_TURN_BP = 60
DEFAULT_TURN_NP = 172


def default_turn_length(bank_partitioned: bool) -> int:
    """The paper's best turn length for each TP variant."""
    return DEFAULT_TURN_BP if bank_partitioned else DEFAULT_TURN_NP


def min_turn_length(params: TimingParams, bank_partitioned: bool) -> int:
    """Smallest useful turn: room for one transaction plus dead time."""
    one_txn = params.tRCD + max(params.tCAS, params.tCWD) + params.tBURST
    return one_txn + default_dead_time(params, bank_partitioned) + 1


class TemporalPartitioningController(MemoryController):
    """Fixed round-robin turns with a dead-time issue blackout."""

    #: How deep to scan the domain's queue for issuable transactions.
    SCAN_DEPTH = 16

    def __init__(
        self,
        dram: DramSystem,
        num_domains: int,
        turn_length: int,
        dead_time: Optional[int] = None,
        bank_partitioned: bool = True,
        log_commands: bool = False,
    ) -> None:
        super().__init__(dram, num_domains, log_commands)
        if dead_time is None:
            dead_time = default_dead_time(dram.params, bank_partitioned)
        if turn_length <= dead_time:
            raise ValueError(
                f"turn length {turn_length} must exceed dead time "
                f"{dead_time}"
            )
        self.turn_length = turn_length
        self.dead_time = dead_time
        self.bank_partitioned = bank_partitioned
        #: With private banks, rows may stay open across the owner's own
        #: turns; shared banks must close every row (auto-precharge) so
        #: no bank state crosses a turn boundary.
        self.open_page = bank_partitioned
        self._queues: Dict[int, List[Request]] = {
            d: [] for d in range(num_domains)
        }
        #: Earliest cycle at which a request the last scan turned away
        #: only because of the scan's ``until`` could issue (inf when
        #: none was); the fast engine memoizes it per turn.
        self._unblock_at: float = _INF

    # ------------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        self._queues[request.domain].append(request)

    def pending(self, domain: Optional[int] = None) -> int:
        if domain is not None:
            return len(self._queues[domain])
        return sum(len(q) for q in self._queues.values())

    def turn_of(self, cycle: int) -> Tuple[int, int, int]:
        """(domain, turn start, issue deadline) for the turn at ``cycle``."""
        index = cycle // self.turn_length
        start = index * self.turn_length
        domain = index % self.num_domains
        return domain, start, start + self.turn_length - self.dead_time

    def next_turn_start(self, domain: int, after: int) -> int:
        """First cycle >= ``after`` at which ``domain`` owns a turn."""
        index = after // self.turn_length
        for probe in range(index, index + self.num_domains + 1):
            if probe % self.num_domains == domain:
                start = probe * self.turn_length
                if start + self.turn_length - self.dead_time > after:
                    return max(start, after)
        raise AssertionError("unreachable: round-robin always recurs")

    def next_event(self) -> Optional[int]:
        upcoming: List[int] = []
        for domain, queue in self._queues.items():
            if queue:
                t = self.next_turn_start(domain, self.now)
                upcoming.append(max(t, self.now + 1))
        if self._release_heap:
            upcoming.append(max(self.now + 1, self._release_heap[0][0]))
        return min(upcoming) if upcoming else None

    # ------------------------------------------------------------------

    def _work(self, until: int) -> None:
        cursor = self.now
        while cursor <= until:
            domain, start, deadline = self.turn_of(cursor)
            self._serve_turn(domain, max(cursor, start), deadline, until)
            cursor = start + self.turn_length
        for channel in self.dram.channels:
            channel.prune(self.now)

    def _serve_turn(
        self, domain: int, cursor: int, deadline: int, until: int
    ) -> None:
        """Issue as much of ``domain``'s work as fits the issue window.

        Within its own turn a domain schedules freely — no security
        constraint applies to self-interference — so this is a normal
        FR-FCFS engine: row hits first, then oldest.  Every command must
        land strictly before the deadline so no shared-resource state
        (command bus, data bus, tFAW/turnaround windows) can spill into
        the next domain's turn.

        With bank partitioning the domain's banks are private, so rows
        may stay open across its own turns (open-page policy, as in Wang
        et al.'s per-turn scheduler).  Without partitioning banks are
        shared: every access auto-precharges, leaving no bank state for
        the next domain to observe.
        """
        queue = self._queues[domain]
        while queue:
            best = self._best_turn_command(
                domain, cursor, deadline, until
            )
            if best is None:
                return
            commands, request = best
            data_start = None
            for command in commands:
                started = self._issue(command)
                if command.type.is_column:
                    data_start = started
            if request is not None:
                assert data_start is not None
                request.issue = commands[0].cycle
                request.data_start = data_start
                request.completion = data_start + self.params.tBURST
                self.stats.record_service(request)
                self._trace(request.domain, commands[0].cycle,
                            "R" if request.is_read else "W")
                queue.remove(request)
                if request.is_read:
                    self._schedule_release(request, request.completion)

    def _best_turn_command(
        self, domain: int, cursor: int, deadline: int, until: int
    ) -> Optional[Tuple[List[Command], Optional[Request]]]:
        """FR-FCFS candidate selection within the domain's turn.

        Returns the winning bank's command(s) and the request they
        serve (``None`` for a PRE or an open-page ACT), building
        commands for that bank only.  Also leaves in ``_unblock_at`` the
        earliest cycle at which a request rejected because of ``until``
        would stop being rejected.
        """
        self._unblock_at = _INF
        per_bank: Dict[Tuple[int, int, int], List[Request]] = {}
        scanned = 0
        for request in self._queues[domain]:
            arrival = request.arrival
            if arrival >= deadline:
                continue
            if arrival > until:
                if arrival < self._unblock_at:
                    self._unblock_at = arrival
                continue
            scanned += 1
            if scanned > self.SCAN_DEPTH:
                break
            addr = request.address
            key = (addr.channel, addr.rank, addr.bank)
            requests = per_bank.get(key)
            if requests is None:
                per_bank[key] = [request]
            else:
                requests.append(request)
        best = None
        for (ch, rank, bank_id), requests in per_bank.items():
            candidate = self._bank_candidate(
                ch, rank, bank_id, requests, cursor, deadline, until
            )
            if candidate is not None and (
                best is None or candidate[0] < best[0]
            ):
                best = candidate
        if best is None:
            return None
        _, request, ctype, cycle, col_at = best
        addr = request.address
        first = Command(
            ctype, cycle, addr.channel, addr.rank, addr.bank, addr.row,
            request.req_id, request.domain,
        )
        if col_at is None:
            return [first], (request if ctype.is_column else None)
        # Closed page: the pair issues atomically, so no bank is ever
        # left open across a turn boundary.
        column = Command(
            _COL_READ_AP if request.is_read else _COL_WRITE_AP, col_at,
            addr.channel, addr.rank, addr.bank, addr.row,
            request.req_id, request.domain,
        )
        return [first, column], request

    def _bank_candidate(
        self, ch: int, rank: int, bank_id: int, requests: List[Request],
        cursor: int, deadline: int, until: int,
    ) -> Optional[Tuple[Tuple[int, int, int], Request, CommandType, int,
                        Optional[int]]]:
        """Next command(s) for one bank's queued requests, deadline-gated.

        Returns ``(sort key, request, command type, cycle, column
        cycle)``.  Open-page mode steps command by command (PRE / ACT /
        row-hit column) and the column cycle is ``None``; closed-page
        mode plans the whole ACT + auto-precharge column pair, whose
        column cycle is given, so a row can never be left open into
        another domain's turn.
        """
        channel = self.dram.channels[ch]
        open_row = channel.ranks[rank].banks[bank_id].open_row
        request = requests[0]
        if self.open_page and open_row is not None:
            for candidate in requests:
                if candidate.address.row == open_row:
                    request = candidate
                    break
        arrival = request.arrival
        lower = cursor if cursor > arrival else arrival
        if open_row is None:
            ctype = _ACTIVATE
            at = channel.earliest_activate(lower, rank, bank_id)
        elif open_row == request.address.row:
            if self.open_page:
                ctype = _COL_READ if request.is_read else _COL_WRITE
            else:
                ctype = _COL_READ_AP if request.is_read else _COL_WRITE_AP
            at = channel.earliest_column(
                lower, rank, bank_id, request.is_read
            )
        else:
            # Row conflict (open-page only): close the row first.
            ctype = _PRECHARGE
            at = channel.earliest_precharge(lower, rank, bank_id)
        if at >= deadline:
            return None
        if at > until:
            if at < self._unblock_at:
                self._unblock_at = at
            return None
        if ctype is not _ACTIVATE:
            key = (0 if ctype.is_column else 1, at, arrival)
            return key, request, ctype, at, None
        # The follow-up column must also fit this turn, else the ACT
        # would carry tFAW/tRRD state into the next turn for nothing.
        col_at = channel.earliest_column_after_planned_act(
            at, rank, request.is_read
        )
        if col_at >= deadline:
            return None
        # Open page issues the ACT alone; its column follows as a row hit.
        return (
            (1, at, arrival), request, _ACTIVATE, at,
            None if self.open_page else col_at,
        )
