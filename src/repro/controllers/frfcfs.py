"""Non-secure baseline: FR-FCFS with open-page policy and write drain.

This stands in for the paper's baseline (the best scheduler from the 2012
Memory Scheduling Championship).  It captures the two behaviours that make
the baseline fast — row-buffer-hit-first scheduling and batched write
drains — while remaining deterministic.

Scheduling is event-driven: for every bank with pending work the
controller computes the earliest legal issue time of that bank's next
command, then issues the globally best candidate (earliest time first;
ties prefer column commands, i.e. row hits, then age).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dram.commands import Command, CommandType, Request
from ..dram.system import DramSystem
from .base import MemoryController

# Hot-path Enum members as module constants (see repro.dram.commands).
_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_COL_READ = CommandType.COL_READ
_COL_WRITE = CommandType.COL_WRITE


class _Candidate:
    """One bank's next command: its type, when it can issue, and the
    transaction it serves.  The :class:`Command` itself is built only
    when the candidate issues."""

    __slots__ = ("issue_at", "is_column", "arrival", "type", "request")

    def __init__(self, issue_at: int, is_column: bool, arrival: int,
                 ctype: CommandType, request: Request) -> None:
        self.issue_at = issue_at
        self.is_column = is_column
        self.arrival = arrival
        self.type = ctype
        self.request = request

    def sort_key(self) -> Tuple[int, int, int]:
        # Earliest first; at equal time prefer column commands (row hits),
        # then the oldest transaction.
        return (self.issue_at, 0 if self.is_column else 1, self.arrival)


class FrFcfsController(MemoryController):
    """Open-page FR-FCFS with read priority and write-drain hysteresis."""

    #: How deep into a bank's queue to look for a row hit.
    ROW_HIT_SCAN = 16
    #: Age (cycles) past which a transaction refuses to be bypassed.
    STARVATION_LIMIT = 2000

    def __init__(
        self,
        dram: DramSystem,
        num_domains: int,
        write_queue_high: int = 32,
        write_queue_low: int = 8,
        refresh=None,
        log_commands: bool = False,
    ) -> None:
        super().__init__(dram, num_domains, log_commands)
        if not 0 <= write_queue_low < write_queue_high:
            raise ValueError("need 0 <= low watermark < high watermark")
        self.write_queue_high = write_queue_high
        self.write_queue_low = write_queue_low
        nch = dram.num_channels
        self._reads: List[List[Request]] = [[] for _ in range(nch)]
        self._writes: List[List[Request]] = [[] for _ in range(nch)]
        self._draining: List[bool] = [False] * nch
        self._idle_hint: List[int] = [0] * nch
        #: Transactions in the read and write queues, kept by
        #: :meth:`enqueue` and :meth:`_issue_candidate`.
        self._queued = 0
        #: Request ids we issued an ACTIVATE for (row-hit accounting).
        self._activated: set = set()
        self.refresh = refresh
        self.stat_refreshes = 0
        if refresh is not None and refresh.enabled:
            ranks = len(dram.channels[0].ranks)
            self._next_ref = {
                (ch, rk): refresh.next_refresh(rk, 0)
                for ch in range(nch) for rk in range(ranks)
            }

    # ------------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        ch = request.address.channel
        if request.is_read:
            # Forward from a queued write to the same line, as a real
            # transaction queue would.
            for w in self._writes[ch]:
                a, b = w.address, request.address
                if (a.channel, a.rank, a.bank, a.row, a.column) == (
                    b.channel, b.rank, b.bank, b.row, b.column
                ):
                    request.row_hit = True
                    self._schedule_release(request, request.arrival + 1)
                    self.stats.record_service(request)
                    return
            self._reads[ch].append(request)
        else:
            self._writes[ch].append(request)
        self._queued += 1
        self._idle_hint[ch] = 0

    def pending(self, domain: Optional[int] = None) -> int:
        if domain is None:
            return self._queued
        count = 0
        for queue in self._reads + self._writes:
            for request in queue:
                if request.domain == domain:
                    count += 1
        return count

    def write_queue_full(self, channel: int = 0) -> bool:
        """Hard write-queue limit for one channel."""
        return len(self._writes[channel]) >= 2 * self.write_queue_high

    #: Per-channel read transaction-queue capacity (back-pressure bound).
    READ_QUEUE_CAPACITY = 64

    def can_accept(self, domain: int) -> bool:
        """Back-pressure when any channel's queues are at capacity (a
        domain's requests may target any channel)."""
        del domain
        return all(
            len(self._reads[ch]) < self.READ_QUEUE_CAPACITY
            and not self.write_queue_full(ch)
            for ch in range(self.dram.num_channels)
        )

    def next_event(self) -> Optional[int]:
        upcoming: List[int] = []
        for ch in range(self.dram.num_channels):
            if self._reads[ch] or self._writes[ch]:
                hint = max(self._idle_hint[ch], self.now + 1)
                upcoming.append(hint)
        if self._release_heap:
            upcoming.append(max(self.now + 1, self._release_heap[0][0]))
        return min(upcoming) if upcoming else None

    # ------------------------------------------------------------------

    def _work(self, until: int) -> None:
        for ch in range(self.dram.num_channels):
            self._work_channel(ch, until)
            self.dram.channels[ch].prune(self.now)

    def _work_channel(self, ch: int, until: int) -> None:
        while True:
            if self.refresh is not None and self.refresh.enabled:
                self._service_refreshes(ch, until)
            candidate = self._best_candidate(ch, until)
            if candidate is None:
                return
            if candidate.issue_at > until:
                self._idle_hint[ch] = candidate.issue_at
                return
            self._issue_candidate(ch, candidate)

    def _service_refreshes(self, ch: int, until: int) -> None:
        """Demand-based refresh: once a rank's window opens, close its
        banks and issue REF before any further work on that rank."""
        channel = self.dram.channels[ch]
        for rank_id in range(len(channel.ranks)):
            window = self._next_ref[(ch, rank_id)]
            while window.start <= until:
                rank = channel.ranks[rank_id]
                cursor = max(self.now, window.start)
                for bank_id, bank in enumerate(rank.banks):
                    if bank.is_open:
                        pre_at = channel.earliest_precharge(
                            cursor, rank_id, bank_id
                        )
                        self._issue(Command(
                            CommandType.PRECHARGE, pre_at, ch, rank_id,
                            bank_id,
                        ))
                        cursor = pre_at + 1
                ref_at = rank.earliest_refresh(cursor)
                ref_at = channel.next_free_cmd_cycle(ref_at)
                self._issue(Command(
                    CommandType.REFRESH, ref_at, ch, rank_id
                ))
                self.stat_refreshes += 1
                window = self.refresh.next_refresh(
                    rank_id, window.start + 1
                )
                self._next_ref[(ch, rank_id)] = window

    # ------------------------------------------------------------------

    def _update_drain(self, ch: int) -> None:
        """Write-drain hysteresis (a pure function of queue occupancy,
        so scheduling stays independent of when it is evaluated)."""
        occupancy = len(self._writes[ch])
        if self._draining[ch] and occupancy <= self.write_queue_low:
            self._draining[ch] = False
        elif not self._draining[ch] and occupancy >= self.write_queue_high:
            self._draining[ch] = True

    def _best_candidate(self, ch: int, until: int) -> Optional[_Candidate]:
        """Best next command across both queues.

        Reads have priority at equal issue time, but a *ready* write is
        never held back behind a read that cannot issue yet — that is
        what a cycle-accurate read-priority scheduler does, and it keeps
        issue times a pure function of controller state.
        """
        self._update_drain(ch)
        best_read = None
        if not self._draining[ch]:
            best_read = self._best_from_queue(ch, self._reads[ch])
        best_write = self._best_from_queue(ch, self._writes[ch])
        if best_read is None:
            return best_write
        if best_write is None:
            return best_read
        # Read priority on ties; otherwise strictly earlier wins.
        if best_write.issue_at < best_read.issue_at:
            return best_write
        return best_read

    def _best_from_queue(
        self, ch: int, queue: List[Request]
    ) -> Optional[_Candidate]:
        if not queue:
            return None
        channel = self.dram.channels[ch]
        per_bank: Dict[Tuple[int, int], List[Request]] = {}
        for request in queue:
            key = (request.address.rank, request.address.bank)
            per_bank.setdefault(key, []).append(request)
        best: Optional[_Candidate] = None
        for (rank, bank_id), requests in per_bank.items():
            request = self._pick_for_bank(channel, rank, bank_id, requests)
            candidate = self._next_command(ch, request)
            if best is None or candidate.sort_key() < best.sort_key():
                best = candidate
        return best

    def _pick_for_bank(
        self, channel, rank: int, bank_id: int, requests: List[Request]
    ) -> Request:
        """FR-FCFS within a bank: first row hit wins, unless the head is
        starving (measured against the bank's next usable cycle, not the
        wall clock, so the decision is evaluation-time independent)."""
        head = requests[0]
        bank = channel.bank(rank, bank_id)
        if bank.is_open:
            earliest = bank.next_column
            if earliest - head.arrival > self.STARVATION_LIMIT:
                return head
            for request in requests[: self.ROW_HIT_SCAN]:
                if bank.is_row_hit(request.address.row):
                    return request
        return head

    def _next_command(self, ch: int, request: Request) -> _Candidate:
        channel = self.dram.channels[ch]
        addr = request.address
        open_row = channel.ranks[addr.rank].banks[addr.bank].open_row
        arrival = request.arrival
        lower = self.now if self.now > arrival else arrival
        if open_row is None:
            t = channel.earliest_activate(lower, addr.rank, addr.bank)
            return _Candidate(t, False, arrival, _ACTIVATE, request)
        if open_row == addr.row:
            is_read = request.is_read
            t = channel.earliest_column(
                lower, addr.rank, addr.bank, is_read
            )
            return _Candidate(
                t, True, arrival, _COL_READ if is_read else _COL_WRITE,
                request,
            )
        t = channel.earliest_precharge(lower, addr.rank, addr.bank)
        return _Candidate(t, False, arrival, _PRECHARGE, request)

    def _issue_candidate(self, ch: int, candidate: _Candidate) -> None:
        request = candidate.request
        addr = request.address
        cycle = candidate.issue_at
        data_start = self._issue(Command(
            candidate.type, cycle, ch, addr.rank, addr.bank, addr.row,
            request.req_id, request.domain,
        ))
        if not candidate.is_column:
            if candidate.type is _ACTIVATE:
                # The transaction that forced the activate is a row miss.
                request.row_hit = False
                self._activated.add(request.req_id)
            return
        assert data_start is not None
        request.issue = cycle
        request.data_start = data_start
        request.completion = data_start + self.params.tBURST
        request.row_hit = request.req_id not in self._activated
        self._activated.discard(request.req_id)
        queue = self._reads[ch] if request.is_read else self._writes[ch]
        queue.remove(request)
        self._queued -= 1
        self.stats.record_service(request)
        self._trace(request.domain, cycle, "R" if request.is_read else "W")
        if request.is_read:
            self._schedule_release(request, request.completion)
