"""A DRAM channel: shared command bus, shared data bus, and its ranks.

The channel is the arbitration point the paper's pipelines are built
around: one command per cycle on the command bus, one burst at a time on
the data bus with a ``tRTRS`` bubble between transfers from different
ranks.  The channel exposes *earliest-issue* queries (pure) and a single
:meth:`Channel.issue` mutation that validates every constraint before
applying, so an illegal schedule can never be silently accepted.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop
from typing import List, Optional, Set, Tuple

from .bank import TimingViolation
from .commands import Command
from .rank import Rank
from .timing import TimingParams


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
        #: Outstanding/past data-bus bursts as ``(start, rank)`` pairs,
        #: sorted by start.  Every burst lasts ``tBURST``, so start order
        #: is also end order.
        self._data: List[Tuple[int, int]] = []
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

    # ------------------------------------------------------------------
    # Data bus.
    # ------------------------------------------------------------------

    def data_conflict(self, start: int, rank: int) -> bool:
        """Would a burst [start, start+tBURST) by ``rank`` conflict?"""
        return self.earliest_data_start(start, rank) != start

    def earliest_data_start(self, lower: int, rank: int) -> int:
        """Smallest burst start >= ``lower`` with no data-bus conflict.

        One forward pass over the bursts is exact.  Reserved bursts are
        pairwise legal, so moving the start past a burst ``b`` (to its
        end plus its gap) never lands in the conflict window of an
        earlier burst ``a``: that needs ``a``'s gap to exceed ``b``'s by
        more than ``b.start - a.start``, so ``a`` of another rank than
        the query and ``b`` of the query's rank; but then ``a`` and
        ``b`` are of different ranks and start at least
        ``tBURST + tRTRS`` apart.
        """
        p = self.params
        burst = p.tBURST
        rtrs = p.tRTRS
        data = self._data
        if not data or lower >= data[-1][0] + burst + rtrs:
            return lower
        start = lower
        # Bursts starting at or before lower - tBURST - tRTRS cannot
        # conflict with any start >= lower.
        first = bisect_left(data, (lower - burst - rtrs + 1,))
        for res_start, res_rank in data[first:]:
            if res_start >= start + burst + rtrs:
                break
            gap = 0 if res_rank == rank else rtrs
            if start < res_start + burst + gap and \
                    res_start < start + burst + gap:
                start = res_start + burst + gap
        return start

    def _reserve_data(self, start: int, rank: int) -> None:
        if self.data_conflict(start, rank):
            raise TimingViolation(f"data bus conflict at cycle {start}")
        insort(self._data, (start, rank))
        self.stat_data_cycles += self.params.tBURST

    def prune(self, before: int) -> None:
        """Drop bookkeeping that can no longer affect scheduling."""
        data = self._data
        if data:
            # A burst stops mattering once its end plus the widest
            # separation (tRTRS + tBURST) lies at or before ``before``.
            p = self.params
            keep_from = before - 2 * p.tBURST - p.tRTRS + 1
            if data[0][0] < keep_from:
                del data[:bisect_left(data, (keep_from,))]
        if before > self._cmd_bus_horizon + 4096:
            self._cmd_bus = {c for c in self._cmd_bus if c >= before}
            self._cmd_bus_horizon = before

    def align_column(self, t: int, rank: int, is_read: bool) -> int:
        """Earliest cycle >= ``t`` at which a column command of ``rank``
        finds the command bus free and its burst fits the data bus.

        The one bus fit behind :meth:`earliest_column`,
        :meth:`earliest_column_after_planned_act` and the FR-FCFS fast
        path's candidate re-alignment.
        """
        p = self.params
        offset = p.tCAS if is_read else p.tCWD
        while True:
            t = self.next_free_cmd_cycle(t)
            data_start = self.earliest_data_start(t + offset, rank)
            if data_start == t + offset:
                return t
            # Align the column command with the available data slot.
            t = data_start - offset

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
        return self.align_column(
            self.ranks[rank].earliest_column(now, bank, is_read),
            rank, is_read,
        )

    def earliest_column_after_planned_act(
        self, act_at: int, rank: int, is_read: bool
    ) -> int:
        """Earliest column cycle for a transaction whose ACTIVATE will
        issue at ``act_at`` but has not been applied yet."""
        return self.align_column(
            self.ranks[rank].earliest_column_rank_level(
                act_at + self.params.tRCD, is_read
            ),
            rank, is_read,
        )

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
        cycle = cmd.cycle
        ctype = cmd.type
        cmd_bus = self._cmd_bus
        if cycle in cmd_bus:
            raise TimingViolation(f"command bus conflict at cycle {cycle}")
        cmd_bus.add(cycle)
        data_start: Optional[int] = None
        if ctype.is_column:
            p = self.params
            data_start = cycle + (p.tCAS if ctype.is_read else p.tCWD)
            self._reserve_data(data_start, cmd.rank)
        self.ranks[cmd.rank].apply(cmd)
        self.stat_commands += 1
        if cycle > self.stat_last_activity:
            self.stat_last_activity = cycle
        return data_start

    def issue_trusted(self, cmd: Command) -> Optional[int]:
        """Apply ``cmd`` without validation or bus bookkeeping.

        For pre-validated fixed schedules only, when something watches
        the individual commands: ``MemoryController._issue`` routes here
        when the controller's ``trusted_issue`` flag is set and a command
        log, online monitor or telemetry session is attached.  An FS
        controller that nothing observes records its transactions
        instead and has :meth:`settle_trusted` fold them in closed form.
        The pipeline solver already proved the command stream free of
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

    def settle_trusted(
        self,
        ledger: List[Tuple[int, int, int, object]],
        until: int,
        final: bool = False,
    ) -> None:
        """Fold the records of a trusted FS stream that ``until`` passed.

        The closed form of :meth:`issue_trusted` for a stream nobody
        observes command by command.  ``ledger`` is a heap of records
        ``(start, done, rank, kind)``:

        * a transaction is ``(ACT cycle, column cycle, rank, is_read)``,
          its column an auto-precharging read or write;
        * a REF, PDN or PUP is ``(cycle, cycle, rank, command type)``.

        Records whose last command is at or before ``until`` are
        popped in start order and folded into the ranks' counters (see
        :meth:`Rank.settle_span`) and the channel's ``stat_*``; the rest
        stay for a later call.  With ``final`` (``until`` is the run's
        last cycle) the rest are settled too: a transaction whose ACT
        issued but whose column lies past ``until`` counts its ACT only,
        and anything starting after ``until`` never issued.  The
        counters then equal what :meth:`issue_trusted` of every command
        at or before ``until`` would have left.

        Every FS transaction's ACT-to-column gap is ``tRCD``, so spans
        end in the order they start: a record is never folded ahead of
        an earlier-starting one of its rank.
        """
        ranks = self.ranks
        trcd = self.params.tRCD
        commands = columns = 0
        last = self.stat_last_activity
        while ledger:
            start, done, rank, kind = ledger[0]
            if done > until:
                if not final:
                    break
                if start > until:
                    ledger.clear()
                    break
            heappop(ledger)
            if done == start:
                ranks[rank].settle_command(kind, start)
                commands += 1
            else:
                assert done - start == trcd, "FS spans must be tRCD long"
                if done > until:
                    ranks[rank].settle_span(start, None, kind)
                    commands += 1
                    done = start
                else:
                    ranks[rank].settle_span(start, done, kind)
                    commands += 2
                    columns += 1
            if done > last:
                last = done
        self.stat_commands += commands
        self.stat_data_cycles += columns * self.params.tBURST
        self.stat_last_activity = last

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
