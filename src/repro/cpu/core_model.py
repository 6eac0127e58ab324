"""Event-driven out-of-order core model (USIMM-style).

Models exactly the coupling the evaluation metric depends on: a ``W``-wide
core with an ``R``-entry reorder buffer fetches instructions in order;
non-memory instructions complete immediately; a read occupies its ROB slot
until the memory system returns it (blocking retirement, and eventually
fetch, behind it); writes are posted.  Everything is computed analytically
per memory operation — no per-instruction or per-cycle stepping — so the
model is exact under its own rules and fast.

Time is kept in *ticks*: one tick is one issue slot, i.e. ``1 / W`` of a
CPU cycle.  With the paper's 4-wide cores at four CPU cycles per DRAM
cycle, one DRAM cycle is 16 ticks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, Tuple

from ..dram.commands import OpType, Request, RequestKind
from ..dram.timing import ClockDomain
from .trace import Trace, TraceRecord


@dataclass(frozen=True)
class CoreParams:
    """Microarchitectural knobs (paper Table 1 defaults)."""

    rob_size: int = 64
    width: int = 4
    cpu_per_mem_cycle: int = 4

    def __post_init__(self) -> None:
        if self.rob_size < 1 or self.width < 1 or self.cpu_per_mem_cycle < 1:
            raise ValueError("core parameters must be positive")

    @property
    def ticks_per_mem_cycle(self) -> int:
        return self.width * self.cpu_per_mem_cycle


@dataclass
class _PendingRead:
    instr_index: int
    request: Request
    completion_tick: Optional[int] = None
    retire_tick: Optional[int] = None


class Core:
    """One trace-driven core attached to a memory-controller domain."""

    def __init__(
        self,
        domain: int,
        trace: Trace,
        params: CoreParams = CoreParams(),
    ) -> None:
        self.domain = domain
        self.trace = trace
        self.params = params
        self._iter: Iterator[TraceRecord] = iter(trace)
        self._peeked: Optional[TraceRecord] = None
        #: Instruction index of the *next* instruction to fetch.
        self._fetch_index = 0
        #: Tick at which that instruction can fetch (free-running bound).
        self._fetch_tick = 0
        #: Reads in flight or not yet retired, oldest first.
        self._reads: Deque[_PendingRead] = deque()
        #: Retire tick of the most recently retired read, plus its index.
        self._last_retired_read: Tuple[int, int] = (-1, 0)  # (index, tick)
        #: (tick, instructions retired by then) checkpoints for profiles.
        self._checkpoints: List[Tuple[int, int]] = [(0, 0)]
        #: Completion tick of the most recent read (retired or not),
        #: for dependent-load gating.
        self._last_read_completion: Optional[int] = 0
        self._trace_done = False
        self.stat_reads_completed = 0
        self.stat_writes_issued = 0

    # ------------------------------------------------------------------
    # Trace plumbing.
    # ------------------------------------------------------------------

    def _peek(self) -> Optional[TraceRecord]:
        if self._peeked is None:
            try:
                self._peeked = next(self._iter)
            except StopIteration:
                self._trace_done = True
                return None
        return self._peeked

    def _pop(self) -> TraceRecord:
        record = self._peek()
        assert record is not None
        self._peeked = None
        return record

    # ------------------------------------------------------------------
    # Retirement bookkeeping.
    # ------------------------------------------------------------------

    def _retire_bound(self, instr_index: int) -> Optional[int]:
        """Earliest tick instruction ``instr_index`` can have retired.

        Returns None when the answer depends on a read that has not
        completed yet (the core must block).
        """
        # Retire is gated by the last read at or before instr_index.
        gate_index, gate_tick = self._last_retired_read
        for pending in self._reads:
            if pending.instr_index > instr_index:
                break
            if pending.retire_tick is None:
                return None  # outstanding read blocks this instruction
            gate_index, gate_tick = (
                pending.instr_index, pending.retire_tick
            )
        return gate_tick + (instr_index - gate_index)

    def _commit_read_retirement(self, pending: _PendingRead) -> None:
        """Fix the retire tick of a completed read (in program order)."""
        assert pending.completion_tick is not None
        prev_index, prev_tick = self._last_retired_read
        pending.retire_tick = max(
            pending.completion_tick,
            prev_tick + (pending.instr_index - prev_index),
        )
        self._last_retired_read = (
            pending.instr_index, pending.retire_tick
        )
        self._checkpoints.append(
            (pending.retire_tick, pending.instr_index + 1)
        )

    # ------------------------------------------------------------------
    # Public interface.
    # ------------------------------------------------------------------

    def try_emit(self) -> Optional[Request]:
        """Produce the next memory request if its send time is decidable.

        Returns None when the trace is exhausted *or* the core is blocked
        on an outstanding read (ROB full, or a dependent load).  Call
        again after :meth:`on_complete`.
        """
        while True:
            record = self._peek()
            if record is None:
                return None
            mem_index = self._fetch_index + record.gap
            # ROB gating: instruction i needs instruction i - R retired.
            fetch_tick = self._fetch_tick + record.gap
            gate = mem_index - self.params.rob_size
            if gate >= 0:
                bound = self._retire_bound(gate)
                if bound is None:
                    return None  # blocked on memory
                fetch_tick = max(fetch_tick, bound)
            if record.depends_on_prev:
                if self._last_read_completion is None:
                    return None  # dependent load: wait for producer
                fetch_tick = max(fetch_tick, self._last_read_completion)

            self._pop()
            self._fetch_index = mem_index + 1
            self._fetch_tick = fetch_tick + 1
            arrival = self._to_mem_cycle(fetch_tick)
            request = Request(
                op=record.op,
                address=None,  # filled by the system via the partition
                domain=self.domain,
                kind=RequestKind.DEMAND,
                arrival=arrival,
                line=record.line,
                core_tag=self,
            )
            if record.op is OpType.READ:
                self._reads.append(_PendingRead(mem_index, request))
                self._last_read_completion = None  # unknown until return
            else:
                # Posted write: retires with the instruction stream.
                self.stat_writes_issued += 1
            return request

    def on_complete(self, request: Request, mem_cycle: int) -> None:
        """The memory system returned a read issued by this core."""
        tick = mem_cycle * self.params.ticks_per_mem_cycle
        for pending in self._reads:
            if pending.request is request:
                pending.completion_tick = tick
                break
        else:
            raise ValueError("completion for an unknown read")
        if pending is self._reads[-1]:
            self._last_read_completion = tick
        self.stat_reads_completed += 1
        # Retire in order from the front while completions are known.
        while self._reads and self._reads[0].completion_tick is not None:
            pending = self._reads.popleft()
            self._commit_read_retirement(pending)

    def drop_in_flight(self) -> None:
        """Unlink the reads still in flight from this core.

        An in-flight request points back to its core (``core_tag``)
        while the core holds it, a reference cycle.  A caller that
        drops a run before its reads return calls this once it has
        taken the run's results, so the core, its trace and its
        requests are freed by reference counting.  The core's own
        state is left as it stands; a dropped request's completion no
        longer reaches it.
        """
        for pending in self._reads:
            pending.request.core_tag = None

    @property
    def blocked(self) -> bool:
        """True if the next emit needs a completion first."""
        if self._peek() is None:
            return False
        return self.try_peek_blocked()

    def try_peek_blocked(self) -> bool:
        """Whether the next emission is gated on an outstanding read."""
        record = self._peek()
        if record is None:
            return False
        mem_index = self._fetch_index + record.gap
        gate = mem_index - self.params.rob_size
        if gate >= 0 and self._retire_bound(gate) is None:
            return True
        if record.depends_on_prev and self._last_read_completion is None:
            return True
        return False

    @property
    def done(self) -> bool:
        """Trace exhausted and every read returned."""
        return self._peek() is None and not self._reads

    # ------------------------------------------------------------------
    # Metrics.
    # ------------------------------------------------------------------

    def _to_mem_cycle(self, tick: int) -> int:
        per = self.params.ticks_per_mem_cycle
        return -(-tick // per)  # ceil

    def retired_instructions(self, mem_cycle: int) -> int:
        """Instructions retired by ``mem_cycle``.

        Between read-retirement checkpoints the core retires at full
        width (one instruction per tick), capped just below the next
        checkpoint — the next read is exactly what it is waiting for.
        """
        import bisect

        tick = mem_cycle * self.params.ticks_per_mem_cycle
        ticks = [t for t, _ in self._checkpoints]
        idx = bisect.bisect_right(ticks, tick) - 1
        if idx < 0:
            return 0
        t_i, n_i = self._checkpoints[idx]
        if idx + 1 < len(self._checkpoints):
            cap = self._checkpoints[idx + 1][1] - 1
        else:
            cap = self._fetch_index
        return min(cap, n_i + max(0, tick - t_i))

    def finish_mem_cycle(self) -> Optional[int]:
        """Mem cycle at which the core retired its last instruction, if
        it has finished its trace."""
        if not self.done:
            return None
        last_tick, last_instr = self._checkpoints[-1]
        trailing = self._fetch_index - last_instr
        tick = last_tick + max(0, trailing)
        return -(-tick // self.params.ticks_per_mem_cycle)

    def ipc(self, mem_cycle: int) -> float:
        """Retired instructions per CPU cycle.

        A finished core is measured over its *own* execution time, not
        the whole simulation — co-runners finishing later must not dilute
        (or inflate) its IPC.
        """
        finish = self.finish_mem_cycle()
        if finish is not None:
            mem_cycle = min(mem_cycle, finish) if mem_cycle > 0 else finish
        if mem_cycle <= 0:
            return 0.0
        cpu_cycles = mem_cycle * self.params.cpu_per_mem_cycle
        return self.retired_instructions(mem_cycle) / cpu_cycles

    def completion_profile(self, block: int = 10000) -> List[Tuple[int, int]]:
        """(instructions, mem cycle retired) milestones every ``block``
        instructions — the Figure 4 execution profile."""
        per = self.params.ticks_per_mem_cycle
        out: List[Tuple[int, int]] = []
        target = block
        for (t0, n0), (t1, n1) in zip(
            self._checkpoints, self._checkpoints[1:]
        ):
            while target <= n1:
                if target <= n0:
                    tick = t0
                elif target < n1:
                    # Free-running retirement after the checkpoint read.
                    tick = t0 + (target - n0)
                else:
                    tick = max(t1, t0 + (target - n0))
                out.append((target, -(-tick // per)))
                target += block
        return out
