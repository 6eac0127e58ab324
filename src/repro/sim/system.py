"""System simulation: cores <-> memory controller <-> DRAM.

:class:`System` owns a set of trace-driven cores, a partition policy (the
OS page-coloring component) and one memory controller, and advances them
together in event order:

1. each core exposes at most one *undelivered* next request (requests are
   emitted lazily, so memory use is bounded);
2. the clock jumps to the earlier of the next request arrival and the
   controller's next internal event;
3. due requests are delivered, the controller advances, and completions
   are pushed back into their cores, potentially unblocking new requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..controllers.base import MemoryController
from ..errors import SimTimeoutError
from ..cpu.core_model import Core
from ..dram.commands import Request, RequestKind
from ..dram.power import EnergyBreakdown, PowerModel
from ..mapping.partition import PartitionPolicy


@dataclass
class CoreResult:
    """Per-core outcome of a run."""

    domain: int
    workload: str
    instructions: int
    reads_completed: int
    ipc: float
    done: bool
    profile: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class RunResult:
    """Everything a benchmark needs from one simulation."""

    scheme: str
    cycles: int
    cores: List[CoreResult]
    stats: object  # ControllerStats
    bus_utilization: float
    energy: EnergyBreakdown
    service_trace: Dict[int, List[Tuple[int, str]]]
    #: FS accounting-only energy adjustments, when the controller has any.
    adjustments: object = None
    #: Fault strikes by kind name (None when no injector was armed);
    #: seed-deterministic, so identical across engines.
    faults: Optional[Dict[str, int]] = None

    @property
    def total_reads(self) -> int:
        return sum(c.reads_completed for c in self.cores)

    @property
    def ipcs(self) -> List[float]:
        return [c.ipc for c in self.cores]

    def weighted_ipc(self, baseline: "RunResult") -> float:
        """Sum of per-core IPCs normalized to a baseline run."""
        total = 0.0
        for mine, theirs in zip(self.cores, baseline.cores):
            if theirs.ipc > 0:
                total += mine.ipc / theirs.ipc
        return total


def drain(steps: Generator[int, None, int]) -> int:
    """Run a stepped loop (see :meth:`System.steps`) to its end and
    return its final clock."""
    while True:
        try:
            next(steps)
        except StopIteration as end:
            return end.value


class System:
    """One platform instance ready to run."""

    #: Engine label stamped on run spans (overridden by the fast driver).
    engine_name = "reference"

    def __init__(
        self,
        controller: MemoryController,
        partition: PartitionPolicy,
        cores: Sequence[Core],
        power_model: Optional[PowerModel] = None,
        scheme: str = "unnamed",
    ) -> None:
        if len(cores) != controller.num_domains:
            raise ValueError("one core per security domain required")
        self.controller = controller
        self.partition = partition
        self.cores = list(cores)
        self.scheme = scheme
        self.power_model = power_model or PowerModel(
            controller.params
        )
        #: Optional :class:`~repro.telemetry.spans.SpanTracer` (set by
        #: ``build_system`` from ``SchemeOptions.tracer``).  The driver
        #: records each run's span slice and wall time into it; the
        #: controller never sees it, so a traced run takes the untraced
        #: code path.
        self.tracer = None
        self._staged: List[Optional[Request]] = [None] * len(self.cores)
        self._core_index: Dict[int, int] = {
            id(core): i for i, core in enumerate(self.cores)
        }

    # ------------------------------------------------------------------

    def _pump(self, index: int) -> None:
        """Refill the core's one-deep emission buffer if possible."""
        if self._staged[index] is not None:
            return
        request = self.cores[index].try_emit()
        if request is None:
            return
        request.address = self.partition.decode(
            request.domain, request.line
        )
        self._staged[index] = request

    def run(
        self,
        max_cycles: int = 10_000_000,
        target_reads: Optional[int] = None,
        wall_budget_s: Optional[float] = None,
        *,
        lockstep: bool = False,
        victim: Optional[int] = None,
    ) -> RunResult:
        """Simulate until every core finishes (or a bound is hit).

        ``wall_budget_s`` arms a wall-clock budget for the run; when it
        is exceeded a :class:`~repro.errors.SimTimeoutError` is raised so
        a sweep can record the cell as failed and keep going instead of
        hanging the whole grid on one pathological point.

        ``lockstep`` asks for one loop that advances every domain in
        global time order.  This loop always does; the fast driver may
        otherwise run an unobserved Fixed Service system one domain at a
        time (see :class:`repro.sim.fastpath.FastSystem`).

        ``victim`` names the one core whose view the caller reads: the
        run also ends at the first stop where core ``victim`` is done
        and the clock has reached its
        :meth:`~repro.cpu.core_model.Core.finish_mem_cycle`.  From
        there on nothing can move that core's completions, retirement
        checkpoints or IPC, so only core ``victim``'s ``CoreResult`` and
        completions are the full run's; the cycle count, the other
        cores' results, the stats and the energy are the shorter run's.
        An index outside the cores raises ``ValueError``.

        The run drains the loop that :meth:`steps` pauses (it never
        pauses here) and ends with :meth:`finish`.
        """
        del lockstep  # always lockstep
        started = time.monotonic()
        deadline = (
            started + wall_budget_s if wall_budget_s is not None else None
        )
        clock = drain(self._loop(max_cycles, target_reads, deadline,
                                 wall_budget_s, victim))
        return self.finish(clock, started)

    def steps(self, max_cycles: int = 10_000_000, *,
              victim: int) -> Generator[int, None, int]:
        """The lockstep loop of :meth:`run`, paused at each of core
        ``victim``'s read releases.

        Each ``next()`` runs the loop to core ``victim``'s next
        release and yields its cycle.  The loop pauses right after the
        core's ``on_complete`` for that read, before the core is pumped
        again; the generator returns the final clock (``StopIteration``
        carries it) when the run ends as :meth:`run` would end it.  A
        paused run may be dropped: :meth:`finish` at the last yielded
        cycle ends it there, with the cycle count, the run span and
        every core's result taken at that cycle, and the stats and the
        energy those of the controller as it stood, which may have
        worked past it.  Both engines pause at the same releases, with
        every core in the same state.
        """
        return self._loop(max_cycles, None, None, None, victim)

    def finish(self, clock: int, started: float) -> RunResult:
        """End a run at ``clock``: settle the controller, record the
        run span (when a tracer is set) and collect the result.

        The one finish step of :meth:`run` and of a run stepped through
        :meth:`steps`.  ``started`` is the ``time.monotonic()`` at which
        the run began; it sets only the span's volatile wall time.
        """
        self.controller.finalize()
        if self.tracer is not None:
            self.tracer.record_engine_run(
                self.scheme, self.engine_name, clock,
                wall_seconds=time.monotonic() - started,
            )
        return self._collect(clock)

    def _loop(self, max_cycles: int, target_reads: Optional[int],
              deadline: Optional[float], wall_budget_s: Optional[float],
              victim: Optional[int]) -> Generator[int, None, int]:
        """The reference lockstep loop (see :meth:`run` and
        :meth:`steps`); yields core ``victim``'s release cycles and
        returns the final clock."""
        victim_core = self._victim_core(victim)
        controller = self.controller
        clock = 0
        reads_done = 0
        iterations = 0
        for i in range(len(self.cores)):
            self._pump(i)
        while True:
            if deadline is not None and iterations % 256 == 0 and (
                time.monotonic() > deadline
            ):
                raise self._timed_out(wall_budget_s, clock)
            iterations += 1
            if all(core.done for core in self.cores):
                break
            if target_reads is not None and reads_done >= target_reads:
                break
            if clock >= max_cycles:
                break
            if victim_core is not None and victim_core.done and (
                clock >= victim_core.finish_mem_cycle()
            ):
                break
            arrivals = [
                r.arrival for r in self._staged if r is not None
            ]
            ctrl_next = controller.next_event()
            candidates = list(arrivals)
            if ctrl_next is not None:
                candidates.append(ctrl_next)
            if not candidates:
                break  # deadlock guard: nothing can ever happen again
            clock = max(clock + 1, min(candidates))
            clock = min(clock, max_cycles)
            delivered = True
            while delivered:
                delivered = False
                for i, request in enumerate(self._staged):
                    if request is None or request.arrival > clock:
                        continue
                    if not controller.can_accept(request.domain):
                        continue  # back-pressure: core stalls here
                    controller.enqueue(request)
                    self._staged[i] = None
                    self._pump(i)
                    delivered = True
            for request in controller.advance(clock):
                if request.kind is not RequestKind.DEMAND:
                    continue
                core = request.core_tag
                if isinstance(core, Core):
                    core.on_complete(request, request.release)
                    reads_done += 1
                    if core is victim_core:
                        yield request.release
                    self._pump(self._core_index[id(core)])
        return clock

    # ------------------------------------------------------------------

    def _victim_core(self, victim: Optional[int]) -> Optional[Core]:
        """The core ``run(victim=...)`` names, checked (None for None)."""
        if victim is None:
            return None
        if not 0 <= victim < len(self.cores):
            raise ValueError(
                f"victim {victim} is not a core index "
                f"(0..{len(self.cores) - 1})"
            )
        return self.cores[victim]

    def _timed_out(self, wall_budget_s: float,
                   clock: int) -> SimTimeoutError:
        return SimTimeoutError(
            f"wall-clock budget of {wall_budget_s}s exceeded "
            f"at cycle {clock} (scheme {self.scheme})",
            cycle=clock,
        )

    def _collect(self, clock: int) -> RunResult:
        core_results = []
        for core in self.cores:
            core_results.append(CoreResult(
                domain=core.domain,
                workload=core.trace.name,
                instructions=core.retired_instructions(clock),
                reads_completed=core.stat_reads_completed,
                ipc=core.ipc(clock),
                done=core.done,
                profile=core.completion_profile(),
            ))
        energy = self.power_model.system_energy(self.controller.dram)
        injector = getattr(self.controller, "fault_injector", None)
        faults = (
            injector.counts_by_name() if injector is not None else None
        )
        return RunResult(
            scheme=self.scheme,
            cycles=clock,
            cores=core_results,
            stats=self.controller.stats,
            bus_utilization=self.controller.dram.bus_utilization(clock),
            energy=energy,
            service_trace=self.controller.service_trace,
            adjustments=getattr(self.controller, "adjustments", None),
            faults=faults,
        )
