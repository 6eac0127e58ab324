"""Host-time tracing of the simulator's layers, from outside.

:class:`LayerTracer` wraps the public functions and methods each layer
exposes — module attributes, class attributes, or the attributes of one
built object — with a timing shim, and restores them afterwards.
Nothing in the program is edited: the shims are set and removed by the
benchmark.

Each wrapped call is a span with a name, start, end, parent span and
the id of the benchmark operation it belongs to.  A span's *self time*
is its duration minus the durations of the wrapped calls made inside
it, so self times never overlap and add up to at most the wall time of
the traced code.  Spans stay in memory (up to ``max_spans``; past that
only the per-layer sums are kept) and are written as Chrome trace-event
JSON when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_perf_ns = time.perf_counter_ns

#: Timing queries of a DRAM channel (Channel.earliest_*, bus checks).
DRAM_QUERIES = (
    "earliest_activate", "earliest_column",
    "earliest_column_after_planned_act", "earliest_precharge",
    "earliest_data_start", "cmd_bus_free", "data_conflict",
)

#: Estimators as the certification harness resolves them.
ESTIMATORS = (
    "canonicalize_by_trial", "corrected_mi_bits",
    "bootstrap_upper_bound", "binary_channel_capacity",
)


class LayerTracer:
    """Per-layer self time, inclusive time, call counts and spans."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        #: key -> summed self time / inclusive time, in ns.
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form counts gathered at the same boundaries.
        self.counts: Dict[str, float] = defaultdict(float)
        #: (id, parent id, op id, name, start ns, end ns).
        self.spans: List[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self._next_id = 0
        #: Open spans, innermost last (see :meth:`_open`).
        self._stack: List[list] = []
        self._undo: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def wrap(self, key: str, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one span per call under layer ``key``.

        ``before(args)`` runs ahead of the span; ``after(result, args)``
        runs inside it, so its own cost is charged to ``key``.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = tracer._open()
            start = _perf_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                tracer._close(key, name, frame, start, _perf_ns())

        return traced

    @contextmanager
    def op(self, op_id: int, name: str):
        """A root span around one benchmark operation."""
        self.op_id = op_id
        frame = self._open()
        start = _perf_ns()
        try:
            yield
        finally:
            self._close("bench.op", name, frame, start, _perf_ns())

    def _open(self) -> list:
        """Push a span: [id, parent id, ns spent in wrapped children]."""
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, parent, 0]
        self._stack.append(frame)
        return frame

    def _close(self, key: str, name: str, frame: list, start: int,
               end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_ns[key] += duration - frame[2]
        self.total_ns[key] += duration
        self.calls[key] += 1
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (frame[0], frame[1], self.op_id, name, start, end)
            )
        else:
            self.dropped += 1

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, key: str, before=None, after=None,
              restore: bool = True) -> None:
        """Replace ``owner.attr`` by its traced version.

        Module and class attributes are restored by :meth:`restore`;
        attributes of a single built object (``restore=False``) go away
        with the object.
        """
        original = getattr(owner, attr)
        label = getattr(owner, "__name__", None) or type(owner).__name__
        setattr(owner, attr, self.wrap(
            key, f"{label}.{attr}", original, before, after
        ))
        if restore:
            self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- layers ---------------------------------------------------------

    def trace_exec(self, serial: bool) -> None:
        """Batch fan-out and checkpointing.  ``run_job`` is wrapped only
        for in-process (serial) batches: a pool pickles the function it
        submits, and a shim is not picklable."""
        from repro.certify import harness
        from repro.exec import CheckpointStore
        from repro.exec import runner as exec_runner

        self.patch(harness, "run_jobs", "exec.batch")
        self.patch(CheckpointStore, "save", "exec.checkpoint")
        self.patch(CheckpointStore, "load", "exec.checkpoint")
        if serial:
            self.patch(exec_runner, "run_job", "exec.job")

    def trace_layers(self) -> None:
        """Every simulator layer: trace synthesis, system build (which
        instruments each built system), estimators and world runs."""
        from repro.analysis import leakage
        from repro.certify import harness
        from repro.sim import runner

        def count_trace(trace, _args):
            self.counts["workloads.trace_ops"] += len(trace)

        def instrument(system, _args):
            self.instrument_system(system)

        self.patch(runner, "generate_trace", "workloads.trace",
                   after=count_trace)
        self.patch(runner, "build_system", "schemes.build",
                   after=instrument)
        self.patch(leakage, "build_system", "schemes.build",
                   after=instrument)
        self.patch(harness, "victim_view", "certify.world")
        for name in ESTIMATORS:
            self.patch(harness, name, "certify.estimators")

    def instrument_system(self, system) -> None:
        """Wrap the methods of one built system's parts."""
        from repro.core.fs_controller import FixedServiceController
        from repro.core.fs_reordered import ReorderedBpController

        controller = system.controller
        fixed = isinstance(
            controller, (FixedServiceController, ReorderedBpController)
        )
        layer = "core" if fixed else "controllers"
        counts = self.counts

        def finished(result, _args):
            stats = result.stats
            counts["sim.accesses"] += stats.demand_reads + stats.demand_writes
            if fixed:
                counts["core.demand_slots"] += (
                    stats.demand_reads + stats.demand_writes
                )
                counts["core.slots"] += stats.serviced

        def sample_pending(_args):
            counts["controllers.pending_sum"] += controller.pending()

        def emitted(request, _args):
            if request is not None:
                counts["cpu.emits"] += 1

        self.patch(system, "run", "sim.driver", after=finished,
                   restore=False)
        self.patch(controller, "advance", f"{layer}.advance",
                   before=None if fixed else sample_pending,
                   restore=False)
        self.patch(controller, "enqueue", f"{layer}.enqueue",
                   restore=False)
        self.patch(controller, "next_event",
                   "core.horizon" if fixed else "controllers.next_event",
                   restore=False)
        if hasattr(controller, "release_horizon"):
            self.patch(controller, "release_horizon", f"{layer}.horizon",
                       restore=False)
        for channel in controller.dram.channels:
            self.patch(channel, "issue", "dram.issue", restore=False)
            self.patch(channel, "issue_trusted", "dram.issue_trusted",
                       restore=False)
            for name in DRAM_QUERIES:
                self.patch(channel, name, "dram.timing_query",
                           restore=False)
        for core in system.cores:
            self.patch(core, "try_emit", "cpu.emit", after=emitted,
                       restore=False)
            self.patch(core, "on_complete", "cpu.complete",
                       restore=False)
        self.patch(system.partition, "decode", "mapping.decode",
                   restore=False)
        self.patch(system.power_model, "system_energy", "power.energy",
                   restore=False)

    # -- reporting ------------------------------------------------------

    def self_s(self, *keys: str) -> float:
        return sum(self.self_ns.get(k, 0) for k in keys) / 1e9

    def total_s(self, *keys: str) -> float:
        return sum(self.total_ns.get(k, 0) for k in keys) / 1e9

    def n(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def table(self, title: str) -> str:
        """Per-layer self time, share and calls, largest first."""
        total = sum(self.self_ns.values()) or 1
        lines = [
            f"{title}: self time by layer",
            f"  {'layer':24s} {'self_s':>10s} {'share':>7s} {'calls':>10s}",
        ]
        for key in sorted(self.self_ns, key=self.self_ns.get,
                          reverse=True):
            ns = self.self_ns[key]
            lines.append(
                f"  {key:24s} {ns / 1e9:10.4f} {100.0 * ns / total:6.1f}%"
                f" {self.calls[key]:10d}"
            )
        return "\n".join(lines)


def write_chrome_trace(path: str, passes: Dict[str, LayerTracer],
                       metadata: Dict[str, object]) -> int:
    """Write every pass's spans as Chrome trace events (one process per
    pass, timestamps in microseconds from the earliest span)."""
    events: List[dict] = []
    origin = min(
        (s[4] for t in passes.values() for s in t.spans), default=0
    )
    for pid, (label, tracer) in enumerate(passes.items()):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label, "dropped_spans": tracer.dropped},
        })
        for span_id, parent, op_id, name, start, end in tracer.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent, "op": op_id},
            })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "metadata": metadata}, handle)
    return len(events)
