"""Hierarchical, seed-deterministic span tracing (the Run Observatory).

A :class:`SpanTracer` records a tree of timed spans covering a whole
invocation — ``run → sweep cell / certify batch → engine phase →
controller epoch`` — cheaply enough to leave armed in production runs
and deterministically enough to diff byte-for-byte across worker
counts.  The design follows the telemetry layer's three rules:

* **inert when absent** — engines and executors hold a ``tracer`` that
  is ``None`` by default and guard every hook behind one ``is None``
  check; a run without spans allocates nothing;
* **passive when present** — spans observe clocks, they never feed back
  into any simulated observable;
* **deterministic** — span timestamps come from *deterministic clocks*
  only: simulated memory-controller cycles for engine-level spans, and
  a logical call-sequence counter for orchestration-level spans (grid
  cells, certification strategies) that have no simulated clock.  Wall
  time is welcome, but only inside ``args`` under keys prefixed
  ``wall_`` — the one namespace :func:`scrub_volatile_args` strips
  before byte-comparing traces.

Cross-process capture works exactly like the metrics-registry merge:
a worker builds its own tracer, ships the (picklable)
:class:`SpanRecord` list back in its result payload, and the parent
:meth:`~SpanTracer.adopt`\\ s the records in deterministic submission
order under a per-cell track name — so a ``--workers 4`` grid merges
into the same trace a serial grid writes, modulo ``wall_*`` values.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from ..errors import TelemetryError
from .collector import TraceEvent

#: Controller-epoch granularity, in memory-controller cycles.  A pure
#: function of the (engine-identical) final clock, so both engines emit
#: the same epoch spans for the same run.
EPOCH_CYCLES = 8192

#: The Chrome-trace process (pid track group) all spans export into.
SPAN_PID = "spans"

#: ``args`` keys with this prefix hold wall-clock-derived values; they
#: are exported but stripped by :func:`scrub_volatile_args` before any
#: byte-identity comparison.
VOLATILE_ARG_PREFIX = "wall_"


class SpanRecord(NamedTuple):
    """One completed span.  Plain data: pickles across spawn workers.

    ``track`` is the Chrome-trace thread name the span exports under;
    ``start``/``end`` are deterministic-clock values (cycles or logical
    ticks, depending on the span's origin); ``seq`` orders spans by
    begin time within a tracer and doubles as the parent handle.
    """

    track: str
    name: str
    category: str
    start: int
    end: int
    depth: int
    seq: int
    parent: int
    args: Optional[Dict[str, object]] = None

    def to_json_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "track": self.track, "name": self.name,
            "category": self.category, "start": self.start,
            "end": self.end, "depth": self.depth, "seq": self.seq,
            "parent": self.parent,
        }
        if self.args:
            out["args"] = self.args
        return out


class _OpenSpan:
    __slots__ = ("name", "category", "start", "seq", "parent", "depth",
                 "args")

    def __init__(self, name, category, start, seq, parent, depth, args):
        self.name = name
        self.category = category
        self.start = start
        self.seq = seq
        self.parent = parent
        self.depth = depth
        self.args = args


class SpanTracer:
    """Builds one process-local span tree.

    ``track`` names the tracer's Chrome-trace thread (orchestrators use
    a stable name like ``"grid"``; engine tracers keep the default and
    are re-tracked by :meth:`adopt` at merge time).  Begin/end pairs
    must nest; :meth:`span` enforces that with a context manager.
    """

    def __init__(self, track: str = "main") -> None:
        self.track = track
        self.records: List[SpanRecord] = []
        self._open: List[_OpenSpan] = []
        self._seq = 0
        #: Logical clock for spans with no simulated-cycle extent: one
        #: tick per begin/end call, so timestamps are a pure function of
        #: the (deterministic) call sequence.
        self._logical = 0

    # -- core API -------------------------------------------------------

    def _tick(self) -> int:
        self._logical += 1
        return self._logical

    def begin(
        self,
        name: str,
        category: str,
        start: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> int:
        """Open a span; returns its ``seq`` handle for :meth:`end`.

        ``start=None`` stamps the logical clock; pass a cycle count for
        engine-level spans.
        """
        seq = self._seq
        self._seq += 1
        parent = self._open[-1].seq if self._open else -1
        span = _OpenSpan(
            name, category,
            self._tick() if start is None else start,
            seq, parent, len(self._open), args,
        )
        self._open.append(span)
        return seq

    def end(
        self,
        seq: int,
        end: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> SpanRecord:
        """Close the innermost open span (which must be ``seq``)."""
        if not self._open or self._open[-1].seq != seq:
            raise TelemetryError(
                f"span end out of order: seq {seq} is not the "
                f"innermost open span"
            )
        span = self._open.pop()
        merged = span.args
        if args:
            merged = dict(span.args or {})
            merged.update(args)
        record = SpanRecord(
            track=self.track,
            name=span.name,
            category=span.category,
            start=span.start,
            end=self._tick() if end is None else end,
            depth=span.depth,
            seq=span.seq,
            parent=span.parent,
            args=merged,
        )
        self.records.append(record)
        return record

    def span(self, name: str, category: str,
             args: Optional[Dict[str, object]] = None):
        """Context manager over :meth:`begin`/:meth:`end` (logical
        clock)."""
        return _SpanContext(self, name, category, args)

    def complete(
        self,
        name: str,
        category: str,
        start: int,
        end: int,
        args: Optional[Dict[str, object]] = None,
    ) -> SpanRecord:
        """Record an already-closed span (epoch slices, post-hoc
        phases) as a child of the innermost open span."""
        seq = self._seq
        self._seq += 1
        parent = self._open[-1].seq if self._open else -1
        depth = len(self._open)
        record = SpanRecord(
            track=self.track, name=name, category=category,
            start=start, end=end, depth=depth, seq=seq,
            parent=parent, args=args,
        )
        self.records.append(record)
        return record

    # -- cross-process merge --------------------------------------------

    def adopt(
        self,
        records: Iterable,
        track: str,
    ) -> int:
        """Fold a child tracer's shipped records in, re-tracked.

        Child ``seq``/``parent`` links are kept intact (they are only
        compared within one track), and every record is re-labelled with
        ``track`` so a grid's cells land on distinct, deterministic
        Chrome-trace threads.  Call in submission order: the adopted
        sequence — hence the merged trace — is then identical at any
        worker count.  Accepts raw tuples (a spawn worker may ship
        plain data); returns the number of adopted spans.
        """
        count = 0
        for raw in records:
            record = (
                raw if isinstance(raw, SpanRecord)
                else SpanRecord(*raw)
            )
            self.records.append(record._replace(track=track))
            count += 1
        return count

    # -- engine hook ----------------------------------------------------

    def record_engine_run(
        self,
        scheme: str,
        engine: str,
        cycles: int,
        epoch_cycles: int = EPOCH_CYCLES,
        wall_seconds: Optional[float] = None,
    ) -> None:
        """One engine run's span slice: run → phases → epochs.

        Called by ``System.finish`` once per run, stepped or not;
        every value is a pure function of the (engine-identical) final
        clock, so the two engines emit byte-identical records for the
        same simulation.  Wall time rides along under the volatile
        ``wall_`` namespace only.
        """
        args: Dict[str, object] = {"engine": engine}
        if wall_seconds is not None:
            args["wall_s"] = round(wall_seconds, 6)
        run_seq = self.begin(
            f"run {scheme}", "run", start=0, args=args
        )
        phase = self.begin("main-loop", "phase", start=0)
        epochs = max(1, -(-cycles // epoch_cycles)) if cycles else 1
        for k in range(epochs):
            lo = k * epoch_cycles
            hi = min((k + 1) * epoch_cycles, cycles) if cycles else 0
            self.complete(f"epoch {k}", "epoch", lo, hi)
        self.end(phase, end=cycles)
        finalize = self.begin("finalize", "phase", start=cycles)
        self.end(finalize, end=cycles)
        self.end(run_seq, end=cycles)

    # -- export ---------------------------------------------------------

    def to_events(self) -> List[TraceEvent]:
        """The span tree as Chrome complete (``ph="X"``) events."""
        return spans_to_events(self.records)

    def summary(self) -> List[Dict[str, object]]:
        """Flamegraph-style aggregate: per (category, name) totals.

        Deterministic order: by category, then name.  Durations are in
        the span's own clock (cycles for engine spans, logical ticks
        for orchestration spans) — comparable within a category.
        """
        agg: Dict[tuple, Dict[str, object]] = {}
        for r in self.records:
            key = (r.category, r.name)
            entry = agg.get(key)
            if entry is None:
                entry = {
                    "category": r.category, "name": r.name,
                    "count": 0, "total": 0, "max": 0,
                }
                agg[key] = entry
            dur = r.end - r.start
            entry["count"] += 1
            entry["total"] += dur
            if dur > entry["max"]:
                entry["max"] = dur
        return [agg[k] for k in sorted(agg)]


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_category", "_args", "_seq")

    def __init__(self, tracer, name, category, args):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self):
        self._seq = self._tracer.begin(
            self._name, self._category, args=self._args
        )
        return self

    def __exit__(self, *exc):
        self._tracer.end(self._seq)


def spans_to_events(records: Iterable[SpanRecord]) -> List[TraceEvent]:
    """Convert span records to Chrome ``ph="X"`` trace events.

    Spans export under the ``"spans"`` process with one thread per
    track; ``seq``/``depth``/``category`` travel in ``args`` so a
    Perfetto query can rebuild the tree.
    """
    events: List[TraceEvent] = []
    for r in records:
        args: Dict[str, object] = {
            "category": r.category, "depth": r.depth, "seq": r.seq,
        }
        if r.parent >= 0:
            args["parent"] = r.parent
        if r.args:
            args.update(r.args)
        events.append(TraceEvent(
            ts=r.start, pid=SPAN_PID, tid=r.track, name=r.name,
            ph="X", dur=r.end - r.start, args=args,
        ))
    return events


def scrub_volatile_args(trace: Dict[str, object]) -> Dict[str, object]:
    """A deep-copied Chrome trace dict with every volatile field gone.

    Strips ``args`` keys prefixed ``wall_`` from every event (the one
    namespace allowed to carry wall-clock values) — what the worker-
    count byte-identity contract compares (``tests/test_sweep_parallel
    .py`` and the CI ``bench-ledger`` job dump the scrubbed dict with
    sorted keys and ``cmp`` the bytes).
    """
    import copy

    out = copy.deepcopy(trace)
    for event in out.get("traceEvents", []):
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        for key in [k for k in args
                    if k.startswith(VOLATILE_ARG_PREFIX)]:
            del args[key]
        if not args:
            event.pop("args", None)
    return out


__all__ = [
    "EPOCH_CYCLES",
    "SPAN_PID",
    "SpanRecord",
    "SpanTracer",
    "VOLATILE_ARG_PREFIX",
    "scrub_volatile_args",
    "spans_to_events",
]
