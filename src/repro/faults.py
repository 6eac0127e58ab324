"""Seed-deterministic fault injection for the simulation stack.

The paper's security argument is that Fixed Service timetables are
conflict-free and non-interfering *by construction*; this module stresses
that claim under transient faults.  The key design constraint is that a
fault campaign must itself be leakage-free: whether a fault strikes
domain ``d`` is a pure function of ``(seed, fault kind, d, d's own
progress)`` — never of co-runner state — so the victim's observable
timing stays bit-identical across co-runner changes even *with* faults
enabled (the property ``tests/test_faults.py`` proves).

Two layers:

* :class:`FaultPlan` — an immutable campaign description (which fault
  kinds, at which rates, for which domains, under which seed).  Plans are
  safe to share across runs and hashable, so they ride inside
  :class:`~repro.sim.runner.SchemeOptions`.
* :class:`FaultInjector` — the per-run stateful instance built from a
  plan.  Controllers query its predicates at decision points and record
  every struck fault as a :class:`FaultEvent`.

Fault models (ISSUE 1):

=====================  ==================================================
kind                   effect
=====================  ==================================================
``drop_command``       a transaction's DRAM commands are lost in transit;
                       the controller re-issues it in the *same domain's
                       next slot* (never a borrowed one)
``duplicate_command``  the staging logic repeats a command; the issue
                       path squashes the copy before it reaches the bus
``delay_slot``         slot logic stalls for one slot; the demand stays
                       queued and the slot is filled like an empty one
``refresh_collision``  a spurious refresh blackout forces a bubble
``corrupt_trace``      a workload trace record is bit-flipped, then
                       sanitized back into the trace contract
``queue_overflow``     a domain's transaction queue transiently shrinks,
                       back-pressuring the owning core only
``borrow_foreign_slot``  **deliberately broken** recovery used by the
                       test-suite to prove the watchdog fires: a faulted
                       domain's backlog is served in a foreign slot,
                       which re-opens the timing channel
=====================  ==================================================
"""

from __future__ import annotations

import bisect
import enum
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import FaultInjectionError


class FaultKind(enum.Enum):
    """The fault models the injector understands."""

    DROP_COMMAND = "drop_command"
    DUPLICATE_COMMAND = "duplicate_command"
    DELAY_SLOT = "delay_slot"
    REFRESH_COLLISION = "refresh_collision"
    CORRUPT_TRACE = "corrupt_trace"
    QUEUE_OVERFLOW = "queue_overflow"
    #: Test-only: a *broken* recovery policy that borrows another
    #: domain's slot.  Exists so the watchdog can be shown to catch it.
    BORROW_FOREIGN_SLOT = "borrow_foreign_slot"


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind armed at a given rate."""

    kind: FaultKind
    #: Probability per decision point, in [0, 1].
    rate: float
    #: Domains the fault may strike (None = every domain).
    domains: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultInjectionError(
                f"fault rate must be in [0, 1], got {self.rate!r} "
                f"for {self.kind.value}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, shareable fault campaign: specs + seed.

    Build one fresh :class:`FaultInjector` per run with
    :meth:`injector`; sharing a single injector across runs would let one
    run's progress counters perturb the next run's fault schedule.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"kind:rate,kind:rate,..."`` (the CLI ``--inject``
        syntax), e.g. ``"drop_command:0.01,delay_slot:0.05"``."""
        specs: List[FaultSpec] = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, _, rate_text = chunk.partition(":")
            try:
                kind = FaultKind(name.strip())
            except ValueError:
                known = ", ".join(k.value for k in FaultKind)
                raise FaultInjectionError(
                    f"unknown fault kind {name.strip()!r}; known: {known}"
                ) from None
            try:
                rate = float(rate_text) if rate_text else 0.01
            except ValueError:
                raise FaultInjectionError(
                    f"bad fault rate {rate_text!r} for {kind.value}"
                ) from None
            specs.append(FaultSpec(kind, rate))
        if not specs:
            raise FaultInjectionError(
                f"no fault specs in {text!r} (expected 'kind:rate,...')"
            )
        return cls(tuple(specs), seed)

    def rate_of(self, kind: FaultKind, domain: int) -> float:
        for spec in self.specs:
            if spec.kind is kind and (
                spec.domains is None or domain in spec.domains
            ):
                return spec.rate
        return 0.0

    @property
    def empty(self) -> bool:
        return not any(s.rate > 0 for s in self.specs)

    def arms(self, kind: FaultKind) -> bool:
        """Whether ``kind`` can strike at all (some spec gives it a
        positive rate)."""
        return any(s.kind is kind and s.rate > 0 for s in self.specs)

    def injector(self) -> "FaultInjector":
        """A fresh per-run injector for this plan."""
        return FaultInjector(self)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually struck."""

    kind: FaultKind
    domain: int
    cycle: int
    detail: str = ""


class FaultInjector:
    """Per-run fault oracle + event log.

    Every predicate is a pure function of ``(plan.seed, kind, domain,
    key)`` where ``key`` indexes the domain's *own* progress (its slot
    index, enqueue count, or trace-record index).  No predicate reads
    cross-domain or global simulator state, so enabling faults cannot
    open a timing channel between domains.

    :attr:`events` is kept in ``(cycle, kind name, domain)`` order, ties
    in the order they were recorded, not in plain recording order: the
    two engines interleave request delivery with slot decisions
    differently (the fast driver enqueues at the end of a stride, before
    the controller catches up on the decisions inside it), so a
    ``queue_overflow`` event, stamped with its request's arrival, can be
    recorded before or after a slot-level event of an earlier cycle.
    Events with equal keys come from one domain's own progress, which
    both engines record in the same order, so the log is identical
    across engines.
    """

    #: Cap on retained events: the log keeps the ``MAX_EVENTS`` earliest
    #: events in its ``(cycle, kind name, domain)`` order, so the
    #: retained set is engine-independent too.  Counts stay exact past
    #: the cap.
    MAX_EVENTS = 10_000
    #: How many subsequent accepts a queue-overflow episode covers.
    OVERFLOW_SPAN = 16
    #: Capacity divisor during an overflow episode.
    OVERFLOW_SHRINK = 4

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.events: List[FaultEvent] = []
        #: ``(cycle, kind name, domain)`` of each retained event, in
        #: step with :attr:`events`.
        self._event_keys: List[Tuple[int, str, int]] = []
        self.counts: Counter = Counter()
        self._enqueues: Dict[int, int] = {}
        self._overflow_until: Dict[int, int] = {}
        #: Optional telemetry session (wired by
        #: ``MemoryController.attach_telemetry``); every recorded strike
        #: streams into it as a labeled counter + timeline event.
        self.telemetry = None

    # -- deterministic coin ---------------------------------------------

    def _roll(self, kind: FaultKind, domain: int, key: int) -> bool:
        rate = self.plan.rate_of(kind, domain)
        if rate <= 0.0:
            return False
        token = f"{self.plan.seed}|{kind.value}|{domain}|{key}"
        digest = hashlib.blake2s(
            token.encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / 2**64
        return draw < rate

    def record(
        self, kind: FaultKind, domain: int, cycle: int, detail: str = ""
    ) -> None:
        """Count one strike and file it in the event log (in cycle
        order; see the class docstring)."""
        self.counts[kind] += 1
        key = (cycle, kind.value, domain)
        keys = self._event_keys
        at = bisect.bisect_right(keys, key)
        if at < self.MAX_EVENTS:
            keys.insert(at, key)
            self.events.insert(at, FaultEvent(kind, domain, cycle, detail))
            if len(keys) > self.MAX_EVENTS:
                keys.pop()
                self.events.pop()
        if self.telemetry is not None:
            self.telemetry.on_fault(kind, domain, cycle, detail)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def counts_by_name(self) -> Dict[str, int]:
        """Strike counts keyed by fault-kind name (JSON/metric-friendly)."""
        return {
            kind.value: count
            for kind, count in sorted(
                self.counts.items(), key=lambda kv: kv[0].value
            )
        }

    def summary(self) -> str:
        if not self.counts:
            return "no faults struck"
        parts = [
            f"{kind.value}={count}"
            for kind, count in sorted(
                self.counts.items(), key=lambda kv: kv[0].value
            )
        ]
        return ", ".join(parts)

    # -- controller-facing predicates -----------------------------------

    def delay_slot(self, domain: int, slot_index: int) -> bool:
        return self._roll(FaultKind.DELAY_SLOT, domain, slot_index)

    def drop_command(self, domain: int, key: int) -> bool:
        return self._roll(FaultKind.DROP_COMMAND, domain, key)

    def duplicate_command(self, domain: int, key: int) -> bool:
        return self._roll(FaultKind.DUPLICATE_COMMAND, domain, key)

    def refresh_collision(self, domain: int, slot_index: int) -> bool:
        return self._roll(FaultKind.REFRESH_COLLISION, domain, slot_index)

    def borrow_foreign_slot(self, domain: int, slot_index: int) -> bool:
        return self._roll(
            FaultKind.BORROW_FOREIGN_SLOT, domain, slot_index
        )

    # -- queue overflow ---------------------------------------------------

    def note_enqueue(self, domain: int, cycle: int = 0) -> None:
        """Called by the controller on every actual queue append; may arm
        a transient overflow episode keyed purely on the domain's own
        enqueue count."""
        count = self._enqueues.get(domain, 0) + 1
        self._enqueues[domain] = count
        if self._roll(FaultKind.QUEUE_OVERFLOW, domain, count):
            self._overflow_until[domain] = count + self.OVERFLOW_SPAN
            self.record(
                FaultKind.QUEUE_OVERFLOW, domain, cycle,
                f"capacity shrunk for {self.OVERFLOW_SPAN} accepts",
            )

    def effective_capacity(self, domain: int, capacity: int) -> int:
        """The queue capacity the domain currently experiences."""
        until = self._overflow_until.get(domain)
        if until is None:
            return capacity
        if self._enqueues.get(domain, 0) >= until:
            del self._overflow_until[domain]
            return capacity
        return max(1, capacity // self.OVERFLOW_SHRINK)

    # -- trace corruption -------------------------------------------------

    def corrupt_trace(self, trace, domain: int):
        """Bit-flip some records of ``trace``, then sanitize the result
        back into the trace contract (graceful degradation: the sim must
        survive a corrupted input, not crash on it).

        Returns a new :class:`~repro.cpu.trace.Trace`; corruption is a
        pure function of ``(seed, domain, record index)``.
        """
        from .cpu.trace import Trace, TraceRecord

        rate = self.plan.rate_of(FaultKind.CORRUPT_TRACE, domain)
        if rate <= 0.0:
            return trace
        records = []
        for index, record in enumerate(trace):
            if not self._roll(FaultKind.CORRUPT_TRACE, domain, index):
                records.append(record)
                continue
            # Model a flipped address/gap word, then sanitize: mask the
            # line back to non-negative, clamp the gap at zero.
            raw_line = record.line ^ (0x5A5A << (index % 16))
            raw_gap = record.gap - (index % 7)
            records.append(TraceRecord(
                gap=max(0, raw_gap),
                op=record.op,
                line=abs(raw_line),
                depends_on_prev=record.depends_on_prev,
            ))
            self.record(
                FaultKind.CORRUPT_TRACE, domain, 0,
                f"record {index} corrupted and sanitized",
            )
        return Trace(records, name=trace.name)


__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
]
