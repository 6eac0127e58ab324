"""Runtime security invariants for FS controllers (Section 5.1).

The paper's security invariant: each transaction queue gets a fixed,
schedule-determined level of service.  This module checks that claim on
*simulation artifacts* rather than on the implementation's word.  The
rules live once, in the streaming :class:`ServiceTracker`, which the
online monitor (:mod:`repro.core.online_monitor`) feeds live and the two
offline functions replay a finished run's ``service_trace`` through:

* :func:`check_schedule_conformance` — every service event of every
  domain lands exactly on one of that domain's own slot anchors, and no
  slot serves two transactions.
* :func:`check_constant_service` — each domain's service count per
  interval is exactly its slot share (demand + prefetch + dummy +
  bubble always fills the timetable).

These are used by the test-suite and can be applied to any controller
run with ``service_trace`` recording (always on).  Whether a victim's
view depends on its co-runners is measured one layer up, by the count
of distinct views in :mod:`repro.analysis.leakage`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .schedule import FixedServiceSchedule


@dataclass(frozen=True)
class InvariantViolation:
    """One detected breach of the FS service invariant."""

    domain: int
    cycle: int
    reason: str

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"domain {self.domain} @ {self.cycle}: {self.reason}"


class ServiceTracker:
    """The FS service rules, fed one service event at a time.

    :meth:`observe` flags a service off the domain's own slot anchors,
    or a slot served twice, the moment it happens; :meth:`finish` checks
    each domain's service count against its slot share over the run.
    Events of one domain must arrive in non-decreasing cycle order, as
    every controller records them.  Memory stays bounded: the
    double-service rule remembers the last two intervals only.

    ``sink`` receives every violation; by default they collect in
    :attr:`violations`.
    """

    def __init__(
        self,
        schedule: FixedServiceSchedule,
        sink: Optional[Callable[[InvariantViolation], None]] = None,
    ) -> None:
        self.schedule = schedule
        self.violations: List[InvariantViolation] = []
        self._flag = sink if sink is not None else self.violations.append
        self._allowed = {
            d: {s.anchor_offset for s in schedule.slots_of_domain(d)}
            for d in range(schedule.num_domains)
        }
        #: Per domain, the cycles served in the last two intervals.
        self._recent: Dict[int, Deque[int]] = {}
        self._served: Counter = Counter()
        self._horizon = 0

    def observe(self, domain: int, cycle: int, kind: str) -> None:
        """One service event."""
        schedule = self.schedule
        self._served[domain] += 1
        self._horizon = max(self._horizon, cycle)
        offset = (cycle - schedule.lead) % schedule.interval_length
        if offset not in self._allowed.get(domain, ()):
            self._flag(InvariantViolation(
                domain, cycle,
                f"service at foreign offset {offset} (kind {kind!r})",
            ))
        recent = self._recent.setdefault(domain, deque())
        if cycle in recent:
            self._flag(InvariantViolation(
                domain, cycle, "slot served more than once"
            ))
        recent.append(cycle)
        floor = cycle - 2 * schedule.interval_length
        while recent[0] < floor:
            recent.popleft()

    def finish(self, tolerance_intervals: int = 2) -> None:
        """The constant-service shape check, over every domain of the
        schedule and any served domain outside it."""
        schedule = self.schedule
        horizon = self._horizon
        if horizon == 0:
            return
        intervals = (horizon - schedule.lead) // schedule.interval_length + 1
        for domain in sorted(set(self._allowed) | set(self._served)):
            share = len(schedule.slots_of_domain(domain))
            expected = intervals * share
            served = self._served[domain]
            if abs(served - expected) > tolerance_intervals * share:
                self._flag(InvariantViolation(
                    domain, horizon,
                    f"served {served} slots, expected ~{expected}",
                ))


def _replay(
    schedule: FixedServiceSchedule,
    service_trace: Dict[int, List[Tuple[int, str]]],
    tolerance_intervals: int = 2,
) -> Tuple[List[InvariantViolation], List[InvariantViolation]]:
    """Replay a finished run through one tracker; return the per-event
    violations and the end-of-run ones."""
    tracker = ServiceTracker(schedule)
    for domain, events in service_trace.items():
        for cycle, kind in events:
            tracker.observe(domain, cycle, kind)
    live = len(tracker.violations)
    tracker.finish(tolerance_intervals)
    return tracker.violations[:live], tracker.violations[live:]


def check_schedule_conformance(
    schedule: FixedServiceSchedule,
    service_trace: Dict[int, List[Tuple[int, str]]],
) -> List[InvariantViolation]:
    """Every service event must sit on one of its domain's own anchors,
    and no slot may be served twice."""
    return _replay(schedule, service_trace)[0]


def check_constant_service(
    schedule: FixedServiceSchedule,
    service_trace: Dict[int, List[Tuple[int, str]]],
    tolerance_intervals: int = 2,
) -> List[InvariantViolation]:
    """Each domain's event count must equal elapsed intervals x its
    slot share (the 'constant injection rate' shape property)."""
    return _replay(schedule, service_trace, tolerance_intervals)[1]
