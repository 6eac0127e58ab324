"""Online runtime verification of the FS security invariants.

:class:`OnlineInvariantMonitor` feeds a run, live and one event at a
time, through the same streaming rules the offline validators replay a
*finished* run through:

* :class:`repro.core.invariants.ServiceTracker` — every service event
  must land on one of its own domain's slot anchors, no slot may be
  served twice, and each domain's service must match its slot share;
* :class:`repro.dram.checker.TimingChecker` — the raw pairwise JEDEC
  constraints on the command stream.

The monitor holds only O(banks + a small window) of state, and (in
``strict`` mode) raises a structured
:class:`~repro.errors.ScheduleViolationError` naming the domain and the
cycle **the moment** an invariant breaks.  That matters for security: a
deviation from the fixed timetable is a potential timing channel, so a
faulted run must stop (or at minimum be flagged) before its results are
trusted — not after a grid of experiments has already consumed them.
Commands must be observed in non-decreasing cycle order per channel
(which is how every controller issues them).
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..dram.checker import TimingChecker, Violation
from ..dram.commands import Command
from ..dram.timing import TimingParams
from ..errors import ScheduleViolationError
from .invariants import InvariantViolation, ServiceTracker
from .schedule import FixedServiceSchedule


class OnlineInvariantMonitor:
    """Streaming watchdog over service events and DRAM commands.

    Parameters
    ----------
    params:
        DRAM timing parameters (JEDEC rules).
    schedule:
        The FS timetable, when the watched controller interprets one;
        enables the conformance checks.  ``None`` (e.g. for the
        reordered-BP controller, whose observable is the interval, not a
        slot) keeps only the timing rules.
    strict:
        Raise :class:`ScheduleViolationError` on the first violation
        instead of accumulating.
    max_recorded:
        Bound on retained violation objects; the total count stays exact.
    """

    def __init__(
        self,
        params: TimingParams,
        schedule: Optional[FixedServiceSchedule] = None,
        strict: bool = False,
        max_recorded: int = 1000,
    ) -> None:
        self.params = params
        self.schedule = schedule
        self.strict = strict
        self.max_recorded = max_recorded
        self.violations: List[object] = []
        self.total_violations = 0
        #: Optional telemetry session (wired by
        #: ``MemoryController.attach_telemetry``); every flagged
        #: violation streams into it live.
        self.telemetry = None
        self._timing = TimingChecker(params, self._flag)
        self._service = (
            ServiceTracker(schedule, self._flag)
            if schedule is not None else None
        )
        self._finalized = False

    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def raise_if_violated(self) -> None:
        """Raise on any accumulated violation (non-strict runs)."""
        if self.total_violations:
            first = self.violations[0] if self.violations else None
            raise ScheduleViolationError(
                f"{self.total_violations} invariant violation(s); "
                f"first: {first}"
            )

    def _flag(self, violation: Union[InvariantViolation, Violation]) -> None:
        """The sink both rule sets report into."""
        self.total_violations += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(violation)
        if isinstance(violation, InvariantViolation):
            domain, cycle = violation.domain, violation.cycle
            reason = violation.reason
        else:
            domain = violation.second.domain
            if domain < 0:
                domain = None
            cycle, reason = violation.second.cycle, str(violation)
        if self.telemetry is not None:
            self.telemetry.on_violation(domain, cycle, reason)
        if self.strict:
            raise ScheduleViolationError(reason, domain=domain, cycle=cycle)

    # ------------------------------------------------------------------

    def observe_service(self, domain: int, cycle: int, kind: str) -> None:
        """One service event, live from the controller's ``_trace``."""
        if self._service is not None:
            self._service.observe(domain, cycle, kind)

    def observe_command(self, command: Command) -> None:
        """One command, live from the controller's issue path."""
        self._timing.observe(command)

    def finalize(self) -> None:
        """Flush windowed state and run the end-of-run shape check."""
        if self._finalized:
            return
        self._finalized = True
        self._timing.finish()
        if self._service is not None:
            self._service.finish()


__all__ = ["OnlineInvariantMonitor"]
