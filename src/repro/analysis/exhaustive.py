"""Exhaustive non-interference checking for bounded instances.

The sampled tests (:mod:`repro.analysis.leakage`) try a handful of
co-runner behaviours; this module tries *all of them* over a bounded
horizon — a model-checking-style argument.  The co-runner's behaviour
space is every sequence over {idle, read, write} at its decision points;
for each sequence we run the scheduler open-loop and record everything
the victim can observe.  Every pattern runs, and the report counts the
victim's distinct observations: k of them leak log2 k bits of the
co-runner's pattern (:func:`~repro.analysis.leakage.count_views`).
Non-interference holds iff k is 1.

The state space is 3^j for j decision points, so keep j small (the
default 4 gives 81 complete system runs); the value of the check is that
within the horizon it is *complete* — no adversarial co-runner strategy,
however contrived, is missed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..dram.commands import OpType, Request
from ..sim.config import SystemConfig
from ..sim.openloop import drive_open_loop
from ..sim.runner import SchemeOptions, build_controller, partition_for
from .leakage import count_views

#: One co-runner action at a decision point.
ACTIONS = ("idle", "read", "write")


@dataclass(frozen=True)
class ExhaustiveReport:
    """Outcome of an exhaustive bounded check."""

    scheme: str
    decision_points: int
    patterns_checked: int
    #: Distinct victim observations over every pattern (k).
    distinct_views: int
    #: Leakage of the co-runner's pattern, log2 k.
    bits: float
    #: The first co-runner action sequence whose victim view differs
    #: from the first sequence's, if any.
    counterexample: Optional[Tuple[str, ...]] = None

    @property
    def holds(self) -> bool:
        return self.distinct_views == 1


def exhaustive_noninterference(
    scheme: str,
    decision_points: int = 4,
    decision_period: int = 24,
    victim_reads: int = 6,
    config: Optional[SystemConfig] = None,
    actions: Sequence[str] = ACTIONS,
) -> ExhaustiveReport:
    """Check every co-runner behaviour over a bounded horizon.

    The victim (domain 0) issues a fixed stream of ``victim_reads``
    reads; the co-runner (domain 1) takes one action from ``actions`` at
    each of ``decision_points`` points spaced ``decision_period`` cycles
    apart.  Runs all ``len(actions) ** decision_points`` patterns and
    counts the distinct tuples of victim release times among them.
    """
    if decision_points < 1:
        raise ValueError("need at least one decision point")
    config = config or SystemConfig()
    patterns = list(itertools.product(actions, repeat=decision_points))
    observations = [
        _run_pattern(scheme, pattern, decision_period, victim_reads,
                     config)
        for pattern in patterns
    ]
    distinct, bits = count_views(observations)
    counterexample = next(
        (pattern for pattern, observation in zip(patterns, observations)
         if observation != observations[0]),
        None,
    )
    return ExhaustiveReport(
        scheme=scheme,
        decision_points=decision_points,
        patterns_checked=len(patterns),
        distinct_views=distinct,
        bits=bits,
        counterexample=counterexample,
    )


def _run_pattern(
    scheme: str,
    pattern: Sequence[str],
    period: int,
    victim_reads: int,
    config: SystemConfig,
) -> Tuple[int, ...]:
    """One complete run; returns the victim's read release times."""
    options = SchemeOptions()
    partition = partition_for(scheme, config)
    controller = build_controller(scheme, config, partition, options)
    requests: List[Request] = []
    for i in range(victim_reads):
        line = 1000 + i * 257
        requests.append(Request(
            op=OpType.READ, address=partition.decode(0, line),
            domain=0, arrival=i * period, line=line,
        ))
    for i, action in enumerate(pattern):
        if action == "idle":
            continue
        # A non-idle action is a burst of four accesses: enough pressure
        # that a contended scheduler measurably perturbs the victim.
        for j in range(4):
            line = 5000 + i * 131 + j
            requests.append(Request(
                op=OpType.READ if action == "read" else OpType.WRITE,
                address=partition.decode(1, line),
                domain=1, arrival=i * period + j, line=line,
            ))
    # The victim's requests come first, so the driver's stable sort by
    # arrival enqueues same-cycle requests by (arrival, domain).
    released, _ = drive_open_loop(controller, requests, stop_after=200_000)
    return tuple(r.release for r in released if r.domain == 0)
