"""Fault injection × fast path: identical recovery under both engines.

The fast engine must not change *how the system breaks*: for every fault
model in :mod:`repro.faults`, a seeded campaign run under the fast engine
strikes the same faults at the same cycles, triggers the same recovery,
and ends with the same statistics, traces, and per-core results as the
reference engine.  Equivalence is exact rather than merely statistical:
the composable faults (drop, duplicate, delay, refresh collision) only
move a demand to a later slot of its own domain, so the FS controllers
keep their closed-form release horizon and the fast driver still
strides over dummy slots; queue overflow back-pressures a core, which
drops the driver to ``next_event`` granularity.  Only a plan arming the
deliberately-broken borrow-foreign-slot recovery gives the horizon up
(a borrowed request completes in a foreign domain's slot, which the
bound does not cover) and turns trusted issue off (the borrowed
commands are not covered by the offline timetable proof).

Each Fixed Service case also runs with the command log off (ids ending
in ``logs_off``; unparametrized cases loop over both modes), where the
fast FS controllers settle their DRAM counters in closed form; the
fault event logs must still match event for event.  The multi-channel
composite hands no fault injector to its per-channel controllers, so
both engines refuse a plan arming a controller-level fault for it.
"""

import pytest

from repro.dram.bank import TimingViolation
from repro.dram.commands import OpType, Request
from repro.errors import ConfigError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.workloads.spec import suite_specs

from .engine_equivalence import MAX_CYCLES, assert_equivalent, run_both


def _plan(kind: FaultKind, rate: float = 0.08,
          seed: int = 7) -> FaultPlan:
    return FaultPlan((FaultSpec(kind, rate),), seed)


def _events(controller):
    injector = getattr(controller, "fault_injector", None)
    if injector is None:
        return None
    return [(e.kind, e.domain, e.cycle) for e in injector.events]


def _check_faulted(scheme: str, kind: FaultKind, **kwargs) -> None:
    options = SchemeOptions(faults=_plan(kind))
    outcomes = run_both(scheme, options=options, accesses=100, **kwargs)
    assert_equivalent(outcomes)
    # The fault *event logs* must agree too: same kinds, same domains,
    # same strike cycles (each run builds a fresh injector from the
    # immutable plan, so the schedules are seed-deterministic).
    ref_events = _events(outcomes["reference"][1])
    fast_events = _events(outcomes["fast"][1])
    assert fast_events == ref_events, "fault event logs diverged"


def _both_modes(kinds):
    """Each fault kind with the command log on (id: the kind) and off
    (id: ``<kind>-logs_off``), as params ``(kind, log_commands)``."""
    return [pytest.param(k, True, id=str(k)) for k in kinds] + [
        pytest.param(k, False, id=f"{k}-logs_off") for k in kinds
    ]


@pytest.mark.parametrize(
    "kind, log_commands",
    _both_modes(
        [FaultKind.DROP_COMMAND, FaultKind.DUPLICATE_COMMAND,
         FaultKind.DELAY_SLOT, FaultKind.REFRESH_COLLISION,
         FaultKind.CORRUPT_TRACE, FaultKind.QUEUE_OVERFLOW,
         FaultKind.BORROW_FOREIGN_SLOT]
    ),
)
def test_fs_rp_fault_recovery_equivalent(kind, log_commands):
    """Every fault class, on the flagship FS rank-partitioned scheme."""
    _check_faulted("fs_rp", kind, log_commands=log_commands)


@pytest.mark.parametrize(
    "kind, log_commands",
    _both_modes(
        [FaultKind.DROP_COMMAND, FaultKind.DELAY_SLOT,
         FaultKind.CORRUPT_TRACE, FaultKind.QUEUE_OVERFLOW]
    ),
)
def test_reordered_bp_fault_recovery_equivalent(kind, log_commands):
    """The interval-batched pipeline's fault paths, both engines."""
    _check_faulted("fs_reordered_bp", kind, log_commands=log_commands)


def test_triple_alternation_fault_recovery_equivalent():
    for log_commands in (True, False):
        _check_faulted("fs_np_ta", FaultKind.DELAY_SLOT,
                       log_commands=log_commands)


@pytest.mark.parametrize(
    "kind, log_commands", _both_modes([FaultKind.CORRUPT_TRACE])
)
def test_multichannel_fs_under_fault_plan_equivalent(kind, log_commands):
    """The multi-channel composite delegates its release horizon to its
    per-channel controllers, with a fault plan armed: trace corruption,
    which the runner applies to every scheme, strikes identically."""
    _check_faulted("fs_rp_mc", kind, log_commands=log_commands)


@pytest.mark.parametrize(
    "kind",
    [FaultKind.DROP_COMMAND, FaultKind.DUPLICATE_COMMAND,
     FaultKind.DELAY_SLOT, FaultKind.REFRESH_COLLISION,
     FaultKind.QUEUE_OVERFLOW, FaultKind.BORROW_FOREIGN_SLOT],
)
def test_multichannel_fs_rejects_controller_faults(kind):
    """The composite's per-channel controllers take no fault injector,
    so a controller-level fault would never strike: both engines refuse
    the plan, naming the armed kind, instead of running it silently."""
    options = SchemeOptions(faults=FaultPlan(
        (FaultSpec(kind, 0.1), FaultSpec(FaultKind.CORRUPT_TRACE, 0.1)),
        seed=7,
    ))
    for engine in ("reference", "fast"):
        config = SystemConfig(num_cores=4, accesses_per_core=60) \
            .with_cores(4)
        with pytest.raises(ConfigError) as raised:
            build_system(
                "fs_rp_mc", config, suite_specs("mcf", 4), options,
                engine=engine,
            )
        # The armed controller-level kinds, and only those, are named.
        assert f"({kind.value})" in str(raised.value)


def test_corrupt_trace_on_baseline_equivalent():
    """Trace corruption applies to every scheme, fast driver included."""
    _check_faulted("baseline", FaultKind.CORRUPT_TRACE)


def test_faulted_run_with_monitor_equivalent():
    """The watchdog must flag the broken recovery identically: same
    violation count, same first-violation shape, under either engine."""
    options = SchemeOptions(
        faults=_plan(FaultKind.BORROW_FOREIGN_SLOT, rate=0.2),
        monitor=True,
    )
    outcomes = run_both("fs_rp", options=options, accesses=100)
    assert_equivalent(outcomes)
    monitor = outcomes["fast"][1].monitor
    assert monitor is not None


def test_multi_fault_campaign_equivalent():
    """Several fault models armed at once (the resilient-sweep setup)."""
    plan = FaultPlan(
        (
            FaultSpec(FaultKind.DROP_COMMAND, 0.05),
            FaultSpec(FaultKind.DELAY_SLOT, 0.05),
            FaultSpec(FaultKind.QUEUE_OVERFLOW, 0.05),
        ),
        seed=13,
    )
    for log_commands in (True, False):
        outcomes = run_both(
            "fs_rp", options=SchemeOptions(faults=plan), accesses=100,
            log_commands=log_commands,
        )
        assert_equivalent(outcomes)


def _faulted_controller(scheme: str, kind: FaultKind):
    """A fast-engine controller under a one-kind plan, with one demand
    queued for domain 0."""
    config = SystemConfig(accesses_per_core=20, seed=0)
    system = build_system(
        scheme, config, suite_specs("mcf", config.num_cores),
        SchemeOptions(faults=_plan(kind)), engine="fast",
    )
    controller = system.controller
    address = system.partition.decode(0, 0)
    controller.enqueue(Request(OpType.READ, address, domain=0, arrival=0))
    return controller


@pytest.mark.parametrize("scheme", ["fs_rp", "fs_reordered_bp"])
def test_release_horizon_kept_without_borrow(scheme):
    """A plan that cannot borrow a slot keeps the closed-form bound and
    trusted issue."""
    controller = _faulted_controller(scheme, FaultKind.DROP_COMMAND)
    assert controller.release_horizon() is not None
    assert controller.trusted_issue


def test_release_horizon_dropped_under_borrow():
    """Arming borrow-foreign-slot voids both the release bound and the
    offline legality proof trusted issue relies on."""
    controller = _faulted_controller(
        "fs_rp", FaultKind.BORROW_FOREIGN_SLOT
    )
    assert controller.release_horizon() is None
    assert not controller.trusted_issue
    assert type(controller).trusted_issue  # the class default stands


def test_borrow_on_shared_rank_rejected_by_both_engines():
    """Without rank partitioning a borrowed transaction can break a
    rank-level constraint the served domain's hazard tracker cannot
    see.  The reference engine's checked issue rejects it; the fast
    engine must reject the same command rather than apply it unchecked.
    """
    options = SchemeOptions(faults=_plan(FaultKind.BORROW_FOREIGN_SLOT))
    messages = {}
    for engine in ("reference", "fast"):
        config = SystemConfig(accesses_per_core=80, seed=0)
        system = build_system(
            "fs_np_ta", config, suite_specs("mix1", config.num_cores),
            options, engine=engine,
        )
        with pytest.raises(TimingViolation) as raised:
            system.run(max_cycles=MAX_CYCLES)
        messages[engine] = str(raised.value)
    assert messages["fast"] == messages["reference"]
