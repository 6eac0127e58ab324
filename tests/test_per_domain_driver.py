"""Per-domain Fixed Service runs equal the lockstep stride loop.

An unobserved :class:`~repro.core.fs_controller.FixedServiceController`
run on the fast engine takes each domain's slots against its own core
alone and merges (:mod:`repro.sim.perdomain`).  That is exact only if
the shared FS code is non-interfering: a domain's slot decisions read
its own queue, hazards, dummy stream, prefetcher and fault predicates,
and nothing of its co-runners.  The property test checks it on random
co-runners: every observable of a per-domain run equals the same run
through the lockstep loop (``System.run(lockstep=True)``), with back-
pressure, refresh, the energy options and composed fault plans.

The fixed cases pin the cut-offs (``max_cycles``, the wall budget) and
which runs take which loop, counted by ``advance`` and
``release_horizon`` calls, so neither loop can stand in for the other
silently.  The last test shows why certification keeps the lockstep
loop: a controller whose dummy choice reads another domain's queue
leaks under lockstep, and certifies clean when the attacker's domain
runs on its own.

``conftest.py`` registers the ``wide`` hypothesis profile;
``--hypothesis-profile=wide`` runs the property test on a
larger, random budget instead of tier-1's small derandomized one.
"""

import collections
import dataclasses
import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import leakage
from repro.certify import STRATEGIES, generate_strategies
from repro.certify import harness
from repro.core.energy_opts import FsEnergyOptions
from repro.errors import SimTimeoutError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.schemes import REGISTRY
from repro.sim import fastpath, perdomain
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.workloads.spec import MIXES, SPEC2K6, suite_specs

from .engine_equivalence import MAX_CYCLES, dram_counters
from .leaky_scheme import LEAKY_DUMMY_SPEC

_WIDE = settings.get_profile("wide")
#: Tier-1 runs a small derandomized budget; CI's second pass loads the
#: wider random profile.
BUDGET = settings.default if settings.default is _WIDE else settings(
    max_examples=12, derandomize=True,
)

SCHEMES = ["fs_rp", "fs_bp", "fs_np", "fs_np_ta"]
ENTRIES = sorted(SPEC2K6) + sorted(MIXES)
#: Slot-level and trace faults that compose; ``borrow_foreign_slot``
#: is cross-domain by design and keeps the stride loop.
FAULT_KINDS = [
    FaultKind.DROP_COMMAND, FaultKind.DUPLICATE_COMMAND,
    FaultKind.DELAY_SLOT, FaultKind.REFRESH_COLLISION,
    FaultKind.QUEUE_OVERFLOW, FaultKind.CORRUPT_TRACE,
]


def _build(scheme, cores=4, accesses=60, seed=0, entry="mix1",
           options=None, capacity=None):
    config = SystemConfig(accesses_per_core=accesses, seed=seed) \
        .with_cores(cores)
    system = build_system(
        scheme, config, suite_specs(entry, cores), options,
        engine="fast",
    )
    if capacity is not None:
        system.controller.QUEUE_CAPACITY = capacity
    return system


def _counted(system):
    """Count the system controller's ``advance`` and
    ``release_horizon`` calls."""
    calls = collections.Counter()
    controller = system.controller
    for name in ("advance", "release_horizon"):
        method = getattr(controller, name, None)
        if method is None:
            continue

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        setattr(controller, name, counted)
    return calls


def _observables(system, result):
    controller = system.controller
    injector = controller.fault_injector
    return {
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "service_trace": result.service_trace,
        "bus_utilization": result.bus_utilization,
        "energy": result.energy,
        "adjustments": result.adjustments,
        "cores": result.cores,
        "dram_counters": dram_counters(controller),
        "faults": result.faults,
        "fault_events": None if injector is None else injector.events,
        "stat_refreshes": controller.stat_refreshes,
    }


def _both(build, max_cycles=MAX_CYCLES):
    """Observables of the lockstep and the per-domain run of one
    configuration, and the per-domain run's call counts."""
    out = {}
    for lockstep in (True, False):
        system = build()
        calls = _counted(system)
        result = system.run(max_cycles=max_cycles, lockstep=lockstep)
        out[lockstep] = (_observables(system, result), calls)
    return out


def _assert_same(out):
    (locked, locked_calls), (alone, alone_calls) = out[True], out[False]
    assert locked_calls["advance"] > 0
    assert alone_calls["advance"] == 0 and \
        alone_calls["release_horizon"] == 0, "fell back to the strides"
    for name, value in locked.items():
        assert alone[name] == value, f"{name} diverged"


@st.composite
def fault_plans(draw):
    kinds = draw(st.lists(st.sampled_from(FAULT_KINDS), unique=True,
                          max_size=4))
    if not kinds:
        return None
    rates = st.sampled_from([0.02, 0.1, 0.3])
    return FaultPlan(
        tuple(FaultSpec(kind, draw(rates)) for kind in kinds),
        seed=draw(st.integers(0, 1000)),
    )


@given(
    scheme=st.sampled_from(SCHEMES),
    cores=st.sampled_from([2, 4, 8]),
    entry=st.sampled_from(ENTRIES),
    seed=st.integers(0, 2 ** 16),
    prefetch=st.booleans(),
    slots_per_domain=st.sampled_from([1, 2]),
    energy=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    refresh=st.booleans(),
    faults=fault_plans(),
    capacity=st.sampled_from([1, 2, 3, None]),
)
@settings(BUDGET, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_per_domain_equals_lockstep_for_any_co_runner(
        scheme, cores, entry, seed, prefetch, slots_per_domain, energy,
        refresh, faults, capacity):
    suppress, boost, power_down = energy
    options = SchemeOptions(
        prefetch=prefetch, slots_per_domain=slots_per_domain,
        energy=FsEnergyOptions(
            suppress_dummies=suppress, boost_row_hits=boost,
            power_down_idle=power_down,
        ),
        refresh=refresh and scheme == "fs_rp",
        faults=faults,
    )
    _assert_same(_both(functools.partial(
        _build, scheme, cores=cores, accesses=40, seed=seed, entry=entry,
        options=options, capacity=capacity,
    )))


# ---------------------------------------------------------------------
# Cut-offs.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("max_cycles", [0, 1, 2500, 7001])
def test_max_cycles_cuts_both_loops_at_the_same_cycle(max_cycles):
    out = _both(functools.partial(
        _build, "fs_bp", cores=8, accesses=80, capacity=2,
        options=SchemeOptions(faults=FaultPlan.parse(
            "delay_slot:0.1,queue_overflow:0.2", seed=5,
        )),
    ), max_cycles=max_cycles)
    assert out[False][0]["cycles"] == max_cycles
    assert not all(core.done for core in out[False][0]["cores"])
    if max_cycles:
        _assert_same(out)
    else:
        assert out[False][0] == out[True][0]


def test_an_expiring_wall_budget_raises():
    system = _build("fs_rp", cores=8, accesses=200)
    calls = _counted(system)
    with pytest.raises(SimTimeoutError):
        system.run(wall_budget_s=1e-6)
    assert calls["advance"] == 0


# ---------------------------------------------------------------------
# Which runs take which loop.
# ---------------------------------------------------------------------


def test_an_eligible_run_makes_no_stride_calls():
    system = _build("fs_np_ta")
    calls = _counted(system)
    system.run(max_cycles=MAX_CYCLES)
    assert calls["advance"] == 0 and calls["release_horizon"] == 0


@pytest.mark.parametrize("scheme, options", [
    ("fs_reordered_bp", SchemeOptions()),
    ("fs_rp_mc", SchemeOptions()),
    ("fs_rp", SchemeOptions(log_commands=True)),
    ("fs_rp", SchemeOptions(monitor=True)),
    ("fs_rp", SchemeOptions(faults=FaultPlan.parse(
        "borrow_foreign_slot:0.05", seed=1,
    ))),
], ids=["reordered_bp", "multi_channel", "logged", "monitored",
        "borrow_foreign_slot"])
def test_other_runs_keep_the_stride_loop(scheme, options):
    system = _build(scheme, options=options)
    calls = _counted(system)
    system.run(max_cycles=MAX_CYCLES)
    assert calls["advance"] > 0


def test_victim_view_keeps_the_stride_loop(monkeypatch):
    calls = collections.Counter()
    original = fastpath.FastFixedServiceController.advance

    def counted(self, until):
        calls["advance"] += 1
        return original(self, until)

    monkeypatch.setattr(
        fastpath.FastFixedServiceController, "advance", counted
    )
    config = SystemConfig(accesses_per_core=60).with_cores(4)
    victim, co_runner = suite_specs("mix1", 2)
    leakage.victim_view(
        "fs_rp", victim, co_runner, config=config, engine="fast"
    )
    assert calls["advance"] > 0


# ---------------------------------------------------------------------
# Certification keeps lockstep.
# ---------------------------------------------------------------------


@pytest.fixture
def leaky_dummy_registered():
    REGISTRY.register(LEAKY_DUMMY_SPEC)
    yield LEAKY_DUMMY_SPEC.name
    REGISTRY.unregister(LEAKY_DUMMY_SPEC.name)


def test_certification_catches_a_cross_domain_dummy_choice(
        leaky_dummy_registered, monkeypatch):
    """``secret_pair`` reads the leak through lockstep victim views.
    With the fast engine's stepped worlds computed by the per-domain
    driver instead (each run taken to its end, then its attacker
    releases handed out one by one) and one epoch spanning the run, the
    attacker's domain takes every slot before a co-runner request is
    delivered, so the foreign queues it reads are empty in both worlds
    and the same strategy certifies."""
    scheme = leaky_dummy_registered
    config = SystemConfig(num_cores=4, accesses_per_core=80).with_cores(4)
    strategy = next(
        dataclasses.replace(s, trials=2)
        for s in generate_strategies(len(STRATEGIES), seed=11)
        if s.family == "secret_pair"
    )
    locked = harness.certify_strategy(
        scheme, strategy, config, engine="fast"
    )
    assert not locked.passed and not locked.exact_match
    assert locked.mi_upper_bits > 0.5

    monkeypatch.setattr(perdomain, "EPOCH_ROUNDS", 1 << 40)

    def per_domain_steps(self, max_cycles=10_000_000, *, victim):
        assert perdomain.ready(self)
        core = self.cores[victim]
        releases = []
        on_complete = core.on_complete

        def recording(request, mem_cycle):
            releases.append(mem_cycle)
            on_complete(request, mem_cycle)

        core.on_complete = recording
        clock = perdomain.run(self, max_cycles, None, None)
        yield from releases
        return clock

    monkeypatch.setattr(fastpath.FastSystem, "steps", per_domain_steps)
    alone = harness.certify_strategy(scheme, strategy, config,
                                     engine="fast")
    assert alone.passed and alone.exact_match
    assert alone.mi_upper_bits == 0.0
