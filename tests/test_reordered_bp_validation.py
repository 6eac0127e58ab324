"""Reordered bank partitioning runs only on a geometry the checker
passed.

``build_reordered_bp_geometry`` starts from the closed-form data pitch
and tail and searches longer intervals until
``validate_reordered_bp_geometry`` passes: that replays two consecutive
intervals of every read/write mix through the JEDEC checker.  A part
with nothing legal in the search bound is refused with ``ConfigError``
at build time, and so is an explicit ``geometry=`` that fails the
replay, so the controllers always issue trusted on the fast engine.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import schedule as sched
from repro.core.fs_reordered import ReorderedBpController
from repro.core.pipeline_solver import (
    PeriodicMode,
    PipelineSolver,
    SharingLevel,
)
from repro.dram import timing
from repro.dram.bank import TimingViolation
from repro.dram.system import DramSystem
from repro.errors import ConfigError
from repro.mapping.address import Geometry
from repro.mapping.partition import BankPartition
from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.sim.fastpath import FastReorderedBpController
from repro.sim.runner import ENGINES, SCHEMES, SchemeOptions, build_system
from repro.workloads.spec import suite_specs

from .engine_equivalence import MAX_CYCLES, assert_equivalent
from .test_closed_form_settlement import parts

PRESETS = {
    name: value for name, value in vars(timing).items()
    if isinstance(value, timing.TimingParams)
}
FS_SCHEMES = [s for s in SCHEMES if REGISTRY.get(s).fixed_service]


def closed_form(params, domains):
    """The search's first candidate: gap max(tBURST + tRTRS, tCCD),
    tail the bank-partitioned RAS gap."""
    return sched.ReorderedBpGeometry(
        num_domains=domains,
        data_gap=max(params.tBURST + params.tRTRS, params.tCCD),
        tail=PipelineSolver(params).solve(
            PeriodicMode.RAS, SharingLevel.BANK
        ),
    )


def assert_built_geometry_sound(params, domains):
    """The built geometry validates, is no shorter than the closed
    form, and is the closed form wherever that validates."""
    geometry = sched.build_reordered_bp_geometry(params, domains)
    assert sched.validate_reordered_bp_geometry(params, geometry) == []
    formula = closed_form(params, domains)
    assert geometry.interval_length >= formula.interval_length
    if not sched.validate_reordered_bp_geometry(params, formula):
        assert geometry == formula
    return geometry


def test_presets_found():
    assert {"DDR3_1600_X4", "DDR3_1066", "DDR4_2400"} <= set(PRESETS)


@pytest.mark.parametrize("domains", [2, 4, 8])
def test_table1_geometry_validates(domains):
    """The Figure 10 grid stays on trusted issue (and the fast path)."""
    geometry = sched.build_reordered_bp_geometry(
        timing.DDR3_1600_X4, domains
    )
    assert sched.validate_reordered_bp_geometry(
        timing.DDR3_1600_X4, geometry
    ) == []


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("domains", range(1, 9))
def test_every_preset_geometry_validates(preset, domains):
    geometry = assert_built_geometry_sound(PRESETS[preset], domains)
    if preset == "DDR3_1600_X4":
        assert (geometry.data_gap, geometry.tail) == (6, 15)


@pytest.mark.parametrize(
    "preset, domains",
    [("DDR3_1066", 2), ("DDR3_1066", 4), ("DDR3_1066", 8),
     ("DDR4_2400", 4), ("DDR4_2400", 8)],
)
def test_illegal_preset_geometries_flagged(preset, domains):
    """The closed form (gap 6, tail 14 or 25) breaks these parts; the
    search moves past it to a legal, longer interval."""
    params = PRESETS[preset]
    formula = closed_form(params, domains)
    assert formula.data_gap == 6 and formula.tail in (14, 25)
    assert sched.validate_reordered_bp_geometry(params, formula)
    geometry = sched.build_reordered_bp_geometry(params, domains)
    assert sched.validate_reordered_bp_geometry(params, geometry) == []
    assert geometry.interval_length >= formula.interval_length


def test_searched_geometries_at_eight_domains():
    """The two presets the closed form breaks at eight domains."""
    assert sched.build_reordered_bp_geometry(
        timing.DDR3_1066, 8
    ) == sched.ReorderedBpGeometry(8, 7, 9)
    assert sched.build_reordered_bp_geometry(
        timing.DDR4_2400, 8
    ) == sched.ReorderedBpGeometry(8, 7, 22)


@given(params=parts(), domains=st.sampled_from([2, 4]))
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_build_validates_or_refuses_on_any_part(params, domains):
    try:
        assert_built_geometry_sound(params, domains)
    except ConfigError:
        pass  # nothing legal within twice the closed form's interval


def test_verdict_memoized_beside_the_schedules():
    sched.clear_caches()
    try:
        first = sched.cached_reordered_bp_geometry(timing.DDR3_1066, 4)
        again = sched.cached_reordered_bp_geometry(timing.DDR3_1066, 4)
        assert again is first
        assert first == sched.build_reordered_bp_geometry(
            timing.DDR3_1066, 4
        )
        assert sched.template_cache_stats() == {"hits": 1, "misses": 1}
    finally:
        sched.clear_caches()


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("domains", [2, 4, 8])
def test_trusted_issue_only_behind_a_legal_geometry(preset, domains):
    """Every fast controller issues trusted; a geometry that fails the
    replay is refused by both engines instead."""
    params = PRESETS[preset]
    partition = BankPartition(Geometry(), domains)
    fast = FastReorderedBpController(DramSystem(params), partition, domains)
    assert fast.trusted_issue
    assert sched.validate_reordered_bp_geometry(params, fast.geometry) == []
    reference = ReorderedBpController(
        DramSystem(params), partition, domains
    )
    assert reference.trusted_issue is False
    assert reference.geometry == fast.geometry
    # An explicit geometry is replayed the same way.
    explicit = FastReorderedBpController(
        DramSystem(params), partition, domains, geometry=fast.geometry
    )
    assert explicit.trusted_issue
    illegal = dataclasses.replace(fast.geometry, data_gap=params.tBURST)
    assert sched.validate_reordered_bp_geometry(params, illegal)
    for controller in (FastReorderedBpController, ReorderedBpController):
        with pytest.raises(ConfigError, match="reordered-BP geometry"):
            controller(
                DramSystem(params), partition, domains, geometry=illegal
            )


def _run(engine, scheme, params):
    """One unobserved run (the fast engine settles in closed form), or
    the ``TimingViolation`` it raised."""
    config = dataclasses.replace(
        SystemConfig(accesses_per_core=60, seed=1), timing=params
    )
    system = build_system(
        scheme, config, suite_specs("mix1", config.num_cores),
        SchemeOptions(), engine=engine,
    )
    try:
        return system.run(max_cycles=MAX_CYCLES), system.controller
    except TimingViolation as exc:
        return exc


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("scheme", FS_SCHEMES)
def test_fast_engine_equals_reference_or_both_raise(scheme, preset):
    """Every FS scheme on every preset part, 8 cores: the fast engine
    either reproduces the reference engine or raises the very
    ``TimingViolation`` the reference raises."""
    outcomes = {
        engine: _run(engine, scheme, PRESETS[preset])
        for engine in ENGINES
    }
    reference, fast = outcomes["reference"], outcomes["fast"]
    if isinstance(reference, Exception) or isinstance(fast, Exception):
        assert type(fast) is type(reference)
        assert str(fast) == str(reference)
    else:
        assert_equivalent(outcomes)


@pytest.mark.parametrize("log_commands", [False, True])
@pytest.mark.parametrize("preset", ["DDR3_1066", "DDR4_2400"])
@pytest.mark.parametrize("cores", [2, 4, 8])
def test_searched_geometry_runs_equal_on_both_engines(
    cores, preset, log_commands
):
    """Where the closed form is illegal, reordered BP now completes,
    and both engines agree, with the command log on and off."""
    config = dataclasses.replace(
        SystemConfig(accesses_per_core=60, seed=1), timing=PRESETS[preset]
    ).with_cores(cores)
    options = SchemeOptions(log_commands=log_commands)
    outcomes = {}
    for engine in ENGINES:
        system = build_system(
            "fs_reordered_bp", config, suite_specs("mix1", cores),
            options, engine=engine,
        )
        outcomes[engine] = (
            system.run(max_cycles=MAX_CYCLES), system.controller
        )
    assert_equivalent(outcomes)
