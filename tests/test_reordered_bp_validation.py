"""Reordered bank partitioning issues trusted only behind a validated
geometry.

``build_reordered_bp_geometry`` derives its data pitch and tail from
the timing parameters, but no pipeline solver proves the result legal.
``validate_reordered_bp_geometry`` replays two consecutive intervals of
every read/write mix through the independent JEDEC checker, and the
controller issues trusted only when that passed for its own part;
otherwise it issues checked, so the fast engine fails exactly where the
reference engine does.
"""

import dataclasses

import pytest

from repro.core import schedule as sched
from repro.core.fs_reordered import ReorderedBpController
from repro.dram import timing
from repro.dram.bank import TimingViolation
from repro.dram.system import DramSystem
from repro.mapping.address import Geometry
from repro.mapping.partition import BankPartition
from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.sim.fastpath import FastReorderedBpController
from repro.sim.runner import ENGINES, SCHEMES, SchemeOptions, build_system
from repro.workloads.spec import suite_specs

from .engine_equivalence import MAX_CYCLES, assert_equivalent

PRESETS = {
    name: value for name, value in vars(timing).items()
    if isinstance(value, timing.TimingParams)
}
FS_SCHEMES = [s for s in SCHEMES if REGISTRY.get(s).fixed_service]


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


@pytest.mark.parametrize(
    "preset, domains",
    [("DDR3_1066", 2), ("DDR3_1066", 4), ("DDR3_1066", 8),
     ("DDR4_2400", 4), ("DDR4_2400", 8)],
)
def test_illegal_preset_geometries_flagged(preset, domains):
    params = PRESETS[preset]
    geometry = sched.build_reordered_bp_geometry(params, domains)
    assert sched.validate_reordered_bp_geometry(params, geometry)


def test_verdict_memoized_beside_the_schedules():
    sched.clear_caches()
    try:
        first = sched.cached_reordered_bp_geometry(timing.DDR3_1066, 4)
        again = sched.cached_reordered_bp_geometry(timing.DDR3_1066, 4)
        assert again is first
        geometry, legal = first
        assert geometry == sched.build_reordered_bp_geometry(
            timing.DDR3_1066, 4
        )
        assert legal is False
        assert sched.template_cache_stats() == {"hits": 1, "misses": 1}
    finally:
        sched.clear_caches()


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("domains", [2, 4, 8])
def test_trusted_issue_only_behind_a_legal_geometry(preset, domains):
    params = PRESETS[preset]
    _, legal = sched.cached_reordered_bp_geometry(params, domains)
    dram = DramSystem(params)
    partition = BankPartition(Geometry(), domains)
    fast = FastReorderedBpController(dram, partition, domains)
    assert fast.trusted_issue is legal
    assert type(fast).trusted_issue  # the class default stands
    # An explicit geometry is validated the same way.
    geometry = sched.build_reordered_bp_geometry(params, domains)
    explicit = FastReorderedBpController(
        DramSystem(params), partition, domains, geometry=geometry
    )
    assert explicit.trusted_issue is legal
    reference = ReorderedBpController(dram, partition, domains)
    assert reference.trusted_issue is False


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
