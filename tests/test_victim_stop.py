"""A run that ends at the victim's last retirement shows the victim
everything the full run shows it.

``System.steps(victim=i)`` ends its lockstep loop at the first stop
where core ``i`` is done and the clock has reached its
``finish_mem_cycle()``; ``victim_view`` steps it with ``victim=0``.
That is exact by causality, not by non-interference: the stopped run's
stops are a prefix of the full run's, and after core ``i``'s last
release and last retirement nothing can move its release cycles, its
completion profile or its IPC.  So it holds for leaky schemes too, and
the property test draws the planted leaks of ``tests/leaky_scheme.py``
beside every certifiable built-in.

The property test compares both worlds' whole ``VictimView`` with the
view of the same run taken to its full end (the lockstep loop with no
``victim``, the attacker's releases recorded by a completion hook), on
both engines, for a strategy of every family.
The fixed cases pin where a stopped run ends, the contract tests pin
``System.steps(victim=...)`` itself, and the last case pins that
``VictimView.ipc`` is measured at the victim's own last retirement.

``conftest.py`` registers the ``wide`` hypothesis profile;
``--hypothesis-profile=wide`` runs the property test on a larger,
random example budget instead of tier-1's small derandomized one.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro.analysis.leakage import VictimView, victim_view
from repro.certify import STRATEGIES, generate_strategies
from repro.errors import ConfigError
from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.workloads.spec import workload
from repro.workloads.synthetic import idle_spec, intense_spec

from .engine_equivalence import lockstep_run
from .leaky_scheme import LEAKY_DUMMY_SPEC, LEAKY_SPEC

_WIDE = settings.get_profile("wide")
#: Tier-1 runs a small derandomized budget; CI's second pass loads the
#: wider random profile.
BUDGET = settings.default if settings.default is _WIDE else settings(
    max_examples=24, derandomize=True,
)

ENGINES = ["reference", "fast"]
LEAKY = (LEAKY_SPEC, LEAKY_DUMMY_SPEC)
SCHEMES = [
    name for name in REGISTRY.names() if REGISTRY.get(name).certifiable
] + [spec.name for spec in LEAKY]


@pytest.fixture(scope="module", autouse=True)
def _leaky_specs_registered():
    """Scope the planted leaks to this module: the registry is global."""
    for spec in LEAKY:
        REGISTRY.register(spec)
    yield
    for spec in LEAKY:
        REGISTRY.unregister(spec.name)


def _full_view(scheme, attacker, co_runner, config, options, engine):
    """The attacker's view of the same run taken to its full end: the
    lockstep loop with no ``victim``, the attacker's releases recorded
    by a completion hook, and the view's fields taken as
    ``victim_view`` takes them."""
    specs = [attacker] + [co_runner] * (config.num_cores - 1)
    system = build_system(scheme, config, specs, options, engine=engine)
    core = system.cores[0]
    releases = []
    on_complete = core.on_complete

    def recording(request, mem_cycle):
        releases.append(mem_cycle)
        on_complete(request, mem_cycle)

    core.on_complete = recording
    result = lockstep_run(system, 2_000_000)
    finish = core.finish_mem_cycle()
    return VictimView(
        scheme=scheme,
        co_runner=co_runner.name,
        profile=tuple(core.completion_profile(
            max(100, core.trace.instructions // 25))),
        read_releases=tuple(releases),
        ipc=core.ipc(result.cycles if finish is None else finish),
    )


def _or_error(view, *args, **kwargs):
    """``view(...)``, or the error of a build it refuses."""
    try:
        return view(*args, **kwargs)
    except ConfigError as exc:
        return f"{type(exc).__name__}: {exc}"


@given(
    scheme=st.sampled_from(SCHEMES),
    engine=st.sampled_from(ENGINES),
    cores=st.sampled_from([2, 4, 8]),
    family=st.sampled_from(STRATEGIES.names()),
    batch_seed=st.integers(0, 2 ** 16),
    trace_seed=st.integers(0, 2 ** 16),
)
# Pinned draws: each planted leak where its two worlds differ, and a
# fault plan the multi-channel build refuses.
@example(scheme="leaky_fs", engine="reference", cores=4,
         family="secret_pair", batch_seed=0, trace_seed=0)
@example(scheme="leaky_dummy_fs", engine="fast", cores=4,
         family="adaptive_probe", batch_seed=3, trace_seed=3)
@example(scheme="fs_rp_mc", engine="fast", cores=4,
         family="fault_composed", batch_seed=0, trace_seed=0)
@settings(BUDGET, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_stopped_view_equals_the_full_view(
        scheme, engine, cores, family, batch_seed, trace_seed):
    strategy, = generate_strategies(1, seed=batch_seed,
                                    families=[family])
    config = SystemConfig(accesses_per_core=30, seed=trace_seed) \
        .with_cores(cores)
    options = SchemeOptions(refresh=strategy.refresh,
                            faults=strategy.faults)
    for co_runner in (strategy.secret0, strategy.secret1):
        stopped = _or_error(victim_view, scheme, strategy.attacker,
                            co_runner, config=config, options=options,
                            max_cycles=2_000_000, engine=engine)
        full = _or_error(_full_view, scheme, strategy.attacker, co_runner,
                         config, options, engine)
        assert stopped == full


# ---------------------------------------------------------------------
# Where a stopped run ends.  Each case was found by search: astar on
# domain 0 of a two-core fs_rp system (seed 0, 30 accesses per core)
# retires its last read at cycle 1552 and its last instruction at
# cycle 1592.
# ---------------------------------------------------------------------

LAST_RELEASE, FINISH = 1552, 1592


def _astar_against(co_runner, engine, victim, max_cycles=2_000_000):
    """Run astar on domain 0 against ``co_runner``; return the result,
    the astar core and its read-release cycles."""
    config = SystemConfig(accesses_per_core=30, seed=0).with_cores(2)
    system = build_system("fs_rp", config, [workload("astar"), co_runner],
                          engine=engine)
    core = system.cores[0]
    releases = []
    on_complete = core.on_complete

    def recording(request, mem_cycle):
        releases.append(mem_cycle)
        on_complete(request, mem_cycle)

    core.on_complete = recording
    result = lockstep_run(system, max_cycles, victim)
    return result, core, releases


@pytest.mark.parametrize("engine", ENGINES)
def test_an_attacker_that_finishes_last_ends_the_run_as_before(engine):
    full, _, _ = _astar_against(intense_spec(), engine, None)
    stopped, core, releases = _astar_against(intense_spec(), engine, 0)
    assert (max(releases), core.finish_mem_cycle()) == (LAST_RELEASE,
                                                        FINISH)
    # Every core is done when the attacker's last read returns, before
    # its last retirement: the run ends there, with or without victim.
    assert stopped.cycles == full.cycles == LAST_RELEASE
    assert stopped.cores[0] == full.cores[0]


@pytest.mark.parametrize("engine", ENGINES)
def test_co_runners_that_outlive_the_attacker_end_at_its_finish(engine):
    full, _, _ = _astar_against(idle_spec(), engine, None)
    stopped, core, releases = _astar_against(idle_spec(), engine, 0)
    assert (max(releases), core.finish_mem_cycle()) == (LAST_RELEASE,
                                                        FINISH)
    assert FINISH <= stopped.cycles < full.cycles
    assert not all(c.done for c in stopped.cores)
    assert stopped.cores[0] == full.cores[0]
    # Ending at the last release instead would have measured the IPC
    # without the trailing instructions.
    assert core.ipc(LAST_RELEASE) != stopped.cores[0].ipc


@pytest.mark.parametrize("engine", ENGINES)
def test_max_cycles_before_the_attacker_is_done_cuts_where_it_did(
        engine):
    full, _, _ = _astar_against(idle_spec(), engine, None, max_cycles=1000)
    stopped, core, _ = _astar_against(idle_spec(), engine, 0,
                                      max_cycles=1000)
    assert not core.done
    assert stopped.cycles == full.cycles == 1000
    assert stopped.cores == full.cores


# ---------------------------------------------------------------------
# The ``System.steps(victim=...)`` contract.
# ---------------------------------------------------------------------


def _build(scheme, engine, victim_index=0):
    """astar on core ``victim_index`` of four, against idle co-runners
    that outlive it."""
    config = SystemConfig(accesses_per_core=40, seed=3).with_cores(4)
    specs = [idle_spec()] * 4
    specs[victim_index] = workload("astar")
    return build_system(scheme, config, specs, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", ["baseline", "tp_bp", "fs_rp",
                                    "fs_rp_mc", "fs_reordered_bp"])
@pytest.mark.parametrize("victim", [0, 2])
def test_the_victims_core_result_is_the_full_runs(scheme, engine, victim):
    full = lockstep_run(_build(scheme, engine, victim))
    stopped = lockstep_run(_build(scheme, engine, victim), victim=victim)
    assert stopped.cycles < full.cycles
    assert stopped.cores[victim] == full.cores[victim]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("victim", [-1, 4])
def test_a_victim_outside_the_cores_is_refused(engine, victim):
    """Refused by ``steps`` itself, before the loop is stepped."""
    system = _build("fs_rp", engine)
    with pytest.raises(ValueError, match="not a core index"):
        system.steps(victim=victim)


# ---------------------------------------------------------------------
# The victim's IPC does not depend on when its co-runners finish.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_the_victims_ipc_is_measured_at_its_own_finish(engine):
    """tp_bp under adaptive_probe/3 (seed 99 batch) at 4 cores x 75
    accesses: the two worlds' observations are equal, but in one of
    them every core is done before the attacker's trailing
    instructions retire, so the run's last cycle falls before the
    attacker's finish.  Measured at that cycle the IPC read 0.0844221
    there and 0.0849854 in the other world."""
    strategy = {s.name: s for s in generate_strategies(20, seed=99)}[
        "adaptive_probe/3"]
    config = SystemConfig(num_cores=4, accesses_per_core=75,
                          seed=7 + strategy.seed)
    options = SchemeOptions(refresh=strategy.refresh,
                            faults=strategy.faults)
    views = [
        victim_view("tp_bp", strategy.attacker, co_runner, config=config,
                    options=options, engine=engine)
        for co_runner in (strategy.secret0, strategy.secret1)
    ]
    assert (views[0].profile, views[0].read_releases) == \
        (views[1].profile, views[1].read_releases)
    assert views[0].ipc == views[1].ipc == 0.08498540033809743
