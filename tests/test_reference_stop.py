"""A trial is decided at its first differing read: both worlds stop there.

``two_world_samples`` builds world 0 and steps it together with world 1
(``victim_view(reference=world0)``), read release by read release, and
ends both at the first index where the attacker's releases differ, or
where one world has ended and the other releases again.  The
observation is ``(profile, read_releases)``, so such worlds differ
whatever the rest of their runs do, and ``canonicalize_by_trial`` gives
each the id it gives the full world.  Every verdict field is a function
of those ids, so verdicts do not change.  Worlds that match every
release are not assumed equal: they run to their ends and are compared
in full.

The property test compares the whole ``StrategyVerdict`` of
``certify_strategy`` as shipped with the verdict when each world runs
alone, in full (world 0 to its end, then world 1 without a reference),
on both engines, for every certifiable built-in scheme, the planted
leaks of ``tests/leaky_scheme.py`` and a strategy of every family.  The
fixed cases pin where both worlds stop, on both engines, at perfbench's
certify-batch platform (4 cores x 90 accesses, seed 7,
``generate_strategies(10, seed=2015)``), the rule for a world that
ends first, the order of errors, where both engines' loops pause, that
a batch traced with spans records one run span per world, identically
at any worker count, and that stepped worlds are freed without the
cyclic collector.

``conftest.py`` registers the ``wide`` hypothesis profile;
``--hypothesis-profile=wide`` runs the property test on a larger,
random example budget instead of tier-1's small derandomized one.
"""

import dataclasses
import gc
import io
import json
import weakref

import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro.analysis import leakage
from repro.analysis.leakage import VictimWorld, victim_view
from repro.certify import STRATEGIES, CertificationRun, \
    generate_strategies
from repro.certify import harness
from repro.certify.harness import certify_strategy, two_world_samples
from repro.errors import ConfigError
from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.telemetry import scrub_volatile_args

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


def _solo_worlds(mp):
    """Patch the harness's ``victim_view`` to run each world alone, in
    full: world 0 (the reference) to its end, then world 1 without a
    reference."""
    real = harness.victim_view

    def solo(*args, reference, **kwargs):
        reference.run_out()
        reference.finish()
        return real(*args, **kwargs)

    mp.setattr(harness, "victim_view", solo)


def _verdict(*args, **kwargs):
    """``certify_strategy``, or the error of a build it refuses."""
    try:
        return certify_strategy(*args, **kwargs)
    except ConfigError as exc:
        return f"{type(exc).__name__}: {exc}"


@given(
    scheme=st.sampled_from(SCHEMES),
    engine=st.sampled_from(ENGINES),
    cores=st.sampled_from([2, 4, 8]),
    family=st.sampled_from(STRATEGIES.names()),
    trials=st.sampled_from([1, 2]),
    batch_seed=st.integers(0, 2 ** 16),
    trace_seed=st.integers(0, 2 ** 16),
)
# Pinned draws: each planted leak where its two worlds differ, and a
# fault plan the multi-channel build refuses.
@example(scheme="leaky_fs", engine="reference", cores=4,
         family="secret_pair", trials=2, batch_seed=0, trace_seed=0)
@example(scheme="leaky_dummy_fs", engine="fast", cores=4,
         family="adaptive_probe", trials=1, batch_seed=3, trace_seed=3)
@example(scheme="fs_rp_mc", engine="fast", cores=4,
         family="fault_composed", trials=1, batch_seed=0, trace_seed=0)
@settings(BUDGET, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_stopped_world_gives_the_full_worlds_verdict(
        scheme, engine, cores, family, trials, batch_seed, trace_seed):
    strategy, = generate_strategies(1, seed=batch_seed,
                                    families=[family])
    strategy = dataclasses.replace(strategy, trials=trials)
    config = SystemConfig(accesses_per_core=30, seed=trace_seed) \
        .with_cores(cores)

    def verdict():
        return _verdict(scheme, strategy, config, engine=engine)

    shipped = verdict()
    with pytest.MonkeyPatch.context() as mp:
        _solo_worlds(mp)
        solo = verdict()
    assert shipped == solo


# ---------------------------------------------------------------------
# Where both worlds stop, at perfbench's certify-batch platform.
# ---------------------------------------------------------------------

BATCH = {s.name: s for s in generate_strategies(10, seed=2015)}
CONFIG = SystemConfig(num_cores=4, accesses_per_core=90, seed=7)


def _world(scheme, name, engine, secret, max_cycles=10_000_000):
    """World ``secret`` of ``name``'s trial 0, built as the harness
    builds it."""
    strategy = BATCH[name]
    return VictimWorld(
        scheme, strategy.attacker,
        (strategy.secret0, strategy.secret1)[secret],
        config=dataclasses.replace(CONFIG, seed=CONFIG.seed + strategy.seed),
        options=SchemeOptions(refresh=strategy.refresh,
                              faults=strategy.faults),
        max_cycles=max_cycles, engine=engine,
    )


def _stepped(scheme, name, engine, max_cycles=(10_000_000, 10_000_000)):
    """Both worlds of ``name``'s trial 0, stepped together as the
    harness steps them; returns their views."""
    strategy = BATCH[name]
    world0 = _world(scheme, name, engine, 0, max_cycles[0])
    view1 = victim_view(
        scheme, strategy.attacker, strategy.secret1,
        config=dataclasses.replace(CONFIG, seed=CONFIG.seed + strategy.seed),
        options=SchemeOptions(refresh=strategy.refresh,
                              faults=strategy.faults),
        max_cycles=max_cycles[1], engine=engine, reference=world0,
    )
    return world0.view, view1


def _solo(scheme, name, engine, secret, max_cycles=10_000_000):
    """World ``secret`` run alone, in full."""
    world = _world(scheme, name, engine, secret, max_cycles)
    world.run_out()
    return world.finish()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_leaky_world_stops_at_its_first_differing_read(engine):
    view0, view1 = _stepped("baseline", "burst_idle/0", engine)
    full0 = _solo("baseline", "burst_idle/0", engine, 0)
    full1 = _solo("baseline", "burst_idle/0", engine, 1)
    assert (full0.read_releases[0], full1.read_releases[0]) == (54, 36)
    # Both worlds stop at their first release, each holding one.
    assert (view0.stopped_at, view1.stopped_at) == (54, 36)
    assert (view0.read_releases, view1.read_releases) == ((54,), (36,))
    assert full0.stopped_at is None and len(full0.read_releases) == 90
    assert full1.stopped_at is None and len(full1.read_releases) == 90
    # Stopped or not, the two observations differ.
    assert (view0.profile, view0.read_releases) != \
        (view1.profile, view1.read_releases)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_matching_world_runs_to_its_end(engine):
    view0, view1 = _stepped("fs_rp", "burst_idle/0", engine)
    assert view0.stopped_at is None and view1.stopped_at is None
    assert view0 == _solo("fs_rp", "burst_idle/0", engine, 0)
    assert view1 == _solo("fs_rp", "burst_idle/0", engine, 1)
    assert (view0.profile, view0.read_releases) == \
        (view1.profile, view1.read_releases)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_release_the_reference_does_not_have_stops_the_world(engine):
    """A world cut by ``max_cycles`` just after its 40th release ends
    there; the other world's 41st release then stops it, whichever
    world was cut."""
    full = _solo("fs_rp", "burst_idle/0", engine, 1)
    cut = full.read_releases[39] + 1
    assert cut < full.read_releases[40]
    for secret in (0, 1):
        limits = [10_000_000, 10_000_000]
        limits[1 - secret] = cut
        views = _stepped("fs_rp", "burst_idle/0", engine, tuple(limits))
        ended, stopped = views[1 - secret], views[secret]
        assert ended.stopped_at is None
        assert ended.read_releases == full.read_releases[:40]
        assert stopped.read_releases == full.read_releases[:41]
        assert stopped.stopped_at == full.read_releases[40]


# ---------------------------------------------------------------------
# Errors keep the order of worlds run one after the other.
# ---------------------------------------------------------------------


def _raise_at(world, index, message):
    """Make ``world``'s attacker core raise at its ``index``-th read
    completion (counting from 0)."""
    core = world._system.cores[0]
    on_complete = core.on_complete
    count = [0]

    def failing(request, mem_cycle):
        if count[0] == index:
            raise RuntimeError(message)
        count[0] += 1
        on_complete(request, mem_cycle)

    core.on_complete = failing


@pytest.mark.parametrize("engine", ENGINES)
def test_an_error_of_world_0_wins(engine):
    world0 = _world("fs_rp", "burst_idle/0", engine, 0)
    world1 = _world("fs_rp", "burst_idle/0", engine, 1)
    _raise_at(world0, 50, "world 0")
    _raise_at(world1, 2, "world 1")
    with pytest.raises(RuntimeError, match="world 0"):
        leakage._step_together(world0, world1)


@pytest.mark.parametrize("engine", ENGINES)
def test_world_0_runs_to_its_end_before_an_error_of_world_1(engine):
    world0 = _world("fs_rp", "burst_idle/0", engine, 0)
    world1 = _world("fs_rp", "burst_idle/0", engine, 1)
    _raise_at(world1, 2, "world 1")
    with pytest.raises(RuntimeError, match="world 1"):
        leakage._step_together(world0, world1)
    assert world0.view == _solo("fs_rp", "burst_idle/0", engine, 0)


@pytest.mark.parametrize("engine", ENGINES)
def test_an_error_after_the_trial_is_decided_is_not_reported(engine):
    world0 = _world("baseline", "burst_idle/0", engine, 0)
    world1 = _world("baseline", "burst_idle/0", engine, 1)
    _raise_at(world0, 5, "world 0")
    _raise_at(world1, 5, "world 1")
    leakage._step_together(world0, world1)
    assert (world0.view.stopped_at, world1.view.stopped_at) == (54, 36)


# ---------------------------------------------------------------------
# Where the loops pause.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["baseline", "fs_rp"])
def test_both_engines_pause_after_the_completion_before_the_pump(scheme):
    """At each pause of ``System.steps`` the attacker's core has taken
    the read (its completion count includes it) and has not been
    pumped again (its fetch position is where the completion left
    it), in the same state on both engines, and the pauses are the
    releases a full run's completion hook records."""
    strategy = BATCH["burst_idle/0"]
    config = dataclasses.replace(CONFIG, seed=CONFIG.seed + strategy.seed)
    specs = [strategy.attacker] + [strategy.secret0] * 3
    pauses = {}
    for engine in ENGINES:
        system = build_system(scheme, config, specs, engine=engine)
        core = system.cores[0]
        fetched = []
        on_complete = core.on_complete

        def recording(request, mem_cycle, _core=core,
                      _on_complete=on_complete, _fetched=fetched):
            _on_complete(request, mem_cycle)
            _fetched.append(_core._fetch_index)

        core.on_complete = recording
        steps = system.steps(victim=0)
        pauses[engine] = [
            (release, core.stat_reads_completed, core._fetch_index)
            for release in steps
        ]
        assert [p[2] for p in pauses[engine]] == fetched
    assert pauses["reference"] == pauses["fast"]
    assert [p[1] for p in pauses["fast"]] == \
        list(range(1, len(pauses["fast"]) + 1))
    full = build_system(scheme, config, specs, engine="fast")
    releases = []
    on_complete = full.cores[0].on_complete

    def hook(request, mem_cycle):
        releases.append(mem_cycle)
        on_complete(request, mem_cycle)

    full.cores[0].on_complete = hook
    lockstep_run(full)
    assert [p[0] for p in pauses["fast"]] == releases


# ---------------------------------------------------------------------
# Spans and memory.
# ---------------------------------------------------------------------


def test_spans_record_every_world_at_any_worker_count():
    strategies = [BATCH[name] for name in
                  ("burst_idle/0", "adaptive_probe/0", "secret_pair/0")]
    traces = {}
    for workers in (1, 2):
        run = CertificationRun(config=CONFIG, engine="fast",
                               workers=workers, collect_spans=True)
        certificate = run.run("baseline", strategies)
        assert not certificate.certified
        runs = [r for r in run.tracer.records if r.category == "run"]
        assert len(runs) == 2 * sum(s.trials for s in strategies)
        # burst_idle/0's trial 0: world 0 to cycle 54, world 1 to 36.
        assert (runs[0].end, runs[1].end) == (54, 36)
        buf = io.StringIO()
        run.export_trace(buf)
        traces[workers] = json.dumps(
            scrub_volatile_args(json.loads(buf.getvalue())),
            sort_keys=True,
        )
    assert traces[1] == traces[2]


@pytest.mark.parametrize("scheme", ["baseline", "fs_rp"])
def test_stepped_worlds_are_freed_without_the_cyclic_collector(
        scheme, monkeypatch):
    """Stopped worlds leave reads in flight, each pointing back to its
    core; once the views are taken nothing of the worlds is left for
    the cyclic collector."""
    built = []
    build = leakage.build_system

    def recording(*args, **kwargs):
        system = build(*args, **kwargs)
        built.append(weakref.ref(system))
        built.extend(weakref.ref(core) for core in system.cores)
        return system

    monkeypatch.setattr(leakage, "build_system", recording)
    strategy = BATCH["burst_idle/0"]
    gc.collect()
    gc.disable()
    try:
        two_world_samples(scheme, strategy, CONFIG, engine="fast")
        alive = [ref for ref in built if ref() is not None]
        unreachable = gc.collect()
    finally:
        gc.enable()
    # A system and its four cores per world, two worlds per trial.
    assert len(built) == 2 * 5 * strategy.trials
    assert not alive
    assert unreachable == 0
