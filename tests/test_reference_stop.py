"""A leak is decided at its first differing read: world 1 stops there.

``two_world_samples`` runs world 0 in full and world 1 against it:
``victim_view(reference=...)`` ends world 1 at its first read whose
release differs from world 0's release at the same index, or that
world 0 does not have.  The observation is ``(profile,
read_releases)``, so such a world differs from world 0 whatever the
rest of its run does, and ``canonicalize_by_trial`` gives it the same
id it gives the full world.  Every verdict field is a function of
those ids, so verdicts do not change.  A world that matches every
release is not assumed equal: it runs to its end and is compared in
full.

The property test compares the whole ``StrategyVerdict`` of
``certify_strategy`` as shipped with the verdict when the reference is
patched out, on both engines, for every certifiable built-in scheme,
the planted leaks of ``tests/leaky_scheme.py`` and a strategy of every
family.  The fixed cases pin where a world stops, on both engines, at
perfbench's certify-batch platform (4 cores x 90 accesses, seed 7,
``generate_strategies(10, seed=2015)``), and that a batch traced with
spans records one run span per world, identically at any worker
count.

``conftest.py`` registers the ``wide`` hypothesis profile;
``--hypothesis-profile=wide`` runs the property test on a larger,
random example budget instead of tier-1's small derandomized one.
"""

import dataclasses
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro.analysis.leakage import victim_view
from repro.certify import STRATEGIES, CertificationRun, \
    generate_strategies
from repro.certify import harness
from repro.certify.harness import certify_strategy
from repro.errors import ConfigError
from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions
from repro.telemetry import scrub_volatile_args

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


def _without_reference(mp):
    """Patch the harness's ``victim_view`` to drop ``reference``, so
    world 1 runs to its end as world 0 does."""
    real = harness.victim_view

    def full(*args, reference=None, **kwargs):
        return real(*args, **kwargs)

    mp.setattr(harness, "victim_view", full)


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
        _without_reference(mp)
        full = verdict()
    assert shipped == full


# ---------------------------------------------------------------------
# Where world 1 stops, at perfbench's certify-batch platform.
# ---------------------------------------------------------------------

BATCH = {s.name: s for s in generate_strategies(10, seed=2015)}
CONFIG = SystemConfig(num_cores=4, accesses_per_core=90, seed=7)


def _world(scheme, name, engine, secret, reference=None):
    """World ``secret`` of ``name``'s trial 0, as the harness runs it."""
    strategy = BATCH[name]
    return victim_view(
        scheme, strategy.attacker,
        (strategy.secret0, strategy.secret1)[secret],
        config=dataclasses.replace(CONFIG, seed=CONFIG.seed + strategy.seed),
        options=SchemeOptions(refresh=strategy.refresh,
                              faults=strategy.faults),
        engine=engine, reference=reference,
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_a_leaky_world_stops_at_its_first_differing_read(engine):
    world0 = _world("baseline", "burst_idle/0", engine, 0)
    world1 = _world("baseline", "burst_idle/0", engine, 1, world0)
    full1 = _world("baseline", "burst_idle/0", engine, 1)
    assert (world0.read_releases[0], full1.read_releases[0]) == (54, 36)
    assert world1.stopped_at == 36
    assert world1.read_releases == (36,)
    assert full1.stopped_at is None and len(full1.read_releases) == 90
    # Stopped or not, world 1's observation differs from world 0's.
    assert (world1.profile, world1.read_releases) != \
        (world0.profile, world0.read_releases)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_matching_world_runs_to_its_end(engine):
    world0 = _world("fs_rp", "burst_idle/0", engine, 0)
    world1 = _world("fs_rp", "burst_idle/0", engine, 1, world0)
    assert world1.stopped_at is None
    assert world1 == _world("fs_rp", "burst_idle/0", engine, 1)
    assert (world1.profile, world1.read_releases) == \
        (world0.profile, world0.read_releases)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_release_the_reference_does_not_have_stops_the_world(engine):
    world0 = _world("fs_rp", "burst_idle/0", engine, 0)
    full1 = _world("fs_rp", "burst_idle/0", engine, 1)
    short = dataclasses.replace(world0,
                                read_releases=world0.read_releases[:40])
    world1 = _world("fs_rp", "burst_idle/0", engine, 1, short)
    assert world1.read_releases == full1.read_releases[:41]
    assert world1.stopped_at == full1.read_releases[40]


def test_a_stopped_view_is_no_reference():
    world0 = _world("baseline", "burst_idle/0", "fast", 0)
    world1 = _world("baseline", "burst_idle/0", "fast", 1, world0)
    with pytest.raises(ValueError, match="stopped view"):
        _world("baseline", "burst_idle/0", "fast", 1, world1)


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
        # burst_idle/0's trial 0: world 0 in full, world 1 to cycle 36.
        assert runs[0].end > 36 and runs[1].end == 36
        buf = io.StringIO()
        run.export_trace(buf)
        traces[workers] = json.dumps(
            scrub_volatile_args(json.loads(buf.getvalue())),
            sort_keys=True,
        )
    assert traces[1] == traces[2]
