"""Differential equivalence suite: fast engine vs reference simulator.

The headline asset of the fast-path work (``repro.sim.fastpath``): every
scheme family from the paper is simulated under both engines and must
produce **bit-identical** command traces, completion times, statistics,
service traces, energy, and per-core results.

Covered families (paper nomenclature):

* non-secure FR-FCFS baseline (open page, write drain) and strict FCFS
* channel partitioning (Section 4.1)
* Temporal Partitioning, bank-partitioned and unpartitioned
* Fixed Service rank partitioning (periodic data pipeline, l=7),
  single- and multi-channel
* Fixed Service bank partitioning (periodic RAS, l=15; l=21 with
  doubled per-domain slots)
* Fixed Service unpartitioned (l=43) and triple alternation (Q=360)
* Fixed Service reordered bank partitioning (Q=63)

plus the option axes the benchmarks exercise: refresh, prefetching,
energy optimizations, slot multiplicity, turn length, address-order
remapping, and the online invariant monitor.  Fault-injection cases live
in ``tests/test_fastpath_faults.py``.

Every Fixed Service case also runs with the command log off (ids ending
in ``logs_off``; unparametrized cases loop over both modes), where the
fast FS controllers settle their DRAM counters in closed form instead
of issuing each command: see ``tests/engine_equivalence.py``.
"""

import json

import pytest

from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.sim.runner import SCHEMES, SchemeOptions, run_scheme
from repro.telemetry import TelemetrySession, TraceCollector
from repro.workloads.spec import suite_specs

from .engine_equivalence import check

# Every scheme the runner knows, on two contrasting workloads: a mixed
# multiprogrammed bundle and a homogeneous memory-intensive one.
_ALL_SCHEMES = list(SCHEMES)
_FS_SCHEMES = {s for s in _ALL_SCHEMES if REGISTRY.get(s).fixed_service}


def _both_modes(cases):
    """``(id, args)`` cases as params ``(*args, log_commands)``: each
    case with the command log on under its own id, and each Fixed
    Service case (the scheme comes first in ``args``) again with the
    log off, under ``<id>-logs_off``."""
    params = [pytest.param(*args, True, id=case_id)
              for case_id, args in cases]
    params += [pytest.param(*args, False, id=f"{case_id}-logs_off")
               for case_id, args in cases if args[0] in _FS_SCHEMES]
    return params


@pytest.mark.parametrize(
    "scheme, log_commands", _both_modes([(s, (s,)) for s in _ALL_SCHEMES])
)
def test_scheme_equivalent_mixed_workload(scheme, log_commands):
    check(scheme, workload="mix1", log_commands=log_commands)


_INTENSE_SCHEMES = ["baseline", "tp_bp", "tp_np", "fs_rp", "fs_bp",
                    "fs_reordered_bp", "fs_np_ta"]


@pytest.mark.parametrize(
    "scheme, workload, log_commands",
    # Read-heavy mcf keeps the bare scheme ids it has always had;
    # write-heavy lbm flips FR-FCFS write drain about twice as often,
    # which is where candidate caching meets the drain hysteresis.
    _both_modes(
        [(s, (s, "mcf")) for s in _INTENSE_SCHEMES]
        + [(f"lbm-{s}", (s, "lbm")) for s in _INTENSE_SCHEMES]
    ),
)
def test_scheme_equivalent_intense_workload(scheme, workload,
                                            log_commands):
    check(scheme, workload=workload, accesses=100,
          log_commands=log_commands)


@pytest.mark.parametrize(
    "scheme, cores, log_commands",
    _both_modes([
        (f"{s}-{c}", (s, c))
        for s in ["baseline", "fs_rp", "fs_reordered_bp", "tp_bp"]
        for c in [2, 4]
    ]),
)
def test_scheme_equivalent_scaled_cores(scheme, cores, log_commands):
    """The Figure 10 core-count scaling grid, both engines."""
    check(scheme, workload="libquantum", cores=cores, accesses=100,
          log_commands=log_commands)


def test_seed_changes_tracked_identically():
    """A different trace seed must shift both engines the same way."""
    for log_commands in (True, False):
        check("fs_rp", workload="milc", seed=17, accesses=100,
              log_commands=log_commands)


# ---------------------------------------------------------------------
# Option axes.
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme, log_commands",
    _both_modes([(s, (s,)) for s in ["baseline", "fs_rp"]]),
)
def test_refresh_equivalent(scheme, log_commands):
    check(scheme, options=SchemeOptions(refresh=True), accesses=100,
          log_commands=log_commands)


def test_prefetch_equivalent():
    for log_commands in (True, False):
        check("fs_rp", options=SchemeOptions(prefetch=True), accesses=100,
              log_commands=log_commands)


def test_energy_options_equivalent():
    from repro.core.energy_opts import FsEnergyOptions

    options = SchemeOptions(energy=FsEnergyOptions(
        suppress_dummies=True, boost_row_hits=True, power_down_idle=True,
    ))
    for scheme in ("fs_rp", "fs_reordered_bp"):
        for log_commands in (True, False):
            check(scheme, options=options, accesses=100,
                  log_commands=log_commands)


def test_double_slots_equivalent():
    """FS bank partitioning with two slots per domain (l=21 pipeline)."""
    for log_commands in (True, False):
        check("fs_bp", options=SchemeOptions(slots_per_domain=2),
              accesses=100, log_commands=log_commands)


def test_turn_length_equivalent():
    check("tp_bp", options=SchemeOptions(turn_length=96), accesses=100)


def test_address_order_equivalent():
    """Triple alternation with bank-interleaved page mapping."""
    options = SchemeOptions(
        address_order=("row", "column", "rank", "channel", "bank")
    )
    for log_commands in (True, False):
        check("fs_np_ta", options=options, accesses=100,
              log_commands=log_commands)


@pytest.mark.parametrize(
    "scheme, log_commands",
    _both_modes([
        (s, (s,)) for s in ["fs_rp", "fs_reordered_bp", "fs_np_ta"]
    ]),
)
def test_monitor_equivalent(scheme, log_commands):
    """The online watchdog sees the same command stream either way (and
    keeps the fast controllers on the per-command path without a log)."""
    check(scheme, options=SchemeOptions(monitor=True), accesses=100,
          log_commands=log_commands)


# ---------------------------------------------------------------------
# Telemetry determinism.
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme",
    ["baseline", "fcfs", "tp_bp", "fs_rp", "fs_bp", "fs_reordered_bp",
     "fs_np_ta", "fs_rp_mc"],
)
def test_metrics_snapshot_equivalent_across_engines(scheme):
    """Full telemetry under both engines yields identical snapshots.

    A fresh :class:`TelemetrySession` (registry + trace collector +
    profiler) is attached per engine — sessions accumulate, so sharing
    one across engines would double every counter.  The comparable
    snapshot excludes volatile (wall-clock / engine-internal) metrics;
    everything else — service counters, command counters, harvested
    stats/energy/core gauges, cadence histograms — must serialize
    bit-identically, as must the event streams.  The one carve-out is
    the "queues" trace track: queue occupancy sampled at service time
    depends on whether a same-cycle arrival has been enqueued yet,
    which is an engine-interleaving artifact (the matching gauge is
    flagged volatile for the same reason).
    """
    snapshots = {}
    events = {}
    for engine in ("reference", "fast"):
        session = TelemetrySession(
            collector=TraceCollector(), profile=True
        )
        options = SchemeOptions(telemetry=session, monitor=True)
        config = SystemConfig(accesses_per_core=100)
        run_scheme(
            scheme, config, suite_specs("mix1", config.num_cores),
            options, engine=engine,
        )
        snapshots[engine] = json.dumps(
            session.registry.snapshot(), sort_keys=True
        )
        events[engine] = [
            e for e in session.collector.events() if e.pid != "queues"
        ]
    assert snapshots["fast"] == snapshots["reference"], \
        "metrics snapshots diverged between engines"
    assert events["fast"] == events["reference"], \
        "trace event streams diverged between engines"


# ---------------------------------------------------------------------
# Span tracing stays inert.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("scheme", ["fs_rp", "baseline"])
def test_spans_armed_vs_disarmed_identical(scheme, engine):
    """Arming the span tracer changes no simulated observable: the
    comparable metrics snapshot and every run observable are
    byte-identical with and without spans, on both engines — and the
    armed run actually recorded the engine's span tree."""
    from repro.telemetry import SpanTracer

    outputs = {}
    for armed in (False, True):
        tracer = SpanTracer() if armed else None
        session = TelemetrySession(
            collector=TraceCollector(), tracer=tracer
        )
        config = SystemConfig(accesses_per_core=100)
        result = run_scheme(
            scheme, config, suite_specs("mix1", config.num_cores),
            SchemeOptions(telemetry=session), engine=engine,
        )
        outputs[armed] = (
            json.dumps(session.registry.snapshot(), sort_keys=True),
            [e for e in session.collector.events()
             if e.pid != "queues"],
            result.cycles,
            result.service_trace,
            result.cores,
        )
        if armed:
            categories = {r.category for r in tracer.records}
            assert {"run", "phase", "epoch"} <= categories
    assert outputs[True] == outputs[False], \
        "arming span tracing perturbed the run"


# ---------------------------------------------------------------------
# Certification equivalence.
# ---------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["fs_rp", "baseline"])
def test_certification_verdicts_equivalent_across_engines(scheme):
    """The same strategy seed yields the *identical* certificate on
    both engines — verdict, exact-match flag, and every MI/capacity
    number, byte for byte once serialized.

    This is what makes the fast engine a legitimate certification
    backend: a scheme cannot pass on one engine and fail on the other,
    in either direction (fs_rp certifies on both; the baseline leaks
    identically on both).
    """
    import dataclasses

    from repro.certify import certify_scheme, generate_strategies

    config = SystemConfig(num_cores=4, accesses_per_core=80) \
        .with_cores(4)
    strategies = [
        dataclasses.replace(s, trials=2)
        for s in generate_strategies(3, seed=23)
    ]
    serialized = {}
    for engine in ("reference", "fast"):
        certificate = certify_scheme(
            scheme, strategies, config=config, engine=engine
        )
        serialized[engine] = json.dumps(
            [v.to_json_dict() for v in certificate.verdicts]
            + [certificate.summary_dict()["certificate"]["certified"],
               certificate.summary_dict()["certificate"]["scheme"]],
            sort_keys=True,
        )
        assert certificate.certified == (scheme == "fs_rp")
    assert serialized["fast"] == serialized["reference"], \
        "certification verdicts diverged between engines"
