"""Tests for the unified telemetry layer (ISSUE 3).

The three pinned properties:

(a) telemetry is **inert**: a run without a session records zero events,
    and attaching one changes no simulated observable;
(b) the **invariance picture**: every FS scheme yields a degenerate
    (single-bucket) inter-service-time histogram per domain, FR-FCFS a
    spread;
(c) the Chrome trace export is valid JSON with monotonically
    non-decreasing timestamps within every (pid, tid) track.

Plus unit coverage of the registry (determinism, label validation,
Prometheus exposition, volatile exclusion), the collector (ring bound,
JSONL sink, friendly path errors), fault/monitor streaming, and the CLI
surfaces (``run --metrics/--trace``, ``stats``, ``trace``).
"""

import dataclasses
import io
import json
from collections import defaultdict

import pytest

from repro.errors import TelemetryError
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system, run_scheme
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySession,
    TraceCollector,
    chrome_trace_dict,
    export_chrome_trace,
    inter_service_histogram,
    is_degenerate,
)
from repro.telemetry.report import histogram_report
from repro.workloads.spec import suite_specs


def _small_config(cores: int = 2, accesses: int = 60) -> SystemConfig:
    config = SystemConfig(accesses_per_core=accesses)
    if cores != config.num_cores:
        config = config.with_cores(cores)
    return config


def _run(scheme, options=None, cores=2, accesses=60, engine="reference"):
    config = _small_config(cores, accesses)
    system = build_system(
        scheme, config, suite_specs("mix1", cores), options,
        engine=engine,
    )
    return system.run(), system.controller


# ---------------------------------------------------------------------
# (a) Disabled telemetry is inert.
# ---------------------------------------------------------------------


def test_disabled_telemetry_records_nothing():
    """No session attached => no events, no metrics, plain attrs."""
    result, controller = _run("fs_bp")
    assert controller.telemetry is None
    assert result.cycles > 0


@pytest.mark.parametrize("scheme", ["fs_bp", "baseline"])
def test_enabling_telemetry_does_not_change_observables(scheme):
    """Collection is passive: every observable is bit-identical with
    and without a session attached."""
    bare, _ = _run(scheme)
    session = TelemetrySession(collector=TraceCollector())
    observed, _ = _run(scheme, SchemeOptions(telemetry=session))
    assert observed.cycles == bare.cycles
    assert observed.service_trace == bare.service_trace
    assert observed.energy == bare.energy
    assert observed.cores == bare.cores
    assert observed.bus_utilization == bare.bus_utilization
    for f in dataclasses.fields(type(bare.stats)):
        assert getattr(observed.stats, f.name) == \
            getattr(bare.stats, f.name), f.name
    # ... and the session actually saw the run.
    assert session.collector.total_events > 0
    svc = session.registry.get("service_events_total")
    total = sum(v for _, v in svc.samples())
    assert total == sum(
        len(events) for events in observed.service_trace.values()
    )


# ---------------------------------------------------------------------
# (b) The invariance picture.
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme", ["fs_rp", "fs_bp", "fs_np", "fs_np_ta", "fs_reordered_bp"]
)
def test_fs_histograms_degenerate(scheme):
    """Fixed Service: every domain's service cadence is one constant."""
    result, _ = _run(scheme, accesses=80)
    histograms = inter_service_histogram(result.service_trace)
    assert is_degenerate(histograms), histogram_report(
        histograms, scheme
    )
    for domain, hist in histograms.items():
        assert len(hist) == 1, (domain, dict(hist))


@pytest.mark.parametrize("scheme", ["baseline", "tp_bp"])
def test_insecure_histograms_spread(scheme):
    """FR-FCFS / TP: the spacing is workload-dependent (many buckets)."""
    result, _ = _run(scheme, accesses=120)
    histograms = inter_service_histogram(result.service_trace)
    assert not is_degenerate(histograms)
    assert any(len(h) > 4 for h in histograms.values())
    assert "timing channel" in histogram_report(histograms, scheme)


def test_histogram_kinds_filter():
    result, _ = _run("fs_bp")
    demand_only = inter_service_histogram(
        result.service_trace, kinds=("R", "W")
    )
    everything = inter_service_histogram(result.service_trace)
    for domain in everything:
        assert sum(demand_only[domain].values()) <= sum(
            everything[domain].values()
        )


# ---------------------------------------------------------------------
# (c) Chrome trace export.
# ---------------------------------------------------------------------


def test_chrome_trace_valid_and_monotonic():
    session = TelemetrySession(collector=TraceCollector())
    result, controller = _run(
        "fs_bp", SchemeOptions(telemetry=session, monitor=True)
    )
    session.harvest(result, controller)
    buf = io.StringIO()
    exported = export_chrome_trace(
        session.collector, buf, metadata={"scheme": "fs_bp"}
    )
    assert exported == session.collector.total_events
    payload = json.loads(buf.getvalue())
    assert payload["otherData"]["scheme"] == "fs_bp"
    per_track = defaultdict(list)
    names = {"process_name": 0, "thread_name": 0}
    for event in payload["traceEvents"]:
        if event["name"] in names:
            names[event["name"]] += 1
            continue
        per_track[(event["pid"], event["tid"])].append(event["ts"])
    assert names["process_name"] > 0 and names["thread_name"] > 0
    assert per_track, "no non-metadata events exported"
    for track, stamps in per_track.items():
        assert stamps == sorted(stamps), track


def test_chrome_trace_deterministic_ids():
    events = [
        dict(ts=5, pid="b", tid="y", name="n2", ph="i", dur=0, args=None),
        dict(ts=1, pid="a", tid="x", name="n1", ph="X", dur=3,
             args={"k": 1}),
    ]
    from repro.telemetry import TraceEvent

    payload = chrome_trace_dict([TraceEvent(**e) for e in events])
    body = [e for e in payload["traceEvents"]
            if e["name"] not in ("process_name", "thread_name")]
    assert [e["name"] for e in body] == ["n1", "n2"]
    assert body[0]["dur"] == 3 and body[0]["args"] == {"k": 1}


# ---------------------------------------------------------------------
# Registry unit behaviour.
# ---------------------------------------------------------------------


def test_registry_counter_gauge_histogram():
    registry = MetricsRegistry()
    c = registry.counter("c_total", "help", ("kind",))
    c.inc(kind="a")
    c.inc(2, kind="a")
    c.inc(kind="b")
    assert c.value(kind="a") == 3
    assert c.value(kind="never") == 0
    g = registry.gauge("g", "help")
    g.set(4.5)
    g.inc(0.5)
    assert g.value() == 5.0
    h = registry.histogram("h", "help", buckets=(1, 10, 100))
    for v in (0, 5, 50, 500):
        h.observe(v)
    sample = h.snapshot_samples()[""]
    assert sample["count"] == 4 and sample["sum"] == 555
    assert sample["overflow"] == 1


def test_registry_rejects_misuse():
    registry = MetricsRegistry()
    c = registry.counter("x_total", labelnames=("kind",))
    with pytest.raises(TelemetryError):
        c.inc()  # missing label
    with pytest.raises(TelemetryError):
        c.inc(kind="a", extra="b")
    with pytest.raises(TelemetryError):
        c.inc(-1, kind="a")
    with pytest.raises(TelemetryError):
        registry.gauge("x_total")  # kind mismatch
    with pytest.raises(TelemetryError):
        registry.counter("x_total", labelnames=("other",))
    # Idempotent get-or-create with matching shape is fine.
    assert registry.counter("x_total", labelnames=("kind",)) is c


def test_registry_snapshot_excludes_volatile_and_sorts():
    registry = MetricsRegistry()
    registry.counter("b_total").inc(1)
    registry.counter("a_total").inc(2)
    registry.gauge("wall_seconds", volatile=True).set(1.23)
    snap = registry.snapshot()
    assert list(snap) == ["a_total", "b_total"]
    assert "wall_seconds" not in snap
    # ...but the full JSON export keeps it, flagged.
    full = registry.to_json_dict()["metrics"]
    assert full["wall_seconds"]["volatile"] is True
    # Snapshots of equal state are byte-identical.
    other = MetricsRegistry()
    other.counter("a_total").inc(2)
    other.counter("b_total").inc(1)
    other.gauge("wall_seconds", volatile=True).set(9.87)
    assert json.dumps(snap, sort_keys=True) == json.dumps(
        other.snapshot(), sort_keys=True
    )


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter(
        "faults_injected_total", "faults that struck", ("kind",)
    ).inc(3, kind="drop_command")
    registry.histogram("lat", "latency", buckets=(1, 2)).observe(1.5)
    text = registry.to_prometheus()
    assert "# TYPE faults_injected_total counter" in text
    assert 'faults_injected_total{kind="drop_command"} 3' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_sum 1.5" in text and "lat_count 1" in text


def test_prometheus_every_family_has_help_and_type():
    """Exposition-format conformance: each family leads with exactly
    one ``# HELP`` and one ``# TYPE`` line, in that order."""
    session = TelemetrySession()
    result, controller = _run(
        "fs_bp", SchemeOptions(telemetry=session), accesses=40
    )
    session.harvest(result, controller)
    text = session.registry.to_prometheus()
    families = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("# TYPE "):
            name = line.split()[2]
            families.append(name)
            prev = lines[i - 1] if i else ""
            assert prev.startswith(f"# HELP {name}"), name
    assert families, "no families exposed"
    assert len(families) == len(set(families))


def test_prometheus_label_escaping_round_trip():
    from repro.telemetry import parse_prometheus_text

    registry = MetricsRegistry()
    nasty = 'back\\slash "quoted"\nnewline'
    registry.counter(
        "odd_labels_total", 'help with "quotes" and \\slashes',
        ("path",),
    ).inc(2, path=nasty)
    registry.gauge("bare", "").set(1.5)  # empty help: bare # HELP line
    registry.histogram("h", "hist", buckets=(1,)).observe(0.5)
    text = registry.to_prometheus()
    assert '\\"quoted\\"' in text and "\\n" in text
    parsed = parse_prometheus_text(text)
    assert parsed["odd_labels_total"]["type"] == "counter"
    assert parsed["odd_labels_total"]["help"] == \
        'help with "quotes" and \\slashes'
    ((sample_name, labels, value),) = \
        parsed["odd_labels_total"]["samples"]
    assert labels == {"path": nasty}  # escaping survived the trip
    assert value == 2
    assert parsed["bare"]["samples"] == [("bare", {}, 1.5)]
    # Histogram series fold back into one family.
    sample_names = {s[0] for s in parsed["h"]["samples"]}
    assert {"h_bucket", "h_sum", "h_count"} <= sample_names


def test_prometheus_parse_round_trips_whole_run():
    """Parsing a full run's exposition recovers every family and every
    sample value — the conformance gate for external scrapers."""
    from repro.telemetry import parse_prometheus_text

    session = TelemetrySession()
    result, controller = _run(
        "fs_bp", SchemeOptions(telemetry=session), accesses=40
    )
    session.harvest(result, controller)
    registry = session.registry
    parsed = parse_prometheus_text(registry.to_prometheus())
    exposed = {m.name for m in registry.metrics()}
    assert set(parsed) == exposed
    svc = registry.get("service_events_total")
    expected = {
        tuple(key): value for key, value in svc.samples()
    }
    got = {
        tuple(labels[n] for n in ("domain", "kind")): value
        for _, labels, value in
        parsed["service_events_total"]["samples"]
    }
    assert got == {
        tuple(str(part) for part in key): value
        for key, value in expected.items()
    }


def test_prometheus_parse_rejects_malformed():
    from repro.telemetry import parse_prometheus_text

    with pytest.raises(TelemetryError):
        parse_prometheus_text('x{unterminated="v\n')
    with pytest.raises(TelemetryError):
        parse_prometheus_text("lonely_number_is_not_a_sample\n")


# ---------------------------------------------------------------------
# Structured logging (satellite: repro.telemetry.log).
# ---------------------------------------------------------------------


def _capture_log(level="INFO"):
    import logging

    from repro.telemetry.log import JsonLineFormatter

    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLineFormatter())
    root = logging.getLogger("repro")
    root.addHandler(handler)
    old_level = root.level
    root.setLevel(level)
    return stream, handler, old_level


def _release_log(handler, old_level):
    import logging

    root = logging.getLogger("repro")
    root.removeHandler(handler)
    root.setLevel(old_level)


def test_structured_logger_emits_json_lines():
    from repro.telemetry import get_logger, get_run_id

    stream, handler, old = _capture_log()
    try:
        log = get_logger("unit")
        log.info("cell done", extra={
            "scheme": "fs_rp", "cycles": 123,
            "unserializable": object(),
        })
    finally:
        _release_log(handler, old)
    line = json.loads(stream.getvalue().strip())
    assert line["logger"] == "repro.unit"
    assert line["level"] == "INFO"
    assert line["msg"] == "cell done"
    assert line["scheme"] == "fs_rp" and line["cycles"] == 123
    assert line["run_id"] == get_run_id()
    assert "object object" in line["unserializable"]  # repr fallback


def test_run_id_correlates_and_pins():
    from repro.telemetry import get_run_id, set_run_id

    original = get_run_id()
    assert get_run_id() == original  # stable within the process
    try:
        set_run_id("deadbeef0123")
        assert get_run_id() == "deadbeef0123"
    finally:
        set_run_id(original)


def test_configure_levels_and_rejects_unknown():
    import logging

    from repro.telemetry import configure

    root = logging.getLogger("repro")
    old = root.level
    try:
        configure("debug")
        assert root.level == logging.DEBUG
        with pytest.raises(TelemetryError, match="unknown log level"):
            configure("chatty")
    finally:
        root.setLevel(old)


def test_sweep_logs_cells_with_run_id():
    """The sweep executor reports each finished cell as JSON."""
    from repro.sim.sweep import Sweep

    stream, handler, old = _capture_log()
    try:
        sweep = Sweep(_small_config(), max_cycles=2_000_000)
        sweep.run_grid(["fs_bp"], ["mix1"])
    finally:
        _release_log(handler, old)
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    cells = [l for l in lines if l["msg"] == "cell done"]
    assert len(cells) == 1
    assert cells[0]["logger"] == "repro.sweep"
    assert cells[0]["scheme"] == "fs_bp"
    assert cells[0]["cycles"] > 0
    assert len({l["run_id"] for l in lines}) == 1


def test_log_duration_context():
    from repro.telemetry import get_logger
    from repro.telemetry.log import log_duration

    stream, handler, old = _capture_log()
    try:
        log = get_logger("unit")
        with log_duration(log, "timed", phase="x"):
            pass
        with pytest.raises(ValueError):
            with log_duration(log, "failed"):
                raise ValueError("boom")
    finally:
        _release_log(handler, old)
    ok, bad = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert ok["msg"] == "timed" and ok["wall_s"] >= 0
    assert ok["phase"] == "x"
    assert bad["level"] == "WARNING" and bad["outcome"] == "error"


def test_cli_log_level_flag():
    """``--log-level info`` raises the shared level for the whole
    invocation, so executor progress lines actually emit."""
    import logging

    root = logging.getLogger("repro")
    old = root.level
    root.setLevel(logging.WARNING)  # the quiet default
    stream, handler, _ = _capture_log(level="WARNING")
    try:
        code = _cli([
            "--log-level", "info", "sweep", "--schemes", "fs_bp",
            "--workloads", "mix1", "--cores", "2", "--accesses", "40",
        ])
        assert code == 0
        assert root.level == logging.INFO  # the flag took effect
    finally:
        _release_log(handler, old)
    cell_lines = [
        json.loads(l) for l in stream.getvalue().splitlines()
        if '"cell done"' in l
    ]
    assert cell_lines and cell_lines[0]["scheme"] == "fs_bp"


# ---------------------------------------------------------------------
# Collector behaviour.
# ---------------------------------------------------------------------


def test_collector_ring_bound_and_sink():
    sink = io.StringIO()
    collector = TraceCollector(capacity=4, sink=sink)
    for i in range(10):
        collector.record(i, "p", "t", f"e{i}")
    assert len(collector) == 4
    assert collector.total_events == 10
    assert collector.dropped_events == 6
    assert [e.name for e in collector.events()] == \
        ["e6", "e7", "e8", "e9"]
    # The sink streamed *every* event as JSONL despite the ring bound.
    lines = [json.loads(l) for l in sink.getvalue().splitlines()]
    assert len(lines) == 10
    assert lines[0]["name"] == "e0" and lines[0]["ts"] == 0


def test_collector_bad_path_is_friendly():
    with pytest.raises(TelemetryError):
        TraceCollector(sink="/nonexistent-dir/trace.jsonl")
    with pytest.raises(TelemetryError):
        TraceCollector(capacity=0)


# ---------------------------------------------------------------------
# Fault and monitor streaming (satellite 6).
# ---------------------------------------------------------------------


def test_fault_events_stream_into_labeled_counters():
    from repro.faults import FaultPlan

    plan = FaultPlan.parse("drop_command:0.05,delay_slot:0.05", seed=3)
    session = TelemetrySession(collector=TraceCollector())
    options = SchemeOptions(telemetry=session, faults=plan, monitor=True)
    result, controller = _run("fs_bp", options, accesses=120)
    assert result.faults, "campaign struck nothing; raise the rates"
    faults = session.registry.get("faults_injected_total")
    for kind, count in result.faults.items():
        assert faults.value(kind=kind) == count
    recoveries = session.registry.get("recoveries_total")
    assert recoveries.value() == sum(result.faults.values())
    assert any(
        e.pid == "faults" for e in session.collector.events()
    )
    # Clean run: the watchdog stayed green and said so via the gauges.
    session.harvest(result, controller)
    assert session.registry.get("monitor_ok").value() == 1
    assert session.registry.get("monitor_violations_total").value() == 0


def test_violations_stream_live():
    from repro.faults import FaultPlan

    plan = FaultPlan.parse("borrow_foreign_slot:0.2", seed=1)
    session = TelemetrySession(collector=TraceCollector())
    options = SchemeOptions(telemetry=session, faults=plan, monitor=True)
    result, controller = _run("fs_bp", options, accesses=120)
    monitor = controller.monitor
    assert monitor.total_violations > 0, \
        "broken recovery must trip the watchdog"
    live = session.registry.get("monitor_violations_total")
    assert live.value() == monitor.total_violations
    session.harvest(result, controller)
    assert session.registry.get("monitor_ok").value() == 0


# ---------------------------------------------------------------------
# Harvest.
# ---------------------------------------------------------------------


def test_harvest_covers_legacy_structs():
    session = TelemetrySession()
    config = _small_config()
    result = run_scheme(
        "fs_bp", config, suite_specs("mix1", 2),
        SchemeOptions(telemetry=session), engine="fast",
    )
    registry = session.registry
    assert registry.get("run_cycles").value() == result.cycles
    assert registry.get("controller_dummies_total").value() == \
        result.stats.dummies
    assert registry.get("energy_total_pj").value() == pytest.approx(
        result.energy.total_pj, abs=0.01
    )
    for core in result.cores:
        assert registry.get("core_ipc").value(domain=core.domain) == \
            pytest.approx(core.ipc, abs=1e-6)
    spread = registry.get("inter_service_distinct_gaps")
    for domain in result.service_trace:
        assert spread.value(domain=domain) == 1
    assert registry.get("service_cadence_degenerate").value() == 1


def test_multichannel_domains_relabeled_globally():
    session = TelemetrySession()
    config = _small_config(cores=8, accesses=40)
    run_scheme(
        "fs_rp_mc", config, suite_specs("mix1", 8),
        SchemeOptions(telemetry=session), engine="fast",
    )
    svc = session.registry.get("service_events_total")
    domains = sorted({int(key[0]) for key, _ in svc.samples()})
    assert domains == list(range(8))


# ---------------------------------------------------------------------
# CLI surfaces (satellite 2).
# ---------------------------------------------------------------------


def _cli(argv):
    from repro.cli import main

    return main(argv)


def test_cli_run_metrics_and_trace(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    trace = tmp_path / "t.trace.json"
    code = _cli([
        "run", "fs_bp", "mix1", "--cores", "2", "--accesses", "40",
        "--metrics", str(metrics), "--trace", str(trace),
    ])
    assert code == 0
    data = json.loads(metrics.read_text())
    assert "service_events_total" in data["metrics"]
    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]


def test_cli_run_bad_metrics_path_fails_fast(capsys):
    code = _cli([
        "run", "fs_bp", "mix1", "--cores", "2", "--accesses", "40",
        "--metrics", "/nonexistent-dir/m.json",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "TelemetryError" in err and "nonexistent-dir" in err


def test_cli_stats_verdicts(tmp_path, capsys):
    prom = tmp_path / "m.prom"
    code = _cli([
        "stats", "fs_bp", "mix1", "--cores", "2", "--accesses", "40",
        "--metrics", str(prom),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "FIXED CADENCE" in out
    assert "# TYPE service_events_total counter" in prom.read_text()
    code = _cli([
        "stats", "baseline", "mix1", "--cores", "2",
        "--accesses", "40",
    ])
    assert code == 0  # insecure scheme: spread is expected, not an error
    assert "timing channel" in capsys.readouterr().out


def test_cli_trace_subcommand(tmp_path, capsys):
    out_path = tmp_path / "run.trace.json"
    code = _cli([
        "trace", "fs_bp", "mix1", "--cores", "2", "--accesses", "40",
        str(out_path),
    ])
    assert code == 0
    assert "perfetto" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["traceEvents"]


def test_cli_sweep_metrics_artifact(tmp_path):
    metrics = tmp_path / "grid.json"
    code = _cli([
        "sweep", "--schemes", "fs_bp", "--workloads", "mix1",
        "--cores", "2", "--accesses", "40", "--metrics", str(metrics),
    ])
    assert code == 0
    data = json.loads(metrics.read_text())
    assert data["metrics"]["sweep_cells_total"]["samples"][""] == 1
