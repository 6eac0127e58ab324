"""Hierarchical span tracing (the Run Observatory tentpole).

Pinned properties:

* the tracer builds a well-formed tree (nesting enforced, parent/seq
  links consistent) on deterministic clocks only;
* both engines emit byte-identical span records for the same run, and
  arming a tracer changes no simulated observable (inertness);
* the Chrome export is canonical: stable ordering, volatile ``wall_*``
  args stripped by :func:`scrub_volatile_args`, one serialization;
* the HTML run report renders every section and stays self-contained.
"""

import io
import json

import pytest

from repro.errors import TelemetryError
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, run_scheme
from repro.telemetry import (
    EPOCH_CYCLES,
    SpanRecord,
    SpanTracer,
    TelemetrySession,
    export_span_trace,
    chrome_trace_dict,
    render_report,
    scrub_volatile_args,
    spans_to_events,
    write_trace_dict,
)
from repro.workloads.spec import suite_specs


# ---------------------------------------------------------------------
# Tracer unit behaviour.
# ---------------------------------------------------------------------


def test_begin_end_builds_tree():
    tracer = SpanTracer(track="t")
    outer = tracer.begin("outer", "run")
    inner = tracer.begin("inner", "phase")
    tracer.end(inner)
    tracer.end(outer)
    # Records land in completion order (innermost first).
    assert [r.name for r in tracer.records] == ["inner", "outer"]
    by_name = {r.name: r for r in tracer.records}
    assert by_name["inner"].parent == by_name["outer"].seq
    assert by_name["outer"].parent == -1
    assert by_name["inner"].depth == 1
    assert by_name["outer"].depth == 0
    # Logical clock: begin/end each tick, so extents nest strictly.
    assert by_name["outer"].start < by_name["inner"].start
    assert by_name["inner"].end < by_name["outer"].end


def test_end_out_of_order_raises():
    tracer = SpanTracer()
    outer = tracer.begin("outer", "run")
    tracer.begin("inner", "phase")
    with pytest.raises(TelemetryError, match="out of order"):
        tracer.end(outer)


def test_span_context_manager_and_args_merge():
    tracer = SpanTracer()
    with tracer.span("work", "cell", args={"k": 1}):
        pass
    seq = tracer.begin("more", "cell", args={"a": 1})
    tracer.end(seq, args={"b": 2})
    assert tracer.records[0].args == {"k": 1}
    assert tracer.records[1].args == {"a": 1, "b": 2}


def test_complete_attaches_to_innermost_open():
    tracer = SpanTracer()
    outer = tracer.begin("outer", "run", start=0)
    tracer.complete("slice", "epoch", 0, 10)
    tracer.end(outer, end=10)
    slice_rec = next(r for r in tracer.records if r.name == "slice")
    assert slice_rec.parent == 0 and slice_rec.depth == 1
    assert (slice_rec.start, slice_rec.end) == (0, 10)


def test_adopt_retracks_and_accepts_raw_tuples():
    child = SpanTracer(track="child")
    with child.span("cell", "cell"):
        pass
    parent = SpanTracer(track="grid")
    # A spawn worker ships plain tuples; adopt must rebuild records.
    shipped = [tuple(r) for r in child.records]
    count = parent.adopt(shipped, track="grid cell 0")
    assert count == 1
    assert parent.records[0].track == "grid cell 0"
    assert parent.records[0].name == "cell"
    assert isinstance(parent.records[0], SpanRecord)


def test_record_engine_run_epoch_math():
    tracer = SpanTracer()
    cycles = 2 * EPOCH_CYCLES + 17
    tracer.record_engine_run(
        "fs_rp", "fast", cycles, wall_seconds=0.5
    )
    epochs = [r for r in tracer.records if r.category == "epoch"]
    assert len(epochs) == 3
    assert epochs[0].start == 0 and epochs[0].end == EPOCH_CYCLES
    assert epochs[-1].end == cycles
    run = next(r for r in tracer.records if r.category == "run")
    assert (run.start, run.end) == (0, cycles)
    assert run.args["engine"] == "fast"
    assert run.args["wall_s"] == 0.5
    phases = [r.name for r in tracer.records if r.category == "phase"]
    assert phases == ["main-loop", "finalize"]


def test_summary_aggregates_deterministically():
    tracer = SpanTracer()
    tracer.record_engine_run("fs_rp", "fast", EPOCH_CYCLES * 2)
    summary = tracer.summary()
    keys = [(e["category"], e["name"]) for e in summary]
    assert keys == sorted(keys)
    epoch_rows = [e for e in summary if e["category"] == "epoch"]
    assert sum(e["count"] for e in epoch_rows) == 2
    assert all(e["total"] >= e["max"] for e in summary)


# ---------------------------------------------------------------------
# Export canonicalization.
# ---------------------------------------------------------------------


def test_spans_to_events_and_scrub():
    tracer = SpanTracer(track="grid")
    seq = tracer.begin("cell", "cell", args={"wall_s": 1.25, "k": 3})
    tracer.end(seq)
    events = spans_to_events(tracer.records)
    assert events[0].pid == "spans" and events[0].tid == "grid"
    assert events[0].ph == "X"
    payload = chrome_trace_dict(events)
    scrubbed = scrub_volatile_args(payload)
    raw_args = [e.get("args", {}) for e in payload["traceEvents"]
                if e.get("name") == "cell"]
    clean_args = [e.get("args", {}) for e in scrubbed["traceEvents"]
                  if e.get("name") == "cell"]
    assert any("wall_s" in a for a in raw_args)  # export keeps it
    assert all("wall_s" not in a for a in clean_args)
    assert all(a.get("k") == 3 for a in clean_args)
    # scrub deep-copies: the input payload is untouched.
    assert any("wall_s" in a for a in raw_args)


def test_write_trace_dict_is_canonical():
    tracer = SpanTracer()
    with tracer.span("a", "cell"):
        pass
    first, second = io.StringIO(), io.StringIO()
    export_span_trace(tracer, first)
    export_span_trace(tracer, second, metadata={"z": 1, "a": 2})
    assert first.getvalue().endswith("\n")
    body = json.loads(first.getvalue())
    assert body["traceEvents"]
    # sort_keys + compact separators: re-serializing reproduces bytes.
    assert json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ) + "\n" == first.getvalue()
    other = json.loads(second.getvalue())["otherData"]
    assert other["z"] == 1 and other["a"] == 2


def test_write_trace_dict_bad_path_is_friendly(tmp_path):
    with pytest.raises(TelemetryError):
        write_trace_dict({"traceEvents": []},
                         "/nonexistent-dir/out.json")


# ---------------------------------------------------------------------
# Engine integration: determinism and inertness.
# ---------------------------------------------------------------------


def _engine_spans(engine, scheme="fs_rp"):
    tracer = SpanTracer()
    config = SystemConfig(accesses_per_core=60).with_cores(2)
    result = run_scheme(
        scheme, config, suite_specs("mix1", 2),
        SchemeOptions(tracer=tracer), engine=engine,
    )
    return tracer, result


@pytest.mark.parametrize("scheme", ["fs_rp", "baseline"])
def test_engine_spans_identical_across_engines(scheme):
    """Span extents are pure functions of the engine-identical final
    clock; only the ``engine`` tag and volatile ``wall_s`` differ."""
    serialized = {}
    for engine in ("reference", "fast"):
        tracer, _ = _engine_spans(engine, scheme)
        payload = scrub_volatile_args(
            chrome_trace_dict(tracer.to_events())
        )
        for event in payload["traceEvents"]:
            if isinstance(event.get("args"), dict):
                event["args"].pop("engine", None)
        serialized[engine] = json.dumps(payload, sort_keys=True)
    assert serialized["fast"] == serialized["reference"]


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_engine_run_span_covers_clock(engine):
    tracer, result = _engine_spans(engine)
    run = next(r for r in tracer.records if r.category == "run")
    assert run.end == result.cycles
    assert run.args["engine"] == engine
    assert run.args["wall_s"] > 0
    epochs = [r for r in tracer.records if r.category == "epoch"]
    assert epochs[-1].end == result.cycles


# ---------------------------------------------------------------------
# HTML run report.
# ---------------------------------------------------------------------


def test_render_report_all_sections(tmp_path):
    from repro.telemetry import inter_service_histogram, write_report

    tracer, result = _engine_spans("fast")
    session = TelemetrySession()
    session.registry.counter("report_demo_total", "demo").inc(3)
    document = render_report(
        "fs_rp — test report",
        registry=session.registry,
        histograms=inter_service_histogram(result.service_trace),
        span_summary=tracer.summary(),
        metadata={"scheme": "fs_rp"},
    )
    assert document.startswith("<!DOCTYPE html>")
    for heading in ("Metrics snapshot", "Inter-service leakage",
                    "Span flamegraph summary"):
        assert heading in document
    assert "http" not in document.split("</title>")[1]  # self-contained
    out = tmp_path / "r.html"
    write_report(str(out), document)
    assert out.read_text() == document


def test_cli_report_harvests_the_run_once(tmp_path):
    """``repro report`` folds the run's stats into its registry once:
    every harvested counter equals the run's own value."""
    from repro.cli import main

    out = tmp_path / "r.html"
    code = main([
        "report", "fs_rp", "mcf", "--cores", "2", "--accesses", "40",
        "--output", str(out),
    ])
    assert code == 0
    result = run_scheme(
        "fs_rp", SystemConfig(accesses_per_core=40).with_cores(2),
        suite_specs("mcf", 2), engine="fast",
    )
    row = (
        "<tr><td>controller_demand_reads_total</td><td>counter</td>"
        f"<td>—</td><td class=\"num\">{result.stats.demand_reads}</td>"
    )
    assert row in out.read_text()
    assert "Span flamegraph summary" in out.read_text()


def test_render_report_escapes_html():
    document = render_report(
        "<script>alert(1)</script>",
        metadata={"k": "<img src=x>"},
    )
    assert "<script>alert" not in document
    assert "<img" not in document
    assert "&lt;script&gt;" in document
    assert render_report("empty").count("Nothing to report") == 1
