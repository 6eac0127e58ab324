"""A span tracer alone takes the untraced code path.

Span tracing and run timing belong to the driver: ``SchemeOptions.tracer``
reaches ``System.tracer`` and never the controller.  So a trusted Fixed
Service run with only a tracer settles its DRAM counters in closed form,
exactly like an untraced run (no ``Channel.issue_trusted`` call), and
every observable is identical.  What makes a run *observed* is a command
log, an online monitor or a
:class:`~repro.telemetry.session.TelemetrySession`: with a session
attached, the controller still issues command by command.
"""

import dataclasses

import pytest

from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.telemetry import SpanTracer, TelemetrySession
from repro.workloads.spec import suite_specs

from .engine_equivalence import MAX_CYCLES, dram_counters

SCHEMES = ["fs_rp", "fs_bp", "fs_rp_mc"]


def _run(scheme, options=None):
    """One fast-engine run, counting ``issue_trusted`` calls the way
    perfbench wraps them: on each channel of the built system."""
    config = SystemConfig(accesses_per_core=80).with_cores(4)
    system = build_system(
        scheme, config, suite_specs("mix1", 4), options, engine="fast"
    )
    calls = []
    for channel in system.controller.dram.channels:
        def counted(command, _issue=channel.issue_trusted):
            calls.append(command.cycle)
            return _issue(command)

        channel.issue_trusted = counted
    result = system.run(max_cycles=MAX_CYCLES)
    return result, system.controller, len(calls)


def _observables(result, controller):
    return (
        result.cycles,
        dataclasses.asdict(result.stats),
        result.service_trace,
        result.energy,
        result.cores,
        dram_counters(controller),
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tracer_alone_takes_the_untraced_path(scheme):
    plain, plain_controller, plain_calls = _run(scheme)
    tracer = SpanTracer()
    traced, traced_controller, traced_calls = _run(
        scheme, SchemeOptions(tracer=tracer)
    )
    assert plain_calls == 0
    assert traced_calls == 0, "a tracer made the run observed"
    assert traced_controller.telemetry is None
    categories = {record.category for record in tracer.records}
    assert {"run", "phase", "epoch"} <= categories
    run = next(r for r in tracer.records if r.category == "run")
    assert run.end == traced.cycles
    assert run.args["engine"] == "fast" and run.args["wall_s"] > 0
    assert _observables(traced, traced_controller) == \
        _observables(plain, plain_controller)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_session_still_observes_per_command(scheme):
    session = TelemetrySession()
    observed, controller, calls = _run(
        scheme, SchemeOptions(telemetry=session, tracer=SpanTracer())
    )
    plain, plain_controller, _ = _run(scheme)
    assert calls > 0
    assert _observables(observed, controller) == \
        _observables(plain, plain_controller)
    commands = session.registry.get("commands_issued_total")
    assert sum(value for _, value in commands.samples()) == calls
