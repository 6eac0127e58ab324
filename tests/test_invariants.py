"""Tests for the runtime FS security invariants."""

import pytest

from repro.core.invariants import (
    assert_non_interference,
    check_constant_service,
    check_schedule_conformance,
)
from repro.core.online_monitor import OnlineInvariantMonitor
from repro.core.pipeline_solver import SharingLevel
from repro.core.schedule import build_fs_schedule
from repro.dram.timing import DDR3_1600_X4
from repro.sim.config import SystemConfig
from repro.sim.runner import build_system
from repro.workloads.spec import suite_specs, workload

P = DDR3_1600_X4
CFG = SystemConfig(accesses_per_core=250)


def run_fs(workload_name="milc"):
    system = build_system("fs_rp", CFG, suite_specs(workload_name, 8))
    system.run(max_cycles=3_000_000)
    return system.controller


def offline_and_live(schedule, trace):
    """One rule set, two feeds: what the offline functions flag
    together, and what the monitor flags when fed the trace live."""
    offline = (
        check_schedule_conformance(schedule, trace)
        + check_constant_service(schedule, trace)
    )
    monitor = OnlineInvariantMonitor(P, schedule=schedule)
    for cycle, domain, kind in sorted(
        (cycle, domain, kind)
        for domain, events in trace.items() for cycle, kind in events
    ):
        monitor.observe_service(domain, cycle, kind)
    monitor.finalize()

    def key(v):
        return v.domain, v.cycle, v.reason

    return sorted(offline, key=key), sorted(monitor.violations, key=key)


class TestScheduleConformance:
    def test_real_run_conforms(self):
        ctrl = run_fs()
        violations = check_schedule_conformance(
            ctrl.schedule, ctrl.service_trace
        )
        assert violations == []
        assert offline_and_live(ctrl.schedule, ctrl.service_trace) == ([], [])

    def test_detects_foreign_offset(self):
        schedule = build_fs_schedule(P, 8, SharingLevel.RANK)
        trace = {d: [] for d in range(8)}
        # Domain 3 "served" at domain 0's slot offset.
        trace[3] = [(schedule.lead + 0, "R")]
        violations = check_schedule_conformance(schedule, trace)
        assert violations and "foreign offset" in violations[0].reason
        offline, live = offline_and_live(schedule, trace)
        assert live == offline
        assert any("foreign offset" in v.reason for v in live)

    def test_detects_double_service(self):
        schedule = build_fs_schedule(P, 8, SharingLevel.RANK)
        anchor = schedule.lead + schedule.slots[2].anchor_offset
        trace = {d: [] for d in range(8)}
        trace[2] = [(anchor, "R"), (anchor, "R")]
        violations = check_schedule_conformance(schedule, trace)
        assert any("more than once" in v.reason for v in violations)
        offline, live = offline_and_live(schedule, trace)
        assert live == offline
        assert any("more than once" in v.reason for v in live)


class TestConstantService:
    def test_real_run_is_constant_rate(self):
        ctrl = run_fs()
        violations = check_constant_service(
            ctrl.schedule, ctrl.service_trace
        )
        assert violations == []
        assert offline_and_live(ctrl.schedule, ctrl.service_trace) == ([], [])

    def test_detects_starved_domain(self):
        schedule = build_fs_schedule(P, 8, SharingLevel.RANK)
        q = schedule.interval_length
        # Domain 5 starved: served a few slots, or never served at all.
        for starved in (3, 0):
            trace = {d: [] for d in range(8)}
            for d in range(8):
                count = 100 if d != 5 else starved
                offset = schedule.slots_of_domain(d)[0].anchor_offset
                trace[d] = [
                    (schedule.lead + i * q + offset, "R")
                    for i in range(count)
                ]
            violations = check_constant_service(schedule, trace)
            assert any(v.domain == 5 for v in violations)
            offline, live = offline_and_live(schedule, trace)
            assert live == offline
            assert any(v.domain == 5 for v in live)

    def test_empty_trace_ok(self):
        schedule = build_fs_schedule(P, 4, SharingLevel.RANK)
        assert check_constant_service(
            schedule, {d: [] for d in range(4)}
        ) == []
        assert offline_and_live(schedule, {d: [] for d in range(4)}) == ([], [])


class TestAssertNonInterference:
    def test_passes_for_fs(self):
        assert_non_interference(
            "fs_rp", workload("xalancbmk"),
            config=SystemConfig(accesses_per_core=120),
        )

    def test_raises_for_baseline(self):
        with pytest.raises(AssertionError, match="leaks"):
            assert_non_interference(
                "baseline", workload("mcf"),
                config=SystemConfig(accesses_per_core=200),
            )
