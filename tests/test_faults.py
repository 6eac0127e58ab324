"""Fault injection, online runtime verification, and sweep resilience.

The three acceptance properties from the robustness milestone:

(a) every FS scheme survives a full fault campaign with a *clean* online
    monitor — security-preserving recovery never deviates from the
    timetable;
(b) non-interference holds bit-for-bit even with faults enabled, because
    fault schedules are pure functions of each domain's own progress;
(c) a deliberately broken recovery policy (borrowing a foreign slot) is
    caught by the watchdog the cycle it happens, with a structured
    :class:`ScheduleViolationError` naming domain and cycle.

Plus: the offline replays and the live monitor flag the same violations
on perturbed command streams and service traces, and sweep
checkpoint/resume reproduces an interrupted grid exactly.
"""

import dataclasses
import functools
import json
import random

import pytest

from repro.core.invariants import (
    InvariantViolation,
    check_constant_service,
    check_schedule_conformance,
)
from repro.core.online_monitor import OnlineInvariantMonitor
from repro.dram.checker import TimingChecker, Violation
from repro.dram.timing import DDR3_1600_X4
from repro.errors import (
    ConfigError,
    FaultInjectionError,
    ReproError,
    ScheduleViolationError,
    SimTimeoutError,
    TraceError,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.mapping.address import Geometry
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system, run_scheme
from repro.sim.sweep import FailedPoint, Sweep
from repro.workloads.spec import suite_specs, workload
from repro.workloads.synthetic import generate_trace


FS_SCHEMES = ["fs_rp", "fs_bp", "fs_np", "fs_np_ta", "fs_reordered_bp"]

#: A campaign arming every recoverable fault model at a punishing rate.
FULL_CAMPAIGN = FaultPlan.parse(
    "drop_command:0.05,duplicate_command:0.05,delay_slot:0.03,"
    "refresh_collision:0.02,corrupt_trace:0.02,queue_overflow:0.02",
    seed=11,
)


def small_config(cores: int = 8, accesses: int = 120) -> SystemConfig:
    return SystemConfig(num_cores=cores, accesses_per_core=accesses)


# ---------------------------------------------------------------------------
# Exception hierarchy.
# ---------------------------------------------------------------------------


class TestErrorHierarchy:
    def test_all_under_repro_error(self):
        for exc_type in (ConfigError, TraceError, ScheduleViolationError,
                         FaultInjectionError, SimTimeoutError):
            assert issubclass(exc_type, ReproError)

    def test_legacy_value_error_compat(self):
        # Pre-hierarchy call sites caught ValueError for these two.
        assert issubclass(ConfigError, ValueError)
        assert issubclass(TraceError, ValueError)

    def test_schedule_violation_carries_context(self):
        exc = ScheduleViolationError("foreign offset", domain=3, cycle=99)
        assert exc.domain == 3
        assert exc.cycle == 99
        assert "domain 3" in str(exc)
        assert "99" in str(exc)


# ---------------------------------------------------------------------------
# FaultPlan parsing and the deterministic injector.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_kinds_and_rates(self):
        plan = FaultPlan.parse("drop_command:0.25,delay_slot", seed=3)
        assert plan.rate_of(FaultKind.DROP_COMMAND, 0) == 0.25
        assert plan.rate_of(FaultKind.DELAY_SLOT, 0) == 0.01  # default
        assert plan.rate_of(FaultKind.CORRUPT_TRACE, 0) == 0.0
        assert plan.seed == 3

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(FaultInjectionError, match="unknown fault"):
            FaultPlan.parse("cosmic_ray:0.5")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(FaultInjectionError, match="bad fault rate"):
            FaultPlan.parse("drop_command:lots")

    def test_parse_rejects_empty(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("  , ,")

    def test_rate_out_of_range(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec(FaultKind.DROP_COMMAND, 1.5)

    def test_plan_is_hashable_and_immutable(self):
        plan = FaultPlan.parse("drop_command:0.1", seed=1)
        assert hash(plan) == hash(FaultPlan.parse("drop_command:0.1",
                                                  seed=1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 2

    def test_empty_property(self):
        assert FaultPlan((FaultSpec(FaultKind.DROP_COMMAND, 0.0),)).empty
        assert not FULL_CAMPAIGN.empty


class TestInjectorDeterminism:
    def test_fresh_injectors_agree(self):
        a = FULL_CAMPAIGN.injector()
        b = FULL_CAMPAIGN.injector()
        grid = [(d, k) for d in range(8) for k in range(200)]
        assert [a.drop_command(d, k) for d, k in grid] == \
               [b.drop_command(d, k) for d, k in grid]
        assert [a.delay_slot(d, k) for d, k in grid] == \
               [b.delay_slot(d, k) for d, k in grid]

    def test_seed_changes_schedule(self):
        other = FaultPlan(FULL_CAMPAIGN.specs, seed=12345)
        a, b = FULL_CAMPAIGN.injector(), other.injector()
        grid = [(d, k) for d in range(8) for k in range(400)]
        assert [a.drop_command(d, k) for d, k in grid] != \
               [b.drop_command(d, k) for d, k in grid]

    def test_rate_extremes(self):
        never = FaultPlan((FaultSpec(FaultKind.DROP_COMMAND, 0.0),))
        always = FaultPlan((FaultSpec(FaultKind.DROP_COMMAND, 1.0),))
        assert not any(
            never.injector().drop_command(0, k) for k in range(100)
        )
        assert all(
            always.injector().drop_command(0, k) for k in range(100)
        )

    def test_domain_scoping(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.DELAY_SLOT, 1.0, domains=(2,)),)
        )
        inj = plan.injector()
        assert inj.delay_slot(2, 0)
        assert not inj.delay_slot(1, 0)

    def test_corrupt_trace_is_deterministic_and_sane(self):
        trace = generate_trace(workload("mcf"), 300, seed=5)
        plan = FaultPlan(
            (FaultSpec(FaultKind.CORRUPT_TRACE, 0.1),), seed=9
        )
        a = plan.injector().corrupt_trace(trace, domain=0)
        b = plan.injector().corrupt_trace(trace, domain=0)
        assert len(a) == len(trace)
        assert all(r.gap >= 0 and r.line >= 0 for r in a)
        assert [(r.gap, r.line) for r in a] == \
               [(r.gap, r.line) for r in b]
        # Some record actually changed.
        assert [(r.gap, r.line) for r in a] != \
               [(r.gap, r.line) for r in trace]

    def test_queue_overflow_shrinks_then_recovers(self):
        plan = FaultPlan(
            (FaultSpec(FaultKind.QUEUE_OVERFLOW, 1.0),), seed=0
        )
        inj = plan.injector()
        inj.note_enqueue(0)
        shrunk = inj.effective_capacity(0, 64)
        assert shrunk == 64 // inj.OVERFLOW_SHRINK
        for _ in range(inj.OVERFLOW_SPAN + 1):
            inj.note_enqueue(0)
        # Rate 1.0 re-arms every enqueue, so test recovery on a domain
        # whose episode has lapsed without new enqueues instead.
        assert inj.effective_capacity(1, 64) == 64

    def test_event_log_in_cycle_order_and_cap_keeps_earliest(self):
        """The log is ordered by (cycle, kind, domain), whatever order
        the strikes are recorded in, and the cap keeps the earliest."""
        inj = FULL_CAMPAIGN.injector()
        inj.MAX_EVENTS = 4
        for kind, domain, cycle in [
            (FaultKind.QUEUE_OVERFLOW, 1, 40),
            (FaultKind.DROP_COMMAND, 0, 90),
            (FaultKind.DELAY_SLOT, 2, 40),
            (FaultKind.QUEUE_OVERFLOW, 0, 40),
            (FaultKind.DROP_COMMAND, 3, 10),
            (FaultKind.DELAY_SLOT, 1, 70),
        ]:
            inj.record(kind, domain, cycle)
        assert [(e.cycle, e.kind, e.domain) for e in inj.events] == [
            (10, FaultKind.DROP_COMMAND, 3),
            (40, FaultKind.DELAY_SLOT, 2),
            (40, FaultKind.QUEUE_OVERFLOW, 0),
            (40, FaultKind.QUEUE_OVERFLOW, 1),
        ]
        assert inj.total == 6  # counts stay exact past the cap


# ---------------------------------------------------------------------------
# (a) Faulted runs stay on the timetable: clean monitor, work completes.
# ---------------------------------------------------------------------------


class TestFaultedRunsStayClean:
    @pytest.mark.parametrize("scheme", FS_SCHEMES)
    def test_monitor_clean_under_full_campaign(self, scheme):
        config = small_config()
        system = build_system(
            scheme, config, suite_specs("mcf", config.num_cores),
            SchemeOptions(faults=FULL_CAMPAIGN, monitor=True),
        )
        result = system.run()
        injector = system.controller.fault_injector
        assert injector is not None and injector.total > 0, \
            "campaign never struck; the test proves nothing"
        monitor = system.controller.monitor
        assert monitor is not None
        assert monitor.violations == []
        assert monitor.ok
        # Recovery really recovered: every core finished its trace.
        assert all(core.done for core in result.cores)
        assert result.stats.faulted_slots > 0

    def test_faults_change_nothing_when_rate_zero(self):
        config = small_config(accesses=100)
        zero = FaultPlan((FaultSpec(FaultKind.DROP_COMMAND, 0.0),))
        specs = suite_specs("mcf", config.num_cores)
        plain = run_scheme("fs_rp", config, specs)
        faulted = run_scheme(
            "fs_rp", config, specs, SchemeOptions(faults=zero)
        )
        assert plain.service_trace == faulted.service_trace

    def test_dropped_demands_are_reissued_same_domain(self):
        config = small_config(accesses=100)
        plan = FaultPlan(
            (FaultSpec(FaultKind.DROP_COMMAND, 0.2, domains=(3,)),),
            seed=2,
        )
        system = build_system(
            "fs_rp", config, suite_specs("mcf", config.num_cores),
            SchemeOptions(faults=plan),
        )
        result = system.run()
        injector = system.controller.fault_injector
        assert injector.counts[FaultKind.DROP_COMMAND] > 0
        assert all(
            event.domain == 3 for event in injector.events
        )
        assert all(core.done for core in result.cores)
        # The faulted slots appear in the victim's own trace as 'F'.
        kinds = {k for _, k in result.service_trace[3]}
        assert "F" in kinds

    def test_duplicates_squashed_before_the_bus(self):
        config = small_config(accesses=100)
        plan = FaultPlan(
            (FaultSpec(FaultKind.DUPLICATE_COMMAND, 0.3),), seed=4
        )
        system = build_system(
            "fs_rp", config, suite_specs("mcf", config.num_cores),
            SchemeOptions(faults=plan, monitor=True),
        )
        result = system.run()
        assert result.stats.squashed_duplicates > 0
        assert system.controller.monitor.ok


# ---------------------------------------------------------------------------
# (b) Non-interference survives the fault campaign.
# ---------------------------------------------------------------------------


class TestNonInterferenceUnderFaults:
    @pytest.mark.parametrize("scheme", ["fs_rp", "fs_reordered_bp"])
    def test_victim_view_identical_under_faults(self, scheme):
        from repro.analysis.leakage import interference_report

        config = small_config(accesses=100)
        report = interference_report(
            scheme, workload("mcf"), config=config,
            options=SchemeOptions(faults=FULL_CAMPAIGN),
        )
        assert report.identical, (
            "fault injection opened a timing channel: "
            f"profile divergence "
            f"{report.max_profile_divergence_cycles} cycles"
        )


# ---------------------------------------------------------------------------
# (c) The watchdog catches a broken recovery policy.
# ---------------------------------------------------------------------------


class TestWatchdogCatchesBrokenRecovery:
    BORROW = FaultPlan(
        (FaultSpec(FaultKind.BORROW_FOREIGN_SLOT, 0.5),), seed=1
    )

    def test_strict_monitor_raises_structured_error(self):
        config = small_config(accesses=100)
        system = build_system(
            "fs_rp", config, suite_specs("mcf", config.num_cores),
            SchemeOptions(
                faults=self.BORROW, monitor=True, monitor_strict=True
            ),
        )
        with pytest.raises(ScheduleViolationError) as info:
            system.run()
        assert info.value.domain is not None
        assert info.value.cycle is not None
        assert "foreign offset" in str(info.value)

    def test_lenient_monitor_accumulates_violations(self):
        config = small_config(accesses=100)
        system = build_system(
            "fs_rp", config, suite_specs("mcf", config.num_cores),
            SchemeOptions(faults=self.BORROW, monitor=True),
        )
        system.run()
        monitor = system.controller.monitor
        assert not monitor.ok
        assert monitor.total_violations > 0
        with pytest.raises(ScheduleViolationError):
            monitor.raise_if_violated()

    def test_offline_checker_agrees_borrowing_is_visible(self):
        from repro.core.invariants import check_schedule_conformance

        config = small_config(accesses=100)
        system = build_system(
            "fs_rp", config, suite_specs("mcf", config.num_cores),
            SchemeOptions(faults=self.BORROW),
        )
        system.run()
        violations = check_schedule_conformance(
            system.controller.schedule, system.controller.service_trace
        )
        assert violations


# ---------------------------------------------------------------------------
# One rule set, two feeds: offline replays and the live monitor agree.
# ---------------------------------------------------------------------------


def _project(command):
    return (command.cycle, command.type.value, command.channel,
            command.rank, command.bank)


def _timing_signature(violations):
    return sorted(
        (v.rule, _project(v.first), _project(v.second),
         v.required_gap, v.actual_gap)
        for v in violations if isinstance(v, Violation)
    )


def _service_signature(violations):
    return sorted(
        (v.domain, v.cycle, v.reason)
        for v in violations if isinstance(v, InvariantViolation)
    )


#: Runs whose command logs cover ACT, column, PRE and REF commands with
#: closed and open pages: (scheme, refresh).
LOGS = {
    "fs_rp": ("fs_rp", False),
    "fs_rp+refresh": ("fs_rp", True),
    "baseline+refresh": ("baseline", True),
    "tp_bp": ("tp_bp", False),
}


@functools.lru_cache(maxsize=None)
def _logged_run(log):
    scheme, refresh = LOGS[log]
    config = small_config(accesses=80)
    system = build_system(
        scheme, config, suite_specs("mcf", config.num_cores),
        SchemeOptions(log_commands=True, refresh=refresh),
    )
    system.run()
    return system.controller


class TestCheckerParity:
    def _replay(self, commands):
        """Replay one stream offline and feed it live; return signatures."""
        ordered = sorted(commands, key=lambda c: (c.cycle, c.type.value))
        offline = TimingChecker(DDR3_1600_X4).check(ordered)
        monitor = OnlineInvariantMonitor(DDR3_1600_X4)
        for command in ordered:
            monitor.observe_command(command)
        monitor.finalize()
        return _timing_signature(offline), \
            _timing_signature(monitor.violations)

    def _replay_service(self, schedule, trace):
        """Replay one service trace offline and feed it live; return
        signatures."""
        offline = (
            check_schedule_conformance(schedule, trace)
            + check_constant_service(schedule, trace)
        )
        monitor = OnlineInvariantMonitor(DDR3_1600_X4, schedule=schedule)
        for cycle, domain, kind in sorted(
            (cycle, domain, kind)
            for domain, events in trace.items() for cycle, kind in events
        ):
            monitor.observe_service(domain, cycle, kind)
        monitor.finalize()
        return _service_signature(offline), \
            _service_signature(monitor.violations)

    def test_clean_stream_is_clean_for_both(self):
        for log in LOGS:
            commands = _logged_run(log).command_log
            assert commands, f"expected a non-empty {log} command log"
            offline, online = self._replay(commands)
            assert offline == [] and online == [], log
        ctrl = _logged_run("fs_rp")
        assert self._replay_service(
            ctrl.schedule, ctrl.service_trace
        ) == ([], [])

    # The fs_rp cases keep their bare seed ids.
    @pytest.mark.parametrize("log, seed", [
        pytest.param(
            log, seed, id=str(seed) if log == "fs_rp" else f"{log}-{seed}"
        )
        for log in LOGS for seed in range(6)
    ])
    def test_perturbed_streams_flag_identically(self, log, seed):
        rng = random.Random(seed)
        commands = list(_logged_run(log).command_log)
        # Shift a handful of commands by small deltas: enough to break
        # tCCD/tRCD/data-bus pitch without degenerating the stream.
        for _ in range(4):
            index = rng.randrange(len(commands))
            delta = rng.choice([-4, -2, -1, 1, 2, 4])
            victim = commands[index]
            commands[index] = dataclasses.replace(
                victim, cycle=max(0, victim.cycle + delta)
            )
        offline, online = self._replay(commands)
        assert offline, "the perturbation should break a rule"
        assert online == offline

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_service_traces_flag_identically(self, seed):
        ctrl = _logged_run("fs_rp")
        rng = random.Random(seed)
        trace = {d: list(events) for d, events in ctrl.service_trace.items()}
        domains = sorted(trace)
        for _ in range(3):
            domain = rng.choice([d for d in domains if trace[d]])
            events = trace[domain]
            index = rng.randrange(len(events))
            cycle, kind = events[index]
            action = rng.choice(["shift", "repeat", "drop", "move"])
            if action == "shift":      # off the domain's anchors
                events[index] = (cycle + rng.choice([-3, -1, 1, 2]), kind)
            elif action == "repeat":   # one slot served twice
                events.insert(index, (cycle, kind))
            elif action == "drop":     # starve the domain
                del events[index:]
            else:                      # a foreign domain takes the slot
                del events[index]
                trace[(domain + 1) % len(domains)].append((cycle, kind))
        for events in trace.values():
            events.sort(key=lambda event: event[0])
        offline, online = self._replay_service(ctrl.schedule, trace)
        assert offline, "the perturbation should break an invariant"
        assert online == offline


# ---------------------------------------------------------------------------
# Config validation (satellite c).
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0)
        with pytest.raises(ConfigError):
            SystemConfig(accesses_per_core=0)
        # Geometry validates its own fields (plain ValueError, which
        # ConfigError deliberately subclasses).
        with pytest.raises(ValueError):
            Geometry(ranks=0)

    def test_rank_partition_needs_enough_ranks(self):
        config = SystemConfig(
            num_cores=8, geometry=Geometry(channels=1, ranks=2)
        )
        with pytest.raises(ConfigError, match="fs_rp"):
            config.validate_for_scheme("fs_rp")
        # Enough ranks: fine.
        SystemConfig(num_cores=8).validate_for_scheme("fs_rp")

    def test_bank_partition_rejects_non_pow2_banks(self):
        config = SystemConfig(
            num_cores=4, geometry=Geometry(ranks=4, banks=6)
        )
        with pytest.raises(ConfigError, match="power of two"):
            config.validate_for_scheme("fs_bp")

    def test_build_fails_loudly_not_silently(self):
        config = SystemConfig(
            num_cores=8, geometry=Geometry(channels=1, ranks=2),
            accesses_per_core=10,
        )
        with pytest.raises(ConfigError):
            run_scheme("fs_rp", config, suite_specs("mcf", 8))

    def test_unpartitioned_schemes_unconstrained(self):
        config = SystemConfig(
            num_cores=8, geometry=Geometry(channels=1, ranks=2),
        )
        config.validate_for_scheme("fs_np")  # no raise
        config.validate_for_scheme("baseline")


# ---------------------------------------------------------------------------
# Sweep resilience: isolation, budgets, checkpoint/resume.
# ---------------------------------------------------------------------------


def sweep_config() -> SystemConfig:
    return SystemConfig(num_cores=4, accesses_per_core=60,
                        geometry=Geometry(ranks=4))


class TestSweepResilience:
    def test_failing_cell_is_isolated(self, monkeypatch):
        def boom(scheme, *args, **kwargs):
            if scheme == "fs_bp":
                raise RuntimeError("synthetic cell failure")
            return real(scheme, *args, **kwargs)

        import repro.sim.sweep as sweep_mod

        real = sweep_mod.run_scheme
        monkeypatch.setattr(sweep_mod, "run_scheme", boom)
        sweep = Sweep(sweep_config(), max_cycles=2_000_000)
        ok = sweep.run_point("fs_rp", "mcf")
        bad = sweep.run_point("fs_bp", "mcf")
        assert ok is not None
        assert bad is None
        assert len(sweep.failed_points) == 1
        failed = sweep.failed_points[0]
        assert isinstance(failed, FailedPoint)
        assert failed.error_type == "RuntimeError"
        assert failed.scheme == "fs_bp"

    def test_strict_mode_reraises(self, monkeypatch):
        import repro.sim.sweep as sweep_mod

        monkeypatch.setattr(
            sweep_mod, "run_scheme",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        sweep = Sweep(sweep_config(), strict=True)
        with pytest.raises(RuntimeError):
            sweep.run_point("fs_rp", "mcf")

    def test_wall_budget_zero_records_timeout(self):
        sweep = Sweep(sweep_config(), point_wall_budget_s=0.0)
        assert sweep.run_point("fs_rp", "mcf") is None
        assert sweep.failed_points
        assert sweep.failed_points[0].error_type == "SimTimeoutError"

    def test_sim_timeout_carries_cycle(self):
        config = sweep_config()
        with pytest.raises(SimTimeoutError) as info:
            run_scheme(
                "fs_rp", config, suite_specs("mcf", 4),
                wall_budget_s=0.0,
            )
        assert info.value.cycle is not None

    def test_checkpoint_resume_reproduces_table(
        self, tmp_path, monkeypatch
    ):
        import repro.sim.sweep as sweep_mod

        config = sweep_config()
        grid = [("fs_rp", "mcf"), ("fs_rp", "libquantum"),
                ("fs_rp", "milc")]

        # Reference: the grid run to completion, no interruptions.
        reference = Sweep(config, max_cycles=2_000_000)
        for scheme, wl in grid:
            reference.run_point(scheme, wl)
        assert len(reference.points) == len(grid)

        # Interrupted run: the third cell dies mid-grid (strict, so the
        # "kill" propagates like a crash would).
        ckpt = str(tmp_path / "grid.json")
        real = sweep_mod.run_scheme
        calls = {"n": 0}

        def flaky(scheme, cfg, specs, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 4:  # cells 1-2 (+baselines) fine, then die
                raise SimTimeoutError("killed mid-grid", cycle=123)
            return real(scheme, cfg, specs, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_scheme", flaky)
        interrupted = Sweep(
            config, max_cycles=2_000_000, checkpoint=ckpt, strict=True
        )
        with pytest.raises(SimTimeoutError):
            for scheme, wl in grid:
                interrupted.run_point(scheme, wl)
        assert 0 < len(interrupted.points) < len(grid)
        monkeypatch.setattr(sweep_mod, "run_scheme", real)

        # Resume: a fresh Sweep on the same checkpoint replays the
        # finished cells and baselines, re-simulates only the missing
        # ones, and reproduces the reference table exactly.
        ran = []

        def counting(scheme, *args, **kwargs):
            ran.append(scheme)
            return real(scheme, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_scheme", counting)
        resumed = Sweep(
            config, max_cycles=2_000_000, checkpoint=ckpt, strict=True
        )
        for scheme, wl in grid:
            resumed.run_point(scheme, wl)
        assert resumed.points == reference.points
        # Replayed: fs_rp x mcf, its baseline, fs_rp x libquantum.
        assert ran == ["baseline", "fs_rp", "baseline"]

        # And the checkpoint file itself round-trips: a third run on it
        # simulates nothing.
        ran.clear()
        replayed = Sweep(config, max_cycles=2_000_000, checkpoint=ckpt)
        for scheme, wl in grid:
            replayed.run_point(scheme, wl)
        assert ran == []
        assert replayed.points == reference.points

    def test_incompatible_checkpoint_is_ignored(self, tmp_path):
        ckpt = tmp_path / "old.json"
        ckpt.write_text(json.dumps({"version": -1, "points": [
            {"scheme": "x", "workload": "y", "cores": 1, "label": "x",
             "weighted_ipc": 1, "bus_utilization": 1,
             "mean_read_latency": 1, "energy_pj": 1}
        ]}))
        sweep = Sweep(sweep_config(), checkpoint=str(ckpt))
        assert sweep.points == []

    def test_failed_cell_is_retried_not_carried(self, tmp_path):
        """Failures are not checkpointed: each rerun that fails lists
        the failure once, and a rerun that succeeds lists none."""
        ckpt = str(tmp_path / "fail.json")
        for _ in range(2):
            sweep = Sweep(
                sweep_config(), checkpoint=ckpt, point_wall_budget_s=0.0
            )
            sweep.run_grid(["fs_rp"], ["mcf"])
            assert [f.error_type for f in sweep.failed_points] == \
                ["SimTimeoutError"]
            assert sweep.points == []
        healed = Sweep(sweep_config(), checkpoint=ckpt)
        healed.run_grid(["fs_rp"], ["mcf"])
        assert healed.failed_points == []
        assert [p.scheme for p in healed.points] == ["fs_rp"]


# ---------------------------------------------------------------------------
# CLI plumbing for the new verbs.
# ---------------------------------------------------------------------------


class TestCli:
    def test_run_with_injection_and_monitor(self, capsys):
        from repro.cli import main

        code = main([
            "run", "fs_rp", "mcf", "--accesses", "60",
            "--inject", "drop_command:0.05,delay_slot:0.02",
            "--monitor",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fault campaign" in out
        assert "CLEAN" in out

    def test_bad_inject_spec_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "run", "fs_rp", "mcf", "--inject", "warp_core:0.5",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "FaultInjectionError" in err

    def test_sweep_verb_with_checkpoint(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "cli.json")
        code = main([
            "sweep", "--schemes", "fs_rp", "--workloads", "mcf",
            "--accesses", "60", "--cores", "4",
            "--checkpoint", ckpt,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fs_rp" in out
        with open(ckpt) as handle:
            jobs = [
                entry["job"]
                for entry in json.load(handle)["results"].values()
            ]
        # The cell and its baseline run, each under its job key.
        assert len(jobs) == 2
        assert any("fs_rp" in job for job in jobs)
        assert any("baseline" in job for job in jobs)
