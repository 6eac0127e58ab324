"""Whole-stack cross-validation under randomized conditions.

The strongest correctness argument this repository makes is that two
*independent* implementations of the JEDEC rules agree: the
:class:`~repro.dram.bank.Bank` / :class:`~repro.dram.rank.Rank` /
:class:`~repro.dram.channel.Channel` state machine, which every checked
command goes through, and :class:`~repro.dram.checker.TimingChecker`,
which re-derives every pairwise constraint from the raw parameters.  The
pipeline solver searches its timetables by replaying candidates through
the checker, so the state machine is the solver's independent check:
every solved timetable must also issue cleanly through
:meth:`~repro.dram.channel.Channel.issue`.  These property tests
randomize workloads, schemes and even timing parameters and require the
two to keep agreeing.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.fs_controller import FixedServiceController
from repro.core.pipeline_solver import (
    PeriodicMode,
    PipelineSolver,
    SharingLevel,
)
from repro.core.schedule import (
    build_fs_schedule,
    build_triple_alternation_schedule,
    schedule_commands,
    validate_schedule,
    validation_patterns,
)
from repro.dram import timing
from repro.dram.channel import Channel
from repro.dram.checker import TimingChecker
from repro.dram.commands import OpType, Request
from repro.dram.system import DramSystem
from repro.dram.timing import DDR3_1600_X4, TimingParams
from repro.mapping.address import Geometry
from repro.mapping.partition import RankPartition
from repro.sim.openloop import drive_open_loop

P = DDR3_1600_X4
G = Geometry()


class TestRandomizedFsRuns:
    @given(
        seed=st.integers(0, 10_000),
        domains=st.sampled_from([2, 3, 4, 5, 8]),
        read_frac=st.floats(0.2, 0.95),
        spacing=st.integers(1, 20),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fs_rp_always_jedec_clean(self, seed, domains, read_frac,
                                      spacing):
        """Any request mix, any (small) domain count: the FS command
        stream must satisfy every JEDEC constraint — including the
        Section 7 small-N same-rank hazards the controller must dodge."""
        geometry = Geometry(ranks=max(domains, 8))
        dram = DramSystem(P, ranks_per_channel=geometry.ranks)
        partition = RankPartition(geometry, domains)
        schedule = build_fs_schedule(P, domains, SharingLevel.RANK)
        ctrl = FixedServiceController(
            dram, schedule, partition, log_commands=True
        )
        rng = random.Random(seed)
        requests, t = [], 0
        for _ in range(150):
            d = rng.randrange(domains)
            line = rng.randrange(60_000)
            op = OpType.READ if rng.random() < read_frac else OpType.WRITE
            requests.append(Request(
                op=op, address=partition.decode(d, line), domain=d,
                arrival=t, line=line,
            ))
            t += rng.randrange(0, spacing)
        drive_open_loop(ctrl, requests)
        assert TimingChecker(P).check(ctrl.command_log) == []


class TestRandomizedTimingParameters:
    @st.composite
    def params(draw):
        tRCD = draw(st.integers(6, 14))
        tCAS = draw(st.integers(6, 14))
        tCWD = draw(st.integers(3, min(tCAS, 9)))
        tBURST = draw(st.integers(2, 6))
        tRAS = draw(st.integers(16, 32))
        tRP = draw(st.integers(6, 14))
        return TimingParams(
            tRCD=tRCD, tCAS=tCAS, tCWD=tCWD, tBURST=tBURST,
            tRAS=tRAS, tRP=tRP, tRC=tRAS + tRP,
            tRRD=draw(st.integers(3, 7)),
            tFAW=draw(st.integers(16, 36)),
            tWR=draw(st.integers(6, 14)),
            tWTR=draw(st.integers(3, 9)),
            tRTP=draw(st.integers(3, 9)),
            tCCD=max(2, tBURST),
            tRTRS=draw(st.integers(1, 3)),
        )

    @given(params=params(), domains=st.sampled_from([4, 8]))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_solved_schedules_validate_for_any_part(self, params,
                                                    domains):
        """For ANY consistent DDR3-like part, the solver's timetable must
        pass the independent checker for every sharing level."""
        for sharing in SharingLevel:
            schedule = build_fs_schedule(params, domains, sharing)
            assert validate_schedule(schedule) == [], (
                f"{sharing}: l={schedule.slot_gap} params={params}"
            )

    @given(params=params())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fs_controller_clean_on_foreign_part(self, params):
        """The full controller (hazard tracking included) must stay
        JEDEC-clean on parts it was never tuned for."""
        dram = DramSystem(params)
        partition = RankPartition(G, 8)
        schedule = build_fs_schedule(params, 8, SharingLevel.RANK)
        ctrl = FixedServiceController(
            dram, schedule, partition, log_commands=True
        )
        rng = random.Random(1)
        requests, t = [], 0
        for _ in range(100):
            d = rng.randrange(8)
            line = rng.randrange(40_000)
            op = OpType.READ if rng.random() < 0.7 else OpType.WRITE
            requests.append(Request(
                op=op, address=partition.decode(d, line), domain=d,
                arrival=t, line=line,
            ))
            t += rng.randrange(0, 6)
        drive_open_loop(ctrl, requests)
        assert TimingChecker(params).check(ctrl.command_log) == []


def solved_timetables(params, domains):
    """Every solved timetable kind: one per sharing level, plus triple
    alternation where three bank-partitioned slots cover the same-bank
    gap."""
    timetables = [
        build_fs_schedule(params, domains, sharing)
        for sharing in SharingLevel
    ]
    try:
        timetables.append(build_triple_alternation_schedule(params, domains))
    except RuntimeError:
        pass  # refused loudly: triple alternation unsafe on this part
    return timetables


def assert_state_machine_agrees(schedule):
    """Issue every ``validate_schedule`` pattern, three intervals sorted
    by cycle, through a fresh channel: no ``TimingViolation`` may rise,
    and the checker must find nothing either."""
    for pattern in validation_patterns(schedule.slots_per_interval):
        channel = Channel(schedule.params, num_ranks=8, num_banks=8)
        commands = schedule_commands(schedule, pattern, intervals=3)
        for cmd in sorted(commands, key=lambda c: c.cycle):
            channel.issue(cmd)
    assert validate_schedule(schedule) == []


class TestStateMachineCrossCheck:
    @pytest.mark.parametrize(
        "preset", ["DDR3_1600_X4", "DDR3_1066", "DDR4_2400"]
    )
    @pytest.mark.parametrize("domains", [2, 4, 8])
    def test_preset_timetables_issue_cleanly(self, preset, domains):
        timetables = solved_timetables(getattr(timing, preset), domains)
        assert len(timetables) == 4
        for schedule in timetables:
            assert_state_machine_agrees(schedule)

    @given(params=TestRandomizedTimingParameters.params(),
           domains=st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_timetables_issue_cleanly_on_any_part(self, params, domains):
        for schedule in solved_timetables(params, domains):
            assert_state_machine_agrees(schedule)
