"""The FS framework on DDR4: generality of the offline solver."""

import pytest

from repro.core.pipeline_solver import (
    PeriodicMode,
    PipelineSolver,
    SharingLevel,
)
from repro.core.schedule import (
    build_fs_schedule,
    build_triple_alternation_schedule,
    validate_schedule,
)
from repro.dram.timing import DDR4_2400


@pytest.fixture(scope="module")
def solver():
    return PipelineSolver(DDR4_2400)


class TestDdr4Pipelines:
    def test_all_sharing_levels_solve(self, solver):
        for sharing in SharingLevel:
            for mode in PeriodicMode:
                l = solver.solve(mode, sharing)
                assert l >= DDR4_2400.tBURST
                assert solver.check(l, mode, sharing) is None

    def test_monotone_over_sharing(self, solver):
        for mode in PeriodicMode:
            assert (
                solver.solve(mode, SharingLevel.RANK)
                <= solver.solve(mode, SharingLevel.BANK)
                <= solver.solve(mode, SharingLevel.NONE)
            )

    def test_schedules_validate(self):
        for sharing in SharingLevel:
            schedule = build_fs_schedule(DDR4_2400, 8, sharing)
            assert validate_schedule(schedule) == [], sharing

    def test_triple_alternation_when_safe(self):
        solver = PipelineSolver(DDR4_2400)
        l_bp = solver.solve(PeriodicMode.RAS, SharingLevel.BANK)
        if 3 * l_bp >= solver.same_bank_min_gap():
            ta = build_triple_alternation_schedule(DDR4_2400, 8)
            assert validate_schedule(ta) == []
        else:
            with pytest.raises(RuntimeError, match="unsafe"):
                build_triple_alternation_schedule(DDR4_2400, 8)

    def test_rank_partitioned_controller_runs_clean(self):
        import random

        from repro.core.fs_controller import FixedServiceController
        from repro.dram.checker import TimingChecker
        from repro.dram.commands import OpType, Request
        from repro.dram.system import DramSystem
        from repro.mapping.address import Geometry
        from repro.mapping.partition import RankPartition
        from repro.sim.openloop import drive_open_loop

        dram = DramSystem(DDR4_2400)
        partition = RankPartition(Geometry(), 8)
        schedule = build_fs_schedule(DDR4_2400, 8, SharingLevel.RANK)
        ctrl = FixedServiceController(
            dram, schedule, partition, log_commands=True
        )
        rng = random.Random(4)
        requests, t = [], 0
        for _ in range(200):
            d = rng.randrange(8)
            line = rng.randrange(50_000)
            op = OpType.READ if rng.random() < 0.7 else OpType.WRITE
            requests.append(Request(
                op=op, address=partition.decode(d, line), domain=d,
                arrival=t, line=line,
            ))
            t += rng.randrange(0, 8)
        drive_open_loop(ctrl, requests)
        assert TimingChecker(DDR4_2400).check(ctrl.command_log) == []
