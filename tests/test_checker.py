"""Unit tests for the independent JEDEC timing checker.

Each rule is exercised with a minimal violating stream and its legal
counterpart; the checker must flag exactly the former.
"""

import pytest

from repro.core.online_monitor import OnlineInvariantMonitor
from repro.dram.checker import TimingChecker
from repro.dram.commands import Command, CommandType
from repro.dram.timing import DDR3_1600_X4
from repro.errors import ScheduleViolationError

P = DDR3_1600_X4


@pytest.fixture
def checker():
    return TimingChecker(P)


def act(cycle, rank=0, bank=0, row=1):
    return Command(CommandType.ACTIVATE, cycle, 0, rank, bank, row)


def rd(cycle, rank=0, bank=0, row=1):
    return Command(CommandType.COL_READ_AP, cycle, 0, rank, bank, row)


def wr(cycle, rank=0, bank=0, row=1):
    return Command(CommandType.COL_WRITE_AP, cycle, 0, rank, bank, row)


def rules(violations):
    return {v.rule for v in violations}


class TestCommandBus:
    def test_flags_same_cycle_commands(self, checker):
        v = checker.check([act(10, rank=0), act(10, rank=1)])
        assert "command-bus" in rules(v)

    def test_accepts_distinct_cycles(self, checker):
        assert checker.check([act(10, rank=0), act(11, rank=1)]) == []


class TestDataBus:
    def test_flags_cross_rank_overlap(self, checker):
        cmds = [
            act(0, rank=0), act(1, rank=1),
            rd(P.tRCD, rank=0),
            # Data would start tBURST later: misses the tRTRS bubble.
            rd(P.tRCD + P.tBURST, rank=1),
        ]
        assert "data-bus" in rules(checker.check(cmds))

    def test_accepts_trtrs_gap(self, checker):
        cmds = [
            act(0, rank=0), act(1, rank=1),
            rd(P.tRCD, rank=0),
            rd(P.tRCD + P.tBURST + P.tRTRS, rank=1),
        ]
        assert checker.check(cmds) == []


class TestBankRules:
    def test_flags_trc(self, checker):
        v = checker.check([
            act(0), rd(P.tRCD), act(P.tRC - 1, row=2),
        ])
        assert "tRC" in rules(v)

    def test_flags_trcd(self, checker):
        v = checker.check([act(0), rd(P.tRCD - 1)])
        assert "tRCD" in rules(v)

    def test_flags_column_without_activate(self, checker):
        assert "no-activate" in rules(checker.check([rd(50)]))

    def test_flags_auto_precharge_turnaround(self, checker):
        # A write's auto-precharge completes 43 cycles after the ACT;
        # re-activating earlier is illegal.
        v = checker.check([
            act(0), wr(P.tRCD), act(P.write_turnaround_same_bank - 1,
                                    row=2),
        ])
        assert "tRP(auto)" in rules(v) or "tRC" in rules(v)

    def test_flags_activate_into_precharge_without_activate(self, checker):
        # A PRE with no ACT before it still opens a tRP window; the
        # violation names that PRE, so it prints and a strict monitor
        # raises the structured error.
        pre = Command(CommandType.PRECHARGE, 0, 0, 0, 0)
        stream = [pre, act(P.tRP - 1)]
        (v,) = checker.check(stream)
        assert v.rule == "tRP(auto)" and v.first == pre
        assert "PRE@0 -> ACT@" in str(v)
        monitor = OnlineInvariantMonitor(P, strict=True)
        monitor.observe_command(stream[0])
        with pytest.raises(ScheduleViolationError, match="tRP"):
            monitor.observe_command(stream[1])

    def test_accepts_write_turnaround(self, checker):
        cmds = [
            act(0), wr(P.tRCD),
            act(P.write_turnaround_same_bank, row=2),
            rd(P.write_turnaround_same_bank + P.tRCD, row=2),
        ]
        assert checker.check(cmds) == []


class TestRankRules:
    def test_flags_trrd(self, checker):
        v = checker.check([act(0, bank=0), act(P.tRRD - 1, bank=1)])
        assert "tRRD" in rules(v)

    def test_flags_tfaw(self, checker):
        cmds = [act(i * P.tRRD, bank=i) for i in range(4)]
        cmds.append(act(P.tFAW - 1, bank=4))
        assert "tFAW" in rules(checker.check(cmds))

    def test_accepts_tfaw_boundary(self, checker):
        cmds = [act(i * 6, bank=i) for i in range(4)]
        cmds.append(act(P.tFAW, bank=4))
        assert checker.check(cmds) == []

    def test_flags_tccd(self, checker):
        cmds = [
            act(0, bank=0), act(P.tRRD, bank=1),
            rd(P.tRRD + P.tRCD, bank=1),
            rd(P.tRRD + P.tRCD + P.tCCD - 1, bank=0),
        ]
        assert "tCCD" in rules(checker.check(cmds))

    def test_flags_write_to_read(self, checker):
        cmds = [
            act(0, bank=0), act(P.tRRD, bank=1),
            wr(P.tRCD, bank=0),
            rd(P.tRCD + P.write_to_read - 1, bank=1),
        ]
        assert "wr->rd(tWTR)" in rules(checker.check(cmds))

    def test_flags_read_to_write(self, checker):
        cmds = [
            act(0, bank=0), act(P.tRRD, bank=1),
            rd(P.tRCD, bank=0),
            wr(P.tRCD + P.read_to_write - 1, bank=1),
        ]
        assert "rd->wr" in rules(checker.check(cmds))

    def test_different_ranks_exempt_from_rank_rules(self, checker):
        cmds = [
            act(0, rank=0), act(1, rank=1),
            rd(P.tRCD, rank=0),
            rd(P.tRCD + P.tBURST + P.tRTRS, rank=1),
        ]
        assert checker.check(cmds) == []


class TestRefreshRules:
    def test_flags_command_during_refresh(self, checker):
        cmds = [
            Command(CommandType.REFRESH, 0, 0, 0),
            act(P.tRFC - 1),
        ]
        assert "tRFC" in rules(checker.check(cmds))

    def test_accepts_command_after_refresh(self, checker):
        cmds = [
            Command(CommandType.REFRESH, 0, 0, 0),
            act(P.tRFC),
            rd(P.tRFC + P.tRCD),
        ]
        assert checker.check(cmds) == []


class TestFigure1Stream:
    """The paper's Figure 1 pipeline, transcribed, must be legal."""

    def test_eight_rank_pipeline(self, checker):
        cmds = []
        # Six reads and two writes to ranks 0-7, data every 7 cycles.
        types = [True, True, True, True, True, False, False, True]
        base = 100
        for k, is_read in enumerate(types):
            data = base + 7 * k
            if is_read:
                cmds.append(act(data - 22, rank=k))
                cmds.append(rd(data - 11, rank=k))
            else:
                cmds.append(act(data - 16, rank=k))
                cmds.append(wr(data - 5, rank=k))
        assert checker.check(cmds) == []

    def test_figure1_with_six_cycle_gap_fails(self, checker):
        # The paper notes l = 6 creates a command-bus conflict.
        cmds = []
        types = [True, False] * 4
        base = 100
        for k, is_read in enumerate(types):
            data = base + 6 * k
            if is_read:
                cmds.append(act(data - 22, rank=k))
                cmds.append(rd(data - 11, rank=k))
            else:
                cmds.append(act(data - 16, rank=k))
                cmds.append(wr(data - 5, rank=k))
        assert checker.check(cmds) != []
