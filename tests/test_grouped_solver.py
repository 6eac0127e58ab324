"""Tests for the grouped-pipeline analysis (Section 3, Improving
bandwidth)."""

import pytest

from repro.core.pipeline_solver import (
    GroupedPipeline,
    GroupedPipelineSolver,
    PeriodicMode,
)
from repro.dram import timing
from repro.dram.timing import DDR3_1600_X4

P = DDR3_1600_X4

#: Cheapest (intra_gap, inter_gap) per (preset, mode), the same at every
#: group size from 2 to 5; computed with hand-kept pairwise rules that
#: share no code with the timing checker the solver now replays through.
KNOWN_GROUPS = {
    ("DDR3_1600_X4", "data"): (21, 7),
    ("DDR3_1600_X4", "ras"): (15, 12),
    ("DDR3_1600_X4", "cas"): (15, 12),
    ("DDR3_1066", "data"): (16, 7),
    ("DDR3_1066", "ras"): (14, 9),
    ("DDR3_1066", "cas"): (14, 9),
    ("DDR4_2400", "data"): (29, 6),
    ("DDR4_2400", "ras"): (25, 10),
    ("DDR4_2400", "cas"): (25, 10),
}


@pytest.fixture
def solver():
    return GroupedPipelineSolver(P)


class TestGroupedPipeline:
    def test_cycles_per_slot(self):
        g = GroupedPipeline(group_size=2, intra_gap=21, inter_gap=7)
        assert g.cycles_per_slot == 14.0

    def test_anchors(self):
        g = GroupedPipeline(group_size=3, intra_gap=5, inter_gap=10)
        assert g.anchors(0) == [0, 5, 10]
        assert g.anchors(1) == [20, 25, 30]


class TestPaperNegativeResult:
    """'Our analysis shows that for our chosen parameters, this did not
    result in a more efficient pipeline.'"""

    def test_grouping_never_beats_plain(self, solver):
        costs = solver.grouping_helps(PeriodicMode.DATA, (2, 3, 4))
        plain = costs[1]
        for n in (2, 3, 4):
            assert costs[n] >= plain, (
                f"group size {n} would beat the plain pipeline — the "
                f"paper's analysis says it cannot for Table 1"
            )

    def test_intra_gap_dominated_by_turnaround(self, solver):
        # Within a group (same rank) the write->read turnaround forces a
        # 21-cycle intra gap — thrice the cross-rank 7.
        g = solver.solve(PeriodicMode.DATA, 2)
        assert g.intra_gap >= P.data_gap(
            same_rank=True, same_type=False, first_is_write=True
        )


class TestGroupedChecker:
    def test_plain_pipeline_is_special_case(self, solver):
        # group size 1 with inter gap 7 = the Figure 1 pipeline.
        assert solver.check(PeriodicMode.DATA, 1, intra_gap=7,
                            inter_gap=7)

    def test_rejects_too_tight_inter_gap(self, solver):
        assert not solver.check(PeriodicMode.DATA, 1, intra_gap=7,
                                inter_gap=5)

    def test_rejects_too_tight_intra_gap(self, solver):
        assert not solver.check(PeriodicMode.DATA, 2, intra_gap=4,
                                inter_gap=7)

    def test_validation(self, solver):
        with pytest.raises(ValueError):
            solver.check(PeriodicMode.DATA, 0, 7, 7)

    def test_unsolvable_raises(self, solver):
        with pytest.raises(RuntimeError):
            solver.solve(PeriodicMode.DATA, 2, max_gap=5)


class TestKnownAnswers:
    @pytest.mark.parametrize("group_size", [2, 3, 4, 5])
    @pytest.mark.parametrize("preset, mode", sorted(KNOWN_GROUPS))
    def test_solve(self, preset, mode, group_size):
        intra, inter = KNOWN_GROUPS[(preset, mode)]
        solver = GroupedPipelineSolver(getattr(timing, preset))
        assert solver.solve(PeriodicMode(mode), group_size) == \
            GroupedPipeline(group_size, intra, inter)
