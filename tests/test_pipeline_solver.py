"""Tests for the FS pipeline constraint solver — the paper's math.

The exact ``l`` values in Sections 3-4 are mathematical consequences of
Table 1, so these tests require exact equality, not tolerance bands.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline_solver import (
    PeriodicMode,
    PipelineSolver,
    SharingLevel,
    paper_solutions,
    slot_timing,
)
from repro.dram import timing
from repro.dram.timing import DDR3_1600_X4, TimingParams

P = DDR3_1600_X4

#: Minimal slot gaps (DATA, RAS, CAS) per (preset, sharing level);
#: computed with hand-kept pairwise rules that share no code with the
#: timing checker the solver now replays through.
KNOWN_GAPS = {
    ("DDR3_1600_X4", "rank"): (7, 12, 12),
    ("DDR3_1600_X4", "bank"): (21, 15, 15),
    ("DDR3_1600_X4", "none"): (49, 43, 43),
    ("DDR3_1066", "rank"): (7, 9, 9),
    ("DDR3_1066", "bank"): (16, 14, 14),
    ("DDR3_1066", "none"): (36, 34, 34),
    ("DDR4_2400", "rank"): (7, 10, 10),
    ("DDR4_2400", "bank"): (29, 25, 25),
    ("DDR4_2400", "none"): (70, 66, 66),
}


@pytest.fixture
def solver():
    return PipelineSolver(P)


class TestPaperSolutions:
    """Every published minimal slot gap, reproduced."""

    def test_rank_partition_periodic_data_is_7(self, solver):
        assert solver.solve(PeriodicMode.DATA, SharingLevel.RANK) == 7

    def test_rank_partition_periodic_ras_is_12(self, solver):
        assert solver.solve(PeriodicMode.RAS, SharingLevel.RANK) == 12

    def test_rank_partition_periodic_cas_is_12(self, solver):
        assert solver.solve(PeriodicMode.CAS, SharingLevel.RANK) == 12

    def test_bank_partition_periodic_data_is_21(self, solver):
        assert solver.solve(PeriodicMode.DATA, SharingLevel.BANK) == 21

    def test_bank_partition_periodic_ras_is_15(self, solver):
        assert solver.solve(PeriodicMode.RAS, SharingLevel.BANK) == 15

    def test_no_partition_periodic_ras_is_43(self, solver):
        assert solver.solve(PeriodicMode.RAS, SharingLevel.NONE) == 43

    def test_same_bank_min_gap_is_43(self, solver):
        assert solver.same_bank_min_gap() == 43

    def test_paper_solutions_summary(self):
        sols = paper_solutions(P)
        assert sols["fs_rp"] == 7
        assert sols["fs_bp"] == 15
        assert sols["fs_np"] == 43

    def test_best_picks_data_for_rank(self, solver):
        mode, l = solver.best(SharingLevel.RANK)
        assert mode is PeriodicMode.DATA and l == 7

    def test_best_picks_ras_for_bank(self, solver):
        mode, l = solver.best(SharingLevel.BANK)
        assert mode is PeriodicMode.RAS and l == 15

    def test_best_picks_ras_for_none(self, solver):
        mode, l = solver.best(SharingLevel.NONE)
        assert mode is PeriodicMode.RAS and l == 43


class TestRejectedGaps:
    """The specific conflicts the paper derives for rejected gaps."""

    def test_l6_rank_data_conflicts(self, solver):
        # Equation 1a/1f: offsets differ by 6, so l = 6 collides.
        report = solver.check(6, PeriodicMode.DATA, SharingLevel.RANK)
        assert report is not None
        assert report.rule == "command-bus"

    def test_l5_rank_data_conflicts(self, solver):
        assert solver.check(
            5, PeriodicMode.DATA, SharingLevel.RANK
        ) is not None

    def test_l14_bank_ras_conflicts(self, solver):
        report = solver.check(14, PeriodicMode.RAS, SharingLevel.BANK)
        assert report is not None

    def test_l42_none_ras_conflicts(self, solver):
        report = solver.check(42, PeriodicMode.RAS, SharingLevel.NONE)
        assert report is not None

    def test_larger_gaps_stay_legal(self, solver):
        # Any multiple of a legal gap structure: spot-check a range.
        for l in (43, 44, 50, 60, 100):
            assert solver.check(
                l, PeriodicMode.RAS, SharingLevel.NONE
            ) is None


class TestKnownAnswers:
    @pytest.mark.parametrize("mode", list(PeriodicMode), ids=str)
    @pytest.mark.parametrize("preset, sharing", sorted(KNOWN_GAPS))
    def test_solve(self, preset, sharing, mode):
        solver = PipelineSolver(getattr(timing, preset))
        gaps = KNOWN_GAPS[(preset, sharing)]
        expected = gaps[list(PeriodicMode).index(mode)]
        assert solver.solve(mode, SharingLevel(sharing)) == expected

    @pytest.mark.parametrize(
        "preset", ["DDR3_1600_X4", "DDR3_1066", "DDR4_2400"]
    )
    def test_best_and_solve_all(self, preset):
        solver = PipelineSolver(getattr(timing, preset))
        assert solver.solve_all() == {
            (sharing.value, mode.value):
                KNOWN_GAPS[(preset, sharing.value)][i]
            for sharing in SharingLevel
            for i, mode in enumerate(PeriodicMode)
        }
        for sharing in SharingLevel:
            gaps = KNOWN_GAPS[(preset, sharing.value)]
            best = min(gaps)
            assert solver.best(sharing) == (
                list(PeriodicMode)[gaps.index(best)], best
            )


class TestSlotTiming:
    def test_periodic_data_read_offsets(self):
        t = slot_timing(P, PeriodicMode.DATA, is_read=True)
        assert (t.act, t.col, t.data) == (-22, -11, 0)

    def test_periodic_data_write_offsets(self):
        t = slot_timing(P, PeriodicMode.DATA, is_read=False)
        assert (t.act, t.col, t.data) == (-16, -5, 0)

    def test_periodic_ras_read_offsets(self):
        t = slot_timing(P, PeriodicMode.RAS, is_read=True)
        assert (t.act, t.col, t.data) == (0, 11, 22)

    def test_periodic_cas_write_offsets(self):
        t = slot_timing(P, PeriodicMode.CAS, is_read=False)
        assert (t.act, t.col, t.data) == (-11, 0, 5)


class TestSolverProperties:
    def test_check_validates_input(self, solver):
        with pytest.raises(ValueError):
            solver.check(0, PeriodicMode.DATA, SharingLevel.RANK)

    def test_unsolvable_raises(self, solver):
        with pytest.raises(RuntimeError):
            solver.solve(PeriodicMode.RAS, SharingLevel.NONE, max_l=10)

    def test_sharing_levels_monotone(self, solver):
        """More sharing can never allow a smaller gap."""
        for mode in PeriodicMode:
            rank = solver.solve(mode, SharingLevel.RANK)
            bank = solver.solve(mode, SharingLevel.BANK)
            none = solver.solve(mode, SharingLevel.NONE)
            assert rank <= bank <= none

    def test_solve_all_covers_grid(self, solver):
        grid = solver.solve_all()
        assert len(grid) == 9


@st.composite
def timing_params(draw):
    """Random-but-consistent DDR3-like parameter sets."""
    tRCD = draw(st.integers(5, 15))
    tCAS = draw(st.integers(5, 15))
    tCWD = draw(st.integers(3, min(tCAS, 10)))
    tBURST = draw(st.integers(2, 6))
    tRAS = draw(st.integers(15, 35))
    tRP = draw(st.integers(5, 15))
    tRRD = draw(st.integers(3, 8))
    tFAW = draw(st.integers(4 * 4, 40))
    return TimingParams(
        tRCD=tRCD, tCAS=tCAS, tCWD=tCWD, tBURST=tBURST, tRAS=tRAS,
        tRP=tRP, tRC=tRAS + tRP, tRRD=tRRD, tFAW=tFAW,
        tWR=draw(st.integers(6, 16)), tWTR=draw(st.integers(3, 10)),
        tRTP=draw(st.integers(3, 10)), tCCD=max(2, tBURST),
        tRTRS=draw(st.integers(1, 4)),
    )


class TestSolverPropertyBased:
    @given(timing_params(),
           st.sampled_from(list(PeriodicMode)),
           st.sampled_from(list(SharingLevel)))
    @settings(max_examples=30, deadline=None)
    def test_solution_is_minimal_and_legal(self, params, mode, sharing):
        solver = PipelineSolver(params)
        l = solver.solve(mode, sharing, max_l=1024)
        assert solver.check(l, mode, sharing) is None
        if l > params.tBURST:
            assert solver.check(l - 1, mode, sharing) is not None

    @given(timing_params())
    @settings(max_examples=20, deadline=None)
    def test_rank_data_at_least_burst_plus_trtrs(self, params):
        solver = PipelineSolver(params)
        l = solver.solve(PeriodicMode.DATA, SharingLevel.RANK, max_l=1024)
        assert l >= params.tBURST + params.tRTRS


class TestTemplateCacheProperties:
    """The schedule memo and its precomputed tables vs the solver's math.

    :func:`repro.core.schedule.cached_fs_schedule` runs the pipeline
    solver once per ``(timing, domains, sharing, ...)`` key and serves
    the same schedule object afterwards, to both engines.  Whatever
    random-but-consistent timing the solver is handed, the cached
    timetable must be *the same timetable* a fresh build produces, and
    the command offsets and anchor/decide/release tables it precomputes
    must equal the closed forms re-derived here from :func:`slot_timing`.
    """

    @staticmethod
    def assert_tables_match_slot_timing(schedule, params):
        from repro.core.schedule import CommandTimes

        rel = {
            is_read: slot_timing(params, schedule.mode, is_read)
            for is_read in (True, False)
        }
        for anchor in (0, 1, schedule.interval_length, 12345):
            for is_read, t in rel.items():
                assert schedule.command_times(anchor, is_read) == \
                    CommandTimes(act=anchor + t.act, col=anchor + t.col,
                                 data=anchor + t.data)
        earliest = min(min(t.act, t.col) for t in rel.values())
        for i, slot in enumerate(schedule.slots):
            anchor = schedule.lead + slot.anchor_offset
            assert schedule.anchor_base[i] == anchor
            assert schedule.decide_base[i] == anchor + earliest
            assert schedule.release_base[i] == \
                anchor + rel[True].data + params.tBURST

    @given(timing_params(),
           st.sampled_from([SharingLevel.RANK, SharingLevel.BANK]),
           st.integers(2, 8))
    @settings(max_examples=15, deadline=None)
    def test_cached_schedule_matches_fresh_build(
        self, params, sharing, domains
    ):
        from repro.core import schedule as sched

        sched.clear_caches()
        try:
            fresh = sched.build_fs_schedule(params, domains, sharing)
        except RuntimeError:
            return  # no feasible gap under the default bound: skip
        cached = sched.cached_fs_schedule(params, domains, sharing)
        # One solver run per key: the second lookup is the same object.
        assert sched.cached_fs_schedule(
            params, domains, sharing
        ) is cached
        assert sched.template_cache_stats() == {"hits": 1, "misses": 1}
        assert cached.slot_gap == fresh.slot_gap
        assert cached.mode is fresh.mode
        assert cached.interval_length == fresh.interval_length
        assert cached.slots == fresh.slots
        assert cached.lead == fresh.lead
        solver = PipelineSolver(params)
        assert solver.check(
            cached.slot_gap, cached.mode, sharing
        ) is None
        self.assert_tables_match_slot_timing(cached, params)

    @given(timing_params(), st.integers(2, 9))
    @settings(max_examples=15, deadline=None)
    def test_cached_triple_alternation_matches_fresh_build(
        self, params, domains
    ):
        from repro.core import schedule as sched

        sched.clear_caches()
        try:
            fresh = sched.build_triple_alternation_schedule(params, domains)
        except RuntimeError:
            return  # three slots cannot cover the same-bank gap: skip
        cached = sched.cached_triple_alternation_schedule(params, domains)
        assert sched.cached_triple_alternation_schedule(
            params, domains
        ) is cached
        assert sched.template_cache_stats() == {"hits": 1, "misses": 1}
        assert cached.slot_gap == fresh.slot_gap
        assert cached.interval_length == fresh.interval_length
        assert cached.slots == fresh.slots
        assert cached.lead == fresh.lead
        self.assert_tables_match_slot_timing(cached, params)

    @pytest.mark.parametrize(
        "scheme", ["fs_rp", "fs_bp", "fs_np", "fs_np_ta", "fs_rp_mc"]
    )
    def test_both_engines_share_one_schedule(self, scheme):
        from repro.sim.config import SystemConfig, full_target_config
        from repro.sim.runner import build_system
        from repro.workloads.spec import suite_specs

        config = (
            full_target_config(accesses_per_core=10)
            if scheme == "fs_rp_mc"
            else SystemConfig(num_cores=4, accesses_per_core=10)
        )
        specs = suite_specs("mcf", config.num_cores)

        def schedules(engine):
            controller = build_system(
                scheme, config, specs, engine=engine
            ).controller
            subs = getattr(controller, "_sub", None)
            if subs is None:
                return [controller.schedule]
            return [sub.schedule for _, sub in sorted(subs.items())]

        fast, reference = schedules("fast"), schedules("reference")
        assert all(f is r for f, r in zip(fast, reference))
        assert len(fast) == len(reference)
