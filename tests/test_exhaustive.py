"""Tests for the exhaustive bounded non-interference checker."""

import math

import pytest

from repro.analysis.exhaustive import (
    ACTIONS,
    exhaustive_noninterference,
)
from repro.sim.config import SystemConfig

CFG = SystemConfig()

#: The secure schemes of ``benchmarks/test_exhaustive_check.py``.
SECURE = ("fs_rp", "fs_reordered_bp", "fs_np_ta", "tp_bp", "channel_part")


class TestSecureSchemesHold:
    @pytest.mark.parametrize("scheme", SECURE)
    def test_all_adversarial_patterns_identical(self, scheme):
        report = exhaustive_noninterference(
            scheme, decision_points=3, config=CFG
        )
        assert report.holds, report.counterexample
        assert report.patterns_checked == len(ACTIONS) ** 3
        assert report.distinct_views == 1
        assert report.bits == 0.0

    @pytest.mark.parametrize("scheme", SECURE)
    def test_one_view_at_four_decision_points(self, scheme):
        report = exhaustive_noninterference(
            scheme, decision_points=4, config=CFG
        )
        assert report.patterns_checked == len(ACTIONS) ** 4
        assert report.distinct_views == 1
        assert report.bits == 0.0
        assert report.counterexample is None


class TestInsecureSchemesFail:
    def test_baseline_has_a_counterexample(self):
        report = exhaustive_noninterference(
            "baseline", decision_points=3, config=CFG
        )
        assert not report.holds
        # Every pattern runs; the counterexample is still the first
        # pattern whose view differs from the first pattern's.
        assert report.patterns_checked == len(ACTIONS) ** 3
        assert report.distinct_views == 4
        assert report.bits == 2.0
        assert report.counterexample == ("read", "idle", "idle")

    def test_fcfs_has_a_counterexample(self):
        report = exhaustive_noninterference(
            "fcfs", decision_points=3, config=CFG
        )
        assert not report.holds
        # Every pattern leaves FCFS's victim a view of its own.
        assert report.distinct_views == len(ACTIONS) ** 3
        assert report.bits == math.log2(27)
        assert report.counterexample == ("idle", "idle", "read")

    @pytest.mark.parametrize("scheme, views, bits", [
        ("baseline", 7, 2.807),
        ("fcfs", 74, 6.209),
    ])
    def test_view_counts_at_four_decision_points(self, scheme, views,
                                                 bits):
        report = exhaustive_noninterference(
            scheme, decision_points=4, config=CFG
        )
        assert report.patterns_checked == len(ACTIONS) ** 4
        assert report.distinct_views == views
        assert report.bits == math.log2(views)
        assert round(report.bits, 3) == bits


class TestParameters:
    def test_validates_decision_points(self):
        with pytest.raises(ValueError):
            exhaustive_noninterference("fs_rp", decision_points=0)

    def test_restricted_action_set(self):
        report = exhaustive_noninterference(
            "fs_rp", decision_points=3, actions=("idle", "read"),
            config=CFG,
        )
        assert report.holds
        assert report.patterns_checked == 2 ** 3
