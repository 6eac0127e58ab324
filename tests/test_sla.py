"""Tests for SLA slot assignments (Section 5.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline_solver import SharingLevel
from repro.core.schedule import validate_schedule
from repro.core.sla import (
    bandwidth_share,
    build_sla_schedule,
    weighted_slot_order,
)
from repro.dram.timing import DDR3_1600_X4

P = DDR3_1600_X4


class TestWeightedSlotOrder:
    def test_equal_weights_round_robin(self):
        assert weighted_slot_order([1, 1, 1]) == [0, 1, 2]

    def test_doc_example(self):
        assert weighted_slot_order([2, 1, 1]) == [0, 1, 2, 0]

    def test_counts_match_weights(self):
        order = weighted_slot_order([3, 1, 2])
        assert order.count(0) == 3
        assert order.count(1) == 1
        assert order.count(2) == 2

    def test_heavy_domain_spread_out(self):
        order = weighted_slot_order([4, 1, 1, 1, 1])
        # Domain 0's four slots must never be adjacent.
        positions = [i for i, d in enumerate(order) if d == 0]
        for a, b in zip(positions, positions[1:]):
            assert b - a >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_slot_order([])
        with pytest.raises(ValueError):
            weighted_slot_order([1, 0])

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_every_weighting_is_complete(self, weights):
        order = weighted_slot_order(weights)
        assert len(order) == sum(weights)
        for d, w in enumerate(weights):
            assert order.count(d) == w


class TestSlaSchedule:
    def test_equal_assignment_matches_plain(self):
        sla = build_sla_schedule(P, SharingLevel.RANK, [1] * 8)
        assert sla.interval_length == 56
        assert sla.slot_gap == 7

    def test_unequal_assignment_shares(self):
        sla = build_sla_schedule(P, SharingLevel.RANK, [2, 1, 1])
        assert len(sla.slots_of_domain(0)) == 2
        assert sla.interval_length == 4 * 7

    def test_unequal_assignment_validates_same_type(self):
        """Uniform-direction streams validate for any SLA.  (When a
        domain owns slots closer together than the write-to-read
        turnaround, mixed-direction streams additionally rely on the
        controller's hazard scan — covered by TestSlaController.)"""
        sla = build_sla_schedule(P, SharingLevel.RANK, [2, 2, 1, 1, 1, 1])
        n = sla.slots_per_interval
        patterns = [[True] * n, [False] * n]
        assert validate_schedule(sla, patterns=patterns) == []

    def test_bank_level_sla_validates_same_type(self):
        sla = build_sla_schedule(P, SharingLevel.BANK, [3, 1, 2, 1, 1])
        n = sla.slots_per_interval
        patterns = [[True] * n, [False] * n]
        assert validate_schedule(sla, patterns=patterns) == []

    def test_bandwidth_share(self):
        assert bandwidth_share([2, 1, 1], 0) == 0.5
        assert bandwidth_share([2, 1, 1], 2) == 0.25
        with pytest.raises(ValueError):
            bandwidth_share([1, 1], 2)


class TestSlaController:
    def test_heavy_domain_gets_double_service(self):
        """A 2-slot domain is served twice per interval by the FS
        controller, with no schedule violations."""
        import random

        from repro.core.fs_controller import FixedServiceController
        from repro.dram.checker import TimingChecker
        from repro.dram.commands import OpType, Request
        from repro.dram.system import DramSystem
        from repro.mapping.address import Geometry
        from repro.mapping.partition import RankPartition
        from repro.sim.openloop import drive_open_loop

        assignment = [2, 1, 1, 1, 1, 1, 1]  # 7 domains, 8 slots
        schedule = build_sla_schedule(P, SharingLevel.RANK, assignment)
        geometry = Geometry()
        partition = RankPartition(geometry, 7)
        dram = DramSystem(P)
        ctrl = FixedServiceController(
            dram, schedule, partition, log_commands=True
        )
        rng = random.Random(0)
        requests = []
        t = 0
        for _ in range(300):
            d = rng.randrange(7)
            line = rng.randrange(50_000)
            requests.append(Request(
                op=OpType.READ, address=partition.decode(d, line),
                domain=d, arrival=t, line=line,
            ))
            t += 3
        drive_open_loop(ctrl, requests)
        assert TimingChecker(P).check(ctrl.command_log) == []
        served = {d: len(ctrl.service_trace[d]) for d in range(7)}
        # Domain 0 gets ~2x the service of everyone else.
        assert served[0] == pytest.approx(2 * served[1], rel=0.1)
