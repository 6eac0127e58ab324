"""Tests for the Temporal Partitioning controller (prior work)."""

import random

import pytest

from repro.controllers.tp import (
    TemporalPartitioningController,
    default_dead_time,
    min_turn_length,
)
from repro.dram.checker import TimingChecker
from repro.dram.commands import OpType, Request
from repro.dram.system import DramSystem
from repro.dram.timing import DDR3_1600_X4
from repro.mapping.address import Geometry
from repro.mapping.partition import BankPartition, NoPartition
from repro.sim.openloop import drive_open_loop

P = DDR3_1600_X4
G = Geometry()


def make(turn_length=60, bank_partitioned=True, num_domains=8):
    dram = DramSystem(P)
    part = (
        BankPartition(G, num_domains) if bank_partitioned
        else NoPartition(G, num_domains)
    )
    ctrl = TemporalPartitioningController(
        dram, num_domains, turn_length=turn_length,
        bank_partitioned=bank_partitioned, log_commands=True,
    )
    return ctrl, part


class TestDeadTime:
    def test_bank_partitioned_dead_time(self):
        # tFAW - tRCD - 1 = 12 cycles: numerically the "12 ns" Wang et
        # al. quote for bank-partitioned TP.
        assert default_dead_time(P, True) == P.tFAW - P.tRCD - 1 == 12

    def test_no_partition_dead_time(self):
        # Write-recovery carry-over: tCWD + tBURST + tWR + tRP - 1 = 31.
        assert default_dead_time(P, False) == 31

    def test_np_dead_time_exceeds_bp(self):
        assert default_dead_time(P, False) > default_dead_time(P, True)

    def test_turn_must_exceed_dead_time(self):
        dram = DramSystem(P)
        with pytest.raises(ValueError):
            TemporalPartitioningController(
                dram, 8, turn_length=10, bank_partitioned=True
            )

    def test_min_turn_length_is_constructible(self):
        dram = DramSystem(P)
        TemporalPartitioningController(
            dram, 8, turn_length=min_turn_length(P, True)
        )


class TestTurnOwnership:
    def test_round_robin(self):
        ctrl, _ = make(turn_length=60)
        assert ctrl.turn_of(0)[0] == 0
        assert ctrl.turn_of(60)[0] == 1
        assert ctrl.turn_of(8 * 60)[0] == 0

    def test_issue_deadline(self):
        ctrl, _ = make(turn_length=60)
        _, start, deadline = ctrl.turn_of(130)
        assert start == 120 and deadline == 120 + 60 - ctrl.dead_time

    def test_next_turn_start(self):
        ctrl, _ = make(turn_length=60)
        assert ctrl.next_turn_start(0, 0) == 0
        assert ctrl.next_turn_start(1, 0) == 60
        assert ctrl.next_turn_start(0, 70) == 480

    def test_transactions_start_only_in_own_turn(self):
        ctrl, part = make(turn_length=60)
        rng = random.Random(2)
        reqs = []
        t = 0
        for _ in range(200):
            d = rng.randrange(8)
            line = rng.randrange(10_000)
            op = OpType.READ if rng.random() < 0.7 else OpType.WRITE
            reqs.append(Request(op=op, address=part.decode(d, line),
                                domain=d, arrival=t, line=line))
            t += rng.randrange(0, 10)
        drive_open_loop(ctrl, reqs)
        for domain, events in ctrl.service_trace.items():
            for cycle, _ in events:
                owner, start, deadline = ctrl.turn_of(cycle)
                assert owner == domain
                assert cycle < deadline


class TestCorrectness:
    @pytest.mark.parametrize("bank_partitioned,turn", [
        (True, 60), (True, 156), (False, 172), (False, 268),
    ])
    def test_all_reads_complete_and_legal(self, bank_partitioned, turn):
        ctrl, part = make(turn, bank_partitioned)
        rng = random.Random(9)
        reqs = []
        t = 0
        for _ in range(250):
            d = rng.randrange(8)
            line = rng.randrange(10_000)
            op = OpType.READ if rng.random() < 0.7 else OpType.WRITE
            reqs.append(Request(op=op, address=part.decode(d, line),
                                domain=d, arrival=t, line=line))
            t += rng.randrange(0, 8)
        released, _ = drive_open_loop(ctrl, reqs)
        assert len(released) == sum(1 for r in reqs if r.is_read)
        assert TimingChecker(P).check(ctrl.command_log) == []


class TestQueuingBehaviour:
    def test_wait_for_turn_dominates_latency(self):
        """A lone request from domain 7 waits most of a rotation."""
        ctrl, part = make(turn_length=60)
        # Arrive just after domain 7's turn ended.
        arrival = 8 * 60  # start of domain 0's second rotation
        req = Request(op=OpType.READ, address=part.decode(7, 42),
                      domain=7, arrival=arrival, line=42)
        released, _ = drive_open_loop(ctrl, [req])
        assert released[0].latency >= 7 * 60 - 60

    def test_longer_turns_hurt_single_thread_latency(self):
        lat = {}
        for turn in (60, 156):
            ctrl, part = make(turn_length=turn)
            req = Request(op=OpType.READ, address=part.decode(3, 7),
                          domain=3, arrival=1, line=7)
            released, _ = drive_open_loop(ctrl, [req])
            lat[turn] = released[0].latency
        assert lat[156] > lat[60]
