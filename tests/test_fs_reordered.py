"""Tests for FS with reordered bank partitioning (Section 4.2)."""

import random

import pytest

from repro.core.fs_reordered import ReorderedBpController
from repro.dram.checker import TimingChecker
from repro.dram.commands import CommandType, OpType, Request
from repro.dram.system import DramSystem
from repro.dram.timing import DDR3_1600_X4
from repro.mapping.address import Geometry
from repro.mapping.partition import BankPartition
from repro.sim.openloop import drive_open_loop

P = DDR3_1600_X4
G = Geometry()


def make_controller(num_domains=8):
    dram = DramSystem(P)
    partition = BankPartition(G, num_domains)
    ctrl = ReorderedBpController(
        dram, partition, num_domains, log_commands=True
    )
    return ctrl, partition


def random_requests(partition, n, num_domains=8, seed=3, spacing=10):
    rng = random.Random(seed)
    out, t = [], 0
    for _ in range(n):
        d = rng.randrange(num_domains)
        line = rng.randrange(100_000)
        op = OpType.READ if rng.random() < 0.6 else OpType.WRITE
        out.append(Request(
            op=op, address=partition.decode(d, line), domain=d,
            arrival=t, line=line,
        ))
        t += rng.randrange(0, spacing)
    return out


class TestCorrectness:
    def test_all_reads_released(self):
        ctrl, part = make_controller()
        reqs = random_requests(part, 250)
        released, _ = drive_open_loop(ctrl, reqs)
        assert len(released) == sum(1 for r in reqs if r.is_read)

    def test_commands_pass_jedec_checker(self):
        ctrl, part = make_controller()
        reqs = random_requests(part, 300, spacing=5)
        drive_open_loop(ctrl, reqs)
        assert TimingChecker(P).check(ctrl.command_log) == []

    def test_interval_length_is_63(self):
        ctrl, _ = make_controller()
        assert ctrl.geometry.interval_length == 63

    def test_domain_count_mismatch_rejected(self):
        dram = DramSystem(P)
        part = BankPartition(G, 8)
        from repro.core.schedule import build_reordered_bp_geometry
        geo = build_reordered_bp_geometry(P, 4)
        with pytest.raises(ValueError):
            ReorderedBpController(dram, part, 8, geometry=geo)


class TestReordering:
    def test_reads_precede_writes_within_interval(self):
        ctrl, part = make_controller()
        reqs = random_requests(part, 200, spacing=4)
        drive_open_loop(ctrl, reqs)
        q = ctrl.geometry.interval_length
        by_interval = {}
        for cmd in ctrl.command_log:
            if not cmd.type.is_column:
                continue
            data = cmd.cycle + (P.tCAS if cmd.type.is_read else P.tCWD)
            interval = (data - ctrl._lead) // q
            by_interval.setdefault(interval, []).append(
                (data, cmd.type.is_read)
            )
        for entries in by_interval.values():
            entries.sort()
            kinds = [is_read for _, is_read in entries]
            # Once a write appears, no read may follow in this interval.
            if False in kinds:
                first_write = kinds.index(False)
                assert all(not k for k in kinds[first_write:])

    def test_data_slots_on_six_cycle_pitch(self):
        ctrl, part = make_controller()
        reqs = random_requests(part, 200, spacing=4)
        drive_open_loop(ctrl, reqs)
        q = ctrl.geometry.interval_length
        for cmd in ctrl.command_log:
            if not cmd.type.is_column:
                continue
            data = cmd.cycle + (P.tCAS if cmd.type.is_read else P.tCWD)
            offset = (data - ctrl._lead) % q
            assert offset % ctrl.geometry.data_gap == 0
            assert offset <= ctrl.geometry.data_gap * 7


class TestEnMasseRelease:
    def test_reads_release_at_interval_end(self):
        ctrl, part = make_controller()
        reqs = random_requests(part, 150, spacing=8)
        released, _ = drive_open_loop(ctrl, reqs)
        q = ctrl.geometry.interval_length
        last_slot_offset = (
            (ctrl.geometry.num_domains - 1) * ctrl.geometry.data_gap
            + P.tBURST
        )
        for r in released:
            offset = (r.release - ctrl._lead) % q
            assert offset == last_slot_offset % q

    def test_same_interval_reads_release_together(self):
        ctrl, part = make_controller()
        # Two domains inject simultaneously; both reads must release at
        # the same cycle even though their data slots differ.
        reqs = [
            Request(op=OpType.READ, address=part.decode(0, 11), domain=0,
                    arrival=0, line=11),
            Request(op=OpType.READ, address=part.decode(1, 22), domain=1,
                    arrival=0, line=22),
        ]
        released, _ = drive_open_loop(ctrl, reqs)
        assert len(released) == 2
        assert released[0].release == released[1].release
