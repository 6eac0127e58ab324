"""Tests for the non-secure FR-FCFS baseline."""

import random

import pytest

from repro.controllers.frfcfs import FrFcfsController
from repro.dram.checker import TimingChecker
from repro.dram.commands import OpType, Request
from repro.dram.system import DramSystem
from repro.dram.timing import DDR3_1600_X4
from repro.mapping.address import Geometry
from repro.mapping.partition import NoPartition
from repro.sim.openloop import drive_open_loop

P = DDR3_1600_X4
G = Geometry()


def make():
    dram = DramSystem(P)
    return FrFcfsController(dram, 8, log_commands=True), NoPartition(G, 8)


def read(part, domain, line, arrival):
    return Request(op=OpType.READ, address=part.decode(domain, line),
                   domain=domain, arrival=arrival, line=line)


def write(part, domain, line, arrival):
    return Request(op=OpType.WRITE, address=part.decode(domain, line),
                   domain=domain, arrival=arrival, line=line)


class TestCorrectness:
    def test_all_reads_complete(self):
        ctrl, part = make()
        rng = random.Random(5)
        reqs = []
        t = 0
        for _ in range(400):
            d = rng.randrange(8)
            if rng.random() < 0.7:
                reqs.append(read(part, d, rng.randrange(50_000), t))
            else:
                reqs.append(write(part, d, rng.randrange(50_000), t))
            t += rng.randrange(0, 8)
        released, _ = drive_open_loop(ctrl, reqs)
        assert len(released) == sum(1 for r in reqs if r.is_read)

    def test_commands_pass_jedec_checker(self):
        ctrl, part = make()
        rng = random.Random(6)
        reqs = []
        t = 0
        for _ in range(400):
            d = rng.randrange(8)
            op = OpType.READ if rng.random() < 0.6 else OpType.WRITE
            line = rng.randrange(20_000)
            reqs.append(Request(op=op, address=part.decode(d, line),
                                domain=d, arrival=t, line=line))
            t += rng.randrange(0, 5)
        drive_open_loop(ctrl, reqs)
        assert TimingChecker(P).check(ctrl.command_log) == []


class TestRowHits:
    def test_row_hits_detected(self):
        ctrl, part = make()
        # Sequential lines share a row: open-page should hit.
        reqs = [read(part, 0, i, i * 30) for i in range(20)]
        released, _ = drive_open_loop(ctrl, reqs)
        hits = sum(1 for r in released if r.row_hit)
        assert hits >= 15

    def test_row_hit_is_faster(self):
        ctrl, part = make()
        reqs = [read(part, 0, 0, 0), read(part, 0, 1, 0)]
        released, _ = drive_open_loop(ctrl, reqs)
        lat = sorted(r.latency for r in released)
        # Second access rides the open row: only tCCD + burst later.
        assert lat[1] - lat[0] <= P.tCCD + P.tBURST

    def test_row_hit_bypasses_older_miss(self):
        ctrl, part = make()
        # Line 0 opens a row; a conflicting row arrives, then a hit.
        g = G
        row_stride = g.columns  # next row, same bank
        reqs = [
            read(part, 0, 0, 0),
            read(part, 0, row_stride * 8, 1),  # same bank, other row
            read(part, 0, 1, 2),               # row hit
        ]
        released, _ = drive_open_loop(ctrl, reqs)
        by_line = {r.line: r for r in released}
        assert by_line[1].data_start < by_line[row_stride * 8].data_start


class TestWriteDrain:
    def test_writes_drain_at_high_watermark(self):
        ctrl, part = make()
        reqs = [write(part, 0, i * 997, i) for i in range(40)]
        drive_open_loop(ctrl, reqs)
        assert ctrl.stats.demand_writes == 40

    def test_reads_prioritized_over_writes(self):
        ctrl, part = make()
        reqs = [write(part, 0, 1000 + i, 0) for i in range(8)]
        reqs.append(read(part, 1, 5, 0))
        released, _ = drive_open_loop(ctrl, reqs)
        # The read should complete quickly despite queued writes.
        assert released[0].latency < 200

    def test_forwarding_from_write_queue(self):
        ctrl, part = make()
        w = write(part, 0, 123, 0)
        r = read(part, 0, 123, 1)
        released, _ = drive_open_loop(ctrl, [w, r])
        assert released[0].latency <= 2  # forwarded, no DRAM trip


class TestStarvation:
    def test_old_requests_eventually_win(self):
        ctrl, part = make()
        # A stream of row hits to one row plus one conflicting request.
        reqs = [read(part, 0, i % 32, i * 5) for i in range(300)]
        victim = read(part, 0, G.columns * 64, 10)  # same bank, other row
        released, _ = drive_open_loop(ctrl, reqs + [victim])
        v = next(r for r in released if r.line == G.columns * 64)
        assert v.latency < ctrl.STARVATION_LIMIT + 500


class TestValidation:
    def test_watermark_ordering_enforced(self):
        dram = DramSystem(P)
        with pytest.raises(ValueError):
            FrFcfsController(dram, 8, write_queue_high=8,
                             write_queue_low=8)
