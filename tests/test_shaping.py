"""Tests for per-domain shaping: hazard tracking and dummy generation."""

import pytest

from repro.core.schedule import CommandTimes
from repro.core.shaping import DomainHazardTracker, DummyGenerator
from repro.dram.commands import Address
from repro.dram.timing import DDR3_1600_X4
from repro.mapping.address import Geometry
from repro.mapping.partition import BankPartition, RankPartition

P = DDR3_1600_X4
G = Geometry()


def times(anchor, is_read=True):
    """Periodic-data command times for an anchor."""
    if is_read:
        return CommandTimes(anchor - 22, anchor - 11, anchor)
    return CommandTimes(anchor - 16, anchor - 5, anchor)


ADDR = Address(0, 0, 0, 10, 0)
OTHER_BANK = Address(0, 0, 1, 10, 0)
OTHER_RANK = Address(0, 1, 0, 10, 0)


class TestHazardTracker:
    @pytest.fixture
    def tracker(self):
        return DomainHazardTracker(P)

    def test_fresh_tracker_allows_anything(self, tracker):
        assert tracker.legal(times(100), ADDR, True)

    def test_same_bank_needs_trc(self, tracker):
        tracker.commit(times(100), ADDR, True)
        assert not tracker.legal(times(100 + P.tRC - 1), ADDR, True)
        assert tracker.legal(times(100 + P.tRC + 22), ADDR, True)

    def test_same_bank_write_turnaround_43(self, tracker):
        tracker.commit(times(100, False), ADDR, False)
        # ACT-to-ACT gap must be >= 43 after a write.
        write_act = 100 - 16
        ok_anchor = write_act + 43 + 22
        assert tracker.legal(times(ok_anchor), ADDR, True)
        assert not tracker.legal(times(ok_anchor - 2), ADDR, True)

    def test_same_rank_write_to_read(self, tracker):
        tracker.commit(times(100, False), ADDR, False)
        # Read column must trail the write column by Wr2Rd = 15.
        # Write col at 95; read col at anchor - 11.
        assert not tracker.legal(times(95 + 15 + 11 - 1), OTHER_BANK, True)
        assert tracker.legal(times(95 + 15 + 11 + 22), OTHER_BANK, True)

    def test_same_rank_trrd(self, tracker):
        tracker.commit(times(100), ADDR, True)
        # ACT at 78; next ACT needs >= 83.
        assert not tracker.legal(
            CommandTimes(80, 91, 102), OTHER_BANK, True
        )

    def test_tfaw_window(self, tracker):
        # Four activates at 0, 6, 12, 18 to different banks.
        for i in range(4):
            addr = Address(0, 0, i, 1, 0)
            tracker.commit(CommandTimes(i * 6, i * 6 + 11, i * 6 + 22),
                           addr, True)
        fifth = Address(0, 0, 4, 1, 0)
        assert not tracker.legal(
            CommandTimes(P.tFAW - 1, P.tFAW + 10, P.tFAW + 21), fifth, True
        )
        assert tracker.legal(
            CommandTimes(P.tFAW + 40, P.tFAW + 51, P.tFAW + 62),
            fifth, True,
        )

    def test_different_rank_unconstrained(self, tracker):
        tracker.commit(times(100, False), ADDR, False)
        assert tracker.legal(times(104), OTHER_RANK, True)

    def test_read_then_read_same_bank_trc_ok(self, tracker):
        tracker.commit(times(100), ADDR, True)
        anchor = 100 - 22 + P.tRC + 22
        assert tracker.legal(times(anchor), ADDR, True)


class TestDummyGenerator:
    def test_deterministic_per_domain(self):
        part = RankPartition(G, 8)
        a = DummyGenerator(3, part)
        b = DummyGenerator(3, part)
        for _ in range(20):
            assert [x.bank_key() for x in a.candidates()] == \
                [x.bank_key() for x in b.candidates()]

    def test_different_domains_differ(self):
        part = RankPartition(G, 8)
        a = DummyGenerator(0, part)
        b = DummyGenerator(1, part)
        assert next(a.candidates()).rank != next(b.candidates()).rank

    def test_confined_to_partition(self):
        part = RankPartition(G, 8)
        gen = DummyGenerator(5, part)
        for _ in range(50):
            for addr in gen.candidates():
                assert (addr.channel, addr.rank) in part.ranks_of(5)

    def test_rotates_banks(self):
        part = RankPartition(G, 8)
        gen = DummyGenerator(0, part)
        first = [next(gen.candidates(limit=1)).bank for _ in range(8)]
        assert len(set(first)) == 8  # cycles through all 8 banks

    def test_bank_mod_filter(self):
        part = BankPartition(G, 2)
        gen = DummyGenerator(0, part)
        for mod in (0, 1, 2):
            for addr in gen.candidates(bank_mod=mod):
                assert addr.bank % 3 == mod

    def test_empty_partition_rejected(self):
        part = RankPartition(G, 8)
        with pytest.raises(ValueError):
            DummyGenerator(0, part, channel=5)

    def test_rows_vary(self):
        part = RankPartition(G, 8)
        gen = DummyGenerator(0, part)
        rows = {next(gen.candidates(limit=1)).row for _ in range(32)}
        assert len(rows) > 8
