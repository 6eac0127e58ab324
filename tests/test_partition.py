"""Unit and property tests for spatial partitioning policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapping.address import Geometry
from repro.mapping.partition import (
    BankPartition,
    ChannelPartition,
    NoPartition,
    RankPartition,
    interleave_decode,
    make_partition,
)

G = Geometry()  # 1 channel, 8 ranks, 8 banks
G4 = Geometry(channels=4)


class TestChannelPartition:
    def test_needs_enough_channels(self):
        with pytest.raises(ValueError):
            ChannelPartition(G, 8)

    def test_disjoint_channels(self):
        p = ChannelPartition(G4, 4)
        owned = [set(p.channels_of(d)) for d in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not owned[i] & owned[j]

    def test_no_shared_resources(self):
        p = ChannelPartition(G4, 4)
        assert not p.domains_share_rank()
        assert not p.domains_share_bank()

    def test_decode_stays_in_partition(self):
        p = ChannelPartition(G4, 2)
        for line in (0, 17, 123456, 10**7):
            assert p.decode(1, line).channel in p.channels_of(1)


class TestRankPartition:
    def test_eight_domains_one_rank_each(self):
        p = RankPartition(G, 8)
        for d in range(8):
            assert p.ranks_of(d) == [(0, d)]

    def test_fewer_domains_get_multiple_ranks(self):
        p = RankPartition(G, 2)
        assert len(p.ranks_of(0)) == 4
        assert len(p.ranks_of(1)) == 4

    def test_ranks_disjoint(self):
        p = RankPartition(G, 3)
        owned = [set(p.ranks_of(d)) for d in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not owned[i] & owned[j]

    def test_shares_nothing_below_rank(self):
        p = RankPartition(G, 8)
        assert not p.domains_share_rank()
        assert not p.domains_share_bank()

    def test_too_many_domains(self):
        with pytest.raises(ValueError):
            RankPartition(G, 9)

    @given(st.integers(0, 7), st.integers(0, 10**9))
    @settings(max_examples=100)
    def test_decode_confined(self, domain, line):
        p = RankPartition(G, 8)
        a = p.decode(domain, line)
        assert (a.channel, a.rank) in p.ranks_of(domain)


class TestBankPartition:
    def test_disjoint_banks(self):
        p = BankPartition(G, 8)
        assert not p.domains_share_bank()
        assert p.domains_share_rank()

    def test_eight_domains_bank_spread(self):
        p = BankPartition(G, 8)
        # Each domain owns one bank in every rank.
        banks = p.banks_of(0)
        assert len(banks) == 8
        assert len({rk for _, rk, _ in banks}) == 8

    @given(st.integers(0, 7), st.integers(0, 10**9))
    @settings(max_examples=100)
    def test_decode_confined(self, domain, line):
        p = BankPartition(G, 8)
        a = p.decode(domain, line)
        assert (a.channel, a.rank, a.bank) in set(p.banks_of(domain))

    def test_too_many_domains(self):
        small = Geometry(channels=1, ranks=1, banks=4)
        with pytest.raises(ValueError):
            BankPartition(small, 5)


class TestNoPartition:
    def test_everything_shared(self):
        p = NoPartition(G, 8)
        assert p.domains_share_rank()
        assert p.domains_share_bank()

    def test_domains_do_not_alias(self):
        p = NoPartition(G, 8)
        a = p.decode(0, 1000)
        b = p.decode(1, 1000)
        assert a != b

    def test_resources_cover_everything(self):
        p = NoPartition(G, 2)
        assert len(p.resources(0)) == 8 * 8


class TestFactory:
    @pytest.mark.parametrize("level,cls", [
        ("channel", ChannelPartition),
        ("rank", RankPartition),
        ("bank", BankPartition),
        ("none", NoPartition),
    ])
    def test_levels(self, level, cls):
        geometry = G4 if level == "channel" else G
        assert isinstance(make_partition(level, geometry, 4), cls)

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="unknown partition level"):
            make_partition("zone", G, 4)

    def test_level_property(self):
        assert make_partition("rank", G, 8).level == "rank"

    def test_domain_bounds_checked(self):
        p = make_partition("rank", G, 4)
        with pytest.raises(ValueError):
            p.resources(4)
        # A negative domain is refused too: it must not wrap around to
        # the last domain's resources.
        for level in ("channel", "rank", "bank", "none"):
            p = make_partition(level, G4 if level == "channel" else G, 4)
            for domain in (-1, 4):
                with pytest.raises(ValueError, match="out of range"):
                    p.decode(domain, 0)
                with pytest.raises(ValueError, match="out of range"):
                    p.resources(domain)

    @pytest.mark.parametrize("level,geometry,domains", [
        ("channel", G4, 2), ("channel", G4, 4),
        ("rank", G, 3), ("rank", G, 8), ("rank", G4, 5),
        ("bank", G, 3), ("bank", G, 8), ("bank", G4, 6),
    ])
    def test_decode_interleaves_the_domains_resources(self, level,
                                                      geometry, domains):
        p = make_partition(level, geometry, domains)
        for d in range(domains):
            resources = p.resources(d)
            for line in (0, 1, 127, 128, 4099, 123457, 10**9 + 7):
                assert p.decode(d, line) == interleave_decode(
                    resources, geometry, line
                )
            # Each call hands out a fresh list.
            resources.clear()
            assert p.resources(d)
