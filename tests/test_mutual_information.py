"""Tests for the leakage measures: the plug-in MI estimator and the
count of distinct attacker views."""

import dataclasses
import math

import pytest

from repro.analysis.leakage import count_views, interference_report
from repro.certify.estimators import mutual_information_bits
from repro.sim.config import SystemConfig
from repro.workloads.spec import workload
from repro.workloads.synthetic import idle_spec, intense_spec


class TestMiEstimator:
    def test_independent_variables_zero_bits(self):
        samples = [(s, (0,)) for s in (0, 1, 0, 1)]
        assert mutual_information_bits(samples) == 0.0

    def test_fully_determined_one_bit(self):
        samples = [(0, (10,)), (1, (20,))] * 8
        assert mutual_information_bits(samples) == pytest.approx(1.0)

    def test_two_bits_for_four_secrets(self):
        samples = [(s, (s,)) for s in range(4)] * 4
        assert mutual_information_bits(samples) == pytest.approx(2.0)

    def test_partial_leak_between(self):
        # Secret 0 and 1 share an observation half the time.
        samples = (
            [(0, (0,))] * 4 + [(1, (0,))] * 2 + [(1, (1,))] * 2
        )
        bits = mutual_information_bits(samples)
        assert 0.0 < bits < 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mutual_information_bits([])


class TestViewCount:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 27, 81])
    def test_k_distinct_views_leak_log2_k_bits(self, k):
        # Each view appears a different number of times: only the
        # number of distinct views counts, not how often each is seen.
        observations = [
            ((view,), (view * 3, view + 1))
            for view in range(k) for _ in range(view + 1)
        ]
        assert count_views(observations) == (k, math.log2(k))

    def test_one_view_leaks_zero_bits(self):
        distinct, bits = count_views([((1, 2), (3,))] * 5)
        assert distinct == 1
        assert bits == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            count_views([])


class TestChannelLeakage:
    """The attacker (mcf) against three co-runner secrets, at two trace
    seeds: each seed's views are counted on their own."""

    CFG = SystemConfig(accesses_per_core=120)
    SECRETS = (idle_spec(), intense_spec(), workload("milc"))
    SEEDS = (1000, 1001)

    def report(self, scheme, seed):
        return interference_report(
            scheme, workload("mcf"), self.SECRETS,
            config=dataclasses.replace(self.CFG, seed=seed),
        )

    def test_fs_leaks_zero_bits(self):
        for seed in self.SEEDS:
            report = self.report("fs_rp", seed)
            assert report.distinct_views == 1
            assert report.bits == 0.0

    def test_baseline_leaks_the_whole_secret(self):
        for seed in self.SEEDS:
            report = self.report("baseline", seed)
            assert report.distinct_views == len(self.SECRETS)
            assert report.bits == math.log2(3)

    def test_sample_bookkeeping(self):
        """One view per co-runner, in co-runner order."""
        report = self.report("fs_rp", self.SEEDS[0])
        assert [view.co_runner for view in report.views] == [
            secret.name for secret in self.SECRETS
        ]
