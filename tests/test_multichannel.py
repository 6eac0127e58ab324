"""Tests for the full-target multi-channel FS system (Section 4.1)."""

import dataclasses

import pytest

from repro.controllers.base import ControllerStats
from repro.dram.checker import TimingChecker
from repro.dram.timing import DDR3_1600_X4
from repro.sim.config import SystemConfig, full_target_config
from repro.sim.runner import SchemeOptions, build_system, run_scheme
from repro.workloads.spec import suite_specs

P = DDR3_1600_X4
CFG = full_target_config(accesses_per_core=120)


class TestFullTargetSystem:
    def test_config_matches_section_4_1(self):
        assert CFG.num_cores == 32
        assert CFG.geometry.channels == 4
        assert CFG.geometry.ranks == 8
        assert CFG.geometry.banks == 8

    def test_completes_and_is_legal(self):
        system = build_system(
            "fs_rp_mc", CFG, suite_specs("milc", 32),
            SchemeOptions(log_commands=True),
        )
        result = system.run(max_cycles=8_000_000)
        assert all(c.done for c in result.cores)
        assert TimingChecker(P).check(system.controller.command_log) == []

    def test_per_channel_peak_utilization(self):
        system = build_system("fs_rp_mc", CFG, suite_specs("mcf", 32))
        result = system.run(max_cycles=8_000_000)
        # Each channel runs the 57% pipeline independently.
        assert result.bus_utilization <= 4 / 7 + 0.01

    def test_throughput_matches_single_channel_shape(self):
        specs = suite_specs("milc", 32)
        baseline = run_scheme("baseline", CFG, specs,
                              max_cycles=8_000_000)
        fs = run_scheme("fs_rp_mc", CFG, specs, max_cycles=8_000_000)
        ratio = fs.weighted_ipc(baseline) / 32.0
        assert 0.5 < ratio < 0.9  # the paper's -27% band, widened

    def test_stats_aggregate_across_channels(self):
        system = build_system("fs_rp_mc", CFG, suite_specs("milc", 32))
        result = system.run(max_cycles=8_000_000)
        assert result.stats.demand_reads == result.total_reads
        subs = system.controller._sub
        # No fault injector runs here: give the fault counters distinct
        # per-channel values so their aggregation is observable too.
        for channel, sub in subs.items():
            sub.stats.faulted_slots += channel + 1
            sub.stats.squashed_duplicates += 2 * channel
        total = system.controller.stats
        for field in dataclasses.fields(ControllerStats):
            assert getattr(total, field.name) == sum(
                getattr(sub.stats, field.name) for sub in subs.values()
            ), field.name

    def test_monitor_observes_every_channel(self):
        """The watchdog checks the commands the per-channel
        sub-controllers issue, and is finalized with the run."""
        system = build_system(
            "fs_rp_mc", full_target_config(accesses_per_core=40),
            suite_specs("milc", 32),
            SchemeOptions(log_commands=True, monitor=True),
        )
        monitor = system.controller.monitor
        observed = []
        observe = monitor.observe_command

        def spy(command):
            observed.append(command)
            observe(command)

        monitor.observe_command = spy
        system.run(max_cycles=8_000_000)
        assert observed
        assert len(observed) == len(system.controller.command_log)
        assert {c.channel for c in observed} == {0, 1, 2, 3}
        assert monitor._finalized
        assert monitor.ok

    def test_service_trace_covers_every_domain(self):
        system = build_system("fs_rp_mc", CFG, suite_specs("milc", 32))
        system.run(max_cycles=8_000_000)
        trace = system.controller.service_trace
        assert set(trace) == set(range(32))
        assert all(trace[d] for d in range(32))

    def test_domains_spanning_channels_rejected(self):
        from repro.mapping.address import Geometry
        from repro.mapping.partition import RankPartition
        from repro.dram.system import DramSystem
        from repro.sim.multichannel import MultiChannelFsController

        geometry = Geometry(channels=4, ranks=8, banks=8)
        dram = DramSystem(P, num_channels=4)
        partition = RankPartition(geometry, 8)  # 4 ranks per domain
        with pytest.raises(ValueError, match="spans channels"):
            MultiChannelFsController(dram, partition, 8)


class TestCrossChannelIsolation:
    def test_victims_on_other_channels_invisible(self):
        """Domains on different channels share nothing; a domain's view
        must be identical whatever happens elsewhere."""
        from repro.analysis.leakage import interference_report
        from repro.workloads.spec import workload

        report = interference_report(
            "fs_rp_mc", workload("mcf"),
            config=full_target_config(accesses_per_core=150),
        )
        assert report.identical
