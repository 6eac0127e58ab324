"""Security tests: non-interference and covert-channel elimination.

These are the operational form of the paper's central claim (Section 3:
"zero information leakage"): a domain's observable timing under any FS
scheme must be bit-for-bit identical no matter what the co-scheduled
domains do, while the non-secure baseline visibly leaks.
"""

import pytest

from repro.analysis.covert import run_covert_channel
from repro.analysis.leakage import (
    figure4_profiles,
    interference_report,
    victim_view,
)
from repro.sim.config import SystemConfig
from repro.workloads.spec import workload
from repro.workloads.synthetic import WorkloadSpec, idle_spec, intense_spec

CFG = SystemConfig(accesses_per_core=400)
FS_SCHEMES = ("fs_rp", "fs_bp", "fs_np", "fs_np_ta", "fs_reordered_bp")


class TestNonInterference:
    @pytest.mark.parametrize("scheme", FS_SCHEMES)
    def test_fs_schemes_are_bit_identical(self, scheme):
        report = interference_report(scheme, workload("mcf"), config=CFG)
        assert report.identical, (
            f"{scheme} leaked: profile divergence "
            f"{report.max_profile_divergence_cycles} cycles"
        )

    def test_tp_is_also_non_interfering(self):
        report = interference_report("tp_bp", workload("mcf"), config=CFG)
        assert report.identical

    def test_tp_np_is_also_non_interfering(self):
        report = interference_report("tp_np", workload("mcf"), config=CFG)
        assert report.identical

    def test_channel_partitioning_is_non_interfering(self):
        """Section 4.1: with private channels nothing is shared, so even
        the aggressive FR-FCFS scheduler is exactly isolating."""
        report = interference_report(
            "channel_part", workload("mcf"), config=CFG
        )
        assert report.identical

    def test_baseline_leaks(self):
        report = interference_report(
            "baseline", workload("mcf"), config=CFG
        )
        assert report.leaks
        assert report.max_profile_divergence_cycles > 1000

    def test_fs_rp_identical_across_many_co_runners(self):
        co_runners = [
            idle_spec(),
            intense_spec(),
            workload("lbm"),        # write-heavy
            workload("xalancbmk"),  # light
        ]
        report = interference_report(
            "fs_rp", workload("milc"), co_runners, config=CFG
        )
        assert report.identical

    def test_fs_rp_victim_does_depend_on_itself(self):
        """Sanity: the victim's own workload must still matter."""
        a = victim_view("fs_rp", workload("mcf"), idle_spec(), CFG)
        b = victim_view("fs_rp", workload("milc"), idle_spec(), CFG)
        assert a.profile != b.profile


class TestFigure4:
    @pytest.fixture(scope="class")
    def profiles(self):
        return figure4_profiles(config=CFG)

    def test_baseline_curves_diverge(self, profiles):
        quiet = profiles["baseline/non_intensive"]
        loud = profiles["baseline/intensive"]
        assert quiet.profile != loud.profile
        # The attacker can read co-runner intensity from its own slowdown.
        assert loud.ipc < quiet.ipc

    def test_fs_curves_overlap_perfectly(self, profiles):
        quiet = profiles["fs_rp/non_intensive"]
        loud = profiles["fs_rp/intensive"]
        assert quiet.profile == loud.profile
        assert quiet.read_releases == loud.read_releases

    def test_fs_pays_for_security_with_throughput(self, profiles):
        # FS with quiet co-runners is slower than the baseline with
        # quiet co-runners — that's the Figure 4 gap between the red and
        # black curves.
        assert profiles["fs_rp/non_intensive"].ipc < \
            profiles["baseline/non_intensive"].ipc


class TestPowerSideChannel:
    """Section 5.2: with dummies enabled (no suppression), every thread
    has a constant memory energy/power requirement, so the design also
    resists physical power-measurement attacks."""

    #: Fixed observation horizon: power traces compare per unit time.
    #: Short enough that no run finishes early under either co-runner.
    HORIZON = 20_000

    def _rank_activity(self, co_spec):
        from repro.sim.runner import build_system

        specs = [workload("mcf")] + [co_spec] * 7
        system = build_system("fs_rp", CFG, specs)
        result = system.run(max_cycles=self.HORIZON)
        rank0 = system.controller.dram.channels[0].ranks[0]
        return (
            (rank0.energy.activates, rank0.energy.reads,
             rank0.energy.writes),
            result.cycles,
        )

    def test_victim_rank_activity_independent_of_co_runners(self):
        quiet, c1 = self._rank_activity(idle_spec())
        loud, c2 = self._rank_activity(intense_spec())
        assert c1 == c2 == self.HORIZON
        assert quiet == loud

    def test_activity_rate_is_constant(self):
        """One activate per interval per rank: the power draw carries no
        signal at all (dummy slots burn the same energy as demand)."""
        (activates, _, _), cycles = self._rank_activity(idle_spec())
        intervals = cycles / 56
        assert activates == pytest.approx(intervals, rel=0.05)


class TestCovertChannel:
    BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 0)

    def test_baseline_carries_the_channel(self):
        result = run_covert_channel("baseline", self.BITS, config=CFG)
        assert result.bit_error_rate <= 0.1
        assert result.signal_swing > 1.0

    def test_fs_rp_closes_the_channel(self):
        result = run_covert_channel("fs_rp", self.BITS, config=CFG)
        assert result.bit_error_rate >= 0.3
        assert result.signal_swing < 1.0

    def test_fs_reordered_bp_closes_the_channel(self):
        result = run_covert_channel(
            "fs_reordered_bp", self.BITS, config=CFG
        )
        assert result.signal_swing < 2.0

    def test_result_reports_windows(self):
        result = run_covert_channel("baseline", self.BITS, config=CFG)
        assert len(result.window_means) == len(self.BITS)
        assert len(result.decoded_bits) == len(self.BITS)

    @pytest.mark.parametrize("scheme", ["fs_bp", "fs_np", "fs_np_ta", "tp_bp"])
    def test_own_latency_ramp_is_not_signal(self, scheme):
        """On these schemes the receiver's own latency moves whether or
        not the sender sends (on the FS ones its probes outrun its slot
        rate); measured against a silent sender, the signal is flat."""
        result = run_covert_channel(scheme, self.BITS, config=CFG)
        assert result.window_means == (0.0,) * len(self.BITS)
        assert result.decoded_bits == (0,) * len(self.BITS)
        assert result.signal_swing == 0.0
