"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_scheme_and_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "warp", "mcf"])


class TestCommands:
    def test_solve(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "7" in out
        assert "Q=56" in out

    def test_run(self, capsys):
        assert main([
            "run", "fs_rp", "xalancbmk", "--accesses", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "bus utilization" in out
        assert "dummy fraction" in out

    def test_compare(self, capsys):
        assert main([
            "compare", "xalancbmk", "fs_rp", "--accesses", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "fs_rp" in out

    def test_audit_fs_passes(self, capsys):
        assert main([
            "audit", "fs_rp", "--workload", "xalancbmk",
            "--accesses", "80",
        ]) == 0
        assert "NON-INTERFERING" in capsys.readouterr().out

    def test_audit_baseline_fails(self, capsys):
        assert main([
            "audit", "baseline", "--workload", "mcf",
            "--accesses", "200",
        ]) == 1
        assert "LEAKS" in capsys.readouterr().out

    def test_covert_fs(self, capsys):
        assert main(["covert", "fs_rp", "--accesses", "80"]) == 0
        assert "bit error rate" in capsys.readouterr().out

    def test_run_monitor_prints_exact_total(self, capsys, monkeypatch):
        """The status line counts every violation, not just the ones
        the monitor keeps (``max_recorded``)."""
        from repro.core.online_monitor import OnlineInvariantMonitor
        from repro.sim import runner

        monitors = []

        def small_monitor(*args, **kwargs):
            monitor = OnlineInvariantMonitor(*args, max_recorded=3,
                                             **kwargs)
            monitors.append(monitor)
            return monitor

        monkeypatch.setattr(runner, "OnlineInvariantMonitor", small_monitor)
        assert main([
            "run", "fs_rp", "mcf", "--cores", "4", "--accesses", "80",
            "--monitor", "--inject", "borrow_foreign_slot:0.2",
        ]) == 1
        out = capsys.readouterr().out
        (monitor,) = monitors
        assert monitor.total_violations > len(monitor.violations) == 3
        assert (
            f"online invariant monitor: {monitor.total_violations} "
            f"violation(s), 3 listed" in out
        )
