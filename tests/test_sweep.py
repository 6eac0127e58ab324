"""Tests for the parameter-sweep utilities."""

import pytest

from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions
from repro.sim.sweep import Sweep

CFG = SystemConfig(accesses_per_core=120)


@pytest.fixture
def sweep():
    return Sweep(CFG, max_cycles=3_000_000)


class TestRunPoint:
    def test_point_metrics(self, sweep):
        point = sweep.run_point("fs_rp", "xalancbmk")
        assert 0 < point.weighted_ipc <= 8.0
        assert 0 <= point.bus_utilization <= 1.0
        assert point.energy_pj > 0
        assert sweep.points == [point]

    def test_baseline_cached(self, sweep, monkeypatch):
        import repro.sim.sweep as sweep_mod

        ran = []
        real = sweep_mod.run_scheme

        def counting(scheme, *args, **kwargs):
            ran.append(scheme)
            return real(scheme, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_scheme", counting)
        sweep.run_point("fs_rp", "xalancbmk")
        sweep.run_point("tp_bp", "xalancbmk")
        assert ran == ["fs_rp", "baseline", "tp_bp"]

    def test_options_forwarded(self, sweep):
        point = sweep.run_point(
            "tp_bp", "xalancbmk", label="turn100",
            options=SchemeOptions(turn_length=100),
        )
        assert point.label == "turn100"


class TestGrids:
    def test_turn_length_sweep_shape(self, sweep):
        grid = sweep.turn_length_sweep(
            ["xalancbmk"], [60, 100], bank_partitioned=True
        )
        assert set(grid) == {60, 100}
        assert all(len(points) == 1 for points in grid.values())

    def test_core_count_sweep_shape(self, sweep):
        grid = sweep.core_count_sweep(
            ["fs_rp"], ["xalancbmk"], [8, 4]
        )
        assert set(grid) == {("fs_rp", 8), ("fs_rp", 4)}
        assert grid[("fs_rp", 4)][0].cores == 4

    def test_mean(self, sweep):
        grid = sweep.turn_length_sweep(["xalancbmk"], [60])
        assert sweep.mean(grid[60]) == grid[60][0].weighted_ipc
        with pytest.raises(ValueError):
            sweep.mean([])
