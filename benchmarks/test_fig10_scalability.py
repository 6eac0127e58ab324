"""Figure 10: scalability with core count (8 / 4 / 2 cores).

Regenerates the bars — rank-partitioned FS, reordered bank-partitioned
FS, and bank-partitioned TP at 8, 4 and 2 cores with as many ranks as
cores — and asserts the paper's findings: FS beats TP at every scale
(paper: +85% at 4 cores, +18% at 2 cores) with the margin narrowing as
the Section-7 same-rank hazard (the 43-cycle rule) bites at small rank
counts.
"""

import os
import statistics
import time

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.report import format_series

from .common import once, publish, weighted_ipc

WORKLOADS = ["mix1", "CG", "libquantum", "mcf", "milc", "xalancbmk"]
CORE_COUNTS = (8, 4, 2)
SCHEMES = ("fs_rp", "fs_reordered_bp", "tp_bp")


def test_figure10_scalability(benchmark):
    def sweep():
        series = {}
        for scheme in SCHEMES:
            series[scheme] = [
                arithmetic_mean([
                    weighted_ipc(scheme, wl, cores=n) for wl in WORKLOADS
                ])
                for n in CORE_COUNTS
            ]
        return series

    series = once(benchmark, sweep)
    publish("fig10_scalability", format_series(
        [f"{n} cores" for n in CORE_COUNTS], series,
        title="Figure 10: scalability (AM of weighted IPC; baseline = "
              "core count; ranks = cores)",
    ))
    fs, re_bp, tp = (series[s] for s in SCHEMES)
    for i, n in enumerate(CORE_COUNTS):
        # FS out-performs TP at every core count (paper: 85% at 4 cores,
        # 18% at 2 cores).
        assert fs[i] > tp[i], f"{n} cores"
        # Everything stays below the non-secure ceiling.
        assert fs[i] < n and re_bp[i] < n and tp[i] < n
    # The FS margin over TP narrows with fewer cores: the same-rank
    # 43-cycle hazard forces bubbles/dummy slots at low rank counts.
    margin = [fs[i] / tp[i] for i in range(len(CORE_COUNTS))]
    assert margin[0] > margin[-1]


# ---------------------------------------------------------------------
# Fast-engine speedup gate.
# ---------------------------------------------------------------------

#: A representative slice of the Figure 10 grid (scheme mixture incl.
#: the non-secure baseline the figure normalizes against).
SPEEDUP_SCHEMES = ("baseline",) + SCHEMES
SPEEDUP_WORKLOADS = ["mix1", "mcf", "libquantum"]
SPEEDUP_CORES = (8, 4)

#: Minimum fast/reference wall-clock ratio CI accepts.  Measured on the
#: full grid: baseline ~3.4x, TP ~2.7x, FS rank-partitioned ~1.9x, FS
#: reordered ~1.8x, composite ~2.6-2.7x (single vCPU, best-of-3).  The
#: reference simulator is itself event-driven (docs/INTERNALS.md
#: Sections 6 and 8), so the FS schemes have structurally modest
#: headroom and the composite sits below the 3-5x one would expect
#: against a cycle-ticking baseline.  The floor is set under the
#: measured ratio by a margin for noisy shared CI runners; a drop below
#: it indicates a fast-path performance regression, not machine load.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SPEEDUP_FLOOR", "2.0"))

#: Alternating (fast, reference) pass pairs the gate takes the median
#: of; odd, so the median is one pair's own ratio.
SPEEDUP_PAIRS = 3


def _grid_seconds(engine: str) -> float:
    """Wall-clock for one uncached pass of the grid slice."""
    from repro.sim.config import SystemConfig
    from repro.sim.runner import run_scheme
    from repro.workloads.spec import suite_specs

    from .common import ACCESSES_PER_CORE, MAX_CYCLES

    start = time.perf_counter()
    for scheme in SPEEDUP_SCHEMES:
        for cores in SPEEDUP_CORES:
            config = SystemConfig(accesses_per_core=ACCESSES_PER_CORE)
            if cores != config.num_cores:
                config = config.with_cores(cores)
            for workload in SPEEDUP_WORKLOADS:
                run_scheme(
                    scheme, config, suite_specs(workload, cores),
                    max_cycles=MAX_CYCLES, engine=engine,
                )
    return time.perf_counter() - start


def test_fast_engine_speedup():
    """The fast engine must stay meaningfully faster than the reference.

    Passes alternate, fast first, over ``SPEEDUP_PAIRS`` (fast,
    reference) pairs, and the gate is the median of the per-pair ratios
    reference / fast.  Host drift slower than one pair moves both of its
    passes alike and cancels in its ratio, and the median discards a
    pair that a load spike straddles; every pair's ratio is published.
    The first fast pass pays the one-time schedule solves, which the
    memo then shares with every later pass.
    """
    pairs = []
    for _ in range(SPEEDUP_PAIRS):
        fast = _grid_seconds("fast")
        pairs.append((fast, _grid_seconds("reference")))
    ratios = [ref / fast for fast, ref in pairs]
    ratio = statistics.median(ratios)
    publish(
        "fig10_engine_speedup",
        f"fig10 slice ({len(SPEEDUP_SCHEMES)} schemes x "
        f"{len(SPEEDUP_WORKLOADS)} workloads x cores {SPEEDUP_CORES}): "
        + ", ".join(
            f"pair {i}: reference {ref:.3f}s / fast {fast:.3f}s = "
            f"{ref / fast:.2f}x"
            for i, (fast, ref) in enumerate(pairs, 1)
        )
        + f"; median speedup {ratio:.2f}x (floor {SPEEDUP_FLOOR:.2f}x)",
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"fast engine speedup {ratio:.2f}x (median of "
        f"{', '.join(f'{r:.2f}x' for r in ratios)}) fell below the "
        f"{SPEEDUP_FLOOR:.2f}x gate — fast-path performance regression"
    )
