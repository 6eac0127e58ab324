"""Ablations called out by DESIGN.md (beyond the paper's figures).

* periodic DATA vs RAS vs CAS for every sharing level (the Section 3
  "fixed periodic commands" discussion);
* N-transactions-per-thread grouping (Section 3 "improving bandwidth" —
  the paper's negative result);
* SLA slot assignments (Section 5.1): differentiated service with the
  same pipeline;
* leakage in bits, counted as the attacker's distinct views
  (quantifying "zero leakage").
"""

import dataclasses
import math

from repro.analysis.leakage import interference_report
from repro.analysis.report import format_table
from repro.core.pipeline_solver import (
    GroupedPipelineSolver,
    PeriodicMode,
    PipelineSolver,
    SharingLevel,
)
from repro.core.sla import build_sla_schedule, weighted_slot_order
from repro.dram.timing import DDR3_1600_X4
from repro.workloads.spec import workload
from repro.workloads.synthetic import idle_spec, intense_spec

from .common import CONFIG, once, publish

P = DDR3_1600_X4


def test_periodic_mode_ablation(benchmark):
    """Fixed periodic data wins only for rank partitioning."""
    solver = PipelineSolver(P)

    def sweep():
        return {
            sharing: {
                mode: solver.solve(mode, sharing)
                for mode in PeriodicMode
            }
            for sharing in SharingLevel
        }

    grid = once(benchmark, sweep)
    rows = [
        [sharing.value] + [grid[sharing][m] for m in PeriodicMode]
        for sharing in SharingLevel
    ]
    publish("ablation_periodic_mode", format_table(
        ["sharing", "data", "ras", "cas"], rows,
        title="Ablation: periodic anchor choice (paper: data for rank "
              "partitioning, RAS elsewhere)",
    ))
    assert grid[SharingLevel.RANK][PeriodicMode.DATA] < \
        grid[SharingLevel.RANK][PeriodicMode.RAS]
    assert grid[SharingLevel.BANK][PeriodicMode.RAS] < \
        grid[SharingLevel.BANK][PeriodicMode.DATA]
    assert grid[SharingLevel.NONE][PeriodicMode.RAS] < \
        grid[SharingLevel.NONE][PeriodicMode.DATA]


def test_grouped_pipeline_ablation(benchmark):
    """Section 3: issuing N consecutive transactions per thread never
    beats the plain l=7 pipeline for the Table-1 part."""
    solver = GroupedPipelineSolver(P)
    costs = once(benchmark, lambda: solver.grouping_helps(
        PeriodicMode.DATA, (2, 3, 4)
    ))
    rows = [[n, round(c, 2)] for n, c in sorted(costs.items())]
    publish("ablation_grouping", format_table(
        ["group size N", "cycles per transaction"], rows,
        title="Ablation: N transactions per thread (paper: 'did not "
              "result in a more efficient pipeline')",
    ))
    plain = costs[1]
    assert all(costs[n] >= plain for n in (2, 3, 4))


def test_sla_assignment_ablation(benchmark):
    """Section 5.1: unequal slot shares keep the pipeline legal and give
    proportional bandwidth."""
    def build():
        assignments = [
            [1] * 8,
            [2, 2, 1, 1, 1, 1],
            [4, 1, 1, 1, 1],
        ]
        out = []
        for assignment in assignments:
            schedule = build_sla_schedule(
                P, SharingLevel.RANK, assignment
            )
            out.append((assignment, schedule))
        return out

    schedules = once(benchmark, build)
    rows = []
    for assignment, schedule in schedules:
        share0 = len(schedule.slots_of_domain(0)) / \
            schedule.slots_per_interval
        rows.append([
            "-".join(map(str, assignment)),
            schedule.interval_length,
            f"{share0:.0%}",
            f"{schedule.peak_utilization():.0%}",
        ])
    publish("ablation_sla", format_table(
        ["slot assignment", "Q", "domain-0 share", "peak util"], rows,
        title="Ablation: SLA slot assignments over the same l=7 "
              "pipeline",
    ))
    # The pipeline's efficiency is independent of the SLA split.
    utils = {row[3] for row in rows}
    assert len(utils) == 1


def test_partition_spectrum(benchmark):
    """Section 4.1's full spectrum on one table: channel partitioning
    (<= 4 threads, secure at no cost), rank partitioning (the paper's
    sweet spot), down to no partitioning."""
    from .common import run_cached, weighted_ipc

    def sweep():
        rows = []
        # 4 threads: channel partitioning (4 private channels).
        rows.append([
            "channel (4 cores)",
            round(weighted_ipc("channel_part", "milc", cores=4) / 4, 3),
            "secure, private channels",
        ])
        for scheme, label in (
            ("fs_rp", "rank (8 cores)"),
            ("fs_reordered_bp", "bank, reordered (8 cores)"),
            ("fs_np_ta", "none, triple alt (8 cores)"),
        ):
            rows.append([
                label,
                round(weighted_ipc(scheme, "milc") / 8, 3),
                "secure, shared channel",
            ])
        return rows

    rows = once(benchmark, sweep)
    publish("ablation_partition_spectrum", format_table(
        ["partitioning", "normalized throughput", "notes"], rows,
        title="Section 4.1 spectrum: coarser partitioning -> cheaper "
              "security",
    ))
    values = [row[1] for row in rows]
    # Coarser spatial partitioning is monotonically cheaper.
    assert values == sorted(values, reverse=True)
    # Private channels cost (essentially) nothing.
    assert values[0] > 0.9


def test_page_mapping_ablation(benchmark):
    """The abstract's claim: 'various page mapping policies can impact
    the throughput of our secure memory system.'  Interleaving
    consecutive lines across banks spreads every domain's queue over the
    three bank classes, sharply reducing triple alternation's blocked
    slots."""
    from repro.sim.runner import SchemeOptions, run_scheme
    from repro.workloads.spec import suite_specs
    from .common import CONFIG, MAX_CYCLES, run_cached

    BANK_INTERLEAVED = ("row", "column", "rank", "channel", "bank")

    def sweep():
        rows = []
        for wl in ("libquantum", "milc"):
            baseline = run_cached("baseline", wl)
            for label, order in (
                ("row-major", None),
                ("bank-interleaved", BANK_INTERLEAVED),
            ):
                result = run_scheme(
                    "fs_np_ta", CONFIG, suite_specs(wl, 8),
                    SchemeOptions(address_order=order),
                    max_cycles=MAX_CYCLES,
                )
                rows.append([
                    wl, label,
                    round(result.weighted_ipc(baseline), 3),
                    result.stats.blocked_slots,
                ])
        return rows

    rows = once(benchmark, sweep)
    publish("ablation_page_mapping", format_table(
        ["workload", "mapping", "weighted IPC (triple alternation)",
         "class-blocked slots"],
        rows,
        title="Page mapping ablation (abstract claim): bank interleaving "
              "unblocks triple alternation",
    ))
    for wl_rows in (rows[:2], rows[2:]):
        row_major, interleaved = wl_rows
        assert interleaved[2] > row_major[2]
        assert interleaved[3] < row_major[3]


def test_mutual_information_leakage(benchmark):
    """Leakage in bits: baseline reveals the whole co-runner secret, FS
    reveals exactly zero.  The attacker (mcf) runs against three
    co-runner secrets at two trace seeds; each seed's distinct views
    are counted, and the table reports the larger count."""
    secrets = [idle_spec(), intense_spec(), workload("milc")]

    def measure():
        return {
            scheme: max(
                interference_report(
                    scheme, workload("mcf"), secrets,
                    config=dataclasses.replace(CONFIG, seed=seed),
                ).distinct_views
                for seed in (1000, 1001)
            )
            for scheme in ("baseline", "fs_rp")
        }

    views = once(benchmark, measure)
    max_bits = math.log2(len(secrets))
    rows = []
    for scheme, count in views.items():
        bits = math.log2(count)
        rows.append([scheme, count, round(bits, 3), round(max_bits, 3),
                     f"{bits / max_bits:.0%}"])
    publish("ablation_mutual_information", format_table(
        ["scheme", "distinct views", "leaked bits", "max bits",
         "fraction"],
        rows,
        title="Leakage as a count of distinct attacker views (secret = "
              "co-runner identity, 3 candidates)",
    ))
    assert views == {"baseline": 3, "fs_rp": 1}
