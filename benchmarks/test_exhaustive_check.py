"""Exhaustive bounded non-interference (security model check).

Complements Figure 4: rather than two hand-picked co-runner behaviours,
this target enumerates *every* co-runner strategy over a bounded horizon
(81 complete system runs per scheme), counts the victim's distinct
views over them and reports the bits they leak.  The secure schemes
must all leave one view (0 bits); the non-secure schedulers must be
refuted, each with a concrete counterexample strategy.
"""

from repro.analysis.exhaustive import exhaustive_noninterference
from repro.analysis.report import format_table

from .common import CONFIG, once, publish

SECURE = ("fs_rp", "fs_reordered_bp", "fs_np_ta", "tp_bp",
          "channel_part")
INSECURE = ("baseline", "fcfs")


def test_exhaustive_noninterference(benchmark):
    def sweep():
        out = {}
        for scheme in SECURE + INSECURE:
            out[scheme] = exhaustive_noninterference(
                scheme, decision_points=4, config=CONFIG
            )
        return out

    reports = once(benchmark, sweep)
    rows = []
    for scheme, report in reports.items():
        rows.append([
            scheme,
            "HOLDS" if report.holds else "REFUTED",
            report.patterns_checked,
            report.distinct_views,
            f"{report.bits:.3f}",
            " ".join(report.counterexample)
            if report.counterexample else "-",
        ])
    publish("exhaustive_noninterference", format_table(
        ["scheme", "non-interference", "patterns run", "views", "bits",
         "counterexample strategy"],
        rows,
        title="Exhaustive bounded check: all 81 co-runner strategies",
    ))
    for report in reports.values():
        assert report.patterns_checked == 81
    for scheme in SECURE:
        assert reports[scheme].distinct_views == 1, scheme
    for scheme in INSECURE:
        assert not reports[scheme].holds, scheme
