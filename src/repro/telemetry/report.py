"""Per-domain inter-service-time distributions: the invariance picture.

The paper's security argument (Sections 3-5) collapses to one
observable statement: under a Fixed Service policy, the spacing between
a domain's consecutive service events is a constant fixed by the
timetable — it carries **zero bits** about co-runners (or anything
else).  Under FR-FCFS the spacing is workload- and co-runner-dependent,
which is exactly the distribution Gong & Kiyavash and Kadloor et al.
compute leakage from.

:func:`inter_service_histogram` turns any run's per-domain service
trace (``RunResult.service_trace``) into that distribution; a **FS
scheme yields a degenerate (single-bucket) histogram per domain**,
FR-FCFS a spread.  ``tests/test_telemetry.py`` pins both directions.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

#: service_trace type alias: domain -> [(cycle, kind_code), ...]
ServiceTrace = Dict[int, List[Tuple[int, str]]]


def inter_service_histogram(
    service_trace: ServiceTrace,
    kinds: Optional[Iterable[str]] = None,
) -> Dict[int, Counter]:
    """Histogram of deltas between consecutive service events per domain.

    ``kinds`` optionally restricts which event codes count as a service
    observation (default: every trace event, including bubbles ``"-"`` —
    the attacker observes the *slot cadence*, and FS slots fire whether
    or not they carry demand).
    """
    wanted = set(kinds) if kinds is not None else None
    out: Dict[int, Counter] = {}
    for domain, events in service_trace.items():
        cycles = [
            c for c, kind in events
            if wanted is None or kind in wanted
        ]
        out[domain] = Counter(
            b - a for a, b in zip(cycles, cycles[1:])
        )
    return out


def is_degenerate(histograms: Dict[int, Counter]) -> bool:
    """True when every domain's histogram has at most one bucket —
    i.e. the service cadence is a constant (the FS invariance)."""
    return all(len(h) <= 1 for h in histograms.values())


def histogram_report(
    histograms: Dict[int, Counter],
    scheme: str = "",
    max_buckets: int = 8,
) -> str:
    """Human-readable per-domain summary of the distributions."""
    lines = []
    title = "per-domain inter-service-time histogram (cycles)"
    if scheme:
        title += f" — {scheme}"
    lines.append(title)
    for domain in sorted(histograms):
        hist = histograms[domain]
        if not hist:
            lines.append(f"  domain {domain}: <2 events")
            continue
        shown = sorted(hist.items())[:max_buckets]
        body = "  ".join(f"{delta}x{count}" for delta, count in shown)
        if len(hist) > max_buckets:
            body += f"  ... ({len(hist)} buckets total)"
        tag = (
            "FIXED CADENCE (degenerate)" if len(hist) == 1
            else f"{len(hist)} distinct gaps"
        )
        lines.append(f"  domain {domain}: {body}   [{tag}]")
    verdict = (
        "invariant service timing: the timeline reveals nothing"
        if is_degenerate(histograms)
        else "workload-dependent service timing: a timing channel "
             "candidate"
    )
    lines.append(f"  => {verdict}")
    return "\n".join(lines)


def histogram_to_registry(registry, histograms: Dict[int, Counter],
                          name: str = "inter_service_cycles") -> None:
    """Export the distributions into a metrics registry.

    Uses exact per-delta counters (``{domain, delta}`` labels) plus a
    per-domain distinct-bucket gauge, so a dashboard can alert on
    ``inter_service_distinct_gaps > 1`` for any FS run.
    """
    exact = registry.counter(
        name + "_total",
        "observed inter-service gaps (exact-delta counters)",
        ("domain", "delta"),
    )
    spread = registry.gauge(
        "inter_service_distinct_gaps",
        "distinct inter-service gap sizes per domain "
        "(1 = degenerate = the FS invariance holds)",
        ("domain",),
    )
    for domain in sorted(histograms):
        hist = histograms[domain]
        for delta, count in sorted(hist.items()):
            exact.inc(count, domain=domain, delta=delta)
        spread.set(len(hist), domain=domain)


def certification_report(certificate, max_rows: int = 12) -> str:
    """Human-readable summary of a certification
    :class:`~repro.certify.harness.Certificate` — per-strategy MI
    bounds, worst strategy first, and the aggregate verdict.

    A strategy that raised is tagged ``[ERROR]``, not ``[LEAK]``: it
    measured nothing, so a certificate whose only failures are errors
    says it is not certified because strategies errored, not that the
    secret was read."""
    lines = [
        f"certification — scheme {certificate.scheme} "
        f"(engine {certificate.engine}, "
        f"epsilon {certificate.epsilon_bits:g} bits)"
    ]
    ranked = sorted(
        certificate.verdicts,
        key=lambda v: (
            v.error_type is None, v.passed, -v.mi_upper_bits,
        ),
    )
    for verdict in ranked[:max_rows]:
        if verdict.error_type is not None:
            detail = f"ERROR {verdict.error_type}: {verdict.error}"
        else:
            detail = (
                f"MI<= {verdict.mi_upper_bits:.6f} bits  "
                f"capacity {verdict.capacity_bits:.6f}  "
                f"{'exact-match' if verdict.exact_match else 'DIVERGED'}"
            )
        if verdict.error_type is not None:
            tag = "ERROR"
        else:
            tag = "pass" if verdict.passed else "LEAK"
        lines.append(f"  [{tag}] {verdict.strategy}: {detail}")
    if len(certificate.verdicts) > max_rows:
        lines.append(
            f"  ... ({len(certificate.verdicts)} strategies total)"
        )
    if certificate.skipped:
        lines.append(
            f"  {len(certificate.skipped)} strategies skipped "
            f"(budget exhausted)"
        )
    errored = sum(
        v.error_type is not None for v in certificate.verdicts
    )
    if certificate.certified:
        verdict = "CERTIFIED: no strategy extracted more than epsilon"
    elif any(
        v.error_type is None and not v.passed
        for v in certificate.verdicts
    ):
        verdict = "NOT CERTIFIED: at least one strategy read the secret"
    elif errored:
        verdict = (
            f"NOT CERTIFIED: {errored} "
            f"{'strategy' if errored == 1 else 'strategies'} errored "
            f"and no leak was measured"
        )
    else:
        verdict = "NOT CERTIFIED: no strategy ran"
    lines.append(f"  => {verdict}")
    return "\n".join(lines)


__all__ = [
    "certification_report",
    "histogram_report",
    "histogram_to_registry",
    "inter_service_histogram",
    "is_degenerate",
]
