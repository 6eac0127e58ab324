"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``solve``   — print the minimal slot gaps / pipeline geometry for the
  configured DRAM part (Sections 3-4).
* ``run``     — simulate one scheme on one workload and print the result
  (``--metrics`` / ``--trace`` write telemetry artifacts).
* ``compare`` — run several schemes on one workload against the baseline.
* ``audit``   — non-interference check for a scheme (Figure 4 style).
* ``covert``  — covert-channel measurement through a scheme.
* ``stats``   — per-domain inter-service-time distribution (the paper's
  invariance picture) plus metrics export and engine throughput.
* ``trace``   — record a run's full timeline and export it as Chrome
  trace-event JSON for Perfetto / ``chrome://tracing``.
* ``sweep``   — run a (scheme x workload) grid with failure isolation
  and optional JSON checkpoint/resume (``--metrics`` aggregates the
  grid into a JSON or Prometheus artifact; ``--trace`` writes the
  merged hierarchical span trace).
* ``certify`` — adversarial non-interference certification: fan a
  seed-deterministic attacker strategy batch through paired two-world
  experiments and exit non-zero unless every requested scheme's MI
  upper bound stays within epsilon.
* ``bench``   — the performance ledger: ``bench record`` appends a
  ``BENCH_<n>.json`` suite measurement, ``bench compare`` diffs two
  entries and exits non-zero on regression.
* ``report``  — render one self-contained HTML artifact for a run
  (metrics, leakage histograms, span summary, optional certification
  and bench sections).
* ``store``   — inspect and maintain the content-addressed result
  store (``path``/``ls``/``verify``/``gc``).  ``run``, ``sweep``,
  ``certify``, and ``bench record`` additionally accept
  ``--store [DIR]``/``--no-store`` to reuse cached results across
  sessions (default location ``~/.cache/repro-store`` or
  ``REPRO_STORE_DIR``).

``--log-level`` arms structured JSON-lines logging on stderr for every
command.  Any :class:`~repro.errors.ReproError` (bad config, malformed
trace, unknown fault spec, schedule violation, ...) is reported on
stderr and exits with status 2 instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .analysis.covert import run_covert_channel
from .analysis.leakage import interference_report
from .analysis.report import format_table
from .core.pipeline_solver import PipelineSolver
from .core.schedule import (
    build_fs_schedule,
    build_reordered_bp_geometry,
    build_triple_alternation_schedule,
)
from .core.pipeline_solver import PeriodicMode, SharingLevel
from .dram.timing import DDR3_1600_X4
from .errors import ReproError
from .faults import FaultPlan
from .sim.config import SystemConfig
from .sim.runner import ENGINES, SCHEMES, SchemeOptions, run_scheme
from .sim.sweep import Sweep
from .workloads.spec import EVALUATION_SUITE, suite_specs, workload


def _positive_int(text: str) -> int:
    """argparse type for ``--workers``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}"
        )
    return value


def _nonneg_float(text: str) -> float:
    """argparse type for budgets/tolerances: a number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number >= 0, got {text!r}"
        )
    if not value >= 0:  # rejects negatives and NaN alike
        raise argparse.ArgumentTypeError(
            f"expected a number >= 0, got {text!r}"
        )
    return value


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """The ``--store``/``--no-store`` pair shared by cache-aware commands."""
    parser.add_argument(
        "--store", nargs="?", const="", default=None, metavar="DIR",
        help="reuse results from the content-addressed store; with no "
             "DIR the default root applies (REPRO_STORE_DIR or "
             "~/.cache/repro-store)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="force the result store off (overrides --store)",
    )


def _store_from_args(args):
    """The :class:`~repro.store.ResultStore` a command asked for, or None.

    The store is strictly opt-in: absent ``--store`` (or with
    ``--no-store``) nothing is read or written, so determinism gates
    that compare serial vs parallel artifacts always measure real
    executions.
    """
    if getattr(args, "no_store", False) or args.store is None:
        return None
    from .store import ResultStore

    return ResultStore(args.store or None)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--accesses", type=int, default=1000,
        help="memory accesses per core (default 1000)",
    )
    parser.add_argument(
        "--cores", type=int, default=8, help="cores / security domains"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="trace generation seed"
    )


def _config(args) -> SystemConfig:
    config = SystemConfig(
        accesses_per_core=args.accesses, seed=args.seed
    )
    if args.cores != config.num_cores:
        config = config.with_cores(args.cores)
    return config


def cmd_solve(args) -> int:
    """Print the solved pipeline constants for the default part."""
    solver = PipelineSolver(DDR3_1600_X4)
    rows = []
    for sharing in SharingLevel:
        for mode in PeriodicMode:
            rows.append([sharing.value, mode.value,
                         solver.solve(mode, sharing)])
    print(format_table(
        ["sharing", "periodic mode", "minimal l"], rows,
        title="Minimal conflict-free slot gaps (DDR3-1600, Table 1)",
    ))
    n = args.cores
    rp = build_fs_schedule(DDR3_1600_X4, n, SharingLevel.RANK)
    ta = build_triple_alternation_schedule(DDR3_1600_X4, n)
    re = build_reordered_bp_geometry(DDR3_1600_X4, n)
    print(f"\n{n}-domain geometry: FS_RP Q={rp.interval_length} "
          f"({rp.peak_utilization():.0%}), reordered BP "
          f"Q={re.interval_length} ({re.peak_utilization(4):.0%}), "
          f"triple alternation Q={ta.interval_length} "
          f"({ta.peak_utilization():.0%})")
    return 0


def _write_registry(registry, handle, path: str) -> None:
    """Write a metrics registry: Prometheus text for ``.prom``/``.txt``
    suffixes, the JSON export otherwise."""
    if path.endswith((".prom", ".txt")):
        handle.write(registry.to_prometheus())
    else:
        handle.write(registry.to_json())
        handle.write("\n")


def _run_summary_worker(payload):
    """Store-keyable kernel of ``repro run``: the printed summary fields.

    Module-level and plain-data-in/plain-data-out so the result store
    can content-address it like any substrate job.  Deliberately covers
    only the headline table — fault injection, the invariant monitor,
    and telemetry artifacts need live objects and always run uncached.
    """
    config = SystemConfig(
        accesses_per_core=payload["accesses"], seed=payload["seed"]
    )
    if payload["cores"] != config.num_cores:
        config = config.with_cores(payload["cores"])
    result = run_scheme(
        payload["scheme"], config,
        suite_specs(payload["workload"], payload["cores"]),
        SchemeOptions(prefetch=payload["prefetch"]),
        engine=payload["engine"],
    )
    return {
        "cycles": result.cycles,
        "total_reads": result.total_reads,
        "bus_utilization": result.bus_utilization,
        "mean_read_latency": result.stats.mean_read_latency,
        "dummy_fraction": result.stats.dummy_fraction,
        "energy_mj": result.energy.total_mj,
    }


def _cmd_run_cached(args, store) -> int:
    """The summary-only ``repro run`` path through the result store."""
    from .exec import JobSpec

    payload = {
        "scheme": args.scheme, "workload": args.workload,
        "cores": args.cores, "accesses": args.accesses,
        "seed": args.seed, "prefetch": bool(args.prefetch),
        "engine": args.engine,
    }
    spec = JobSpec(
        key=f"run:{args.scheme}:{args.workload}",
        fn=_run_summary_worker, payload=payload,
    )
    raw = store.lookup(spec)
    if raw is None:
        raw = {"ok": True, "value": _run_summary_worker(payload)}
        store.record(spec, raw)
    value = raw["value"]
    rows = [
        ["cycles", value["cycles"]],
        ["reads completed", value["total_reads"]],
        ["bus utilization", f"{value['bus_utilization']:.1%}"],
        ["mean read latency", f"{value['mean_read_latency']:.1f}"],
        ["dummy fraction", f"{value['dummy_fraction']:.1%}"],
        ["energy (mJ)", f"{value['energy_mj']:.3f}"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.scheme} on {args.workload} x {args.cores}",
    ))
    print(store.summary(), file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    """Simulate one scheme on one workload and print a summary."""
    from .sim.runner import build_system

    store = _store_from_args(args)
    if store is not None:
        if args.inject or args.monitor or args.metrics or args.trace:
            print(
                "store: bypassed (--inject/--monitor/--metrics/--trace "
                "need live objects)", file=sys.stderr,
            )
        else:
            return _cmd_run_cached(args, store)
    config = _config(args)
    plan = None
    if args.inject:
        plan = FaultPlan.parse(args.inject, seed=args.seed)
    telemetry = None
    metrics_handle = trace_handle = None
    if args.metrics or args.trace:
        from .telemetry import TelemetrySession, TraceCollector, \
            open_sink

        # Open output paths eagerly: an unwritable path fails here, in
        # milliseconds, with a friendly TelemetryError — not after the
        # whole simulation has run.
        if args.metrics:
            metrics_handle = open_sink(args.metrics)
        if args.trace:
            trace_handle = open_sink(args.trace)
        telemetry = TelemetrySession(
            collector=TraceCollector() if args.trace else None,
        )
    options = SchemeOptions(
        prefetch=args.prefetch, faults=plan, monitor=args.monitor,
        telemetry=telemetry,
    )
    system = build_system(
        args.scheme, config, suite_specs(args.workload, args.cores),
        options, engine=args.engine,
    )
    result = system.run()
    if telemetry is not None:
        telemetry.harvest(result, system.controller)
        if metrics_handle is not None:
            _write_registry(
                telemetry.registry, metrics_handle, args.metrics
            )
            metrics_handle.close()
            print(f"metrics: {args.metrics}", file=sys.stderr)
        if trace_handle is not None:
            from .telemetry import export_chrome_trace

            n = export_chrome_trace(telemetry.collector, trace_handle)
            trace_handle.close()
            print(f"trace: {n} events -> {args.trace}", file=sys.stderr)
    rows = [
        ["cycles", result.cycles],
        ["reads completed", result.total_reads],
        ["bus utilization", f"{result.bus_utilization:.1%}"],
        ["mean read latency",
         f"{result.stats.mean_read_latency:.1f}"],
        ["dummy fraction", f"{result.stats.dummy_fraction:.1%}"],
        ["energy (mJ)", f"{result.energy.total_mj:.3f}"],
    ]
    if plan is not None:
        rows.append(["faulted slots", result.stats.faulted_slots])
        rows.append(
            ["squashed duplicates", result.stats.squashed_duplicates]
        )
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.scheme} on {args.workload} x {args.cores}",
    ))
    injector = getattr(system.controller, "fault_injector", None)
    if injector is not None:
        print("\nfault campaign:")
        print(injector.summary())
    monitor = system.controller.monitor
    if monitor is not None:
        listed = monitor.violations[:10]
        status = "CLEAN" if monitor.ok else (
            f"{monitor.total_violations} violation(s), "
            f"{len(listed)} listed"
        )
        print(f"\nonline invariant monitor: {status}")
        for violation in listed:
            print(f"  {violation}")
        if not monitor.ok:
            return 1
    return 0


def cmd_compare(args) -> int:
    """Run schemes against the non-secure baseline and tabulate."""
    config = _config(args)
    specs = suite_specs(args.workload, args.cores)
    baseline = run_scheme("baseline", config, specs)
    rows = [["baseline", float(args.cores), "1.000"]]
    for scheme in args.schemes:
        result = run_scheme(scheme, config, specs)
        w = result.weighted_ipc(baseline)
        rows.append([scheme, round(w, 3),
                     f"{w / args.cores:.3f}"])
    print(format_table(
        ["scheme", "sum weighted IPC", "normalized"], rows,
        title=f"{args.workload} x {args.cores} cores",
    ))
    return 0


def cmd_audit(args) -> int:
    """Non-interference check; exit 0 iff the scheme is isolating."""
    config = _config(args)
    report = interference_report(
        args.scheme, workload(args.workload), config=config
    )
    print(f"scheme {args.scheme}, victim {args.workload}:")
    if report.identical:
        print("  NON-INTERFERING: victim timing is bit-for-bit "
              "identical under co-runner variation")
        return 0
    print("  LEAKS: profile divergence up to "
          f"{report.max_profile_divergence_cycles} cycles, read-release "
          f"divergence up to {report.max_release_divergence_cycles}")
    return 1


def cmd_covert(args) -> int:
    """Covert-channel measurement; exit 0 iff the channel is dead."""
    config = _config(args)
    result = run_covert_channel(args.scheme, config=config)
    print(f"covert channel through {args.scheme}:")
    print(f"  sent:    {''.join(map(str, result.sent_bits))}")
    print(f"  decoded: {''.join(map(str, result.decoded_bits))}")
    print(f"  bit error rate {result.bit_error_rate:.2f}, latency "
          f"swing {result.signal_swing:.1f} cycles")
    return 0 if result.bit_error_rate >= 0.3 else 1


def cmd_stats(args) -> int:
    """Leakage-aware statistics for one run.

    Prints the per-domain inter-service-time distribution — the paper's
    invariance observable — plus engine throughput, and optionally
    writes the full metrics registry.  Exit status 1 when an FS scheme's
    distribution is *not* degenerate (a timing-channel candidate the
    dashboard must catch); 0 otherwise.
    """
    from .sim.runner import build_system
    from .telemetry import TelemetrySession, histogram_report, \
        inter_service_histogram, is_degenerate, open_sink

    config = _config(args)
    handle = open_sink(args.metrics) if args.metrics else None
    # Only a metrics export needs the run observed event by event.
    telemetry = TelemetrySession() if handle is not None else None
    options = SchemeOptions(telemetry=telemetry)
    system = build_system(
        args.scheme, config, suite_specs(args.workload, args.cores),
        options, engine=args.engine,
    )
    start = time.monotonic()
    result = system.run()
    wall = time.monotonic() - start
    histograms = inter_service_histogram(result.service_trace)
    print(histogram_report(histograms, scheme=args.scheme))
    if wall > 0:
        print(
            f"\nengine ({args.engine}): {result.cycles:,} cycles in "
            f"{wall:.3f}s ({result.cycles / wall:,.0f} cycles/s)"
        )
    if handle is not None:
        telemetry.harvest(result, system.controller)
        _write_registry(telemetry.registry, handle, args.metrics)
        handle.close()
        print(f"metrics: {args.metrics}", file=sys.stderr)
    # The degeneracy gate applies to fixed-service schemes only; the
    # registry spec says which those are (no name sniffing).
    from .schemes import REGISTRY

    if REGISTRY.get(args.scheme).fixed_service and not is_degenerate(
        histograms
    ):
        return 1
    return 0


def cmd_trace(args) -> int:
    """Record one run's timeline and export Chrome trace JSON."""
    from .sim.runner import build_system
    from .telemetry import TelemetrySession, TraceCollector, \
        export_chrome_trace, open_sink

    config = _config(args)
    handle = open_sink(args.output)  # fail fast on a bad path
    collector = TraceCollector(capacity=args.capacity)
    telemetry = TelemetrySession(collector=collector)
    options = SchemeOptions(telemetry=telemetry)
    system = build_system(
        args.scheme, config, suite_specs(args.workload, args.cores),
        options, engine=args.engine,
    )
    result = system.run()
    telemetry.harvest(result, system.controller)
    n = export_chrome_trace(collector, handle, metadata={
        "scheme": args.scheme,
        "workload": args.workload,
        "cores": args.cores,
        "cycles": result.cycles,
    })
    handle.close()
    dropped = (
        f" ({collector.dropped_events} oldest dropped by the "
        f"{args.capacity}-event ring)"
        if collector.dropped_events else ""
    )
    print(f"wrote {n} events{dropped} -> {args.output}")
    print("open in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def cmd_sweep(args) -> int:
    """Run a (scheme x workload) grid with failure isolation.

    Exit status 0 when every cell completed, 1 when any cell failed
    (the failures are tabulated, not fatal — resilient by design).
    """
    config = _config(args)
    store = _store_from_args(args)
    sweep = Sweep(
        config,
        max_cycles=args.max_cycles,
        checkpoint=args.checkpoint,
        point_wall_budget_s=args.wall_budget,
        strict=args.strict,
        workers=args.workers,
        engine=args.engine,
        collect_spans=bool(args.trace),
        fresh=args.fresh,
        store=store,
    )
    sweep.run_grid(args.schemes, args.workloads)
    if store is not None:
        print(store.summary(), file=sys.stderr)
    rows = [
        [p.scheme, p.workload, round(p.weighted_ipc, 3),
         f"{p.bus_utilization:.1%}", f"{p.mean_read_latency:.1f}"]
        for p in sweep.points
    ]
    print(format_table(
        ["scheme", "workload", "weighted IPC", "bus util",
         "read latency"],
        rows, title=f"sweep grid ({args.cores} cores)",
    ))
    if sweep.last_grid_wall_s is not None:
        print(f"\ngrid wall clock: {sweep.last_grid_wall_s:.2f}s "
              f"({args.workers} worker(s))")
    if sweep.failed_points:
        print("\nfailed cells:")
        for f in sweep.failed_points:
            print(f"  {f.scheme} x {f.workload}: "
                  f"{f.error_type}: {f.error}")
    if args.checkpoint:
        print(f"\ncheckpoint: {args.checkpoint}")
    if args.metrics:
        sweep.export_metrics(args.metrics)
        print(f"metrics: {args.metrics}")
    if args.trace:
        n = sweep.export_trace(args.trace)
        print(f"trace: {n} spans -> {args.trace}")
    return 1 if sweep.failed_points else 0


def cmd_certify(args) -> int:
    """Adversarial certification; exit 0 iff every scheme certified.

    Exit status: 0 when every requested scheme certified under the
    strategy batch, 1 when any scheme leaked (or a strategy errored),
    2 on a :class:`~repro.errors.ReproError` — so CI can assert both
    directions: FS schemes must exit 0, the non-secure baseline and the
    test suite's planted leaky scheme must exit 1.
    """
    import dataclasses as _dc

    from .certify import CertificationRun, generate_strategies
    from .certify.harness import write_certificate_jsonl
    from .schemes import REGISTRY
    from .telemetry import certification_report

    config = _config(args)
    schemes = args.scheme or list(REGISTRY.names_where(
        fixed_service=True, certifiable=True
    ))
    strategies = generate_strategies(
        args.strategies, seed=args.seed, families=args.families
    )
    if args.trials != 3:
        strategies = [
            _dc.replace(s, trials=args.trials) for s in strategies
        ]
    store = _store_from_args(args)
    run = CertificationRun(
        config=config,
        engine=args.engine,
        epsilon_bits=args.epsilon,
        max_cycles=args.max_cycles,
        workers=args.workers,
        checkpoint=args.checkpoint,
        budget_s=args.budget,
        collect_spans=bool(args.trace),
        fresh=args.fresh,
        store=store,
    )
    artifact_handle = None
    metrics = None
    if args.artifact:
        from .telemetry import open_sink

        artifact_handle = open_sink(args.artifact)
    all_certified = True
    try:
        for index, scheme in enumerate(schemes):
            certificate = run.run(scheme, strategies)
            all_certified = all_certified and certificate.certified
            if index:
                print()
            print(certification_report(certificate))
            if run.last_wall_s is not None:
                print(f"  ({len(certificate.verdicts)} strategies in "
                      f"{run.last_wall_s:.2f}s, {args.workers} "
                      f"worker(s))", file=sys.stderr)
            if artifact_handle is not None:
                write_certificate_jsonl(certificate, artifact_handle)
            if args.metrics:
                registry = run.metrics_registry(certificate)
                metrics = (
                    registry if metrics is None
                    else metrics.merge(registry)
                )
    finally:
        if artifact_handle is not None:
            artifact_handle.close()
    if store is not None:
        print(store.summary(), file=sys.stderr)
    if args.artifact:
        print(f"artifact: {args.artifact}", file=sys.stderr)
    if args.trace:
        n = run.export_trace(args.trace)
        print(f"trace: {n} spans -> {args.trace}", file=sys.stderr)
    if metrics is not None:
        handle = None
        from .telemetry import open_sink

        handle = open_sink(args.metrics)
        _write_registry(metrics, handle, args.metrics)
        handle.close()
        print(f"metrics: {args.metrics}", file=sys.stderr)
    return 0 if all_certified else 1


def cmd_bench_record(args) -> int:
    """Run the pinned benchmark suite and append a ledger entry."""
    from . import bench

    store = _store_from_args(args)
    path = bench.record(
        args.root,
        accesses=args.accesses,
        cores=args.cores,
        seed=args.seed,
        label=args.label,
        workers=args.workers,
        checkpoint=args.checkpoint,
        fresh=args.fresh,
        store=store,
    )
    if store is not None:
        print(store.summary(), file=sys.stderr)
    print(f"recorded: {path}")
    return 0


def cmd_bench_compare(args) -> int:
    """Diff two ledger entries; exit 1 when a metric regresses."""
    from . import bench

    comparison = bench.compare(
        args.old, args.new, tolerance=args.tolerance
    )
    print(bench.format_comparison(comparison))
    return 0 if comparison.passed else 1


def cmd_store_path(args) -> int:
    """Print the resolved result-store root directory."""
    from .store import resolve_store_root

    print(resolve_store_root(args.store))
    return 0


def cmd_store_ls(args) -> int:
    """List every entry in the result store with its health status."""
    from .store import iter_entries, resolve_store_root

    root = resolve_store_root(args.store)
    rows = []
    total = 0
    for entry in iter_entries(root):
        total += entry.size
        rows.append(
            [entry.key[:16], entry.status, entry.size, entry.fn]
        )
    if not rows:
        print(f"store {root}: empty")
        return 0
    print(format_table(
        ["key", "status", "bytes", "fn"], rows, title=f"store {root}",
    ))
    print(f"\n{len(rows)} entries, {total} bytes")
    return 0


def cmd_store_gc(args) -> int:
    """Reap corrupt/stale (and optionally aged or all) store entries."""
    from .store import gc as store_gc, resolve_store_root

    root = resolve_store_root(args.store)
    older = (
        args.older_than * 86400.0
        if args.older_than is not None else None
    )
    result = store_gc(root, older_than_s=older, everything=args.all)
    print(
        f"store {root}: removed {result.removed}, kept {result.kept}, "
        f"reclaimed {result.reclaimed_bytes} bytes"
    )
    return 0


def cmd_store_verify(args) -> int:
    """Audit every store entry; exit 1 when any is corrupt or stale."""
    from .store import resolve_store_root, verify as store_verify

    root = resolve_store_root(args.store)
    bad = store_verify(root)
    if not bad:
        print(f"store {root}: OK")
        return 0
    for entry in bad:
        print(f"{entry.status}: {entry.path}")
    print(f"store {root}: {len(bad)} bad entries")
    return 1


def cmd_report(args) -> int:
    """Render one self-contained HTML artifact for a run."""
    from .telemetry import (
        SpanTracer,
        TelemetrySession,
        inter_service_histogram,
        render_report,
        write_report,
    )

    config = _config(args)
    tracer = SpanTracer()
    telemetry = TelemetrySession()
    options = SchemeOptions(telemetry=telemetry, tracer=tracer)
    result = run_scheme(
        args.scheme, config, suite_specs(args.workload, args.cores),
        options, engine=args.engine,
    )
    histograms = inter_service_histogram(result.service_trace)

    certificate = None
    if args.certify:
        import dataclasses as _dc

        from .certify.harness import CertificationRun
        from .certify.strategies import generate_strategies

        strategies = [
            _dc.replace(s, trials=args.trials)
            for s in generate_strategies(args.certify, seed=args.seed)
        ]
        run = CertificationRun(
            config=config, engine=args.engine,
            max_cycles=args.max_cycles, collect_spans=True,
        )
        certificate = run.run(args.scheme, strategies)
        tracer.adopt(run.tracer.records, track="certify")

    comparison = None
    if args.bench_dir:
        from . import bench

        entries = bench.ledger_entries(args.bench_dir)
        if len(entries) >= 2:
            comparison = bench.compare(entries[-2][1], entries[-1][1])
        else:
            print(
                f"note: {args.bench_dir} holds {len(entries)} ledger "
                "entries; need 2+ for a bench section",
                file=sys.stderr,
            )

    document = render_report(
        f"{args.scheme} x {args.workload} — run report",
        registry=telemetry.registry,
        histograms=histograms,
        certificate=certificate,
        span_summary=tracer.summary(),
        bench_comparison=comparison,
        metadata={
            "scheme": args.scheme,
            "workload": args.workload,
            "engine": args.engine,
            "cores": args.cores,
            "accesses": args.accesses,
            "seed": args.seed,
            "cycles": result.cycles,
        },
    )
    write_report(args.output, document)
    print(f"report: {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fixed Service memory controllers (MICRO-48 2015) "
                    "— simulation toolkit",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["debug", "info", "warning", "error", "critical"],
        help="arm structured JSON-lines logging on stderr at this "
             "level (default: warning, quiet)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="pipeline constants (Sections 3-4)")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("run", help="simulate one scheme")
    p.add_argument("scheme", choices=SCHEMES)
    p.add_argument("workload", help="benchmark or mix name "
                   f"(e.g. {', '.join(EVALUATION_SUITE[:4])}, ...)")
    p.add_argument("--prefetch", action="store_true")
    p.add_argument(
        "--inject", metavar="SPEC", default=None,
        help="seed-deterministic fault campaign, e.g. "
             "'drop_command:0.02,delay_slot:0.01' "
             "(kinds: see repro.faults.FaultKind)",
    )
    p.add_argument(
        "--monitor", action="store_true",
        help="attach the online invariant monitor and report "
             "violations (exit 1 when any fire)",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the run's metrics registry (JSON; .prom/.txt "
             "selects Prometheus text exposition)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the run's timeline as Chrome trace-event JSON "
             "(open in Perfetto)",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default="reference",
        help="simulation engine (default reference)",
    )
    _add_store_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="schemes vs the baseline")
    p.add_argument("workload")
    p.add_argument("schemes", nargs="+",
                   help=f"schemes to compare ({', '.join(SCHEMES)})")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("audit", help="non-interference check")
    p.add_argument("scheme", choices=SCHEMES)
    p.add_argument("--workload", default="mcf")
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("covert", help="covert-channel measurement")
    p.add_argument("scheme", choices=SCHEMES)
    _add_common(p)
    p.set_defaults(func=cmd_covert)

    p = sub.add_parser(
        "stats",
        help="per-domain inter-service-time distribution + metrics",
    )
    p.add_argument("scheme", choices=SCHEMES)
    p.add_argument("workload", help="benchmark or mix name")
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the metrics registry (JSON; .prom/.txt selects "
             "Prometheus text exposition)",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default="fast",
        help="simulation engine (default fast)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace", help="export a run as Chrome trace-event JSON"
    )
    p.add_argument("scheme", choices=SCHEMES)
    p.add_argument("workload", help="benchmark or mix name")
    p.add_argument("output", help="output path (e.g. out.trace.json)")
    p.add_argument(
        "--capacity", type=int, default=1 << 20,
        help="trace ring-buffer bound in events (default 1Mi; the "
             "oldest events are dropped past it)",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default="fast",
        help="simulation engine (default fast)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "sweep", help="resilient (scheme x workload) grid"
    )
    p.add_argument("--schemes", nargs="+", default=["fs_rp"],
                   help=f"schemes to sweep ({', '.join(SCHEMES)})")
    p.add_argument("--workloads", nargs="+", default=["mcf"],
                   help="workload/mix names, one grid column each")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="JSON checkpoint; a rerun on it replays the "
                        "cells that finished with the same inputs")
    p.add_argument("--max-cycles", type=int, default=8_000_000,
                   help="per-cell cycle budget")
    p.add_argument("--fresh", action="store_true",
                   help="discard any existing checkpoint instead of "
                        "resuming (escape hatch for corrupt files)")
    p.add_argument("--wall-budget", type=_nonneg_float, default=None,
                   metavar="SECONDS",
                   help="per-cell wall-clock budget; a cell exceeding "
                        "it is recorded as failed instead of hanging")
    p.add_argument("--strict", action="store_true",
                   help="re-raise the first cell failure (CI gate)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for the grid (default 1; "
                        "results are bit-identical at any count)")
    p.add_argument(
        "--engine", choices=ENGINES, default="fast",
        help="simulation engine for every cell (default fast)",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="aggregate the finished grid into a metrics artifact "
             "(JSON; .prom/.txt selects Prometheus text exposition)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="collect hierarchical spans in every cell and write the "
             "merged Chrome trace-event JSON (deterministic modulo "
             "wall-clock args at any --workers count)",
    )
    _add_store_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "certify",
        help="adversarial non-interference certification",
    )
    p.add_argument(
        "--scheme", action="append", default=None, metavar="NAME",
        help="scheme to certify (repeatable; default: every "
             "certifiable fixed-service scheme)",
    )
    p.add_argument(
        "--strategies", type=int, default=10, metavar="N",
        help="attacker strategies to generate (default 10; round-"
             "robins the registered families)",
    )
    p.add_argument(
        "--families", nargs="+", default=None,
        help="restrict generation to these strategy families "
             "(default: all registered)",
    )
    p.add_argument(
        "--trials", type=int, default=3,
        help="paired two-world trials per strategy (default 3)",
    )
    p.add_argument(
        "--epsilon", type=float, default=0.01, metavar="BITS",
        help="leakage tolerance: max admissible MI upper bound in "
             "bits (default 0.01)",
    )
    p.add_argument(
        "--budget", type=_nonneg_float, default=None, metavar="SECONDS",
        help="wall-clock budget per scheme batch; strategies past it "
             "are recorded as skipped instead of run",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for the batch (default 1; the "
             "artifact is byte-identical at any count)",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="JSON checkpoint (one for every scheme); a rerun on it "
             "replays the strategies that finished with the same "
             "inputs",
    )
    p.add_argument(
        "--fresh", action="store_true",
        help="discard any existing checkpoint instead of resuming "
             "(escape hatch for corrupt files)",
    )
    p.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="write the certification verdicts as JSONL "
             "(deterministic: serial and parallel runs match bytes)",
    )
    p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="export per-strategy MI gauges as a metrics artifact "
             "(JSON; .prom/.txt selects Prometheus text exposition)",
    )
    p.add_argument(
        "--max-cycles", type=int, default=2_000_000,
        help="per-world cycle budget (default 2M)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="collect per-trial spans and write the merged Chrome "
             "trace-event JSON",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default="reference",
        help="simulation engine for both worlds (default reference)",
    )
    _add_store_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "bench", help="performance-regression benchmark ledger"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser(
        "record",
        help="run the pinned suite, append BENCH_<n>.json",
    )
    b.add_argument(
        "--root", default=".", metavar="DIR",
        help="ledger directory (default: current directory)",
    )
    b.add_argument(
        "--accesses", type=int, default=300,
        help="suite scale: memory accesses per core (default 300)",
    )
    b.add_argument(
        "--cores", type=int, default=4,
        help="suite scale: cores / security domains (default 4)",
    )
    b.add_argument(
        "--seed", type=int, default=7,
        help="suite trace seed (default 7)",
    )
    b.add_argument(
        "--label", default="",
        help="free-form label stored in the entry (e.g. a git sha)",
    )
    b.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for the suite (default 1; the "
             "recorded deterministic metrics are identical at any "
             "count, wall-clock-derived ones are noisier)",
    )
    b.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="JSON checkpoint; a rerun on it replays the cases "
             "that finished with the same inputs",
    )
    b.add_argument(
        "--fresh", action="store_true",
        help="discard any existing checkpoint instead of resuming "
             "(escape hatch for corrupt files)",
    )
    _add_store_flags(b)
    b.set_defaults(func=cmd_bench_record)

    b = bench_sub.add_parser(
        "compare",
        help="diff two ledger entries; exit 1 on regression",
    )
    b.add_argument("old", help="baseline BENCH_<n>.json")
    b.add_argument("new", help="candidate BENCH_<n>.json")
    b.add_argument(
        "--tolerance", type=_nonneg_float, default=None, metavar="FRAC",
        help="relative move treated as noise (default 0.15, or the "
             "REPRO_BENCH_TOLERANCE environment variable)",
    )
    b.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser(
        "store", help="content-addressed result-store maintenance"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)

    def _store_root_flag(sp):
        sp.add_argument(
            "--store", default=None, metavar="DIR",
            help="store root (default: REPRO_STORE_DIR or "
                 "~/.cache/repro-store)",
        )

    s = store_sub.add_parser(
        "path", help="print the resolved store root"
    )
    _store_root_flag(s)
    s.set_defaults(func=cmd_store_path)

    s = store_sub.add_parser("ls", help="list cached entries")
    _store_root_flag(s)
    s.set_defaults(func=cmd_store_ls)

    s = store_sub.add_parser(
        "verify",
        help="audit entry health; exit 1 on corrupt/stale entries",
    )
    _store_root_flag(s)
    s.set_defaults(func=cmd_store_verify)

    s = store_sub.add_parser(
        "gc", help="reap corrupt/stale (and optionally aged) entries"
    )
    _store_root_flag(s)
    s.add_argument(
        "--older-than", type=_nonneg_float, default=None,
        metavar="DAYS",
        help="also remove healthy entries untouched for this many days",
    )
    s.add_argument(
        "--all", action="store_true",
        help="remove every entry (empty the store)",
    )
    s.set_defaults(func=cmd_store_gc)

    p = sub.add_parser(
        "report", help="self-contained HTML run report"
    )
    p.add_argument("scheme", choices=SCHEMES)
    p.add_argument("workload", help="benchmark or mix name")
    p.add_argument(
        "--output", default="report.html", metavar="PATH",
        help="output HTML path (default report.html)",
    )
    p.add_argument(
        "--certify", type=int, default=0, metavar="N",
        help="also run N attacker strategies and include the "
             "certification section (default 0: skip)",
    )
    p.add_argument(
        "--trials", type=int, default=2,
        help="paired trials per strategy for --certify (default 2)",
    )
    p.add_argument(
        "--max-cycles", type=int, default=2_000_000,
        help="per-world cycle budget for --certify (default 2M)",
    )
    p.add_argument(
        "--bench-dir", default=None, metavar="DIR",
        help="benchmark ledger directory; includes the delta between "
             "its two newest entries",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default="fast",
        help="simulation engine (default fast)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.log_level:
            from .telemetry import configure

            configure(args.log_level)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
