"""Host-time benchmark of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fs-steady --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs;
``--trace 1`` runs a separate traced pass and reports per-layer self
times and counts (and writes a Chrome trace under ``perfbench/out/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--pin``
rewrites ``perfbench/expected.json`` from the current code.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

#: End-to-end metrics printed by ``--trace 0``: name -> unit.  Times
#: are host seconds at the reference speed (see :func:`calibrate`).
END_TO_END: Dict[str, str] = {
    "accesses_per_s": "1/s",
    "trials_per_s": "1/s",
    "run_s.p50": "s",
    "run_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics printed by ``--trace 1``: name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim.driver_self_s": "s",
    "sim.strides": "count",
    "sim.accesses_per_stride": "count/stride",
    "sim.template_hit_ratio": "ratio",
    "core.advance_s": "s",
    "core.enqueue_s": "s",
    "core.horizon_s": "s",
    "core.useful_slot_ratio": "ratio",
    "controllers.advance_s": "s",
    "controllers.enqueue_s": "s",
    "controllers.next_event_s": "s",
    "controllers.pending_mean": "count",
    "dram.issue_s": "s",
    "dram.timing_query_s": "s",
    "dram.commands": "count",
    "dram.checked_ratio": "ratio",
    "cpu.emit_s": "s",
    "cpu.complete_s": "s",
    "cpu.emits": "count",
    "mapping.decode_s": "s",
    "mapping.decodes": "count",
    "workloads.trace_s": "s",
    "workloads.trace_ops": "count",
    "schemes.build_s": "s",
    "power.energy_s": "s",
    "certify.estimators_s": "s",
    "certify.world_runs": "count",
    "certify.exact_ratio": "ratio",
    "exec.batch_s": "s",
    "exec.checkpoint_s": "s",
    "exec.jobs": "count",
    "exec.parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer totals of the layers pass, reported per round.
PER_ROUND = tuple(
    name for name, unit in PER_LAYER.items()
    if (unit in ("s", "count") and not name.startswith("exec.")
        and name != "controllers.pending_mean")
)

#: Certification workers in the untraced run.  A pool as large as the
#: host's few shared cores times the scheduler more than the program;
#: the traced run measures the ``workers=nproc`` fan-out.
MEASURED_WORKERS = 1

#: Set-ups per run: this process plus this many fresh child processes;
#: ``setup_s`` is their median.
SETUP_CHILDREN = 4


class ProgramMissing(RuntimeError):
    """The simulator sources are not next to the benchmark."""


def import_program() -> None:
    """Put ``src/`` on the path and import the layers measured."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ProgramMissing(f"no simulator sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.certify.harness  # noqa: F401
    import repro.sim.runner  # noqa: F401


def setup(workload: wl.Workload, seed: int, started: float) -> float:
    """Imports, the scheme registry and one warm-up run per scheme
    (which fills the fast engine's template cache).  Returns the host
    seconds from ``started`` to the end of set-up, at reference speed."""
    import_program()
    from repro.schemes import REGISTRY

    for scheme in workload.schemes:
        REGISTRY.get(scheme)
        wl.run_engine_op(workload, (scheme, "mcf"), seed)
    return to_reference(time.perf_counter() - started, calibrate())


#: Kernel time, in seconds, that defines the reference host speed.
REF_KERNEL_S = 0.003


def _kernel(n: int = 3000) -> int:
    """Interpreter-bound work like the simulator's: small objects,
    attribute and dict access, a heap, integer arithmetic."""

    class Item:
        __slots__ = ("a", "b")

        def __init__(self, a: int, b: int) -> None:
            self.a = a
            self.b = b

    table: Dict[int, Item] = {}
    heap: List[Tuple[int, int]] = []
    acc = 0
    for i in range(n):
        item = Item(i, i * 7 % 13)
        table[i % 97] = item
        heapq.heappush(heap, (item.b, i))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[0]
        other = table.get(i * 3 % 97)
        if other is not None:
            acc += other.a
    return acc


#: Kernel runs per calibration; the fastest one counts.
CALIBRATION_REPS = 5

#: Power of the kernel's slowdown that the simulator shares.  When the
#: host slows, the kernel slows about twice as much (in log terms) as
#: the simulator does: over 30-second windows on a shared 2-vCPU host
#: the kernel's median time moved 1.8x, simulator runs 1.35x.  Dividing
#: by the full kernel time over-corrects; by its square root, the spread
#: of a window's figures across windows fell from 0.08-0.15 to 0.06-0.08.
CALIBRATION_EXPONENT = 0.5


def calibrate() -> float:
    """Host seconds the fixed kernel takes right now.

    Host speed on a shared machine drifts by up to 1.5x within seconds
    and between minutes-long regimes, for the simulator and the kernel
    alike.  :func:`to_reference` rescales an operation's host seconds
    by the kernel time measured around it to the seconds it would take
    at the reference speed; a change to the simulator moves them, a
    change of host regime does not.  The fastest of a few kernel runs
    tracks the regime; a single run also catches the second-to-second
    flips, which an operation lasting seconds averages out.
    """
    fastest = float("inf")
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        _kernel()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest


def to_reference(seconds: float, kernel_s: float) -> float:
    """Host ``seconds`` measured while the kernel took ``kernel_s``,
    rescaled to the reference host speed."""
    return seconds * (REF_KERNEL_S / kernel_s) ** CALIBRATION_EXPONENT


# ----------------------------------------------------------------------
# Measurement loop.
# ----------------------------------------------------------------------


class Loop:
    """Closed loop with one client over whole rounds of operations."""

    def __init__(self, workload: wl.Workload, seed: int,
                 checker: wl.Checker, workers: int) -> None:
        self.workload = workload
        self.seed = seed
        self.checker = checker
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.strategies = (
            wl.strategies_for(workload)
            if workload.kind == "certify" else None
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        self.checkpoint = os.path.join(
            OUT_DIR, f"certify-ckpt-{os.getpid()}.json"
        )

    def run_op(self, op, workers: Optional[int] = None,
               engine: str = "fast") -> Optional[wl.OpResult]:
        self.attempted += 1
        try:
            if self.workload.kind == "certify":
                result = wl.run_certify_op(
                    self.workload, op, self.seed, self.strategies,
                    workers or self.workers, self.checkpoint,
                )
            else:
                result = wl.run_engine_op(
                    self.workload, op, self.seed, engine=engine
                )
        except Exception as exc:  # an operation that raised has failed
            self.failed += 1
            self.checker.failures.append(
                f"{wl.op_name(op)}: raised {type(exc).__name__}: {exc}"
            )
            return None
        if not self.checker.check(result):
            self.failed += 1
        return result

    def rounds(self, seconds: float, tracer=None,
               workers: Optional[int] = None) -> List[wl.OpResult]:
        """Whole rounds until ``seconds`` have passed (at least one).

        The calibration kernel runs between operations; each result's
        ``ref_seconds`` uses the mean of the kernel times on either
        side of it."""
        done: List[wl.OpResult] = []
        start = time.perf_counter()
        kernel_before = calibrate()
        while True:
            for op in self.workload.ops():
                if tracer is None:
                    result = self.run_op(op, workers)
                else:
                    with tracer.op(self.attempted, wl.op_name(op)):
                        result = self.run_op(op, workers)
                # A finished batch's pool workers are still exiting; let
                # them go before timing the kernel or the next batch.
                reap_children()
                kernel_after = calibrate()
                if result is not None:
                    result.ref_seconds = to_reference(
                        result.seconds, (kernel_before + kernel_after) / 2
                    )
                    done.append(result)
                kernel_before = kernel_after
            if time.perf_counter() - start >= seconds:
                return done

    def cross_check(self) -> None:
        """Re-run one operation (chosen by the seed) on the reference
        engine: its simulated statistics must equal the fast engine's."""
        ops = self.workload.ops()
        op = ops[self.seed % len(ops)]
        self.run_op(op, engine="reference")

    def cleanup(self) -> None:
        if os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)


def rate(results: List[wl.OpResult], field: str,
         clock: str = "ref_seconds") -> float:
    """Work per second (reference or raw host) of one round: the work
    of each operation over the median of its seconds across rounds, so
    one slow outlier does not move the rate."""
    by_op: Dict[str, List[wl.OpResult]] = {}
    for r in results:
        by_op.setdefault(r.name, []).append(r)
    work = sum(getattr(runs[0], field) for runs in by_op.values())
    seconds = sum(statistics.median([getattr(r, clock) for r in runs])
                  for runs in by_op.values())
    return work / seconds if seconds else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every worker process this run started has ended."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5)
            return
        time.sleep(0.05)


def stop_all_children() -> None:
    """Stop every process this run started and wait for each to end.

    Besides the pool workers, a spawn pool starts multiprocessing's
    resource tracker, which would otherwise outlive this process by a
    moment; any other direct child left is terminated and waited for.
    """
    reap_children()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    for pid in _direct_children():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _direct_children() -> List[int]:
    """Pids whose parent is this process (empty without ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; the parent pid follows the
        # state field after the closing parenthesis.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_setups(workload: wl.Workload, seed: int, scale: str,
                 count: int) -> List[float]:
    """Set up ``count`` more times, each in a fresh process."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload.name, "--seed", str(seed),
             "--scale", scale],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def measure(workload: wl.Workload, seed: int, seconds: float,
            checker: wl.Checker, setup_s: float, scale: str,
            setup_children: int) -> Tuple[dict, List[str], Loop]:
    """The untraced run: end-to-end metrics."""
    loop = Loop(workload, seed, checker, MEASURED_WORKERS)
    try:
        results = loop.rounds(seconds)
        if workload.kind == "engine":
            loop.cross_check()
    finally:
        loop.cleanup()
    reap_children()
    rss = peak_rss_mb()
    setups = [setup_s] + child_setups(workload, seed, scale,
                                      setup_children)
    times = [r.ref_seconds for r in results] or [0.0]
    raw = [r.seconds for r in results] or [0.0]
    metrics = {
        "accesses_per_s": rate(results, "accesses"),
        "trials_per_s": rate(results, "trials"),
        "run_s.p50": statistics.median(times),
        "run_s.p90": p90(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    extra = {
        "sim_cycles_per_s": (
            f"{rate(results, 'cycles'):.1f} 1/s"
            if workload.kind == "engine" else "n/a (not exposed by certify)"
        ),
        "raw host time": (
            f"{rate(results, 'accesses', 'seconds'):.1f} accesses/s, "
            f"{rate(results, 'trials', 'seconds'):.4f} trials/s, "
            f"run p50 {statistics.median(raw):.4g} s, "
            f"p90 {p90(raw):.4g} s"
        ),
        "failed_ratio": (
            f"{loop.failed / max(loop.attempted, 1):.4f}"
            f" ({loop.failed}/{loop.attempted})"
        ),
        "samples": (
            f"{len(times)} operations; {len(setups)} set-ups "
            f"{[round(s, 3) for s in setups]}"
        ),
    }
    lines = [f"  {k:18s} {v:14.6g} {END_TO_END[k]}"
             for k, v in metrics.items()]
    lines += [f"  {k:18s} {v}" for k, v in extra.items()]
    return metrics, lines, loop


# ----------------------------------------------------------------------
# Traced run.
# ----------------------------------------------------------------------


def traced(workload: wl.Workload, seed: int, seconds: float,
           checker: wl.Checker) -> Tuple[dict, List[str], Loop]:
    """Per-layer metrics from a traced pass, plus the untraced pass of
    the same operations that its overhead is measured against.

    The layers pass repeats whole rounds until ``seconds`` have passed
    since the traced run began; its times and counts are reported per
    round.  The exec passes of ``certify-batch`` run one round each."""
    from repro.sim.fastpath import template_cache_stats
    from tracer import LayerTracer, write_chrome_trace

    started = time.perf_counter()
    loop = Loop(workload, seed, checker, wl.nproc())
    passes: Dict[str, LayerTracer] = {}
    certify = workload.kind == "certify"

    def traced_pass(label: str, tracer: LayerTracer, workers: int,
                    seconds: float = 0.0):
        passes[label] = tracer
        try:
            return loop.rounds(seconds, tracer=tracer, workers=workers)
        finally:
            tracer.restore()

    try:
        if certify:
            fanout = LayerTracer()
            fanout.trace_exec(serial=False)
            traced_pass("fan-out (workers=nproc)", fanout, wl.nproc())
            serial = LayerTracer()
            serial.trace_exec(serial=True)
            plain = traced_pass("in-process (workers=1)", serial, 1)
        else:
            plain = loop.rounds(0.0)
        before = template_cache_stats()
        layers = LayerTracer()
        if certify:
            layers.trace_exec(serial=True)
        layers.trace_layers()
        fine = traced_pass("layers", layers, 1,
                           seconds - (time.perf_counter() - started))
        after = template_cache_stats()
    finally:
        loop.cleanup()
    reap_children()

    t = layers
    strides = t.n("core.advance", "controllers.advance")
    lookups = (after["hits"] + after["misses"]
               - before["hits"] - before["misses"])
    commands = t.n("dram.issue", "dram.issue_trusted")
    verdicts = [row for r in fine for row in r.check] if certify else []
    metrics = {
        "sim.driver_self_s": t.self_s("sim.driver"),
        "sim.strides": strides,
        "sim.accesses_per_stride": _ratio(t.counts["sim.accesses"],
                                          strides),
        "sim.template_hit_ratio": _ratio(
            after["hits"] - before["hits"], lookups),
        "core.advance_s": t.self_s("core.advance"),
        "core.enqueue_s": t.self_s("core.enqueue"),
        "core.horizon_s": t.self_s("core.horizon"),
        "core.useful_slot_ratio": _ratio(t.counts["core.demand_slots"],
                                         t.counts["core.slots"]),
        "controllers.advance_s": t.self_s("controllers.advance"),
        "controllers.enqueue_s": t.self_s("controllers.enqueue"),
        "controllers.next_event_s": t.self_s("controllers.next_event"),
        "controllers.pending_mean": _ratio(
            t.counts["controllers.pending_sum"],
            t.n("controllers.advance")),
        "dram.issue_s": t.self_s("dram.issue", "dram.issue_trusted"),
        "dram.timing_query_s": t.self_s("dram.timing_query"),
        "dram.commands": commands,
        "dram.checked_ratio": _ratio(t.n("dram.issue"), commands),
        "cpu.emit_s": t.self_s("cpu.emit"),
        "cpu.complete_s": t.self_s("cpu.complete"),
        "cpu.emits": int(t.counts["cpu.emits"]),
        "mapping.decode_s": t.self_s("mapping.decode"),
        "mapping.decodes": t.n("mapping.decode"),
        "workloads.trace_s": t.self_s("workloads.trace"),
        "workloads.trace_ops": int(t.counts["workloads.trace_ops"]),
        "schemes.build_s": t.self_s("schemes.build"),
        "power.energy_s": t.self_s("power.energy"),
        "certify.estimators_s": t.self_s("certify.estimators"),
        "certify.world_runs": t.n("certify.world"),
        "certify.exact_ratio": _ratio(
            sum(1 for row in verdicts if row[1]), len(verdicts)),
        "exec.batch_s": 0.0,
        "exec.checkpoint_s": 0.0,
        "exec.jobs": 0,
        "exec.parallel_efficiency": 0.0,
        "trace.overhead_ratio": 1.0 - _ratio(
            rate(fine, "accesses"), rate(plain, "accesses")),
    }
    rounds = max(1, round(len(fine) / len(workload.ops())))
    for key in PER_ROUND:
        metrics[key] /= rounds
    if certify:
        batch = fanout.total_s("exec.batch")
        metrics.update({
            "exec.batch_s": batch,
            "exec.checkpoint_s": fanout.self_s("exec.checkpoint"),
            "exec.jobs": serial.n("exec.job"),
            "exec.parallel_efficiency": _ratio(
                serial.total_s("exec.job"), wl.nproc() * batch),
        })
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, f"trace-{workload.name}-seed{seed}.json"
    )
    events = write_chrome_trace(trace_path, passes, {
        "workload": workload.name, "seed": seed,
        "dropped_spans": {k: p.dropped for k, p in passes.items()},
    })
    lines = [f"  {k:26s} {v:14.6g} {PER_LAYER[k]}"
             for k, v in metrics.items()]
    for label, tracer in passes.items():
        lines.append(tracer.table(f"{workload.name} [{label}]"))
    lines.append(f"  chrome trace: {os.path.relpath(trace_path, ROOT)}"
                 f" ({events} events)")
    return metrics, lines, loop


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
              scale: str = "full", started: Optional[float] = None,
              expected: Optional[dict] = None,
              setup_children: int = SETUP_CHILDREN) -> Tuple[dict, str]:
    """One benchmark run: returns (result object, report text)."""
    workload = wl.SCALES[scale][workload_name]
    setup_s = setup(workload, seed,
                    time.perf_counter() if started is None else started)
    if expected is None:
        expected = wl.load_expected()
    pinned = wl.pinned_for(expected, scale, workload_name, seed)
    checker = wl.Checker(pinned)
    if trace:
        metrics, lines, loop = traced(workload, seed, seconds, checker)
        units = PER_LAYER
    else:
        metrics, lines, loop = measure(
            workload, seed, seconds, checker, setup_s, scale,
            setup_children,
        )
        units = END_TO_END
    pin_note = (
        "pinned" if pinned is not None else "unpinned (checked by"
        " invariants, repeat runs and the reference engine)"
    )
    header = (
        f"workload {workload.name} seed {seed} scale {scale}: "
        f"{workload.cores} cores x {workload.accesses} accesses, "
        f"{len(workload.ops())} operations per round, {pin_note}"
    )
    report = "\n".join([header] + lines + [
        f"  failure: {f}" for f in checker.failures
    ])
    result = {
        "correct": loop.failed == 0,
        "attempted": max(loop.attempted, 1),
        "failed": loop.failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    }
    return result, report


def pin(scale: str) -> None:
    """Rewrite the pinned checks of one scale for both pinned seeds."""
    import_program()
    try:
        expected = wl.load_expected()
    except FileNotFoundError:
        expected = {}
    table: Dict[str, dict] = {}
    for name, workload in wl.SCALES[scale].items():
        for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
            loop = Loop(workload, seed, wl.Checker(None), wl.nproc())
            try:
                results = loop.rounds(0.0)
            finally:
                loop.cleanup()
            if loop.failed:
                raise SystemExit(
                    f"cannot pin {name} seed {seed}: "
                    f"{loop.checker.failures}"
                )
            table.setdefault(name, {})[str(seed)] = {
                r.name: r.check for r in results
            }
    reap_children()
    expected[scale] = table
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned scale {scale} in {wl.EXPECTED_PATH}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(wl.SCALES),
                        default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print setup_s")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perfbench/expected.json")
    args = parser.parse_args(argv)
    try:
        if args.pin:
            pin(args.scale)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_only:
            workload = wl.SCALES[args.scale][args.workload]
            print(json.dumps(
                {"setup_s": setup(workload, args.seed, _STARTED)}
            ))
            return 0
        result, report = benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scale=args.scale, started=_STARTED,
        )
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_all_children()
    print(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
