"""Parameter-sweep utilities for sensitivity studies.

Thin orchestration over :mod:`repro.sim.runner`: run a grid of
(scheme x workload x knob) simulations and collect the metric the paper
plots.  Used by the Figure 5 / Figure 10 benchmarks and handy for ad-hoc
exploration.

Sweeps are *resilient* by design (production grids run for hours):

* a failing cell is isolated into :attr:`Sweep.failed_points` with the
  captured exception instead of aborting the whole grid;
* each cell runs under a cycle budget (``max_cycles``) and an optional
  wall-clock budget (``point_wall_budget_s``) that raises
  :class:`~repro.errors.SimTimeoutError` instead of hanging the grid;
* with a ``checkpoint`` path, every completed (or failed) cell is
  persisted to JSON atomically, and a killed sweep resumes from the last
  completed cell — re-running the same grid reproduces the exact same
  :class:`SweepPoint` table without re-simulating finished cells.

Execution itself — fan-out, checkpoint persistence, submission-order
merging — is the substrate's job, not this module's: :meth:`Sweep.run_grid`
describes each cell as a :class:`~repro.exec.JobSpec` (the picklable
:class:`~repro.schemes.SchemeSpec` rides in the payload, so
user-registered schemes parallelize like built-ins) and hands the batch
to :func:`repro.exec.run_jobs`.  The substrate's contract carries the
sweep's guarantees:

* **determinism** — per-cell seeds derive from the cell's own identity
  (``config.seed`` + domain), never from shared RNG state or execution
  order, and results merge in *submission* order, so a ``workers=4``
  grid writes a byte-identical checkpoint and identical aggregate
  metrics to a serial run;
* **fault isolation** — a worker exception (or a hard worker crash
  breaking the pool) is recorded per cell in :attr:`failed_points`;
  completed cells keep checkpointing incrementally, so a crashed grid
  resumes exactly like a killed serial one;
* **telemetry** — with ``collect_telemetry=True`` every cell runs under
  its own :class:`~repro.telemetry.session.TelemetrySession`; the
  per-worker registries are merged deterministically (submission order)
  into the grid artifact via
  :meth:`~repro.telemetry.registry.MetricsRegistry.merge`, and with
  ``collect_spans=True`` each cell's span records ride the substrate's
  reserved side channel and are adopted in the same order.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigError, ReproError, SchemeError
from ..exec import (
    SPANS_KEY,
    CheckpointStore,
    JobResult,
    JobSpec,
    adopt_spans,
    run_jobs,
    validate_workers,
)
from ..schemes import REGISTRY
from ..telemetry.log import get_logger
from ..workloads.spec import suite_specs
from .config import SystemConfig
from .runner import SchemeOptions, run_scheme
from .system import RunResult

#: Checkpoint schema version (bump on incompatible change).
CHECKPOINT_VERSION = 1

_LOG = get_logger("sweep")


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep grid."""

    scheme: str
    workload: str
    cores: int
    label: str
    weighted_ipc: float
    bus_utilization: float
    mean_read_latency: float
    energy_pj: float
    #: Simulated cycles (0 on checkpoints predating the field).
    cycles: int = 0
    #: Fault strikes by kind name, when the cell armed an injector.
    #: Defaults keep version-1 checkpoints loadable.
    faults: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class FailedPoint:
    """One cell whose simulation raised instead of completing."""

    scheme: str
    workload: str
    cores: int
    label: str
    error_type: str
    error: str


def _point_key(scheme: str, workload: str, cores: int,
               label: str) -> Tuple[str, str, int, str]:
    return (scheme, workload, cores, label)


def _weighted_ipc(ipcs: Sequence[float],
                  baseline_ipcs: Sequence[float]) -> float:
    """Sum of per-core IPCs normalized to a baseline.

    Bit-for-bit the same arithmetic as
    :meth:`~repro.sim.system.RunResult.weighted_ipc`, applied to bare
    IPC lists so worker processes only ship floats back, not whole
    :class:`RunResult` objects.
    """
    total = 0.0
    for mine, theirs in zip(ipcs, baseline_ipcs):
        if theirs > 0:
            total += mine / theirs
    return total


# ----------------------------------------------------------------------
# Job entry point (module level: spawn-picklable).
# ----------------------------------------------------------------------

def _cell_observers(
    options: Optional[SchemeOptions], telemetry: bool, spans: bool
) -> Tuple[object, object, Optional[SchemeOptions]]:
    """One cell's ``(session, tracer, options)``.

    A :class:`~repro.telemetry.session.TelemetrySession` is built only
    when the grid collects telemetry; a spans-only cell hands its
    :class:`~repro.telemetry.spans.SpanTracer` to the driver through
    ``SchemeOptions.tracer`` and so runs the untraced code path.
    """
    observers: Dict[str, object] = {}
    if telemetry:
        from ..telemetry.session import TelemetrySession

        observers["telemetry"] = TelemetrySession()
    if spans:
        from ..telemetry.spans import SpanTracer

        observers["tracer"] = SpanTracer()
    if observers:
        options = dataclasses.replace(
            options if options is not None else SchemeOptions(),
            **observers,
        )
    return observers.get("telemetry"), observers.get("tracer"), options


def _sweep_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one grid cell (in a worker process or in-process).

    The payload carries everything the cell needs — the (picklable)
    scheme spec, platform config, options, and budgets — and the return
    value carries only plain data (IPC floats, headline metrics, and
    optionally the cell's telemetry registry and span records), keeping
    the IPC channel small and the merge in the parent deterministic.
    Exceptions propagate: the substrate's
    :func:`~repro.exec.run_job` shim captures them identically on both
    sides of the process boundary.
    """
    from ..schemes import REGISTRY as worker_registry

    spec = payload.get("spec")
    if spec is not None:
        # The parent's grid definition is authoritative for this cell:
        # register (or refresh) the spec so user-defined schemes run in
        # workers exactly like built-ins.
        worker_registry.ensure(spec)
    session, tracer, options = _cell_observers(
        payload.get("options"), payload.get("telemetry"),
        payload.get("spans"),
    )
    result = run_scheme(
        payload["scheme"], payload["config"],
        suite_specs(payload["workload"], payload["cores"]),
        options,
        max_cycles=payload["max_cycles"],
        wall_budget_s=payload["wall_budget_s"],
        engine=payload["engine"],
    )
    out = {
        "ipcs": [c.ipc for c in result.cores],
        "bus_utilization": result.bus_utilization,
        "mean_read_latency": result.stats.mean_read_latency,
        "energy_pj": result.energy.total_pj,
        "cycles": result.cycles,
        "faults": result.faults,
    }
    if session is not None:
        out["registry"] = session.registry
    if tracer is not None:
        # SpanRecord named tuples pickle as plain data; they ride the
        # substrate's reserved side channel, which pops them off before
        # the merge (and thus the checkpoint) ever sees the value.
        out[SPANS_KEY] = tracer.records
    return out


class Sweep:
    """Run and tabulate a grid of simulations against a baseline."""

    def __init__(
        self,
        config: SystemConfig,
        baseline_scheme: str = "baseline",
        max_cycles: int = 8_000_000,
        checkpoint: Optional[str] = None,
        point_wall_budget_s: Optional[float] = None,
        strict: bool = False,
        engine: str = "fast",
        workers: int = 1,
        collect_telemetry: bool = False,
        collect_spans: bool = False,
        fresh: bool = False,
        store=None,
    ) -> None:
        validate_workers(workers)
        self.config = config
        self.baseline_scheme = baseline_scheme
        self.max_cycles = max_cycles
        self.checkpoint = checkpoint
        self.point_wall_budget_s = point_wall_budget_s
        #: Simulation engine for every cell.  Sweeps default to the
        #: cycle-skipping fast path (production grids run for hours and
        #: the fast engine is differentially proven bit-identical); pass
        #: ``engine="reference"`` to force the cycle-stepping simulator.
        self.engine = engine
        #: When True, a failing cell re-raises instead of being recorded
        #: (the pre-resilience behaviour; also what a CI gate wants).
        self.strict = strict
        #: Worker processes for :meth:`run_grid`; 1 keeps everything
        #: in-process (bit-identical results either way).
        self.workers = workers
        #: Optional content-addressed result store (duck-typed — see
        #: :func:`repro.exec.run_jobs`; normally a
        #: :class:`repro.store.ResultStore`).  A warm store replays the
        #: cold run's raw cell results, so checkpoints, artifacts, and
        #: metrics snapshots stay byte-identical while zero simulations
        #: execute.  ``run_point`` runs in-process and is deliberately
        #: not cached.
        self.store = store
        #: Collect a per-cell telemetry registry and merge them (in
        #: deterministic submission order) into :attr:`cell_registry`.
        self.collect_telemetry = collect_telemetry
        self.cell_registry = None
        if collect_telemetry:
            from ..telemetry.registry import MetricsRegistry

            self.cell_registry = MetricsRegistry()
        #: Collect hierarchical spans: every cell runs under its own
        #: :class:`~repro.telemetry.spans.SpanTracer` (in-process or
        #: shipped back from the worker) and is adopted into
        #: :attr:`tracer` in deterministic submission order, so the
        #: merged trace is identical at any worker count (modulo
        #: volatile ``wall_*`` args).
        self.collect_spans = collect_spans
        self.tracer = None
        if collect_spans:
            from ..telemetry.spans import SpanTracer

            self.tracer = SpanTracer(track="grid")
        #: Wall-clock seconds of the most recent :meth:`run_grid` call
        #: (exported as a *volatile* gauge: never part of determinism
        #: snapshots or checkpoints).
        self.last_grid_wall_s: Optional[float] = None
        #: Baselines keyed *defensively*: the key includes the full
        #: (frozen, hashable) config, so mutating ``self.config`` between
        #: points can never alias a stale baseline onto a new grid.
        self._baselines: Dict[Tuple, RunResult] = {}
        #: Grid-mode baseline cache: one (possibly failed)
        #: :class:`~repro.exec.JobResult` per baseline identity.
        self._baseline_outcomes: Dict[Tuple, JobResult] = {}
        self.points: List[SweepPoint] = []
        self.failed_points: List[FailedPoint] = []
        self._completed: Dict[Tuple[str, str, int, str], SweepPoint] = {}
        self._store = CheckpointStore(
            checkpoint, CHECKPOINT_VERSION, fresh=fresh,
            tmp_prefix=".sweep-ckpt-",
        )
        if checkpoint is not None:
            self._load_checkpoint()

    # ------------------------------------------------------------------
    # Checkpointing.
    # ------------------------------------------------------------------

    def _load_checkpoint(self) -> None:
        data = self._store.load()
        if data is None:
            return
        for raw in data.get("points", []):
            point = SweepPoint(**raw)
            self.points.append(point)
            self._completed[_point_key(
                point.scheme, point.workload, point.cores, point.label
            )] = point
        for raw in data.get("failed", []):
            self.failed_points.append(FailedPoint(**raw))

    def _save_checkpoint(self) -> None:
        self._store.save({
            "baseline_scheme": self.baseline_scheme,
            "max_cycles": self.max_cycles,
            "points": [dataclasses.asdict(p) for p in self.points],
            "failed": [dataclasses.asdict(p) for p in self.failed_points],
        })

    # ------------------------------------------------------------------

    def _config_for(self, cores: int) -> SystemConfig:
        return (
            self.config if cores == self.config.num_cores
            else self.config.with_cores(cores)
        )

    def _baseline(self, workload: str, cores: int) -> RunResult:
        key = (self.baseline_scheme, workload, cores, self.config)
        if key not in self._baselines:
            self._baselines[key] = run_scheme(
                self.baseline_scheme, self._config_for(cores),
                suite_specs(workload, cores),
                max_cycles=self.max_cycles,
                wall_budget_s=self.point_wall_budget_s,
                engine=self.engine,
            )
        return self._baselines[key]

    def run_point(
        self,
        scheme: str,
        workload: str,
        cores: Optional[int] = None,
        label: str = "",
        options: Optional[SchemeOptions] = None,
    ) -> Optional[SweepPoint]:
        """Run one cell in-process and record it.

        Returns the completed :class:`SweepPoint`, a checkpointed one
        when this cell already finished in a previous (interrupted) run,
        or ``None`` when the cell failed and was isolated into
        :attr:`failed_points` (unless :attr:`strict`, which re-raises).
        """
        cores = cores or self.config.num_cores
        label = label or scheme
        key = _point_key(scheme, workload, cores, label)
        done = self._completed.get(key)
        if done is not None:
            return done
        session, cell_tracer, run_options = _cell_observers(
            options, self.collect_telemetry, self.collect_spans
        )
        try:
            result = run_scheme(
                scheme, self._config_for(cores),
                suite_specs(workload, cores),
                run_options, max_cycles=self.max_cycles,
                wall_budget_s=self.point_wall_budget_s,
                engine=self.engine,
            )
            baseline = self._baseline(workload, cores)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if self.strict:
                raise
            _LOG.warning("cell failed", extra={
                "scheme": scheme, "workload": workload, "cores": cores,
                "error_type": type(exc).__name__, "error": str(exc),
            })
            self.failed_points.append(FailedPoint(
                scheme=scheme, workload=workload, cores=cores,
                label=label, error_type=type(exc).__name__,
                error=str(exc),
            ))
            self._save_checkpoint()
            return None
        point = SweepPoint(
            scheme=scheme,
            workload=workload,
            cores=cores,
            label=label,
            weighted_ipc=result.weighted_ipc(baseline),
            bus_utilization=result.bus_utilization,
            mean_read_latency=result.stats.mean_read_latency,
            energy_pj=result.energy.total_pj,
            cycles=result.cycles,
            faults=result.faults,
        )
        self.points.append(point)
        self._completed[key] = point
        if session is not None and self.cell_registry is not None:
            self.cell_registry.merge(session.registry)
        if cell_tracer is not None:
            self._adopt_cell_spans(
                workload, cores, label, cell_tracer.records
            )
        self._save_checkpoint()
        _LOG.info("cell done", extra={
            "scheme": scheme, "workload": workload, "cores": cores,
            "weighted_ipc": round(point.weighted_ipc, 6),
            "cycles": point.cycles,
        })
        return point

    def _adopt_cell_spans(
        self, workload: str, cores: int, label: str, records
    ) -> None:
        """Fold one cell's spans into the grid tracer.

        Called once per completed cell — in cell execution order
        serially and in submission order by the parallel merge loop,
        which are the *same* order, so the grid tracer's record
        sequence (and logical clock) is identical at any worker count.
        """
        adopt_spans(
            self.tracer, f"{label} x {workload} x {cores}", "cell",
            records,
        )

    # ------------------------------------------------------------------
    # Grid execution (serial or multiprocess, one substrate call).
    # ------------------------------------------------------------------

    def run_grid(
        self,
        schemes: Sequence[str],
        workloads: Sequence[str],
        cores: Optional[int] = None,
        options: Optional[SchemeOptions] = None,
    ) -> List[SweepPoint]:
        """Run the (scheme x workload) grid, honouring :attr:`workers`.

        Every cell becomes one :class:`~repro.exec.JobSpec` handed to
        :func:`repro.exec.run_jobs`: ``workers=1`` executes the same job
        shim in-process, ``workers>1`` fans cells out across
        spawn-started processes, and either way results merge back in
        submission order — so both modes produce byte-identical
        checkpoints and identical aggregate metrics.  The wall-clock of
        the whole call lands in :attr:`last_grid_wall_s` (and, as a
        volatile gauge, in the metrics artifact).
        """
        start = time.monotonic()
        try:
            if self.workers > 1 and options is not None:
                if options.telemetry is not None:
                    raise ConfigError(
                        "SchemeOptions.telemetry cannot cross process "
                        "boundaries; use Sweep(collect_telemetry=True) "
                        "to merge per-worker registries instead"
                    )
                if options.tracer is not None:
                    raise ConfigError(
                        "SchemeOptions.tracer cannot cross process "
                        "boundaries; use Sweep(collect_spans=True) to "
                        "merge per-worker spans instead"
                    )
            n = cores or self.config.num_cores
            jobs, aux = self._grid_jobs(
                list(schemes), list(workloads), n, options
            )
            run_jobs(
                jobs, self._merge_cell, aux=aux, workers=self.workers,
                skip=lambda job: job.key in self._completed,
                store=self.store,
            )
        finally:
            self.last_grid_wall_s = time.monotonic() - start
        return list(self.points)

    def _payload(
        self,
        spec,
        scheme: str,
        workload: str,
        cores: int,
        options: Optional[SchemeOptions],
        telemetry: bool,
        spans: bool = False,
    ) -> Dict[str, object]:
        return {
            "spec": spec,
            "scheme": scheme,
            "workload": workload,
            "cores": cores,
            "config": self._config_for(cores),
            "options": options,
            "max_cycles": self.max_cycles,
            "wall_budget_s": self.point_wall_budget_s,
            "engine": self.engine,
            "telemetry": telemetry,
            "spans": spans,
        }

    def _grid_jobs(
        self,
        schemes: List[str],
        workloads: List[str],
        cores: int,
        options: Optional[SchemeOptions],
    ) -> Tuple[List[JobSpec], Dict[Tuple, JobSpec]]:
        """Describe the grid as substrate jobs plus baseline auxiliaries.

        Scheme names resolve against the *parent's* registry here — a
        worker registry may lack parent-only specs, so resolving (and
        failing) parent-side is what keeps the unknown-scheme error
        text, and therefore the checkpoint bytes, identical at any
        worker count.
        """
        base_spec = REGISTRY.find(self.baseline_scheme)
        jobs: List[JobSpec] = []
        aux: Dict[Tuple, JobSpec] = {}
        for scheme in schemes:
            for workload in workloads:
                key = _point_key(scheme, workload, cores, scheme)
                try:
                    spec = REGISTRY.get(scheme)
                except SchemeError as exc:
                    jobs.append(JobSpec(key=key, failure=exc))
                    continue
                bkey = (self.baseline_scheme, workload, cores,
                        self.config)
                requires: Tuple = ()
                if bkey not in self._baseline_outcomes:
                    if bkey not in aux:
                        aux[bkey] = JobSpec(
                            key=bkey, fn=_sweep_worker,
                            payload=self._payload(
                                base_spec, self.baseline_scheme,
                                workload, cores, options=None,
                                telemetry=False,
                            ),
                        )
                    requires = (bkey,)
                jobs.append(JobSpec(
                    key=key, fn=_sweep_worker,
                    payload=self._payload(
                        spec, scheme, workload, cores, options=options,
                        telemetry=self.collect_telemetry,
                        spans=self.collect_spans,
                    ),
                    requires=requires,
                ))
        return jobs, aux

    def _merge_cell(self, job: JobSpec, result: JobResult,
                    resolve) -> None:
        """Fold one cell outcome into the table (submission order)."""
        scheme, workload, cores, label = job.key
        base: Optional[JobResult] = None
        if result.ok:
            bkey = (self.baseline_scheme, workload, cores, self.config)
            base = self._baseline_outcomes.get(bkey)
            if base is None:
                base = resolve(bkey)
                self._baseline_outcomes[bkey] = base
            if not base.ok:
                result = base
        if not result.ok:
            self._record_failure(scheme, workload, cores, label, result)
            return
        value = result.value
        point = SweepPoint(
            scheme=scheme,
            workload=workload,
            cores=cores,
            label=label,
            weighted_ipc=_weighted_ipc(
                value["ipcs"], base.value["ipcs"]
            ),
            bus_utilization=value["bus_utilization"],
            mean_read_latency=value["mean_read_latency"],
            energy_pj=value["energy_pj"],
            cycles=value["cycles"],
            faults=value["faults"],
        )
        self.points.append(point)
        self._completed[job.key] = point
        registry = value.get("registry")
        if registry is not None and self.cell_registry is not None:
            self.cell_registry.merge(registry)
        if result.spans is not None and self.tracer is not None:
            self._adopt_cell_spans(workload, cores, label, result.spans)
        self._save_checkpoint()
        _LOG.info("cell done", extra={
            "scheme": scheme, "workload": workload, "cores": cores,
            "weighted_ipc": round(point.weighted_ipc, 6),
            "cycles": point.cycles,
        })

    def _record_failure(
        self, scheme: str, workload: str, cores: int, label: str,
        result: JobResult,
    ) -> None:
        if self.strict:
            if result.exception is not None:
                raise result.exception
            raise ReproError(
                f"{result.error_type}: {result.error} "
                f"(cell {scheme} x {workload} x {cores})"
            )
        _LOG.warning("cell failed", extra={
            "scheme": scheme, "workload": workload, "cores": cores,
            "error_type": str(result.error_type),
            "error": str(result.error),
        })
        self.failed_points.append(FailedPoint(
            scheme=scheme, workload=workload, cores=cores, label=label,
            error_type=str(result.error_type),
            error=str(result.error),
        ))
        self._save_checkpoint()

    # ------------------------------------------------------------------

    def turn_length_sweep(
        self,
        workloads: Sequence[str],
        turn_lengths: Sequence[int],
        bank_partitioned: bool = True,
    ) -> Dict[int, List[SweepPoint]]:
        """The Figure 5 experiment for arbitrary grids."""
        scheme = "tp_bp" if bank_partitioned else "tp_np"
        out: Dict[int, List[SweepPoint]] = {}
        for turn in turn_lengths:
            cells = [
                self.run_point(
                    scheme, wl,
                    label=f"{scheme}_{turn}",
                    options=SchemeOptions(turn_length=turn),
                )
                for wl in workloads
            ]
            out[turn] = [c for c in cells if c is not None]
        return out

    def core_count_sweep(
        self,
        schemes: Sequence[str],
        workloads: Sequence[str],
        core_counts: Sequence[int],
    ) -> Dict[Tuple[str, int], List[SweepPoint]]:
        """The Figure 10 experiment for arbitrary grids."""
        out: Dict[Tuple[str, int], List[SweepPoint]] = {}
        for scheme in schemes:
            for cores in core_counts:
                cells = [
                    self.run_point(scheme, wl, cores=cores)
                    for wl in workloads
                ]
                out[(scheme, cores)] = [
                    c for c in cells if c is not None
                ]
        return out

    def mean(self, points: Iterable[SweepPoint],
             metric: str = "weighted_ipc") -> float:
        values = [getattr(p, metric) for p in points]
        if not values:
            raise ValueError("no points")
        return sum(values) / len(values)

    # ------------------------------------------------------------------
    # Telemetry export.
    # ------------------------------------------------------------------

    def metrics_registry(self):
        """Aggregate the grid into a fresh
        :class:`~repro.telemetry.registry.MetricsRegistry`.

        Every per-cell headline number becomes a gauge labeled with the
        cell's identity, fault strikes fold into one labeled counter
        across the whole grid, and failures are counted by exception
        type — so a dashboard can alert on
        ``sweep_failed_cells_total > 0`` or on any FS cell whose
        ``sweep_weighted_ipc`` regresses.  With ``collect_telemetry``,
        the merged per-cell registries fold in too, and the last
        :meth:`run_grid` wall clock / worker count export as *volatile*
        gauges (excluded from determinism snapshots by design — a
        ``workers=4`` artifact stays comparable to a serial one).
        """
        from ..telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "sweep_cells_total", "completed sweep cells"
        ).inc(len(self.points))
        registry.counter(
            "sweep_failed_cells_total", "failed (isolated) sweep cells"
        ).inc(len(self.failed_points))
        labels = ("scheme", "workload", "cores", "label")
        ipc = registry.gauge(
            "sweep_weighted_ipc",
            "sum of per-core IPCs normalized to the baseline", labels,
        )
        util = registry.gauge(
            "sweep_bus_utilization", "data-bus busy fraction", labels
        )
        latency = registry.gauge(
            "sweep_mean_read_latency_cycles",
            "mean demand-read latency", labels,
        )
        energy = registry.gauge(
            "sweep_energy_pj", "total DRAM energy (picojoules)", labels
        )
        cycles = registry.gauge(
            "sweep_cycles", "simulated cycles", labels
        )
        faults = registry.counter(
            "sweep_faults_injected_total",
            "fault strikes across the whole grid", ("kind",),
        )
        for p in self.points:
            key = dict(scheme=p.scheme, workload=p.workload,
                       cores=p.cores, label=p.label)
            ipc.set(round(p.weighted_ipc, 6), **key)
            util.set(round(p.bus_utilization, 6), **key)
            latency.set(round(p.mean_read_latency, 6), **key)
            energy.set(round(p.energy_pj, 3), **key)
            cycles.set(p.cycles, **key)
            for kind, count in sorted((p.faults or {}).items()):
                faults.inc(count, kind=kind)
        failures = registry.counter(
            "sweep_failures_total",
            "isolated cell failures by exception type", ("error_type",),
        )
        for f in self.failed_points:
            failures.inc(error_type=f.error_type)
        if self.cell_registry is not None:
            registry.merge(self.cell_registry)
        wall = registry.gauge(
            "sweep_wall_seconds",
            "wall-clock of the last run_grid call", volatile=True,
        )
        if self.last_grid_wall_s is not None:
            wall.set(round(self.last_grid_wall_s, 6))
        registry.gauge(
            "sweep_workers", "configured worker processes",
            volatile=True,
        ).set(self.workers)
        return registry

    def export_metrics(self, path: str) -> None:
        """Write the aggregated grid metrics to ``path``.

        ``.prom`` / ``.txt`` suffixes select the Prometheus text
        exposition format; anything else writes the JSON export.  Path
        errors surface as :class:`~repro.errors.TelemetryError`.
        """
        from ..telemetry.collector import open_sink

        registry = self.metrics_registry()
        handle = open_sink(path)
        try:
            if path.endswith((".prom", ".txt")):
                handle.write(registry.to_prometheus())
            else:
                handle.write(registry.to_json())
                handle.write("\n")
        finally:
            handle.close()

    def export_trace(self, path: str) -> int:
        """Write the merged grid span trace as Chrome trace JSON.

        Requires ``collect_spans=True``; returns the span count.  The
        file's non-volatile content is byte-identical at any worker
        count (``wall_*`` args are the only difference — strip them
        with :func:`~repro.telemetry.spans.scrub_volatile_args`).
        """
        from ..errors import TelemetryError
        from ..telemetry.chrome import export_span_trace

        if self.tracer is None:
            raise TelemetryError(
                "span trace export requires Sweep(collect_spans=True)"
            )
        return export_span_trace(
            self.tracer, path, metadata={"source": "sweep"}
        )
