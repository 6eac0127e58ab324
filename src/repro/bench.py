"""The benchmark ledger: a recorded performance trajectory for the repo.

ROADMAP's north star says the simulator should run "as fast as the
hardware allows"; this module makes that claim *auditable* by pinning a
small benchmark suite and appending each measurement to a
schema-versioned ledger entry at the repository root::

    BENCH_0.json   # committed seed entry
    BENCH_1.json   # next `repro bench record`
    ...

Suite cases (all built on existing public surfaces):

* ``cycles_per_second/<engine>/<scheme>`` — simulated cycles per wall
  second of one plain ``System.run`` (nothing attached, so the run
  takes the path an unobserved simulation takes), per engine on
  representative schemes (the headline engine-throughput numbers);
* ``sweep_cells_per_second`` — serial grid throughput through
  :class:`~repro.sim.sweep.Sweep` (orchestration overhead included);
* ``certify_trials_per_second`` — two-world trials per second through
  :func:`~repro.certify.harness.certify_strategy`;
* ``template_cache_hit_rate`` — the fast engine's schedule-template
  cache effectiveness (deterministic; measured from cold).

``compare`` diffs two entries with a noise-aware relative threshold:
wall-clock throughput on shared CI runners jitters, so the default
tolerance is 15% (override per invocation or via the
``REPRO_BENCH_TOLERANCE`` environment variable — CI pins an honest
floor there).  Only *regressions* beyond tolerance fail; improvements
and deterministic metrics moving within tolerance are reported but
pass.

The suite itself runs on the execution substrate (:mod:`repro.exec`),
like every other batch in the repository: ``workers=N`` fans the cases
over spawn-started processes (each case's throughput is still measured
inside its own process, but co-running cases share the machine — use
workers for wall-clock of the whole suite, serial for the least noisy
per-case numbers), and a ``checkpoint`` path makes a killed suite
resume without re-running finished cases.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError, ExecError, ReproError
from .exec import CheckpointStore, JobSpec, run_jobs
from .telemetry.log import get_logger

#: Ledger entry schema version (bump on incompatible change).
SCHEMA_VERSION = 1

#: Suite checkpoint schema version (bump on incompatible change).
CHECKPOINT_VERSION = 1

#: Default relative regression tolerance (15%): generous enough for
#: shared-runner noise, tight enough to catch a real >=20% regression.
DEFAULT_TOLERANCE = 0.15

#: Environment override for the comparison tolerance.
TOLERANCE_ENV = "REPRO_BENCH_TOLERANCE"

_LEDGER_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

_LOG = get_logger("bench")

#: (engine, scheme) pairs whose cycles/s the suite pins.  fs_rp is the
#: paper's headline Fixed Service scheme, baseline the conventional
#: controller; both engines are measured on fs_rp so the fast path's
#: speedup itself is tracked.
ENGINE_CASES: Tuple[Tuple[str, str], ...] = (
    ("fast", "fs_rp"),
    ("fast", "baseline"),
    ("reference", "fs_rp"),
)


@dataclass(frozen=True)
class BenchMetric:
    """One measured suite number."""

    name: str
    value: float
    unit: str
    #: Direction of goodness: regressions are moves *against* it.
    higher_better: bool = True

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "value": round(self.value, 6),
            "unit": self.unit,
            "higher_better": self.higher_better,
        }


@dataclass(frozen=True)
class BenchDelta:
    """One metric's movement between two ledger entries."""

    name: str
    old: float
    new: float
    #: Relative change in the *goodness* direction (positive = better).
    rel_change: float
    regression: bool


@dataclass
class BenchComparison:
    """The outcome of diffing two ledger entries."""

    old_label: str
    new_label: str
    tolerance: float
    deltas: List[BenchDelta] = field(default_factory=list)
    #: Metrics present in only one entry (never a failure by itself).
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def passed(self) -> bool:
        return not self.regressions


# ----------------------------------------------------------------------
# Suite execution.
# ----------------------------------------------------------------------

def _engine_case(
    engine: str, scheme: str, accesses: int, cores: int, seed: int,
) -> List[BenchMetric]:
    from .sim.config import SystemConfig
    from .sim.runner import build_system
    from .workloads.spec import suite_specs

    config = SystemConfig(
        num_cores=cores, accesses_per_core=accesses, seed=seed
    )
    system = build_system(
        scheme, config, suite_specs("mix1", cores), engine=engine
    )
    start = time.monotonic()
    result = system.run(max_cycles=50_000_000)
    wall = time.monotonic() - start
    if wall <= 0:  # pragma: no cover - defensive
        raise ReproError("engine benchmark measured no wall time")
    return [BenchMetric(
        name=f"cycles_per_second/{engine}/{scheme}",
        value=result.cycles / wall,
        unit="cycles/s",
    )]


def _sweep_case(
    accesses: int, cores: int, seed: int
) -> List[BenchMetric]:
    from .sim.config import SystemConfig
    from .sim.sweep import Sweep

    sweep = Sweep(
        SystemConfig(
            num_cores=cores, accesses_per_core=accesses, seed=seed
        ),
        max_cycles=50_000_000, strict=True,
    )
    start = time.monotonic()
    points = sweep.run_grid(["fs_rp", "tp_bp"], ["mcf", "lbm"])
    wall = time.monotonic() - start
    if wall <= 0 or not points:  # pragma: no cover - defensive
        raise ReproError("sweep benchmark produced no cells")
    return [BenchMetric(
        name="sweep_cells_per_second",
        value=len(points) / wall,
        unit="cells/s",
    )]


def _certify_case(
    accesses: int, cores: int, seed: int
) -> List[BenchMetric]:
    from .certify.harness import certify_strategy
    from .certify.strategies import generate_strategies
    from .sim.config import SystemConfig

    strategy = dataclasses.replace(
        generate_strategies(1, seed=seed)[0], trials=3
    )
    config = SystemConfig(
        num_cores=cores, accesses_per_core=accesses, seed=seed
    )
    start = time.monotonic()
    certify_strategy(
        "fs_rp", strategy, config, engine="fast",
        max_cycles=50_000_000, bootstrap_resamples=50,
    )
    wall = time.monotonic() - start
    if wall <= 0:  # pragma: no cover - defensive
        raise ReproError("certify benchmark measured no wall time")
    return [BenchMetric(
        name="certify_trials_per_second",
        value=strategy.trials / wall,
        unit="trials/s",
    )]


def _template_cache_case(
    accesses: int, cores: int, seed: int
) -> List[BenchMetric]:
    from .sim.config import SystemConfig
    from .core.schedule import clear_caches, template_cache_stats
    from .sim.runner import run_scheme
    from .workloads.spec import suite_specs

    clear_caches()
    for workload in ("mcf", "lbm", "mix1"):
        run_scheme(
            "fs_rp",
            SystemConfig(
                num_cores=cores, accesses_per_core=accesses, seed=seed
            ),
            suite_specs(workload, cores),
            max_cycles=50_000_000, engine="fast",
        )
    stats = template_cache_stats()
    total = stats["hits"] + stats["misses"]
    rate = stats["hits"] / total if total else 0.0
    return [BenchMetric(
        name="template_cache_hit_rate",
        value=rate,
        unit="ratio",
    )]


# -- substrate adapters (module level: spawn-picklable) -----------------

def _engine_case_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Substrate job wrapping :func:`_engine_case`."""
    return _case_value(_engine_case(
        payload["engine"], payload["scheme"], payload["accesses"],
        payload["cores"], payload["seed"],
    ))


def _sweep_case_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Substrate job wrapping :func:`_sweep_case`."""
    return _case_value(_sweep_case(
        payload["accesses"], payload["cores"], payload["seed"]
    ))


def _certify_case_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Substrate job wrapping :func:`_certify_case`."""
    return _case_value(_certify_case(
        payload["accesses"], payload["cores"], payload["seed"]
    ))


def _template_cache_case_job(
    payload: Dict[str, object]
) -> Dict[str, object]:
    """Substrate job wrapping :func:`_template_cache_case`."""
    return _case_value(_template_cache_case(
        payload["accesses"], payload["cores"], payload["seed"]
    ))


def _case_value(metrics: List[BenchMetric]) -> Dict[str, object]:
    """A case's metrics as the plain-data job value (checkpointable)."""
    return {"metrics": [dataclasses.asdict(m) for m in metrics]}


def _suite_jobs(
    accesses: int, cores: int, seed: int
) -> List[JobSpec]:
    """The pinned suite as substrate jobs, in suite order."""
    base = {"accesses": accesses, "cores": cores, "seed": seed}
    jobs: List[JobSpec] = []
    for engine, scheme in ENGINE_CASES:
        jobs.append(JobSpec(
            key=f"engine/{engine}/{scheme}", fn=_engine_case_job,
            payload=dict(base, engine=engine, scheme=scheme),
        ))
    jobs.append(JobSpec(key="sweep", fn=_sweep_case_job,
                        payload=dict(base)))
    jobs.append(JobSpec(key="certify", fn=_certify_case_job,
                        payload=dict(base)))
    jobs.append(JobSpec(key="template_cache",
                        fn=_template_cache_case_job,
                        payload=dict(base)))
    return jobs


def run_suite(
    accesses: int = 300,
    cores: int = 4,
    seed: int = 7,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    fresh: bool = False,
    store=None,
) -> List[BenchMetric]:
    """Run the pinned suite and return its metrics (suite order).

    One substrate batch: ``workers=N`` fans the cases over processes,
    ``checkpoint`` resumes a killed suite without re-running finished
    cases (keyed on the suite scale, so a checkpoint from a different
    scale is discarded), ``fresh`` deliberately discards any existing
    checkpoint.  A failing case fails the whole suite — a performance
    ledger with silently missing numbers would be worse than no entry.

    ``store`` (duck-typed — see :func:`repro.exec.run_jobs`) replays
    cached case results.  Bench metrics are *wall-clock throughputs*, so
    a warm store reports the timings of the machine state that populated
    it — useful for exercising the plumbing, wrong for recording a real
    ledger entry.  It is therefore opt-in here exactly like everywhere
    else, and a recorded entry should normally run cold.
    """
    jobs = _suite_jobs(accesses, cores, seed)
    ckpt = CheckpointStore(
        checkpoint, CHECKPOINT_VERSION,
        batch_key=json.dumps(
            {"accesses": accesses, "cores": cores, "seed": seed},
            sort_keys=True,
        ),
        fresh=fresh, tmp_prefix=".bench-ckpt-",
    )
    completed: Dict[str, List[Dict[str, object]]] = {}
    data = ckpt.load()
    if data is not None:
        for key, metrics in data.get("cases", {}).items():
            completed[str(key)] = metrics

    def merge(job, result, _aux):
        if not result.ok:
            if result.exception is not None:
                raise result.exception
            raise ExecError(
                f"bench case {job.key!r} failed: "
                f"{result.error_type}: {result.error}"
            )
        completed[job.key] = result.value["metrics"]
        ckpt.save({"cases": completed})

    run_jobs(
        jobs, merge, workers=workers,
        skip=lambda job: job.key in completed,
        store=store,
    )
    return [
        BenchMetric(**raw)
        for job in jobs
        for raw in completed[job.key]
    ]


# ----------------------------------------------------------------------
# The ledger.
# ----------------------------------------------------------------------

def ledger_entries(root: str) -> List[Tuple[int, str]]:
    """Existing ``(index, path)`` ledger entries under ``root``, sorted."""
    out: List[Tuple[int, str]] = []
    for name in os.listdir(root):
        match = _LEDGER_PATTERN.match(name)
        if match:
            out.append((int(match.group(1)), os.path.join(root, name)))
    return sorted(out)


def load_entry(path: str) -> Dict[str, object]:
    """Load and schema-check one ledger entry."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read ledger entry: {exc}") from exc
    except ValueError as exc:
        raise ReproError(
            f"ledger entry {path!r} is not valid JSON: {exc}"
        ) from exc
    if data.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"ledger entry {path!r} has schema "
            f"{data.get('schema')!r}; this build reads "
            f"{SCHEMA_VERSION}"
        )
    if not isinstance(data.get("metrics"), dict):
        raise ReproError(
            f"ledger entry {path!r} has no metrics table"
        )
    return data


def record(
    root: str,
    accesses: int = 300,
    cores: int = 4,
    seed: int = 7,
    label: str = "",
    workers: int = 1,
    checkpoint: Optional[str] = None,
    fresh: bool = False,
    store=None,
) -> str:
    """Run the suite and append the next ``BENCH_<n>.json``.

    Returns the written path.  The entry is self-describing: schema
    version, suite scale (so entries at different scales are never
    silently compared — :func:`compare` refuses), platform fingerprint,
    and one named metric table.  ``workers``, ``checkpoint``, ``fresh``,
    and ``store`` pass through to :func:`run_suite` (see its caveat on
    recording warm-cache timings).
    """
    if accesses < 1 or cores < 1:
        raise ConfigError(
            "bench suite needs accesses >= 1 and cores >= 1"
        )
    metrics = run_suite(
        accesses=accesses, cores=cores, seed=seed, workers=workers,
        checkpoint=checkpoint, fresh=fresh, store=store,
    )
    entries = ledger_entries(root)
    index = entries[-1][0] + 1 if entries else 0
    path = os.path.join(root, f"BENCH_{index}.json")
    entry = {
        "schema": SCHEMA_VERSION,
        "index": index,
        "label": label or f"bench-{index}",
        "created": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "suite": {"accesses": accesses, "cores": cores, "seed": seed},
        "metrics": {m.name: m.to_json_dict() for m in metrics},
    }
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=1, sort_keys=True)
        handle.write("\n")
    _LOG.info("ledger entry written", extra={
        "path": path, "index": index,
        "metrics": len(entry["metrics"]),
    })
    return path


def resolve_tolerance(tolerance: Optional[float] = None) -> float:
    """The effective comparison tolerance.

    Precedence: explicit argument > ``REPRO_BENCH_TOLERANCE`` >
    :data:`DEFAULT_TOLERANCE`.
    """
    if tolerance is not None:
        value = tolerance
    else:
        raw = os.environ.get(TOLERANCE_ENV)
        if raw is None:
            return DEFAULT_TOLERANCE
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{TOLERANCE_ENV} must be a number, got {raw!r}"
            ) from None
    if value < 0:
        raise ConfigError(
            f"bench tolerance must be non-negative, got {value}"
        )
    return value


def compare(
    old_path: str,
    new_path: str,
    tolerance: Optional[float] = None,
) -> BenchComparison:
    """Diff two ledger entries; regressions beyond tolerance fail.

    A metric regresses when it moves against its ``higher_better``
    direction by more than the relative tolerance.  Entries recorded at
    different suite scales are not comparable and raise
    :class:`~repro.errors.ReproError`.
    """
    old = load_entry(old_path)
    new = load_entry(new_path)
    if old.get("suite") != new.get("suite"):
        raise ReproError(
            f"ledger entries were recorded at different suite scales "
            f"({old.get('suite')} vs {new.get('suite')}); "
            f"re-record at a matching scale to compare"
        )
    tol = resolve_tolerance(tolerance)
    result = BenchComparison(
        old_label=str(old.get("label", old_path)),
        new_label=str(new.get("label", new_path)),
        tolerance=tol,
    )
    old_metrics = old["metrics"]
    new_metrics = new["metrics"]
    for name in sorted(set(old_metrics) | set(new_metrics)):
        if name not in old_metrics or name not in new_metrics:
            result.missing.append(name)
            continue
        o = old_metrics[name]
        n = new_metrics[name]
        old_value = float(o["value"])
        new_value = float(n["value"])
        higher_better = bool(o.get("higher_better", True))
        if old_value == 0:
            rel = 0.0 if new_value == 0 else float("inf")
            if not higher_better:
                rel = -rel
        else:
            rel = (new_value - old_value) / abs(old_value)
        if not higher_better:
            rel = -rel
        result.deltas.append(BenchDelta(
            name=name,
            old=old_value,
            new=new_value,
            rel_change=rel,
            regression=rel < -tol,
        ))
    return result


def format_comparison(comparison: BenchComparison) -> str:
    """Human-readable comparison table (stdout of ``bench compare``)."""
    lines = [
        f"bench compare: {comparison.old_label} -> "
        f"{comparison.new_label} "
        f"(tolerance {comparison.tolerance:.0%})"
    ]
    for d in comparison.deltas:
        verdict = "REGRESSION" if d.regression else "ok"
        lines.append(
            f"  {d.name}: {d.old:.4g} -> {d.new:.4g} "
            f"({d.rel_change:+.1%}) {verdict}"
        )
    for name in comparison.missing:
        lines.append(f"  {name}: present in only one entry (skipped)")
    lines.append(
        "PASS" if comparison.passed else
        f"FAIL: {len(comparison.regressions)} regression(s)"
    )
    return "\n".join(lines)


__all__ = [
    "BenchComparison",
    "BenchDelta",
    "BenchMetric",
    "CHECKPOINT_VERSION",
    "DEFAULT_TOLERANCE",
    "ENGINE_CASES",
    "SCHEMA_VERSION",
    "TOLERANCE_ENV",
    "compare",
    "format_comparison",
    "ledger_entries",
    "load_entry",
    "record",
    "resolve_tolerance",
    "run_suite",
]
