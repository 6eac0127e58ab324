"""Fixed Service memory controllers — timing-channel-free DRAM scheduling.

A from-scratch reproduction of Shafiee et al., *"Avoiding Information
Leakage in the Memory Controller with Fixed Service Policies"*
(MICRO-48, 2015): a command-level DDR3 simulator, the non-secure and
Temporal Partitioning baselines, the full family of Fixed Service
pipelines with their offline constraint solver, trace-driven cores,
synthetic SPEC-like workloads, and the security/performance analysis
machinery that regenerates every figure in the paper.

Quick start::

    from repro import SystemConfig, run_scheme, suite_specs

    config = SystemConfig(accesses_per_core=2000)
    baseline = run_scheme("baseline", config, suite_specs("mcf"))
    secure = run_scheme("fs_rp", config, suite_specs("mcf"))
    print(secure.weighted_ipc(baseline))  # ~0.7 x 8 cores

Packages:

* :mod:`repro.core` — the paper's contribution (solver, schedules, FS
  controllers, energy optimizations).
* :mod:`repro.dram` — DDR3 timing/power substrate.
* :mod:`repro.controllers` — FR-FCFS baseline, FCFS, Temporal
  Partitioning.
* :mod:`repro.cpu`, :mod:`repro.workloads`, :mod:`repro.cache` — load
  generation.
* :mod:`repro.mapping` — address mapping and spatial partitioning.
* :mod:`repro.schemes` — the declarative scheme registry: picklable
  :class:`~repro.schemes.SchemeSpec` descriptions interpreted by
  family builders (register one spec, run it everywhere).
* :mod:`repro.exec` — the deterministic execution substrate: one
  spawn-pool / checkpoint / submission-order-merge recipe shared by
  parallel sweeps, certification batches, and the benchmark suite.
* :mod:`repro.sim` — system wiring and experiment runner.
* :mod:`repro.analysis` — non-interference checks, covert channels,
  metrics, reporting.
* :mod:`repro.telemetry` — unified observability: metrics registry,
  cycle-accurate trace export, run spans.
"""

from .errors import (
    ConfigError,
    ExecError,
    FaultInjectionError,
    ReproError,
    ScheduleViolationError,
    SimTimeoutError,
    TelemetryError,
    TraceError,
)
from .dram import (
    DDR3_1600_X4,
    DramSystem,
    TimingChecker,
    TimingParams,
)
from .core import (
    FixedServiceController,
    FsEnergyOptions,
    OnlineInvariantMonitor,
    PeriodicMode,
    PipelineSolver,
    ReorderedBpController,
    SharingLevel,
    build_fs_schedule,
    build_triple_alternation_schedule,
    paper_solutions,
    validate_schedule,
)
from .faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from .telemetry import (
    MetricsRegistry,
    TelemetrySession,
    TraceCollector,
    export_chrome_trace,
)
from .controllers import (
    FcfsController,
    FrFcfsController,
    TemporalPartitioningController,
)
from .mapping import Geometry, make_partition
from .schemes import (
    REGISTRY,
    SchemeRegistry,
    SchemeSpec,
    register_scheme,
)
from .errors import SchemeError
from .sim import (
    SCHEMES,
    FailedPoint,
    RunResult,
    SchemeOptions,
    Sweep,
    SweepPoint,
    System,
    SystemConfig,
    build_system,
    run_scheme,
)
from .workloads import (
    EVALUATION_SUITE,
    WorkloadSpec,
    generate_trace,
    suite_specs,
    workload,
)
from .analysis import (
    interference_report,
    run_covert_channel,
    sum_weighted_ipc,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError", "ConfigError", "TraceError",
    "ScheduleViolationError", "FaultInjectionError", "SimTimeoutError",
    "ExecError", "TelemetryError",
    "MetricsRegistry", "TelemetrySession", "TraceCollector",
    "export_chrome_trace",
    "DDR3_1600_X4", "DramSystem", "TimingChecker", "TimingParams",
    "FixedServiceController", "FsEnergyOptions", "PeriodicMode",
    "PipelineSolver", "ReorderedBpController", "SharingLevel",
    "OnlineInvariantMonitor",
    "build_fs_schedule", "build_triple_alternation_schedule",
    "paper_solutions", "validate_schedule",
    "FaultInjector", "FaultKind", "FaultPlan", "FaultSpec",
    "FcfsController", "FrFcfsController",
    "TemporalPartitioningController",
    "Geometry", "make_partition",
    "REGISTRY", "SchemeError", "SchemeRegistry", "SchemeSpec",
    "register_scheme",
    "SCHEMES", "RunResult", "SchemeOptions", "System", "SystemConfig",
    "build_system", "run_scheme",
    "FailedPoint", "Sweep", "SweepPoint",
    "EVALUATION_SUITE", "WorkloadSpec", "generate_trace",
    "suite_specs", "workload",
    "interference_report", "run_covert_channel", "sum_weighted_ipc",
    "__version__",
]
