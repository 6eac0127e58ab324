"""High-level experiment runner: build and run named scheme comparisons.

Scheme names are looked up in the declarative registry
(:mod:`repro.schemes`); the builders interpret each
:class:`~repro.schemes.SchemeSpec` into a controller + partition, so
this module contains **no per-scheme control flow** — registering a new
spec makes it immediately runnable here, in the CLI, and in (parallel)
sweeps.

The built-in names match the paper's figures:

=================  ====================================================
name               design point
=================  ====================================================
``baseline``       non-secure FR-FCFS with write drain (open page)
``fcfs``           strict FCFS, closed page (reference only)
``channel_part``   private channel per domain (Section 4.1)
``tp_bp``          Temporal Partitioning, bank-partitioned
``tp_np``          Temporal Partitioning, no spatial partitioning
``fs_rp``          Fixed Service, rank partitioning (periodic data, l=7)
``fs_rp_mc``       Fixed Service, one controller per channel
``fs_bp``          Fixed Service, bank partitioning (periodic RAS, l=15)
``fs_reordered_bp``Fixed Service, reordered bank partitioning (Q=63)
``fs_np``          Fixed Service, no partitioning (l=43)
``fs_np_ta``       Fixed Service, triple alternation (15-cycle slots)
=================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..controllers.base import MemoryController
from ..core.energy_opts import FsEnergyOptions
from ..core.online_monitor import OnlineInvariantMonitor
from ..cpu.core_model import Core
from ..errors import ConfigError
from ..faults import FaultInjector, FaultPlan
from ..mapping.partition import PartitionPolicy
from ..schemes import REGISTRY, build_from_spec, build_partition
from ..workloads.synthetic import WorkloadSpec, generate_trace
from .config import SystemConfig
from .system import RunResult, System


class _SchemeNamesView(Sequence):
    """A live, ordered, tuple-like view of the registry's names.

    Backward-compatible stand-in for the old hardcoded ``SCHEMES``
    tuple: iteration, ``in``, ``len``, indexing, and ``join`` all work,
    and schemes registered at runtime appear automatically (including
    in ``argparse`` choices built from this object).
    """

    def _names(self):
        return REGISTRY.names()

    def __iter__(self):
        return iter(self._names())

    def __contains__(self, name: object) -> bool:
        return name in REGISTRY

    def __len__(self) -> int:
        return len(REGISTRY)

    def __getitem__(self, index):
        return self._names()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, list)):
            return tuple(self._names()) == tuple(other)
        return NotImplemented

    def __hash__(self):  # views are interchangeable with their tuple
        return hash(self._names())

    def __repr__(self) -> str:
        return repr(self._names())


#: Registered scheme names (live view over :data:`repro.schemes.REGISTRY`).
SCHEMES = _SchemeNamesView()

#: Simulation engines: the cycle-stepping reference and the
#: cycle-skipping fast path (:mod:`repro.sim.fastpath`), which is
#: differentially tested to be observationally identical.
ENGINES = ("reference", "fast")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; known: {ENGINES}"
        )


@dataclass
class SchemeOptions:
    """Per-scheme knobs used by the sensitivity benchmarks.

    Everything except :attr:`telemetry` and :attr:`tracer` is plain
    data, so an options block can ride along with a spec into a
    multiprocess sweep worker.
    """

    turn_length: Optional[int] = None          # TP
    energy: FsEnergyOptions = field(default_factory=FsEnergyOptions)
    prefetch: bool = False                     # FS_RP / baseline
    slots_per_domain: int = 1                  # FS "improving bandwidth"
    #: Model DRAM refresh (baseline: demand-based; FS_RP: deterministic
    #: clock-driven blackouts).  Off by default, like the paper's
    #: pipeline analysis.
    refresh: bool = False
    #: Address-mapping field order for schemes without spatial
    #: partitioning (the abstract's "various page mapping policies can
    #: impact the throughput of our secure memory system").  None keeps
    #: the open-page row-major default; e.g.
    #: ``("row", "column", "rank", "channel", "bank")`` interleaves
    #: consecutive lines across banks, which markedly helps triple
    #: alternation's bank-class coverage.
    address_order: Optional[tuple] = None
    log_commands: bool = False
    #: Seed-deterministic fault campaign (see :mod:`repro.faults`).  An
    #: immutable plan, instantiated afresh for every run so one run's
    #: fault schedule can never bleed into the next.  Slot-level faults
    #: apply to the FS controllers; ``corrupt_trace`` applies to every
    #: scheme's workload generation.
    faults: Optional[FaultPlan] = None
    #: Attach an :class:`~repro.core.online_monitor
    #: .OnlineInvariantMonitor` watchdog to the controller.
    monitor: bool = False
    #: Make the watchdog raise :class:`~repro.errors
    #: .ScheduleViolationError` the cycle an invariant breaks (instead
    #: of accumulating violations for post-run inspection).
    monitor_strict: bool = False
    #: Optional :class:`~repro.telemetry.session.TelemetrySession`.
    #: When set, the controller (and its fault injector / monitor)
    #: streams every service event, DRAM command, fault, and violation
    #: into it, and :func:`run_scheme` harvests the finished run's stats
    #: into the same registry.  A session makes the run *observed*: a
    #: trusted FS controller issues command by command instead of
    #: settling in closed form.  ``None`` (the default) keeps every hot
    #: path on the single ``is None`` fast check.
    telemetry: object = None
    #: Optional :class:`~repro.telemetry.spans.SpanTracer`.  The driver
    #: (never the controller) records each run's run/phase/epoch spans
    #: and wall time into it, so a traced run takes the untraced code
    #: path and yields identical observables.  Neither this nor
    #: :attr:`telemetry` crosses a process boundary: parallel sweeps
    #: and certification batches build per-worker ones themselves.
    tracer: object = None


def partition_for(
    scheme: str,
    config: SystemConfig,
    options: Optional["SchemeOptions"] = None,
) -> PartitionPolicy:
    """The partition level the named scheme's spec declares."""
    return build_partition(REGISTRY.get(scheme), config, options)


def _attach_runtime_verification(
    controller: MemoryController,
    config: SystemConfig,
    options: SchemeOptions,
) -> None:
    """Hook up the online watchdog when the options ask for one."""
    if not options.monitor:
        return
    schedule = getattr(controller, "schedule", None)
    controller.attach_monitor(OnlineInvariantMonitor(
        config.timing,
        schedule=schedule,
        strict=options.monitor_strict,
    ))


def build_controller(
    scheme: str,
    config: SystemConfig,
    partition: PartitionPolicy,
    options: SchemeOptions,
    fault_injector: Optional[FaultInjector] = None,
    engine: str = "reference",
) -> MemoryController:
    """Instantiate the memory controller for a scheme name.

    A thin interpreter: the registry supplies the spec, the spec's
    family supplies the construction recipe, and the spec's controller
    path supplies the class.  ``engine="fast"`` resolves the spec's
    cycle-skipping controller variant (bit-identical observables, see
    ``tests/test_differential.py``); the default stays the reference.
    Unknown scheme names raise :class:`~repro.errors.SchemeError` with
    the registered-name list.
    """
    _check_engine(engine)
    spec = REGISTRY.get(scheme)
    config.validate_for_scheme(scheme)
    if fault_injector is None and options.faults is not None and (
        not options.faults.empty
    ):
        fault_injector = options.faults.injector()
    return build_from_spec(
        spec, config, partition, options, fault_injector, engine
    )


def build_system(
    scheme: str,
    config: SystemConfig,
    specs: Sequence[WorkloadSpec],
    options: Optional[SchemeOptions] = None,
    engine: str = "reference",
) -> System:
    """Assemble controller + partition + cores for one run."""
    _check_engine(engine)
    scheme_spec = REGISTRY.get(scheme)
    if len(specs) != config.num_cores:
        raise ConfigError("one workload spec per core required")
    config.validate_for_scheme(scheme)
    options = options or SchemeOptions()
    fault_injector = None
    if options.faults is not None and not options.faults.empty:
        # One fresh injector per run: the plan is immutable, the
        # injector's progress counters are not.
        fault_injector = options.faults.injector()
    partition = build_partition(scheme_spec, config, options)
    controller = build_from_spec(
        scheme_spec, config, partition, options, fault_injector, engine
    )
    _attach_runtime_verification(controller, config, options)
    if options.telemetry is not None:
        # After the monitor: attach_telemetry wires into it too.
        options.telemetry.attach(controller)
    cores = []
    for d, spec in enumerate(specs):
        trace = generate_trace(
            spec, config.accesses_per_core, seed=config.seed + d
        )
        if fault_injector is not None:
            trace = fault_injector.corrupt_trace(trace, d)
        cores.append(Core(
            domain=d, trace=trace, params=config.core,
        ))
    if engine == "fast":
        from .fastpath import FastSystem

        system = FastSystem(controller, partition, cores, scheme=scheme)
    else:
        system = System(controller, partition, cores, scheme=scheme)
    system.tracer = options.tracer
    return system


def run_scheme(
    scheme: str,
    config: SystemConfig,
    specs: Sequence[WorkloadSpec],
    options: Optional[SchemeOptions] = None,
    max_cycles: int = 10_000_000,
    wall_budget_s: Optional[float] = None,
    engine: str = "reference",
) -> RunResult:
    """Build and run one scheme to completion.

    When the options carry a telemetry session, the finished run's
    legacy stat structs are harvested into its registry before the
    result is returned.
    """
    system = build_system(scheme, config, specs, options, engine=engine)
    result = system.run(
        max_cycles=max_cycles, wall_budget_s=wall_budget_s
    )
    if options is not None and options.telemetry is not None:
        options.telemetry.harvest(result, system.controller)
    return result
