"""Fixed Service memory controllers — the paper's primary contribution.

Contents:

* :mod:`~repro.core.pipeline_solver` — offline constraint solving for the
  minimal conflict-free slot gap (Sections 3-4 equations), by replaying
  candidates through the JEDEC checker.
* :mod:`~repro.core.schedule` — concrete slot timetables (Figures 1-2),
  including triple alternation and the reordered-bank-partitioning
  geometry search, their validators, and the process-wide schedule
  memo both engines build through.
* :mod:`~repro.core.shaping` — per-domain shaping: hazard tracking and
  dummy generation.
* :mod:`~repro.core.fs_controller` — the FS controller and the base
  class both FS controllers share (queues, staged commands, slot loop).
* :mod:`~repro.core.fs_reordered` — reordered bank partitioning.
* :mod:`~repro.core.energy_opts` — the Section 5.2 energy optimizations.
* :mod:`~repro.core.online_monitor` — streaming runtime verification of
  the JEDEC timing rules and FS schedule invariants.
"""

from .pipeline_solver import (
    GroupedPipeline,
    GroupedPipelineSolver,
    PeriodicMode,
    PipelineSolver,
    SharingLevel,
    paper_solutions,
    slot_timing,
)
from .sla import bandwidth_share, build_sla_schedule, weighted_slot_order
from .invariants import (
    InvariantViolation,
    check_constant_service,
    check_schedule_conformance,
)
from .schedule import (
    CommandTimes,
    FixedServiceSchedule,
    ReorderedBpGeometry,
    SlotSpec,
    build_fs_schedule,
    build_reordered_bp_geometry,
    build_triple_alternation_schedule,
    schedule_commands,
    validate_schedule,
)
from .shaping import DomainHazardTracker, DummyGenerator
from .diagram import occupancy_summary, render_interval
from .energy_opts import (
    EnergyAdjustments,
    FsEnergyOptions,
    adjusted_energy,
)
from .fs_controller import FixedServiceController, PrefetchBuffer
from .fs_reordered import ReorderedBpController
from .online_monitor import OnlineInvariantMonitor

__all__ = [
    "GroupedPipeline", "GroupedPipelineSolver",
    "PeriodicMode", "PipelineSolver", "SharingLevel",
    "paper_solutions", "slot_timing",
    "bandwidth_share", "build_sla_schedule", "weighted_slot_order",
    "InvariantViolation", "check_constant_service",
    "check_schedule_conformance",
    "CommandTimes", "FixedServiceSchedule", "ReorderedBpGeometry",
    "SlotSpec", "build_fs_schedule", "build_reordered_bp_geometry",
    "build_triple_alternation_schedule", "schedule_commands",
    "validate_schedule",
    "DomainHazardTracker", "DummyGenerator",
    "occupancy_summary", "render_interval",
    "EnergyAdjustments", "FsEnergyOptions", "adjusted_energy",
    "FixedServiceController", "PrefetchBuffer",
    "ReorderedBpController",
    "OnlineInvariantMonitor",
]
