"""Simulation wiring: configuration, the system event loop, and runners."""

from .config import SystemConfig, TABLE1_CONFIG, full_target_config
from .multichannel import MultiChannelFsController
from .openloop import drive_open_loop
from .system import CoreResult, RunResult, System
from .runner import (
    ENGINES,
    SCHEMES,
    SchemeOptions,
    build_controller,
    build_system,
    partition_for,
    run_scheme,
)
from .sweep import FailedPoint, Sweep, SweepPoint

__all__ = [
    "SystemConfig", "TABLE1_CONFIG", "full_target_config",
    "MultiChannelFsController", "drive_open_loop",
    "CoreResult", "RunResult", "System",
    "ENGINES", "SCHEMES", "SchemeOptions", "build_controller",
    "build_system", "partition_for", "run_scheme",
    "FailedPoint", "Sweep", "SweepPoint",
]
