"""DDR3 DRAM substrate: timing, banks/ranks/channels, refresh, power.

This package is the cycle-level memory model all controllers (secure and
non-secure) schedule against.  Everything is expressed in integer memory
cycles; see :mod:`repro.dram.timing` for the Table-1 parameter set.
"""

from .timing import (
    TimingParams,
    ClockDomain,
    DDR3_1600_X4,
    DDR3_1066,
    DDR4_2400,
    DEFAULT_CLOCK,
)
from .commands import (
    Address,
    Command,
    CommandType,
    OpType,
    Request,
    RequestKind,
)
from .bank import Bank, TimingViolation
from .rank import Rank, RankEnergyCounters, PowerState
from .channel import Channel
from .system import DramSystem
from .refresh import RefreshScheduler, RefreshWindow
from .checker import TimingChecker, Violation
from .power import (
    DramPowerParams,
    EnergyBreakdown,
    PowerModel,
    MICRON_4GB_DDR3_1600,
    ZERO_ENERGY,
)

__all__ = [
    "TimingParams", "ClockDomain", "DDR3_1600_X4", "DDR3_1066",
    "DDR4_2400", "DEFAULT_CLOCK",
    "Address", "Command", "CommandType", "OpType", "Request", "RequestKind",
    "Bank", "TimingViolation",
    "Rank", "RankEnergyCounters", "PowerState",
    "Channel",
    "DramSystem",
    "RefreshScheduler", "RefreshWindow",
    "TimingChecker", "Violation",
    "DramPowerParams", "EnergyBreakdown", "PowerModel",
    "MICRON_4GB_DDR3_1600", "ZERO_ENERGY",
]
