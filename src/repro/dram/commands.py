"""DRAM command and memory-transaction types.

A *transaction* is a cache-line read or write as seen by the memory
controller; it decomposes into DRAM *commands* (ACTIVATE, COL_READ,
COL_WRITE, PRECHARGE, REFRESH, power-mode changes).  Commands carry the
cycle at which they were put on the command bus, which is what the timing
checker and the security invariants inspect.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional


class CommandType(enum.Enum):
    """The DDR3 command set modelled by this simulator.

    ``is_column`` / ``is_read`` / ``is_write`` / ``auto_precharge`` are
    plain per-member attributes (filled in right below the class body):
    they sit on every scheduler's innermost loop, where a property call
    per query is measurable simulator overhead.
    """

    ACTIVATE = "ACT"
    COL_READ = "RD"
    COL_WRITE = "WR"
    #: Column read/write with auto-precharge (the FS default).
    COL_READ_AP = "RDA"
    COL_WRITE_AP = "WRA"
    PRECHARGE = "PRE"
    REFRESH = "REF"
    POWER_DOWN = "PDN"
    POWER_UP = "PUP"

    is_column: bool
    is_read: bool
    is_write: bool
    auto_precharge: bool


_COLUMN_COMMANDS = frozenset(
    {
        CommandType.COL_READ,
        CommandType.COL_WRITE,
        CommandType.COL_READ_AP,
        CommandType.COL_WRITE_AP,
    }
)

for _member in CommandType:
    _member.is_column = _member in _COLUMN_COMMANDS
    _member.is_read = _member in (
        CommandType.COL_READ, CommandType.COL_READ_AP
    )
    _member.is_write = _member in (
        CommandType.COL_WRITE, CommandType.COL_WRITE_AP
    )
    _member.auto_precharge = _member in (
        CommandType.COL_READ_AP, CommandType.COL_WRITE_AP
    )
del _member


class OpType(enum.Enum):
    """Transaction direction."""

    READ = "read"
    WRITE = "write"

    is_read: bool


OpType.READ.is_read = True
OpType.WRITE.is_read = False

# Hot paths bind Enum members to module constants: on CPython 3.11 a
# member lookup through the class (``OpType.READ``) costs about three
# times a global load.  3.12 narrows the gap; the constants cost
# nothing there either.
_READ = OpType.READ


class RequestKind(enum.Enum):
    """Why a transaction exists; the FS shaper distinguishes these."""

    DEMAND = "demand"
    PREFETCH = "prefetch"
    DUMMY = "dummy"


_request_ids = itertools.count()


@dataclass
class Address:
    """A decoded DRAM address."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    def same_bank(self, other: "Address") -> bool:
        return (
            self.channel == other.channel
            and self.rank == other.rank
            and self.bank == other.bank
        )

    def same_rank(self, other: "Address") -> bool:
        return self.channel == other.channel and self.rank == other.rank

    def bank_key(self) -> tuple:
        return (self.channel, self.rank, self.bank)


@dataclass
class Request:
    """A memory transaction travelling through the controller.

    Timestamps are in memory cycles: ``arrival`` when the transaction
    entered the controller, ``issue`` when its first command went on the
    bus, ``data_start`` when its burst began, ``completion`` when the data
    burst finished (for reads this is when the line is returned, unless a
    scheme deliberately delays the return — see ``release``).
    """

    op: OpType
    address: Address
    domain: int = 0
    kind: RequestKind = RequestKind.DEMAND
    arrival: int = 0
    #: Domain-local line address (pre-mapping), used by the prefetcher.
    line: Optional[int] = None
    core_tag: Optional[object] = None
    req_id: int = field(default_factory=lambda: next(_request_ids))

    issue: Optional[int] = None
    data_start: Optional[int] = None
    completion: Optional[int] = None
    #: When the result was released to the core (>= completion; FS
    #: reordered-BP holds read results until the end of the interval).
    release: Optional[int] = None
    row_hit: bool = False
    suppressed: bool = False

    def __post_init__(self) -> None:
        # Cached direction flag: queried far more often than requests
        # are built (every scheduler pick / hazard check), and ``op``
        # never changes after construction.
        self.is_read = self.op is _READ

    @property
    def latency(self) -> Optional[int]:
        """Arrival-to-release latency in memory cycles, if finished."""
        if self.release is None:
            return None
        return self.release - self.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request({self.op.value} d{self.domain} {self.kind.value} "
            f"ch{self.address.channel} r{self.address.rank} "
            f"b{self.address.bank} row{self.address.row} "
            f"arr={self.arrival})"
        )


@dataclass(frozen=True, init=False)
class Command:
    """A command as it appeared on the command bus.

    A frozen value object (equality, hashing, ``repr`` and
    ``dataclasses.replace`` are the generated ones).  ``__init__`` is
    written out because every FS slot builds two commands and the
    FR-FCFS/TP schedulers one per issued command: filling the instance
    dict directly costs about a third of the generated frozen
    ``__init__``, which goes through ``object.__setattr__`` once per
    field.
    """

    type: CommandType
    cycle: int
    channel: int
    rank: int
    bank: int = -1
    row: int = -1
    request_id: int = -1
    domain: int = -1

    def __init__(
        self,
        type: CommandType,
        cycle: int,
        channel: int,
        rank: int,
        bank: int = -1,
        row: int = -1,
        request_id: int = -1,
        domain: int = -1,
    ) -> None:
        if cycle < 0:
            raise ValueError("command cycle must be non-negative")
        state = self.__dict__
        state["type"] = type
        state["cycle"] = cycle
        state["channel"] = channel
        state["rank"] = rank
        state["bank"] = bank
        state["row"] = row
        state["request_id"] = request_id
        state["domain"] = domain
