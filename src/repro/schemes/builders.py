"""Spec interpreters: turn a :class:`SchemeSpec` into a live system.

Where :mod:`repro.schemes.spec` makes scheme *identity* data, this
module holds the handful of *construction recipes* — one builder per
``family`` — that interpret a spec against a platform configuration.
The old ~180-line ``if scheme == ...`` chain in ``sim/runner.py``
collapses into these table lookups:

* :func:`build_partition` reads ``spec.partitioning``;
* :func:`build_from_spec` dispatches on ``spec.family`` through
  :data:`BUILDERS` and instantiates the controller class the spec names
  (resolved lazily from its dotted path, per engine).

Adding a scheme therefore never touches the runner: either reuse an
existing family with a new spec (different controller subclass, solver
inputs, partitioning), or register a new family with
:func:`register_builder`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..controllers.base import MemoryController
from ..controllers.tp import default_turn_length
from ..dram.system import DramSystem
from ..errors import ConfigError, SchemeError
from ..faults import FaultKind
from ..mapping.partition import (
    BankPartition,
    NoPartition,
    PartitionPolicy,
    RankPartition,
)
from .spec import SchemeSpec

#: family name -> builder callable.  Signature:
#: ``builder(spec, config, partition, options, fault_injector, engine)``.
BUILDERS: Dict[str, Callable[..., MemoryController]] = {}


def register_builder(family: str, replace: bool = False):
    """Decorator registering a construction recipe for ``family``."""

    def decorate(fn):
        if family in BUILDERS and not replace:
            raise SchemeError(
                f"builder for family {family!r} already registered"
            )
        BUILDERS[family] = fn
        return fn

    return decorate


def builder_for(family: str) -> Callable[..., MemoryController]:
    """The construction recipe registered for ``family``."""
    try:
        return BUILDERS[family]
    except KeyError:
        raise SchemeError(
            f"no builder registered for scheme family {family!r}; "
            f"known families: {', '.join(sorted(BUILDERS))}"
        ) from None


# ----------------------------------------------------------------------
# Shared construction helpers.
# ----------------------------------------------------------------------

def channel_part_geometry(config):
    """One private channel per domain (Section 4.1, <= 4 threads).

    The configured geometry is widened to ``num_cores`` channels while
    keeping per-channel resources, so each domain owns a whole channel.
    """
    from ..mapping.address import Geometry

    g = config.geometry
    return Geometry(
        channels=max(g.channels, config.num_cores),
        ranks=g.ranks, banks=g.banks, rows=g.rows, columns=g.columns,
    )


def _dram_for(config, geometry=None) -> DramSystem:
    g = geometry if geometry is not None else config.geometry
    return DramSystem(
        config.timing,
        num_channels=g.channels,
        ranks_per_channel=g.ranks,
        banks_per_rank=g.banks,
    )


def _refresh_for(spec: SchemeSpec, config, options):
    """A refresh timetable when the spec supports one and the options
    ask for one."""
    if not spec.supports_refresh or not options.refresh:
        return None
    from ..dram.refresh import RefreshScheduler

    return RefreshScheduler(config.timing, config.geometry.ranks)


def build_partition(
    spec: SchemeSpec, config, options=None
) -> PartitionPolicy:
    """The partition policy the spec's ``partitioning`` field declares."""
    if spec.partitioning == "channel":
        from ..mapping.partition import ChannelPartition

        return ChannelPartition(
            channel_part_geometry(config), config.num_cores
        )
    if spec.partitioning == "rank":
        return RankPartition(config.geometry, config.num_cores)
    if spec.partitioning == "bank":
        return BankPartition(config.geometry, config.num_cores)
    mapper = None
    if options is not None and options.address_order is not None:
        from ..mapping.address import AddressMapper

        mapper = AddressMapper(config.geometry, options.address_order)
    return NoPartition(config.geometry, config.num_cores, mapper=mapper)


def build_from_spec(
    spec: SchemeSpec,
    config,
    partition: PartitionPolicy,
    options,
    fault_injector=None,
    engine: str = "reference",
) -> MemoryController:
    """Interpret a spec: dispatch to its family's builder."""
    return builder_for(spec.family)(
        spec, config, partition, options, fault_injector, engine
    )


# ----------------------------------------------------------------------
# Built-in families.
# ----------------------------------------------------------------------

@register_builder("frfcfs")
def _build_frfcfs(spec, config, partition, options, injector, engine):
    """Open-page FR-FCFS with write drain (the non-secure baseline and,
    over private channels, the trivially secure ``channel_part``)."""
    geometry = None
    if spec.partitioning == "channel":
        # Private channels: a normal high-performance scheduler is
        # secure because nothing is shared (Section 4.1).
        geometry = channel_part_geometry(config)
    cls = spec.controller_class(engine)
    return cls(
        _dram_for(config, geometry), config.num_cores,
        refresh=_refresh_for(spec, config, options),
        log_commands=options.log_commands,
    )


@register_builder("fcfs")
def _build_fcfs(spec, config, partition, options, injector, engine):
    """Strict FCFS, closed page (reference only; the fast engine reuses
    the reference controller and gains from the fast *driver* alone)."""
    cls = spec.controller_class(engine)
    return cls(
        _dram_for(config), config.num_cores,
        log_commands=options.log_commands,
    )


@register_builder("tp")
def _build_tp(spec, config, partition, options, injector, engine):
    """Temporal Partitioning (Wang et al., HPCA 2014) with per-spec
    bank partitioning and option-driven turn length."""
    bank_partitioned = spec.partitioning == "bank"
    turn = options.turn_length or default_turn_length(bank_partitioned)
    cls = spec.controller_class(engine)
    return cls(
        _dram_for(config), config.num_cores, turn_length=turn,
        bank_partitioned=bank_partitioned,
        log_commands=options.log_commands,
    )


@register_builder("fs")
def _build_fs(spec, config, partition, options, injector, engine):
    """Fixed Service with a solved periodic timetable at the spec's
    sharing level (rank / bank / none partitioning, Sections 4-5)."""
    from ..core.schedule import cached_fs_schedule

    n = config.num_cores
    schedule = cached_fs_schedule(
        config.timing, n, spec.sharing_level(),
        slots_per_domain=options.slots_per_domain,
    )
    prefetchers = None
    if spec.supports_prefetch and options.prefetch:
        from ..prefetch.sandbox import SandboxPrefetcher

        prefetchers = {d: SandboxPrefetcher(seed=d) for d in range(n)}
    cls = spec.controller_class(engine)
    return cls(
        _dram_for(config), schedule, partition,
        energy_options=options.energy,
        prefetchers=prefetchers,
        refresh=_refresh_for(spec, config, options),
        log_commands=options.log_commands,
        fault_injector=injector,
    )


@register_builder("fs_ta")
def _build_fs_ta(spec, config, partition, options, injector, engine):
    """Fixed Service, triple alternation: rotating bank-class masks,
    no OS partitioning support needed (Section 6)."""
    from ..core.schedule import cached_triple_alternation_schedule

    schedule = cached_triple_alternation_schedule(
        config.timing, config.num_cores
    )
    cls = spec.controller_class(engine)
    return cls(
        _dram_for(config), schedule, partition,
        energy_options=options.energy,
        log_commands=options.log_commands,
        fault_injector=injector,
    )


@register_builder("fs_reordered")
def _build_fs_reordered(spec, config, partition, options, injector,
                        engine):
    """Fixed Service, reordered bank partitioning (read/write windows)."""
    cls = spec.controller_class(engine)
    return cls(
        _dram_for(config), partition, config.num_cores,
        energy_options=options.energy,
        log_commands=options.log_commands,
        fault_injector=injector,
    )


@register_builder("fs_multichannel")
def _build_fs_multichannel(spec, config, partition, options, injector,
                           engine):
    """One rank-partitioned FS controller per channel (the paper's full
    32-core, 4-channel target system).

    The per-channel controllers take no fault injector, so a plan
    arming a controller-level fault is refused rather than silently
    ignored; ``corrupt_trace`` acts on the workload and is kept.
    """
    if injector is not None:
        armed = [
            kind.value for kind in FaultKind
            if kind is not FaultKind.CORRUPT_TRACE
            and injector.plan.arms(kind)
        ]
        if armed:
            raise ConfigError(
                f"scheme {spec.name!r} cannot inject controller-level "
                f"faults ({', '.join(armed)}): its per-channel "
                f"controllers take no fault injector; only "
                f"corrupt_trace applies"
            )
    cls = spec.controller_class(engine)
    return cls(
        _dram_for(config), partition, config.num_cores,
        log_commands=options.log_commands,
    )


__all__ = [
    "BUILDERS",
    "build_from_spec",
    "build_partition",
    "builder_for",
    "channel_part_geometry",
    "register_builder",
]
