"""Shared machinery for the engine-equivalence (differential) suites.

The fast-path engine (:mod:`repro.sim.fastpath`) claims to be
*observationally identical* to the cycle-stepping reference: same command
trace, same completion times, same statistics, same energy — for every
scheme, with and without fault injection.  The helpers here run one
configuration under both engines and assert that claim field by field.

Used by ``tests/test_differential.py`` (scheme/option matrix) and
``tests/test_fastpath_faults.py`` (fault-model matrix).
:func:`lockstep_run` serves the suites that need a system's lockstep
loop where ``System.run`` might take the per-domain driver.

Both suites run their FS cases in two modes.  With the command log on
(the default) the fast FS controllers issue every command through
``Channel.issue_trusted`` and the logs must match command for command.
With it off, nothing observes individual commands, so the fast FS
controllers settle their transactions in closed form
(``Channel.settle_trusted``); the reference engine still issues every
command checked, which makes it the oracle for that path.  Every
observable except the command log is compared in both modes, down to
each rank's energy counters and each channel's command/data counters.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional, Tuple

from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.sim.system import RunResult, System, drain
from repro.workloads.spec import suite_specs

#: Generous per-run bound; every differential case finishes far below it.
MAX_CYCLES = 6_000_000


def lockstep_run(system: System, max_cycles: int = 10_000_000,
                 victim: Optional[int] = None) -> RunResult:
    """Run ``system`` through its engine's lockstep loop:
    ``System.steps`` drained, then ``System.finish``."""
    started = time.monotonic()
    clock = drain(system.steps(max_cycles, victim=victim))
    return system.finish(clock, started)


def run_both(
    scheme: str,
    workload: str = "mix1",
    cores: int = 8,
    accesses: int = 120,
    options: Optional[SchemeOptions] = None,
    seed: int = 0,
    log_commands: bool = True,
) -> Dict[str, Tuple]:
    """Run one configuration under both engines.

    Returns ``{engine: (RunResult, controller)}``; the controller is kept
    so callers can compare command logs and monitor verdicts.  Command
    logging is forced to ``log_commands``: on, the bit-identical-trace
    assertion is meaningful for every case; off, the fast FS
    controllers take the closed-form settlement path.
    """
    options = dataclasses.replace(
        options or SchemeOptions(), log_commands=log_commands
    )
    outcomes: Dict[str, Tuple] = {}
    for engine in ("reference", "fast"):
        config = SystemConfig(accesses_per_core=accesses, seed=seed)
        if cores != config.num_cores:
            # Keeps accesses_per_core and seed (the Figure 10 scaling).
            config = config.with_cores(cores)
        system = build_system(
            scheme, config, suite_specs(workload, cores), options,
            engine=engine,
        )
        result = system.run(max_cycles=MAX_CYCLES)
        outcomes[engine] = (result, system.controller)
    return outcomes


def assert_equivalent(outcomes: Dict[str, Tuple]) -> None:
    """Assert the two engines produced bit-identical observables."""
    ref, ref_ctl = outcomes["reference"]
    fast, fast_ctl = outcomes["fast"]
    assert fast.cycles == ref.cycles, (
        f"run length diverged: reference {ref.cycles} vs fast "
        f"{fast.cycles}"
    )
    for f in dataclasses.fields(type(ref.stats)):
        r = getattr(ref.stats, f.name)
        x = getattr(fast.stats, f.name)
        assert x == r, f"stats.{f.name}: reference {r} vs fast {x}"
    assert fast.service_trace == ref.service_trace, \
        "per-domain service traces diverged"
    assert fast.bus_utilization == ref.bus_utilization
    assert fast.energy == ref.energy, "energy breakdown diverged"
    assert fast.adjustments == ref.adjustments
    assert fast.cores == ref.cores, "per-core results diverged"
    assert dram_counters(fast_ctl) == dram_counters(ref_ctl), \
        "rank energy counters or channel stat counters diverged"
    # The headline claim: the very command stream is bit-identical.
    # ``request_id`` is drawn from a process-global counter (the second
    # run of the pair starts higher), so it is projected out; everything
    # the bus, the timing checker, and the security invariants see —
    # type, cycle, geometry, domain — must match exactly, in order.
    # Without a command log there is no stream to compare.
    assert fast_ctl.log_commands == ref_ctl.log_commands
    if ref_ctl.log_commands:
        assert _trace(fast_ctl) == _trace(ref_ctl), \
            "command traces diverged"
    ref_mon = getattr(ref_ctl, "monitor", None)
    fast_mon = getattr(fast_ctl, "monitor", None)
    assert (ref_mon is None) == (fast_mon is None)
    if ref_mon is not None:
        assert fast_mon.total_violations == ref_mon.total_violations
        assert fast_mon.violations == ref_mon.violations


def dram_counters(controller) -> list:
    """Every rank's energy counters and every channel's stat counters."""
    return [
        (
            channel.stat_commands, channel.stat_data_cycles,
            channel.stat_last_activity,
            [dataclasses.astuple(rank.energy) for rank in channel.ranks],
        )
        for channel in controller.dram.channels
    ]


def _trace(controller) -> list:
    """The command log minus the process-global ``request_id``."""
    return [
        (c.type, c.cycle, c.channel, c.rank, c.bank, c.row, c.domain)
        for c in controller.command_log
    ]


def check(scheme: str, **kwargs) -> None:
    """Run + assert in one call (the common case)."""
    assert_equivalent(run_both(scheme, **kwargs))
