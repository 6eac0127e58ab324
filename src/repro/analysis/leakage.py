"""Information-leakage measurement (Figure 4 and the security claims).

The paper's security argument is *non-interference*: a domain's memory
service timing must be a pure function of its own requests.  We test that
operationally:

* :func:`victim_view` runs one victim workload against a chosen set of
  co-runners and extracts everything the victim could ever observe — its
  execution profile (time to retire each instruction block) and the
  release time of each of its reads.
* :func:`interference_report` runs the same victim against *different*
  co-runners and diffs the observations.  For FS schemes the views must
  be bit-for-bit identical; for the non-secure baseline they diverge,
  which is exactly the Figure 4 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.config import SystemConfig
from ..sim.runner import SchemeOptions, build_system
from ..sim.system import RunResult
from ..workloads.synthetic import WorkloadSpec, idle_spec, intense_spec


@dataclass(frozen=True)
class VictimView:
    """Everything the victim (domain 0) can observe about its own run."""

    scheme: str
    co_runner: str
    #: (instruction count, mem cycle retired) milestones.
    profile: Tuple[Tuple[int, int], ...]
    #: Release cycle of every demand read, in arrival order.
    read_releases: Tuple[int, ...]
    ipc: float


def victim_view(
    scheme: str,
    victim: WorkloadSpec,
    co_runner: WorkloadSpec,
    config: Optional[SystemConfig] = None,
    options: Optional[SchemeOptions] = None,
    max_cycles: int = 10_000_000,
    profile_block: Optional[int] = None,
    engine: str = "reference",
) -> VictimView:
    """Run ``victim`` on domain 0 with ``co_runner`` on all other domains
    and capture the victim-visible timing.

    ``engine`` selects the simulator (reference cycle-stepper or the
    differentially-verified fast path); the certification harness runs
    both and demands identical verdicts.

    The run is always lockstep, every domain in one global loop (see
    :meth:`repro.sim.system.System.run`): leakage is measured here, and
    a driver that runs each domain against its own slots computes the
    victim's view from its own domain alone, so a controller that read
    another domain's state would look clean.

    The run ends at the victim's last retirement (``victim=0``), not
    at the slowest co-runner's: once domain 0 is done and the clock
    has reached its finish cycle, nothing later can move its release
    cycles, its profile or its IPC, so the view is the full run's.
    """
    config = config or SystemConfig()
    specs = [victim] + [co_runner] * (config.num_cores - 1)
    system = build_system(scheme, config, specs, options, engine=engine)
    releases: List[int] = []
    victim_core = system.cores[0]
    original = victim_core.on_complete

    def recording_on_complete(request, mem_cycle):
        releases.append(mem_cycle)
        original(request, mem_cycle)

    victim_core.on_complete = recording_on_complete
    result = system.run(max_cycles=max_cycles, lockstep=True, victim=0)
    if profile_block is None:
        # ~25 milestones over the victim's instruction count (the paper's
        # Figure 4 plots 10k-instruction blocks over a far longer run).
        profile_block = max(100, victim_core.trace.instructions // 25)
    return VictimView(
        scheme=scheme,
        co_runner=co_runner.name,
        profile=tuple(victim_core.completion_profile(profile_block)),
        read_releases=tuple(releases),
        ipc=result.cores[0].ipc,
    )


@dataclass(frozen=True)
class InterferenceReport:
    """Comparison of victim views under different co-runners."""

    scheme: str
    views: Tuple[VictimView, ...]
    identical: bool
    max_profile_divergence_cycles: int
    max_release_divergence_cycles: int

    @property
    def leaks(self) -> bool:
        """True when the co-runners measurably altered the victim."""
        return not self.identical


def interference_report(
    scheme: str,
    victim: WorkloadSpec,
    co_runners: Sequence[WorkloadSpec] = None,
    config: Optional[SystemConfig] = None,
    options: Optional[SchemeOptions] = None,
    engine: str = "reference",
) -> InterferenceReport:
    """Run the victim against each co-runner and diff the views.

    Default co-runners are the Figure 4 pair: non-memory-intensive and
    maximally memory-intensive synthetic threads.
    """
    if co_runners is None:
        co_runners = [idle_spec(), intense_spec()]
    if len(co_runners) < 2:
        raise ValueError("need at least two co-runner variants")
    views = tuple(
        victim_view(scheme, victim, co, config, options, engine=engine)
        for co in co_runners
    )
    reference = views[0]
    max_profile = 0
    max_release = 0
    identical = True
    for view in views[1:]:
        if view.profile != reference.profile:
            identical = False
            for (n1, t1), (n2, t2) in zip(reference.profile, view.profile):
                if n1 == n2:
                    max_profile = max(max_profile, abs(t1 - t2))
        if view.read_releases != reference.read_releases:
            identical = False
            for r1, r2 in zip(reference.read_releases, view.read_releases):
                max_release = max(max_release, abs(r1 - r2))
    return InterferenceReport(
        scheme=scheme,
        views=views,
        identical=identical,
        max_profile_divergence_cycles=max_profile,
        max_release_divergence_cycles=max_release,
    )


def figure4_profiles(
    config: Optional[SystemConfig] = None,
    victim: Optional[WorkloadSpec] = None,
) -> Dict[str, VictimView]:
    """The four Figure 4 curves: {baseline, fs_rp} x {idle, intense}."""
    from ..workloads.spec import workload

    victim = victim or workload("mcf")
    out: Dict[str, VictimView] = {}
    for scheme in ("baseline", "fs_rp"):
        for co_name, co in (
            ("non_intensive", idle_spec()),
            ("intensive", intense_spec()),
        ):
            out[f"{scheme}/{co_name}"] = victim_view(
                scheme, victim, co, config
            )
    return out
