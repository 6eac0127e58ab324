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

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.config import SystemConfig
from ..sim.runner import SchemeOptions, build_system
from ..workloads.synthetic import WorkloadSpec, idle_spec, intense_spec


@dataclass(frozen=True)
class VictimView:
    """Everything the victim (domain 0) can observe about its own run.

    A view stepped together with another world's may be *stopped*
    (``stopped_at`` is set): its run ended at the first read release
    that told the two worlds apart, so its profile, releases and IPC
    cover only the run up to that read.  It is then known to differ
    from the other world's view, and nothing more.
    """

    scheme: str
    co_runner: str
    #: (instruction count, mem cycle retired) milestones.
    profile: Tuple[Tuple[int, int], ...]
    #: Release cycle of every demand read, in arrival order.
    read_releases: Tuple[int, ...]
    #: Over the victim's own execution: up to its last retirement once
    #: it has finished, else up to the run's last cycle.
    ipc: float
    #: Release cycle at which a stepped run stopped; None for a full
    #: view.
    stopped_at: Optional[int] = None


class VictimWorld:
    """One victim world, built and run read release by read release.

    ``victim`` runs on domain 0 and ``co_runner`` on every other
    domain, in one lockstep loop that pauses at each of the victim's
    read releases (:meth:`repro.sim.system.System.steps` with
    ``victim=0``).  :meth:`step` runs the world to its next release;
    :meth:`finish` ends it where it stands and takes the victim's
    view (:attr:`view`).  :func:`victim_view` steps one world to its
    end, or two worlds together.
    """

    def __init__(
        self,
        scheme: str,
        victim: WorkloadSpec,
        co_runner: WorkloadSpec,
        config: Optional[SystemConfig] = None,
        options: Optional[SchemeOptions] = None,
        max_cycles: int = 10_000_000,
        profile_block: Optional[int] = None,
        engine: str = "reference",
    ) -> None:
        config = config or SystemConfig()
        specs = [victim] + [co_runner] * (config.num_cores - 1)
        self._scheme = scheme
        self._co_runner = co_runner.name
        self._profile_block = profile_block
        self._system = build_system(scheme, config, specs, options,
                                    engine=engine)
        self._steps = self._system.steps(max_cycles, victim=0)
        self._started = time.monotonic()
        #: Release cycle of each of the victim's reads so far.
        self._releases: List[int] = []
        #: The final clock, once the run has ended.
        self._end: Optional[int] = None
        #: The victim's view, once :meth:`finish` has taken it.
        self.view: Optional[VictimView] = None

    def step(self) -> Optional[int]:
        """Run to the victim's next read release and return its cycle;
        None once the run has ended (it is not stepped again)."""
        try:
            release = next(self._steps)
        except StopIteration as end:
            self._end = end.value
            return None
        self._releases.append(release)
        return release

    def run_out(self) -> None:
        """Step the world to its end."""
        while self.step() is not None:
            pass

    def finish(self) -> VictimView:
        """End the run where it stands and take the victim's view.

        A run that has ended gives the full view.  A run paused at a
        release is stopped there: its cycle count and run span end at
        that release cycle, and the view's ``stopped_at`` is set.  The
        world then lets go of its system, whose cores are unlinked
        from their reads still in flight, so it is freed at once.
        """
        stopped = self._end is None
        clock = self._releases[-1] if stopped else self._end
        system = self._system
        system.finish(clock, self._started)
        core = system.cores[0]
        profile_block = self._profile_block
        if profile_block is None:
            # ~25 milestones over the victim's instruction count (the
            # paper's Figure 4 plots 10k-instruction blocks over a far
            # longer run).
            profile_block = max(100, core.trace.instructions // 25)
        finish = core.finish_mem_cycle()
        self.view = VictimView(
            scheme=self._scheme,
            co_runner=self._co_runner,
            profile=tuple(core.completion_profile(profile_block)),
            read_releases=tuple(self._releases),
            ipc=core.ipc(clock if finish is None else finish),
            stopped_at=clock if stopped else None,
        )
        for each in system.cores:
            each.drop_in_flight()
        self._system = self._steps = None
        return self.view


def _step_together(first: VictimWorld, second: VictimWorld) -> None:
    """Step two worlds release by release and end both at the first
    index where their releases differ, or where one world has ended
    and the other releases again.  Worlds that match every release run
    to their ends.  Both are finished, ``first`` first.

    An error ``second`` raises before that index lets ``first`` run to
    its end first, so an error of ``first``'s wins, as it would if the
    worlds ran one after the other.
    """
    while True:
        release = first.step()
        try:
            other = second.step()
        except Exception:
            if release is not None:
                first.run_out()
            first.finish()
            raise
        if release != other or release is None:
            break
    first.finish()
    second.finish()


def victim_view(
    scheme: str,
    victim: WorkloadSpec,
    co_runner: WorkloadSpec,
    config: Optional[SystemConfig] = None,
    options: Optional[SchemeOptions] = None,
    max_cycles: int = 10_000_000,
    profile_block: Optional[int] = None,
    engine: str = "reference",
    reference: Optional[VictimWorld] = None,
) -> VictimView:
    """Run ``victim`` on domain 0 with ``co_runner`` on all other domains
    and capture the victim-visible timing.

    ``engine`` selects the simulator (reference cycle-stepper or the
    differentially-verified fast path); the certification harness runs
    both and demands identical verdicts.

    The run is always lockstep, every domain in one global loop (see
    :meth:`repro.sim.system.System.steps`): leakage is measured here,
    and a driver that runs each domain against its own slots computes
    the victim's view from its own domain alone, so a controller that
    read another domain's state would look clean.

    The run ends at the victim's last retirement, not at the slowest
    co-runner's: once domain 0 is done and the clock has reached its
    finish cycle, nothing later can move its release cycles, its
    profile or its IPC, so the view is the full run's.  The IPC is
    measured at the victim's own last retirement, so it does not
    depend on when the co-runners finish.

    ``reference`` is another world of the same victim, config, options
    and engine, built (a :class:`VictimWorld`) but not yet stepped.
    The two worlds are then stepped together, release by release: each
    step runs ``reference`` to its next read release and this world
    to the same index.  Both end at the first index where the releases
    differ, or where one world has ended and the other releases again.
    Their views differ whatever the rest of the runs would do, so both
    are returned stopped (``stopped_at`` set) as soon as that is
    known.  Worlds that match every release run to their ends and give
    full views, whose profiles may still differ.  The reference's view
    is ``reference.view`` afterwards.  Only the certification harness
    passes one.
    """
    world = VictimWorld(scheme, victim, co_runner, config, options,
                        max_cycles, profile_block, engine)
    if reference is None:
        world.run_out()
        return world.finish()
    _step_together(reference, world)
    return world.view


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
