"""A deliberately-leaky Fixed Service controller: the planted bug the
certification harness must catch.

``LeakyFsController`` subclasses the real FS controller and breaks its
core guarantee in one place: when a *foreign* domain has requests
queued, domain 0's read releases are delayed by up to four extra cycles
(proportional to the foreign backlog).  The scheme still *claims* to be
a secure Fixed Service design (``fixed_service=True``, ``secure`` left
at the default) — its timetable, partitioning, and every other code
path are genuine — so nothing short of an adversarial two-world
experiment distinguishes it from ``fs_rp``.  ``repro certify`` must
flag it on both engines; a harness that certifies this scheme is
broken.

``LEAKY_SPEC`` rides the normal declarative registry, so the scheme
works everywhere a built-in does: the CLI, sweeps, and — because specs
pickle into spawn workers — parallel certification batches.  Tests
register it *scoped* (register in a fixture, unregister on teardown,
same pattern as ``tests/crashing_scheme.py``) so importing this module
never mutates the global registry under unrelated tests.
"""

from repro.core.fs_controller import FixedServiceController
from repro.dram.commands import OpType, Request, RequestKind
from repro.schemes import SchemeSpec

#: Max extra cycles the foreign backlog can add to a domain-0 release.
LEAK_DELAY_CAP = 4


class LeakyFsController(FixedServiceController):
    """Fixed Service, except domain 0 observes foreign queue depth."""

    def _schedule_release(self, request, cycle):
        if request.domain == 0:
            foreign = sum(
                len(queue) for domain, queue in self._queues.items()
                if domain != 0
            )
            if foreign:
                cycle += min(foreign, LEAK_DELAY_CAP)
        super()._schedule_release(request, cycle)


LEAKY_SPEC = SchemeSpec(
    name="leaky_fs",
    description="fs_rp with a planted cross-domain timing leak "
                "(test fixture)",
    family="fs",
    partitioning="rank",
    sharing="rank",
    fixed_service=True,
    controller="tests.leaky_scheme.LeakyFsController",
)


class LeakyDummyFsController(FixedServiceController):
    """Fixed Service, except a domain's dummy choice reads the other
    domains' queues.

    While any other domain has requests queued, a dummy goes to the bank
    and row of the domain's last demand whenever that is legal.  Its
    ACTIVATE then holds the bank for tRC, so the domain's next demand to
    that bank can miss its slot: the domain's own read releases move
    with the co-runners' load.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_demand = {}

    def _dispatch(self, request, anchor, times):
        if request.kind is RequestKind.DEMAND:
            self._last_demand[request.domain] = request.address
        super()._dispatch(request, anchor, times)

    def _select_dummy(self, domain, spec, times, decide_at):
        address = self._last_demand.get(domain)
        foreign = any(
            queue for other, queue in self._queues.items()
            if other != domain
        )
        if foreign and address is not None and \
                self._hazards[domain].legal(times, address, True):
            return Request(
                op=OpType.READ, address=address, domain=domain,
                kind=RequestKind.DUMMY, arrival=decide_at,
            )
        return super()._select_dummy(domain, spec, times, decide_at)


class FastLeakyDummyFsController(LeakyDummyFsController):
    """The fast engine's variant: trusted issue, like
    :class:`~repro.sim.fastpath.FastFixedServiceController`."""

    trusted_issue = True


LEAKY_DUMMY_SPEC = SchemeSpec(
    name="leaky_dummy_fs",
    description="fs_rp whose dummy choice reads other domains' queues "
                "(test fixture)",
    family="fs",
    partitioning="rank",
    sharing="rank",
    fixed_service=True,
    controller="tests.leaky_scheme.LeakyDummyFsController",
    fast_controller="tests.leaky_scheme.FastLeakyDummyFsController",
)
