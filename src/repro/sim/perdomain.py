"""Per-domain Fixed Service runs: an unobserved FS system as N closed
loops, core d against domain d's slots.

A Fixed Service domain's slot decisions read only its own state (its
queue, hazard tracker, dummy stream, prefetcher and fault predicates)
and the clock, and the outputs merge in any order: the
``ControllerStats`` fields are sums, ``service_trace`` is kept per
domain, the fault log is kept sorted and ``settle_trusted`` folds
ACTIVE residency as a union in start order.  So the fast driver
(:class:`~repro.sim.fastpath.FastSystem`) need not interleave the
domains in one global stride loop: :func:`run` takes each domain's
events on their own, through the controller's own ``_decide``,
``can_accept`` and ``enqueue``, and keeps the stride loop's cycle
rules exactly:

* within a cycle, deliveries come first, then decisions, then
  releases; the stride loop's first stop is cycle 1, so a slot decided
  at cycle 0 sees cycle 1's deliveries;
* a request emitted while a release at cycle ``c`` is processed is
  offered at ``max(arrival, c + 1)``;
* a request ``can_accept`` refuses is offered again at ``T + 1``, ``T``
  the first own decision after which the queue has room (the stride
  loop ticks one cycle at a time meanwhile);
* the run ends at the latest cycle at which a core became done (or at
  ``max_cycles``); every domain, done or not, takes its slots and
  offers a still-staged request up to that cycle.

The domains advance in lockstep epochs of :data:`EPOCH_ROUNDS` rounds
of the timetable.  At an epoch boundary ``t`` every slot decided at or
before ``t`` is taken, and no later slot puts a command at or before
``t``, so the ledger folds there
(:meth:`~repro.core.fs_controller.FsControllerBase.settle_until`) and
holds about one epoch.

``System.run`` takes this driver on the fast engine whenever
:func:`ready` holds, and nothing else does.  Certification steps the
lockstep loop (``System.steps``) instead: here the attacker's view is
computed from its own domain alone, so a two-world certificate would
hold by construction.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Tuple

from ..core.fs_controller import FixedServiceController
from ..dram.commands import Request, RequestKind

#: Timetable rounds per lockstep epoch.
EPOCH_ROUNDS = 8

_NEVER = float("inf")


class _DomainRun:
    """One domain's place in a per-domain run: its cursor over its own
    slots, when its core's staged request is next offered, and its own
    undelivered releases."""

    __slots__ = (
        "index", "positions", "k", "offset", "g0", "attempt", "waiting",
        "heap", "done_at",
    )

    def __init__(self, index: int, positions: List[int],
                 attempt: float, done: bool) -> None:
        self.index = index
        #: The domain's slot positions in the timetable, and the cursor
        #: at its next own slot: position ``positions[k]`` of the round
        #: that starts at cycle ``offset`` and holds decisions from
        #: ``g0`` on.
        self.positions = positions
        self.k = 0
        self.offset = 0
        self.g0 = 0
        #: Cycle at which the staged request is next offered (``_NEVER``
        #: with nothing staged or while ``waiting`` for queue space).
        self.attempt = attempt
        self.waiting = False
        self.heap: List[Tuple[int, int, Request]] = []
        #: Cycle at which the core became done, once it has.
        self.done_at: Optional[int] = 0 if done else None


def ready(system) -> bool:
    """An unobserved Fixed Service run with core ``d`` on domain ``d``.
    A plan arming ``borrow_foreign_slot`` clears ``trusted_issue``, so it
    never settles in closed form."""
    controller = system.controller
    return (
        isinstance(controller, FixedServiceController)
        and controller.settles_in_closed_form()
        and [core.domain for core in system.cores]
        == list(range(controller.num_domains))
    )


def run(system, max_cycles: int, deadline: Optional[float],
        wall_budget_s: Optional[float]) -> int:
    """Run each domain of ``system`` against its own slots, epoch by
    epoch; returns the final clock."""
    controller = system.controller
    controller._choose_path()
    staged = system._staged
    positions = controller._domain_slot_pos
    domains = []
    for i, core in enumerate(system.cores):
        system._pump(i)
        request = staged[i]
        domains.append(_DomainRun(
            i, positions[i],
            _NEVER if request is None else max(request.arrival, 1),
            core.done,
        ))
    running = [dom for dom in domains if dom.done_at is None]
    epoch = EPOCH_ROUNDS * controller._period
    reached = 0  # every domain has taken every event up to here
    end = None if running else 0
    while end is None:
        if deadline is not None and time.monotonic() > deadline:
            raise system._timed_out(wall_budget_s, reached)
        if reached >= max_cycles:
            end = max_cycles
            break
        until = min(reached + epoch, max_cycles)
        for dom in running:
            _advance(system, dom, until, stop_when_done=True)
        still = [dom for dom in running if dom.done_at is None]
        if not still:
            # The last core finished inside this epoch: the run ends at
            # the latest finish, which no domain has passed.
            end = max(dom.done_at for dom in domains)
            break
        # A core still running at ``until`` finishes after it, so the
        # finished domains take their slots up to it as well.
        for dom in domains:
            if dom.done_at is not None:
                _advance(system, dom, until)
        controller.settle_until(until)
        controller.now = reached = until
        running = still
    if end > 0:
        for dom in domains:
            _advance(system, dom, end)
        controller.settle_until(end)
    if deadline is not None and time.monotonic() > deadline:
        raise system._timed_out(wall_budget_s, end)
    # Leave the controller as the stride loop would (``next_event`` and
    # ``busy`` read these): at the end cycle, its cursor at the first
    # slot not taken, and every undelivered release in its heap.
    nslots = len(controller._decide_base)
    g = min(dom.g0 + dom.positions[dom.k] for dom in domains)
    controller._next_decision = g
    controller._next_pos = g % nslots
    controller._next_offset = g // nslots * controller._period
    controller._release_heap = [
        entry for dom in domains for entry in dom.heap
    ]
    heapq.heapify(controller._release_heap)
    controller.now = end
    return end


def _advance(system, dom: _DomainRun, until: int,
             stop_when_done: bool = False) -> None:
    """Take every event of one domain at or before ``until``:
    deliveries of its core's requests, its own slot decisions and its
    releases.  With ``stop_when_done``, stop after the cycle in which
    the core becomes done."""
    controller = system.controller
    # The domain's releases go to its own heap: the controller schedules
    # them on whichever heap it holds.
    heap = controller._release_heap = dom.heap
    decide = controller._decide
    base = controller._decide_base
    period = controller._period
    nslots = len(base)
    can_accept = controller.can_accept
    enqueue = controller.enqueue
    record_release = controller.stats.record_release
    pump = system._pump
    staged = system._staged
    i = dom.index
    core = system.cores[i]
    positions = dom.positions
    last = len(positions) - 1
    k, offset, g0 = dom.k, dom.offset, dom.g0
    pos = positions[k]
    decide_at = offset + base[pos]
    attempt = dom.attempt
    waiting = dom.waiting
    demand = RequestKind.DEMAND
    while True:
        t = decide_at if decide_at < attempt else attempt
        if heap and heap[0][0] < t:
            t = heap[0][0]
        if t < 1:
            # The stride loop's first stop is cycle 1, so a slot decided
            # at cycle 0 sees cycle 1's deliveries.
            t = 1
        if t > until:
            break
        moved = False
        while attempt <= t:
            if not can_accept(i):
                waiting = True
                attempt = _NEVER
                break
            enqueue(staged[i])
            staged[i] = None
            pump(i)
            moved = True
            request = staged[i]
            attempt = _NEVER if request is None else request.arrival
        while decide_at <= t:
            decide(g0 + pos, pos, offset)
            if k == last:
                k = 0
                offset += period
                g0 += nslots
            else:
                k += 1
            pos = positions[k]
            decide_at = offset + base[pos]
            if waiting and can_accept(i):
                waiting = False
                attempt = t + 1
        while heap and heap[0][0] <= t:
            request = heapq.heappop(heap)[2]
            record_release(request)
            if request.kind is not demand or request.core_tag is not core:
                continue
            core.on_complete(request, request.release)
            moved = True
            if staged[i] is None:
                pump(i)
                request = staged[i]
                if request is not None:
                    attempt = request.arrival \
                        if request.arrival > t else t + 1
        if moved and stop_when_done and core.done:
            dom.done_at = t
            break
    dom.k, dom.offset, dom.g0 = k, offset, g0
    dom.attempt = attempt
    dom.waiting = waiting
