"""Cycle-skipping fast-path engine, differentially tested against the
reference simulator.

The Fixed Service controller's whole point is that its schedule is
*fixed and input-independent* (PAPER Sections 3-5): every slot decision
cycle, command cycle, and release cycle is a pure function of the
timetable and the domain's own queue.  Ticking the reference simulator
through every DRAM cycle therefore re-derives, at run time, facts that
were proved offline.  This module exploits that determinism:

* :class:`FastSystem` — an event-horizon driver that advances the
  controller in one stride per *demand-side* event (request arrival or
  earliest pending release) instead of one stride per internal
  controller event, with batched stat accumulation per stride.  FS
  controllers bound the next possible new release in closed form
  (``release_horizon``), so the driver strides over dummy-slot
  decisions too.  An unobserved Fixed Service run needs no global loop
  at all: each domain's decisions read only its own state, so the
  driver runs each core against its own domain's slots and merges
  (:mod:`repro.sim.perdomain`).
* trusted issue — the FS command stream was validated offline: the
  pipeline solver and the reordered-BP geometry search
  (:func:`repro.core.schedule.build_reordered_bp_geometry`) accept only
  candidates that replay cleanly through the JEDEC checker, so the fast
  FS controllers set ``trusted_issue`` and skip the
  per-command JEDEC re-validation and bus-reservation bookkeeping while
  keeping every observable state update bit-identical.  With a command
  log, monitor or telemetry session attached they apply each command
  through :meth:`repro.dram.channel.Channel.issue_trusted`; otherwise
  :meth:`repro.dram.channel.Channel.settle_trusted` folds their
  recorded transactions into the DRAM counters in closed form.  That
  flag is all they add: the memoized timetable, its decide/release
  tables, the slot loop and both issue paths live in :mod:`repro.core`
  and :mod:`repro.dram`.
* :class:`FastFrFcfsController` / :class:`FastTpController` — the
  non-fixed schedulers keep full validation (their schedules are *not*
  precomputed) but cache scheduling candidates between decisions, with
  event-based invalidation.  A candidate carries its command type and
  cycle; like the reference controllers they share that code with,
  they build a :class:`~repro.dram.commands.Command` only for the
  command that issues, and ``pending()`` is a running count.

Equivalence argument (why the fast engine is *observationally
identical*, not approximately so):

1. **Advance-partition invariance.**  Every controller's ``_work(until)``
   processes decisions in time order, gated only on persistent state and
   ``request.arrival`` — never on how the ``[now, until]`` range was
   partitioned into ``advance`` calls.  Hence one big ``advance(h)``
   equals any sequence of smaller advances covering the same range with
   the same interleaved enqueues.
2. **Flat earliest-time queries.**  For every ``earliest_*`` query,
   ``f(t0) = s`` and ``t0 <= t1 <= s`` imply ``f(t1) = s`` (the feasible
   set below ``s`` is empty by minimality).  So deferring a query until
   a later, coarser stride returns the same cycle.
3. **Identical enqueue cycles.**  The fast driver never advances past an
   undelivered arrival, and the core model guarantees post-completion
   emissions arrive no earlier than their release cycle; back-pressured
   deliveries degrade to reference-granularity stepping.  Requests are
   therefore enqueued at exactly the reference cycles.
4. **Per-domain independence.**  A Fixed Service domain's decisions read
   only its own state and the clock, so a per-domain run that takes each
   domain's deliveries, decisions and releases in the stride loop's
   cycle order reproduces it (``tests/test_per_domain_driver.py``).

Any divergence between the two engines is either a fast-path bug or a
timing channel — which is exactly what ``tests/test_differential.py``
locks in (Gong & Kiyavash's deterministic-scheduler analyses make the
same observation from the leakage side: the schedule alone determines
the observable).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Generator, List, Optional, Tuple

from ..controllers.frfcfs import FrFcfsController, _Candidate
from ..controllers.tp import TemporalPartitioningController
from ..core.fs_controller import FixedServiceController
from ..core.fs_reordered import ReorderedBpController
# Re-exported: perfbench/run.py reads the schedule-memo counters here.
from ..core.schedule import template_cache_stats
from ..cpu.core_model import Core
from ..dram.commands import Command, CommandType, Request, RequestKind
from .multichannel import MultiChannelFsController
from .system import System

# Hot-path Enum members as module constants (see repro.dram.commands).
_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE

# ----------------------------------------------------------------------
# Fast Fixed Service controllers (trusted issue).
# ----------------------------------------------------------------------


class FastFixedServiceController(FixedServiceController):
    """FS controller issuing through the unchecked channel path."""

    trusted_issue = True


class FastReorderedBpController(ReorderedBpController):
    """Reordered-BP controller issuing through the unchecked channel
    path."""

    trusted_issue = True


class FastMultiChannelFsController(MultiChannelFsController):
    """Multi-channel composition over trusted-issue FS controllers."""

    SUB_CONTROLLER = FastFixedServiceController


# ----------------------------------------------------------------------
# Fast FR-FCFS (candidate caching).
# ----------------------------------------------------------------------


class FastFrFcfsController(FrFcfsController):
    """FR-FCFS with per-bank candidate caching.

    The reference controller regroups the whole transaction queue and
    recomputes one earliest-issue candidate per bank after *every*
    issued command.  Bank candidates only change when an event touches
    them, so this variant caches them and invalidates exactly the
    candidates an issued command can move:

    * both queues' candidates for the issued command's own bank (its
      bank-state registers changed),
    * any candidate occupying the issued command-bus cycle,
    * after an ACTIVATE: same-rank ACTIVATE candidates inside the
      ``max(tRRD, tFAW)`` window (the only rank-level ACT constraints),
    * after a column: same-rank column candidates inside the
      ``max(tCCD, read_to_write, write_to_read)`` turnaround window and
      any column candidate whose burst falls within ``tBURST + tRTRS``
      of the new data reservation (data-bus alignment),
    * queue membership changes for the candidate's bank,
    * anything else (refresh, power transitions) flushes the whole rank.

    Every kept candidate is provably unmoved: new constraints only
    introduce lower bounds below the listed horizons, and an earliest-
    time query result above all new bounds is unchanged.  A cached
    candidate with ``issue_at < now`` is recomputed (the lower bound
    ``max(now, arrival)`` may bind); otherwise query flatness guarantees
    the cached cycle equals a fresh computation, so the scheduling
    decisions — and the command trace — are bit-identical to the
    reference controller's.

    On top of the per-bank cache sits a per-queue *lazy winner heap*:
    every computed candidate is pushed as ``(sort key, bank key)``, and
    the scan is replaced by popping until the top entry still matches
    the bank's current cached candidate and has not been overtaken by
    the clock.  Entries orphaned by invalidation trigger a recompute of
    *that bank only* when they surface — so an issued command that
    invalidates `k` candidates costs `O(log n)` amortized, not `k`
    recomputations.  Lazy deletion is exact because recomputation is
    *monotone*: invalidation only ever adds timing lower bounds (and an
    issued command only advances its own bank's state), so a bank's new
    sort key is never smaller than the orphaned key still buried in the
    heap — while enqueues, the one event that can *improve* a bank's
    candidate, eagerly recompute and push at enqueue time.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        nch = self.dram.num_channels
        #: (qkind, rank, bank) -> FIFO of queued requests; qkind 0 = read.
        self._bank_q: List[Dict[Tuple[int, int, int], List[Request]]] = [
            {} for _ in range(nch)
        ]
        #: (qkind, rank, bank) -> (precomputed sort key, candidate).
        self._cand: List[Dict[Tuple[int, int, int], Tuple]] = [
            {} for _ in range(nch)
        ]
        #: Per (channel, qkind) lazy min-heaps of (sort key, bank key).
        self._heaps: List[Tuple[list, list]] = [
            ([], []) for _ in range(nch)
        ]
        #: Bank keys whose cached candidate needs a deferred bus-slot
        #: re-alignment (see :meth:`_shift_candidate`); the stale sort
        #: key is a valid heap lower bound because shifting only ever
        #: moves a candidate later.
        self._dirty: List[set] = [set() for _ in range(nch)]
        #: Enqueue order stamps.  The reference scans the queue in list
        #: order and keeps strictly-better candidates, so exact sort-key
        #: ties go to the bank whose *oldest remaining* request sits
        #: earliest in the queue — a dynamic order (removals promote
        #: younger requests to bank heads).  Stamping every queued
        #: request reproduces it exactly: the reference winner is the
        #: lexicographic minimum of (sort_key, head stamp).
        self._fp_seq = 0

    # -- queue maintenance ---------------------------------------------

    def _refresh_bank(self, ch: int, key: Tuple[int, int, int],
                      requests: List[Request]) -> Tuple:
        """Recompute, cache, and heap-push one bank's candidate."""
        request = self._pick_for_bank(
            self.dram.channels[ch], key[1], key[2], requests
        )
        cand = self._next_command(ch, request)
        entry = (
            (cand.issue_at, 0 if cand.is_column else 1,
             cand.arrival, requests[0]._fp_seq),
            cand,
        )
        self._cand[ch][key] = entry
        self._dirty[ch].discard(key)
        heapq.heappush(self._heaps[ch][key[0]], (entry[0], key))
        return entry

    def enqueue(self, request: Request) -> None:
        ch = request.address.channel
        n_reads = len(self._reads[ch])
        n_writes = len(self._writes[ch])
        super().enqueue(request)
        if len(self._reads[ch]) > n_reads:
            kind = 0
        elif len(self._writes[ch]) > n_writes:
            kind = 1
        else:
            return  # forwarded from the write queue; nothing queued
        request._fp_seq = self._fp_seq
        self._fp_seq += 1
        key = (kind, request.address.rank, request.address.bank)
        requests = self._bank_q[ch].setdefault(key, [])
        requests.append(request)
        # Eager refresh: a new request can only *improve* the bank's
        # candidate (earlier row hit, different pick), and lazy heap
        # deletion cannot surface improvements — push the fresh key now.
        self._refresh_bank(ch, key, requests)

    def _issue_candidate(self, ch: int, candidate: _Candidate) -> None:
        request = candidate.request
        was_column = candidate.is_column
        super()._issue_candidate(ch, candidate)
        if was_column:
            key = (
                0 if request.is_read else 1,
                request.address.rank, request.address.bank,
            )
            bank_list = self._bank_q[ch].get(key)
            if bank_list is not None:
                bank_list.remove(request)
                if not bank_list:
                    del self._bank_q[ch][key]

    # -- cache invalidation --------------------------------------------

    def _issue(self, command: Command) -> Optional[int]:
        data_start = super()._issue(command)
        cands = self._cand[command.channel]
        if cands:
            self._invalidate(cands, command, data_start)
        return data_start

    def _invalidate(self, cands, command: Command,
                    data_start: Optional[int]) -> None:
        p = self.params
        cycle = command.cycle
        rank = command.rank
        bank = command.bank
        ctype = command.type
        ch = command.channel
        dead = []
        shifted = []
        if ctype is _ACTIVATE:
            # Exact new rank-level ACT bounds introduced by this command:
            # the pairwise tRRD gap, and — only when the rank now has a
            # full four-activate window — the sliding tFAW bound, which
            # hangs off the *oldest* windowed activate, not this one.
            horizon = cycle + p.tRRD
            act_times = self.dram.channels[ch].ranks[rank]._act_times
            if len(act_times) == 4:
                faw = act_times[0] + p.tFAW
                if faw > horizon:
                    horizon = faw
            for key, (_, cand) in cands.items():
                if key[1] == rank and (
                    key[2] == bank or (
                        cand.type is _ACTIVATE and cand.issue_at < horizon
                    )
                ):
                    dead.append(key)
                elif cand.issue_at == cycle:
                    shifted.append(key)
        elif ctype.is_column:
            # Direction-aware rank turnaround: a same-direction column
            # is re-bounded by tCCD only; the long read/write turnaround
            # applies only to opposite-direction candidates.
            issued_read = ctype.is_read
            same_horizon = cycle + p.tCCD
            flip_horizon = cycle + (
                p.read_to_write if issued_read else p.write_to_read
            )
            margin = p.tBURST + p.tRTRS
            burst = p.tBURST
            for key, (_, cand) in cands.items():
                if key[1] == rank and key[2] == bank:
                    dead.append(key)
                elif cand.is_column:
                    cand_read = cand.type.is_read
                    horizon = (
                        same_horizon if cand_read == issued_read
                        else flip_horizon
                    )
                    if key[1] == rank and cand.issue_at < horizon:
                        dead.append(key)
                    elif cand.issue_at == cycle:
                        shifted.append(key)
                    elif data_start is not None:
                        # Exact data-bus collision window: tRTRS only
                        # separates bursts of *different* ranks, so a
                        # same-rank candidate needs the smaller margin.
                        delta = (
                            cand.issue_at
                            + (p.tCAS if cand_read else p.tCWD)
                            - data_start
                        )
                        limit = burst if key[1] == rank else margin
                        if -limit < delta < limit:
                            shifted.append(key)
                elif cand.issue_at == cycle:
                    shifted.append(key)
        elif ctype is _PRECHARGE:
            for key, (_, cand) in cands.items():
                if key[1] == rank and key[2] == bank:
                    dead.append(key)
                elif cand.issue_at == cycle:
                    shifted.append(key)
        else:
            # Refresh / power transitions touch rank-wide state:
            # conservative whole-rank flush (rare).
            margin = p.tBURST + p.tRTRS
            for key, (_, cand) in cands.items():
                if key[1] == rank or cand.issue_at == cycle:
                    dead.append(key)
                elif data_start is not None and cand.is_column:
                    offset = p.tCAS if cand.type.is_read else p.tCWD
                    if abs(cand.issue_at + offset - data_start) < margin:
                        dead.append(key)
        if dead:
            dirty = self._dirty[ch]
            for key in dead:
                del cands[key]
                dirty.discard(key)
        if shifted:
            self._dirty[ch].update(shifted)

    def _shift_candidate(self, ch: int, key, cands) -> None:
        """Re-align a candidate whose only newly-violated constraints
        are bus slots (the issued command's bus cycle / data burst).

        A full recomputation would restart the earliest-time fixpoint
        from the rank/bank bounds — but those are unchanged and at or
        below the cached cycle, and the feasible set only shrank, so
        resuming the climb *from the cached cycle* reaches exactly the
        minimum a fresh query would.  (If the clock has already passed
        the cached cycle the resumed result may land below ``now``; the
        lookup's staleness rule then forces the full recomputation, so
        this shortcut is still exact.)

        Runs *lazily*: invalidation only marks the bank dirty, and the
        fixpoint resumes when the candidate surfaces at the heap top —
        candidates that die before surfacing never pay for it.  Between
        the marking and the shift no rank/bank bound of this candidate
        can have changed (such a change would have classified it dead),
        so the deferred resume computes the same cycle the eager one
        would have; the caller has popped the heap entry, so the
        (possibly unchanged) key is always re-pushed.
        """
        entry = cands[key]
        cand = entry[1]
        channel = self.dram.channels[ch]
        if cand.is_column:
            t = channel.align_column(cand.issue_at, key[1], cand.type.is_read)
        else:
            t = channel.next_free_cmd_cycle(cand.issue_at)
        if t != cand.issue_at:
            cand.issue_at = t
            old_key = entry[0]
            entry = ((t, old_key[1], old_key[2], old_key[3]), cand)
            cands[key] = entry
        heapq.heappush(self._heaps[ch][key[0]], (entry[0], key))

    # -- candidate selection -------------------------------------------

    def _best_from_queue(self, ch: int, queue: List[Request]):
        if not queue:
            return None
        kind = 0 if queue is self._reads[ch] else 1
        heap = self._heaps[ch][kind]
        cands = self._cand[ch]
        bank_q = self._bank_q[ch]
        dirty = self._dirty[ch]
        now = self.now
        while heap:
            key, bk = heap[0]
            entry = cands.get(bk)
            if entry is not None and entry[0] == key:
                if bk in dirty:
                    # Deferred bus-slot re-alignment: resume the
                    # fixpoint now that the candidate surfaced (its
                    # stale key was a lower bound, so nothing cheaper
                    # is buried below it).
                    heapq.heappop(heap)
                    dirty.discard(bk)
                    self._shift_candidate(ch, bk, cands)
                    continue
                if key[0] >= now:
                    # Live and fresh: by monotonicity every other
                    # bank's current key is at or above this one, and
                    # by query flatness (``issue_at >= now``) a fresh
                    # recomputation would reproduce the cached
                    # candidate verbatim.
                    return entry[1]
            heapq.heappop(heap)
            if entry is not None and entry[0] != key:
                continue  # superseded: the live key has its own entry
            requests = bank_q.get(bk)
            if not requests:
                if entry is not None:
                    del cands[bk]
                continue
            # Invalidated (or clock-stale) bank surfacing at the top:
            # recompute just this bank and re-insert.
            self._refresh_bank(ch, bk, requests)
        return None


# ----------------------------------------------------------------------
# Fast Temporal Partitioning (per-turn blocked-horizon memo).
# ----------------------------------------------------------------------


class FastTpController(TemporalPartitioningController):
    """TP with a per-turn *blocked horizon* memo.

    The reference controller rescans the turn owner's queue (with one
    channel query per bank) on every ``advance`` call, even when nothing
    can possibly issue before the advance horizon.  This variant
    remembers, per (turn, domain, queue version), the earliest cycle at
    which anything could newly become issuable — the minimum over the
    issue times that exceeded the last horizon and the arrivals of not-
    yet-visible requests, which the shared scan leaves in
    ``_unblock_at`` — and skips the rescan entirely below it.
    Decisions are bit-identical: within the memoized window the scanned
    request set and every (flat) earliest-time query are provably
    unchanged.

    The memo also powers :meth:`next_event`: where the reference reports
    ``now + 1`` whenever the turn owner has queued work (forcing the
    driver to tick), this controller reports the blocked horizon itself.
    Striding straight to the horizon is exact: no command can issue
    before it (so no new release can land inside the stride — a column
    issued at ``t`` completes strictly after ``t``), and every
    earliest-time query is monotone, so other domains' later activity
    can only move the horizon further out, never earlier.
    :meth:`next_turn_start` is the closed form of the reference's
    round-robin probe loop, and :meth:`pending` is O(1) via a running
    counter — both were top-of-profile under the event-horizon driver.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._qver: Dict[int, int] = {
            d: 0 for d in range(self.num_domains)
        }
        self._turn_memo: Optional[Tuple[int, int, int, float]] = None
        self._pending_total = 0

    def enqueue(self, request: Request) -> None:
        super().enqueue(request)
        self._qver[request.domain] += 1
        self._pending_total += 1

    def pending(self, domain: Optional[int] = None) -> int:
        if domain is not None:
            return len(self._queues[domain])
        return self._pending_total

    def next_turn_start(self, domain: int, after: int) -> int:
        """Closed form of the reference probe loop (same values)."""
        length = self.turn_length
        index = after // length
        probe = index + ((domain - index) % self.num_domains)
        if probe == index:
            start = probe * length
            if start + length - self.dead_time > after:
                return start if start > after else after
            probe += self.num_domains
        return probe * length

    def next_event(self) -> Optional[int]:
        now = self.now
        floor = now + 1
        length = self.turn_length
        index = now // length
        num = self.num_domains
        dead_time = self.dead_time
        memo = self._turn_memo
        # Only one (turn, domain) pair can match the memo; resolve it
        # once instead of re-comparing the tuple per domain.
        memo_domain = memo[1] if memo is not None and memo[0] == index \
            else -1
        best = -1
        for domain, queue in self._queues.items():
            if not queue:
                continue
            # Inlined :meth:`next_turn_start` (same values).
            probe = index + ((domain - index) % num)
            if probe == index:
                start = probe * length
                if start + length - dead_time > now:
                    t = start if start > now else now
                else:
                    t = (probe + num) * length
            else:
                t = probe * length
            cand = t if t > floor else floor
            if domain == memo_domain and memo[2] == self._qver[domain]:
                # The memoized horizon: nothing of this domain's can
                # newly issue before it (or, when it is infinite,
                # before the domain's next own turn).
                horizon = min(memo[3], (index + num) * length)
                if horizon > cand:
                    cand = int(horizon)
            if best < 0 or cand < best:
                best = cand
        if self._release_heap:
            release = self._release_heap[0][0]
            if release < floor:
                release = floor
            if best < 0 or release < best:
                best = release
        return best if best >= 0 else None

    def _serve_turn(self, domain: int, cursor: int, deadline: int,
                    until: int) -> None:
        queue = self._queues[domain]
        if not queue:
            return
        turn_index = cursor // self.turn_length
        memo = self._turn_memo
        if memo is not None and memo[0] == turn_index and \
                memo[1] == domain and memo[2] == self._qver[domain] and \
                until < memo[3]:
            return  # provably nothing newly issuable before the memo
        before = len(queue)
        # The reference driver polls every cycle while the turn owner
        # has queued work, so at the poll that finally issues something
        # the scan's lower bound is the *previous cycle* — not the turn
        # start this coarser-striding engine entered with.  Serving with
        # ``max(cursor, until - 1)`` reproduces that bound exactly: the
        # intermediate polls are no-ops (nothing issuable below the
        # memo horizon, and earliest-time queries are monotone in their
        # lower bound), and when the queue only just became nonempty the
        # delivered request's arrival (== until) dominates either way.
        if until - 1 > cursor:
            cursor = until - 1
        super()._serve_turn(domain, cursor, deadline, until)
        self._pending_total -= before - len(queue)
        if queue:
            self._turn_memo = (
                turn_index, domain, self._qver[domain], self._unblock_at
            )


# ----------------------------------------------------------------------
# The fast driver.
# ----------------------------------------------------------------------


class FastSystem(System):
    """Event-horizon driver: one ``advance`` stride per demand event.

    The reference loop steps the clock through every controller-internal
    event (slot decisions, staged commands, releases).  By advance-
    partition invariance those intermediate advances are redundant: the
    only cycles at which the *driver* must act are request deliveries
    (the controller may not see future-dated enqueues) and pending
    releases (a completion may unblock a core whose next emission bounds
    the following stride).  Statistics accumulate in the same batched
    ``_work`` calls, so every counter matches the reference bit-for-bit.

    An unobserved ``FixedServiceController`` run (the closed form, and
    no plan arming ``borrow_foreign_slot``) skips the stride loop:
    :meth:`run` (:attr:`per_domain`) runs each core against its own
    domain's slots (:mod:`repro.sim.perdomain`).  Reordered BP,
    multi-channel FS, observed runs and the dynamic schedulers keep the
    stride loop.

    The stride loop is this engine's ``_loop``, a generator like the
    reference loop: :meth:`steps` pauses it at each of the victim's
    read releases, at the same releases and in the same state as the
    reference loop, and ``run`` drains it.  A run with no victim never
    pauses, so its strides cost what they cost in a plain loop.
    Stepped runs are always lockstep: the per-domain driver has no one
    cycle at which every domain stands.
    """

    engine_name = "fast"
    per_domain = True

    def _loop(self, max_cycles: int, victim: Optional[int],
              deadline: Optional[float] = None,
              wall_budget_s: Optional[float] = None
              ) -> Generator[int, None, int]:
        """The stride loop (see :meth:`System.steps`); yields core
        ``victim``'s release cycles and returns the final clock."""
        victim_core = None if victim is None else self.cores[victim]
        controller = self.controller
        clock = 0
        # The stride loop runs once per demand event, so its constant
        # factor is the engine's overhead floor: hoist every bound
        # method, track core completion incrementally (``done`` can
        # only flip when that core is pumped), and compute each
        # stride's jump target with single passes instead of building
        # candidate lists.
        cores = self.cores
        staged = self._staged
        pump = self._pump
        core_index = self._core_index
        for i in range(len(cores)):
            pump(i)
        not_done = {i for i, core in enumerate(cores) if not core.done}
        # The loop ends once the clock reaches ``stop``: ``max_cycles``,
        # lowered to the victim's finish when its ``done`` flips, so the
        # victim rule costs no comparison of its own per stride.
        stop = max_cycles
        if victim is not None and victim not in not_done:
            stop = min(stop, cores[victim].finish_mem_cycle())
        blocked = False
        horizon_fn = getattr(controller, "release_horizon", None)
        drain_fn = controller.drain_deadline
        next_event_fn = controller.next_event
        pending_fn = controller.pending
        can_accept = controller.can_accept
        enqueue = controller.enqueue
        advance = controller.advance
        demand = RequestKind.DEMAND
        monotonic = time.monotonic
        while True:
            if deadline is not None and monotonic() > deadline:
                raise self._timed_out(wall_budget_s, clock)
            if not not_done:
                break
            if clock >= stop:
                break
            tmin = None
            for r in staged:
                if r is not None and (tmin is None or r.arrival < tmin):
                    tmin = r.arrival
            drain = drain_fn()
            if drain is not None and (tmin is None or drain < tmin):
                tmin = drain
            if blocked or pending_fn() > 0:
                # Undispatched demand (or a back-pressured delivery) can
                # create a *new* release at any controller event, so the
                # stride degrades to reference granularity until the
                # queues drain.  With ``pending() == 0`` no dispatch —
                # hence no new release — can occur mid-stride, and the
                # jump to the next arrival/release is exact.  Schedulers
                # with a precomputed timetable can bound the next
                # possible release directly (``release_horizon``), which
                # lets the driver stride over dummy-slot decisions.
                horizon = (
                    horizon_fn() if horizon_fn is not None
                    and not blocked else None
                )
                if horizon is not None:
                    if tmin is None or horizon < tmin:
                        tmin = horizon
                else:
                    next_event = next_event_fn()
                    if next_event is not None and (
                        tmin is None or next_event < tmin
                    ):
                        tmin = next_event
            if tmin is None:
                if next_event_fn() is None:
                    break  # mirror the reference deadlock guard
                # No arrivals and no pending releases can ever occur
                # again: the reference loop would spin through internal
                # events (dummy slots) until max_cycles.  Jump there.
                tmin = max_cycles
            clock = tmin if tmin > clock else clock + 1
            if clock > max_cycles:
                clock = max_cycles
            delivered = True
            while delivered:
                delivered = False
                for i, request in enumerate(staged):
                    if request is None or request.arrival > clock:
                        continue
                    if not can_accept(request.domain):
                        continue  # back-pressure: core stalls here
                    enqueue(request)
                    staged[i] = None
                    pump(i)
                    if cores[i].done:
                        not_done.discard(i)
                        if i == victim:
                            stop = min(stop, cores[i].finish_mem_cycle())
                    delivered = True
            blocked = False
            for r in staged:
                if r is not None and r.arrival <= clock:
                    blocked = True
                    break
            for request in advance(clock):
                if request.kind is not demand:
                    continue
                core = request.core_tag
                if isinstance(core, Core):
                    core.on_complete(request, request.release)
                    if core is victim_core:
                        yield request.release
                    i = core_index[id(core)]
                    pump(i)
                    if cores[i].done:
                        not_done.discard(i)
                        if i == victim:
                            stop = min(stop, cores[i].finish_mem_cycle())
        return clock
