"""Serial and parallel job drivers with deterministic merging.

:func:`run_jobs` is the one fan-out loop in the repository.  Its
contract — the property every consumer's byte-identity test pins — is:

* **submission-order merging** — results are merged strictly in the
  order jobs were given, regardless of completion order, so a
  ``workers=N`` batch produces byte-identical checkpoints, artifacts,
  and (scrubbed) span traces to a serial one;
* **per-job failure isolation** — a job that raises, or whose worker
  dies hard and breaks the pool, is merged as a failed
  :class:`~repro.exec.jobs.JobResult` at its own position; completed
  jobs keep being recorded, so a crashed batch resumes cleanly;
* **identical code path** — ``workers=1`` runs the very same
  :func:`~repro.exec.jobs.run_job` shim inline that a worker process
  runs, so serial and parallel execution cannot drift apart;
* **lazy serial / eager parallel auxiliaries** — an auxiliary job (a
  sweep's baseline run) is submitted eagerly in parallel mode (it
  overlaps with primaries) but resolved lazily in serial mode (it runs
  only when a merge first asks for it, preserving the historical serial
  execution order).  Both modes memoize per call, so each auxiliary
  runs at most once.
* **transparent result reuse** — an optional ``store`` (duck-typed:
  ``lookup(spec) -> Optional[raw]``, ``record(spec, raw) -> bool``,
  e.g. a :class:`~repro.exec.CheckpointStore` or a
  :class:`repro.store.ResultStore`) is consulted before a job executes
  and handed every fresh outcome.  A hit substitutes the recorded raw
  wire dict at exactly the point the computed one would have appeared,
  so merge order, aux semantics, and every artifact stay byte-identical
  between cold, warm, resumed, serial, and parallel runs.  This is the
  only way a finished result is reused: resuming a killed batch is a
  rerun whose finished jobs hit its checkpoint.  The substrate never
  imports the store package — only this two-method protocol — keeping
  the layering DAG acyclic.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .jobs import JobResult, JobSpec, failure_result, result_from_wire, run_job
from .pool import validate_workers, worker_pool

#: Merge callback: ``(spec, result, resolve_aux)`` where ``resolve_aux``
#: maps an auxiliary key (from ``spec.requires``) to its
#: :class:`~repro.exec.jobs.JobResult`.
MergeFn = Callable[[JobSpec, JobResult, Callable[[Any], JobResult]], None]


def adopt_spans(tracer, track: str, category: str, records) -> None:
    """Fold one job's shipped span records into a parent tracer.

    Opens a covering span on ``track``, adopts the records beneath it,
    and closes it — called once per merged job, in submission order, so
    the parent trace's record sequence (and logical clock) is identical
    at any worker count.
    """
    seq = tracer.begin(track, category)
    tracer.adopt(records, track=track)
    tracer.end(seq)


def _out_of_budget(start: float, budget_s: Optional[float]) -> bool:
    return (
        budget_s is not None
        and time.monotonic() - start > budget_s
    )


def _spec_failure(spec: JobSpec) -> JobResult:
    exc = spec.failure
    return failure_result(
        spec.key, type(exc).__name__, str(exc), exception=exc
    )


def _broken_result(key: Any, exc: Optional[BaseException]) -> JobResult:
    reason = str(exc) if exc is not None else (
        "worker pool broke before this job was submitted"
    )
    return failure_result(
        key,
        type(exc).__name__ if exc is not None else "BrokenProcessPool",
        reason,
    )


class _CachedRaw:
    """Submission-phase marker: this job's raw result came from the store.

    Sits in the ``planned`` list where a future otherwise would, so the
    merge walk converts it at exactly the same position — the property
    that keeps warm-run artifacts byte-identical to cold ones.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: dict) -> None:
        self.raw = raw


def _settled(spec: JobSpec, future, store) -> JobResult:
    """A worker future's outcome; pool breakage becomes a failure
    result (isolated per job) instead of aborting the batch.  Fresh
    successes are written back to ``store`` *before* wire conversion
    (``result_from_wire`` pops shipped spans out of the value dict, so
    the cache must see the intact raw first)."""
    try:
        raw = future.result()
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover
        raise
    except BaseException as exc:
        # BrokenProcessPool and friends: the worker died hard
        # (os._exit, segfault, OOM-kill).  Every not-yet-merged job
        # inherits the failure; completed jobs stay recorded, so the
        # batch resumes cleanly.
        return failure_result(
            spec.key, type(exc).__name__,
            str(exc) or "worker process died",
        )
    if store is not None:
        store.record(spec, raw)
    return result_from_wire(spec.key, raw)


def run_jobs(
    jobs: Sequence[JobSpec],
    merge: MergeFn,
    aux: Optional[Mapping[Any, JobSpec]] = None,
    workers: int = 1,
    budget_s: Optional[float] = None,
    on_budget_skip: Optional[Callable[[JobSpec], None]] = None,
    store=None,
) -> None:
    """Run ``jobs`` and merge every outcome in submission order.

    ``merge(spec, result, resolve_aux)`` is invoked exactly once per
    job run within the budget, in the order of ``jobs``;
    ``resolve_aux`` resolves a key from ``spec.requires`` against the
    ``aux`` table (memoized — each auxiliary executes at most once per
    call).  Past ``budget_s`` wall-clock seconds, remaining jobs go to
    ``on_budget_skip`` instead of running.  ``workers=1`` executes
    everything in-process; ``workers>1`` fans out over
    :func:`~repro.exec.pool.worker_pool`.

    ``store`` (optional, duck-typed — see the module docstring) is
    consulted per job before execution and handed each fresh outcome;
    a hit short-circuits execution but changes nothing about merge
    order or the results any consumer observes.
    """
    validate_workers(workers)
    aux = aux or {}
    if workers <= 1:
        _run_serial(jobs, merge, aux, budget_s, on_budget_skip, store)
    else:
        _run_parallel(
            jobs, merge, aux, workers, budget_s, on_budget_skip, store
        )


def _run_serial(jobs, merge, aux, budget_s, on_budget_skip, store):
    start = time.monotonic()
    cache: Dict[Any, JobResult] = {}

    def execute(spec: JobSpec) -> JobResult:
        raw = store.lookup(spec) if store is not None else None
        if raw is None:
            raw = run_job(spec, _local=True)
            if store is not None:
                store.record(spec, raw)
        return result_from_wire(spec.key, raw)

    def resolve(key: Any) -> JobResult:
        got = cache.get(key)
        if got is None:
            got = execute(aux[key])
            cache[key] = got
        return got

    for spec in jobs:
        if _out_of_budget(start, budget_s):
            if on_budget_skip is not None:
                on_budget_skip(spec)
            continue
        if spec.failure is not None:
            result = _spec_failure(spec)
        else:
            result = execute(spec)
        merge(spec, result, resolve)


def _run_parallel(
    jobs, merge, aux, workers, budget_s, on_budget_skip, store
):
    start = time.monotonic()
    #: (spec, handle) in submission order; ``handle`` is a future, a
    #: :class:`_CachedRaw` for store hits, or ``None`` for pre-resolved
    #: failures and jobs never submitted because the pool broke first.
    planned: List[Tuple[JobSpec, Optional[object]]] = []
    aux_futures: Dict[Any, object] = {}
    aux_raw: Dict[Any, dict] = {}
    broken: Optional[BaseException] = None
    pool = worker_pool(workers)
    try:
        # -- submission (deterministic order) ---------------------------
        for spec in jobs:
            if _out_of_budget(start, budget_s):
                if on_budget_skip is not None:
                    on_budget_skip(spec)
                continue
            if spec.failure is not None:
                planned.append((spec, None))
                continue
            handle = None
            if broken is None:
                try:
                    # Auxiliaries first — even when this job itself hits
                    # the store, its merge may still resolve the aux.
                    for akey in spec.requires:
                        if akey in aux_futures or akey in aux_raw:
                            continue
                        araw = (
                            store.lookup(aux[akey])
                            if store is not None else None
                        )
                        if araw is not None:
                            aux_raw[akey] = araw
                        else:
                            aux_futures[akey] = pool.submit(
                                run_job, aux[akey]
                            )
                    raw = (
                        store.lookup(spec)
                        if store is not None else None
                    )
                    if raw is not None:
                        handle = _CachedRaw(raw)
                    else:
                        handle = pool.submit(run_job, spec)
                except (KeyboardInterrupt, SystemExit):  # pragma: no cover
                    raise
                except BaseException as exc:  # pool already broken
                    broken = exc
                    handle = None
            planned.append((spec, handle))

        # -- merge (same deterministic order) ---------------------------
        aux_cache: Dict[Any, JobResult] = {}

        def resolve(key: Any) -> JobResult:
            got = aux_cache.get(key)
            if got is None:
                if key in aux_raw:
                    got = result_from_wire(key, aux_raw[key])
                else:
                    future = aux_futures.get(key)
                    if future is None:
                        got = _broken_result(key, broken)
                    else:
                        got = _settled(aux[key], future, store)
                aux_cache[key] = got
            return got

        for spec, handle in planned:
            if spec.failure is not None:
                result = _spec_failure(spec)
            elif isinstance(handle, _CachedRaw):
                result = result_from_wire(spec.key, handle.raw)
            elif handle is None:
                result = _broken_result(spec.key, broken)
            else:
                result = _settled(spec, handle, store)
            merge(spec, result, resolve)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


__all__ = ["MergeFn", "adopt_spans", "run_jobs"]
