"""The deterministic execution substrate.

One fan-out / reuse / merge recipe under every long-running batch
in the repository — parallel sweep grids (:class:`~repro.sim.sweep.Sweep`),
certification batches (:class:`~repro.certify.harness.CertificationRun`),
and the benchmark suite (:mod:`repro.bench`).  The scheduler
side-channel literature is blunt about why this layer exists: the
experiment harness — trial fan-out, pairing, aggregation — is where
subtle nondeterminism corrupts leakage estimates, so the repository has
exactly one such harness and proves its properties once.

Five layers, one contract:

* :mod:`repro.exec.pool` — spawn-context process-pool lifecycle with
  parent import paths mirrored into workers, and shared ``workers``
  validation;
* :mod:`repro.exec.jobs` — picklable :class:`JobSpec`/:class:`JobResult`
  with a reserved :data:`SPANS_KEY` side channel for shipped span
  records and uniform in-process/cross-process failure capture;
* :mod:`repro.exec.keys` — the identity of a finished job: the
  canonical SHA-256 of its worker and payload, the one rule by which
  any result is reused;
* :mod:`repro.exec.checkpoint` — :class:`CheckpointStore`, one batch's
  finished results in one atomic JSON file, keyed by that identity
  (an explicit corrupt-vs-incompatible distinction raises
  :class:`~repro.errors.ExecError` for unparseable files);
* :mod:`repro.exec.runner` — serial and parallel drivers with
  submission-order merging, per-job failure isolation, wall-clock
  budgets, span adoption, and one duck-typed ``store=`` hook
  (``lookup``/``record``) through which a checkpoint or
  :mod:`repro.store` substitutes finished results without perturbing
  merge order.

The contract: a ``workers=N`` batch produces byte-identical
checkpoints, artifacts, and (``wall_*``-scrubbed) span traces to a
serial run, and a killed batch resumes from its checkpoint — replaying
finished jobs as store hits — to the same bytes an uninterrupted run
writes.

Layering: this package imports nothing from :mod:`repro.sim`,
:mod:`repro.certify`, :mod:`repro.bench`, or :mod:`repro.store` —
consumers (and the result store) adapt *onto* the substrate, never the
other way around (CI greps the DAG).
"""

from .checkpoint import CheckpointStore
from .jobs import (
    SPANS_KEY,
    JobResult,
    JobSpec,
    failure_result,
    result_from_wire,
    run_job,
)
from .pool import validate_workers, worker_pool
from .runner import adopt_spans, run_jobs

__all__ = [
    "SPANS_KEY",
    "CheckpointStore",
    "JobResult",
    "JobSpec",
    "adopt_spans",
    "failure_result",
    "result_from_wire",
    "run_job",
    "run_jobs",
    "validate_workers",
    "worker_pool",
]
