"""One batch's finished job results, kept in one atomic JSON file.

A checkpoint is a result store local to a batch: it answers the
``lookup``/``record`` hook of :func:`~repro.exec.run_jobs` with the one
reuse rule :mod:`repro.store` applies across sessions — same worker,
same payload (:func:`~repro.exec.keys.content_key`).  A resumed batch
therefore replays its finished jobs exactly where a store hit would
have been merged, and a checkpoint from a batch with other inputs
simply misses.  The file holds::

    {"version": 2,
     "results": {<content key>: {"job": <str(job key)>,
                                 "value": <the job's return dict>}}}

* **atomic writes** — each save lands in a ``tempfile.mkstemp`` file in
  the target directory and is published with ``os.replace``, so a kill
  mid-dump can never corrupt the file: readers see the previous complete
  checkpoint or the new one, nothing in between.  Keys are sorted, so
  the order in which jobs finish cannot move a byte;
* **what is kept** — only successful results, without the
  :data:`~repro.exec.jobs.SPANS_KEY` side channel and without any
  entry that is not JSON (a sweep cell's live metrics registry).  A
  failed job runs again on resume;
* **schema versioning** — a file of any other ``version`` holds nothing
  this build can misread, so the batch silently starts fresh;
* **corrupt is not incompatible** — a file that exists but cannot be
  *parsed* (truncated write outside this store, disk corruption,
  hand-editing) raises :class:`~repro.errors.ExecError` naming the
  path.  Hours of completed work may be behind that file; silently
  re-running everything is the one repair the substrate refuses to make
  on its own.  Pass ``fresh=True`` (the CLI's ``--fresh``) to discard
  it deliberately.

With a ``backing`` store (the CLI's ``--store``), a checkpoint miss
falls through to it, and both hits and fresh results are recorded in
the checkpoint, so a warm checkpoint holds the same bytes as a cold one.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from ..errors import ExecError
from .jobs import SPANS_KEY
from .keys import UncacheableValue, content_key

#: Checkpoint file schema version (bump on incompatible change).
CHECKPOINT_VERSION = 2


def _plain(value: Dict[str, object]) -> Dict[str, object]:
    """A job's return dict as the checkpoint keeps it: without its
    :data:`SPANS_KEY` entry and without every entry that is not JSON."""
    out = {}
    for name, item in value.items():
        if name == SPANS_KEY:
            continue
        try:
            json.dumps(item)
        except (TypeError, ValueError):
            continue
        out[name] = item
    return out


class CheckpointStore:
    """The finished job results of one batch, persisted to ``path``.

    ``path=None`` keeps nothing: every lookup goes to ``backing`` (when
    given) and every record is passed on to it.
    """

    def __init__(
        self,
        path: Optional[str],
        fresh: bool = False,
        backing=None,
    ) -> None:
        #: Checkpoint file path; ``None`` disables persistence.
        self.path = path
        #: When True, :meth:`load` ignores any existing file (the CLI's
        #: ``--fresh`` escape hatch for deliberately discarding a
        #: corrupt or stale checkpoint).
        self.fresh = fresh
        #: Optional duck-typed store consulted on a miss and written
        #: back on every record (normally a
        #: :class:`repro.store.ResultStore`).
        self.backing = backing
        #: content key -> ``{"job": str, "value": ...}``.
        self.results: Dict[str, Dict[str, object]] = {}

    def load(self) -> None:
        """Read the file into :attr:`results`, or start fresh.

        A fresh start (no file yet, ``fresh`` requested, another
        version or shape) writes an empty checkpoint at once, so a
        batch that names a checkpoint always leaves one.  A file that
        cannot be parsed raises :class:`~repro.errors.ExecError`
        naming the path — never a silent fresh start.
        """
        self.results = {}
        if self.path is None:
            return
        if not self.fresh and os.path.exists(self.path):
            try:
                with open(self.path) as handle:
                    data = json.load(handle)
            except ValueError as exc:
                raise ExecError(
                    f"checkpoint {self.path!r} exists but cannot be "
                    f"parsed ({exc}); it may be truncated or corrupt — "
                    f"inspect it, or pass --fresh (fresh=True) to "
                    f"discard it and start over"
                ) from exc
            except OSError as exc:
                raise ExecError(
                    f"checkpoint {self.path!r} cannot be read: {exc}"
                ) from exc
            if (
                isinstance(data, dict)
                and data.get("version") == CHECKPOINT_VERSION
                and isinstance(data.get("results"), dict)
            ):
                self.results = data["results"]
                return
        self.save()

    def save(self) -> None:
        """Atomically write :attr:`results` (a kill mid-dump never
        corrupts the file)."""
        if self.path is None:
            return
        data = {"version": CHECKPOINT_VERSION, "results": self.results}
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(data, handle, indent=1, sort_keys=True)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - already replaced
                pass
            raise

    # -- the run_jobs hook ----------------------------------------------

    def lookup(self, spec) -> Optional[dict]:
        """The raw wire dict of a finished job, or ``None``.

        A checkpoint hit is a copy (:func:`~repro.exec.result_from_wire`
        pops keys off the value it is given); a miss falls through to
        :attr:`backing`, whose hit is recorded here too.
        """
        key = self._key(spec)
        entry = self.results.get(key) if key is not None else None
        if entry is not None:
            return {"ok": True, "value": json.loads(json.dumps(
                entry["value"]
            ))}
        if self.backing is None:
            return None
        raw = self.backing.lookup(spec)
        if raw is not None:
            self._keep(spec, key, raw)
        return raw

    def record(self, spec, raw) -> bool:
        """Keep a freshly computed result (and pass it to
        :attr:`backing`); returns True when the checkpoint kept it."""
        if self.backing is not None:
            self.backing.record(spec, raw)
        return self._keep(spec, self._key(spec), raw)

    def _key(self, spec) -> Optional[str]:
        """The job's content key, or ``None`` when nothing is kept or
        the payload has no canonical form."""
        fn = getattr(spec, "fn", None)
        if self.path is None or fn is None:
            return None
        try:
            return content_key(fn, spec.payload)
        except UncacheableValue:
            return None

    def _keep(self, spec, key: Optional[str], raw) -> bool:
        if key is None or not isinstance(raw, dict) or not raw.get("ok"):
            return False
        self.results[key] = {
            "job": str(spec.key), "value": _plain(raw.get("value")),
        }
        self.save()
        return True


__all__ = ["CHECKPOINT_VERSION", "CheckpointStore"]
