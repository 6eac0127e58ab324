"""Canonical content hashing: the identity of a finished job.

Every reuse of a job result — a checkpoint replaying a killed batch
(:class:`~repro.exec.CheckpointStore`) or the cross-session result
store (:mod:`repro.store`) — asks the same question: was this result
computed by the same worker on the same payload?  The answer is one
key.  A key must be a *semantic* fingerprint of a job: two
:class:`~repro.exec.JobSpec`\\ s that describe the same computation must
hash identically across processes and sessions, and any input change —
scheme spec field, system config, seed, engine, worker function — must
change the hash.  Python's built-in ``hash()`` is salted per process and
``pickle.dumps`` byte output depends on object-identity sharing, so
neither is usable directly.  Instead every payload is first lowered to a
*canonical structure* built only from ``None``/``bool``/``int``/``float``/
``str``/``bytes`` and tuples:

* dataclass instances (``SchemeSpec``, ``SystemConfig``, ``FaultPlan``,
  ``AttackerStrategy``, ...) become ``("dataclass", qualname, fields)``
  with fields canonicalised recursively in declaration order;
* enums become ``("enum", qualname, member_name)``;
* dicts and sets are canonicalised element-wise and *sorted*, so
  insertion order cannot leak into the key;
* lists/tuples keep their order under a ``"seq"`` tag (a reordered
  workload list is a different computation).

The key is then the SHA-256 of the structure's ``repr`` — deterministic
across processes because ``repr`` of those leaf types is value-based,
round-trippable, and independent of object identity.  Anything without a
canonical form (an open telemetry session, a live tracer, an arbitrary
class instance) raises :class:`UncacheableValue`; the stores translate
that into a *bypass* — the job simply runs uncached.

The payload's :data:`~repro.exec.jobs.SPANS_KEY` entry (the request to
collect spans) is left out of the key: span collection is how a job is
observed, not what it computes, so a traced job may reuse an untraced
result (it then adopts no spans for that job).

``STORE_SCHEMA_VERSION`` is folded into every hash as a salt, so bumping
it orphans (rather than misreads) every existing entry when the wire
format of job results changes.

So is :func:`source_digest`, one hash of the ``repro`` package's
sources: a result computed by other code is never reused, and an edit
to a controller or the DRAM model makes every warm store entry and
every checkpointed job miss instead of replaying the old code's result.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import pathlib
from typing import Callable, Tuple, Union

from .jobs import SPANS_KEY

#: Salt folded into every content hash.  Bump when the job wire format
#: (or the canonicalisation scheme itself) changes incompatibly; old
#: entries then become unreachable instead of wrongly reusable.
STORE_SCHEMA_VERSION = 1

#: Leaf types that are already canonical.
_ATOMS = (bool, int, float, str, bytes)

Canonical = Union[None, bool, int, float, str, bytes, Tuple]


class UncacheableValue(TypeError):
    """A payload value has no canonical form, so the job cannot be keyed.

    Raised by :func:`canonicalize` for live objects — telemetry sessions,
    open files, arbitrary class instances — whose state cannot be
    fingerprinted by value.  The stores catch this and treat the job as
    a *bypass* (run uncached); it never propagates to callers of
    :class:`~repro.store.ResultStore` or
    :class:`~repro.exec.CheckpointStore`.
    """


def fn_identity(fn: Callable) -> str:
    """A stable ``module:qualname`` identity for a job's worker function.

    Part of every cache key: two jobs with equal payloads but different
    workers (``_sweep_worker`` vs ``_certify_worker``) must never share
    an entry.  Requires a module-level function — which :mod:`repro.exec`
    already demands for spawn-safety — so the identity is importable and
    stable across sessions.
    """
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    return f"{module}:{qualname}"


def canonicalize(value: object) -> Canonical:
    """Lower ``value`` to a canonical, identity-free structure.

    Returns a tree of atoms and tagged tuples (see the module docstring
    for the per-type rules).  Raises :class:`UncacheableValue` for any
    value — at any depth — without a canonical form.
    """
    if value is None or isinstance(value, _ATOMS):
        return value
    if isinstance(value, enum.Enum):
        kind = type(value)
        return ("enum", f"{kind.__module__}.{kind.__qualname__}", value.name)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = type(value)
        fields = tuple(
            (field.name, canonicalize(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
        return ("dataclass", f"{kind.__module__}.{kind.__qualname__}", fields)
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonicalize(item) for item in value))
    if isinstance(value, dict):
        items = tuple(sorted(
            ((canonicalize(k), canonicalize(v)) for k, v in value.items()),
            key=repr,
        ))
        return ("map", items)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(
            (canonicalize(item) for item in value), key=repr,
        )))
    raise UncacheableValue(
        f"{type(value).__module__}.{type(value).__qualname__} has no "
        f"canonical form; job must run uncached"
    )


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every ``*.py`` file of the ``repro`` package: each
    file's path relative to the package, its length and its bytes, in
    sorted path order.  Computed once per process."""
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for relative, path in sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
    ):
        source = path.read_bytes()
        digest.update(b"%s\0%d\0" % (relative.encode(), len(source)))
        digest.update(source)
    return digest.hexdigest()


def content_key(fn: Callable, payload: object) -> str:
    """The SHA-256 content hash keying one job.

    Hashes ``(salt, schema version, source digest, worker identity,
    canonical payload)`` so every semantic input — including the worker
    function, the code it runs and the store schema version — is
    covered; a dict payload's :data:`SPANS_KEY` entry is not.  Raises
    :class:`UncacheableValue` when the payload cannot be canonicalised.
    """
    if isinstance(payload, dict) and SPANS_KEY in payload:
        payload = {k: v for k, v in payload.items() if k != SPANS_KEY}
    structure = (
        "repro-store",
        STORE_SCHEMA_VERSION,
        source_digest(),
        fn_identity(fn),
        canonicalize(payload),
    )
    return hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()


__all__ = [
    "STORE_SCHEMA_VERSION",
    "Canonical",
    "UncacheableValue",
    "canonicalize",
    "content_key",
    "fn_identity",
    "source_digest",
]
