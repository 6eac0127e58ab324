"""Declarative scheme descriptions: :class:`SchemeSpec`.

The paper's contribution is a *family* of Fixed Service design points
(Table 2: spatial partitioning level x pipeline family, each with its
solved slot gap ``l`` and interval ``Q``).  A :class:`SchemeSpec` turns
one design point into **data**: a frozen, hashable, picklable record
naming the partitioning level, the construction family, the controller
classes (as dotted import paths, so a spec survives a trip through
``pickle`` into a spawn-started worker process), the solver inputs, and
the paper's published expectations.

Scheme *identity* lives here; scheme *construction* lives in
:mod:`repro.schemes.builders`, which interprets the spec.  Nothing in
this module imports the simulator, so specs are cheap to create, ship
across processes, and compare.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from ..errors import SchemeError

#: Spatial partitioning levels a spec may declare (Section 4 of the
#: paper: private channels, private ranks, private bank sets, or fully
#: shared geometry).
PARTITIONINGS: Tuple[str, ...] = ("none", "rank", "bank", "channel")

#: Sharing levels accepted by the FS pipeline solver, as spec strings.
SHARINGS: Tuple[str, ...] = ("rank", "bank", "none")


def resolve(path: str):
    """Import a dotted ``module.Attr`` path and return the attribute.

    Specs carry *paths*, not classes, so they stay picklable and a
    spawn-started worker resolves them against its own fresh imports.
    """
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise SchemeError(
            f"controller path {path!r} is not a dotted module path"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SchemeError(
            f"cannot import {module_name!r} for controller path "
            f"{path!r}: {exc}"
        ) from exc
    try:
        return getattr(module, attr)
    except AttributeError as exc:
        raise SchemeError(
            f"module {module_name!r} has no attribute {attr!r} "
            f"(controller path {path!r})"
        ) from exc


@dataclass(frozen=True)
class SchemeSpec:
    """One memory-scheduling design point, declaratively.

    Every field is a plain string/int/bool, so a spec is hashable,
    picklable, and comparable — the properties the multiprocess sweep
    executor relies on to ship scheme definitions into worker processes.
    """

    #: Registry key; the name the CLI, ``run_scheme`` and sweeps use.
    name: str
    #: One-line description (shown by ``repro schemes`` style tooling).
    description: str = ""
    #: Construction recipe: which builder interprets this spec
    #: (:mod:`repro.schemes.builders` maps family -> builder function).
    family: str = "fs"
    #: Spatial partitioning level (one of :data:`PARTITIONINGS`).
    partitioning: str = "none"
    #: Dotted import path of the reference-engine controller class.
    controller: str = ""
    #: Dotted import path of the cycle-skipping fast-engine controller;
    #: ``None`` means the reference class also serves the fast driver
    #: (e.g. strict FCFS, which gains from the driver alone).
    fast_controller: Optional[str] = None
    #: FS solver sharing level (one of :data:`SHARINGS`) for families
    #: that build a fixed timetable; ``None`` otherwise.
    sharing: Optional[str] = None
    #: The paper's solved minimal slot gap ``l`` (Table 2), when the
    #: design point has one.
    expected_l: Optional[int] = None
    #: The paper's interval length ``Q`` for 8 threads (Table 2).
    expected_q: Optional[int] = None
    #: One FS controller per channel (the full 32-core target system).
    multi_channel: bool = False
    #: The builder honours ``SchemeOptions.refresh`` for this scheme.
    supports_refresh: bool = False
    #: The builder arms sandbox prefetchers on ``SchemeOptions.prefetch``.
    supports_prefetch: bool = False
    #: The scheme claims timing-channel freedom (drives security suites
    #: and the ``repro stats`` cadence verdict via :attr:`fixed_service`).
    secure: bool = True
    #: Fixed Service family member: its inter-service cadence must be
    #: degenerate (single-gap), the paper's invariance observable.
    fixed_service: bool = False
    #: The adversarial two-world certification harness
    #: (:mod:`repro.certify`) accepts this scheme.  Defaults to True —
    #: certification states facts about *measured* leakage, so even
    #: non-secure schemes run (and fail, which is the point).  Set False
    #: for schemes whose construction falls outside the protocol (e.g.
    #: reference-only controllers with no per-domain service contract).
    certifiable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemeError("a scheme spec needs a non-empty name")
        if not self.family:
            raise SchemeError(
                f"scheme {self.name!r}: family must be non-empty"
            )
        if self.partitioning not in PARTITIONINGS:
            raise SchemeError(
                f"scheme {self.name!r}: unknown partitioning "
                f"{self.partitioning!r} (expected one of "
                f"{', '.join(PARTITIONINGS)})"
            )
        if self.sharing is not None and self.sharing not in SHARINGS:
            raise SchemeError(
                f"scheme {self.name!r}: unknown sharing "
                f"{self.sharing!r} (expected one of "
                f"{', '.join(SHARINGS)})"
            )
        if not self.controller:
            raise SchemeError(
                f"scheme {self.name!r}: controller import path required"
            )
        for label, value in (
            ("expected_l", self.expected_l),
            ("expected_q", self.expected_q),
        ):
            if value is not None and value < 1:
                raise SchemeError(
                    f"scheme {self.name!r}: {label} must be positive, "
                    f"got {value}"
                )

    # ------------------------------------------------------------------

    def controller_path(self, engine: str = "reference") -> str:
        """The dotted controller path the given engine instantiates."""
        if engine == "fast" and self.fast_controller is not None:
            return self.fast_controller
        return self.controller

    def controller_class(self, engine: str = "reference"):
        """Resolve (import) the controller class for an engine."""
        return resolve(self.controller_path(engine))

    def sharing_level(self):
        """The spec's sharing as a solver :class:`SharingLevel` enum."""
        from ..core.pipeline_solver import SharingLevel

        if self.sharing is None:
            raise SchemeError(
                f"scheme {self.name!r} declares no sharing level"
            )
        return SharingLevel(self.sharing)

    def replace(self, **changes) -> "SchemeSpec":
        """A copy with fields replaced (``dataclasses.replace`` sugar)."""
        import dataclasses

        return dataclasses.replace(self, **changes)

    def summary(self) -> str:
        """One human-readable line for listings."""
        bits = [f"partitioning={self.partitioning}",
                f"family={self.family}"]
        if self.expected_l is not None:
            bits.append(f"l={self.expected_l}")
        if self.expected_q is not None:
            bits.append(f"Q={self.expected_q}")
        if not self.secure:
            bits.append("non-secure")
        return f"{self.name}: {self.description or '-'} " \
               f"({', '.join(bits)})"


def spec_fields() -> Tuple[str, ...]:
    """The spec's field names (stable schema surface for docs/tests)."""
    return tuple(f.name for f in fields(SchemeSpec))


__all__ = [
    "PARTITIONINGS",
    "SHARINGS",
    "SchemeSpec",
    "resolve",
    "spec_fields",
]
