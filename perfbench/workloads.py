"""The benchmark's three workloads, their operations and output checks.

Every workload is a closed loop with one client: an operation starts
when the previous one has finished.  Operations go through the public
API only (``repro.sim.runner.build_system`` + ``System.run`` and
``repro.certify.harness.CertificationRun``) on the fast engine.  Inputs
are a pure function of the workload, its scale and the seed.

Correctness: every operation is reduced to a digest of its simulated
observables (engine runs) or to its verdict list (certification).  A
digest that differs from the pinned one in ``expected.json``, from the
same operation's digest earlier in the run, or from the reference
engine's digest of the same inputs marks the operation failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The seed a later optimisation is tuned against.
DEFAULT_SEED = 7
#: Pinned, but never tuned against: re-check a claimed gain here.
HELD_OUT_SEED = 1009
#: Batch seed of the certification workload's strategy set.
STRATEGY_BATCH_SEED = 2015

#: Pinned digests, keyed by scale name, workload and seed.
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: Host seconds after which one operation counts as timed out.
OP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One named workload at one scale."""

    name: str
    #: ``"engine"`` (single simulations) or ``"certify"`` (batches).
    kind: str
    schemes: Tuple[str, ...]
    #: Suite entries (benchmark or mix names) for engine workloads.
    entries: Tuple[str, ...] = ()
    cores: int = 8
    accesses: int = 150
    #: Per-scheme access counts overriding ``accesses``.  Used to give
    #: every run of a workload a similar host time, so the median run
    #: does not sit in the gap between a fast and a slow scheme.
    scheme_accesses: Tuple[Tuple[str, int], ...] = ()
    #: Certification batch size and paired trials per strategy.
    strategies: int = 0
    trials: int = 1

    def ops(self) -> List[Tuple[str, str]]:
        """One round: every operation once, in a fixed order."""
        if self.kind == "certify":
            return [(scheme, "batch") for scheme in self.schemes]
        return [(s, e) for s in self.schemes for e in self.entries]

    def accesses_for(self, scheme: str) -> int:
        return dict(self.scheme_accesses).get(scheme, self.accesses)


FS_FAMILY = ("fs_rp", "fs_bp", "fs_np_ta", "fs_reordered_bp")

#: Scale name -> workload name -> workload.  ``full`` is what the
#: benchmark command measures; ``tiny`` keeps the benchmark's own tests
#: fast.
SCALES: Dict[str, Dict[str, Workload]] = {
    "full": {
        "fs-steady": Workload(
            "fs-steady", "engine", FS_FAMILY, ("mcf", "lbm", "mix1"),
            cores=8, accesses=100,
        ),
        "dynamic-rw": Workload(
            "dynamic-rw", "engine", ("baseline", "tp_bp"),
            ("mcf", "lbm", "mix1"), cores=8, accesses=60,
            scheme_accesses=(("tp_bp", 120),),
        ),
        "certify-batch": Workload(
            "certify-batch", "certify", ("fs_rp", "baseline"),
            cores=4, accesses=75, strategies=10, trials=1,
            scheme_accesses=(("baseline", 90),),
        ),
    },
    "tiny": {
        "fs-steady": Workload(
            "fs-steady", "engine", FS_FAMILY, ("mcf", "mix1"),
            cores=8, accesses=12,
        ),
        "dynamic-rw": Workload(
            "dynamic-rw", "engine", ("baseline", "tp_bp"),
            ("mcf", "lbm"), cores=8, accesses=12,
        ),
        "certify-batch": Workload(
            "certify-batch", "certify", ("fs_rp", "baseline"),
            cores=4, accesses=30, strategies=5, trials=1,
        ),
    },
}

WORKLOAD_NAMES = tuple(SCALES["full"])


def op_name(op: Tuple[str, str]) -> str:
    return f"{op[0]}/{op[1]}"


def nproc() -> int:
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Running one operation.
# ----------------------------------------------------------------------


@dataclass
class OpResult:
    """One finished operation: host time, work done and its check key."""

    name: str
    seconds: float
    #: ``seconds`` rescaled to the reference host speed (set by the
    #: measurement loop, see ``run.calibrate``).
    ref_seconds: float
    #: Simulated demand requests completed (certify: requested by the
    #: traces of every world run).
    accesses: int
    #: Simulated DRAM cycles (0 when not observable, i.e. certify).
    cycles: int
    #: Two-world trials completed (engine runs count one each).
    trials: int
    #: Digest (engine) or verdict rows (certify) compared against pins.
    check: object
    #: Invariant violation found without any pin, or None.
    problem: Optional[str] = None


def system_config(workload: Workload, seed: int, accesses: int):
    from repro.sim.config import SystemConfig

    return SystemConfig(
        num_cores=workload.cores, accesses_per_core=accesses, seed=seed,
    )


def strategies_for(workload: Workload):
    """The certification batch: part of the workload's definition, like
    an engine workload's schemes and suite entries.  The seed varies
    every trace the batch synthesizes, not the strategy mix, whose
    cost differs far more between batches than between trace seeds."""
    from repro.certify.strategies import generate_strategies

    return [
        dataclasses.replace(s, trials=workload.trials)
        for s in generate_strategies(workload.strategies,
                                     seed=STRATEGY_BATCH_SEED)
    ]


def run_engine_op(workload: Workload, op: Tuple[str, str], seed: int,
                  engine: str = "fast") -> OpResult:
    """Build and run one simulation; time build + simulate + collect."""
    from repro.sim import runner
    from repro.workloads.spec import suite_specs

    scheme, entry = op
    config = system_config(workload, seed, workload.accesses_for(scheme))
    specs = suite_specs(entry, workload.cores)
    start = time.perf_counter()
    system = runner.build_system(scheme, config, specs, engine=engine)
    result = system.run()
    seconds = time.perf_counter() - start
    stats = result.stats
    problem = None
    if not all(core.done for core in result.cores):
        problem = "a core did not finish its trace"
    return OpResult(
        name=op_name(op),
        seconds=seconds,
        ref_seconds=seconds,
        accesses=stats.demand_reads + stats.demand_writes,
        cycles=result.cycles,
        trials=1,
        check=engine_digest(result),
        problem=problem,
    )


def engine_digest(result) -> str:
    """SHA-256 over every simulated statistic of one run."""
    service = hashlib.sha256(json.dumps(
        sorted((d, [list(e) for e in events])
               for d, events in result.service_trace.items()),
        separators=(",", ":"),
    ).encode()).hexdigest()
    payload = {
        "cycles": result.cycles,
        "cores": [
            [c.instructions, c.reads_completed, repr(c.ipc)]
            for c in result.cores
        ],
        "stats": dataclasses.asdict(result.stats),
        "bus_utilization": repr(result.bus_utilization),
        "service_trace": service,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def run_certify_op(workload: Workload, op: Tuple[str, str], seed: int,
                   strategies, workers: int,
                   checkpoint: Optional[str]) -> OpResult:
    """Certify one scheme against the whole strategy batch."""
    from repro.certify.harness import CertificationRun

    scheme = op[0]
    accesses = workload.accesses_for(scheme)
    run = CertificationRun(
        config=system_config(workload, seed, accesses),
        engine="fast",
        workers=workers, checkpoint=checkpoint, fresh=True,
    )
    start = time.perf_counter()
    certificate = run.run(scheme, strategies)
    seconds = time.perf_counter() - start
    rows = [
        [v.strategy, v.exact_match, round(v.mi_upper_bits, 9), v.passed]
        for v in certificate.verdicts
    ]
    trials = sum(
        v.trials for v in certificate.verdicts if v.error_type is None
    )
    return OpResult(
        name=op_name(op),
        seconds=seconds,
        ref_seconds=seconds,
        accesses=trials * 2 * workload.cores * accesses,
        cycles=0,
        trials=trials,
        check=rows,
        problem=certificate_problem(scheme, certificate, len(strategies)),
    )


def certificate_problem(scheme: str, certificate, expected: int):
    """The paper's claims, checked on any seed: a Fixed Service scheme
    certifies at exactly 0 bits; the FR-FCFS baseline leaks."""
    if len(certificate.verdicts) != expected:
        return "strategies skipped"
    if any(v.error_type is not None for v in certificate.verdicts):
        return "a strategy raised"
    if certificate.fixed_service:
        if not certificate.certified or any(
            not v.exact_match or v.mi_upper_bits != 0.0
            for v in certificate.verdicts
        ):
            return f"{scheme} did not certify at exactly 0 bits"
    elif scheme == "baseline" and certificate.certified:
        return "baseline certified although it leaks"
    return None


# ----------------------------------------------------------------------
# Pinned expectations.
# ----------------------------------------------------------------------


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def pinned_for(expected: Dict[str, object], scale: str, workload: str,
               seed: int) -> Optional[Dict[str, object]]:
    """The pinned checks of one (scale, workload, seed), if any."""
    return (
        expected.get(scale, {}).get(workload, {}).get(str(seed))
    )


class Checker:
    """Decides whether each operation's output is correct.

    Three tests, in order: the seed's pinned value (default and
    held-out seeds), consistency with the same operation earlier in the
    run, and the workload-independent invariants carried on the
    :class:`OpResult`.
    """

    def __init__(self, pinned: Optional[Dict[str, object]]) -> None:
        self.pinned = pinned
        self.seen: Dict[str, object] = {}
        self.failures: List[str] = []

    def check(self, result: OpResult) -> bool:
        reason = result.problem
        if reason is None and result.seconds > OP_TIMEOUT_S:
            reason = f"timed out ({result.seconds:.1f}s)"
        if reason is None and self.pinned is not None:
            if self.pinned.get(result.name) != result.check:
                reason = "differs from the pinned value"
        first = self.seen.setdefault(result.name, result.check)
        if reason is None and first != result.check:
            reason = "differs from its earlier run"
        if reason is not None:
            self.failures.append(f"{result.name}: {reason}")
            return False
        return True
