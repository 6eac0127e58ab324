"""The two-world certification protocol and its batch executor.

One strategy is certified with a *paired experiment*: the attacker
workload runs on domain 0 while every other domain runs the strategy's
``secret0`` co-runner (world 0) and then its ``secret1`` co-runner
(world 1).  Within a trial both worlds share every seed — the attacker's
own trace is bit-identical across them — so the attacker's observation
(its completion-time profile and per-read release cycles, exactly what
:func:`repro.analysis.leakage.victim_view` extracts) may differ between
worlds *only* through the scheduler.  Fixed Service claims it never
does; the harness checks that claim three ways (exact match, bias-
corrected MI upper bound, channel capacity — see
:mod:`repro.certify.estimators`).

Batches execute on the shared substrate (:mod:`repro.exec`): strategies
are picklable data, every verdict is a pure function of (scheme spec,
strategy, config, engine), and the substrate merges results in
submission order — so a ``workers=4`` certification writes a
byte-identical artifact to a serial run, and a killed batch rerun on
its JSON checkpoint replays the strategies that finished.  Security
analysis deliberately depends on nothing inside :mod:`repro.sim`
beyond the runner's public surface (CI greps the layering).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.leakage import VictimWorld, victim_view
from ..errors import ConfigError, SchemeError
from ..exec import (
    SPANS_KEY,
    CheckpointStore,
    JobResult,
    JobSpec,
    adopt_spans,
    run_jobs,
    validate_workers,
)
from ..schemes import REGISTRY, SchemeSpec
from ..sim.config import SystemConfig
from ..sim.runner import SchemeOptions
from ..telemetry.log import get_logger
from .estimators import (
    binary_channel_capacity,
    bootstrap_upper_bound,
    canonicalize_by_trial,
    corrected_mi_bits,
)
from .strategies import AttackerStrategy

_LOG = get_logger("certify")

#: Default leakage tolerance, in bits per two-world experiment.
DEFAULT_EPSILON_BITS = 0.01

#: Fields of a verdict's JSON form (the job value and the JSONL
#: artifact line), in order.
_VERDICT_FIELDS = (
    "strategy", "family", "seed", "trials", "samples", "exact_match",
    "mi_bits", "mi_upper_bits", "capacity_bits", "passed",
    "error_type", "error",
)


@dataclass(frozen=True)
class StrategyVerdict:
    """The statistical certificate for one strategy."""

    strategy: str
    family: str
    seed: int
    trials: int
    #: (secret, observation-id) samples reduced to the MI estimate.
    samples: int
    #: Every trial's two worlds produced literally identical attacker
    #: observations (the paper's exact non-interference claim).
    exact_match: bool
    #: Miller-Madow bias-corrected MI point estimate, bits.
    mi_bits: float
    #: Bootstrap upper confidence bound (the number compared against
    #: epsilon; never below :attr:`mi_bits`).
    mi_upper_bits: float
    #: Capacity of the strategy's empirical two-secret channel.
    capacity_bits: float
    #: Verdict under the batch's epsilon and the scheme's claims.
    passed: bool
    #: Populated when the experiment itself raised instead of running.
    error_type: Optional[str] = None
    error: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name in _VERDICT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float):
                value = round(value, 12)
            out[name] = value
        return out


@dataclass(frozen=True)
class Certificate:
    """The aggregate verdict for one (scheme, engine, epsilon) batch."""

    scheme: str
    engine: str
    epsilon_bits: float
    fixed_service: bool
    verdicts: Tuple[StrategyVerdict, ...]
    #: Strategies never run (wall-clock budget exhausted).
    skipped: Tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        """True iff every executed strategy passed and none errored."""
        return bool(self.verdicts) and all(
            v.passed for v in self.verdicts
        )

    @property
    def complete(self) -> bool:
        return not self.skipped

    @property
    def max_mi_upper_bits(self) -> float:
        return max(
            (v.mi_upper_bits for v in self.verdicts), default=0.0
        )

    @property
    def worst_strategy(self) -> Optional[StrategyVerdict]:
        """The executed strategy with the largest MI upper bound
        (failures first — an errored strategy is always 'worst')."""
        if not self.verdicts:
            return None
        return max(
            self.verdicts,
            key=lambda v: (v.error_type is not None, v.mi_upper_bits,
                           not v.exact_match),
        )

    def summary_dict(self) -> Dict[str, object]:
        """The artifact's trailer line (no volatile values)."""
        return {
            "certificate": {
                "scheme": self.scheme,
                "engine": self.engine,
                "epsilon_bits": round(self.epsilon_bits, 12),
                "fixed_service": self.fixed_service,
                "strategies": len(self.verdicts),
                "skipped": len(self.skipped),
                "certified": self.certified,
                "max_mi_upper_bits": round(self.max_mi_upper_bits, 12),
            }
        }


def two_world_samples(
    scheme: str,
    strategy: AttackerStrategy,
    config: SystemConfig,
    engine: str = "reference",
    max_cycles: int = 2_000_000,
    tracer=None,
) -> Tuple[List[Tuple[int, int, Tuple]], bool]:
    """Run the paired experiment and return ``(raw samples, exact)``.

    ``raw`` holds ``(trial, secret, observation)`` triples, in secret
    order; ``exact`` is True when every trial's two observations
    matched bit-for-bit.

    A trial steps its two worlds together, read release by read
    release (see :func:`~repro.analysis.leakage.victim_view` with a
    ``reference``), and stops both at the first index where the
    attacker's releases differ, or where one world has ended and the
    other releases again.  The observation is the view's
    :attr:`~repro.analysis.leakage.VictimView.observation`, ``(profile,
    read_releases)``, so such worlds differ whatever the rest of their
    runs do: the within-trial ids of
    :func:`~repro.certify.estimators.canonicalize_by_trial`, and every
    verdict field built on them, are those of the full worlds.  Worlds
    that match every release (every Fixed Service trial) run to their
    ends and are compared in full.  World 0 is built first; if world 1
    raises before the trial is decided, world 0 runs to its end first,
    so an error of world 0's wins.  An error either world would raise
    after the trial is decided is not reported; the trial already
    fails to match.

    With a :class:`~repro.telemetry.spans.SpanTracer`, each trial is
    wrapped in a span and the driver records each world's run/phase/
    epoch spans beneath it, world 0's first; the tracer never reaches
    the controller, so traced worlds run the untraced code path and
    verdicts are unchanged.
    """
    options = SchemeOptions(
        refresh=strategy.refresh, faults=strategy.faults, tracer=tracer
    )
    raw: List[Tuple[int, int, Tuple]] = []
    exact = True
    for trial in range(strategy.trials):
        trial_config = dataclasses.replace(
            config, seed=config.seed + 7919 * trial + strategy.seed
        )
        trial_span = (
            tracer.begin(f"trial {trial}", "trial")
            if tracer is not None else None
        )
        world0 = VictimWorld(
            scheme, strategy.attacker, strategy.secret0,
            config=trial_config, options=options, max_cycles=max_cycles,
            engine=engine,
        )
        view1 = victim_view(
            scheme, strategy.attacker, strategy.secret1,
            config=trial_config, options=options, max_cycles=max_cycles,
            engine=engine, reference=world0,
        )
        observations = (world0.view.observation, view1.observation)
        for secret, observation in enumerate(observations):
            raw.append((trial, secret, observation))
        if trial_span is not None:
            tracer.end(trial_span)
        if observations[0] != observations[1]:
            exact = False
    return raw, exact


def certify_strategy(
    scheme: str,
    strategy: AttackerStrategy,
    config: SystemConfig,
    engine: str = "reference",
    epsilon_bits: float = DEFAULT_EPSILON_BITS,
    max_cycles: int = 2_000_000,
    bootstrap_resamples: int = 200,
    tracer=None,
) -> StrategyVerdict:
    """Run one strategy and reduce it to a :class:`StrategyVerdict`.

    ``passed`` demands the MI upper bound stay within epsilon and — for
    schemes whose spec claims ``fixed_service`` — literal two-world
    equality: a Fixed Service scheme that merely leaks *little* still
    fails, because the paper's claim is exact.
    """
    spec = REGISTRY.get(scheme)
    raw, exact = two_world_samples(
        scheme, strategy, config, engine=engine, max_cycles=max_cycles,
        tracer=tracer,
    )
    samples = canonicalize_by_trial(raw)
    mi = corrected_mi_bits(samples)
    upper = bootstrap_upper_bound(
        samples, resamples=bootstrap_resamples, seed=strategy.seed
    )
    capacity = binary_channel_capacity(samples)
    passed = upper <= epsilon_bits and (
        exact or not spec.fixed_service
    )
    return StrategyVerdict(
        strategy=strategy.name,
        family=strategy.family,
        seed=strategy.seed,
        trials=strategy.trials,
        samples=len(samples),
        exact_match=exact,
        mi_bits=mi,
        mi_upper_bits=upper,
        capacity_bits=capacity,
        passed=passed,
    )


def _error_verdict(
    strategy: AttackerStrategy, error_type: str, error: str
) -> StrategyVerdict:
    """An errored experiment can never certify: worst-case values."""
    return StrategyVerdict(
        strategy=strategy.name,
        family=strategy.family,
        seed=strategy.seed,
        trials=strategy.trials,
        samples=0,
        exact_match=False,
        mi_bits=float("nan"),
        mi_upper_bits=float("inf"),
        capacity_bits=float("nan"),
        passed=False,
        error_type=error_type,
        error=error,
    )


def _failure_verdict(
    strategy: AttackerStrategy, exc: BaseException
) -> StrategyVerdict:
    """:func:`_error_verdict` from a live exception."""
    return _error_verdict(strategy, type(exc).__name__, str(exc))


# ----------------------------------------------------------------------
# Worker-process entry point (module level: spawn-picklable).
# ----------------------------------------------------------------------

def _certify_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one strategy in a worker process.

    The payload ships the (picklable) scheme spec so user-registered
    schemes — including the test suite's planted leaky scheme — certify
    in workers exactly like built-ins.  The returned dict is the
    verdict's JSON form: computed entirely worker-side from
    seed-deterministic inputs, so the parent's merge order cannot
    influence any number in it.
    """
    from ..schemes import REGISTRY as worker_registry

    spec = payload.get("spec")
    if spec is not None:
        worker_registry.ensure(spec)
    strategy: AttackerStrategy = payload["strategy"]
    tracer = None
    if payload.get(SPANS_KEY):
        from ..telemetry.spans import SpanTracer

        tracer = SpanTracer()
    try:
        verdict = certify_strategy(
            payload["scheme"], strategy, payload["config"],
            engine=payload["engine"],
            epsilon_bits=payload["epsilon_bits"],
            max_cycles=payload["max_cycles"],
            bootstrap_resamples=payload["bootstrap_resamples"],
            tracer=tracer,
        )
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover
        raise
    except Exception as exc:
        verdict = _failure_verdict(strategy, exc)
    out = verdict.to_json_dict()
    if tracer is not None:
        # The substrate's reserved side channel: popped off the result
        # before the merge (and thus the checkpoint) sees it, so
        # checkpoint/artifact bytes are untouched by span capture.
        out[SPANS_KEY] = tracer.records
    return out


def _verdict_from_dict(raw: Dict[str, object]) -> StrategyVerdict:
    return StrategyVerdict(**{k: raw.get(k) for k in _VERDICT_FIELDS})


class CertificationRun:
    """Execute a strategy batch against one scheme and aggregate.

    One batch is one substrate call (:func:`repro.exec.run_jobs`):
    ``workers=1`` runs in-process, ``workers=N`` fans strategies over
    spawn-started processes with submission-order merging
    (byte-identical artifacts at any worker count), an optional JSON
    checkpoint — one file for every scheme this instance certifies —
    lets a killed batch rerun without re-simulating finished
    strategies, and ``budget_s`` bounds the wall clock — past it,
    remaining strategies are recorded as skipped rather than run.
    ``fresh=True`` deliberately discards any existing checkpoint (the
    CLI's ``--fresh`` escape hatch for a corrupt file).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        engine: str = "reference",
        epsilon_bits: float = DEFAULT_EPSILON_BITS,
        max_cycles: int = 2_000_000,
        bootstrap_resamples: int = 200,
        workers: int = 1,
        checkpoint: Optional[str] = None,
        budget_s: Optional[float] = None,
        collect_spans: bool = False,
        fresh: bool = False,
        store=None,
    ) -> None:
        validate_workers(workers)
        if epsilon_bits < 0:
            raise ConfigError(
                f"epsilon must be non-negative, got {epsilon_bits}"
            )
        self.config = config or SystemConfig(
            num_cores=4, accesses_per_core=150
        )
        self.engine = engine
        self.epsilon_bits = epsilon_bits
        self.max_cycles = max_cycles
        self.bootstrap_resamples = bootstrap_resamples
        self.workers = workers
        self.checkpoint = checkpoint
        self.fresh = fresh
        self.budget_s = budget_s
        #: Optional content-addressed result store (duck-typed — see
        #: :func:`repro.exec.run_jobs`), consulted when the checkpoint
        #: misses.  Certification verdicts are pure functions of
        #: (scheme, strategy, config, engine, epsilon, trial/bootstrap
        #: counts), so a warm store replays them without re-simulating;
        #: artifacts stay byte-identical to a cold run.
        self.store = store
        #: The batch's finished verdicts; built (and the file read) at
        #: the first :meth:`run`.
        self._checkpoint: Optional[CheckpointStore] = None
        #: Wall clock of the last :meth:`run` (volatile; never part of
        #: checkpoints or artifacts).
        self.last_wall_s: Optional[float] = None
        #: Collect hierarchical spans: each strategy's worker tracer is
        #: shipped back and adopted in deterministic submission order
        #: (never written into checkpoints or the JSONL artifact).
        self.collect_spans = collect_spans
        self.tracer = None
        if collect_spans:
            from ..telemetry.spans import SpanTracer

            self.tracer = SpanTracer(track="certify")

    # -- execution ------------------------------------------------------

    def _payload(
        self, spec: SchemeSpec, scheme: str,
        strategy: AttackerStrategy,
    ) -> Dict[str, object]:
        return {
            "spec": spec,
            "scheme": scheme,
            "strategy": strategy,
            "config": self.config,
            "engine": self.engine,
            "epsilon_bits": self.epsilon_bits,
            "max_cycles": self.max_cycles,
            "bootstrap_resamples": self.bootstrap_resamples,
            SPANS_KEY: self.collect_spans,
        }

    def run(
        self,
        scheme: str,
        strategies: Sequence[AttackerStrategy],
    ) -> Certificate:
        """Certify ``scheme`` against the batch and aggregate."""
        spec = REGISTRY.get(scheme)
        if not spec.certifiable:
            raise SchemeError(
                f"scheme {scheme!r} is not certifiable (its spec sets "
                f"certifiable=False); the two-world protocol does not "
                f"apply to it"
            )
        self.config.validate_for_scheme(scheme)
        names = [s.name for s in strategies]
        if len(set(names)) != len(names):
            raise ConfigError(
                "strategy names must be unique within a batch"
            )
        if self._checkpoint is None:
            self._checkpoint = CheckpointStore(
                self.checkpoint, fresh=self.fresh, backing=self.store
            )
            self._checkpoint.load()
        verdicts: List[StrategyVerdict] = []
        skipped: List[str] = []
        jobs = [
            JobSpec(
                key=strategy.name, fn=_certify_worker,
                payload=self._payload(spec, scheme, strategy),
            )
            for strategy in strategies
        ]
        start = time.monotonic()
        try:
            run_jobs(
                jobs,
                lambda job, result, _aux: verdicts.append(
                    self._merge_verdict(scheme, job, result)
                ),
                workers=self.workers,
                budget_s=self.budget_s,
                on_budget_skip=lambda job: skipped.append(job.key),
                store=self._checkpoint,
            )
        finally:
            self.last_wall_s = time.monotonic() - start
        return Certificate(
            scheme=scheme,
            engine=self.engine,
            epsilon_bits=self.epsilon_bits,
            fixed_service=spec.fixed_service,
            verdicts=tuple(verdicts),
            skipped=tuple(skipped),
        )

    def _merge_verdict(
        self, scheme: str, job: JobSpec, result: JobResult
    ) -> StrategyVerdict:
        """One strategy outcome as a verdict (submission order).

        A failed :class:`~repro.exec.JobResult` here can only be a hard
        worker death (``_certify_worker`` converts its own exceptions to
        failure verdicts — that is domain semantics, not plumbing); it
        is isolated into an error verdict, finished strategies stay
        checkpointed, and a rerun executes the dead one again.  Shipped
        spans are adopted into the batch tracer only: span capture
        never changes checkpoint or artifact bytes.
        """
        strategy: AttackerStrategy = job.payload["strategy"]
        if result.ok:
            raw = result.value
        else:
            raw = _error_verdict(
                strategy, result.error_type, result.error
            ).to_json_dict()
        if result.spans is not None and self.tracer is not None:
            adopt_spans(
                self.tracer, f"strategy {strategy.name}", "batch",
                result.spans,
            )
        _LOG.info("strategy done", extra={
            "scheme": scheme, "strategy": strategy.name,
            "passed": raw.get("passed"),
        })
        return _verdict_from_dict(raw)

    # -- export ---------------------------------------------------------

    def export_jsonl(
        self, certificate: Certificate, path: str
    ) -> None:
        """Write the certification artifact: one JSON line per verdict
        (batch order) plus a trailer line with the aggregate — no
        volatile values, so any two equivalent runs produce the same
        bytes."""
        from ..telemetry.collector import open_sink

        handle = open_sink(path)
        try:
            write_certificate_jsonl(certificate, handle)
        finally:
            handle.close()

    def export_trace(self, path: str) -> int:
        """Write the merged batch span trace as Chrome trace JSON.

        Requires ``collect_spans=True``; returns the span count."""
        from ..errors import TelemetryError
        from ..telemetry.chrome import export_span_trace

        if self.tracer is None:
            raise TelemetryError(
                "span trace export requires "
                "CertificationRun(collect_spans=True)"
            )
        return export_span_trace(
            self.tracer, path, metadata={"source": "certify"}
        )

    def metrics_registry(self, certificate: Certificate):
        """The certificate as telemetry: per-strategy MI gauges plus
        batch counters, mergeable into any grid/dashboard registry."""
        from ..telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        labels = ("scheme", "strategy", "family")
        mi = registry.gauge(
            "certify_mi_bits",
            "bias-corrected MI point estimate per strategy", labels,
        )
        upper = registry.gauge(
            "certify_mi_upper_bits",
            "bootstrap MI upper confidence bound per strategy", labels,
        )
        capacity = registry.gauge(
            "certify_capacity_bits",
            "empirical two-secret channel capacity per strategy",
            labels,
        )
        exact = registry.gauge(
            "certify_exact_match",
            "1 when both worlds matched bit-for-bit", labels,
        )
        outcomes = registry.counter(
            "certify_strategies_total",
            "strategy verdicts by outcome", ("scheme", "outcome"),
        )
        for v in certificate.verdicts:
            key = dict(
                scheme=certificate.scheme, strategy=v.strategy,
                family=v.family,
            )
            if v.error_type is None:
                mi.set(round(v.mi_bits, 9), **key)
                upper.set(round(v.mi_upper_bits, 9), **key)
                capacity.set(round(v.capacity_bits, 9), **key)
            exact.set(int(v.exact_match), **key)
            outcome = (
                "error" if v.error_type is not None
                else "pass" if v.passed else "leak"
            )
            outcomes.inc(scheme=certificate.scheme, outcome=outcome)
        if certificate.skipped:
            outcomes.inc(
                len(certificate.skipped),
                scheme=certificate.scheme, outcome="skipped",
            )
        registry.gauge(
            "certify_epsilon_bits", "certification tolerance",
            ("scheme",),
        ).set(round(certificate.epsilon_bits, 12),
              scheme=certificate.scheme)
        registry.gauge(
            "certify_certified",
            "1 when the scheme certified under the batch", ("scheme",),
        ).set(int(certificate.certified), scheme=certificate.scheme)
        wall = registry.gauge(
            "certify_wall_seconds",
            "wall clock of the last batch", volatile=True,
        )
        if self.last_wall_s is not None:
            wall.set(round(self.last_wall_s, 6))
        return registry


def write_certificate_jsonl(certificate: Certificate, handle) -> None:
    """Stream one certificate into an open JSONL handle: verdict lines
    in batch order, then the aggregate trailer.  Pure function of the
    certificate, so equivalent runs write identical bytes (the CLI
    concatenates several schemes' certificates into one artifact)."""
    for verdict in certificate.verdicts:
        handle.write(json.dumps(
            verdict.to_json_dict(), sort_keys=True
        ))
        handle.write("\n")
    handle.write(json.dumps(
        certificate.summary_dict(), sort_keys=True
    ))
    handle.write("\n")


def certify_scheme(
    scheme: str,
    strategies: Sequence[AttackerStrategy],
    config: Optional[SystemConfig] = None,
    engine: str = "reference",
    epsilon_bits: float = DEFAULT_EPSILON_BITS,
    **run_kwargs,
) -> Certificate:
    """One-call certification: run the batch and return the
    :class:`Certificate` (see :class:`CertificationRun` for knobs)."""
    run = CertificationRun(
        config=config, engine=engine, epsilon_bits=epsilon_bits,
        **run_kwargs,
    )
    return run.run(scheme, strategies)


__all__ = [
    "Certificate",
    "CertificationRun",
    "DEFAULT_EPSILON_BITS",
    "StrategyVerdict",
    "certify_scheme",
    "certify_strategy",
    "two_world_samples",
    "write_certificate_jsonl",
]
