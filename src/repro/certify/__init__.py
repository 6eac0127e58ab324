"""Adversarial non-interference certification (``repro certify``).

The paper's security claim — Fixed Service makes a domain's memory
timing a pure function of its own requests — is stated as an exact
property, but the repo historically checked it against a handful of
hand-picked co-runner pairs.  This package turns the check adversarial
and statistical:

* :mod:`~repro.certify.strategies` — a registry of seed-deterministic
  attacker strategy *families* (adaptive latency probers, refresh-phase
  probes, burst/idle modulation, fault-composed attackers, randomized
  secret pairs), mirroring the scheme registry's declarative style.
* :mod:`~repro.certify.estimators` — pure-arithmetic reductions of
  two-world observations to certificates: Miller-Madow bias-corrected
  MI, bootstrap upper confidence bounds, and empirical channel
  capacity.
* :mod:`~repro.certify.harness` — the paired two-world experiment
  (secret=0 vs secret=1 co-runner worlds, both engines), the per-
  strategy :class:`~repro.certify.harness.StrategyVerdict`, and
  :class:`~repro.certify.harness.CertificationRun`, which fans batches
  over the execution substrate (:mod:`repro.exec`) with checkpointed
  reruns and exports deterministic JSONL artifacts plus telemetry
  gauges.

Quickstart::

    from repro.certify import certify_scheme, generate_strategies

    cert = certify_scheme("fs_rp", generate_strategies(16, seed=1))
    assert cert.certified and cert.max_mi_upper_bits <= 0.01
"""

from .estimators import (
    Sample,
    binary_channel_capacity,
    bootstrap_upper_bound,
    canonicalize_by_trial,
    corrected_mi_bits,
    miller_madow_bias_bits,
    support_sizes,
)
from .strategies import (
    STRATEGIES,
    AttackerStrategy,
    StrategyRegistry,
    generate_strategies,
    register_strategy,
    strategy_seed,
)
from .harness import (
    Certificate,
    CertificationRun,
    DEFAULT_EPSILON_BITS,
    StrategyVerdict,
    certify_scheme,
    certify_strategy,
    two_world_samples,
    write_certificate_jsonl,
)

__all__ = [
    "AttackerStrategy",
    "Certificate",
    "CertificationRun",
    "DEFAULT_EPSILON_BITS",
    "STRATEGIES",
    "Sample",
    "StrategyRegistry",
    "StrategyVerdict",
    "binary_channel_capacity",
    "bootstrap_upper_bound",
    "canonicalize_by_trial",
    "certify_scheme",
    "certify_strategy",
    "corrected_mi_bits",
    "generate_strategies",
    "miller_madow_bias_bits",
    "register_strategy",
    "strategy_seed",
    "support_sizes",
    "two_world_samples",
    "write_certificate_jsonl",
]
