"""Statistical certificates: bias-corrected MI bounds and capacity.

The harness reduces a strategy's two-world observations to three
numbers, each with a precise (and precisely limited) meaning:

* **exact-match verdict** — for Fixed Service schemes the paper's claim
  is *exact* non-interference, so the strongest certificate is literal
  equality of the attacker's observations across the two secret worlds,
  per trial.  No statistics involved; a single mismatched trial refutes
  the claim outright.
* **bias-corrected mutual information** — the plug-in (maximum
  likelihood) estimate of ``I(S; O)`` is biased *upward* by roughly
  ``(|S|-1)(|O|-1) / (2 n ln 2)`` bits (Miller 1955, Miller-Madow);
  :func:`corrected_mi_bits` subtracts that term and clamps at zero, so
  a genuinely independent (secret, observation) pair estimates ~0
  instead of a spurious positive value.
* **bootstrap upper bound** — :func:`bootstrap_upper_bound` resamples
  the (secret, observation) pairs with replacement and reports the
  upper quantile of the corrected estimate.  The certificate's headline
  number — the one compared against epsilon — is the *maximum* of the
  point estimate and that quantile, so sampling luck can only make
  certification harder, never easier.  When the secret or the
  observation alphabet is a singleton (every exact certificate), each
  resample is exactly 0.0, so the resampling is skipped.
* **channel capacity** — :func:`binary_channel_capacity` treats the
  empirical conditionals ``P(o | s)`` as a channel matrix and maximizes
  MI over the input prior (the secret is attacker-chosen, so a uniform
  prior understates the strategy's best case).  For a two-secret
  protocol the MI is concave in the prior, so a deterministic ternary
  search suffices.

Everything here is pure arithmetic on hashable samples — no simulator
imports — and deterministic for a given seed, which is what lets a
``workers=N`` certification batch write a byte-identical artifact to a
serial one.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, Hashable, List, Sequence, Tuple

from ..analysis.mutual_information import mutual_information_bits

Sample = Tuple[int, Hashable]


def support_sizes(samples: Sequence[Sample]) -> Tuple[int, int]:
    """Observed alphabet sizes ``(|S|, |O|)`` of a sample set."""
    return (
        len({s for s, _ in samples}),
        len({o for _, o in samples}),
    )


def miller_madow_bias_bits(
    n: int, secret_support: int, observation_support: int
) -> float:
    """First-order upward bias of the plug-in MI estimate, in bits.

    ``(|S| - 1)(|O| - 1) / (2 n ln 2)`` — the Miller-Madow correction
    applied to ``I = H(S) + H(O) - H(S, O)`` term by term (the joint
    support is bounded by ``|S| x |O|``, giving the product form).
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    return (
        (secret_support - 1) * (observation_support - 1)
        / (2.0 * n * math.log(2.0))
    )


def corrected_mi_bits(samples: Sequence[Sample]) -> float:
    """Miller-Madow bias-corrected MI estimate, clamped at zero.

    Never exceeds the plug-in estimate (the correction is subtracted),
    so an exactly-independent empirical joint — whose plug-in MI is
    already zero — stays at zero.
    """
    plugin = mutual_information_bits(samples)
    k_s, k_o = support_sizes(samples)
    return max(0.0, plugin - miller_madow_bias_bits(
        len(samples), k_s, k_o
    ))


def bootstrap_upper_bound(
    samples: Sequence[Sample],
    resamples: int = 200,
    quantile: float = 0.95,
    seed: int = 0,
) -> float:
    """Upper confidence bound on the corrected MI, via the bootstrap.

    Resamples the pairs with replacement ``resamples`` times, takes the
    ``quantile`` of the corrected estimates, and returns the max of that
    and the point estimate — the bound can tighten the verdict, never
    loosen it.  Deterministic for a given ``seed``.

    A resample draws from the samples' own alphabets, so when either
    is a singleton its plug-in MI is ``H(S) + H(O) - H(S, O)`` with one
    entropy 0 and the other two the same sum in the same order: exactly
    0.0, with a zero Miller-Madow term.  The point estimate is then
    returned at once.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    point = corrected_mi_bits(samples)
    if len(samples) < 2 or resamples < 1 or 1 in support_sizes(samples):
        return point
    rng = random.Random(seed)
    pool = list(samples)
    n = len(pool)
    estimates: List[float] = []
    for _ in range(resamples):
        draw = [pool[rng.randrange(n)] for _ in range(n)]
        estimates.append(corrected_mi_bits(draw))
    estimates.sort()
    index = min(len(estimates) - 1, int(quantile * len(estimates)))
    return max(point, estimates[index])


def _mi_for_prior(
    p: float,
    cond: Sequence[Dict[Hashable, float]],
) -> float:
    """``I(S; O)`` in bits for a binary prior ``(1-p, p)`` over the two
    conditional observation distributions."""
    priors = (1.0 - p, p)
    marginal: Dict[Hashable, float] = {}
    for prior, dist in zip(priors, cond):
        for o, q in dist.items():
            marginal[o] = marginal.get(o, 0.0) + prior * q
    bits = 0.0
    for prior, dist in zip(priors, cond):
        if prior <= 0.0:
            continue
        for o, q in dist.items():
            if q <= 0.0:
                continue
            bits += prior * q * math.log2(q / marginal[o])
    return bits


def binary_channel_capacity(
    samples: Sequence[Sample],
    iterations: int = 60,
) -> float:
    """Capacity (bits/use) of the empirical two-secret channel.

    Builds ``P(o | s)`` from the samples and maximizes MI over the
    binary input prior by ternary search (MI is concave in the prior).
    With fewer than two observed secrets the channel is unusable and the
    capacity is zero.
    """
    by_secret: Dict[int, Counter] = {}
    for s, o in samples:
        by_secret.setdefault(s, Counter())[o] += 1
    if len(by_secret) < 2:
        return 0.0
    if len(by_secret) > 2:
        raise ValueError(
            "binary_channel_capacity takes two-secret samples; got "
            f"{sorted(by_secret)}"
        )
    cond = []
    for s in sorted(by_secret):
        counts = by_secret[s]
        total = sum(counts.values())
        cond.append({o: c / total for o, c in counts.items()})
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _mi_for_prior(m1, cond) < _mi_for_prior(m2, cond):
            lo = m1
        else:
            hi = m2
    return _mi_for_prior((lo + hi) / 2.0, cond)


def canonicalize_by_trial(
    raw: Sequence[Tuple[int, int, Hashable]],
) -> List[Sample]:
    """Collapse per-trial observations to small within-trial ids.

    ``raw`` holds ``(trial, secret, observation)`` triples.  Observations
    are only comparable *within* a trial (the attacker's own trace seed
    varies across trials by design), so each trial maps its distinct
    observations to ``0, 1, ...`` in first-seen order — worlds are
    enumerated in secret order, so id 0 is always "matches the secret-0
    world".  Under exact non-interference both worlds of every trial
    collapse to id 0, the observation alphabet is the singleton ``{0}``,
    and the MI is exactly zero with zero bias; a secret-dependent scheme
    splits the ids and the secret becomes readable.
    """
    out: List[Sample] = []
    ids: Dict[int, Dict[Hashable, int]] = {}
    for trial, secret, observation in raw:
        table = ids.setdefault(trial, {})
        value = table.setdefault(observation, len(table))
        out.append((secret, value))
    return out


__all__ = [
    "Sample",
    "binary_channel_capacity",
    "bootstrap_upper_bound",
    "canonicalize_by_trial",
    "corrected_mi_bits",
    "miller_madow_bias_bits",
    "support_sizes",
]
