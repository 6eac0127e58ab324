"""Property tests for the certification estimators (Hypothesis).

The statistical certificates only mean something if the estimator obeys
information theory on *every* input, not just the ones the harness
happens to produce.  Pinned properties:

* MI estimates are non-negative and bounded by ``log2(|S|)``;
* MI is invariant under bijective relabeling of observations (ids are
  arbitrary — only the partition structure may matter);
* a sample set with product structure (empirical joint = product of
  marginals) estimates *zero* MI, and the bias correction never pushes
  an independent pair above the certification epsilon;
* the correction only ever subtracts (corrected <= plug-in), and the
  bootstrap bound only ever adds (upper >= point);
* the bootstrap is a pure function of its seed, and skipping its
  resampling on a singleton alphabet returns the loop's bits.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.certify import (
    binary_channel_capacity,
    bootstrap_upper_bound,
    canonicalize_by_trial,
    corrected_mi_bits,
    miller_madow_bias_bits,
    support_sizes,
)
from repro.certify.estimators import mutual_information_bits

#: The CLI's default certification tolerance.
EPSILON = 0.01

#: (secret, observation) sample lists: binary secrets, small
#: observation alphabets, 1..60 samples.
samples_lists = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 5)),
    min_size=1, max_size=60,
)


@given(samples_lists)
@settings(max_examples=200, deadline=None)
def test_mi_bounds(samples):
    """0 <= corrected <= plug-in <= log2(|S|)."""
    plugin = mutual_information_bits(samples)
    corrected = corrected_mi_bits(samples)
    k_s, _ = support_sizes(samples)
    assert 0.0 <= corrected <= plugin + 1e-12
    assert plugin <= math.log2(max(k_s, 2)) + 1e-9
    if k_s == 1:
        assert plugin <= 1e-12  # one secret: nothing to learn


@given(samples_lists, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_mi_invariant_under_observation_relabeling(samples, rng):
    """Bijectively renaming observations changes nothing: the ids the
    canonicalizer assigns are arbitrary, only the induced partition of
    samples carries information."""
    alphabet = sorted({o for _, o in samples})
    shuffled = alphabet[:]
    rng.shuffle(shuffled)
    relabel = dict(zip(alphabet, shuffled))
    renamed = [(s, relabel[o]) for s, o in samples]
    assert math.isclose(
        mutual_information_bits(samples),
        mutual_information_bits(renamed),
        abs_tol=1e-9,
    )
    assert math.isclose(
        corrected_mi_bits(samples),
        corrected_mi_bits(renamed),
        abs_tol=1e-9,
    )


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_independent_pair_stays_below_epsilon(secrets, observations):
    """Product-structured samples (every secret paired with every
    observation) have empirical joint = product of marginals, so the
    plug-in MI is exactly zero — and the bias correction, which only
    subtracts, must keep an independent pair certifiable."""
    samples = [(s, o) for s in secrets for o in observations]
    assert mutual_information_bits(samples) <= 1e-12
    assert corrected_mi_bits(samples) == 0.0 <= EPSILON
    assert bootstrap_upper_bound(samples, resamples=0) <= EPSILON


@given(samples_lists, st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_bootstrap_bound_dominates_point_and_is_seeded(samples, seed):
    """upper >= point, and the bound is a pure function of its seed."""
    point = corrected_mi_bits(samples)
    upper = bootstrap_upper_bound(samples, resamples=25, seed=seed)
    again = bootstrap_upper_bound(samples, resamples=25, seed=seed)
    assert upper >= point
    assert upper == again


def _resampled(samples, resamples=200, quantile=0.95, seed=0):
    """``bootstrap_upper_bound`` with its resampling loop always run."""
    point = corrected_mi_bits(samples)
    if len(samples) < 2:
        return point
    rng = random.Random(seed)
    n = len(samples)
    estimates = sorted(
        corrected_mi_bits([samples[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    index = min(len(estimates) - 1, int(quantile * len(estimates)))
    return max(point, estimates[index])


@pytest.mark.parametrize("trials", [1, 2, 3, 4, 5])
def test_skipped_resampling_returns_the_loops_bits(trials):
    """Every (secret, id) sample set the two-world harness can make
    from 1-5 trials (each trial's worlds match or differ), and the
    one-secret sets: with a singleton alphabet every resample is
    exactly 0.0, so returning the point estimate at once is
    bit-equal to running the loop."""
    sets = []
    for differs in itertools.product((0, 1), repeat=trials):
        raw = [(t, secret, secret * d)
               for t, d in enumerate(differs) for secret in (0, 1)]
        sets.append(canonicalize_by_trial(raw))
    sets += [[(0, 0)] * (2 * trials), [(1, 0), (1, 1)] * trials]
    singletons = 0
    for samples in sets:
        singletons += 1 in support_sizes(samples)
        for seed in (0, 1, 7, 99, 2015):
            assert bootstrap_upper_bound(samples, seed=seed).hex() == \
                _resampled(samples, seed=seed).hex()
    assert singletons == 3


@given(st.integers(1, 10_000), st.integers(1, 8), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_bias_term_nonnegative_and_shrinks_with_n(n, k_s, k_o):
    bias = miller_madow_bias_bits(n, k_s, k_o)
    assert bias >= 0.0
    assert miller_madow_bias_bits(2 * n, k_s, k_o) <= bias + 1e-15
    if k_s == 1 or k_o == 1:
        assert bias == 0.0  # degenerate alphabet: the FS case


@given(samples_lists)
@settings(max_examples=100, deadline=None)
def test_capacity_bounds(samples):
    """Capacity of an empirical binary channel lives in [0, 1], and a
    perfectly distinguishing sample set achieves exactly 1 bit."""
    capacity = binary_channel_capacity(samples)
    assert 0.0 <= capacity <= 1.0 + 1e-9


def test_capacity_of_perfect_channel_is_one_bit():
    samples = [(0, "a"), (0, "a"), (1, "b")]
    assert math.isclose(
        binary_channel_capacity(samples), 1.0, abs_tol=1e-6
    )


def test_capacity_of_useless_channel_is_zero():
    samples = [(0, "a"), (1, "a"), (0, "a"), (1, "a")]
    assert binary_channel_capacity(samples) <= 1e-9


def test_estimator_argument_validation():
    import pytest

    with pytest.raises(ValueError):
        miller_madow_bias_bits(0, 2, 2)
    with pytest.raises(ValueError):
        bootstrap_upper_bound([(0, 0)], quantile=1.0)
    with pytest.raises(ValueError):
        binary_channel_capacity([(0, "a"), (1, "b"), (2, "c")])


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),   # trial
            st.integers(0, 1),   # secret
            st.text(max_size=3),  # raw observation
        ),
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_canonicalize_preserves_partition_structure(raw):
    """Canonical ids preserve within-trial equality of observations
    exactly — two raw triples in the same trial get the same id iff
    their observations were equal."""
    out = canonicalize_by_trial(raw)
    assert len(out) == len(raw)
    for i, (trial_i, secret_i, obs_i) in enumerate(raw):
        assert out[i][0] == secret_i
        for j, (trial_j, _, obs_j) in enumerate(raw):
            if trial_i == trial_j:
                assert (out[i][1] == out[j][1]) == (obs_i == obs_j)


def test_canonicalize_exact_noninterference_collapses_alphabet():
    """Matching worlds in every trial give the singleton alphabet —
    and therefore exactly-zero MI with zero bias correction."""
    raw = [
        (t, secret, f"obs-{t}") for t in range(5) for secret in (0, 1)
    ]
    samples = canonicalize_by_trial(raw)
    assert support_sizes(samples) == (2, 1)
    assert corrected_mi_bits(samples) == 0.0
    assert bootstrap_upper_bound(samples, resamples=50) == 0.0
