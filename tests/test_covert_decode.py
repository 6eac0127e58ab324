"""Unit tests for the promoted covert-channel decoding helpers.

``window_latency_means`` and ``threshold_decode`` were private to
:mod:`repro.analysis.covert`; the certification work promoted them to
the public analysis surface, so their edge cases get pinned here:
all-zero (flat) signals, exact ties at the threshold, out-of-span
requests, and the domain/latency filters.
"""

import pytest

from repro.analysis import threshold_decode, window_latency_means
from repro.dram.commands import Address, OpType, Request


def _req(domain, arrival, release):
    request = Request(
        op=OpType.READ, address=Address(0, 0, 0, 0, 0),
        domain=domain, arrival=arrival,
    )
    request.release = release
    return request


# ---------------------------------------------------------------------
# threshold_decode
# ---------------------------------------------------------------------


def test_decode_empty_signal():
    assert threshold_decode([]) == ()


def test_decode_all_zero_signal():
    """A flat signal carries nothing: everything decodes to 0 (no
    spurious midpoint split of numerical noise)."""
    assert threshold_decode([0.0, 0.0, 0.0, 0.0]) == (0, 0, 0, 0)


def test_decode_flat_nonzero_signal():
    """Flat at *any* level — the FS receiver sees constant latency."""
    assert threshold_decode([37.5] * 6) == (0,) * 6


def test_decode_sub_epsilon_swing_is_flat():
    """Swing below the 1e-9 floor counts as flat, not as signal."""
    means = [100.0, 100.0 + 1e-12, 100.0]
    assert threshold_decode(means) == (0, 0, 0)


def test_decode_tie_at_threshold_is_zero():
    """A window mean exactly *at* the midpoint threshold is not above
    it and must decode to 0 (strict ``>`` comparison)."""
    assert threshold_decode([0.0, 10.0, 5.0]) == (0, 1, 0)


def test_decode_two_clusters():
    means = [12.0, 80.0, 11.0, 79.0, 12.5]
    assert threshold_decode(means) == (0, 1, 0, 1, 0)


def test_decode_single_window():
    """One window is its own min and max: flat, decodes 0."""
    assert threshold_decode([42.0]) == (0,)


# ---------------------------------------------------------------------
# window_latency_means
# ---------------------------------------------------------------------


def test_window_means_empty_release_list():
    assert window_latency_means([], 100, 3) == [0.0, 0.0, 0.0]


def test_window_means_basic_binning():
    released = [
        _req(0, 10, 30),    # window 0, latency 20
        _req(0, 50, 90),    # window 0, latency 40
        _req(0, 150, 160),  # window 1, latency 10
    ]
    assert window_latency_means(released, 100, 3) == [30.0, 10.0, 0.0]


def test_window_means_out_of_span_folds_into_last_window():
    released = [_req(0, 950, 960), _req(0, 10_000, 10_020)]
    means = window_latency_means(released, 100, 4)
    assert means == [0.0, 0.0, 0.0, 15.0]


def test_window_means_filters_foreign_domains_and_unreleased():
    released = [
        _req(1, 10, 30),   # sender traffic: not the receiver's view
        _req(0, 20, None),  # never released: no latency yet
        _req(0, 30, 42),
    ]
    assert window_latency_means(released, 100, 2) == [12.0, 0.0]


def test_window_means_validates_arguments():
    with pytest.raises(ValueError):
        window_latency_means([], 0, 3)
    with pytest.raises(ValueError):
        window_latency_means([], 100, 0)
