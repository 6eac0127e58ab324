"""Covert-channel construction and measurement (Section 2.2).

Implements the classic contention covert channel the paper cites (Wu et
al., Hunger et al.): a *sender* domain modulates its memory intensity —
bursts of reads for a 1 bit, silence for a 0 bit — while a *receiver*
domain continuously probes memory and measures its own latencies.  Under
a contended scheduler the receiver's per-window mean latency tracks the
sender's bits; under FS it is flat.

:func:`run_covert_channel` drives a controller open-loop (no cores,
through :func:`repro.sim.openloop.drive_open_loop`) so the channel is
measured in isolation, and returns the received latency signal, the
decoded bits, and the bit error rate.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..dram.commands import OpType, Request
from ..sim.config import SystemConfig
from ..sim.openloop import drive_open_loop
from ..sim.runner import SchemeOptions, build_controller, partition_for


@dataclass(frozen=True)
class CovertChannelResult:
    """Outcome of one covert-channel experiment."""

    scheme: str
    sent_bits: Tuple[int, ...]
    decoded_bits: Tuple[int, ...]
    #: Mean receiver latency per bit window.
    window_means: Tuple[float, ...]

    @property
    def bit_error_rate(self) -> float:
        errors = sum(
            1 for s, d in zip(self.sent_bits, self.decoded_bits) if s != d
        )
        return errors / len(self.sent_bits)

    @property
    def signal_swing(self) -> float:
        """Receiver-visible latency swing between 0 and 1 windows."""
        ones = [m for m, b in zip(self.window_means, self.sent_bits) if b]
        zeros = [
            m for m, b in zip(self.window_means, self.sent_bits) if not b
        ]
        if not ones or not zeros:
            return 0.0
        return abs(statistics.fmean(ones) - statistics.fmean(zeros))


def run_covert_channel(
    scheme: str,
    bits: Sequence[int] = None,
    window: int = 4000,
    probe_period: int = 100,
    burst_period: int = 6,
    config: Optional[SystemConfig] = None,
    seed: int = 7,
) -> CovertChannelResult:
    """Measure the covert channel through a scheduler.

    Domain 0 is the receiver (one probe read every ``probe_period``
    cycles); domain 1 is the sender (reads every ``burst_period`` cycles
    during 1-bit windows, nothing during 0-bit windows).  Remaining
    domains are silent.
    """
    config = config or SystemConfig()
    if bits is None:
        rng_bits = random.Random(seed)
        bits = tuple(rng_bits.randrange(2) for _ in range(32))
    bits = tuple(int(b) for b in bits)
    options = SchemeOptions()
    partition = partition_for(scheme, config)
    controller = build_controller(scheme, config, partition, options)

    rng = random.Random(seed)
    requests: List[Request] = []
    total_cycles = window * len(bits)
    # Receiver probes: random lines so the baseline cannot hide them in
    # row hits.
    t = 0
    while t < total_cycles:
        line = rng.randrange(1 << 16)
        requests.append(Request(
            op=OpType.READ, address=partition.decode(0, line),
            domain=0, arrival=t, line=line,
        ))
        t += probe_period
    # Sender bursts during 1 windows.
    for index, bit in enumerate(bits):
        if not bit:
            continue
        t = index * window
        while t < (index + 1) * window:
            line = rng.randrange(1 << 16)
            requests.append(Request(
                op=OpType.READ, address=partition.decode(1, line),
                domain=1, arrival=t, line=line,
            ))
            t += burst_period
    # Stop measuring if the scheduler cannot keep up.
    released, _ = drive_open_loop(
        controller, requests, stop_after=total_cycles * 50
    )

    window_means = window_latency_means(released, window, len(bits))
    decoded = threshold_decode(window_means)
    return CovertChannelResult(
        scheme=scheme,
        sent_bits=bits,
        decoded_bits=decoded,
        window_means=tuple(window_means),
    )


def window_latency_means(
    released: Sequence[Request], window: int, num_windows: int
) -> List[float]:
    """Mean receiver (domain-0) latency per bit window.

    Requests outside the measured span fold into the last window;
    windows the receiver never probed read as 0.0.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    if num_windows < 1:
        raise ValueError(
            f"need at least one window, got {num_windows}"
        )
    sums = [0.0] * num_windows
    counts = [0] * num_windows
    for request in released:
        if request.domain != 0 or request.latency is None:
            continue
        index = min(request.arrival // window, num_windows - 1)
        sums[index] += request.latency
        counts[index] += 1
    return [
        sums[i] / counts[i] if counts[i] else 0.0
        for i in range(num_windows)
    ]


def threshold_decode(window_means: Sequence[float]) -> Tuple[int, ...]:
    """Decode with the optimal single threshold: the midpoint between the
    two latency clusters (sender-agnostic).

    A flat signal (swing below 1e-9, the FS case) carries nothing and
    decodes to all zeros; a window mean exactly *at* the threshold is
    not ``>`` it and also decodes to 0.
    """
    if not window_means:
        return ()
    lo, hi = min(window_means), max(window_means)
    threshold = (lo + hi) / 2.0
    if hi - lo < 1e-9:
        # Flat signal: the channel carries nothing; decode everything as 0.
        return tuple(0 for _ in window_means)
    return tuple(1 if m > threshold else 0 for m in window_means)
