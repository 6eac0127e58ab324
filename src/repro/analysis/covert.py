"""Covert-channel construction and measurement (Section 2.2).

Implements the classic contention covert channel the paper cites (Wu et
al., Hunger et al.): a *sender* domain modulates its memory intensity —
bursts of reads for a 1 bit, silence for a 0 bit — while a *receiver*
domain continuously probes memory and measures its own latencies.  Under
a contended scheduler the receiver's per-window mean latency tracks the
sender's bits; under FS it does not move.

:func:`run_covert_channel` drives a controller open-loop (no cores,
through :func:`repro.sim.openloop.drive_open_loop`) so the channel is
measured in isolation.  The signal is what the sender adds: the
receiver's latency beside the sender minus its latency, probe for probe,
beside a silent sender.  A receiver whose own probes outrun its slot
rate sees its latency ramp either way, and the difference cancels that
ramp.  The result carries the signal, the decoded bits, and the bit
error rate.
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
    #: Per bit window, the receiver's mean latency beside the sender
    #: minus its mean latency beside a silent sender (the same probes).
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
    domains are silent.  The receiver's probes run twice, with the same
    seed: beside the sender and beside a silent sender.  Decoding reads
    the per-window difference between the two runs.
    """
    config = config or SystemConfig()
    if bits is None:
        rng_bits = random.Random(seed)
        bits = tuple(rng_bits.randrange(2) for _ in range(32))
    bits = tuple(int(b) for b in bits)
    partition = partition_for(scheme, config)
    total_cycles = window * len(bits)

    def receiver_means(sent: Sequence[int]) -> List[float]:
        rng = random.Random(seed)
        requests: List[Request] = []
        # Receiver probes: random lines so the baseline cannot hide them
        # in row hits.  They are drawn first, so both runs share them.
        t = 0
        while t < total_cycles:
            line = rng.randrange(1 << 16)
            requests.append(Request(
                op=OpType.READ, address=partition.decode(0, line),
                domain=0, arrival=t, line=line,
            ))
            t += probe_period
        # Sender bursts during 1 windows.
        for index, bit in enumerate(sent):
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
        controller = build_controller(
            scheme, config, partition, SchemeOptions()
        )
        # Stop measuring if the scheduler cannot keep up.
        released, _ = drive_open_loop(
            controller, requests, stop_after=total_cycles * 50
        )
        return window_latency_means(released, window, len(bits))

    excess = [
        loud - quiet for loud, quiet in
        zip(receiver_means(bits), receiver_means((0,) * len(bits)))
    ]
    return CovertChannelResult(
        scheme=scheme,
        sent_bits=bits,
        decoded_bits=threshold_decode(excess),
        window_means=tuple(excess),
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


def is_flat(window_means: Sequence[float]) -> bool:
    """A signal whose swing is below 1e-9 (the FS case) carries
    nothing."""
    return not window_means or max(window_means) - min(window_means) < 1e-9


def threshold_decode(window_means: Sequence[float]) -> Tuple[int, ...]:
    """Decode with the optimal single threshold: the midpoint between the
    two latency clusters (sender-agnostic).

    A flat signal (:func:`is_flat`) decodes to all zeros; a window mean
    exactly *at* the threshold is not ``>`` it and also decodes to 0.
    """
    if is_flat(window_means):
        return tuple(0 for _ in window_means)
    threshold = (min(window_means) + max(window_means)) / 2.0
    return tuple(1 if m > threshold else 0 for m in window_means)
