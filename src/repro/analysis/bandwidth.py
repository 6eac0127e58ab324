"""Bandwidth-latency characterization of memory schedulers.

The classic memory-system curve: drive a controller open-loop at a fixed
offered load and measure sustained bandwidth and mean latency.  As the
offered load approaches a scheduler's capacity the latency knee appears;
for FS the knee sits exactly at the pipeline's per-domain slot rate,
which is how the paper's "theoretical peak bandwidth" numbers become
measurable facts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dram.commands import OpType, Request
from ..sim.config import SystemConfig
from ..sim.openloop import drive_open_loop
from ..sim.runner import SchemeOptions, build_controller, partition_for


@dataclass(frozen=True)
class LoadPoint:
    """One point of a bandwidth-latency curve."""

    scheme: str
    #: Offered load: requests per domain per 100 cycles.
    offered_per_100: float
    #: Sustained data-bus utilization.
    utilization: float
    #: Mean demand-read latency in cycles.
    mean_latency: float
    #: Fraction of offered requests completed inside the measurement.
    completion: float


def measure_load_point(
    scheme: str,
    offered_per_100: float,
    duration: int = 30_000,
    read_fraction: float = 0.7,
    config: Optional[SystemConfig] = None,
    seed: int = 11,
) -> LoadPoint:
    """Drive ``scheme`` open-loop at a fixed injection rate."""
    if offered_per_100 <= 0:
        raise ValueError("offered load must be positive")
    config = config or SystemConfig()
    options = SchemeOptions()
    partition = partition_for(scheme, config)
    controller = build_controller(scheme, config, partition, options)
    rng = random.Random(seed)
    period = 100.0 / offered_per_100
    requests: List[Request] = []
    for domain in range(config.num_cores):
        t = rng.uniform(0, period)
        while t < duration:
            line = rng.randrange(1 << 18)
            op = OpType.READ if rng.random() < read_fraction \
                else OpType.WRITE
            requests.append(Request(
                op=op, address=partition.decode(domain, line),
                domain=domain, arrival=int(t), line=line,
            ))
            t += period
    # Creation order is req_id order, so the driver's stable sort by
    # arrival enqueues same-cycle requests by (arrival, req_id).  The
    # bound lets the queues drain after the last arrival.
    released, clock = drive_open_loop(
        controller, requests, stop_after=duration * 4
    )

    reads = [r for r in released if r.latency is not None]
    offered_reads = sum(1 for r in requests if r.is_read)
    mean_latency = (
        sum(r.latency for r in reads) / len(reads) if reads else 0.0
    )
    return LoadPoint(
        scheme=scheme,
        offered_per_100=offered_per_100,
        utilization=controller.dram.bus_utilization(max(clock, 1)),
        mean_latency=mean_latency,
        completion=len(reads) / offered_reads if offered_reads else 0.0,
    )


def bandwidth_latency_curve(
    scheme: str,
    loads: Sequence[float] = (0.2, 0.5, 1.0, 1.5, 2.0, 3.0),
    **kwargs,
) -> List[LoadPoint]:
    """The full curve for one scheme; loads in requests/domain/100cyc."""
    return [
        measure_load_point(scheme, load, **kwargs) for load in loads
    ]


def saturation_bandwidth(points: Sequence[LoadPoint]) -> float:
    """Highest sustained utilization across a measured curve."""
    if not points:
        raise ValueError("need points")
    return max(p.utilization for p in points)
