"""Open-loop driving: a bare controller fed a fixed request stream.

The closed-loop drivers (:class:`~repro.sim.system.System` and
:class:`~repro.sim.fastpath.FastSystem`) let cores emit requests as
earlier ones complete.  The bandwidth-latency curve, the covert channel
and the exhaustive non-interference check instead feed a controller a
stream fixed in advance, with no cores and no back-pressure.  This is
the one loop that does it, for either engine's controllers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..controllers.base import MemoryController
from ..dram.commands import Request


def drive_open_loop(
    controller: MemoryController,
    requests: Sequence[Request],
    stop_after: Optional[int] = None,
) -> Tuple[List[Request], int]:
    """Deliver ``requests`` on time and run ``controller`` dry.

    Requests are enqueued in arrival order; a stable sort keeps those
    arriving in the same cycle in list order.  The clock jumps to the
    sooner of ``controller.next_event()`` and the next arrival, and the
    run ends once every request is delivered and the controller is no
    longer :meth:`~repro.controllers.base.MemoryController.busy`, or
    after the first advance past ``stop_after``.

    Returns the released requests in release order and the last cycle
    advanced to (``controller.now``; 0 if nothing ever ran).
    """
    requests = sorted(requests, key=lambda r: r.arrival)
    released: List[Request] = []
    clock, idx = 0, 0
    while idx < len(requests) or controller.busy():
        nxt = controller.next_event()
        arrival = requests[idx].arrival if idx < len(requests) else None
        candidates = [c for c in (nxt, arrival) if c is not None]
        if not candidates:
            break
        clock = max(clock + 1, min(candidates))
        while idx < len(requests) and requests[idx].arrival <= clock:
            controller.enqueue(requests[idx])
            idx += 1
        released.extend(controller.advance(clock))
        if stop_after is not None and clock > stop_after:
            break
    return released, clock
