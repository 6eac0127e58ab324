"""Queued-transaction counts of the dynamic schedulers against a recount.

``pending()`` with no domain is a running count in FR-FCFS (kept by
``enqueue`` and ``_issue_candidate``) and in the fast TP controller.
The fast driver reads it on every stride to choose its granularity, so a
count that drifts upward only slows the driver down: the differential
suite, which compares observables, would not notice.  These runs
recount the queues after every ``enqueue`` and ``advance`` instead.
"""

import pytest

from repro.controllers.frfcfs import FrFcfsController
from repro.controllers.tp import TemporalPartitioningController
from repro.sim.config import SystemConfig
from repro.sim.runner import build_system
from repro.workloads.spec import suite_specs


def _recount(controller) -> int:
    if isinstance(controller, FrFcfsController):
        return sum(len(q) for q in controller._reads + controller._writes)
    assert isinstance(controller, TemporalPartitioningController)
    return sum(len(q) for q in controller._queues.values())


@pytest.mark.parametrize("workload", ["mix1", "lbm"])
@pytest.mark.parametrize("scheme", ["baseline", "tp_bp"])
def test_pending_matches_recount(scheme, workload):
    config = SystemConfig(num_cores=8, accesses_per_core=100)
    system = build_system(
        scheme, config, suite_specs(workload, 8), engine="fast"
    )
    controller = system.controller
    seen = []

    def recounted(method):
        def call(*args):
            result = method(*args)
            count = controller.pending()
            assert count == _recount(controller)
            assert count == sum(
                controller.pending(d)
                for d in range(controller.num_domains)
            )
            seen.append(count)
            return result
        return call

    controller.enqueue = recounted(controller.enqueue)
    controller.advance = recounted(controller.advance)
    result = system.run()
    assert all(core.done for core in result.cores)
    assert max(seen) > 1, "the queues never held more than one request"
