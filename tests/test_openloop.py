"""The open-loop driver, :func:`repro.sim.drive_open_loop`, on both
engines.

Open-loop streams reach what the closed-loop differential suite does
not: queues deeper than any core's back-pressure allows, and the
closed-form FS settlement of a run cut off mid-stream.
"""

import dataclasses
import random

import pytest

from repro.dram.commands import OpType, Request
from repro.dram.power import PowerModel
from repro.sim import (
    SCHEMES, SchemeOptions, SystemConfig, build_controller,
    drive_open_loop, partition_for,
)

from .engine_equivalence import dram_counters

DURATION = 4000


def _setup(scheme, load=0.5, engine="reference", log_commands=False):
    """A controller and a bandwidth-curve stream: each domain offers
    ``load`` requests per 100 cycles for ``DURATION`` cycles, from a
    random phase, 70% of them reads."""
    config = SystemConfig()
    partition = partition_for(scheme, config)
    controller = build_controller(
        scheme, config, partition,
        SchemeOptions(log_commands=log_commands), engine=engine,
    )
    rng = random.Random(11)
    requests = []
    for domain in range(config.num_cores):
        t = rng.uniform(0, 100 / load)
        while t < DURATION:
            line = rng.randrange(1 << 18)
            op = OpType.READ if rng.random() < 0.7 else OpType.WRITE
            requests.append(Request(
                op=op, address=partition.decode(domain, line),
                domain=domain, arrival=int(t), line=line,
            ))
            t += 100 / load
    return controller, requests, partition


def _observe(scheme, engine, load, log_commands):
    controller, requests, _ = _setup(scheme, load, engine, log_commands)
    released, clock = drive_open_loop(controller, requests, 4 * DURATION)
    controller.finalize()
    # ``req_id`` comes from a process-global counter: compared without.
    return {
        "clock": clock,
        "released": [(r.domain, r.arrival, r.release) for r in released],
        "service_trace": controller.service_trace,
        "stats": dataclasses.asdict(controller.stats),
        "energy": PowerModel(controller.params).system_energy(
            controller.dram
        ),
        "dram_counters": dram_counters(controller),
        "commands": [
            (c.type, c.cycle, c.channel, c.rank, c.bank, c.row, c.domain)
            for c in controller.command_log
        ],
    }


@pytest.mark.parametrize("log_commands", [True, False],
                         ids=["log", "nolog"])
@pytest.mark.parametrize("load", [0.5, 3.0])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_engines_agree_open_loop(scheme, load, log_commands):
    reference = _observe(scheme, "reference", load, log_commands)
    fast = _observe(scheme, "fast", load, log_commands)
    assert reference["released"]
    assert bool(reference["commands"]) == log_commands
    for key, expected in reference.items():
        assert fast[key] == expected, f"{key} diverged"


def test_stops_at_first_advance_past_bound():
    # fs_np cannot keep up with this stream, so the bound cuts it.
    controller, requests, _ = _setup("fs_np", load=3.0)
    advanced = []
    advance = controller.advance

    def recording(until):
        advanced.append(until)
        return advance(until)

    controller.advance = recording
    released, clock = drive_open_loop(controller, requests, DURATION)
    assert clock == controller.now == advanced[-1] > DURATION
    assert max(advanced[:-1]) <= DURATION
    assert controller.busy()
    releases = [r.release for r in released]
    assert releases == sorted(releases) and releases[-1] <= clock


def test_same_cycle_arrivals_enqueue_in_list_order():
    controller, _, partition = _setup("baseline")
    order = []
    enqueue = controller.enqueue

    def recording(request):
        order.append(request.domain)
        enqueue(request)

    controller.enqueue = recording
    arrivals = [(3, 5), (1, 5), (2, 0), (0, 5), (4, 9), (5, 5)]
    drive_open_loop(controller, [
        Request(op=OpType.READ, address=partition.decode(d, 64 * d),
                domain=d, arrival=t, line=64 * d)
        for d, t in arrivals
    ])
    assert order == [2, 3, 1, 0, 5, 4]


@pytest.mark.parametrize("scheme", ["baseline", "fs_rp", "fs_rp_mc"])
def test_empty_stream_never_advances(scheme):
    # An FS timetable always has a next slot, but a controller with
    # nothing queued and nothing to deliver is not busy.
    controller, _, _ = _setup(scheme)
    assert drive_open_loop(controller, []) == ([], 0)
    assert controller.now == 0
