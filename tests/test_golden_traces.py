"""Golden-trace fixtures: the simulator's output, pinned bit-for-bit.

Each fixture under ``tests/golden/`` records every observable of one
small simulation — run length, statistics, per-domain service trace,
per-core results, energy, and a digest of the full command trace.  The
tests re-run the simulation and demand byte-identical output, which
locks in three properties at once:

* **Process determinism** — nothing in the pipeline depends on
  ``PYTHONHASHSEED`` (trace synthesis derives per-workload offsets from
  a CRC, not ``hash()``), dict iteration order, or wall-clock state.
* **Seed stability** — a config's behaviour is a pure function of its
  explicit ``(spec, accesses, seed)`` inputs.
* **Historical stability** — a refactor that changes any scheduling
  decision shows up as a loud diff here even if it is self-consistent
  across engines.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py \
        --regen-golden

and commit the updated JSON alongside the change that explains it.
The runs use the fast engine (the differential suite pins fast ==
reference separately, so one engine's golden data covers both).

The Fixed Service fixtures are re-run with the command log off too:
the fast FS controllers then settle their DRAM counters in closed form
instead of issuing each command, and every field but the command-log
ones must still equal the pinned JSON.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.workloads.spec import suite_specs

from .engine_equivalence import MAX_CYCLES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: (name, scheme, workload, cores, accesses, seed)
CASES = [
    ("fs_rp_mix1", "fs_rp", "mix1", 8, 120, 0),
    ("fs_reordered_bp_mcf", "fs_reordered_bp", "mcf", 8, 100, 0),
    ("fs_np_ta_mix1", "fs_np_ta", "mix1", 8, 100, 0),
    ("tp_bp_milc", "tp_bp", "milc", 8, 100, 0),
    ("baseline_libquantum_4core", "baseline", "libquantum", 4, 100, 3),
]


#: Snapshot fields derived from the command log.
COMMAND_LOG_FIELDS = (
    "command_count", "command_trace_sha256", "command_trace_head",
)


def _snapshot(scheme, workload, cores, accesses, seed, log_commands=True):
    """One run's complete observable record, JSON-serializable."""
    config = SystemConfig(accesses_per_core=accesses, seed=seed)
    if cores != config.num_cores:
        config = config.with_cores(cores)
    system = build_system(
        scheme, config, suite_specs(workload, cores),
        SchemeOptions(log_commands=log_commands), engine="fast",
    )
    result = system.run(max_cycles=MAX_CYCLES)
    controller = system.controller
    commands = [
        (c.type.value, c.cycle, c.channel, c.rank, c.bank, c.row,
         c.domain)
        for c in controller.command_log
    ]
    digest = hashlib.sha256(
        "\n".join(",".join(map(str, c)) for c in commands)
        .encode("ascii")
    ).hexdigest()
    return {
        "scheme": scheme,
        "workload": workload,
        "cores": cores,
        "accesses": accesses,
        "seed": seed,
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "service_trace": {
            str(domain): events
            for domain, events in sorted(result.service_trace.items())
        },
        "cores_result": [
            {
                "domain": c.domain,
                "workload": c.workload,
                "instructions": c.instructions,
                "reads_completed": c.reads_completed,
                "ipc": c.ipc,
                "done": c.done,
            }
            for c in result.cores
        ],
        "bus_utilization": result.bus_utilization,
        "energy": dataclasses.asdict(result.energy),
        "command_count": len(commands),
        "command_trace_sha256": digest,
        # A human-readable prefix so fixture diffs localize the drift.
        "command_trace_head": commands[:32],
    }


def _canonical(snapshot) -> str:
    return json.dumps(snapshot, indent=1, sort_keys=True)


@pytest.mark.parametrize(
    "name,scheme,workload,cores,accesses,seed", CASES,
    ids=[case[0] for case in CASES],
)
def test_golden_trace(name, scheme, workload, cores, accesses, seed,
                      regen_golden):
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    snapshot = _canonical(
        _snapshot(scheme, workload, cores, accesses, seed)
    )
    if regen_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(snapshot + "\n")
        return
    assert os.path.exists(path), (
        f"missing golden fixture {path}; generate it with "
        f"pytest tests/test_golden_traces.py --regen-golden"
    )
    with open(path) as handle:
        golden = handle.read().rstrip("\n")
    assert snapshot == golden, (
        f"{name}: simulator output drifted from the golden fixture; "
        f"if the change is intentional, regenerate with --regen-golden "
        f"and commit the diff"
    )


FS_CASES = [case for case in CASES if case[1].startswith("fs_")]


@pytest.mark.parametrize(
    "name,scheme,workload,cores,accesses,seed", FS_CASES,
    ids=[case[0] for case in FS_CASES],
)
def test_golden_trace_logs_off(name, scheme, workload, cores, accesses,
                               seed):
    """Closed-form settlement reproduces the pinned fixture: every field
    except the command-log ones, which a run without a log cannot
    have."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as handle:
        golden = json.load(handle)
    snapshot = json.loads(_canonical(
        _snapshot(scheme, workload, cores, accesses, seed,
                  log_commands=False)
    ))
    assert snapshot["command_count"] == 0
    for field in COMMAND_LOG_FIELDS:
        del golden[field], snapshot[field]
    assert snapshot == golden, (
        f"{name}: the closed-form run drifted from the golden fixture"
    )
