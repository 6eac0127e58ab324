"""The benchmark's own tests, at the ``tiny`` scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

run.import_program()

PINNED_SEEDS = (wl.DEFAULT_SEED, wl.HELD_OUT_SEED)


def bench(workload, seed=wl.DEFAULT_SEED, trace=False, expected=None):
    """One round of ``workload`` at the tiny scale."""
    return run.benchmark(
        workload, seed, seconds=0.0, trace=trace, scale="tiny",
        expected=expected, setup_children=0,
    )


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_untraced_run_prints_every_end_to_end_metric(workload, seed,
                                                     declared):
    result, report = bench(workload, seed)
    assert wl.pinned_for(wl.load_expected(), "tiny", workload, seed)
    assert result["failed"] == 0 and result["correct"], report
    assert result["attempted"] >= len(wl.SCALES["tiny"][workload].ops())
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in list(want) + ["run_s.p50", "sim_cycles_per_s",
                              "failed_ratio"]:
        assert name in report


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(workload, declared):
    result, report = bench(workload, trace=True)
    assert result["failed"] == 0, report
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert "self time by layer" in report
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Each workload bypasses the other's mechanism.
    if workload == "fs-steady":
        assert metrics["core.advance_s"] > 0
        assert metrics["controllers.advance_s"] == 0
        assert metrics["exec.jobs"] == 0
    elif workload == "dynamic-rw":
        assert metrics["controllers.advance_s"] > 0
        assert metrics["core.advance_s"] == 0
        assert metrics["dram.checked_ratio"] == 1.0
    else:
        assert metrics["certify.world_runs"] > 0
        assert metrics["exec.jobs"] == len(
            wl.SCALES["tiny"][workload].ops()
        ) * wl.SCALES["tiny"][workload].strategies
        assert metrics["certify.exact_ratio"] == 0.5


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
def test_altered_expected_digest_fails_every_operation(workload):
    expected = copy.deepcopy(wl.load_expected())
    pins = expected["tiny"][workload][str(wl.DEFAULT_SEED)]
    for name, check in pins.items():
        if isinstance(check, str):
            pins[name] = "0" + check[1:] if check[0] != "0" \
                else "1" + check[1:]
        else:
            check[0][3] = not check[0][3]
    result, report = bench(workload, expected=expected)
    assert result["failed"] == result["attempted"], report
    assert not result["correct"]
    assert "differs from the pinned value" in report


def test_traced_self_times_are_nonnegative_and_within_wall_time():
    tracer = tracing.LayerTracer()
    tracer.trace_exec(serial=True)
    tracer.trace_layers()
    try:
        for name in ("fs-steady", "dynamic-rw", "certify-batch"):
            workload = wl.SCALES["tiny"][name]
            loop = run.Loop(workload, wl.DEFAULT_SEED,
                            wl.Checker(None), 1)
            start = time.perf_counter_ns()
            loop.rounds(0.0, tracer=tracer, workers=1)
            wall = time.perf_counter_ns() - start
            loop.cleanup()
            assert loop.failed == 0, loop.checker.failures
            assert all(ns >= 0 for ns in tracer.self_ns.values())
            assert sum(tracer.self_ns.values()) <= wall
            tracer.self_ns.clear()
    finally:
        tracer.restore()


def test_tracing_changes_no_simulated_statistic():
    from repro.sim import runner

    original = runner.build_system
    workload = wl.SCALES["tiny"]["fs-steady"]
    op = workload.ops()[0]
    plain = wl.run_engine_op(workload, op, wl.DEFAULT_SEED)
    tracer = tracing.LayerTracer()
    tracer.trace_layers()
    try:
        traced = wl.run_engine_op(workload, op, wl.DEFAULT_SEED)
    finally:
        tracer.restore()
    assert runner.build_system is original
    assert tracer.n("sim.driver") == 1
    assert traced.check == plain.check


def test_chrome_trace_spans_have_parents_and_operation_ids(tmp_path):
    tracer = tracing.LayerTracer(max_spans=50)
    tracer.trace_layers()
    workload = wl.SCALES["tiny"]["fs-steady"]
    try:
        with tracer.op(0, "op"):
            wl.run_engine_op(workload, workload.ops()[0], wl.DEFAULT_SEED)
    finally:
        tracer.restore()
    assert tracer.dropped > 0  # the cap keeps memory bounded
    path = tmp_path / "trace.json"
    tracing.write_chrome_trace(str(path), {"layers": tracer}, {})
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 50
    ids = {e["args"]["id"] for e in spans}
    assert all(e["args"]["op"] == 0 for e in spans)
    assert all(e["dur"] >= 0 for e in spans)
    assert any(e["args"]["parent"] in ids for e in spans)


def test_command_needs_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fs-steady",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_certify_run_leaves_no_process_behind():
    """The spawn pool's workers and resource tracker end before exit."""
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "certify-batch",
         "--seed", "7", "--seconds", "0", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    out, _ = child.communicate(timeout=170)
    assert child.returncode == 0
    assert json.loads(out.decode().splitlines()[-1])["correct"]
    left = []
    for entry in os.listdir("/proc"):
        try:
            if entry.isdigit() and os.getsid(int(entry)) == child.pid:
                left.append(int(entry))
        except OSError:
            pass
    assert left == []
