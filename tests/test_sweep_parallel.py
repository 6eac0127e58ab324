"""Multiprocess sweep execution: determinism and crash isolation.

The contract under test (the tentpole's payoff):

* ``workers=N`` produces a **byte-identical** checkpoint and identical
  (non-volatile) merged metrics snapshots to ``workers=1``, on both
  simulation engines;
* a worker that dies *hard* (``os._exit`` — no exception, pool broken)
  is isolated into ``failed_points`` while completed cells stay
  checkpointed, and a fresh sweep resumes from that checkpoint to the
  same final table a serial run produces;
* user-registered schemes ship to workers via their picklable spec.
"""

import json
import os

import pytest

from repro.errors import ConfigError, ReproError
from repro.schemes import REGISTRY, SchemeSpec
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions
from repro.sim.sweep import Sweep

from .crashing_scheme import CRASH_ENV

CFG = SystemConfig(num_cores=4, accesses_per_core=60).with_cores(4)

GRID_SCHEMES = ["fs_rp", "tp_bp", "fcfs"]
GRID_WORKLOADS = ["mcf", "milc"]

CRASH_SPEC = SchemeSpec(
    name="crash_fcfs",
    description="hard-kills its worker process when armed",
    family="fcfs",
    partitioning="none",
    controller="tests.crashing_scheme.CrashingFcfsController",
    secure=False,
)


def _run(tmp_path, name, workers, engine="fast", schemes=GRID_SCHEMES,
         workloads=GRID_WORKLOADS, **kwargs):
    checkpoint = str(tmp_path / f"{name}.json")
    sweep = Sweep(
        CFG, max_cycles=2_000_000, checkpoint=checkpoint,
        workers=workers, engine=engine, **kwargs,
    )
    sweep.run_grid(schemes, workloads)
    return sweep, checkpoint


class TestWorkerDeterminism:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_parallel_checkpoint_is_byte_identical(
        self, tmp_path, engine
    ):
        serial, ck1 = _run(tmp_path, "serial", 1, engine=engine)
        parallel, ck4 = _run(tmp_path, "par", 4, engine=engine)
        with open(ck1, "rb") as a, open(ck4, "rb") as b:
            assert a.read() == b.read()
        assert serial.points == parallel.points
        assert not serial.failed_points
        assert not parallel.failed_points

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_merged_metrics_snapshots_identical(self, tmp_path, engine):
        serial, _ = _run(
            tmp_path, "serial_m", 1, engine=engine,
            collect_telemetry=True,
        )
        parallel, _ = _run(
            tmp_path, "par_m", 4, engine=engine,
            collect_telemetry=True,
        )
        snap_serial = serial.metrics_registry().snapshot()
        snap_parallel = parallel.metrics_registry().snapshot()
        assert snap_serial == snap_parallel
        # The per-cell registries actually collected something.
        assert serial.cell_registry.snapshot()
        assert serial.cell_registry.snapshot() == \
            parallel.cell_registry.snapshot()

    def test_wall_clock_recorded_as_volatile_gauge(self, tmp_path):
        sweep, _ = _run(tmp_path, "wall", 2)
        assert sweep.last_grid_wall_s is not None
        assert sweep.last_grid_wall_s > 0
        registry = sweep.metrics_registry()
        exported = json.loads(registry.to_json())
        assert "sweep_wall_seconds" in exported["metrics"]
        assert "sweep_workers" in exported["metrics"]
        # Volatile: excluded from the determinism snapshot.
        snap = registry.snapshot()
        assert "sweep_wall_seconds" not in snap
        assert "sweep_workers" not in snap

    def test_span_trace_byte_identical_across_worker_counts(
        self, tmp_path
    ):
        """``--workers 4`` with spans armed merges into the same
        Chrome trace a serial grid writes, modulo ``wall_*`` args —
        and arming spans leaves the checkpoint bytes untouched."""
        import io

        from repro.telemetry import scrub_volatile_args

        traces = {}
        checkpoints = {}
        for workers in (1, 4):
            sweep, ck = _run(
                tmp_path, f"spans{workers}", workers,
                collect_spans=True,
            )
            buf = io.StringIO()
            exported = sweep.export_trace(buf)
            assert exported == len(sweep.tracer.records)
            assert exported > 0
            payload = scrub_volatile_args(json.loads(buf.getvalue()))
            traces[workers] = json.dumps(payload, sort_keys=True)
            with open(ck, "rb") as handle:
                checkpoints[workers] = handle.read()
        assert traces[1] == traces[4], \
            "merged span trace diverged across worker counts"
        assert checkpoints[1] == checkpoints[4]
        # Spans never leak into the checkpoint: a disarmed run's
        # checkpoint is byte-identical.
        _, ck_bare = _run(tmp_path, "nospans", 4)
        with open(ck_bare, "rb") as handle:
            assert handle.read() == checkpoints[4]

    def test_span_collection_does_not_change_metrics(self, tmp_path):
        """Spans and telemetry compose: the merged metrics snapshot is
        unchanged by arming span collection."""
        bare, _ = _run(
            tmp_path, "m_bare", 4, collect_telemetry=True,
        )
        spanned, _ = _run(
            tmp_path, "m_spans", 4, collect_telemetry=True,
            collect_spans=True,
        )
        assert bare.metrics_registry().snapshot() == \
            spanned.metrics_registry().snapshot()
        assert spanned.tracer.records

    def test_export_trace_requires_collection(self, tmp_path):
        from repro.errors import TelemetryError

        sweep, _ = _run(tmp_path, "notrace", 1)
        with pytest.raises(TelemetryError, match="collect_spans"):
            sweep.export_trace(str(tmp_path / "t.json"))

    def test_options_ride_into_workers(self, tmp_path):
        serial, _ = _run(
            tmp_path, "opt_s", 1, schemes=["tp_bp"],
        )
        # Same scheme with a different turn length must differ, proving
        # the options block reached the worker.
        sweep = Sweep(CFG, max_cycles=2_000_000, workers=2)
        sweep.run_grid(
            ["tp_bp"], GRID_WORKLOADS,
            options=SchemeOptions(turn_length=200),
        )
        assert sweep.points[0].cycles != serial.points[0].cycles

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError, match="workers"):
            Sweep(CFG, workers=0)

    def test_session_options_rejected_in_parallel(self):
        from repro.telemetry import TelemetrySession

        sweep = Sweep(CFG, workers=2)
        with pytest.raises(ConfigError, match="telemetry"):
            sweep.run_grid(
                ["fcfs"], ["mcf"],
                options=SchemeOptions(telemetry=TelemetrySession()),
            )

    def test_tracer_options_rejected_in_parallel(self):
        """A parallel grid is traced with collect_spans=True; a tracer
        in the options cannot reach worker processes."""
        from repro.telemetry import SpanTracer

        sweep = Sweep(CFG, workers=2)
        with pytest.raises(ConfigError, match="collect_spans"):
            sweep.run_grid(
                ["fcfs"], ["mcf"],
                options=SchemeOptions(tracer=SpanTracer()),
            )
        assert not sweep.points and not sweep.failed_points


class TestCustomSchemeTransport:
    @pytest.fixture(autouse=True)
    def _crash_spec_unarmed(self):
        REGISTRY.register(CRASH_SPEC)
        yield
        REGISTRY.unregister("crash_fcfs")

    def test_user_spec_ships_to_workers(self, tmp_path):
        # Unarmed, the crash controller is plain FCFS registered only in
        # this (parent) process; workers must learn it from the payload.
        assert os.environ.get(CRASH_ENV) != "1"
        sweep, _ = _run(
            tmp_path, "custom", 2, schemes=["crash_fcfs", "fcfs"],
            workloads=["mcf"],
        )
        assert not sweep.failed_points
        by_scheme = {p.scheme: p for p in sweep.points}
        assert by_scheme["crash_fcfs"].cycles == \
            by_scheme["fcfs"].cycles  # same controller behaviour

    def test_unknown_scheme_isolated_not_fatal(self, tmp_path):
        sweep, _ = _run(
            tmp_path, "unknown", 2,
            schemes=["fcfs", "no_such_scheme"], workloads=["mcf"],
        )
        assert [p.scheme for p in sweep.points] == ["fcfs"]
        assert [f.scheme for f in sweep.failed_points] == \
            ["no_such_scheme"]
        assert sweep.failed_points[0].error_type == "SchemeError"

    def test_strict_mode_reraises_worker_failure(self):
        sweep = Sweep(CFG, workers=2, strict=True)
        with pytest.raises(ReproError):
            sweep.run_grid(["no_such_scheme"], ["mcf"])


class TestCrashIsolationAndResume:
    @pytest.fixture(autouse=True)
    def _crash_spec(self):
        REGISTRY.register(CRASH_SPEC)
        yield
        REGISTRY.unregister("crash_fcfs")

    def test_hard_worker_crash_isolated_then_resumed(
        self, tmp_path, monkeypatch
    ):
        schemes = ["fcfs", "crash_fcfs", "fs_rp"]
        workloads = ["mcf"]
        checkpoint = str(tmp_path / "crash.json")

        # Round 1: armed.  The crash worker dies via os._exit and
        # breaks the pool; the grid must record failures instead of
        # raising, and keep whatever completed in the checkpoint.
        monkeypatch.setenv(CRASH_ENV, "1")
        first = Sweep(
            CFG, max_cycles=2_000_000, checkpoint=checkpoint,
            workers=2, engine="fast",
        )
        first.run_grid(schemes, workloads)  # must not raise
        failed = {f.scheme for f in first.failed_points}
        assert "crash_fcfs" in failed
        assert len(first.points) + len(first.failed_points) == 3
        assert os.path.exists(checkpoint)

        # Round 2: disarmed.  A fresh sweep resumes from the checkpoint
        # and completes every cell (including the former crasher, which
        # now behaves as plain FCFS).
        monkeypatch.delenv(CRASH_ENV)
        second = Sweep(
            CFG, max_cycles=2_000_000, checkpoint=checkpoint,
            workers=2, engine="fast",
        )
        already_done = {p.scheme for p in second.points}
        carried_failures = len(second.failed_points)  # checkpointed
        second.run_grid(schemes, workloads)
        # No NEW failures (the round-1 records stay in the checkpoint
        # as history); every cell — including the former crasher, now
        # plain FCFS — completed.
        assert len(second.failed_points) == carried_failures
        assert {p.scheme for p in second.points} == set(schemes)

        # Resumed cells were NOT re-simulated: the checkpointed rows
        # survive verbatim, and every final value matches a from-scratch
        # serial reference run.
        reference = Sweep(
            CFG, max_cycles=2_000_000, workers=1, engine="fast",
        )
        reference.run_grid(schemes, workloads)
        ref = {p.scheme: p for p in reference.points}
        got = {p.scheme: p for p in second.points}
        assert set(got) == set(ref)
        for name in ref:
            assert got[name] == ref[name], name
        assert already_done <= {p.scheme for p in second.points}
