"""The execution substrate (:mod:`repro.exec`) and its consumers.

Four groups of properties:

* **unit contracts** — worker-count validation, the checkpoint store's
  atomic/versioned/keyed/corrupt-vs-incompatible rules, and the job
  shim's uniform failure capture;
* **runner determinism** — submission-order merging (serial vs
  parallel byte-identity), per-job failure isolation including hard
  worker death, pre-resolved failures, lazy-serial/eager-parallel
  auxiliaries, wall-clock budgets;
* **kill/resume** — a batch killed mid-run (its checkpoint holds a
  prefix of the merges) resumes to byte-identical final checkpoints and
  artifacts, parameterized over all three consumers (sweep, certify,
  bench) and both engines.  The merged span *trace* of a resumed run is
  deliberately not byte-compared: skipped (already-checkpointed) cells
  produce no spans, so only uninterrupted runs' traces are comparable —
  that property is pinned by the per-consumer parallel tests instead;
* **layering** — AST-level import lint: ``repro.exec`` imports nothing
  from ``repro.sim`` / ``repro.certify`` / ``repro.bench``, and
  ``repro.certify`` no longer reaches into ``repro.sim.sweep``
  (mirrors the CI grep gate).
"""

import ast
import dataclasses
import io
import json
import os

import pytest

from repro.errors import ConfigError, ExecError, ReproError
from repro.exec import (
    SPANS_KEY,
    CheckpointStore,
    JobSpec,
    failure_result,
    result_from_wire,
    run_job,
    run_jobs,
    validate_workers,
)

from .crashing_scheme import CRASH_ENV, crashing_job

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro",
)


# ----------------------------------------------------------------------
# Module-level job functions (spawn-picklable).
# ----------------------------------------------------------------------

def _double(payload):
    return {"doubled": payload["x"] * 2}


def _boom(payload):
    raise ValueError(f"boom {payload['x']}")


def _with_spans(payload):
    return {"v": payload["x"], SPANS_KEY: [("span", payload["x"])]}


#: Serial-mode auxiliary execution counter (in-process only).
_AUX_CALLS = {"n": 0}


def _counting_aux(payload):
    _AUX_CALLS["n"] += 1
    return {"aux": payload["x"]}


def _jobs(n, fn=_double):
    return [
        JobSpec(key=i, fn=fn, payload={"x": i}) for i in range(n)
    ]


# ----------------------------------------------------------------------
# Unit contracts.
# ----------------------------------------------------------------------

class TestValidateWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 16])
    def test_valid(self, workers):
        assert validate_workers(workers) == workers

    @pytest.mark.parametrize(
        "workers", [0, -1, True, False, 1.5, "2", None]
    )
    def test_invalid(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            validate_workers(workers)


class TestCheckpointStore:
    def test_roundtrip_with_envelope(self, tmp_path):
        path = str(tmp_path / "ck.json")
        store = CheckpointStore(path, 3)
        store.save({"rows": [1, 2]})
        assert store.load() == {"version": 3, "rows": [1, 2]}
        with open(path) as handle:
            raw = json.load(handle)
        assert list(raw)[0] == "version"  # envelope key first

    def test_no_path_disables_persistence(self, tmp_path):
        store = CheckpointStore(None, 1)
        store.save({"rows": []})  # no-op, no crash
        assert store.load() is None

    def test_missing_file_is_fresh(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "absent.json"), 1)
        assert store.load() is None

    def test_fresh_flag_discards_existing(self, tmp_path):
        path = str(tmp_path / "ck.json")
        CheckpointStore(path, 1).save({"rows": [1]})
        assert CheckpointStore(path, 1, fresh=True).load() is None

    def test_version_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "ck.json")
        CheckpointStore(path, 1).save({"rows": [1]})
        assert CheckpointStore(path, 2).load() is None

    def test_batch_key_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "ck.json")
        CheckpointStore(path, 1, batch_key="a").save({"rows": [1]})
        assert CheckpointStore(path, 1, batch_key="b").load() is None
        got = CheckpointStore(path, 1, batch_key="a").load()
        assert got["rows"] == [1]

    def test_non_dict_payload_starts_fresh(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as handle:
            json.dump([1, 2, 3], handle)
        assert CheckpointStore(path, 1).load() is None

    def test_corrupt_file_raises_naming_path(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as handle:
            handle.write('{"version": 1, "rows": [tru')  # truncated
        store = CheckpointStore(path, 1)
        with pytest.raises(ExecError) as err:
            store.load()
        message = str(err.value)
        assert path in message
        assert "--fresh" in message
        # ExecError is a ReproError: the CLI reports it and exits 2.
        assert isinstance(err.value, ReproError)
        # The escape hatch works on the very same file.
        assert CheckpointStore(path, 1, fresh=True).load() is None

    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "ck.json")
        store = CheckpointStore(path, 1, tmp_prefix=".t-ckpt-")
        store.save({"rows": [1]})
        store.save({"rows": [1, 2]})
        assert sorted(os.listdir(tmp_path)) == ["ck.json"]
        assert store.load()["rows"] == [1, 2]


class TestJobShim:
    def test_success_wraps_value(self):
        spec = JobSpec(key="k", fn=_double, payload={"x": 4})
        assert run_job(spec) == {"ok": True, "value": {"doubled": 8}}

    def test_failure_captured_identically(self):
        spec = JobSpec(key="k", fn=_boom, payload={"x": 1})
        local = run_job(spec, _local=True)
        wire = run_job(spec)
        assert local["ok"] is False
        assert local["error_type"] == wire["error_type"] == "ValueError"
        assert local["error"] == wire["error"] == "boom 1"
        assert isinstance(local["exception"], ValueError)

    def test_result_from_wire_pops_span_side_channel(self):
        raw = run_job(
            JobSpec(key="k", fn=_with_spans, payload={"x": 9})
        )
        result = result_from_wire("k", raw)
        assert result.ok
        assert result.value == {"v": 9}  # SPANS_KEY popped
        assert result.spans == [("span", 9)]

    def test_failure_result_builder(self):
        result = failure_result("k", "RuntimeError", "died")
        assert not result.ok
        assert (result.error_type, result.error) == \
            ("RuntimeError", "died")


# ----------------------------------------------------------------------
# Runner determinism.
# ----------------------------------------------------------------------

def _collect(jobs, workers, **kwargs):
    """Run ``jobs`` and return the merge log in merge order."""
    merged = []
    run_jobs(
        jobs,
        lambda spec, result, _aux: merged.append(
            (spec.key, result.ok, result.value, result.error_type)
        ),
        workers=workers, **kwargs,
    )
    return merged


class TestRunJobs:
    def test_serial_and_parallel_merge_identically(self):
        jobs = _jobs(6)
        serial = _collect(jobs, 1)
        parallel = _collect(jobs, 3)
        assert serial == parallel
        assert [key for key, *_ in serial] == list(range(6))

    def test_failing_job_isolated_at_its_position(self):
        jobs = [
            JobSpec(key=0, fn=_double, payload={"x": 0}),
            JobSpec(key=1, fn=_boom, payload={"x": 1}),
            JobSpec(key=2, fn=_double, payload={"x": 2}),
        ]
        for workers in (1, 2):
            merged = _collect(jobs, workers)
            assert [key for key, *_ in merged] == [0, 1, 2]
            assert merged[1][1] is False
            assert merged[1][3] == "ValueError"
            assert merged[2][2] == {"doubled": 4}

    def test_preresolved_failure_never_executes(self):
        exc = KeyError("no such scheme")
        jobs = [JobSpec(key="bad", failure=exc)]
        for workers in (1, 2):
            merged = []
            run_jobs(
                jobs,
                lambda spec, result, _aux: merged.append(result),
                workers=workers,
            )
            (result,) = merged
            assert not result.ok
            assert result.error_type == "KeyError"
            assert result.error == str(exc)

    def test_skip_filters_before_execution(self):
        merged = _collect(_jobs(4), 1, skip=lambda job: job.key < 2)
        assert [key for key, *_ in merged] == [2, 3]

    def test_budget_diverts_to_skip_callback(self):
        skipped = []
        merged = _collect(
            _jobs(3), 1, budget_s=-1.0,
            on_budget_skip=lambda job: skipped.append(job.key),
        )
        assert merged == []
        assert skipped == [0, 1, 2]

    def test_serial_aux_is_lazy_and_memoized(self):
        _AUX_CALLS["n"] = 0
        aux = {"base": JobSpec(
            key="base", fn=_counting_aux, payload={"x": 7}
        )}
        jobs = [
            JobSpec(key=i, fn=_double, payload={"x": i},
                    requires=("base",))
            for i in range(3)
        ]
        seen = []
        run_jobs(
            jobs,
            lambda spec, result, resolve: seen.append(
                resolve("base").value
            ),
            aux=aux, workers=1,
        )
        assert seen == [{"aux": 7}] * 3
        assert _AUX_CALLS["n"] == 1  # memoized: one execution

    def test_serial_aux_never_runs_unasked(self):
        _AUX_CALLS["n"] = 0
        aux = {"base": JobSpec(
            key="base", fn=_counting_aux, payload={"x": 7}
        )}
        run_jobs(
            _jobs(2),
            lambda spec, result, resolve: None,
            aux=aux, workers=1,
        )
        assert _AUX_CALLS["n"] == 0  # lazy: nobody asked

    def test_parallel_aux_resolves_same_value(self):
        aux = {"base": JobSpec(
            key="base", fn=_double, payload={"x": 50}
        )}
        jobs = [JobSpec(key=0, fn=_double, payload={"x": 1},
                        requires=("base",))]
        seen = []
        run_jobs(
            jobs,
            lambda spec, result, resolve: seen.append(
                resolve("base").value
            ),
            aux=aux, workers=2,
        )
        assert seen == [{"doubled": 100}]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            run_jobs([], lambda *a: None, workers=0)


class TestHardCrashIsolation:
    def test_hard_death_merged_as_failure_then_resumed(
        self, tmp_path, monkeypatch
    ):
        """The generic kill/resume property, straight on the substrate:
        a worker dying via ``os._exit`` is merged as a failure at its
        position (no raise, pool breakage isolated per job), completed
        jobs stay checkpointed, and the disarmed resume finishes the
        batch to the same values an uninterrupted serial run yields."""
        jobs = [
            JobSpec(key=i, fn=crashing_job, payload={"x": i})
            for i in range(3)
        ]
        store = CheckpointStore(str(tmp_path / "ck.json"), 1)
        completed = {}

        def merge(spec, result, _aux):
            if result.ok:
                completed[str(spec.key)] = result.value
                store.save({"done": completed})

        monkeypatch.setenv(CRASH_ENV, "1")
        outcomes = []
        run_jobs(
            jobs,
            lambda spec, result, _aux: (
                outcomes.append((spec.key, result.ok)),
                merge(spec, result, _aux),
            ),
            workers=2,
        )
        assert [key for key, _ in outcomes] == [0, 1, 2]
        assert not all(ok for _, ok in outcomes)  # the crash surfaced

        monkeypatch.delenv(CRASH_ENV)
        # Resume from whatever survived (every job may have failed if
        # the crash broke the pool before any completion landed).
        completed = dict((store.load() or {}).get("done", {}))
        run_jobs(
            jobs, merge, workers=2,
            skip=lambda job: str(job.key) in completed,
        )
        assert completed == {
            str(i): {"value": i * 10} for i in range(3)
        }


# ----------------------------------------------------------------------
# Kill/resume byte-identity across every consumer.
# ----------------------------------------------------------------------

class TestKillResumeByteIdentity:
    """A batch killed mid-run leaves a checkpoint holding a prefix of
    the merges (merging checkpoints after every job, so that is exactly
    the on-disk state a ``SIGKILL`` produces).  Resuming the full batch
    from that prefix must converge to byte-identical final checkpoints
    and artifacts."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_sweep_resume_checkpoint_bytes(self, tmp_path, engine):
        from repro.sim.config import SystemConfig
        from repro.sim.sweep import Sweep

        config = SystemConfig(
            num_cores=2, accesses_per_core=40
        ).with_cores(2)
        schemes = ["fs_rp", "fcfs"]

        def sweep(name):
            path = str(tmp_path / f"{name}.json")
            return Sweep(
                config, max_cycles=2_000_000, checkpoint=path,
                engine=engine,
            ), path

        full, ck_full = sweep(f"full_{engine}")
        full.run_grid(schemes, ["mcf"])
        assert not full.failed_points

        interrupted, ck_res = sweep(f"part_{engine}")
        interrupted.run_grid(schemes[:1], ["mcf"])  # "killed" after 1
        resumed, _ = Sweep(
            config, max_cycles=2_000_000, checkpoint=ck_res,
            engine=engine,
        ), ck_res
        resumed.run_grid(schemes, ["mcf"])

        with open(ck_full, "rb") as a, open(ck_res, "rb") as b:
            assert a.read() == b.read()
        assert resumed.points == full.points

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_certify_resume_checkpoint_and_artifact_bytes(
        self, tmp_path, engine
    ):
        from repro.certify import CertificationRun, generate_strategies
        from repro.certify.harness import write_certificate_jsonl
        from repro.sim.config import SystemConfig

        config = SystemConfig(num_cores=4, accesses_per_core=60)
        strategies = [
            dataclasses.replace(s, trials=1)
            for s in generate_strategies(2, seed=5)
        ]

        def certify(name, ck=None):
            path = ck or str(tmp_path / f"{name}.json")
            return CertificationRun(
                config=config, engine=engine, max_cycles=2_000_000,
                bootstrap_resamples=30, checkpoint=path,
            ), path

        full_run, ck_full = certify(f"cert_full_{engine}")
        cert_full = full_run.run("fs_rp", strategies)

        part_run, ck_res = certify(f"cert_part_{engine}")
        part_run.run("fs_rp", strategies[:1])  # "killed" after 1
        resume_run, _ = certify("ignored", ck=ck_res)
        cert_resumed = resume_run.run("fs_rp", strategies)

        with open(ck_full, "rb") as a, open(ck_res, "rb") as b:
            assert a.read() == b.read()
        artifacts = []
        for cert in (cert_full, cert_resumed):
            buf = io.StringIO()
            write_certificate_jsonl(cert, buf)
            artifacts.append(buf.getvalue())
        assert artifacts[0] == artifacts[1]
        assert cert_resumed.verdicts == cert_full.verdicts

    def test_bench_resume_preserves_completed_cases(self, tmp_path):
        """Bench metrics are wall-clock throughputs (noisy by nature),
        so the resume property is: carried-over cases survive verbatim
        (proving the skip), the suite order and metric names match, and
        the one deterministic metric is value-identical."""
        from repro import bench

        scale = dict(accesses=40, cores=2, seed=3)
        ck_full = str(tmp_path / "bench_full.json")
        metrics_full = bench.run_suite(checkpoint=ck_full, **scale)

        with open(ck_full) as handle:
            data = json.load(handle)
        carried = dict(list(data["cases"].items())[:2])
        ck_res = str(tmp_path / "bench_part.json")
        CheckpointStore(
            ck_res, bench.CHECKPOINT_VERSION,
            batch_key=data["batch_key"],
        ).save({"cases": carried})

        metrics_resumed = bench.run_suite(checkpoint=ck_res, **scale)
        with open(ck_res) as handle:
            final = json.load(handle)
        for key, value in carried.items():
            assert final["cases"][key] == value  # not re-run
        assert [m.name for m in metrics_resumed] == \
            [m.name for m in metrics_full]
        deterministic = "template_cache_hit_rate"
        assert {m.name: m.value for m in metrics_resumed}[
            deterministic
        ] == {m.name: m.value for m in metrics_full}[deterministic]


# ----------------------------------------------------------------------
# Corrupt checkpoints and the --fresh escape hatch, per consumer.
# ----------------------------------------------------------------------

def _write_corrupt(tmp_path):
    path = str(tmp_path / "corrupt.json")
    with open(path, "w") as handle:
        handle.write('{"version": 1, "points": [{"sch')
    return path


class TestCorruptCheckpoints:
    def test_sweep_refuses_corrupt_checkpoint(self, tmp_path):
        from repro.sim.config import SystemConfig
        from repro.sim.sweep import Sweep

        path = _write_corrupt(tmp_path)
        config = SystemConfig(num_cores=2, accesses_per_core=40)
        with pytest.raises(ExecError, match="cannot be parsed"):
            Sweep(config, checkpoint=path)
        sweep = Sweep(config, checkpoint=path, fresh=True)
        assert sweep.points == []

    def test_certify_refuses_corrupt_checkpoint(self, tmp_path):
        from repro.certify import CertificationRun, generate_strategies
        from repro.sim.config import SystemConfig

        path = _write_corrupt(tmp_path)
        run = CertificationRun(
            config=SystemConfig(num_cores=4, accesses_per_core=60),
            checkpoint=path,
        )
        strategies = generate_strategies(1, seed=1)
        with pytest.raises(ExecError, match="cannot be parsed"):
            run.run("fs_rp", strategies)

    def test_bench_refuses_corrupt_checkpoint(self, tmp_path):
        from repro import bench

        path = _write_corrupt(tmp_path)
        with pytest.raises(ExecError, match="cannot be parsed"):
            bench.run_suite(
                accesses=40, cores=2, seed=3, checkpoint=path
            )

    def test_incompatible_version_still_silently_fresh(self, tmp_path):
        """The old contract survives the refactor: a checkpoint written
        by a *different schema* (not corrupt) is discarded silently."""
        from repro.sim.config import SystemConfig
        from repro.sim.sweep import Sweep

        path = str(tmp_path / "old.json")
        with open(path, "w") as handle:
            json.dump({"version": -1, "points": []}, handle)
        sweep = Sweep(
            SystemConfig(num_cores=2, accesses_per_core=40),
            checkpoint=path,
        )
        assert sweep.points == []


# ----------------------------------------------------------------------
# Compatibility shims and CLI validation.
# ----------------------------------------------------------------------

class TestCompatAndCli:
    def test_exec_error_exported_at_package_root(self):
        import repro

        assert repro.ExecError is ExecError
        assert issubclass(ExecError, ReproError)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "0"],
        ["sweep", "--workers", "two"],
        ["sweep", "--wall-budget", "-1"],
        ["certify", "--workers", "-3"],
        ["certify", "--budget", "nope"],
        ["bench", "record", "--workers", "1.5"],
        ["bench", "compare", "a", "b", "--tolerance", "-0.1"],
    ])
    def test_cli_rejects_bad_numbers_with_exit_2(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "expected a" in capsys.readouterr().err

    def test_cli_accepts_fresh_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["sweep", "--fresh"]).fresh
        assert parser.parse_args(["certify", "--fresh"]).fresh
        args = parser.parse_args(
            ["bench", "record", "--workers", "2", "--fresh"]
        )
        assert args.fresh and args.workers == 2


# ----------------------------------------------------------------------
# Import layering (the AST twin of the CI grep gate).
# ----------------------------------------------------------------------

def _imports(path):
    """Every module name a file imports (absolute form)."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    package = os.path.relpath(
        os.path.dirname(path), os.path.dirname(SRC_ROOT)
    ).replace(os.sep, ".")
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against the package
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1])
                module = (
                    f"{base}.{node.module}" if node.module else base
                )
            else:
                module = node.module or ""
            out.append(module)
            out.extend(
                f"{module}.{alias.name}" for alias in node.names
            )
    return out


def _package_files(package):
    root = os.path.join(SRC_ROOT, package)
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


class TestImportLayering:
    def test_exec_imports_no_consumer(self):
        forbidden = ("repro.sim", "repro.certify", "repro.bench",
                     "repro.store")
        for path in _package_files("exec"):
            for module in _imports(path):
                assert not module.startswith(forbidden), (
                    f"{path} imports {module}: repro.exec must not "
                    f"import its consumers"
                )

    def test_certify_never_imports_sim_sweep(self):
        for path in _package_files("certify"):
            for module in _imports(path):
                assert not module.startswith("repro.sim.sweep"), (
                    f"{path} imports {module}: certification must "
                    f"run on repro.exec, not the sweep executor"
                )
