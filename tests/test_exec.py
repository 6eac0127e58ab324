"""The execution substrate (:mod:`repro.exec`) and its consumers.

Four groups of properties:

* **unit contracts** — worker-count validation, the checkpoint store's
  atomic/versioned/content-keyed/corrupt-vs-incompatible rules, and the
  job shim's uniform failure capture;
* **runner determinism** — submission-order merging (serial vs
  parallel byte-identity), per-job failure isolation including hard
  worker death, pre-resolved failures, lazy-serial/eager-parallel
  auxiliaries, wall-clock budgets;
* **kill/resume** — a batch killed mid-run (its checkpoint holds a
  prefix of the merges) resumes to byte-identical final checkpoints and
  artifacts, parameterized over all three consumers (sweep, certify,
  bench) and both engines.  The merged span *trace* of a resumed run is
  deliberately not byte-compared: replayed (already-checkpointed) cells
  bring no spans, so only uninterrupted runs' traces are comparable —
  that property is pinned by the per-consumer parallel tests instead;
* **changed inputs** — a rerun on the same checkpoint with another
  config, seed, engine or cycle budget runs its jobs again;
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


def _ran(spec):
    """The raw wire dict ``run_jobs`` would hand the store for ``spec``."""
    return run_job(spec, _local=True)


class _DictStore:
    """A minimal backing store: the ``lookup``/``record`` hook over a
    dict, counting lookups."""

    def __init__(self):
        self.raw = {}
        self.lookups = 0

    def lookup(self, spec):
        self.lookups += 1
        return self.raw.get(spec.key)

    def record(self, spec, raw):
        self.raw[spec.key] = raw
        return True


class TestCheckpointStore:
    def test_roundtrip_with_envelope(self, tmp_path):
        path = str(tmp_path / "ck.json")
        spec = JobSpec(key="j", fn=_double, payload={"x": 3})
        store = CheckpointStore(path)
        store.load()
        assert store.record(spec, _ran(spec))
        with open(path) as handle:
            raw = json.load(handle)
        assert list(raw) == ["results", "version"]  # sorted keys
        assert raw["version"] == 2
        (entry,) = raw["results"].values()
        assert entry == {"job": "j", "value": {"doubled": 6}}
        again = CheckpointStore(path)
        again.load()
        assert again.lookup(spec) == {"ok": True, "value": {"doubled": 6}}

    def test_changed_payload_misses(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.json"))
        store.load()
        spec = JobSpec(key="j", fn=_double, payload={"x": 3})
        store.record(spec, _ran(spec))
        # Another job key with the same worker and payload is the same
        # computation; another payload or worker is not.
        twin = JobSpec(key="other", fn=_double, payload={"x": 3})
        assert store.lookup(twin) == {"ok": True, "value": {"doubled": 6}}
        assert store.lookup(
            JobSpec(key="j", fn=_double, payload={"x": 4})
        ) is None
        assert store.lookup(
            JobSpec(key="j", fn=_counting_aux, payload={"x": 3})
        ) is None

    def test_no_path_disables_persistence(self, tmp_path):
        spec = JobSpec(key="j", fn=_double, payload={"x": 1})
        store = CheckpointStore(None)
        store.load()
        assert not store.record(spec, _ran(spec))
        assert store.lookup(spec) is None
        assert os.listdir(tmp_path) == []

    def test_missing_file_is_fresh(self, tmp_path):
        path = str(tmp_path / "absent.json")
        store = CheckpointStore(path)
        store.load()
        assert store.results == {}
        # Written at once, so a batch naming a checkpoint leaves one.
        with open(path) as handle:
            assert json.load(handle) == {"version": 2, "results": {}}

    def test_fresh_flag_discards_existing(self, tmp_path):
        path = str(tmp_path / "ck.json")
        spec = JobSpec(key="j", fn=_double, payload={"x": 1})
        store = CheckpointStore(path)
        store.load()
        store.record(spec, _ran(spec))
        fresh = CheckpointStore(path, fresh=True)
        fresh.load()
        assert fresh.lookup(spec) is None

    @staticmethod
    def _loaded(path, content):
        with open(path, "w") as handle:
            json.dump(content, handle)
        store = CheckpointStore(path)
        store.load()
        return store.results

    def test_version_mismatch_starts_fresh(self, tmp_path):
        path = str(tmp_path / "ck.json")
        assert self._loaded(path, {"version": 1, "points": []}) == {}
        assert self._loaded(path, {"version": 2, "results": [1]}) == {}

    def test_non_dict_payload_starts_fresh(self, tmp_path):
        assert self._loaded(str(tmp_path / "ck.json"), [1, 2, 3]) == {}

    def test_only_successes_and_plain_entries_are_kept(self, tmp_path):
        path = str(tmp_path / "ck.json")
        store = CheckpointStore(path)
        store.load()
        failing = JobSpec(key="bad", fn=_boom, payload={"x": 1})
        assert not store.record(failing, _ran(failing))
        spec = JobSpec(key="s", fn=_with_spans, payload={"x": 2})
        raw = _ran(spec)
        raw["value"]["live"] = object()  # e.g. a metrics registry
        assert store.record(spec, raw)
        assert store.lookup(spec) == {"ok": True, "value": {"v": 2}}
        assert store.lookup(failing) is None

    def test_lookup_returns_a_copy(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.json"))
        store.load()
        spec = JobSpec(key="j", fn=_double, payload={"x": 5})
        store.record(spec, _ran(spec))
        store.lookup(spec)["value"].pop("doubled")
        assert store.lookup(spec)["value"] == {"doubled": 10}

    def test_backing_store_miss_and_hit_are_recorded(self, tmp_path):
        backing = _DictStore()
        spec = JobSpec(key="j", fn=_double, payload={"x": 7})
        backing.record(spec, _ran(spec))
        cold = CheckpointStore(str(tmp_path / "a.json"), backing=backing)
        cold.load()
        assert cold.lookup(spec)["value"] == {"doubled": 14}
        assert backing.lookups == 1
        # The backing hit is now in the checkpoint: no second lookup.
        assert cold.lookup(spec)["value"] == {"doubled": 14}
        assert backing.lookups == 1
        # A fresh result reaches both.
        other = JobSpec(key="k", fn=_double, payload={"x": 8})
        assert cold.record(other, _ran(other))
        assert backing.raw["k"]["value"] == {"doubled": 16}
        computed = CheckpointStore(str(tmp_path / "b.json"))
        computed.load()
        computed.record(spec, _ran(spec))
        computed.record(other, _ran(other))
        with open(tmp_path / "a.json", "rb") as a, \
                open(tmp_path / "b.json", "rb") as b:
            assert a.read() == b.read()

    def test_corrupt_file_raises_naming_path(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as handle:
            handle.write('{"version": 2, "results": {tru')  # truncated
        store = CheckpointStore(path)
        with pytest.raises(ExecError) as err:
            store.load()
        message = str(err.value)
        assert path in message
        assert "--fresh" in message
        # ExecError is a ReproError: the CLI reports it and exits 2.
        assert isinstance(err.value, ReproError)
        # The escape hatch works on the very same file.
        fresh = CheckpointStore(path, fresh=True)
        fresh.load()
        assert fresh.results == {}

    def test_save_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "ck.json")
        store = CheckpointStore(path)
        store.load()
        for x in range(3):
            spec = JobSpec(key=x, fn=_double, payload={"x": x})
            store.record(spec, _ran(spec))
        assert sorted(os.listdir(tmp_path)) == ["ck.json"]
        assert len(store.results) == 3


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

    def test_checkpoint_hit_merges_in_place_without_executing(
        self, tmp_path
    ):
        jobs = _jobs(4, fn=_counting_aux)
        store = CheckpointStore(str(tmp_path / "ck.json"))
        store.load()
        for spec in jobs[1:3]:
            store.record(spec, _ran(spec))
        _AUX_CALLS["n"] = 0
        merged = _collect(jobs, 1, store=store)
        assert _AUX_CALLS["n"] == 2  # jobs 0 and 3 only
        assert merged == _collect(jobs, 1)
        assert [key for key, *_ in merged] == [0, 1, 2, 3]
        assert _collect(jobs, 2, store=store) == merged

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
        path = str(tmp_path / "ck.json")
        store = CheckpointStore(path)
        store.load()

        monkeypatch.setenv(CRASH_ENV, "1")
        outcomes = []
        run_jobs(
            jobs,
            lambda spec, result, _aux: outcomes.append(
                (spec.key, result.ok)
            ),
            workers=2, store=store,
        )
        assert [key for key, _ in outcomes] == [0, 1, 2]
        assert not all(ok for _, ok in outcomes)  # the crash surfaced

        monkeypatch.delenv(CRASH_ENV)
        # Resume from whatever survived (every job may have failed if
        # the crash broke the pool before any completion landed).
        resumed = CheckpointStore(path)
        resumed.load()
        values = {}
        run_jobs(
            jobs,
            lambda spec, result, _aux: values.__setitem__(
                spec.key, result.value
            ),
            workers=2, store=resumed,
        )
        assert values == {i: {"value": i * 10} for i in range(3)}
        assert len(resumed.results) == 3


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
        (proving they were replayed, not re-run), the suite order and
        metric names match, and the one deterministic metric is
        value-identical."""
        from repro import bench

        scale = dict(accesses=40, cores=2, seed=3)
        ck_full = str(tmp_path / "bench_full.json")
        metrics_full = bench.run_suite(checkpoint=ck_full, **scale)

        # A killed suite's checkpoint: the full one minus some cases.
        with open(ck_full) as handle:
            data = json.load(handle)
        carried = dict(list(sorted(data["results"].items()))[:2])
        ck_res = str(tmp_path / "bench_part.json")
        with open(ck_res, "w") as handle:
            json.dump(dict(data, results=carried), handle)

        metrics_resumed = bench.run_suite(checkpoint=ck_res, **scale)
        with open(ck_res) as handle:
            final = json.load(handle)
        assert set(final["results"]) == set(data["results"])
        for key, entry in carried.items():
            assert final["results"][key] == entry  # not re-run
        assert [m.name for m in metrics_resumed] == \
            [m.name for m in metrics_full]
        deterministic = "template_cache_hit_rate"
        assert {m.name: m.value for m in metrics_resumed}[
            deterministic
        ] == {m.name: m.value for m in metrics_full}[deterministic]


# ----------------------------------------------------------------------
# A changed input never resumes: reuse is keyed on what a job computes.
# ----------------------------------------------------------------------

class TestChangedInputNeverResumes:
    def test_span_flag_is_not_part_of_the_identity(self):
        from repro.exec.keys import content_key

        payload = {"x": 1, "config": (1, 2)}
        key = content_key(_double, payload)
        assert content_key(_double, dict(payload, **{SPANS_KEY: True})) \
            == key
        assert content_key(_double, dict(payload, **{SPANS_KEY: False})) \
            == key
        assert content_key(_double, dict(payload, x=2)) != key

    @pytest.mark.parametrize("change", [
        {"accesses_per_core": 80}, {"seed": 99},
    ])
    def test_sweep_config_change_gives_a_cold_table(self, tmp_path, change):
        from repro.sim.config import SystemConfig
        from repro.sim.sweep import Sweep

        config = SystemConfig(num_cores=2, accesses_per_core=40)
        changed = dataclasses.replace(config, **change)
        ckpt = str(tmp_path / "ck.json")
        Sweep(config, checkpoint=ckpt).run_grid(["fs_rp"], ["mcf"])
        resumed = Sweep(changed, checkpoint=ckpt)
        resumed.run_grid(["fs_rp"], ["mcf"])
        cold = Sweep(changed)
        cold.run_grid(["fs_rp"], ["mcf"])
        assert resumed.points == cold.points

    @pytest.mark.parametrize("change", [
        {"engine": "reference"}, {"max_cycles": 3_000_000},
    ])
    def test_sweep_run_change_runs_the_cells_again(
        self, tmp_path, monkeypatch, change
    ):
        import repro.sim.sweep as sweep_mod
        from repro.sim.config import SystemConfig

        ran = []
        real = sweep_mod.run_scheme

        def counting(scheme, *args, **kwargs):
            ran.append(scheme)
            return real(scheme, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "run_scheme", counting)
        config = SystemConfig(num_cores=2, accesses_per_core=40)
        ckpt = str(tmp_path / "ck.json")
        settings = {"engine": "fast", "max_cycles": 2_000_000}
        sweep_mod.Sweep(config, checkpoint=ckpt, **settings).run_grid(
            ["fs_rp"], ["mcf"]
        )
        sweep_mod.Sweep(config, checkpoint=ckpt, **settings).run_grid(
            ["fs_rp"], ["mcf"]
        )
        assert ran == ["fs_rp", "baseline"]  # the rerun replayed both
        sweep_mod.Sweep(
            config, checkpoint=ckpt, **dict(settings, **change)
        ).run_grid(["fs_rp"], ["mcf"])
        assert ran == ["fs_rp", "baseline"] * 2


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
