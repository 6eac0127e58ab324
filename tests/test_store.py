"""The content-addressed result store (repro.store).

Pins the acceptance contract of the cross-session cache:

* a warm-cache rerun of an identical sweep executes zero simulation
  jobs (every lookup is a hit) yet produces byte-identical checkpoint
  and metrics-snapshot artifacts to the cold run, serial or parallel;
* ``store=None`` and a corrupted cache entry both fall back to full
  recompute with unchanged outputs;
* keying is canonical (order-insensitive dicts, dataclass fields,
  schema-version salt) and live objects bypass rather than break;
* corrupt entries are evicted with a warning, never raised;
* the CLI surface (``repro store path|ls|verify|gc``, ``--store`` /
  ``--no-store``) round-trips.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.errors import StoreError
from repro.exec import JobSpec, run_jobs
from repro.sim.config import SystemConfig
from repro.sim.sweep import Sweep
from repro.store import (
    ENTRY_VERSION,
    ResultStore,
    UncacheableValue,
    canonicalize,
    content_key,
    gc,
    iter_entries,
    resolve_store_root,
    verify,
)

CFG = SystemConfig(num_cores=2, accesses_per_core=40)


def _work(payload):
    """Module-level job worker: deterministic plain-data transform."""
    return {"doubled": payload["x"] * 2}


def _boom(payload):
    """Module-level job worker that always fails."""
    raise ValueError("no")


def _collect(results):
    def merge(spec, result, _aux):
        results.append((spec.key, result.ok, result.value))
    return merge


# ----------------------------------------------------------------------
# Keying.
# ----------------------------------------------------------------------

class TestKeys:
    def test_key_is_stable_and_input_sensitive(self):
        a = content_key(_work, {"x": 1, "y": "z"})
        b = content_key(_work, {"y": "z", "x": 1})
        assert a == b  # dict insertion order cannot leak into the key
        assert a != content_key(_work, {"x": 2, "y": "z"})
        assert a != content_key(_boom, {"x": 1, "y": "z"})

    def test_dataclass_and_config_canonicalisation(self):
        key1 = content_key(_work, {"config": CFG, "seed": 0})
        key2 = content_key(_work, {"config": CFG, "seed": 0})
        assert key1 == key2
        assert key1 != content_key(
            _work, {"config": CFG.with_cores(4), "seed": 0}
        )

    def test_live_objects_are_uncacheable(self):
        with pytest.raises(UncacheableValue):
            canonicalize(object())
        store = ResultStore.__new__(ResultStore)  # keying needs no root
        spec = JobSpec(key="k", fn=_work, payload={"x": object()})
        assert store.key_for(spec) is None

    def test_sequences_keep_order_sets_do_not(self):
        assert (canonicalize([1, 2]) != canonicalize([2, 1]))
        assert (canonicalize({1, 2}) == canonicalize({2, 1}))

    def test_edited_sources_miss_the_checkpoint_and_the_store(
            self, tmp_path):
        """In a copy of the package, an unedited rerun replays a
        ``certify --checkpoint`` job and hits the ``--store`` for a
        sweep; after a comment is appended to the certify worker's
        module, both reruns compute afresh."""
        package = os.path.dirname(os.path.abspath(repro.__file__))
        shutil.copytree(package, tmp_path / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
                   REPRO_STORE_DIR=str(tmp_path / "store"))

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], env=env,
                cwd=tmp_path, capture_output=True, text=True, check=False,
            )

        def certify():
            cli("certify", "--scheme", "fs_rp", "--strategies", "1",
                "--trials", "1", "--cores", "2", "--accesses", "20",
                "--engine", "fast", "--checkpoint", "c.json")
            path = tmp_path / "c.json"
            return set(json.loads(path.read_text())["results"])

        def sweep(checkpoint):
            return cli("sweep", "--schemes", "fs_rp", "--workloads", "mcf",
                       "--cores", "2", "--accesses", "20", "--store",
                       "--checkpoint", checkpoint).stderr

        cold = certify()
        assert len(cold) == 1 and certify() == cold
        assert "0 hit(s)" in sweep("s1.json")
        assert "0 miss(es)" in sweep("s2.json")
        with open(tmp_path / "src" / "repro" / "certify" / "harness.py",
                  "a", encoding="utf-8") as handle:
            handle.write("# edited\n")
        edited = certify()
        assert len(edited) == 2 and cold < edited
        assert "0 hit(s)" in sweep("s3.json")


# ----------------------------------------------------------------------
# The ResultStore object.
# ----------------------------------------------------------------------

class TestResultStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = JobSpec(key="j", fn=_work, payload={"x": 21})
        assert store.lookup(spec) is None
        assert store.misses == 1
        raw = {"ok": True, "value": _work(spec.payload)}
        assert store.record(spec, raw)
        assert store.writes == 1
        again = store.lookup(spec)
        assert again == raw
        assert store.hits == 1

    def test_only_successes_are_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = JobSpec(key="j", fn=_boom, payload={"x": 1})
        assert not store.record(
            spec, {"ok": False, "error_type": "ValueError", "error": "no"}
        )
        assert store.lookup(spec) is None
        assert store.writes == 0

    def test_corrupt_entry_is_evicted_not_raised(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = JobSpec(key="j", fn=_work, payload={"x": 3})
        store.record(spec, {"ok": True, "value": _work(spec.payload)})
        path = store.object_path(store.key_for(spec))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert store.lookup(spec) is None
        assert store.corrupt == 1
        assert not os.path.exists(path)  # evicted
        # and a recompute re-populates it
        store.record(spec, {"ok": True, "value": _work(spec.payload)})
        assert store.lookup(spec) is not None

    def test_version_mismatch_is_a_silent_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = JobSpec(key="j", fn=_work, payload={"x": 4})
        store.record(spec, {"ok": True, "value": _work(spec.payload)})
        key = store.key_for(spec)
        path = store.object_path(key)
        with open(path, "wb") as handle:
            pickle.dump(
                {"version": ENTRY_VERSION + 1, "key": key,
                 "fn": "x", "value": {"ok": True, "value": {}}},
                handle,
            )
        assert store.lookup(spec) is None
        assert store.corrupt == 0  # stale, not corrupt
        assert [e.status for e in verify(str(tmp_path / "cache"))] == [
            "stale"
        ]

    def test_unwritable_root_is_a_store_error(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        with pytest.raises(StoreError):
            ResultStore(str(not_a_dir))

    def test_env_var_and_explicit_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        assert resolve_store_root() == str(tmp_path / "env")
        assert resolve_store_root(str(tmp_path / "x")) == str(
            tmp_path / "x"
        )

    def test_metrics_registry_is_volatile(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        store.lookup(JobSpec(key="j", fn=_work, payload={"x": 1}))
        registry = store.metrics_registry()
        assert registry.snapshot() == {}  # cache state is volatile
        assert "store_lookups_total" in registry.to_prometheus()

    def test_lookup_records_a_store_span(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        store.lookup(JobSpec(key="j", fn=_work, payload={"x": 1}))
        assert [r.category for r in store.tracer.records] == ["store"]
        assert store.tracer.track == "store"


# ----------------------------------------------------------------------
# The run_jobs store hook.
# ----------------------------------------------------------------------

class TestRunnerHook:
    def _jobs(self):
        return [
            JobSpec(key=f"j{i}", fn=_work, payload={"x": i})
            for i in range(4)
        ]

    def test_serial_warm_run_executes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        cold, warm = [], []
        run_jobs(self._jobs(), _collect(cold), store=store)
        assert (store.misses, store.writes) == (4, 4)
        store2 = ResultStore(str(tmp_path / "cache"))
        run_jobs(self._jobs(), _collect(warm), store=store2)
        assert (store2.hits, store2.misses) == (4, 0)
        assert warm == cold

    def test_parallel_warm_run_executes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        cold, warm = [], []
        run_jobs(self._jobs(), _collect(cold), workers=2, store=store)
        assert (store.misses, store.writes) == (4, 4)
        store2 = ResultStore(str(tmp_path / "cache"))
        run_jobs(self._jobs(), _collect(warm), workers=2, store=store2)
        assert (store2.hits, store2.misses) == (4, 0)
        assert warm == cold

    def test_failures_always_recompute(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [JobSpec(key="bad", fn=_boom, payload={"x": 1})]
        out = []
        run_jobs(jobs, _collect(out), store=store)
        assert not out[0][1]
        assert store.writes == 0
        store2 = ResultStore(str(tmp_path / "cache"))
        run_jobs(jobs, _collect(out), store=store2)
        assert store2.misses == 1  # no stale failure served

    def test_aux_jobs_are_cached_too(self, tmp_path):
        aux = {"base": JobSpec(key="base", fn=_work, payload={"x": 10})}
        jobs = [JobSpec(
            key="cell", fn=_work, payload={"x": 1}, requires=("base",),
        )]
        seen = []

        def merge(spec, result, resolve):
            seen.append((result.value, resolve("base").value))

        store = ResultStore(str(tmp_path / "cache"))
        run_jobs(jobs, merge, aux=aux, store=store)
        assert store.writes == 2
        for workers in (1, 2):
            warm = ResultStore(str(tmp_path / "cache"))
            run_jobs(jobs, merge, aux=aux, workers=workers, store=warm)
            assert (warm.hits, warm.misses) == (2, 0)
        assert len({json.dumps(s) for s in seen}) == 1


# ----------------------------------------------------------------------
# The acceptance criterion: warm sweeps replay cold bytes, job-free.
# ----------------------------------------------------------------------

class TestSweepByteIdentity:
    SCHEMES = ["fs_rp", "fcfs"]
    WORKLOADS = ["mcf"]

    def _run(self, tmp_path, name, store, workers=1):
        sweep = Sweep(
            CFG, max_cycles=400_000, workers=workers, store=store,
            checkpoint=str(tmp_path / f"{name}.ckpt.json"),
        )
        sweep.run_grid(self.SCHEMES, self.WORKLOADS, cores=2)
        snapshot = json.dumps(
            sweep.metrics_registry().snapshot(), sort_keys=True
        )
        checkpoint = (tmp_path / f"{name}.ckpt.json").read_bytes()
        return snapshot, checkpoint

    def test_warm_rerun_is_byte_identical_and_job_free(self, tmp_path):
        root = str(tmp_path / "cache")
        cold_store = ResultStore(root)
        cold = self._run(tmp_path, "cold", cold_store)
        jobs = cold_store.misses  # cells + shared baseline aux
        assert cold_store.hits == 0 and cold_store.writes == jobs

        warm_store = ResultStore(root)
        warm = self._run(tmp_path, "warm", warm_store)
        # zero simulation jobs executed: every lookup hit
        assert (warm_store.hits, warm_store.misses) == (jobs, 0)
        assert warm_store.writes == 0
        assert warm == cold

        par_store = ResultStore(root)
        par = self._run(tmp_path, "par", par_store, workers=4)
        assert (par_store.hits, par_store.misses) == (jobs, 0)
        assert par == cold

    def test_no_store_and_cold_parallel_match(self, tmp_path):
        root = str(tmp_path / "cache")
        cold = self._run(tmp_path, "cold", ResultStore(root))
        plain = self._run(tmp_path, "plain", None)
        assert plain == cold
        cold_par = self._run(
            tmp_path, "coldpar", ResultStore(str(tmp_path / "c2")),
            workers=4,
        )
        assert cold_par == cold

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        root = str(tmp_path / "cache")
        cold = self._run(tmp_path, "cold", ResultStore(root))
        entries = list(iter_entries(root))
        with open(entries[0].path, "wb") as handle:
            handle.write(b"garbage bytes")
        hurt = ResultStore(root)
        again = self._run(tmp_path, "hurt", hurt)
        assert hurt.corrupt == 1 and hurt.misses == 1
        assert hurt.writes == 1  # healed
        assert again == cold
        assert verify(root) == []


# ----------------------------------------------------------------------
# Maintenance helpers and the CLI surface.
# ----------------------------------------------------------------------

class TestMaintenanceAndCli:
    def _populate(self, root, n=3):
        store = ResultStore(root)
        for i in range(n):
            spec = JobSpec(key=f"j{i}", fn=_work, payload={"x": i})
            store.record(spec, {"ok": True, "value": _work(spec.payload)})
        return store

    def test_iter_entries_and_gc(self, tmp_path):
        root = str(tmp_path / "cache")
        self._populate(root)
        entries = list(iter_entries(root))
        assert [e.status for e in entries] == ["ok"] * 3
        with open(entries[0].path, "wb") as handle:
            handle.write(b"junk")
        result = gc(root)  # reaps only the bad entry
        assert (result.removed, result.kept) == (1, 2)
        result = gc(root, everything=True)
        assert result.removed == 2
        assert list(iter_entries(root)) == []

    def test_gc_older_than(self, tmp_path):
        root = str(tmp_path / "cache")
        self._populate(root, n=2)
        entries = list(iter_entries(root))
        os.utime(entries[0].path, (1, 1))  # ancient
        result = gc(root, older_than_s=3600.0)
        assert (result.removed, result.kept) == (1, 1)

    def test_cli_path_ls_verify_gc(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["store", "path", "--store", root]) == 0
        assert capsys.readouterr().out.strip() == root
        assert main(["store", "ls", "--store", root]) == 0
        assert "empty" in capsys.readouterr().out
        self._populate(root)
        assert main(["store", "ls", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out and "_work" in out
        assert main(["store", "verify", "--store", root]) == 0
        entries = list(iter_entries(root))
        with open(entries[0].path, "wb") as handle:
            handle.write(b"junk")
        assert main(["store", "verify", "--store", root]) == 1
        assert "corrupt" in capsys.readouterr().out
        assert main(["store", "gc", "--store", root, "--all"]) == 0
        assert main(["store", "verify", "--store", root]) == 0

    @staticmethod
    def _grid_table(text):
        """The deterministic part of sweep stdout (drops wall clock and
        per-invocation checkpoint paths)."""
        return [
            line for line in text.splitlines()
            if not line.startswith(("grid wall clock", "checkpoint:"))
        ]

    def test_cli_sweep_store_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        argv = [
            "sweep", "--schemes", "fs_rp", "--workloads", "mcf",
            "--cores", "2", "--accesses", "40", "--store", root,
        ]
        assert main(argv + ["--checkpoint",
                            str(tmp_path / "a.json")]) == 0
        cold = capsys.readouterr()
        assert main(argv + ["--checkpoint",
                            str(tmp_path / "b.json")]) == 0
        warm = capsys.readouterr()
        assert self._grid_table(cold.out) == self._grid_table(warm.out)
        assert "0 miss(es)" in warm.err
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()
        # --no-store forces a real recompute with identical output
        assert main(argv + ["--no-store", "--checkpoint",
                            str(tmp_path / "c.json")]) == 0
        plain = capsys.readouterr()
        assert self._grid_table(plain.out) == self._grid_table(cold.out)
        assert "store" not in plain.err
        assert (tmp_path / "c.json").read_bytes() == (
            tmp_path / "a.json"
        ).read_bytes()

    def test_cli_run_store_and_bypass(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        argv = ["run", "fs_rp", "mcf", "--cores", "2",
                "--accesses", "40", "--store", root]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "1 hit(s)" in warm.err
        # live-object flags bypass the store entirely
        assert main(argv + ["--monitor"]) == 0
        bypass = capsys.readouterr()
        assert "bypassed" in bypass.err
