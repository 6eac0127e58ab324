"""End-to-end tests for the adversarial certification harness.

Covers the ISSUE 7 acceptance surface: strategy generation is
seed-deterministic; FS schemes certify at MI <= epsilon; the non-secure
baseline and the planted leaky scheme (``tests/leaky_scheme.py``) fail
certification; parallel batches write byte-identical artifacts to
serial ones; checkpoints make a batch resumable; and the CLI exit codes
encode the verdict.
"""

import dataclasses
import json

import pytest

from repro.certify import (
    AttackerStrategy,
    CertificationRun,
    STRATEGIES,
    StrategyRegistry,
    certify_scheme,
    generate_strategies,
    register_strategy,
    strategy_seed,
)
from repro.certify import harness as harness_mod
from repro.cli import main
from repro.errors import ConfigError, SchemeError
from repro.schemes import REGISTRY
from repro.sim.config import SystemConfig
from repro.workloads.synthetic import WorkloadSpec

from .leaky_scheme import LEAKY_SPEC


@pytest.fixture(autouse=True, scope="module")
def _leaky_spec_registered():
    """Scope the planted-leak scheme to this module: the registry is
    global, and unrelated suites pin exact scheme-name tuples."""
    REGISTRY.register(LEAKY_SPEC)
    yield
    REGISTRY.unregister(LEAKY_SPEC.name)


#: Small platform: every certification here is a real two-world
#: experiment, so the per-test budget matters.
CFG = SystemConfig(num_cores=4, accesses_per_core=100).with_cores(4)

#: One strategy per registered family, trials cut to 2 for speed.
BATCH = [
    dataclasses.replace(s, trials=2)
    for s in generate_strategies(len(STRATEGIES), seed=11)
]


# ---------------------------------------------------------------------
# Strategy generation.
# ---------------------------------------------------------------------


class TestStrategyGeneration:
    def test_registry_has_the_issue_families(self):
        for family in ("adaptive_probe", "refresh_phase", "burst_idle",
                       "fault_composed", "secret_pair"):
            assert family in STRATEGIES

    def test_generation_is_seed_deterministic(self):
        assert generate_strategies(12, seed=5) == \
            generate_strategies(12, seed=5)
        a = generate_strategies(12, seed=5)
        b = generate_strategies(12, seed=6)
        assert a != b

    def test_generation_round_robins_families_with_unique_names(self):
        strategies = generate_strategies(11, seed=3)
        names = [s.name for s in strategies]
        assert len(set(names)) == 11
        families = [s.family for s in strategies]
        for family in STRATEGIES:
            assert families.count(family) in (2, 3)

    def test_family_filter_and_unknown_family(self):
        only = generate_strategies(4, seed=1, families=["burst_idle"])
        assert {s.family for s in only} == {"burst_idle"}
        with pytest.raises(ConfigError):
            generate_strategies(2, seed=1, families=["nope"])

    def test_strategy_seed_is_stable_and_family_dependent(self):
        assert strategy_seed("x", 0, 7) == strategy_seed("x", 0, 7)
        assert strategy_seed("x", 0, 7) != strategy_seed("y", 0, 7)
        assert strategy_seed("x", 0, 7) != strategy_seed("x", 1, 7)

    def test_strategy_validation(self):
        probe = WorkloadSpec(name="p", mpki=10.0)
        quiet = WorkloadSpec(name="q", mpki=0.1)
        with pytest.raises(ConfigError):
            AttackerStrategy(
                name="bad", family="f", seed=1, attacker=probe,
                secret0=quiet, secret1=quiet,
            )
        with pytest.raises(ConfigError):
            AttackerStrategy(
                name="bad", family="f", seed=1, attacker=probe,
                secret0=quiet,
                secret1=WorkloadSpec(name="l", mpki=50.0), trials=0,
            )

    def test_custom_registry_is_isolated(self):
        registry = StrategyRegistry()

        @register_strategy("custom", registry=registry)
        def _gen(rng, index):
            probe = WorkloadSpec(name=f"p{index}", mpki=10.0)
            return AttackerStrategy(
                name="x", family="custom", seed=0, attacker=probe,
                secret0=WorkloadSpec(name="q", mpki=0.1),
                secret1=WorkloadSpec(name="l", mpki=50.0),
            )

        assert "custom" in registry and "custom" not in STRATEGIES
        out = generate_strategies(3, seed=2, registry=registry)
        assert [s.family for s in out] == ["custom"] * 3


# ---------------------------------------------------------------------
# Verdicts.
# ---------------------------------------------------------------------


class TestVerdicts:
    def test_fs_scheme_certifies(self):
        cert = certify_scheme("fs_rp", BATCH, config=CFG)
        assert cert.certified and cert.complete
        assert cert.max_mi_upper_bits == 0.0
        for verdict in cert.verdicts:
            assert verdict.exact_match and verdict.passed
            assert verdict.capacity_bits == 0.0

    def test_baseline_fails_certification(self):
        cert = certify_scheme("baseline", BATCH[:2], config=CFG)
        assert not cert.certified
        for verdict in cert.verdicts:
            assert not verdict.exact_match and not verdict.passed
            assert verdict.mi_upper_bits > 0.5  # near-perfect readout

    def test_planted_leaky_scheme_is_flagged(self):
        cert = certify_scheme("leaky_fs", BATCH[:2], config=CFG)
        assert not cert.certified
        assert all(not v.passed for v in cert.verdicts)

    def test_non_certifiable_scheme_refused(self):
        with pytest.raises(SchemeError):
            certify_scheme("fcfs", BATCH[:1], config=CFG)

    def test_duplicate_strategy_names_refused(self):
        with pytest.raises(ConfigError):
            certify_scheme("fs_rp", [BATCH[0], BATCH[0]], config=CFG)

    def test_strategy_error_is_isolated_and_fails(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("simulated harness failure")

        monkeypatch.setattr(harness_mod, "two_world_samples", boom)
        cert = certify_scheme("fs_rp", BATCH[:1], config=CFG)
        assert not cert.certified
        verdict = cert.verdicts[0]
        assert verdict.error_type == "RuntimeError"
        assert not verdict.passed
        assert cert.worst_strategy is verdict

    def test_budget_zero_skips_everything(self):
        run = CertificationRun(config=CFG, budget_s=0.0)
        cert = run.run("fs_rp", BATCH[:2])
        assert cert.skipped == tuple(s.name for s in BATCH[:2])
        assert not cert.complete and not cert.certified

    def test_fixed_service_demands_exact_match(self, monkeypatch):
        """An FS scheme whose MI bound is below epsilon but whose
        worlds were not literally equal still fails: the paper's claim
        is exact, not approximate."""
        def near_miss(scheme, strategy, config, **kwargs):
            # Worlds agree in every trial (MI exactly 0) — but report
            # that somewhere equality was violated.
            raw = [
                (t, s, f"obs-{t}") for t in range(2) for s in (0, 1)
            ]
            return raw, False

        monkeypatch.setattr(
            harness_mod, "two_world_samples", near_miss
        )
        cert = certify_scheme("fs_rp", BATCH[:1], config=CFG)
        verdict = cert.verdicts[0]
        assert verdict.mi_upper_bits == 0.0
        assert not verdict.exact_match and not verdict.passed
        assert not cert.certified

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            CertificationRun(workers=0)
        with pytest.raises(ConfigError):
            CertificationRun(epsilon_bits=-1.0)


def _report_of(*verdicts):
    from repro.certify import Certificate
    from repro.telemetry import certification_report

    return certification_report(Certificate(
        scheme="fs_rp_mc", engine="fast", epsilon_bits=1e-9,
        fixed_service=True, verdicts=tuple(verdicts),
    ))


def _measured(name, passed=True):
    return harness_mod.StrategyVerdict(
        strategy=name, family="probe", seed=1, trials=1, samples=2,
        exact_match=passed, mi_bits=0.0 if passed else 1.0,
        mi_upper_bits=0.0 if passed else 1.0,
        capacity_bits=0.0 if passed else 1.0, passed=passed,
    )


class TestReport:
    """An errored strategy measured nothing: the report says so instead
    of calling it a leak."""

    ERRORED = harness_mod._error_verdict(
        BATCH[0], "ConfigError", "plan refused"
    )

    def test_error_only_failure_is_reported_as_an_error(self):
        text = _report_of(
            self.ERRORED, *(_measured(f"ok/{i}") for i in range(4))
        )
        assert f"[ERROR] {BATCH[0].name}: ERROR ConfigError" in text
        assert "[LEAK]" not in text
        assert text.count("[pass]") == 4
        assert text.endswith(
            "=> NOT CERTIFIED: 1 strategy errored and no leak was "
            "measured"
        )
        assert "read the secret" not in text

    def test_a_measured_leak_still_reads_as_a_leak(self):
        text = _report_of(self.ERRORED, _measured("leaky/0", False))
        assert "[ERROR]" in text and "[LEAK] leaky/0" in text
        assert text.endswith(
            "=> NOT CERTIFIED: at least one strategy read the secret"
        )

    def test_certified_and_empty_batches(self):
        assert _report_of(_measured("ok/0")).endswith(
            "=> CERTIFIED: no strategy extracted more than epsilon"
        )
        assert _report_of().endswith("=> NOT CERTIFIED: no strategy ran")


# ---------------------------------------------------------------------
# Determinism, checkpointing, artifacts.
# ---------------------------------------------------------------------


class TestArtifacts:
    def test_serial_run_is_reproducible(self):
        a = certify_scheme("fs_rp", BATCH[:2], config=CFG)
        b = certify_scheme("fs_rp", BATCH[:2], config=CFG)
        assert [v.to_json_dict() for v in a.verdicts] == \
            [v.to_json_dict() for v in b.verdicts]

    def test_parallel_artifact_is_byte_identical(self, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial = CertificationRun(config=CFG)
        serial.export_jsonl(
            serial.run("fs_rp", BATCH[:3]), str(serial_path)
        )
        parallel = CertificationRun(config=CFG, workers=2)
        parallel.export_jsonl(
            parallel.run("fs_rp", BATCH[:3]), str(parallel_path)
        )
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_span_trace_byte_identical_and_passive(self, tmp_path):
        """Spans armed: the merged certify trace matches across worker
        counts (modulo ``wall_*``) and the artifact bytes are unchanged
        vs. a spanless run — capture is a pure side channel."""
        import io

        from repro.telemetry import scrub_volatile_args

        baseline_path = tmp_path / "bare.jsonl"
        bare = CertificationRun(config=CFG)
        bare.export_jsonl(
            bare.run("fs_rp", BATCH[:3]), str(baseline_path)
        )
        traces = {}
        for workers in (1, 2):
            run = CertificationRun(
                config=CFG, workers=workers, collect_spans=True
            )
            certificate = run.run("fs_rp", BATCH[:3])
            out = tmp_path / f"spans{workers}.jsonl"
            run.export_jsonl(certificate, str(out))
            assert out.read_bytes() == baseline_path.read_bytes()
            buf = io.StringIO()
            exported = run.export_trace(buf)
            assert exported == len(run.tracer.records) > 0
            payload = scrub_volatile_args(json.loads(buf.getvalue()))
            traces[workers] = json.dumps(payload, sort_keys=True)
            categories = {r.category for r in run.tracer.records}
            assert {"batch", "trial", "run", "epoch"} <= categories
        assert traces[1] == traces[2]

    def test_artifact_shape(self, tmp_path):
        path = tmp_path / "cert.jsonl"
        run = CertificationRun(config=CFG)
        run.export_jsonl(run.run("fs_rp", BATCH[:2]), str(path))
        lines = [
            json.loads(l) for l in path.read_text().splitlines()
        ]
        assert len(lines) == 3  # two verdicts + trailer
        for verdict in lines[:2]:
            assert verdict["passed"] and verdict["exact_match"]
        trailer = lines[-1]["certificate"]
        assert trailer["scheme"] == "fs_rp" and trailer["certified"]

    @pytest.fixture
    def executed(self, monkeypatch):
        """The strategies whose experiments actually run.  Counting
        ``certify_strategy`` leaves the job worker (part of every
        result's identity) untouched."""
        names = []
        real = harness_mod.certify_strategy

        def counting(scheme, strategy, *args, **kwargs):
            names.append((scheme, strategy.name))
            return real(scheme, strategy, *args, **kwargs)

        monkeypatch.setattr(harness_mod, "certify_strategy", counting)
        return names

    def test_checkpoint_resume_skips_finished_strategies(
        self, tmp_path, executed
    ):
        checkpoint = tmp_path / "certify.ckpt.json"
        run = CertificationRun(config=CFG, checkpoint=str(checkpoint))
        first = run.run("fs_rp", BATCH[:1])
        assert checkpoint.exists()
        assert len(executed) == 1

        resumed = CertificationRun(
            config=CFG, checkpoint=str(checkpoint)
        )
        second = resumed.run("fs_rp", BATCH[:2])
        # Only the strategy the first run never reached executes.
        assert executed[1:] == [("fs_rp", BATCH[1].name)]
        assert second.verdicts[:1] == first.verdicts

    def test_changed_epsilon_is_not_replayed(self, tmp_path, executed):
        checkpoint = tmp_path / "certify.ckpt.json"
        CertificationRun(config=CFG, checkpoint=str(checkpoint)).run(
            "fs_rp", BATCH[:1]
        )
        other = CertificationRun(
            config=CFG, epsilon_bits=0.5, checkpoint=str(checkpoint)
        )
        other.run("fs_rp", BATCH[:1])
        assert len(executed) == 2  # epsilon changed: ran again

    def test_changed_trials_are_not_replayed(self, tmp_path, executed):
        checkpoint = str(tmp_path / "certify.ckpt.json")
        one = dataclasses.replace(BATCH[0], trials=1)
        CertificationRun(config=CFG, checkpoint=checkpoint).run(
            "baseline", [one]
        )
        cold = CertificationRun(config=CFG).run("baseline", BATCH[:1])
        warm = CertificationRun(config=CFG, checkpoint=checkpoint).run(
            "baseline", BATCH[:1]
        )
        assert [v.trials for v in warm.verdicts] == [2]
        assert warm.verdicts == cold.verdicts
        assert len(executed) == 3

    def test_one_checkpoint_resumes_every_scheme(
        self, tmp_path, executed
    ):
        checkpoint = str(tmp_path / "certify.ckpt.json")
        schemes = ("fs_rp", "fs_bp")
        first = CertificationRun(config=CFG, checkpoint=checkpoint)
        certs = [first.run(scheme, BATCH[:2]) for scheme in schemes]
        assert len(executed) == 4
        again = CertificationRun(config=CFG, checkpoint=checkpoint)
        replayed = [again.run(scheme, BATCH[:2]) for scheme in schemes]
        assert len(executed) == 4  # the rerun executed nothing
        assert replayed == certs

    def test_checkpoint_version_mismatch_starts_fresh(
        self, tmp_path, executed
    ):
        checkpoint = tmp_path / "certify.ckpt.json"
        checkpoint.write_text(json.dumps({
            "version": 999, "batch_key": "x", "verdicts": [],
        }))
        run = CertificationRun(config=CFG, checkpoint=str(checkpoint))
        run.run("fs_rp", BATCH[:1])
        assert len(executed) == 1
        assert json.loads(checkpoint.read_text())["version"] == 2

    def test_metrics_registry_export(self):
        run = CertificationRun(config=CFG)
        cert = run.run("fs_rp", BATCH[:2])
        registry = run.metrics_registry(cert)
        snapshot = registry.snapshot()
        assert "certify_mi_upper_bits" in snapshot
        assert "certify_wall_seconds" not in snapshot  # volatile
        certified = registry.get("certify_certified")
        assert certified.value(scheme="fs_rp") == 1
        outcomes = registry.get("certify_strategies_total")
        assert outcomes.value(scheme="fs_rp", outcome="pass") == 2


# ---------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------


def _certify_args(*extra):
    return [
        "certify", "--cores", "4", "--accesses", "80",
        "--strategies", "2", "--trials", "1", *extra,
    ]


class TestCli:
    def test_fs_scheme_exits_zero(self, capsys):
        code = main(_certify_args("--scheme", "fs_rp"))
        out = capsys.readouterr().out
        assert code == 0 and "CERTIFIED" in out

    def test_baseline_exits_one(self, capsys):
        code = main(_certify_args("--scheme", "baseline"))
        out = capsys.readouterr().out
        assert code == 1 and "NOT CERTIFIED" in out

    def test_non_certifiable_exits_two(self, capsys):
        code = main(_certify_args("--scheme", "fcfs"))
        assert code == 2
        assert "not certifiable" in capsys.readouterr().err

    def test_artifact_and_metrics_outputs(self, tmp_path, capsys):
        artifact = tmp_path / "cert.jsonl"
        metrics = tmp_path / "cert-metrics.json"
        code = main(_certify_args(
            "--scheme", "fs_rp", "--artifact", str(artifact),
            "--metrics", str(metrics),
        ))
        assert code == 0
        lines = artifact.read_text().splitlines()
        assert json.loads(lines[-1])["certificate"]["certified"]
        exported = json.loads(metrics.read_text())
        assert "certify_mi_bits" in exported["metrics"]

    def test_multiple_schemes_any_failure_wins(self, capsys):
        code = main(_certify_args(
            "--scheme", "fs_rp", "--scheme", "baseline",
        ))
        assert code == 1
