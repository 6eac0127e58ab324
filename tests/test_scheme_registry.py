"""The declarative scheme registry (repro.schemes).

Covers the tentpole contract of the registry refactor:

* spec round-trips: pickling (the multiprocess sweep transport),
  alias re-registration with differential observables, decorator use;
* duplicate-registration conflicts raise SchemeError;
* the Table 2 partition classification is *derived* from specs (the
  old hand-maintained tuples in sim/config.py are regression-locked);
* a user-registered toy scheme works end to end: ``run_scheme``, the
  ``repro sweep`` CLI, and the ``repro stats`` CLI.
"""

import pickle

import pytest

from repro.cli import main
from repro.errors import ConfigError, ReproError, SchemeError
from repro.schemes import (
    BUILTIN_SPECS,
    REGISTRY,
    SchemeRegistry,
    SchemeSpec,
    build_partition,
    builder_for,
    register_builder,
    register_scheme,
    spec_fields,
)
from repro.sim.config import (
    BANK_PARTITIONED_SCHEMES,
    RANK_PARTITIONED_SCHEMES,
    SystemConfig,
)
from repro.sim.runner import SCHEMES, run_scheme
from repro.workloads.spec import suite_specs

CFG = SystemConfig(num_cores=4, accesses_per_core=80).with_cores(4)

#: Registration order of the built-ins == the legacy SCHEMES tuple.
LEGACY_ORDER = (
    "baseline", "fcfs", "channel_part", "tp_bp", "tp_np",
    "fs_rp", "fs_rp_mc", "fs_bp", "fs_reordered_bp", "fs_np",
    "fs_np_ta",
)


@pytest.fixture
def scratch():
    """Names to unregister from the global registry after the test."""
    names = []
    yield names
    for name in names:
        if name in REGISTRY:
            REGISTRY.unregister(name)


class TestRegistryBasics:
    def test_builtin_names_in_legacy_order(self):
        assert REGISTRY.names()[: len(LEGACY_ORDER)] == LEGACY_ORDER

    def test_schemes_view_tracks_registry(self, scratch):
        assert tuple(SCHEMES) == REGISTRY.names()
        assert "fs_rp" in SCHEMES
        assert SCHEMES == REGISTRY.names()  # view == tuple
        spec = REGISTRY.get("fcfs").replace(name="fcfs_live_view")
        REGISTRY.register(spec)
        scratch.append("fcfs_live_view")
        assert "fcfs_live_view" in SCHEMES
        assert len(SCHEMES) == len(REGISTRY)

    def test_get_unknown_raises_scheme_error_with_names(self):
        with pytest.raises(SchemeError) as exc:
            REGISTRY.get("nope")
        assert "unknown scheme 'nope'" in str(exc.value)
        assert "fs_rp" in str(exc.value)
        assert exc.value.known == REGISTRY.names()

    def test_scheme_error_is_config_and_value_error(self):
        # Legacy call sites catch ValueError / ConfigError / ReproError;
        # all three must keep working.
        assert issubclass(SchemeError, ConfigError)
        assert issubclass(SchemeError, ReproError)
        assert issubclass(SchemeError, ValueError)

    def test_find_is_lenient(self):
        assert REGISTRY.find("nope") is None
        assert REGISTRY.find("fs_rp") is REGISTRY.get("fs_rp")

    def test_names_where(self):
        assert REGISTRY.names_where(
            family="fs", partitioning="rank"
        ) == ("fs_rp",)
        assert set(REGISTRY.names_where(fixed_service=True)) == {
            "fs_rp", "fs_rp_mc", "fs_bp", "fs_reordered_bp",
            "fs_np", "fs_np_ta",
        }


class TestRegistration:
    def test_identical_reregistration_is_idempotent(self):
        spec = REGISTRY.get("fs_rp")
        assert REGISTRY.register(spec) is spec
        assert REGISTRY.names().count("fs_rp") == 1

    def test_conflicting_reregistration_raises(self):
        spec = REGISTRY.get("fs_rp").replace(expected_l=99)
        with pytest.raises(SchemeError, match="already registered"):
            REGISTRY.register(spec)
        assert REGISTRY.get("fs_rp").expected_l == 7  # untouched

    def test_replace_and_restore(self):
        original = REGISTRY.get("fs_rp")
        tweaked = original.replace(description="tweaked")
        try:
            assert REGISTRY.register(tweaked, replace=True) is tweaked
            assert REGISTRY.get("fs_rp").description == "tweaked"
        finally:
            REGISTRY.register(original, replace=True)

    def test_ensure_replaces_on_conflict(self):
        registry = SchemeRegistry()
        a = SchemeSpec(name="x", family="fcfs", controller="m.A")
        b = SchemeSpec(name="x", family="fcfs", controller="m.B")
        registry.register(a)
        assert registry.ensure(b) == b  # parent grid is authoritative
        assert registry.get("x").controller == "m.B"

    def test_unregister_unknown_raises(self):
        with pytest.raises(SchemeError, match="cannot unregister"):
            REGISTRY.unregister("nope")

    def test_decorator_derives_controller_path(self, scratch):
        decorate = register_scheme(
            "toy_decorated", family="fcfs", secure=False
        )
        assert decorate(DecoratedToyController) is DecoratedToyController
        scratch.append("toy_decorated")
        spec = REGISTRY.get("toy_decorated")
        assert spec.controller == (
            "tests.test_scheme_registry.DecoratedToyController"
        )
        assert spec.controller_class() is DecoratedToyController


class TestSpecValidation:
    def test_bad_partitioning(self):
        with pytest.raises(SchemeError, match="unknown partitioning"):
            SchemeSpec(name="x", controller="m.C", partitioning="blob")

    def test_bad_sharing(self):
        with pytest.raises(SchemeError, match="unknown sharing"):
            SchemeSpec(name="x", controller="m.C", sharing="blob")

    def test_controller_required(self):
        with pytest.raises(SchemeError, match="controller import path"):
            SchemeSpec(name="x")

    def test_positive_solver_fields(self):
        with pytest.raises(SchemeError, match="expected_l"):
            SchemeSpec(name="x", controller="m.C", expected_l=0)

    def test_resolve_errors_are_scheme_errors(self):
        spec = SchemeSpec(name="x", controller="no.such.module.Cls")
        with pytest.raises(SchemeError, match="cannot import"):
            spec.controller_class()
        spec = SchemeSpec(
            name="x", controller="repro.controllers.fcfs.Missing"
        )
        with pytest.raises(SchemeError, match="no attribute"):
            spec.controller_class()

    def test_unknown_family_has_no_builder(self):
        with pytest.raises(SchemeError, match="no builder registered"):
            builder_for("martian")

    def test_duplicate_builder_family_raises(self):
        with pytest.raises(SchemeError, match="already registered"):
            register_builder("fcfs")(lambda *a: None)

    def test_schema_is_stable(self):
        # Docs (INTERNALS §10) and the sweep worker transport both rely
        # on these field names.
        assert spec_fields() == (
            "name", "description", "family", "partitioning",
            "controller", "fast_controller", "sharing", "expected_l",
            "expected_q", "multi_channel", "supports_refresh",
            "supports_prefetch", "secure", "fixed_service",
            "certifiable",
        )


class TestPickleTransport:
    @pytest.mark.parametrize(
        "spec", BUILTIN_SPECS, ids=lambda s: s.name
    )
    def test_every_builtin_spec_pickles(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        # The clone still resolves its controller classes.
        assert clone.controller_class() is spec.controller_class()
        assert clone.controller_class("fast") is \
            spec.controller_class("fast")


class TestTable2Classification:
    """Partition sets are *derived* from specs (satellite: the literal
    tuples in sim/config.py are gone)."""

    def test_rank_partitioned(self):
        assert tuple(RANK_PARTITIONED_SCHEMES) == ("fs_rp", "fs_rp_mc")

    def test_bank_partitioned(self):
        assert set(BANK_PARTITIONED_SCHEMES) == {
            "tp_bp", "fs_bp", "fs_reordered_bp"
        }

    def test_views_are_live(self, scratch):
        spec = REGISTRY.get("fs_rp").replace(name="fs_rp_clone")
        REGISTRY.register(spec)
        scratch.append("fs_rp_clone")
        assert "fs_rp_clone" in RANK_PARTITIONED_SCHEMES

    def test_table2_solutions(self):
        expectations = {
            "fs_rp": (7, 56),
            "fs_bp": (15, 120),
            "fs_np": (43, 344),
            "fs_np_ta": (15, 360),
        }
        for name, (l, q) in expectations.items():
            spec = REGISTRY.get(name)
            assert spec.expected_l == l, name
            assert spec.expected_q == q, name
        assert REGISTRY.get("fs_reordered_bp").expected_q == 63

    def test_validate_for_scheme_uses_registry(self, scratch):
        tight = SystemConfig(num_cores=4)  # 1 channel x 8 ranks
        tight.validate_for_scheme("fs_rp")  # 4 domains fit 8 ranks
        spec = REGISTRY.get("fs_rp").replace(name="fs_rp_wide")
        REGISTRY.register(spec)
        scratch.append("fs_rp_wide")
        crowded = SystemConfig(num_cores=16)
        with pytest.raises(ConfigError, match="rank-partitions"):
            crowded.validate_for_scheme("fs_rp_wide")
        # Unregistered names validate leniently (historical behaviour).
        crowded.validate_for_scheme("some_adhoc_name")


class TestAliasRoundTrip:
    """Registry round-trip with differential observables: a re-registered
    copy of a built-in spec must behave bit-identically."""

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_alias_is_observationally_identical(self, scratch, engine):
        alias = REGISTRY.get("fs_rp").replace(name="fs_rp_alias")
        REGISTRY.register(alias)
        scratch.append("fs_rp_alias")
        specs = suite_specs("mcf", CFG.num_cores)
        a = run_scheme("fs_rp", CFG, specs, engine=engine)
        b = run_scheme("fs_rp_alias", CFG, specs, engine=engine)
        assert a.cycles == b.cycles
        assert a.service_trace == b.service_trace
        assert [c.ipc for c in a.cores] == [c.ipc for c in b.cores]


from repro.controllers.fcfs import FcfsController  # noqa: E402


class DecoratedToyController(FcfsController):
    """Module-level so its dotted path resolves from a spawn worker."""


TOY_SPEC = SchemeSpec(
    name="toy_user_scheme",
    description="user-registered strict FCFS clone",
    family="fcfs",
    partitioning="none",
    controller="repro.controllers.fcfs.FcfsController",
    secure=False,
)


class TestUserSchemeEndToEnd:
    @pytest.fixture(autouse=True)
    def _toy(self, scratch):
        REGISTRY.register(TOY_SPEC)
        scratch.append("toy_user_scheme")

    def test_run_scheme(self):
        specs = suite_specs("mcf", CFG.num_cores)
        mine = run_scheme("toy_user_scheme", CFG, specs)
        real = run_scheme("fcfs", CFG, specs)
        assert mine.cycles == real.cycles  # same controller, same run

    def test_cli_sweep(self, capsys):
        code = main([
            "sweep", "--schemes", "toy_user_scheme", "fcfs",
            "--workloads", "mcf", "--accesses", "60", "--cores", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "toy_user_scheme" in out

    def test_cli_stats(self, capsys):
        code = main([
            "stats", "toy_user_scheme", "mcf",
            "--accesses", "60", "--cores", "4",
        ])
        out = capsys.readouterr().out
        # Non-FS scheme: varied cadence must NOT fail the gate (the
        # verdict is driven by spec.fixed_service, not name sniffing).
        assert code == 0
        assert "toy_user_scheme" in out

    def test_cli_unknown_scheme_sweep_fails_cleanly(self, capsys):
        code = main([
            "sweep", "--schemes", "definitely_not_a_scheme",
            "--workloads", "mcf", "--accesses", "60", "--cores", "4",
        ])
        captured = capsys.readouterr()
        assert code == 1  # failed cell, not a traceback
        assert "SchemeError" in captured.out
        assert "definitely_not_a_scheme" in captured.out
