"""Unit tests for the scheduler registry.

Registry names are the only way to name a scheduler; these tests pin
the resolution rules (names, did-you-mean errors), the registration
guard rails, and the ``ServingConfig.scheduler`` boundary: a non-string
fails at construction, an unknown name only at build time, so late
plug-in registrations still work.
"""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, build_scheduler, simulate
from repro.core.sarathi import SarathiScheduler
from repro.scheduling.registry import (
    SchedulerSpec,
    list_specs,
    register,
    registered_names,
    resolve,
    unregister,
)
from tests.conftest import BUILTIN_SCHEDULERS, make_request

THEORY_NAMES = ("srpt_oracle", "srpt_predicted", "fcfs_aging")


class TestResolution:
    def test_all_builtins_registered_in_order(self):
        names = registered_names()
        assert names[: len(BUILTIN_SCHEDULERS)] == list(BUILTIN_SCHEDULERS)
        for name in THEORY_NAMES:
            assert name in names

    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(ValueError, match="did you mean 'sarathi_dynamic'"):
            resolve("sarathi_dyn")

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="registered: faster_transformer"):
            resolve("no_such_policy")

    def test_list_specs_matches_names(self):
        assert [spec.name for spec in list_specs()] == registered_names()


class TestRegistrationGuards:
    def _spec(self, name: str) -> SchedulerSpec:
        return SchedulerSpec(
            name=name,
            build=lambda ctx: (_ for _ in ()).throw(NotImplementedError),
            build_vectorized=lambda ctx: (_ for _ in ()).throw(NotImplementedError),
            description="guard-rail test spec",
        )

    def test_duplicate_name_rejected_without_replace(self):
        register(self._spec("guard_test"))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register(self._spec("guard_test"))
            register(self._spec("guard_test"), replace=True)
        finally:
            unregister("guard_test")
        assert "guard_test" not in registered_names()

    def test_builtin_names_are_protected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(self._spec("sarathi"))

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister("never_registered")

    def test_invalid_memory_family_rejected(self):
        with pytest.raises(ValueError, match="unknown memory family"):
            SchedulerSpec(
                name="bad_family",
                build=lambda ctx: None,
                build_vectorized=lambda ctx: None,
                memory_family="slab",
            )


class TestServingConfigBoundary:
    @pytest.mark.parametrize("value", [3, None, b"sarathi"])
    def test_non_string_scheduler_raises_naming_field(self, value):
        with pytest.raises(TypeError, match="scheduler"):
            ServingConfig(scheduler=value)

    def test_name_kept_as_given(self):
        assert ServingConfig(scheduler="srpt_oracle").scheduler == "srpt_oracle"

    def test_unknown_name_fails_at_build_not_construction(self, tiny_deployment):
        config = ServingConfig(scheduler="late_plugin")
        with pytest.raises(ValueError, match="unknown scheduler 'late_plugin'"):
            build_scheduler(tiny_deployment, config)
        # A registration after the config was written makes it buildable.
        register(SchedulerSpec(
            name="late_plugin",
            build=resolve("sarathi").build,
            build_vectorized=resolve("sarathi").build_vectorized,
            description="late registration test spec",
        ))
        try:
            assert isinstance(
                build_scheduler(tiny_deployment, config), SarathiScheduler
            )
        finally:
            unregister("late_plugin")


class TestOneRuntimeEngine:
    def test_default_engine_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "object")
        assert ServingConfig().engine == "vectorized"

    def test_every_registered_name_simulates_on_default_engine(
        self, tiny_deployment
    ):
        trace = [
            make_request(prompt_len=48 + 16 * (i % 4), output_len=6, arrival_time=0.05 * i)
            for i in range(8)
        ]
        for name in registered_names():
            result, _ = simulate(
                tiny_deployment, ServingConfig(scheduler=name, token_budget=256), trace
            )
            assert result.engine_stats.kind == "vectorized", name
            assert not result.unfinished, name
