"""ExecutionOptions: the single resolution path for every execution knob."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import (
    BoundsConfigError,
    ExecutionError,
    ProgressError,
    ServiceError,
)
from repro.options import (
    BACKENDS,
    BOUND_PROVIDERS,
    DEFAULT_BOUNDS,
    DEFAULT_MAX_WORKERS,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_TARGET_SAMPLES,
    ENGINES,
    ExecutionOptions,
)


class TestDefaults:
    def test_fallbacks(self, monkeypatch):
        for var in ("REPRO_ENGINE", "REPRO_BACKEND", "REPRO_START_METHOD"):
            monkeypatch.delenv(var, raising=False)
        resolved = ExecutionOptions().resolve()
        assert resolved.engine == "fused"
        assert resolved.backend == "thread"
        assert resolved.start_method in \
            multiprocessing.get_all_start_methods()
        assert resolved.target_samples == DEFAULT_TARGET_SAMPLES
        assert resolved.max_workers == DEFAULT_MAX_WORKERS
        assert resolved.queue_depth == DEFAULT_QUEUE_DEPTH

    def test_resolved_flag(self):
        assert not ExecutionOptions().resolved
        assert ExecutionOptions().resolve().resolved

    def test_resolve_is_idempotent(self):
        resolved = ExecutionOptions(engine="interpreted").resolve()
        assert resolved.resolve() == resolved

    def test_frozen(self):
        options = ExecutionOptions()
        with pytest.raises(AttributeError):
            options.engine = "fused"


class TestEnvironment:
    def test_env_fills_unset_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        monkeypatch.setenv("REPRO_BACKEND", "process")
        resolved = ExecutionOptions().resolve()
        assert resolved.engine == "columnar"
        assert resolved.backend == "process"

    def test_explicit_value_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "columnar")
        assert ExecutionOptions(engine="fused").resolve().engine == "fused"

    def test_empty_env_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert ExecutionOptions().resolve().engine == "fused"

    def test_env_is_read_at_resolve_time(self, monkeypatch):
        options = ExecutionOptions()
        monkeypatch.setenv("REPRO_ENGINE", "interpreted")
        assert options.resolve().engine == "interpreted"
        monkeypatch.setenv("REPRO_ENGINE", "fused")
        assert options.resolve().engine == "fused"

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(ServiceError, match="quantum"):
            ExecutionOptions().resolve()


class TestValidation:
    def test_unknown_engine(self):
        with pytest.raises(ExecutionError, match="warp"):
            ExecutionOptions(engine="warp").resolve()

    def test_unknown_start_method(self):
        with pytest.raises(ServiceError, match="teleport"):
            ExecutionOptions(start_method="teleport").resolve()

    @pytest.mark.parametrize("field", ["target_samples", "max_workers",
                                       "queue_depth"])
    def test_nonpositive_sizing(self, field):
        with pytest.raises((ProgressError, ServiceError)):
            ExecutionOptions(**{field: 0}).resolve()

    def test_choice_tuples_are_the_single_source(self):
        assert "fused" in ENGINES
        assert BACKENDS == ("thread", "process")


class TestMerging:
    def test_merged_overrides_non_none(self):
        base = ExecutionOptions(engine="fused", max_workers=2)
        merged = base.merged(engine="columnar", queue_depth=8,
                             backend=None)
        assert merged.engine == "columnar"
        assert merged.max_workers == 2
        assert merged.queue_depth == 8
        assert merged.backend is None

    def test_merged_with_nothing_returns_self(self):
        base = ExecutionOptions(engine="fused")
        assert base.merged(engine=None, backend=None) is base

    def test_merged_rejects_unknown_keys(self):
        with pytest.raises(TypeError):
            ExecutionOptions().merged(engin="fused")

    def test_base_is_untouched(self):
        base = ExecutionOptions(engine="fused")
        base.merged(engine="columnar")
        assert base.engine == "fused"


class TestBounds:
    def test_default_stack(self, monkeypatch):
        monkeypatch.delenv("REPRO_BOUNDS", raising=False)
        assert ExecutionOptions().resolve().bounds == DEFAULT_BOUNDS

    def test_env_comma_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOUNDS", "paper2005, degree_seq")
        resolved = ExecutionOptions().resolve()
        assert resolved.bounds == ("paper2005", "degree_seq")

    def test_env_drops_empty_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOUNDS", "paper2005,,")
        assert ExecutionOptions().resolve().bounds == ("paper2005",)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOUNDS", "paper2005,degree_seq")
        resolved = ExecutionOptions(bounds=("paper2005",)).resolve()
        assert resolved.bounds == ("paper2005",)

    def test_list_input_normalized_to_tuple(self):
        options = ExecutionOptions(bounds=["paper2005", "degree_seq"])
        assert options.bounds == ("paper2005", "degree_seq")

    def test_unknown_provider_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BOUNDS", "paper2005,sketchy")
        with pytest.raises(BoundsConfigError, match="unknown"):
            ExecutionOptions().resolve()

    def test_duplicates_rejected(self):
        with pytest.raises(BoundsConfigError, match="duplicate"):
            ExecutionOptions(
                bounds=("paper2005", "paper2005")
            ).resolve()

    def test_paper2005_is_mandatory(self):
        with pytest.raises(BoundsConfigError, match="paper2005"):
            ExecutionOptions(bounds=("degree_seq",)).resolve()

    def test_static_name_list_matches_registry(self):
        from repro.core.bounds import provider_names

        assert tuple(sorted(BOUND_PROVIDERS)) == tuple(provider_names())


class TestRendering:
    def test_to_dict_round_trip(self):
        resolved = ExecutionOptions(max_workers=3).resolve()
        rendered = resolved.to_dict()
        assert rendered["max_workers"] == 3
        assert ExecutionOptions(**rendered) == resolved

    def test_to_dict_renders_bounds_as_list(self):
        resolved = ExecutionOptions(
            bounds=("paper2005", "degree_seq")
        ).resolve()
        rendered = resolved.to_dict()
        assert rendered["bounds"] == ["paper2005", "degree_seq"]
        assert ExecutionOptions(**rendered) == resolved
