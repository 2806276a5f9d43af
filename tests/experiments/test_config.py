"""Tests for experiment configuration."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, is_full_scale


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.num_nodes > 0
        assert config.strategy == "rjoin"

    def test_invalid_values(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_nodes=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_tuples=-1)
        with pytest.raises(ExperimentError):
            ExperimentConfig(join_arity=1)
        with pytest.raises(ExperimentError):
            ExperimentConfig(warmup_tuples=-1)

    def test_checkpoints_must_be_within_range(self):
        ExperimentConfig(num_tuples=100, checkpoints=[50, 100])
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_tuples=100, checkpoints=[200])
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_tuples=100, checkpoints=[0])

    def test_with_overrides_returns_copy(self):
        config = ExperimentConfig(num_queries=10)
        changed = config.with_overrides(num_queries=20, strategy="worst")
        assert changed.num_queries == 20
        assert changed.strategy == "worst"
        assert config.num_queries == 10

    def test_with_overrides_rejects_unknown_fields(self):
        config = ExperimentConfig()
        with pytest.raises(ExperimentError) as excinfo:
            config.with_overrides(publish_mode="batch")
        message = str(excinfo.value)
        assert "publish_mode" in message
        assert "batch_size" in message  # the known fields are listed

    def test_presets(self):
        assert ExperimentConfig.paper_scale().num_nodes == 1000
        assert ExperimentConfig.default_scale().num_nodes == 100
        assert ExperimentConfig.paper_scale(num_tuples=5).num_tuples == 5

    def test_is_full_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert not is_full_scale()
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert is_full_scale()
        monkeypatch.setenv("REPRO_FULL_SCALE", "0")
        assert not is_full_scale()
