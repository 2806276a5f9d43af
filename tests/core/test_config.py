"""Tests for engine configuration validation."""

import pytest

from repro.core.config import AUTO, RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import ExperimentConfig


class TestRJoinConfig:
    def test_defaults_are_valid(self):
        config = RJoinConfig()
        assert config.num_nodes > 0
        assert config.strategy == "rjoin"
        assert config.altt_delta == AUTO

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_nodes", 0),
            ("bits", 0),
            ("bits", 512),
            ("hop_delay", -1.0),
            ("hop_delay", 0.0),
            ("delay_jitter", -0.5),
            ("ric_window", 0.0),
            ("ric_freshness", -1.0),
            ("gc_every_tuples", 0),
            ("rebalance_every_tuples", 0),
            ("light_load_factor", 0.0),
            ("light_load_factor", 1.5),
            ("altt_delta", -1.0),
            ("altt_delta", "whenever"),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            RJoinConfig(**{field: value})

    def test_resolve_altt_delta_auto(self):
        config = RJoinConfig(altt_delta=AUTO)
        assert config.resolve_altt_delta(10.0) == 40.0
        assert config.resolve_altt_delta(0.0) is None

    def test_resolve_altt_delta_explicit(self):
        assert RJoinConfig(altt_delta=7.5).resolve_altt_delta(100.0) == 7.5
        assert RJoinConfig(altt_delta=None).resolve_altt_delta(100.0) is None


class TestZeroHopDelay:
    """With no hop delay the clock never advances, so a query's insertion
    time equals the publication time of tuples published before it and
    ``pubT(t) >= insT(q)`` admits them: R(1,10) and S(10,5) below would
    join into answers of a query submitted after both."""

    def test_zero_hop_delay_is_rejected(self):
        with pytest.raises(ConfigurationError, match="hop_delay"):
            RJoinConfig(num_nodes=8, hop_delay=0.0)
        with pytest.raises(ExperimentError, match="hop_delay"):
            ExperimentConfig(hop_delay=0.0)

    def test_tuples_published_before_the_query_never_join(self):
        engine = RJoinEngine(RJoinConfig(num_nodes=8, hop_delay=0.1))
        engine.register_relation("R", ["a", "b"])
        engine.register_relation("S", ["c", "d"])
        reference = ReferenceEngine(engine.catalog)
        earlier = engine.publish_batch([("R", (1, 10)), ("S", (10, 5))])
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        reference.submit(
            handle.query,
            query_id=handle.query_id,
            insertion_time=handle.insertion_time,
        )
        later = [engine.publish("R", (2, 10)), engine.publish("S", (10, 6))]
        for tup in earlier + later:
            reference.publish_tuple(tup)
        assert all(tup.pub_time < handle.insertion_time for tup in earlier)
        assert sorted(handle.values()) == [(2, 6)]
        assert sorted(reference.answers(handle.query_id)) == [(2, 6)]
