"""Tests for the workload generator."""

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.sql.ast import WindowSpec
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


class TestWorkloadSpec:
    def test_defaults_match_paper(self):
        spec = WorkloadSpec()
        assert spec.num_relations == 10
        assert spec.attributes_per_relation == 10
        assert spec.value_domain == 100
        assert spec.zipf_theta == 0.9
        assert spec.join_arity == 4

    def test_invalid_arity(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(join_arity=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(num_relations=3, join_arity=4)

    def test_invalid_domain(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(value_domain=0)


class TestQueryGeneration:
    def test_query_shape(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=1))
        query = generator.generate_query()
        assert query.arity == 4
        assert query.num_joins == 3
        assert len(set(query.relations)) == 4
        query.validate(generator.catalog)

    def test_chain_shape_adjacent_joins_share_a_relation(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=2))
        query = generator.generate_query()
        for first, second in zip(query.join_predicates, query.join_predicates[1:]):
            assert first.relations() & second.relations()

    def test_configurable_arity(self):
        generator = WorkloadGenerator(WorkloadSpec(join_arity=6, seed=3))
        query = generator.generate_query()
        assert query.arity == 6
        assert query.num_joins == 5

    def test_window_and_distinct_propagate(self):
        window = WindowSpec(size=50, mode="tuples")
        generator = WorkloadGenerator(
            WorkloadSpec(window=window, distinct=True, seed=4)
        )
        query = generator.generate_query()
        assert query.window == window
        assert query.distinct

    def test_batch_generation(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=5))
        queries = generator.generate_queries(20)
        assert len(queries) == 20

    def test_determinism(self):
        a = WorkloadGenerator(WorkloadSpec(seed=6)).generate_queries(5)
        b = WorkloadGenerator(WorkloadSpec(seed=6)).generate_queries(5)
        assert a == b


class TestTupleGeneration:
    def test_tuple_shape(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=7))
        generated = generator.generate_tuple()
        schema = generator.catalog.get(generated.relation)
        assert len(generated.values) == schema.arity
        assert all(0 <= v < 100 for v in generated.values)

    def test_stream_is_lazy_and_bounded(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=8))
        stream = generator.tuple_stream(5)
        assert len(list(stream)) == 5

    def test_relation_skew(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=9, zipf_theta=0.9))
        counts = Counter(t.relation for t in generator.generate_tuples(2000))
        hottest = generator.hottest_relation()
        coldest = generator.coldest_relation()
        assert counts[hottest] > counts.get(coldest, 0) * 2

    def test_determinism(self):
        a = WorkloadGenerator(WorkloadSpec(seed=10)).generate_tuples(10)
        b = WorkloadGenerator(WorkloadSpec(seed=10)).generate_tuples(10)
        assert a == b


class TestArrivalPatternKnobs:
    def test_invalid_hotkey_specs(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(hot_key_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(hot_key_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(hot_value_count=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(value_domain=10, hot_value_count=11)

    def test_tuple_batches_groups_the_same_stream(self):
        flat = WorkloadGenerator(WorkloadSpec(seed=5))
        batched = WorkloadGenerator(WorkloadSpec(seed=5))
        stream = flat.generate_tuples(20)
        batches = list(batched.tuple_batches(20, 7))
        assert [len(b) for b in batches] == [7, 7, 6]
        assert [t for batch in batches for t in batch] == stream

    def test_tuple_batches_sizes_and_rejects_empty_bursts(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=5))
        assert [len(b) for b in generator.tuple_batches(10, batch_size=5)] == [5, 5]
        assert [len(b) for b in generator.tuple_batches(3, batch_size=1)] == [1, 1, 1]
        with pytest.raises(ConfigurationError):
            list(generator.tuple_batches(4, batch_size=0))

    def test_disabled_hot_keys_leave_stream_unchanged(self):
        classic = WorkloadGenerator(WorkloadSpec(seed=9))
        knobbed = WorkloadGenerator(
            WorkloadSpec(seed=9, hot_key_fraction=0.0, hot_value_count=5)
        )
        assert classic.generate_tuples(50) == knobbed.generate_tuples(50)

    def test_hot_keys_concentrate_values(self):
        generator = WorkloadGenerator(
            WorkloadSpec(seed=9, hot_key_fraction=1.0, hot_value_count=2)
        )
        for generated in generator.generate_tuples(30):
            assert all(value in (0, 1) for value in generated.values)

    def test_hot_key_fraction_is_deterministic(self):
        a = WorkloadGenerator(WorkloadSpec(seed=9, hot_key_fraction=0.5))
        b = WorkloadGenerator(WorkloadSpec(seed=9, hot_key_fraction=0.5))
        assert a.generate_tuples(40) == b.generate_tuples(40)
