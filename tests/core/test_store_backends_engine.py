"""Cross-backend equivalence at the engine level.

The tuple-store backend is an implementation detail of node-local state, so
swapping it must never change *what* the system computes: the bag of
answers, the stored-state aggregates and the re-homing behaviour under
membership change all have to match the default ``memory`` backend — and,
on library-default configurations, the centralised reference oracle.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.data.backends import BACKEND_NAMES
from repro.sql.ast import WindowSpec
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

ALTERNATIVE_BACKENDS = tuple(name for name in BACKEND_NAMES if name != "memory")


def run_workload(backend: str, window: WindowSpec, seed: int = 11):
    """One window-churn-style run (GC pressure on) on the given backend."""
    spec = WorkloadSpec(
        num_relations=4,
        attributes_per_relation=3,
        value_domain=4,
        join_arity=3,
        window=window,
        seed=seed,
    )
    generator = WorkloadGenerator(spec)
    config = RJoinConfig(
        num_nodes=16,
        seed=seed,
        store_backend=backend,
        tuple_gc_window=window,
        gc_every_tuples=10,
    )
    engine = RJoinEngine(config)
    engine.register_catalog(generator.catalog)
    reference = ReferenceEngine(generator.catalog)
    handles = []
    for query in generator.generate_queries(6):
        handle = engine.submit(query)
        reference.submit(
            query, query_id=handle.query_id, insertion_time=handle.insertion_time
        )
        handles.append(handle)
    for generated in generator.generate_tuples(60):
        tup = engine.publish(generated.relation, generated.values)
        reference.publish_tuple(tup)
    return engine, reference, handles


def as_bag(values) -> List[str]:
    return sorted(repr(v) for v in values)


def stored_slots(store) -> List[Tuple[str, Tuple[str, int]]]:
    """Every ``(key, tuple identity)`` slot of a store, sorted."""
    return sorted(
        (key, tup.identity) for key in store.keys() for tup in store.tuples_for_key(key)
    )


class TestAnswerEquivalence:
    @pytest.mark.parametrize("backend", ALTERNATIVE_BACKENDS)
    @pytest.mark.parametrize("window_size", [10, 25])
    def test_backend_answers_match_memory_and_reference(
        self, backend, window_size
    ):
        """The window-churn grid produces identical answers on every backend."""
        window = WindowSpec(size=float(window_size), mode="tuples")
        memory_engine, memory_ref, memory_handles = run_workload("memory", window)
        engine, reference, handles = run_workload(backend, window)
        assert len(handles) == len(memory_handles)
        for handle, memory_handle in zip(handles, memory_handles):
            bag = as_bag(handle.values())
            assert bag == as_bag(memory_handle.values())
            assert bag == as_bag(reference.answers(handle.query_id))

    @pytest.mark.parametrize("backend", ALTERNATIVE_BACKENDS)
    def test_stored_state_aggregates_match_memory(self, backend):
        window = WindowSpec(size=25.0, mode="tuples")
        memory_engine, _, _ = run_workload("memory", window)
        engine, _, _ = run_workload(backend, window)
        for address, node in engine.nodes.items():
            memory_node = memory_engine.nodes[address]
            assert len(node.tuple_store) == len(memory_node.tuple_store)
            assert stored_slots(node.tuple_store) == stored_slots(
                memory_node.tuple_store
            )
        assert engine.metrics_summary() == memory_engine.metrics_summary()


class TestMembershipAcrossBackends:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_graceful_membership_conserves_state(self, backend):
        """Join + graceful leave re-home records into the survivors' backends."""
        window = WindowSpec(size=50.0, mode="tuples")
        engine, _, handles = run_workload(backend, window)
        stored_before = sum(len(n.tuple_store) for n in engine.nodes.values())
        engine.add_node()
        engine.remove_node(graceful=True)
        stored_after = sum(len(n.tuple_store) for n in engine.nodes.values())
        assert stored_after == stored_before
        assert engine.churn.records_lost == 0
        # The re-homed records live in stores of the engine's backend kind.
        for node in engine.nodes.values():
            assert node.tuple_store.name == backend

    @pytest.mark.parametrize("backend", ALTERNATIVE_BACKENDS)
    def test_crash_accounting_matches_memory(self, backend):
        window = WindowSpec(size=50.0, mode="tuples")
        memory_engine, _, _ = run_workload("memory", window)
        engine, _, _ = run_workload(backend, window)
        memory_engine.crash_node("node-3")
        engine.crash_node("node-3")
        assert engine.churn.records_lost == memory_engine.churn.records_lost
        assert engine.churn.bytes_lost == memory_engine.churn.bytes_lost
