"""The benchmark's workloads and the closed-loop driver that runs them.

A workload is a fixed recipe: a network size, a catalog and query mix drawn
by :class:`repro.workload.generator.WorkloadGenerator`, a tuple stream, a
publishing mode (per-tuple ``publish`` or ``publish_batch``), a store
backend and, for ``ingest-churn``, a schedule of graceful joins/leaves and
query replacements.  :func:`make_inputs` turns a recipe and a seed into the
concrete inputs; :func:`run_rep` replays them through one fresh
:class:`~repro.core.engine.RJoinEngine`.  One single-threaded caller drives
the engine in a closed loop: each ``publish``/``publish_batch`` call returns
only after the drain delivered every answer it triggered, so the call's wall
time runs from the tuples' creation to their last answer.

A *rep* is one instance run on a fresh engine.  Every rep of one instance
seed sees identical inputs, so its answer bag, traffic and logical answer
delays repeat exactly; only wall times vary.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.answers import QueryHandle
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.data.schema import Catalog
from repro.sql.ast import Query, WindowSpec
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what the engine is given and how it is driven."""

    name: str
    num_nodes: int
    num_queries: int
    num_relations: int
    attributes_per_relation: int
    value_domain: int
    zipf_theta: float
    join_arity: int
    window: WindowSpec
    gc_every_tuples: int
    store_backend: str
    #: Independent instances (each with its own derived seed: queries,
    #: tuple stream and ring) pooled in one run, so a run's figures
    #: average over several draws of the workload instead of one.
    instances: int
    #: Tuples published per instance (one fresh engine per instance).
    tuples_per_rep: int
    #: 1 publishes tuple by tuple; larger values use ``publish_batch``.
    batch_size: int = 1
    #: Every this many tuples a graceful join or leave runs (0: never).
    churn_every: int = 0
    #: Every this many tuples one standing query is replaced (0: never).
    swap_every: int = 0

    def instance_seeds(self, seed: int) -> List[int]:
        """The seeds of a run's instances, disjoint across run seeds."""
        return [seed * 100 + index for index in range(self.instances)]

    def config(self, seed: int) -> RJoinConfig:
        return RJoinConfig(
            num_nodes=self.num_nodes,
            seed=seed,
            strategy="rjoin",
            hop_delay=1.0,
            delay_jitter=0.0,
            store_backend=self.store_backend,
            tuple_gc_window=self.window,
            gc_every_tuples=self.gc_every_tuples,
        )


#: Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Answers dominate the deliveries: the answer path and the
        # rewrite/trigger loop.
        Workload(
            name="answer-heavy",
            num_nodes=24,
            num_queries=30,
            num_relations=4,
            attributes_per_relation=3,
            value_domain=4,
            zipf_theta=0.9,
            join_arity=3,
            window=WindowSpec(40, "tuples"),
            gc_every_tuples=25,
            store_backend="memory",
            instances=10,
            tuples_per_rep=150,
        ),
        # A large resident query population and almost no answers: eval
        # indexing, RIC chains, routing and query-table probes.  The 40-tuple
        # window yields enough answers for a steady p95 answer delay.
        Workload(
            name="query-heavy",
            num_nodes=64,
            num_queries=1000,
            num_relations=10,
            attributes_per_relation=10,
            value_domain=100,
            zipf_theta=0.9,
            join_arity=4,
            window=WindowSpec(40, "tuples"),
            gc_every_tuples=25,
            store_backend="memory",
            instances=6,
            tuples_per_rep=100,
        ),
        # The write path: batched ingestion into sqlite under graceful
        # joins/leaves and query replacement.
        Workload(
            name="ingest-churn",
            num_nodes=32,
            num_queries=20,
            num_relations=6,
            attributes_per_relation=4,
            value_domain=200,
            zipf_theta=0.3,
            join_arity=3,
            window=WindowSpec(40, "time"),
            gc_every_tuples=50,
            store_backend="sqlite",
            instances=4,
            tuples_per_rep=2500,
            batch_size=25,
            churn_every=500,
            swap_every=250,
        ),
    )
}


@dataclass
class Inputs:
    """The generated inputs of one (workload, seed) pair."""

    catalog: Catalog
    queries: List[Query]
    rows: List[Tuple[str, Tuple[int, ...]]]
    #: Replacement queries and, per swap, the position of the standing
    #: query (in submission order among the active ones) that leaves.
    replacements: List[Query]
    victims: List[int]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the queries, tuples and swap schedule from ``seed`` alone."""
    spec = WorkloadSpec(
        num_relations=workload.num_relations,
        attributes_per_relation=workload.attributes_per_relation,
        value_domain=workload.value_domain,
        zipf_theta=workload.zipf_theta,
        join_arity=workload.join_arity,
        window=workload.window,
        seed=seed,
    )
    generator = WorkloadGenerator(spec)
    queries = generator.generate_queries(workload.num_queries)
    rows = [
        (generated.relation, generated.values)
        for generated in generator.generate_tuples(workload.tuples_per_rep)
    ]
    swaps = (
        workload.tuples_per_rep // workload.swap_every if workload.swap_every else 0
    )
    replacements = generator.generate_queries(swaps)
    # Swap victims come from their own stream, apart from the generator's.
    picker = random.Random(seed * 7919 + 17)
    victims = [picker.randrange(workload.num_queries) for _ in range(swaps)]
    return Inputs(generator.catalog, queries, rows, replacements, victims)


@dataclass
class RepResult:
    """What one rep measured and what it produced."""

    setup_s: float
    #: Wall time of every publish/publish_batch call, in seconds.
    call_s: List[float]
    #: Wall time of the publish phase: the calls plus churn and swaps.
    phase_s: float
    tuples: int
    #: Logical ``TrafficStats`` messages sent in the publish phase.
    messages: int
    #: Kernel events (deliveries) processed in the publish phase.
    events: int
    #: Logical answer delays: delivery time minus the call's pub_time.
    delays: List[float]
    #: Every query's delivered answer bag, removed queries included.
    bags: Dict[str, Counter]
    #: Oracle replay log in engine order: ("submit", query, query_id,
    #: insertion_time) / ("publish", tuples) / ("remove", query_id).
    log: List[tuple]
    #: ``metrics_summary`` at the start and the end of the publish phase.
    summary_before: Dict[str, float]
    summary_after: Dict[str, float]
    #: Tuples resident in the nodes' stores when the stream ends.
    resident_tuples: int

    def fingerprint(self) -> Tuple[str, int, int, Tuple[float, ...]]:
        """What must repeat exactly across reps of one seed."""
        sha = hashlib.sha256()
        for query_id in sorted(self.bags):
            sha.update(query_id.encode())
            for text in sorted(repr(values) for values in self.bags[query_id].elements()):
                sha.update(text.encode())
            sha.update(b"\n")
        return sha.hexdigest()[:16], self.messages, self.events, tuple(self.delays)


def build(
    workload: Workload, inputs: Inputs, seed: int
) -> Tuple[RJoinEngine, List[QueryHandle], float]:
    """Construct the engine and submit the standing queries.

    Returns the engine, the handles and the set-up time: from the engine's
    construction through the last standing-query submission.
    """
    clock = time.perf_counter
    start = clock()
    engine = RJoinEngine(workload.config(seed), catalog=inputs.catalog)
    handles = [engine.submit(query) for query in inputs.queries]
    return engine, handles, clock() - start


def run_rep(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    on_phase: Optional[Callable[[str], None]] = None,
) -> RepResult:
    """Build a fresh engine, submit the queries, publish every tuple, close.

    ``on_phase("start")`` and ``on_phase("end")`` bracket the publish phase
    (the traced run snapshots its counters there).
    """
    engine, handles, setup_s = build(workload, inputs, seed)
    try:
        return _publish_phase(workload, inputs, engine, handles, setup_s, on_phase)
    finally:
        engine.close()


def _publish_phase(
    workload: Workload,
    inputs: Inputs,
    engine: RJoinEngine,
    handles: List[QueryHandle],
    setup_s: float,
    on_phase: Optional[Callable[[str], None]],
) -> RepResult:
    clock = time.perf_counter
    log: List[tuple] = [_submitted(handle) for handle in handles]
    everything = list(handles)
    active = list(handles)
    cursors = {handle.query_id: 0 for handle in handles}
    delays: List[float] = []
    call_s: List[float] = []
    phase_s = 0.0
    rows = inputs.rows
    batch = workload.batch_size
    swaps = 0
    joins_next = True
    published = 0
    summary_before = engine.metrics_summary()
    messages_before = engine.traffic.total_messages
    events_before = engine.transport.events_processed
    if on_phase is not None:
        on_phase("start")
    while published < len(rows):
        chunk = rows[published : published + batch]
        pub_time = engine.now
        start = clock()
        if batch == 1:
            relation, values = chunk[0]
            tuples = [engine.publish(relation, values)]
        else:
            tuples = engine.publish_batch(chunk)
        elapsed = clock() - start
        call_s.append(elapsed)
        phase_s += elapsed
        before = published
        published += len(chunk)
        log.append(("publish", tuples))
        # Bookkeeping outside the timed region: the answers this call
        # delivered, and their delay from the call's publication time.
        _collect(active, cursors, delays, pub_time)
        if _crossed(before, published, workload.swap_every):
            victim = active.pop(inputs.victims[swaps] % len(active))
            start = clock()
            engine.remove_query(victim.query_id)
            newcomer = engine.submit(inputs.replacements[swaps])
            phase_s += clock() - start
            swaps += 1
            log.append(("remove", victim.query_id))
            log.append(_submitted(newcomer))
            active.append(newcomer)
            everything.append(newcomer)
            cursors[newcomer.query_id] = 0
        if _crossed(before, published, workload.churn_every):
            start = clock()
            if joins_next:
                engine.add_node()
            else:
                # The victim is any live node, query owners included.
                engine.remove_node(graceful=True)
            phase_s += clock() - start
            joins_next = not joins_next
        # Swaps and membership changes send no answers; resync anyway so a
        # stray one is never charged to the next call.
        _collect(active, cursors, None, pub_time)
    if on_phase is not None:
        on_phase("end")
    return RepResult(
        setup_s=setup_s,
        call_s=call_s,
        phase_s=phase_s,
        tuples=published,
        messages=engine.traffic.total_messages - messages_before,
        events=engine.transport.events_processed - events_before,
        delays=delays,
        bags={handle.query_id: Counter(handle.values()) for handle in everything},
        log=log,
        summary_before=summary_before,
        summary_after=engine.metrics_summary(),
        resident_tuples=sum(len(node.tuple_store) for node in engine.nodes.values()),
    )


def _submitted(handle: QueryHandle) -> tuple:
    return ("submit", handle.query, handle.query_id, handle.insertion_time)


def _crossed(before: int, after: int, every: int) -> bool:
    """Whether an ``every``-tuples boundary lies in ``(before, after]``."""
    return every > 0 and after // every > before // every


def _collect(
    active: List[QueryHandle],
    cursors: Dict[str, int],
    delays: Optional[List[float]],
    pub_time: float,
) -> None:
    """Advance every handle's cursor, recording delays when ``delays`` is given."""
    for handle in active:
        seen = cursors[handle.query_id]
        answers = handle.answers
        if len(answers) > seen:
            if delays is not None:
                for answer in answers[seen:]:
                    delays.append(answer.delivered_at - pub_time)
            cursors[handle.query_id] = len(answers)
