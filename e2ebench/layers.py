"""Outside-in layer trace: timing wrappers around each module's public calls.

Nothing under ``src/`` knows about this tracer.  :meth:`LayerTracer.install`
replaces the public functions of each layer with wrappers that time the call
on a shared stack, so a call's *self time* is its duration minus the time of
the wrapped calls inside it.  Install before building the engine: the engine
binds ``RJoinNode.handle_envelope`` to the messaging service at
construction.  ``rewrite_query`` is patched in the ``repro.core.node``
namespace, where the node looks it up.

Counters aggregate over every traced call; :meth:`LayerTracer.mark`
brackets publish phases, whose counters :func:`layer_metrics` reports.
Spans are kept in memory for the first ``span_calls`` publish calls and
written as :mod:`repro.obs` Span JSONL (times in milliseconds since the
tracer started), which ``python -m repro obs summarize|convert`` reads.

A wrapper's own bookkeeping lands in its caller's self time, so
``net.simulator.drain`` self time includes the per-delivery tracing cost;
the untraced run's end-to-end metrics are the ones to compare.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.core.node as node_module
from repro.core.altt import AttributeLevelTupleTable
from repro.core.answers import QueryHandle
from repro.core.engine import RJoinEngine
from repro.core.node import QueryTable, RJoinNode
from repro.core.protocol import (
    AnswerMessage,
    EvalMessage,
    IndexQueryMessage,
    NewTupleMessage,
    RetractQueryMessage,
    RicReplyMessage,
    RicRequestMessage,
)
from repro.core.ric import CandidateTable
from repro.data.sqlite_store import SqliteTupleStore
from repro.data.store import TupleStore
from repro.dht.api import DHTMessagingService
from repro.dht.chord import ChordRing
from repro.net.simulator import SimTransport
from repro.obs.trace import Span

if TYPE_CHECKING:
    from workloads import RepResult

#: The seven protocol message kinds, in the order the node dispatches them.
MESSAGE_KINDS = (
    NewTupleMessage,
    EvalMessage,
    IndexQueryMessage,
    RicRequestMessage,
    RicReplyMessage,
    AnswerMessage,
    RetractQueryMessage,
)
HANDLERS = tuple(f"core.node.handle.{kind.__name__}" for kind in MESSAGE_KINDS)

#: The engine-level calls: their self time is the engine's own.
ROOT_CALLS = (
    "core.engine.publish",
    "core.engine.submit",
    "core.engine.churn",
    "core.engine.remove_query",
)

Metrics = Dict[str, Tuple[float, str]]
After = Callable[[Tuple[Any, ...], Any], None]


class LayerTracer:
    """Self-time accounting over a stack of timed calls."""

    def __init__(self, span_calls: int = 10) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        #: Wall time of the outermost (engine-level) calls.
        self.root_s = 0.0
        #: The same four, accumulated over publish phases only (see mark).
        self.phase: Dict[str, Any] = {
            "calls": Counter(),
            "self_s": Counter(),
            "counts": Counter(),
            "root_s": 0.0,
        }
        self.spans: List[Span] = []
        self.span_calls = span_calls
        self._roots_recorded = 0
        self._trace_id: Optional[str] = None
        self._next_span = 1
        self._stack: List[list] = []
        self._origin = time.perf_counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._mark: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[After] = None,
        name_of: Optional[Callable[[Tuple[Any, ...]], str]] = None,
        traced: bool = False,
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter
        calls = self.calls
        self_s = self.self_s
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name if name_of is None else name_of(args)
            if traced and not stack:
                tracer._open_trace()
            # [time of the wrapped calls inside, span id (0: not kept), label]
            frame = [0.0, 0, label]
            if tracer._trace_id is not None:
                frame[1] = tracer._next_span
                tracer._next_span += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                calls[label] += 1
                self_s[label] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
                if frame[1]:
                    tracer._record(label, frame[1], start, end, args)
                if traced and not stack:
                    tracer._trace_id = None
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _open_trace(self) -> None:
        if self._roots_recorded < self.span_calls:
            self._roots_recorded += 1
            self._trace_id = f"pub-{self._roots_recorded}"

    def _record(
        self, name: str, span_id: int, start: float, end: float, args: tuple
    ) -> None:
        parent = self._stack[-1][1] if self._stack else 0
        envelope = args[1] if name in HANDLERS else None
        start_ms = (start - self._origin) * 1e3
        end_ms = (end - self._origin) * 1e3
        self.spans.append(
            Span(
                trace_id=self._trace_id or "",
                span_id=span_id,
                parent_id=parent or None,
                name=name,
                node=envelope.destination if envelope is not None else "engine",
                start=start_ms,
                end=end_ms,
                sent_at=start_ms,
                hops=envelope.hops if envelope is not None else 0,
                hop=len(self._stack),
                wall_us=(end - start) * 1e6,
            )
        )

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        wrapped = self._timed(name, getattr(owner, attribute), **options)
        self._patch(owner, attribute, wrapped)

    def install(self) -> None:
        """Wrap every traced call (undo with :meth:`uninstall`)."""
        counts = self.counts
        stack = self._stack
        kind_names = dict(zip(MESSAGE_KINDS, HANDLERS))

        def kind_of(args: Tuple[Any, ...]) -> str:
            return kind_names.get(type(args[1].message), "core.node.handle.other")

        def route_hops(args: Tuple[Any, ...], path: Any) -> None:
            counts["dht.chord.hops"] += len(path) - 1

        def answer_sends(args: Tuple[Any, ...], envelope: Any) -> None:
            if isinstance(args[2], AnswerMessage):
                counts["dht.api.send_direct.answer_calls"] += 1

        def probe_candidates(args: Tuple[Any, ...], result: Any) -> None:
            counts["core.node.querytable_probe.candidates"] += len(result[0])

        def rewrite_alive(args: Tuple[Any, ...], result: Any) -> None:
            alive = not result.dead
            counts["core.rewriting.alive"] += alive
            # A trigger on tuple arrival: the rewrite runs right under the
            # NewTupleMessage handler, on a candidate the probe returned.
            if stack and stack[-1][2] == "core.node.handle.NewTupleMessage":
                counts["core.node.trigger_hits"] += alive

        lookup = CandidateTable.lookup

        def ric_lookup(*args: Any) -> Any:
            entry = lookup(*args)
            counts["core.ric.lookups"] += 1
            counts["core.ric.hits"] += entry is not None
            return entry

        engine = RJoinEngine
        # Only publish calls open a kept trace; every outermost call counts
        # towards root_s.
        self._wrap(engine, "publish", "core.engine.publish", traced=True)
        self._wrap(engine, "publish_batch", "core.engine.publish", traced=True)
        self._wrap(engine, "submit", "core.engine.submit")
        self._wrap(engine, "add_node", "core.engine.churn")
        self._wrap(engine, "remove_node", "core.engine.churn")
        self._wrap(engine, "remove_query", "core.engine.remove_query")
        self._wrap(SimTransport, "drain", "net.simulator.drain")
        api = DHTMessagingService
        self._wrap(api, "send", "dht.api.send")
        self._wrap(api, "send_direct", "dht.api.send_direct", after=answer_sends)
        self._wrap(api, "multi_send", "dht.api.multi_send")
        self._wrap(ChordRing, "route_path", "dht.chord.route_path", after=route_hops)
        self._wrap(RJoinNode, "handle_envelope", "core.node.handle", name_of=kind_of)
        self._wrap(RJoinNode, "gc_expired_state", "core.node.gc_expired_state")
        self._wrap(
            QueryTable, "probe", "core.node.querytable_probe", after=probe_candidates
        )
        self._wrap(
            node_module,
            "rewrite_query",
            "core.rewriting.rewrite_query",
            after=rewrite_alive,
        )
        self._patch(CandidateTable, "lookup", ric_lookup)
        for attribute in ("add", "find", "expire"):
            self._wrap(AttributeLevelTupleTable, attribute, f"core.altt.{attribute}")
        for store in (TupleStore, SqliteTupleStore):
            for attribute in (
                "add",
                "add_batch",
                "tuples_for_key",
                "match_batch",
                "remove_expired",
                "flush",
            ):
                self._wrap(store, attribute, f"data.store.{attribute}")
        self._wrap(QueryHandle, "add_answer", "core.answers.add_answer")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # phases and output
    # ------------------------------------------------------------------
    def mark(self, event: str) -> None:
        """``on_phase`` hook: add each publish phase's counters to :attr:`phase`."""
        current = {
            "calls": Counter(self.calls),
            "self_s": Counter(self.self_s),
            "counts": Counter(self.counts),
            "root_s": self.root_s,
        }
        if event == "start":
            self._mark = current
            return
        for table in ("calls", "self_s", "counts"):
            grown = current[table]
            grown.subtract(self._mark[table])
            self.phase[table].update(grown)
        self.phase["root_s"] += current["root_s"] - self._mark["root_s"]

    def write_spans(self, path: str) -> int:
        """Write the kept spans as Span JSONL; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
        return len(self.spans)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer,
    traced: Sequence[Sequence["RepResult"]],
    untraced_tps: float,
) -> Metrics:
    """The per-layer metrics, per traced pass, over the publish phases.

    ``core.engine.submit`` also counts the set-up's submissions.
    """
    per_pass = 1.0 / len(traced)
    reps = [rep for results in traced for rep in results]
    calls = Counter(tracer.phase["calls"])
    self_s = Counter(tracer.phase["self_s"])
    counts = tracer.phase["counts"]
    calls["core.engine.submit"] = tracer.calls["core.engine.submit"]
    self_s["core.engine.submit"] = tracer.self_s["core.engine.submit"]
    summary: Counter = Counter()
    for rep in reps:
        for key, value in rep.summary_after.items():
            summary[key] += value - rep.summary_before[key]
    deliveries = sum(calls[name] for name in HANDLERS)
    metrics: Metrics = {}

    def timed(name: str, *parts: str) -> None:
        parts = parts or (name,)
        metrics[f"{name}.calls"] = (sum(calls[p] for p in parts) * per_pass, "count")
        metrics[f"{name}.self_s"] = (sum(self_s[p] for p in parts) * per_pass, "s")

    def counted(name: str, value: float) -> None:
        metrics[name] = (value * per_pass, "count")

    for name in ROOT_CALLS:
        timed(name)
    timed("net.simulator.drain")
    counted("net.deliveries", deliveries)
    metrics["net.answer_share"] = (
        ratio(calls["core.node.handle.AnswerMessage"], deliveries),
        "fraction",
    )
    timed("dht.api.send")
    timed("dht.api.send_direct")
    counted("dht.api.send_direct.answer_calls", counts["dht.api.send_direct.answer_calls"])
    timed("dht.api.multi_send")
    timed("dht.chord.route_path")
    metrics["dht.chord.hops_per_route"] = (
        ratio(counts["dht.chord.hops"], calls["dht.chord.route_path"]),
        "hops",
    )
    for name in HANDLERS:
        timed(name)
    timed("core.node.gc_expired_state")
    timed("core.node.querytable_probe")
    candidates = counts["core.node.querytable_probe.candidates"]
    counted("core.node.querytable_probe.candidates", candidates)
    metrics["core.node.trigger_hit_ratio"] = (
        ratio(counts["core.node.trigger_hits"], candidates),
        "fraction",
    )
    timed("core.rewriting.rewrite_query")
    metrics["core.rewriting.alive_ratio"] = (
        ratio(counts["core.rewriting.alive"], calls["core.rewriting.rewrite_query"]),
        "fraction",
    )
    metrics["core.ric.hit_ratio"] = (
        ratio(counts["core.ric.hits"], counts["core.ric.lookups"]),
        "fraction",
    )
    counted("core.ric.messages", summary["ric_messages"])
    for name in ("core.altt.add", "core.altt.find", "core.altt.expire"):
        timed(name)
    timed("data.store.add", "data.store.add", "data.store.add_batch")
    timed("data.store.probe", "data.store.tuples_for_key", "data.store.match_batch")
    timed("data.store.remove_expired")
    timed("data.store.flush")
    counted("data.store.resident_tuples", sum(rep.resident_tuples for rep in reps))
    counted("core.membership.records_moved", summary["records_rehomed"])
    counted("core.lifecycle.records_retracted", summary["records_retracted"])
    timed("core.answers.add_answer")

    root_self = sum(tracer.phase["self_s"][name] for name in ROOT_CALLS)
    traced_tps = sum(rep.tuples for rep in reps) / sum(rep.phase_s for rep in reps)
    metrics["harness.trace_overhead"] = (
        ratio(untraced_tps, traced_tps) - 1.0,
        "fraction",
    )
    metrics["harness.layers_accounted"] = (
        1.0 - ratio(root_self, tracer.phase["root_s"]),
        "fraction",
    )
    return metrics


def layer_table(tracer: LayerTracer) -> List[str]:
    """Each layer's and call's self-time share of the traced publish phases."""
    self_s: Counter = tracer.phase["self_s"]
    total = tracer.phase["root_s"]
    layers: Counter = Counter()
    for name, seconds in self_s.items():
        layers[".".join(name.split(".")[:2])] += seconds
    lines = [f"layer table: self-time share of the traced publish phase ({total:.3f} s)"]
    for layer, seconds in layers.most_common():
        lines.append(f"  {layer:<18} {ratio(seconds, total):7.1%}")
        for name, own in self_s.most_common():
            if name.startswith(layer + ".") and ratio(own, total) >= 0.001:
                lines.append(f"      {name[len(layer) + 1:]:<32} {ratio(own, total):7.1%}")
    return lines
