"""The answer check: replay a rep's inputs through the reference engine.

:class:`~repro.core.reference.ReferenceEngine` keeps every published tuple
and enumerates every stored combination, so its cost grows with the cube of
the tuples a three-way join sees.  Every query of a benchmark workload uses
the workload's one sliding window, and a stored tuple whose window clock is
at most ``newest - size`` can never again fit a combination with a newer
tuple (``combination_valid`` needs ``max - min + 1 <= size``).
:class:`WindowedReference` drops those tuples, which keeps the check linear
in the stream length without changing a single answer.

The oracle's bags depend only on the replay log, so :func:`cached_bags`
stores them under a digest of the log and reuses them when a later run of
the same (workload, seed) replays an identical log.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from typing import Dict, List, Optional, Tuple

import repro.core.reference as reference_module
from repro.core.reference import ReferenceEngine
from repro.data.schema import Catalog
from repro.data.tuples import Tuple as DataTuple
from repro.errors import EngineError
from repro.sql.ast import Query, WindowSpec


class WindowedReference(ReferenceEngine):
    """The reference oracle for runs whose every query shares ``window``."""

    def __init__(self, catalog: Catalog, window: WindowSpec) -> None:
        super().__init__(catalog)
        self.window = window

    def submit(
        self,
        query: Query,
        query_id: Optional[str] = None,
        insertion_time: float = 0.0,
    ) -> str:
        if query.window != self.window:
            raise EngineError(
                f"query window {query.window} differs from the pruning "
                f"window {self.window}; pruning would lose answers"
            )
        return super().submit(query, query_id, insertion_time)

    def publish_tuple(self, tup: DataTuple) -> Dict[str, List[Tuple]]:
        horizon = self.window.clock_of(tup) - self.window.size
        clock_of = self.window.clock_of
        for relation, stored in self._tuples.items():
            if stored and clock_of(stored[0]) <= horizon:
                self._tuples[relation] = [t for t in stored if clock_of(t) > horizon]
        return super().publish_tuple(tup)


def expected_bags(
    catalog: Catalog, window: WindowSpec, log: List[tuple]
) -> Dict[str, Counter]:
    """Each query's oracle answer bag for a rep's replay log."""
    oracle = WindowedReference(catalog, window)
    for entry in log:
        kind = entry[0]
        if kind == "submit":
            _, query, query_id, insertion_time = entry
            oracle.submit(query, query_id=query_id, insertion_time=insertion_time)
        elif kind == "publish":
            for tup in entry[1]:
                oracle.publish_tuple(tup)
        else:
            oracle.remove_query(entry[1])
    return {
        query_id: Counter(oracle.answers(query_id))
        for query_id in _query_ids(log)
    }


def _query_ids(log: List[tuple]) -> List[str]:
    return [entry[2] for entry in log if entry[0] == "submit"]


def compare(
    expected: Dict[str, Counter], delivered: Dict[str, Counter]
) -> Tuple[int, int, int]:
    """``(oracle answers, missing answers, extra answers)`` over every query."""
    total = missing = extra = 0
    for query_id, want in expected.items():
        got = delivered.get(query_id, Counter())
        total += sum(want.values())
        missing += sum((want - got).values())
        extra += sum((got - want).values())
    return total, missing, extra


def log_digest(log: List[tuple]) -> str:
    """A digest of everything the oracle's answers depend on.

    That is the replay log plus the source of the oracle itself, so a
    changed oracle never reads bags an older one cached.
    """
    sha = hashlib.sha256()
    for module in (reference_module, __file__):
        path = module if isinstance(module, str) else module.__file__
        with open(path, "rb") as source:
            sha.update(source.read())
    for entry in log:
        if entry[0] == "submit":
            _, query, query_id, insertion_time = entry
            sha.update(repr(("submit", str(query), query_id, insertion_time)).encode())
        elif entry[0] == "publish":
            for tup in entry[1]:
                sha.update(
                    repr((tup.relation, tup.values, tup.pub_time, tup.sequence)).encode()
                )
        else:
            sha.update(repr(entry).encode())
    return sha.hexdigest()


def cached_bags(
    catalog: Catalog,
    window: WindowSpec,
    log: List[tuple],
    cache_dir: str,
    label: str,
) -> Dict[str, Counter]:
    """:func:`expected_bags`, read from or written to ``cache_dir``.

    ``label`` only makes the file name readable; the log digest is the key.
    """
    path = os.path.join(cache_dir, f"oracle-{label}-{log_digest(log)[:32]}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
        return {
            query_id: Counter({tuple(values): count for values, count in pairs})
            for query_id, pairs in stored.items()
        }
    bags = expected_bags(catalog, window, log)
    os.makedirs(cache_dir, exist_ok=True)
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(
            {query_id: [[list(values), count] for values, count in bag.items()]
             for query_id, bag in bags.items()},
            handle,
        )
    os.replace(partial, path)
    return bags
