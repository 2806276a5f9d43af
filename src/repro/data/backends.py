"""Pluggable per-node tuple-store backends.

Every RJoin node stores the value-level tuples it receives in a node-local
store (see :mod:`repro.data.store`).  This module owns the *contract* of that
store — the abstract :class:`StoreBackend` — plus the registry/factory that
lets the engine swap implementations without touching the protocol layer:

* ``memory`` — the original dict + prefix-index store
  (:class:`~repro.data.store.TupleStore`); the default and the fastest for
  in-core simulations,
* ``sqlite`` — a disk-capable structured store
  (:class:`~repro.data.sqlite_store.SqliteTupleStore`) whose prefix matches
  and window expiries are SQL index scans and whose writes are batched into
  one transaction per network drain.

The contract is exactly what the engine calls (the conformance suite in
``tests/data/test_store_backends.py`` enforces it for all registered
backends):

* per-key results are ordered by publication ``(pub_time, sequence)``
  regardless of insertion order,
* :meth:`StoreBackend.tuples_for_prefix` deduplicates by tuple identity and
  returns publication order; :meth:`StoreBackend.match_batch` is one such
  lookup per prefix,
* :meth:`StoreBackend.remove_expired` drops records *strictly* behind either
  cutoff and returns the removal count,
* :meth:`StoreBackend.remove_key` returns the removed records so membership
  re-homing can replay them into another node's backend — of any kind,
* ``len(store)`` counts stored entries (one per ``(key, identity)`` slot),
* :meth:`StoreBackend.flush` makes buffered writes visible and
  :meth:`StoreBackend.close` releases external resources.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import (
    ClassVar,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple as TupleT,
)

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.tuples import Tuple

#: Mirrors :mod:`repro.core.keys`: ``relation SEP attribute SEP value``.
SEPARATOR = "\x1f"

MEMORY_BACKEND = "memory"
SQLITE_BACKEND = "sqlite"

#: Every registered backend name, in documentation order.
BACKEND_NAMES: TupleT[str, ...] = (MEMORY_BACKEND, SQLITE_BACKEND)

DEFAULT_BACKEND = MEMORY_BACKEND


@dataclass
class StoredTuple:
    """A tuple held in a node-local store together with bookkeeping data."""

    tuple: "Tuple"
    key: str
    stored_at: float

    @property
    def identity(self) -> TupleT[str, int]:
        """Identity of the underlying published tuple."""
        return self.tuple.identity


def record_order(record: StoredTuple) -> TupleT[float, int]:
    """Publication order of a stored record."""
    return (record.tuple.pub_time, record.tuple.sequence)


def bucket_of(key: str) -> Optional[str]:
    """The ``relation SEP attribute SEP`` prefix of a value-level key.

    Returns None for keys that do not carry two separator-delimited fields
    (those are only reachable through each backend's slow scan path).
    """
    first = key.find(SEPARATOR)
    if first < 0:
        return None
    second = key.find(SEPARATOR, first + 1)
    if second < 0:
        return None
    return key[: second + 1]


def merge_records(lists: List[List[StoredTuple]]) -> List["Tuple"]:
    """Dedup and order the records of several key lists by publication.

    Each input list must already be in publication order; the merged result
    is publication-ordered and deduplicated by tuple identity.
    """
    if len(lists) == 1:
        merged: Iterable[StoredTuple] = lists[0]
    else:
        # k-way merge of already sorted per-key lists: O(n log k) and no
        # intermediate concatenated copy.
        merged = heapq.merge(*lists, key=record_order)
    seen: Set[TupleT[str, int]] = set()
    result: List["Tuple"] = []
    for record in merged:
        identity = record.tuple.identity
        if identity in seen:
            continue
        seen.add(identity)
        result.append(record.tuple)
    return result


class StoreBackend(abc.ABC):
    """Key-addressed local storage for published tuples.

    A store intentionally keeps one entry per ``(key, tuple identity)``
    pair: the same publication indexed under two different keys at the same
    node occupies two slots (it costs storage twice), which matches how the
    paper counts storage load, while lookups that span several keys
    deduplicate through :meth:`tuples_for_prefix`.
    """

    #: Registry name of the backend (``memory`` / ``sqlite``).
    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def add(self, key: str, tup: "Tuple", now: float) -> StoredTuple:
        """Store ``tup`` under ``key`` and return the stored record."""

    @abc.abstractmethod
    def tuples_for_key(self, key: str) -> List["Tuple"]:
        """The tuples stored under exactly ``key``, in publication order."""

    @abc.abstractmethod
    def tuples_for_prefix(self, prefix: str) -> List["Tuple"]:
        """Tuples under any key starting with ``prefix`` (deduplicated, ordered)."""

    @abc.abstractmethod
    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Drop every record published strictly before ``published_before``
        or sequenced strictly below ``sequenced_before``; returns the count."""

    @abc.abstractmethod
    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (re-homing)."""

    @abc.abstractmethod
    def keys(self) -> Iterable[str]:
        """The indexing keys that currently hold tuples."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of currently stored entries (across all keys)."""

    def add_batch(
        self, entries: Iterable[TupleT[str, "Tuple", float]]
    ) -> List[StoredTuple]:
        """Store ``(key, tuple, now)`` entries; returns the stored records."""
        return [self.add(key, tup, now) for key, tup, now in entries]

    def match_batch(self, prefixes: Sequence[str]) -> List[List["Tuple"]]:
        """:meth:`tuples_for_prefix` of each prefix, in order."""
        return [self.tuples_for_prefix(prefix) for prefix in prefixes]

    def flush(self) -> None:
        """Make buffered writes visible (no-op for unbuffered backends)."""

    def close(self) -> None:
        """Release external resources held by the backend (no-op default)."""


def make_store(backend: str = DEFAULT_BACKEND) -> StoreBackend:
    """Build a fresh store of the requested backend kind.

    Implementations are imported lazily so that selecting ``memory`` never
    pays for ``sqlite3`` (and so this module stays import-cycle free).
    """
    if backend == MEMORY_BACKEND:
        from repro.data.store import TupleStore

        return TupleStore()
    if backend == SQLITE_BACKEND:
        from repro.data.sqlite_store import SqliteTupleStore

        return SqliteTupleStore()
    known = ", ".join(BACKEND_NAMES)
    raise ConfigurationError(
        f"unknown store backend {backend!r}; known backends: {known}"
    )
