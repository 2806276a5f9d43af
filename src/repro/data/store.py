"""Per-node local tuple storage (the default ``memory`` backend).

Every RJoin node stores tuples it receives *at the value level* so that
rewritten queries arriving later can still be matched against them
(Procedure 2 and 3 of the paper).  The attribute-level tuple table (ALTT) of
Section 4 reuses the same structure with an expiry time (see
:mod:`repro.core.altt`).

The store is a mapping ``indexing key -> list of stored tuples``.  It also
maintains aggregate counters that feed the storage-load metric of the
experimental section: the *storage load* of a node is the number of rewritten
queries plus the number of tuples that the node has to store locally.

:class:`TupleStore` is one of the two implementations of the
:class:`~repro.data.backends.StoreBackend` contract (see
:func:`repro.data.backends.make_store` for the registry).  Three auxiliary
structures keep the hot paths off O(total-keys) scans:

* a *prefix index* (``relation + attribute -> set of value keys``) so that
  attribute-level lookups (:meth:`TupleStore.tuples_for_prefix`) only touch
  the keys of the requested relation-attribute pair,
* per-key record lists kept ordered by ``(pub_time, sequence)`` so callers
  consume tuples in publication order without re-sorting,
* min-heaps over publication time and sequence number so window garbage
  collection (:meth:`TupleStore.remove_expired`) costs O(expired · log n)
  instead of a full re-scan of every stored record.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from typing import Dict, Iterable, List, Optional, Set, Tuple as TupleT

from repro.data.backends import (
    StoreBackend,
    StoredTuple,
    bucket_of as _bucket_of,
    merge_records,
    record_order as _record_order,
)
from repro.data.tuples import Tuple

__all__ = ["StoredTuple", "TupleStore"]


class TupleStore(StoreBackend):
    """Key-addressed in-memory storage for published tuples.

    The store intentionally keeps one entry per ``(key, tuple identity)``
    pair: the same publication indexed under two different keys at the same
    node occupies two slots (it costs storage twice), which matches how the
    paper counts storage load, while lookups that span several keys can
    deduplicate through :meth:`tuples_for_prefix`.
    """

    name = "memory"

    def __init__(self) -> None:
        self._by_key: Dict[str, List[StoredTuple]] = {}
        self._keys_by_prefix: Dict[str, Set[str]] = {}
        # Memoised tuples_for_prefix results per canonical bucket, dropped
        # whenever any key of the bucket is touched.
        self._prefix_cache: Dict[str, List[Tuple]] = {}
        self._size = 0
        # Lazy expiry queues: (clock value, tiebreak, key).  Each heap is
        # first materialised when the matching expiry cutoff is used, and
        # maintained incrementally from then on.  Entries are not removed
        # when records leave through other paths; stale entries pop
        # harmlessly because removal re-checks the affected key.
        self._time_heap: List[TupleT[float, int, str]] = []
        self._seq_heap: List[TupleT[int, int, str]] = []
        self._track_time = False
        self._track_seq = False
        self._tiebreak = itertools.count()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: str, tup: Tuple, now: float) -> StoredTuple:
        """Store ``tup`` under ``key`` and return the stored record."""
        record = StoredTuple(tuple=tup, key=key, stored_at=now)
        bucket = _bucket_of(key)
        if bucket is not None and self._prefix_cache:
            self._prefix_cache.pop(bucket, None)
        records = self._by_key.get(key)
        if records is None:
            self._by_key[key] = [record]
            if bucket is not None:
                self._keys_by_prefix.setdefault(bucket, set()).add(key)
        elif _record_order(record) >= _record_order(records[-1]):
            records.append(record)
        else:
            insort(records, record, key=_record_order)
        self._size += 1
        if self._track_time:
            heapq.heappush(
                self._time_heap, (tup.pub_time, next(self._tiebreak), key)
            )
        if self._track_seq:
            heapq.heappush(
                self._seq_heap, (tup.sequence, next(self._tiebreak), key)
            )
        return record

    def _invalidate_prefix(self, key: str) -> None:
        """Drop the memoised prefix lookup covering ``key``."""
        if not self._prefix_cache:
            return
        bucket = _bucket_of(key)
        if bucket is not None:
            self._prefix_cache.pop(bucket, None)

    def _drop_key(self, key: str) -> None:
        """Remove an emptied key from the dictionary and the prefix index."""
        del self._by_key[key]
        bucket = _bucket_of(key)
        if bucket is not None:
            keys = self._keys_by_prefix.get(bucket)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._keys_by_prefix[bucket]

    def _expired_keys(self, heap: List, cutoff: float) -> Set[str]:
        """Pop heap entries below ``cutoff``; return the touched keys."""
        affected: Set[str] = set()
        while heap and heap[0][0] < cutoff:
            affected.add(heapq.heappop(heap)[2])
        return affected

    def _ensure_time_heap(self) -> None:
        """Materialise the publication-time expiry heap on first use."""
        if self._track_time:
            return
        self._track_time = True
        tiebreak = self._tiebreak
        self._time_heap = [
            (record.tuple.pub_time, next(tiebreak), key)
            for key, records in self._by_key.items()
            for record in records
        ]
        heapq.heapify(self._time_heap)

    def _ensure_seq_heap(self) -> None:
        """Materialise the sequence-number expiry heap on first use."""
        if self._track_seq:
            return
        self._track_seq = True
        tiebreak = self._tiebreak
        self._seq_heap = [
            (record.tuple.sequence, next(tiebreak), key)
            for key, records in self._by_key.items()
            for record in records
        ]
        heapq.heapify(self._seq_heap)

    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Drop records published before / sequenced below either cutoff.

        Both cutoffs are strict; returns the number of removed entries.
        """
        removed = 0
        if published_before is not None:
            removed += self._remove_published_before(published_before)
        if sequenced_before is not None:
            removed += self._remove_sequenced_before(sequenced_before)
        return removed

    def _remove_published_before(self, cutoff: float) -> int:
        """Drop every tuple whose publication time is strictly before ``cutoff``.

        Runs in O(expired · log n): the expiry heap names the keys holding
        expired records, and publication order within each key list makes the
        expired records a prefix, so the scan only ever touches records that
        are actually removed.
        """
        self._ensure_time_heap()
        removed = 0
        for key in self._expired_keys(self._time_heap, cutoff):
            records = self._by_key.get(key)
            if not records:
                continue
            index = 0
            length = len(records)
            while index < length and records[index].tuple.pub_time < cutoff:
                index += 1
            if index == 0:
                continue
            removed += index
            self._invalidate_prefix(key)
            if index == length:
                self._drop_key(key)
            else:
                del records[:index]
        self._size -= removed
        return removed

    def _remove_sequenced_before(self, cutoff: float) -> int:
        """Drop every tuple whose sequence number is strictly below ``cutoff``.

        Sequence numbers need not follow publication order within a key, so
        affected keys are re-filtered rather than prefix-cut.
        """
        self._ensure_seq_heap()
        removed = 0
        for key in self._expired_keys(self._seq_heap, cutoff):
            records = self._by_key.get(key)
            if not records:
                continue
            kept = [r for r in records if r.tuple.sequence >= cutoff]
            dropped = len(records) - len(kept)
            if not dropped:
                continue
            removed += dropped
            self._invalidate_prefix(key)
            if kept:
                self._by_key[key] = kept
            else:
                self._drop_key(key)
        self._size -= removed
        return removed

    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (id movement)."""
        records = self._by_key.get(key)
        if not records:
            return []
        self._size -= len(records)
        self._invalidate_prefix(key)
        self._drop_key(key)
        return records

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def tuples_for_key(self, key: str) -> List[Tuple]:
        """The tuples stored under exactly ``key``, in publication order."""
        return [r.tuple for r in self._by_key.get(key, [])]

    def tuples_for_prefix(self, prefix: str) -> List[Tuple]:
        """Return tuples stored under any key starting with ``prefix``.

        Used when a rewritten query indexed at the *attribute level* needs to
        scan every locally stored tuple of a relation-attribute pair
        regardless of the value component of the key.  Results are
        deduplicated by tuple identity and sorted by ``(pub_time, sequence)``.
        Canonical attribute-level prefixes hit the prefix index (and a result
        memo invalidated on writes) instead of scanning every stored key.
        """
        bucket = _bucket_of(prefix)
        if bucket is not None and len(bucket) == len(prefix):
            # Canonical two-field prefix (``relation SEP attribute SEP``):
            # every matching key lives exactly in this bucket.
            cached = self._prefix_cache.get(prefix)
            if cached is not None:
                return list(cached)
            keys = self._keys_by_prefix.get(prefix)
            if not keys:
                return []
            result = merge_records([self._by_key[key] for key in keys])
            self._prefix_cache[prefix] = result
            return list(result)
        # Arbitrary prefix: fall back to scanning every key.
        lists = [
            records
            for key, records in self._by_key.items()
            if key.startswith(prefix)
        ]
        if not lists:
            return []
        return merge_records(lists)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of currently stored entries (across all keys); O(1)."""
        return self._size

    def keys(self) -> Iterable[str]:
        """Iterate over the indexing keys that currently hold tuples."""
        return self._by_key.keys()
