"""Backend-conformance suite for every registered tuple-store backend.

Every implementation of :class:`repro.data.backends.StoreBackend` must obey
the same contract — publication ordering, strict expiry cutoffs, prefix
matching with identity deduplication, re-homing round-trips and size
consistency — so the whole suite is parametrized over the registry.  A new
backend only has to register in :func:`repro.data.backends.make_store` to be
held to the same invariants.  The suite also runs against an on-disk SQLite
database (``sqlite-file``), the one configuration the registry does not
build: the same contract must hold whether the table lives in memory or in a
file.
"""

from __future__ import annotations

import random

import pytest

from repro.data.backends import (
    BACKEND_NAMES,
    SEPARATOR,
    StoreBackend,
    make_store,
)
from repro.data.schema import RelationSchema
from repro.data.sqlite_store import SqliteTupleStore
from repro.data.tuples import Tuple
from repro.errors import ConfigurationError

#: Every registered backend plus a file-backed SQLite database.
STORE_KINDS = BACKEND_NAMES + ("sqlite-file",)


def open_store(kind: str, path) -> StoreBackend:
    """Build a store of ``kind``; a ``sqlite-file`` database lives at ``path``."""
    if kind == "sqlite-file":
        return SqliteTupleStore(str(path))
    return make_store(kind)


@pytest.fixture
def schema():
    return RelationSchema("R", ["a", "b"])


@pytest.fixture(params=STORE_KINDS)
def store(request, tmp_path):
    backend = open_store(request.param, tmp_path / "source.db")
    yield backend
    backend.close()


def key_for(relation: str, attribute: str, value) -> str:
    return f"{relation}{SEPARATOR}{attribute}{SEPARATOR}{value!r}"


def prefix_for(relation: str, attribute: str) -> str:
    return f"{relation}{SEPARATOR}{attribute}{SEPARATOR}"


def make_tuple(schema, values, seq, pub_time=0.0):
    return Tuple.from_schema(schema, values, pub_time=pub_time, sequence=seq)


class TestFactory:
    def test_every_registered_backend_constructs(self):
        for name in BACKEND_NAMES:
            backend = make_store(name)
            assert isinstance(backend, StoreBackend)
            assert backend.name == name
            backend.close()

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown store backend"):
            make_store("tape-drive")


class TestConformance:
    def test_exact_key_lookup(self, store, schema):
        tup = make_tuple(schema, (1, 2), 1)
        record = store.add("k", tup, now=0.0)
        assert record.tuple == tup
        assert record.key == "k"
        assert store.tuples_for_key("k") == [tup]
        assert store.tuples_for_key("missing") == []
        assert list(store.keys()) == ["k"]

    def test_publication_ordering_despite_insertion_order(self, store, schema):
        late = make_tuple(schema, (1, 1), 3, pub_time=5.0)
        early = make_tuple(schema, (2, 2), 1, pub_time=1.0)
        middle = make_tuple(schema, (3, 3), 2, pub_time=3.0)
        for tup in (late, early, middle):
            store.add("k", tup, now=0.0)
        assert [t.sequence for t in store.tuples_for_key("k")] == [1, 2, 3]
        assert [r.tuple.sequence for r in store.remove_key("k")] == [1, 2, 3]

    def test_prefix_match_dedups_and_orders(self, store, schema):
        shared = make_tuple(schema, (1, 2), 1, pub_time=2.0)
        store.add(key_for("R", "a", 1), shared, now=0.0)
        store.add(key_for("R", "a", 2), shared, now=0.0)  # same publication
        other = make_tuple(schema, (9, 9), 2, pub_time=1.0)
        store.add(key_for("R", "a", 9), other, now=0.0)
        store.add(key_for("S", "a", 1), make_tuple(schema, (7, 7), 3), now=0.0)
        result = store.tuples_for_prefix(prefix_for("R", "a"))
        assert [t.sequence for t in result] == [2, 1]  # ordered, deduplicated
        assert store.tuples_for_prefix(prefix_for("R", "zzz")) == []

    def test_arbitrary_prefix_fallback(self, store, schema):
        store.add("plain-key-1", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("plain-key-2", make_tuple(schema, (2, 2), 2), now=0.0)
        store.add("other", make_tuple(schema, (3, 3), 3), now=0.0)
        result = store.tuples_for_prefix("plain-key")
        assert sorted(t.sequence for t in result) == [1, 2]

    def test_remove_published_before_is_strict(self, store, schema):
        store.add("k", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.0)
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=0.0)
        store.add("j", make_tuple(schema, (3, 3), 3, pub_time=3.0), now=0.0)
        assert store.remove_expired(published_before=2.0) == 1
        assert [t.sequence for t in store.tuples_for_key("k")] == [2]
        assert len(store) == 2
        assert store.remove_expired(published_before=2.0) == 0

    def test_remove_sequenced_before_is_strict(self, store, schema):
        # Sequence order deliberately disagrees with publication order.
        store.add("k", make_tuple(schema, (1, 1), 5, pub_time=1.0), now=0.0)
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=0.0)
        store.add("j", make_tuple(schema, (3, 3), 9, pub_time=0.5), now=0.0)
        assert store.remove_expired(sequenced_before=5) == 1
        assert sorted(t.sequence for t in store.tuples_for_key("k")) == [5]
        assert store.remove_expired(sequenced_before=5) == 0
        assert len(store) == 2

    def test_expiry_interleaved_with_new_writes(self, store, schema):
        for seq in range(1, 6):
            store.add(
                "k", make_tuple(schema, (seq, seq), seq, pub_time=float(seq)), now=0.0
            )
        assert store.remove_expired(published_before=3.0) == 2
        # Writes after a GC tick must be seen by the next tick.
        store.add("k", make_tuple(schema, (9, 9), 9, pub_time=3.5), now=0.0)
        assert store.remove_expired(published_before=4.0) == 2  # pub 3.0 and 3.5
        assert [t.sequence for t in store.tuples_for_key("k")] == [4, 5]

    def test_remove_key_returns_records_in_publication_order(self, store, schema):
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=0.5)
        store.add("k", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.25)
        removed = store.remove_key("k")
        assert [r.tuple.sequence for r in removed] == [1, 2]
        assert [r.stored_at for r in removed] == [0.25, 0.5]
        assert list(store.keys()) == []
        assert len(store) == 0
        assert store.remove_key("k") == []

    @pytest.mark.parametrize("destination", STORE_KINDS)
    def test_rehoming_round_trip_lands_in_any_backend(
        self, store, schema, destination, tmp_path
    ):
        """Records extracted from one backend replay into any other kind."""
        key = key_for("R", "a", 1)
        tuples = [
            make_tuple(schema, (seq, seq), seq, pub_time=float(seq))
            for seq in (3, 1, 2)
        ]
        for tup in tuples:
            store.add(key, tup, now=10.0 + tup.sequence)
        target = open_store(destination, tmp_path / "target.db")
        try:
            for record in store.remove_key(key):
                target.add(record.key, record.tuple, record.stored_at)
            assert len(store) == 0
            assert [t.sequence for t in target.tuples_for_key(key)] == [1, 2, 3]
            assert target.tuples_for_prefix(prefix_for("R", "a")) == sorted(
                tuples, key=lambda t: t.sequence
            )
            assert [r.stored_at for r in target.remove_key(key)] == [
                11.0,
                12.0,
                13.0,
            ]
        finally:
            target.close()

    def test_len_counts_every_key_slot(self, store, schema):
        shared = make_tuple(schema, (1, 2), 1)
        store.add("k1", shared, now=0.0)
        store.add("k2", shared, now=0.0)
        store.add("k1", make_tuple(schema, (3, 4), 2), now=0.0)
        assert len(store) == 3
        store.remove_key("k2")
        assert len(store) == 2
        assert store.tuples_for_key("k1")[0] == shared  # still lives under k1
        store.remove_key("k1")
        assert len(store) == 0

    def test_keys_lists_occupied_keys(self, store, schema):
        store.add("a", make_tuple(schema, (1, 1), 1), now=0.0)
        store.add("b", make_tuple(schema, (2, 2), 2), now=0.0)
        assert sorted(store.keys()) == ["a", "b"]
        store.remove_key("a")
        assert list(store.keys()) == ["b"]

    def test_empty_store_edge_cases(self, store):
        assert len(store) == 0
        assert list(store.keys()) == []
        assert store.remove_expired(published_before=100.0) == 0
        assert store.remove_expired(sequenced_before=100) == 0
        assert store.remove_key("anything") == []
        assert store.tuples_for_prefix("anything") == []
        assert store.match_batch([]) == []

    def test_expiry_after_remove_key_counts_only_live_records(self, store, schema):
        for seq in range(1, 5):
            store.add(
                "k", make_tuple(schema, (seq, seq), seq, pub_time=float(seq)), now=0.0
            )
        store.add("j", make_tuple(schema, (9, 9), 9, pub_time=6.0), now=0.0)
        assert store.remove_expired(published_before=2.0) == 1  # seq 1
        store.remove_key("k")
        # The records that left through remove_key are not expired twice.
        assert store.remove_expired(published_before=10.0) == 1  # seq 9 under j
        assert store.remove_expired(sequenced_before=100) == 0
        assert len(store) == 0

    def test_re_added_key_expires_again(self, store, schema):
        store.add("k", make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.0)
        assert store.remove_expired(published_before=0.5) == 0
        store.remove_key("k")
        store.add("k", make_tuple(schema, (2, 2), 2, pub_time=2.0), now=1.0)
        store.add("k", make_tuple(schema, (3, 3), 3, pub_time=3.0), now=1.0)
        assert store.remove_expired(published_before=2.5) == 1
        assert [t.sequence for t in store.tuples_for_key("k")] == [3]
        assert store.remove_expired(sequenced_before=4) == 1
        assert list(store.keys()) == []

    def test_expiry_empties_keys_and_buckets(self, store, schema):
        store.add(key_for("R", "a", 1), make_tuple(schema, (1, 1), 1, pub_time=1.0), now=0.0)
        store.add(key_for("R", "a", 2), make_tuple(schema, (2, 2), 2, pub_time=5.0), now=0.0)
        assert len(store.tuples_for_prefix(prefix_for("R", "a"))) == 2  # memoised
        assert store.remove_expired(published_before=2.0) == 1
        assert list(store.keys()) == [key_for("R", "a", 2)]
        assert store.tuples_for_key(key_for("R", "a", 1)) == []
        assert [t.sequence for t in store.tuples_for_prefix(prefix_for("R", "a"))] == [2]
        assert store.remove_expired(sequenced_before=3) == 1
        assert store.tuples_for_prefix(prefix_for("R", "a")) == []
        assert list(store.keys()) == []

    def test_expiry_removes_every_slot_of_a_publication(self, store, schema):
        shared = make_tuple(schema, (1, 2), 1, pub_time=1.0)
        store.add(key_for("R", "a", 1), shared, now=0.0)
        store.add(key_for("R", "b", 2), shared, now=0.0)
        store.add(key_for("R", "a", 3), make_tuple(schema, (3, 3), 2, pub_time=4.0), now=0.0)
        assert store.remove_expired(published_before=2.0) == 2  # both slots
        assert sorted(store.keys()) == [key_for("R", "a", 3)]
        assert store.tuples_for_prefix(prefix_for("R", "b")) == []
        assert len(store) == 1

    def test_lookup_results_are_private_copies(self, store, schema):
        """Callers may mutate results without corrupting memoised state."""
        prefix = prefix_for("R", "a")
        tup = make_tuple(schema, (1, 1), 1)
        store.add(key_for("R", "a", 1), tup, now=0.0)
        store.tuples_for_prefix(prefix).append("junk")
        store.tuples_for_key(key_for("R", "a", 1)).clear()
        (batched,) = store.match_batch([prefix])
        batched.append("junk")
        assert store.tuples_for_prefix(prefix) == [tup]
        assert store.match_batch([prefix]) == [[tup]]
        assert store.tuples_for_key(key_for("R", "a", 1)) == [tup]

    def test_values_round_trip_exactly(self, store, schema):
        """Backends that serialize (sqlite) must preserve value types."""
        tup = make_tuple(schema, ("text", 42), 1)
        store.add("k", tup, now=0.0)
        (stored,) = store.tuples_for_key("k")
        assert stored.values == ("text", 42)
        assert isinstance(stored.values[1], int)
        assert stored.identity == tup.identity


class TestBatchOperations:
    """The set-at-a-time calls must agree exactly with their per-item forms."""

    def test_add_batch_matches_per_item_adds(self, store, schema):
        entries = [
            (key_for("R", "a", seq % 3), make_tuple(schema, (seq, seq), seq), float(seq))
            for seq in range(1, 9)
        ]
        records = store.add_batch(entries)
        assert [r.tuple.sequence for r in records] == list(range(1, 9))
        assert [r.key for r in records] == [key for key, _, _ in entries]
        assert [r.stored_at for r in records] == [now for _, _, now in entries]
        assert len(store) == 8
        expected = make_store(store.name)
        try:
            for key, tup, now in entries:
                expected.add(key, tup, now)
            for key in {key for key, _, _ in entries}:
                assert store.tuples_for_key(key) == expected.tuples_for_key(key)
        finally:
            expected.close()

    def test_match_batch_agrees_with_per_probe_lookups(self, store, schema):
        shared = make_tuple(schema, (1, 2), 1, pub_time=2.0)
        store.add(key_for("R", "a", 1), shared, now=0.0)
        store.add(key_for("R", "a", 2), shared, now=0.0)
        store.add(key_for("R", "a", 9), make_tuple(schema, (9, 9), 2, pub_time=1.0), now=0.0)
        store.add(key_for("S", "b", 1), make_tuple(schema, (7, 7), 3), now=0.0)
        store.add("plain-key", make_tuple(schema, (4, 4), 4), now=0.0)
        prefixes = [
            prefix_for("R", "a"),
            prefix_for("S", "b"),
            prefix_for("R", "zzz"),
            "plain",
            prefix_for("R", "a"),  # repeated probe
        ]
        batched = store.match_batch(prefixes)
        assert len(batched) == len(prefixes)
        for prefix, result in zip(prefixes, batched):
            assert result == store.tuples_for_prefix(prefix)

    def test_key_probe_keeps_duplicate_identities(self, store, schema):
        # The contract allows the same publication under one key twice; key
        # probes must not deduplicate.
        tup = make_tuple(schema, (1, 1), 1)
        store.add("k", tup, now=0.0)
        store.add("k", tup, now=1.0)
        assert store.tuples_for_key("k") == [tup, tup]

    def test_batch_results_stay_consistent_across_writes_and_gc(self, store, schema):
        """Memoised bucket results must track interleaved mutation exactly."""
        prefix = prefix_for("R", "a")
        for seq in range(1, 11):
            store.add(
                key_for("R", "a", seq % 4),
                make_tuple(schema, (seq, seq), seq, pub_time=float(seq)),
                now=0.0,
            )
        first = store.tuples_for_prefix(prefix)
        assert [t.sequence for t in first] == list(range(1, 11))
        # Write after the result was memoised — including one out of
        # publication order.
        store.add(
            key_for("R", "a", 1),
            make_tuple(schema, (12, 12), 12, pub_time=12.0),
            now=0.0,
        )
        store.add(
            key_for("R", "a", 2),
            make_tuple(schema, (11, 11), 11, pub_time=5.5),
            now=0.0,
        )
        assert [t.sequence for t in store.tuples_for_prefix(prefix)] == [
            1, 2, 3, 4, 5, 11, 6, 7, 8, 9, 10, 12,
        ]
        # Ranged GC, keyed removal and re-probing must all agree again.
        assert store.remove_expired(published_before=5.0) == 4
        store.remove_key(key_for("R", "a", 3))
        (after,) = store.match_batch([prefix])
        # seq 3 (already expired) and seq 7 lived under value 3.
        assert {t.sequence for t in after} == {5, 6, 8, 9, 10, 11, 12}
        assert after == store.tuples_for_prefix(prefix)

    def test_empty_batches_are_no_ops(self, store, schema):
        assert store.add_batch([]) == []
        store.add("k", make_tuple(schema, (1, 1), 1), now=0.0)
        assert store.add_batch([]) == []
        assert store.match_batch([]) == []
        assert len(store) == 1

    def test_flush_is_idempotent_and_keeps_contents(self, store, schema):
        records = store.add_batch(
            [("k", make_tuple(schema, (seq, seq), seq), 0.0) for seq in (2, 1)]
        )
        store.flush()
        store.flush()
        assert len(store) == 2
        assert store.tuples_for_key("k") == sorted(
            (record.tuple for record in records), key=lambda t: t.sequence
        )
        store.flush()
        assert [r.tuple.sequence for r in store.remove_key("k")] == [1, 2]

    def test_remove_expired_combines_both_cutoffs(self, store, schema):
        for seq in range(1, 7):
            store.add(
                "k",
                make_tuple(schema, (seq, seq), seq, pub_time=float(seq)),
                now=0.0,
            )
        # pub_time < 3.0 removes 1, 2; sequence < 5 additionally removes 3, 4.
        assert store.remove_expired(published_before=3.0, sequenced_before=5) == 4
        assert [t.sequence for t in store.tuples_for_key("k")] == [5, 6]
        assert store.remove_expired() == 0

    def test_remove_expired_matches_single_cutoff_forms(self, store, schema):
        for seq in range(1, 5):
            store.add(
                "k",
                make_tuple(schema, (seq, seq), seq, pub_time=float(seq)),
                now=0.0,
            )
        assert store.remove_expired(published_before=2.0) == 1
        assert store.remove_expired(sequenced_before=4) == 2
        assert [t.sequence for t in store.tuples_for_key("k")] == [4]



class TestAgainstModel:
    """Random operation sequences agree with a scan-based model of the contract."""

    class Model:
        """Every record as a plain list; each call answers by full scan."""

        def __init__(self):
            self.records = []  # (key, tuple)

        def add(self, key, tup):
            self.records.append((key, tup))

        def remove_expired(self, published_before=None, sequenced_before=None):
            def expired(tup):
                return (published_before is not None and tup.pub_time < published_before) or (
                    sequenced_before is not None and tup.sequence < sequenced_before
                )

            kept = [(k, t) for k, t in self.records if not expired(t)]
            removed = len(self.records) - len(kept)
            self.records = kept
            return removed

        def remove_key(self, key):
            removed = [t for k, t in self.records if k == key]
            self.records = [(k, t) for k, t in self.records if k != key]
            return sorted(removed, key=lambda t: (t.pub_time, t.sequence))

        def tuples_for_key(self, key):
            return sorted(
                (t for k, t in self.records if k == key),
                key=lambda t: (t.pub_time, t.sequence),
            )

        def tuples_for_prefix(self, prefix):
            unique = {t.identity: t for k, t in self.records if k.startswith(prefix)}
            return sorted(unique.values(), key=lambda t: (t.pub_time, t.sequence))

        def keys(self):
            return sorted({k for k, _ in self.records})

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_operations_match_model(self, store, schema, seed):
        rng = random.Random(seed)
        model = self.Model()
        prefixes = [prefix_for(r, a) for r in "RS" for a in "ab"] + ["R", ""]
        clock = 0.0
        sequence = 0
        for _ in range(300):
            clock += rng.random()
            op = rng.random()
            if op < 0.5:
                batch = []
                for _ in range(rng.choice((1, 1, 3))):
                    sequence += 1
                    tup = make_tuple(
                        schema,
                        (rng.randint(0, 3), rng.randint(0, 3)),
                        sequence,
                        pub_time=clock - rng.random(),
                    )
                    key = key_for(rng.choice("RS"), rng.choice("ab"), rng.randint(0, 4))
                    batch.append((key, tup, clock))
                    # A publication may be indexed under a second key.
                    if rng.random() < 0.2:
                        batch.append((key_for("R", "b", tup.values[1]), tup, clock))
                if len(batch) == 1:
                    store.add(*batch[0])
                else:
                    store.add_batch(batch)
                for key, tup, _ in batch:
                    model.add(key, tup)
            elif op < 0.65:
                cutoffs = {}
                if rng.random() < 0.7:
                    cutoffs["published_before"] = clock - rng.uniform(0.0, 15.0)
                if rng.random() < 0.5:
                    cutoffs["sequenced_before"] = sequence - rng.randint(0, 40)
                assert store.remove_expired(**cutoffs) == model.remove_expired(**cutoffs)
            elif op < 0.75:
                keys = model.keys()
                key = rng.choice(keys) if keys else "absent"
                removed = [record.tuple for record in store.remove_key(key)]
                assert removed == model.remove_key(key)
            else:
                probes = [rng.choice(prefixes) for _ in range(rng.randint(1, 3))]
                assert store.match_batch(probes) == [
                    model.tuples_for_prefix(prefix) for prefix in probes
                ]
            assert len(store) == len(model.records)
        assert sorted(store.keys()) == model.keys()
        for key in model.keys():
            assert store.tuples_for_key(key) == model.tuples_for_key(key)


class TestSqliteFile:
    def test_flushed_rows_reach_the_database_file(self, schema, tmp_path):
        import sqlite3

        path = tmp_path / "store.db"
        store = SqliteTupleStore(str(path))
        try:
            store.add_batch(
                [("k", make_tuple(schema, (seq, seq), seq), 0.0) for seq in (1, 2, 3)]
            )
            store.flush()
            reader = sqlite3.connect(str(path))
            try:
                (count,) = reader.execute("SELECT COUNT(*) FROM records").fetchone()
            finally:
                reader.close()
            assert count == 3
        finally:
            store.close()
