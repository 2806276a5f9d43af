"""Generation of the paper's experimental workload.

The generator produces two things:

* **continuous queries** — random k-way chain equi-joins over a uniform
  catalog (``k`` relations, ``k - 1`` join predicates, adjacent joins share a
  relation), optionally with a sliding window and/or DISTINCT,
* **tuples** — a stream where the relation of every new tuple and each of its
  attribute values are drawn from Zipf distributions (Section 8).

Both are deterministic for a fixed seed, which keeps experiments and the
property-based comparison against the reference engine reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple as TupleT

from repro.data.schema import AttributeRef, Catalog
from repro.errors import ConfigurationError
from repro.sql.ast import JoinPredicate, Query, WindowSpec
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class GeneratedTuple:
    """A relation name plus attribute values, ready to be published."""

    relation: str
    values: TupleT[int, ...]


@dataclass
class WorkloadSpec:
    """Parameters of the synthetic workload (defaults follow Section 8)."""

    num_relations: int = 10
    attributes_per_relation: int = 10
    value_domain: int = 100
    zipf_theta: float = 0.9
    join_arity: int = 4               # number of relations per query (k-way join)
    projection_size: int = 2          # attributes in the select list
    window: Optional[WindowSpec] = None
    distinct: bool = False
    # Adversarial value skew ------------------------------------------------
    #: Probability that a generated tuple is a "hot-key" tuple: every one of
    #: its values is drawn uniformly from the ``hot_value_count`` most popular
    #: values instead of the Zipf value distribution.  0.0 (the default)
    #: leaves the classic Section 8 stream byte-for-byte unchanged.
    hot_key_fraction: float = 0.0
    #: Size of the hot value set used by hot-key tuples.
    hot_value_count: int = 1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_relations <= 0 or self.attributes_per_relation <= 0:
            raise ConfigurationError("catalog dimensions must be positive")
        if self.value_domain <= 0:
            raise ConfigurationError("the value domain must be positive")
        if self.join_arity < 1:
            raise ConfigurationError("queries must involve at least one relation")
        if self.join_arity > self.num_relations:
            raise ConfigurationError(
                "join arity cannot exceed the number of relations "
                "(self-joins are not supported)"
            )
        if self.projection_size < 1:
            raise ConfigurationError("the select list needs at least one attribute")
        if not 0.0 <= self.hot_key_fraction <= 1.0:
            raise ConfigurationError("hot_key_fraction must lie in [0, 1]")
        if not 1 <= self.hot_value_count <= self.value_domain:
            raise ConfigurationError(
                "hot_value_count must lie in [1, value_domain]"
            )


class WorkloadGenerator:
    """Produces catalogs, query batches and tuple streams from a :class:`WorkloadSpec`."""

    def __init__(self, spec: Optional[WorkloadSpec] = None):
        self.spec = spec or WorkloadSpec()
        self._rng = random.Random(self.spec.seed)
        self.catalog = Catalog.uniform(
            self.spec.num_relations, self.spec.attributes_per_relation
        )
        self._relation_names = self.catalog.relation_names()
        self._relation_sampler = ZipfSampler(
            self.spec.num_relations,
            self.spec.zipf_theta,
            rng=random.Random(self.spec.seed + 1),
        )
        self._value_sampler = ZipfSampler(
            self.spec.value_domain,
            self.spec.zipf_theta,
            rng=random.Random(self.spec.seed + 2),
        )
        # Hot-key draws use their own generator so that enabling (or sweeping)
        # ``hot_key_fraction`` never perturbs the classic Zipf streams above.
        self._hot_rng = random.Random(self.spec.seed + 3)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def generate_query(self) -> Query:
        """Generate one random k-way chain join query.

        The chain shape matches the paper's experiments
        (``R.A = S.B and S.C = J.F and J.C = K.D``): relations are distinct,
        adjacent join predicates share a relation, and the joined attributes
        are drawn uniformly at random.
        """
        relations = self._rng.sample(self._relation_names, self.spec.join_arity)
        joins: List[JoinPredicate] = []
        for left_rel, right_rel in zip(relations, relations[1:]):
            left_attr = self._random_attribute(left_rel)
            right_attr = self._random_attribute(right_rel)
            joins.append(
                JoinPredicate(
                    AttributeRef(left_rel, left_attr),
                    AttributeRef(right_rel, right_attr),
                )
            )
        select_items = tuple(
            AttributeRef(rel, self._random_attribute(rel))
            for rel in self._rng.choices(relations, k=self.spec.projection_size)
        )
        query = Query(
            select_items=select_items,
            relations=tuple(relations),
            join_predicates=tuple(joins),
            selection_predicates=(),
            distinct=self.spec.distinct,
            window=self.spec.window,
        )
        return query.validate(self.catalog)

    def generate_queries(self, count: int) -> List[Query]:
        """Generate ``count`` independent random queries."""
        return [self.generate_query() for _ in range(count)]

    def _random_attribute(self, relation: str) -> str:
        schema = self.catalog.get(relation)
        return self._rng.choice(schema.attributes)

    # ------------------------------------------------------------------
    # tuples
    # ------------------------------------------------------------------
    def generate_tuple(self) -> GeneratedTuple:
        """Generate one tuple: Zipf relation choice, Zipf value per attribute.

        With probability ``hot_key_fraction`` the tuple is adversarially hot:
        every value comes from the ``hot_value_count`` most popular values,
        concentrating load on the nodes owning those keys.
        """
        relation = self._relation_names[self._relation_sampler.sample()]
        schema = self.catalog.get(relation)
        if (
            self.spec.hot_key_fraction > 0.0
            and self._hot_rng.random() < self.spec.hot_key_fraction
        ):
            values = tuple(
                self._hot_rng.randrange(self.spec.hot_value_count)
                for _ in schema.attributes
            )
        else:
            values = tuple(
                self._value_sampler.sample() for _ in schema.attributes
            )
        return GeneratedTuple(relation=relation, values=values)

    def generate_tuples(self, count: int) -> List[GeneratedTuple]:
        """Generate ``count`` tuples."""
        return [self.generate_tuple() for _ in range(count)]

    def tuple_stream(self, count: Optional[int] = None) -> Iterator[GeneratedTuple]:
        """Yield tuples lazily; infinite stream when ``count`` is None."""
        produced = 0
        while count is None or produced < count:
            yield self.generate_tuple()
            produced += 1

    def tuple_batches(
        self, count: Optional[int], batch_size: int
    ) -> Iterator[List[GeneratedTuple]]:
        """Yield the tuple stream grouped into arrival bursts of ``batch_size``.

        The underlying stream is identical to :meth:`tuple_stream` — only the
        grouping differs — so every burst size sees the same tuples in the
        same order for a fixed seed.  The final burst may be short when
        ``count`` is not a multiple of the burst size.
        """
        size = int(batch_size)
        if size < 1:
            raise ConfigurationError("batch_size must be at least one tuple")
        batch: List[GeneratedTuple] = []
        for generated in self.tuple_stream(count):
            batch.append(generated)
            if len(batch) >= size:
                yield batch
                batch = []
        if batch:
            yield batch

    # ------------------------------------------------------------------
    # derived helpers
    # ------------------------------------------------------------------
    def hottest_relation(self) -> str:
        """The relation with the highest expected arrival rate (Zipf rank 0)."""
        return self._relation_names[0]

    def coldest_relation(self) -> str:
        """The relation with the lowest expected arrival rate."""
        return self._relation_names[-1]
