"""Shared machinery for the synthetic knowledge-graph generators.

The paper evaluates on DBLP (252M triples) and YAGO-4 (400M triples), which
are far beyond laptop scale and not redistributable here.  The generators in
:mod:`repro.datasets.dblp` and :mod:`repro.datasets.yago` produce *schema-
faithful*, seeded synthetic KGs instead: the node/edge type inventory mirrors
the real graphs (many task-irrelevant types, literal attributes, skewed
degree distributions) while the instance counts are scaled down.  What the
KGNet experiments measure — how much smaller and cheaper a task-specific
subgraph is, and whether accuracy survives — depends on that schema
heterogeneity, not on absolute size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import DatasetError
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal, RDF_TYPE, Triple

__all__ = ["KGBuilder", "GeneratorConfig", "StreamingKGConfig",
           "stream_synthetic_kg"]


@dataclass
class GeneratorConfig:
    """Base configuration shared by the synthetic generators."""

    seed: int = 7
    #: Global multiplier on instance counts (1.0 = default laptop scale).
    scale: float = 1.0
    #: Whether to attach literal attributes (titles, names, years ...).
    include_literals: bool = True
    #: Whether to attach the task-irrelevant "long tail" of node/edge types.
    include_irrelevant_structure: bool = True

    def scaled(self, count: int, minimum: int = 1) -> int:
        return max(minimum, int(round(count * self.scale)))


class KGBuilder:
    """Mutable helper accumulating triples for a synthetic KG."""

    def __init__(self, namespace: Namespace, seed: int = 7) -> None:
        self.ns = namespace
        self.graph = Graph()
        self.rng = np.random.default_rng(seed)
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Entity creation
    # ------------------------------------------------------------------
    def new_entity(self, type_name: str, prefix: Optional[str] = None) -> IRI:
        """Mint a fresh IRI of type ``type_name`` and assert its rdf:type."""
        prefix = prefix or type_name.lower()
        index = self._counters.get(prefix, 0)
        self._counters[prefix] = index + 1
        entity = self.ns[f"{prefix}/{index}"]
        self.graph.add(entity, RDF_TYPE, self.ns[type_name])
        return entity

    # ------------------------------------------------------------------
    # Triple helpers
    # ------------------------------------------------------------------
    def add(self, subject: IRI, predicate: IRI, obj) -> None:
        self.graph.add(subject, predicate, obj)

    def add_literal(self, subject: IRI, predicate: IRI, value) -> None:
        self.graph.add(subject, predicate, Literal(value))

    # ------------------------------------------------------------------
    # Random draws
    # ------------------------------------------------------------------
    def choice(self, items: Sequence, p: Optional[np.ndarray] = None):
        index = self.rng.choice(len(items), p=p)
        return items[int(index)]

    def zipf_choice(self, items: Sequence):
        """Skewed (Zipf-like, exponent 1.1) draw — real KGs have heavy-tailed
        degree laws."""
        ranks = np.arange(1, len(items) + 1, dtype=np.float64)
        weights = ranks ** -1.1
        weights /= weights.sum()
        return self.choice(items, p=weights)

    def poisson(self, mean: float, minimum: int = 0) -> int:
        return max(minimum, int(self.rng.poisson(mean)))

    def build(self) -> Graph:
        return self.graph


# ---------------------------------------------------------------------------
# Streaming synthetic KG (the join-ordering proving ground)
# ---------------------------------------------------------------------------

@dataclass
class StreamingKGConfig:
    """Configuration of the *streaming* Zipf-skewed synthetic KG.

    Unlike :class:`KGBuilder` (which accumulates a :class:`Graph` in
    memory), :func:`stream_synthetic_kg` yields triples one batch at a time
    — at the default ``num_triples`` of 10M, nothing but the current batch
    is ever materialised, so the generator feeds
    :func:`repro.storage.bulkload.stream_load_triples` (or a serializer) at
    any scale the indexes themselves fit.

    The shape is engineered to punish bad join orders:

    * entity in-degree follows a bounded Zipf law with ``zipf_exponent``
      (entity 0 is a huge hub, the tail is sparse),
    * predicate frequency follows a Zipf law over ``num_predicates`` ranks
      (``p0`` accounts for a large share of all edges, ``p23`` is rare),
    * every entity gets one ``rdf:type`` triple Zipf-drawn over
      ``num_types`` (``T0`` is huge), and exactly
      ``rare_type_cardinality`` entities additionally carry the
      ``RareType`` class — the selective anchor an optimizer should start
      from and a syntactic evaluator, handed the popular pattern first,
      will not.

    Same seed, same config → byte-identical triple stream.
    """

    seed: int = 7
    num_triples: int = 10_000_000
    num_predicates: ClassVar[int] = 24
    num_types: ClassVar[int] = 12
    #: Skew of the entity in-degree / predicate-frequency laws (must be >1
    #: for the bounded inverse-transform draw).
    zipf_exponent: float = 2.0
    #: Entities additionally typed ``RareType`` (the selective anchor).
    rare_type_cardinality: ClassVar[int] = 20
    #: Triples sampled per numpy batch (the only transient allocation).
    batch_size: int = 100_000
    base_iri: ClassVar[str] = "https://repro.example/skg/"

    def __post_init__(self) -> None:
        if self.num_triples <= 0:
            raise DatasetError("num_triples must be positive")
        if self.zipf_exponent <= 1.0:
            raise DatasetError("zipf_exponent must be > 1 (bounded Zipf)")
        if self.batch_size <= 0:
            raise DatasetError("batch_size must be positive")

    @property
    def num_entities(self) -> int:
        """Entity universe: ~1 type triple + ~7 edges per entity."""
        return max(1024, self.num_triples // 8)

    # -- the IRIs queries and benchmarks address -------------------------
    def entity(self, index: int) -> IRI:
        return IRI(f"{self.base_iri}e{index}")

    def predicate(self, rank: int) -> IRI:
        """Predicate by frequency rank — 0 is the most common."""
        return IRI(f"{self.base_iri}p{rank}")

    @property
    def rare_type(self) -> IRI:
        return IRI(f"{self.base_iri}RareType")


def _bounded_zipf(rng: np.random.Generator, exponent: float, size: int,
                  upper: int) -> np.ndarray:
    """``size`` Zipf ranks truncated to ``[1, upper]`` (inverse transform).

    ``P(rank = k) ∝ k^-exponent``; draws past ``upper`` fold onto it, which
    only fattens the tail bucket marginally for exponents > 1.
    """
    u = rng.random(size)
    ranks = np.ceil(u ** (-1.0 / (exponent - 1.0)))
    return np.minimum(ranks, float(upper)).astype(np.int64)


def stream_synthetic_kg(config: Optional[StreamingKGConfig] = None,
                        ) -> Iterator[Triple]:
    """Yield the synthetic KG's triples without materialising the KG.

    Emission order: one ``rdf:type`` triple per entity (Zipf over classes),
    then the ``rare_type_cardinality`` RareType markers, then Zipf-skewed
    link triples until exactly ``config.num_triples`` have been yielded.
    The stream may contain a (tiny) fraction of duplicate link triples —
    loading through a set-semantics :class:`Graph` drops them, which is why
    loaders report ``triples_seen`` vs ``triples_added`` separately.
    """
    config = config or StreamingKGConfig()
    rng = np.random.default_rng(config.seed)
    base = config.base_iri
    num_entities = config.num_entities
    remaining = config.num_triples

    type_iris = [IRI(f"{base}T{rank}") for rank in range(config.num_types)]
    predicate_iris = [IRI(f"{base}p{rank}")
                      for rank in range(config.num_predicates)]
    rank_weights = np.arange(1, config.num_predicates + 1,
                             dtype=np.float64) ** -config.zipf_exponent
    rank_weights /= rank_weights.sum()
    rare_type = config.rare_type

    # Phase 1: one class-membership triple per entity, batched.
    for start in range(0, min(num_entities, remaining), config.batch_size):
        stop = min(start + config.batch_size, num_entities, remaining)
        type_ranks = _bounded_zipf(rng, config.zipf_exponent, stop - start,
                                   config.num_types)
        for index in range(start, stop):
            yield Triple(IRI(f"{base}e{index}"), RDF_TYPE,
                         type_iris[type_ranks[index - start] - 1])
    remaining -= min(num_entities, remaining)

    # Phase 2: the selective anchor class.  Low entity indexes are the Zipf
    # hubs, so RareType members are guaranteed to participate in joins.
    rare = min(config.rare_type_cardinality, num_entities, remaining)
    for index in range(rare):
        yield Triple(IRI(f"{base}e{index}"), RDF_TYPE, rare_type)
    remaining -= rare

    # Phase 3: Zipf-skewed link triples (uniform subjects, Zipf predicates,
    # Zipf hub objects) until the budget is spent.
    while remaining > 0:
        size = min(config.batch_size, remaining)
        subjects = rng.integers(0, num_entities, size=size)
        predicates = rng.choice(config.num_predicates, size=size,
                                p=rank_weights)
        objects = _bounded_zipf(rng, config.zipf_exponent, size,
                                num_entities) - 1
        for si, pi, oi in zip(subjects, predicates, objects):
            yield Triple(IRI(f"{base}e{si}"), predicate_iris[pi],
                         IRI(f"{base}e{oi}"))
        remaining -= size
