"""Streaming bulk loader: parser output straight into id-space indexes.

``Graph.add_all(parse_turtle(text))`` pays, per triple: a term re-validation,
an epoch bump (which invalidates the snapshot cache and every compiled plan),
and — under a journalled dataset — a WAL record.  Loading a million-triple KG
that way is death by bookkeeping.  :func:`stream_load` instead:

* streams triples out of :func:`repro.rdf.io.iter_turtle` as the
  recursive-descent parser produces them (no intermediate triple list, no
  intermediate graph),
* validates and dictionary-encodes each term once,
* commits them in batches through :meth:`Graph.bulk_add_ids
  <repro.rdf.graph.Graph.bulk_add_ids>`, so a batch of ``batch_size``
  triples costs one write-lock acquisition and ONE epoch bump.

The loader bypasses the write-ahead log by design — logging a bulk load
triple-by-triple would write the dataset twice.  Durable ingest goes through
:meth:`StorageEngine.bulk_load <repro.storage.engine.StorageEngine.bulk_load>`,
which runs this loader and then checkpoints (the log-compaction path), so
the loaded data is durable the moment the call returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, TextIO, Union

from repro.exceptions import RDFError
from repro.rdf.graph import Graph
from repro.rdf.io import iter_turtle
from repro.rdf.terms import IRI, Literal, Triple

__all__ = ["BulkLoadReport", "stream_load", "stream_load_triples"]

#: Default number of triples per bulk_add_ids batch.  Large enough that the
#: per-batch lock/epoch cost vanishes, small enough that memory stays flat.
DEFAULT_BATCH_SIZE = 8192


@dataclass
class BulkLoadReport:
    """Throughput accounting for one bulk load."""

    triples_seen: int
    triples_added: int
    batches: int
    seconds: float

    @property
    def triples_per_second(self) -> float:
        return self.triples_seen / self.seconds if self.seconds else 0.0

    def as_dict(self) -> dict:
        return {
            "triples_seen": self.triples_seen,
            "triples_added": self.triples_added,
            "batches": self.batches,
            "seconds": round(self.seconds, 6),
            "triples_per_second": round(self.triples_per_second, 1),
        }


def stream_load_triples(graph: Graph, triples: Iterable[Triple],
                        batch_size: int = DEFAULT_BATCH_SIZE) -> BulkLoadReport:
    """Feed an arbitrary triple iterable into ``graph`` in id-space batches."""
    if batch_size <= 0:
        raise RDFError("batch_size must be positive")
    started = time.perf_counter()
    encode = graph.dictionary.encode
    batch = []
    append = batch.append
    seen = added = batches = 0
    for s, p, o in triples:
        if isinstance(s, Literal):
            raise RDFError(f"literals cannot be used as subjects: {s!r}")
        if not isinstance(p, IRI):
            raise RDFError(f"predicates must be IRIs, got {p!r}")
        append((encode(s), encode(p), encode(o)))
        seen += 1
        if len(batch) >= batch_size:
            added += graph.bulk_add_ids(batch)
            batches += 1
            batch.clear()
    if batch:
        added += graph.bulk_add_ids(batch)
        batches += 1
    return BulkLoadReport(triples_seen=seen, triples_added=added,
                          batches=batches,
                          seconds=time.perf_counter() - started)


def stream_load(graph: Graph, source: Union[str, TextIO],
                fmt: str = "turtle",
                batch_size: int = DEFAULT_BATCH_SIZE) -> BulkLoadReport:
    """Stream-parse Turtle/N-Triples ``source`` into ``graph``.

    ``source`` is a string of Turtle text or a file-like object; ``fmt`` is
    accepted for symmetry with :func:`repro.rdf.io.dump_graph` (both formats
    share one parser).

    Memory profile: a file-like source streams end to end.  The tokenizer
    reads it in fixed-size chunks and parses statement-at-a-time, so the
    serialized document is never held in memory whole — transient memory is
    O(chunk + batch) regardless of file size — and triples flow straight
    from the recursive-descent parser into id-space batches, with no
    intermediate triple list and no staging copy of the graph.  (A string
    source is, of course, already resident; everything downstream of the
    tokenizer still streams.)
    """
    if fmt not in ("turtle", "ntriples", "nt"):
        raise RDFError(f"unknown bulk-load format {fmt!r}")
    return stream_load_triples(
        graph, iter_turtle(source, namespaces=graph.namespaces),
        batch_size=batch_size)
