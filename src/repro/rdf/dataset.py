"""An RDF dataset: one default graph plus any number of named graphs.

KGNet stores the data knowledge graph and the KGMeta graph side by side in
the same RDF engine; the :class:`Dataset` models exactly that arrangement
(paper §IV-B.1: "KGMeta ... is stored alongside associated KGs").

Concurrency: every graph in the dataset shares one re-entrant write lock,
so a writer touching several graphs (a SPARQL UPDATE with ``GRAPH`` blocks,
a KGMeta registration next to a data load) advances all epochs atomically.
:meth:`Dataset.snapshot` pins a consistent point-in-time view across *all*
graphs under that lock; the SPARQL endpoint evaluates every query against
such a snapshot, giving readers snapshot isolation for the union-graph case
exactly as :meth:`Graph.snapshot <repro.rdf.graph.Graph.snapshot>` does for
a single graph.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Tuple

from repro.exceptions import RDFError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import UNKNOWN, ChangeLog, Graph, GraphSnapshot, _NO_MATCH
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import IRI, Quad, Term, Triple

__all__ = ["Dataset", "DatasetSnapshot", "UnionGraphView"]


class UnionGraphView:
    """A read-only *logical* union of pinned graph snapshots.

    Earlier the endpoint materialised the union of default + named graphs
    (O(total triples)) on every dataset epoch — fine for a read-mostly
    workload, ruinous under a live writer feed, where every commit forced a
    full rebuild before the next query could run.  This view answers the
    whole id-space read API the query pipeline uses by *iterating the member
    snapshots and deduplicating on the fly*: a triple yielded by a later
    member is suppressed when an earlier member already holds it (an O(1)
    index probe, since all members share one term dictionary).

    The view is immutable by construction (its members are pinned
    snapshots), identity-stable per dataset epoch (cached on the
    :class:`DatasetSnapshot`), and exposes ``epoch`` as the dataset epoch —
    so compiled query plans key and reuse exactly as they do for a plain
    :class:`~repro.rdf.graph.Graph`.
    """

    __slots__ = ("_members", "namespaces", "_dict", "_epoch", "_size",
                 "__weakref__")

    def __init__(self, members, namespaces: NamespaceManager,
                 dictionary: TermDictionary, epoch) -> None:
        self._members: Tuple[GraphSnapshot, ...] = tuple(members)
        if not self._members:
            raise RDFError("UnionGraphView needs at least one member snapshot")
        self.namespaces = namespaces
        self._dict = dictionary
        self._epoch = epoch
        self._size: Optional[int] = None

    # -- identity / dictionary --------------------------------------------
    @property
    def dictionary(self) -> TermDictionary:
        return self._dict

    @property
    def epoch(self) -> int:
        """The dataset epoch this view pins (plan-cache key)."""
        return self._epoch

    def decode_id(self, term_id: int) -> Term:
        return self._dict.decode(term_id)

    def encode_term(self, term: object) -> Optional[int]:
        return self._members[0].encode_term(term)

    def snapshot(self) -> "UnionGraphView":
        """Already pinned; the view is its own snapshot."""
        return self

    # -- id-space access (the query pipeline) ------------------------------
    def contains_ids(self, si: int, pi: int, oi: int) -> bool:
        return any(member.contains_ids(si, pi, oi) for member in self._members)

    def triples_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                    o: Optional[int] = None) -> Iterator[Tuple[int, int, int]]:
        members = self._members
        yield from members[0].triples_ids(s, p, o)
        for index in range(1, len(members)):
            earlier = members[:index]
            for triple in members[index].triples_ids(s, p, o):
                if not any(graph.contains_ids(*triple) for graph in earlier):
                    yield triple

    def _union_slot(self, getter):
        """Union of per-member id-sets without mutating any member's set."""
        first = None
        merged = None
        for member in self._members:
            ids = getter(member)
            if not ids:
                continue
            if first is None:
                first = ids
            else:
                if merged is None:
                    merged = set(first)
                merged.update(ids)
        if merged is not None:
            return merged
        return first if first is not None else ()

    def object_ids(self, s: int, p: int):
        return self._union_slot(lambda member: member.object_ids(s, p))

    def subject_ids(self, p: int, o: int):
        return self._union_slot(lambda member: member.subject_ids(p, o))

    def predicate_ids(self, s: int, o: int):
        return self._union_slot(lambda member: member.predicate_ids(s, o))

    def node_ids(self):
        """Every distinct subject/object id across the member snapshots."""
        ids = set()
        for member in self._members:
            ids.update(member.node_ids())
        return ids

    def count_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> int:
        """Exact (deduplicated) match count for an id pattern.

        O(1) on the first member plus O(matches) over the remaining members
        — named graphs (KGMeta) are small next to the data KG, so this stays
        cheap where it runs hot.
        """
        members = self._members
        total = members[0].count_ids(s, p, o)
        for index in range(1, len(members)):
            earlier = members[:index]
            for triple in members[index].triples_ids(s, p, o):
                if not any(graph.contains_ids(*triple) for graph in earlier):
                    total += 1
        return total

    def estimate_cardinality_ids(self, s: Optional[int] = None,
                                 p: Optional[int] = None,
                                 o: Optional[int] = None) -> int:
        """Planning estimate: the cheap non-deduplicated upper bound."""
        return sum(member.count_ids(s, p, o) for member in self._members)

    # -- distinct-count statistics (selectivity estimation) -----------------
    # Per-member sums are upper bounds (an id distinct in two members is
    # counted twice), which is the right trade for the planning path: O(1)
    # per member, and overestimating a divisor only makes the optimizer
    # slightly conservative.
    def distinct_subjects_ids(self, p: Optional[int] = None) -> int:
        return sum(member.distinct_subjects_ids(p) for member in self._members)

    def distinct_objects_ids(self, p: Optional[int] = None) -> int:
        return sum(member.distinct_objects_ids(p) for member in self._members)

    def distinct_predicates_ids(self) -> int:
        return sum(member.distinct_predicates_ids() for member in self._members)

    # -- term-space access (reference evaluator, UDFs) ----------------------
    def _encode_pattern(self, subject, predicate, obj):
        return self._members[0]._encode_pattern(subject, predicate, obj)

    def triples(self, subject=None, predicate=None, obj=None) -> Iterator[Triple]:
        pattern = self._encode_pattern(subject, predicate, obj)
        if pattern is _NO_MATCH:
            return
        decode = self._dict.decode
        for si, pi, oi in self.triples_ids(*pattern):
            yield Triple(decode(si), decode(pi), decode(oi))

    def count(self, subject=None, predicate=None, obj=None) -> int:
        pattern = self._encode_pattern(subject, predicate, obj)
        if pattern is _NO_MATCH:
            return 0
        return self.count_ids(*pattern)

    def estimate_cardinality(self, subject=None, predicate=None, obj=None) -> int:
        """Planning estimate: per-member O(1) counts, no deduplication.

        The join-order optimizer calls this once per pattern per plan
        compile; the exact :meth:`count` would enumerate every non-first
        member's matches, which is wrong to pay on the planning path.
        """
        pattern = self._encode_pattern(subject, predicate, obj)
        if pattern is _NO_MATCH:
            return 0
        return self.estimate_cardinality_ids(*pattern)

    def __len__(self) -> int:
        if self._size is None:
            self._size = self.count_ids(None, None, None)
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples(None, None, None)

    def __contains__(self, triple: Triple) -> bool:
        return any(triple in member for member in self._members)

    def __repr__(self) -> str:
        return (f"<UnionGraphView of {len(self._members)} snapshots, "
                f"epoch={self._epoch}>")


class DatasetSnapshot:
    """A consistent point-in-time view over every graph in a dataset.

    Holds one :class:`~repro.rdf.graph.GraphSnapshot` per graph, all pinned
    under the dataset's write lock (no writer can interleave between pins).
    ``token`` is the dataset epoch the view corresponds to; the
    endpoint keys its plan cache on it.  :meth:`union` materialises the
    union graph lazily and caches it, so repeated no-``FROM`` queries at the
    same epoch share one union (and therefore one set of compiled plans).
    """

    __slots__ = ("token", "default", "named", "_namespaces", "_dictionary",
                 "_union", "_union_lock", "_subset_unions")

    #: Distinct named-graph combinations cached per snapshot before the
    #: subset-union cache resets (adversarial clients must not grow it
    #: without bound; 16 covers every sane protocol workload).
    _MAX_SUBSET_UNIONS = 16

    def __init__(self, token: int, default: GraphSnapshot,
                 named: Dict[IRI, GraphSnapshot],
                 namespaces: NamespaceManager,
                 dictionary: TermDictionary) -> None:
        self.token = token
        self.default = default
        self.named = named
        self._namespaces = namespaces
        self._dictionary = dictionary
        self._union: Optional[Graph] = None
        self._union_lock = threading.Lock()
        self._subset_unions: Dict[Tuple[IRI, ...], UnionGraphView] = {}

    def graphs(self) -> Iterator[GraphSnapshot]:
        yield self.default
        yield from self.named.values()

    def has_graph(self, identifier: object) -> bool:
        if isinstance(identifier, str):
            identifier = IRI(identifier)
        return identifier in self.named

    def graph(self, identifier: Optional[object] = None) -> GraphSnapshot:
        """The pinned snapshot of one graph (default when no identifier)."""
        if identifier is None:
            return self.default
        if isinstance(identifier, str):
            identifier = IRI(identifier)
        try:
            return self.named[identifier]
        except KeyError:
            raise RDFError(f"unknown named graph {identifier!r} in snapshot")

    def union(self):
        """The union of all pinned graphs — a *logical* view, never a copy.

        When only one member graph holds triples (the common case until
        KGMeta fills up) that member's snapshot is returned directly;
        otherwise a :class:`UnionGraphView` deduplicates across members on
        the fly.  Either way the result is immutable, costs O(1) to produce
        (no materialisation — this runs once per dataset epoch, i.e. after
        every write commit), and is identity-stable for the snapshot's
        lifetime, which keeps compiled query plans reusable across readers
        at the same epoch.
        """
        union = self._union
        if union is not None:
            return union
        with self._union_lock:
            if self._union is None:
                populated = [graph for graph in self.graphs() if len(graph)]
                if len(populated) == 1:
                    self._union = populated[0]
                elif not populated:
                    self._union = self.default
                else:
                    self._union = UnionGraphView(
                        populated, namespaces=self._namespaces,
                        dictionary=self._dictionary, epoch=self.token)
            return self._union

    def union_of(self, identifiers: Tuple[IRI, ...]):
        """A logical union of exactly the named members — cached, never a copy.

        The SPARQL 1.1 *Protocol* path (``default-graph-uri=``) composes
        datasets out of arbitrary named-graph subsets; this is its
        :meth:`union` twin.  Caching per identifier tuple keeps the view
        identity-stable for the snapshot's lifetime, so compiled query
        plans (keyed on ``(id(graph), epoch)``) reuse across repeated
        protocol requests instead of recompiling per HTTP call.  Unknown
        identifiers contribute nothing; zero members yield an empty pinned
        graph sharing the dictionary.
        """
        key = tuple(identifiers)
        with self._union_lock:
            view = self._subset_unions.get(key)
            if view is not None:
                return view
            members = [self.named[graph_iri] for graph_iri in key
                       if graph_iri in self.named]
            if len(members) == 1:
                view = members[0]
            elif not members:
                view = Graph(namespaces=self._namespaces.copy(),
                             dictionary=self._dictionary).snapshot()
            else:
                view = UnionGraphView(members, namespaces=self._namespaces,
                                      dictionary=self._dictionary,
                                      epoch=self.token)
            if len(self._subset_unions) >= self._MAX_SUBSET_UNIONS:
                self._subset_unions.clear()
            self._subset_unions[key] = view
            return view

    def __len__(self) -> int:
        return sum(len(graph) for graph in self.graphs())

    def __repr__(self) -> str:
        return (f"<DatasetSnapshot token={self.token} "
                f"{len(self.named)} named graphs, total={len(self)}>")


class Dataset:
    """A collection of named graphs sharing one namespace manager.

    All graphs in the dataset also share one :class:`TermDictionary`, so
    union/merge operations and cross-graph plan caching stay in id space —
    one write lock, so dataset-wide mutations commit atomically, and one
    :class:`~repro.rdf.graph.ChangeLog`, which records what every epoch step
    changed.
    """

    def __init__(self, namespaces: Optional[NamespaceManager] = None,
                 dictionary: Optional[TermDictionary] = None,
                 lock: Optional[threading.RLock] = None) -> None:
        self.namespaces = namespaces or NamespaceManager()
        self._dictionary = dictionary if dictionary is not None else TermDictionary()
        # The storage engine passes a journalled lock here so that releasing
        # the outermost write hold becomes the WAL commit point; any object
        # with RLock semantics works.
        self._lock = lock if lock is not None else threading.RLock()
        self._changes = ChangeLog()
        self._default = Graph(namespaces=self.namespaces,
                              dictionary=self._dictionary, lock=self._lock,
                              changes=self._changes)
        self._named: Dict[IRI, Graph] = {}
        self._snapshot_cache: Optional[DatasetSnapshot] = None
        #: Optional write-ahead journal shared by every graph (duck-typed;
        #: attached by :class:`repro.storage.engine.StorageEngine`).
        self._journal = None

    # ------------------------------------------------------------------
    # Graph management
    # ------------------------------------------------------------------
    @property
    def default_graph(self) -> Graph:
        return self._default

    @property
    def write_lock(self) -> threading.RLock:
        """The re-entrant lock shared by every graph in the dataset."""
        return self._lock

    @property
    def dictionary(self) -> TermDictionary:
        """The term interning table shared by every graph in the dataset."""
        return self._dictionary

    @property
    def changes(self) -> ChangeLog:
        """The log of what each epoch step changed, shared by every graph."""
        return self._changes

    def attach_journal(self, journal) -> None:
        """Attach (or with ``None`` detach) a write-ahead journal.

        The journal observes every committed mutation of every graph —
        current and future — in the dataset; the storage engine uses it to
        make the dataset recoverable.  Attachment happens under the write
        lock so it can never tear an in-flight transaction.
        """
        with self._lock:
            self._journal = journal
            self._default._journal = journal
            for graph in self._named.values():
                graph._journal = journal

    def graph(self, identifier: Optional[object] = None, create: bool = True) -> Graph:
        """Return the graph named ``identifier`` (or the default graph).

        When ``create`` is True the named graph is created on first access,
        mirroring SPARQL UPDATE semantics for implicitly created graphs.
        """
        if identifier is None:
            return self._default
        if isinstance(identifier, str):
            identifier = IRI(identifier)
        if not isinstance(identifier, IRI):
            raise RDFError(f"graph identifier must be an IRI, got {identifier!r}")
        with self._lock:
            if identifier not in self._named:
                if not create:
                    raise RDFError(f"unknown named graph {identifier.value!r}")
                if self._journal is not None:
                    # Journal before registering: a fail-stopped WAL must
                    # reject the create with the dataset unchanged.
                    self._journal.log_create(identifier)
                graph = Graph(identifier=identifier,
                              namespaces=self.namespaces,
                              dictionary=self._dictionary,
                              lock=self._lock, changes=self._changes)
                graph._journal = self._journal
                self._named[identifier] = graph
                self._changes.record(UNKNOWN)
            return self._named[identifier]

    def has_graph(self, identifier: object) -> bool:
        if isinstance(identifier, str):
            identifier = IRI(identifier)
        return identifier in self._named

    def drop_graph(self, identifier: object) -> bool:
        """Remove a named graph entirely; returns True when it existed."""
        if isinstance(identifier, str):
            identifier = IRI(identifier)
        with self._lock:
            if identifier not in self._named:
                return False
            if self._journal is not None:
                # Journal before unregistering — see graph() above.
                self._journal.log_drop(identifier)
            del self._named[identifier]
            self._changes.record(UNKNOWN)
            return True

    def epoch(self) -> int:
        """An O(1) staleness token covering every graph in the dataset: the
        :class:`~repro.rdf.graph.ChangeLog` step.

        Changes whenever any graph mutates or the set of graphs changes (a
        create or drop logs a step of its own); the SPARQL endpoint keys its
        plan cache and cached union graph on it.
        """
        return self._changes.step

    def snapshot(self) -> DatasetSnapshot:
        """Pin a consistent view of every graph, cached per epoch token.

        Taken under the shared write lock, so no writer can commit between
        the per-graph pins: the snapshot is a true point-in-time view of the
        whole dataset.  When the cached snapshot is still current, readers
        return it without touching the lock at all — the log step only ever
        grows, so an unlocked read can match the cached token only when no
        commit has finished since the pin (i.e. exactly when the cache is
        still valid).  This keeps readers off the lock while a long UPDATE
        batch holds it.
        """
        snap = self._snapshot_cache
        if snap is not None and snap.token == self.epoch():
            return snap
        with self._lock:
            token = self.epoch()
            snap = self._snapshot_cache
            if snap is None or snap.token != token:
                snap = DatasetSnapshot(
                    token=token,
                    default=self._default.snapshot(),
                    named={iri: graph.snapshot()
                           for iri, graph in self._named.items()},
                    namespaces=self.namespaces,
                    dictionary=self._dictionary)
                self._snapshot_cache = snap
            return snap

    def graphs(self) -> Iterator[Graph]:
        yield self._default
        # list() is a single atomic C-level copy under the GIL: a concurrent
        # writer creating a named graph must not explode this iteration with
        # "dictionary changed size during iteration" (readers size and scan
        # the dataset unlocked, writers create graphs via load/UPDATE
        # envelopes).
        yield from list(self._named.values())

    def named_graphs(self) -> Iterator[Graph]:
        yield from list(self._named.values())

    # ------------------------------------------------------------------
    # Quad-level access
    # ------------------------------------------------------------------
    def quads(self) -> Iterator[Quad]:
        for triple in self._default:
            yield Quad(*triple, graph=None)
        for identifier, graph in list(self._named.items()):
            for triple in graph:
                yield Quad(*triple, graph=identifier)

    def union_graph(self) -> Graph:
        """Materialise the union of the default and all named graphs.

        The union shares the dataset's dictionary, so the merge runs in id
        space (no term re-validation or re-interning).  Each graph is pinned
        while merging, so the result is consistent under concurrent writers
        (see :meth:`snapshot` for the cached, dataset-consistent variant the
        endpoint uses).
        """
        union = Graph(namespaces=self.namespaces.copy(),
                      dictionary=self._dictionary)
        for graph in self.graphs():
            union.add_all(graph)
        return union

    def __len__(self) -> int:
        return sum(len(graph) for graph in self.graphs())

    def __contains__(self, triple: Triple) -> bool:
        return any(triple in graph for graph in self.graphs())

    def __repr__(self) -> str:
        return (f"<Dataset default={len(self._default)} triples, "
                f"{len(self._named)} named graphs, total={len(self)}>")
