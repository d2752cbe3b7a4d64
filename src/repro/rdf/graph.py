"""An indexed, in-memory, dictionary-encoded RDF graph.

The :class:`Graph` interns every term through a
:class:`~repro.rdf.dictionary.TermDictionary` and keeps three hash indexes
(SPO, POS, OSP) over dense integer ids, so every triple-pattern access path
is answered without scanning the whole store and every join the SPARQL
evaluator performs runs over machine integers instead of full term objects.
Each index maps a first id to a dict from a second id to a *leaf*: the bare
``int`` when one third id completes the pair (most leaves of a real KG),
else a ``set`` of them.  This is the data structure the SPARQL evaluator
(``repro.sparql``) runs against and it plays the role that OpenLink Virtuoso
plays in the paper: the RDF engine hosting the knowledge graph and the
KGMeta graph.

The public API stays term-based — encoding happens at the mutation boundary
and ids are decoded lazily on iteration — while the id-space access methods
(``triples_ids``, ``count_ids``, ``estimate_cardinality_ids``) carry the
query hot path.  Two pieces of metadata are maintained incrementally for the
caching/planning layers above:

* ``epoch`` — a counter bumped on every mutation, used by the endpoint's
  plan cache and cached union graph to detect staleness without diffing;
  a graph in a dataset also appends what each bump changed to the
  dataset's :class:`ChangeLog`,
* per-predicate / per-subject / per-object cardinality counters, giving the
  join-order optimizer O(1) estimates instead of per-query index probes,
* per-predicate *distinct-subject* counts (distinct objects and the global
  distinct counts fall out of the index shapes for free), which turn those
  triple counts into join selectivities for the cost-based optimizer.

Concurrency model — snapshot isolation
--------------------------------------

The graph serves *concurrent* readers and writers with snapshot isolation:

* :meth:`Graph.snapshot` returns a :class:`GraphSnapshot` — an immutable,
  point-in-time view sharing the live index containers.  Snapshots are
  cached per epoch, so taking one is O(1) and every reader at the same
  epoch pins the *same* object (which also keeps compiled query plans
  reusable across readers).
* Writers mutate under the graph's write lock, with *bucket-level*
  copy-on-write: the first mutation after a snapshot was pinned shallow-
  copies the three top-level index dicts (O(#distinct keys) pointer
  copies) only while a reader still holds that snapshot, and each inner
  bucket (per-subject predicate map, set leaf) is copied only when a write
  actually touches it while it is still shared with a live snapshot; a
  bare-id leaf is immutable and needs no copy.  Liveness is read off weak
  references, after the write has dropped the per-epoch snapshot caches
  (they are stale once it commits, and are no reader), so a snapshot no
  query holds any more costs the next write nothing.  Ownership is tracked
  by container identity in ``_fresh``, so consecutive writes between
  snapshots stay in-place O(1).
  The epoch bump at the end of each mutation is the commit point readers
  key on.
* The :class:`~repro.rdf.dictionary.TermDictionary` is append-only and ids
  never remap, so snapshots decode through the shared dictionary even while
  writers keep interning new terms.

Reads on the *live* graph are unsynchronised (exactly as before this layer
existed) — concurrent readers must go through :meth:`snapshot`, which is
what :class:`~repro.sparql.endpoint.SPARQLEndpoint` does for every query.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from repro.exceptions import RDFError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import (
    IRI,
    Literal,
    Term,
    Triple,
    Variable,
    RDF_TYPE,
    term_from_python,
)

__all__ = ["ChangeLog", "Graph", "GraphSnapshot", "UNKNOWN"]

_Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]

#: A leaf of an index: the third ids completing a (first, second) pair.  One
#: id is held bare, most leaves of a real KG hold one, and a set costs ~200
#: bytes more; a second id promotes the leaf to a set, which stays a set.
_Leaf = Union[int, Set[int]]

#: Nested index shape: first-component id -> second id -> leaf.
_Index = Dict[int, Dict[int, _Leaf]]

#: What a change-log step records when it cannot say which triples changed.
UNKNOWN = None


class ChangeLog:
    """What each of a dataset's last :attr:`CAPACITY` epoch steps changed.

    Owned by a :class:`~repro.rdf.dataset.Dataset` and shared by its graphs,
    like the write lock and the dictionary; a standalone :class:`Graph` has
    none.  Every commit that bumps a graph epoch, and every graph create or
    drop, appends one record under the write lock: the id triples it added
    or removed, or :data:`UNKNOWN` when it cannot say — bulk loads,
    checkpoint adoption, CLEAR, create / drop, and removes of more than
    :attr:`MAX_TRIPLES` triples.  ``step`` counts the records; it is
    :meth:`Dataset.epoch <repro.rdf.dataset.Dataset.epoch>`.

    Readers never take the lock.  Records sit in a ring indexed by step and
    each carries its own step number; a writer fills the slot before it
    publishes ``step``, so a reader that finds the step it asks for holds
    the whole record, and one overwritten since fails the match.
    """

    CAPACITY = 1024
    MAX_TRIPLES = 16

    __slots__ = ("step", "_ring")

    def __init__(self) -> None:
        self.step = 0
        self._ring = [(-1, UNKNOWN)] * self.CAPACITY

    def record(self, changes) -> None:
        """Append the next step: a sequence of ``(s, p, o)`` id triples, or
        :data:`UNKNOWN` (caller holds the dataset's write lock)."""
        if changes is not UNKNOWN and len(changes) > self.MAX_TRIPLES:
            changes = UNKNOWN
        step = self.step + 1
        self._ring[step % self.CAPACITY] = (step, changes)
        self.step = step

    def untouched(self, patterns, since: int, until: int) -> bool:
        """True when no step in ``(since, until]`` changed a triple matching
        one of ``patterns`` — ``(s, p, o)`` ids, ``None`` matching any id.

        False whenever the log cannot vouch for that: an empty range, a step
        it no longer holds, or an :data:`UNKNOWN` step.  Walks only those
        steps, newest first.
        """
        if not since < until <= since + self.CAPACITY:
            return False
        ring, capacity = self._ring, self.CAPACITY
        for step in range(until, since, -1):
            logged, changes = ring[step % capacity]
            if logged != step or changes is UNKNOWN:
                return False
            for si, pi, oi in changes:
                for s, p, o in patterns:
                    if ((s is None or s == si) and (p is None or p == pi)
                            and (o is None or o == oi)):
                        return False
        return True


def _as_term(value: object, *, allow_none: bool = False) -> Optional[Term]:
    if value is None:
        if allow_none:
            return None
        raise RDFError("None is not a valid triple component")
    if isinstance(value, Variable):
        # For store access a variable behaves like a wildcard.
        return None
    return term_from_python(value)


class Graph:
    """A set of RDF triples with dictionary-encoded SPO / POS / OSP indexes.

    Parameters
    ----------
    identifier:
        Optional IRI naming the graph (used for named graphs in a dataset).
    namespaces:
        Optional :class:`NamespaceManager`; a default one (with the paper's
        ``dblp:``, ``yago:`` and ``kgnet:`` prefixes) is created otherwise.
    dictionary:
        Optional :class:`TermDictionary` to intern terms through.  A
        :class:`~repro.rdf.dataset.Dataset` passes one shared dictionary to
        all its graphs so that union/merge operations and cross-graph joins
        stay in id space.
    lock:
        Optional re-entrant write lock.  A :class:`~repro.rdf.dataset.Dataset`
        passes one shared lock to all its graphs so a dataset-level writer
        advances every epoch atomically; standalone graphs get their own.
    changes:
        Optional :class:`ChangeLog` each epoch bump is recorded in; a
        :class:`~repro.rdf.dataset.Dataset` passes its own to all its graphs.
    """

    def __init__(self, identifier: Optional[IRI] = None,
                 namespaces: Optional[NamespaceManager] = None,
                 dictionary: Optional[TermDictionary] = None,
                 lock: Optional[threading.RLock] = None,
                 changes: Optional[ChangeLog] = None) -> None:
        self.identifier = identifier
        self.namespaces = namespaces or NamespaceManager()
        self._dict = dictionary if dictionary is not None else TermDictionary()
        self._lock = lock if lock is not None else threading.RLock()
        self._changes = changes
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        self._epoch = 0
        # Incrementally maintained cardinality statistics (ids -> triple
        # counts).  These feed the evaluator's join-order estimates in O(1).
        self._p_counts: Dict[int, int] = {}
        self._s_counts: Dict[int, int] = {}
        self._o_counts: Dict[int, int] = {}
        # Distinct subjects per predicate id.  The dual (distinct objects
        # per predicate) is len(self._pos[pid]) — already maintained by the
        # POS index — and the global distinct counts are the top-level index
        # key counts, so this is the only extra counter the selectivity
        # estimator needs.
        self._ps_counts: Dict[int, int] = {}
        #: Cached per-epoch snapshot, and a weak reference to the snapshot
        #: pinned since the last write: the next write copies the top-level
        #: containers it shares only while something still holds it.
        self._snapshot_cache: Optional["GraphSnapshot"] = None
        self._pinned: Optional[weakref.ref] = None
        #: Weak references to the snapshots a write copied away from: while
        #: one is alive it may share inner buckets outside ``_fresh``.
        self._detached: list = []
        #: ids of inner buckets owned by the current write generation (safe
        #: to mutate in place).  None while no live snapshot shares any
        #: container — every container is owned and the write path skips
        #: the ownership bookkeeping entirely (the bulk-load fast path).
        self._fresh: Optional[Set[int]] = None
        #: Weak reference to the :class:`~repro.rdf.dataset.Dataset` this
        #: graph belongs to (set by it), whose cached snapshot a write drops.
        self._dataset: Optional[weakref.ref] = None
        #: Optional write-ahead journal (duck-typed; see ``repro.storage``).
        #: When set, every committed mutation is logged so the dataset can be
        #: recovered after a crash.  ``None`` keeps the store purely in-memory
        #: with zero overhead on the write path.
        self._journal = None

    # ------------------------------------------------------------------
    # Dictionary / epoch access
    # ------------------------------------------------------------------
    @property
    def dictionary(self) -> TermDictionary:
        """The term interning table (shared within a dataset)."""
        return self._dict

    @property
    def epoch(self) -> int:
        """Mutation counter; any change to the triple set bumps it."""
        return self._epoch

    def decode_id(self, term_id: int) -> Term:
        return self._dict.decode(term_id)

    def encode_term(self, term: object) -> Optional[int]:
        """Read-path encoding: the term's id, or None when never stored."""
        coerced = _as_term(term, allow_none=True)
        if coerced is None:
            return None
        return self._dict.lookup(coerced)

    # ------------------------------------------------------------------
    # Snapshot isolation
    # ------------------------------------------------------------------
    @property
    def write_lock(self) -> threading.RLock:
        """The re-entrant lock serialising all mutations of this graph."""
        return self._lock

    def snapshot(self) -> "GraphSnapshot":
        """Pin an immutable point-in-time view of the graph.

        O(1): snapshots are cached per epoch, so all readers between two
        mutations share one pinned view (and therefore one set of compiled
        query plans).  The snapshot's containers are never mutated — the
        next write detaches the live graph from them first if anything but
        the per-epoch caches still holds the snapshot, and otherwise writes
        in place: one that nobody can read any more needs no copy.
        """
        snap = self._snapshot_cache
        if snap is not None and snap._epoch == self._epoch:
            return snap
        with self._lock:
            snap = self._snapshot_cache
            if snap is None or snap._epoch != self._epoch:
                snap = GraphSnapshot._pin(self)
                self._snapshot_cache = snap
                self._pinned = weakref.ref(snap)
            return snap

    def _unpin(self) -> Optional[weakref.ref]:
        """Forget the snapshot pinned since the last write and drop the
        per-epoch caches that hold it — this graph's and its dataset's, both
        stale once the write commits (caller holds lock).  Returns the weak
        reference to that snapshot, None when there is none."""
        pinned = self._pinned
        if pinned is not None:
            self._pinned = None
            self._snapshot_cache = None
            dataset = self._dataset() if self._dataset is not None else None
            if dataset is not None:
                dataset._snapshot_cache = None
        return pinned

    def _prepare_write(self) -> None:
        """Detach from a pinned snapshot before mutating (caller holds lock).

        Only the snapshot pinned since the last write can still share the
        live top-level dicts: every earlier one was either dead at an
        earlier write or detached by that write's copy.  So once the stale
        caches are dropped, one weak reference decides.  While that snapshot
        is alive, the three top-level index dicts and the counter dicts are
        shallow-copied (pointer copies only) so it keeps observing exactly
        the state it pinned, and the bucket-ownership set is reset: inner
        buckets stay shared until a write touches them, at which point
        :meth:`_owned_dict` / :meth:`_add_leaf` / :meth:`_discard_leaf` copy
        just that bucket.
        When nothing holds it, the write mutates in place; ``_fresh`` then
        stays as it is, since an older snapshot still held may share inner
        buckets outside it — until no such snapshot is left either.
        Consecutive writes without an intervening snapshot mutate in place.
        """
        pinned = self._unpin()
        if pinned is None:
            return
        detached = [ref for ref in self._detached if ref() is not None]
        if pinned() is None:
            self._detached = detached
            if not detached:
                self._fresh = None
            return
        self._detached = detached + [pinned]
        self._spo = dict(self._spo)
        self._pos = dict(self._pos)
        self._osp = dict(self._osp)
        self._s_counts = dict(self._s_counts)
        self._p_counts = dict(self._p_counts)
        self._o_counts = dict(self._o_counts)
        self._ps_counts = dict(self._ps_counts)
        # Every inner bucket is now (potentially) shared with a snapshot.
        # A dead owned bucket's id cannot alias a shared one: the shared
        # bucket was allocated while the owned one was still alive, so their
        # addresses differ — and any new allocation reusing the address is
        # registered as owned when it is created.
        self._fresh = set()

    def _commit(self, changes) -> None:
        """Bump the epoch — the commit point readers key on — and log what
        the bump changed (id triples or :data:`UNKNOWN`; caller holds lock)."""
        self._epoch += 1
        if self._changes is not None:
            self._changes.record(changes)

    def _owned_dict(self, top: Dict[int, Dict], key: int) -> Dict:
        """The inner dict for ``key``, copied first if a snapshot shares it."""
        bucket = top.get(key)
        if bucket is None:
            bucket = top[key] = {}
            if self._fresh is not None:
                self._fresh.add(id(bucket))
        elif self._fresh is not None and id(bucket) not in self._fresh:
            bucket = top[key] = dict(bucket)
            self._fresh.add(id(bucket))
        return bucket

    def _owned_leaf(self, bucket: Dict[int, _Leaf], key: int,
                    ids: Set[int]) -> Set[int]:
        """The set leaf ``ids`` under ``key``, copied first if a snapshot
        shares it."""
        if self._fresh is not None and id(ids) not in self._fresh:
            ids = bucket[key] = set(ids)
            self._fresh.add(id(ids))
        return ids

    def _add_leaf(self, bucket: Dict[int, _Leaf], key: int, value: int) -> bool:
        """Add ``value`` to the leaf under ``key``; True when the key is new.

        A new leaf is the bare id, and a second id promotes it to
        ``{first, second}`` — the set ``set()`` plus two adds would build.
        """
        ids = bucket.get(key)
        if ids is None:
            bucket[key] = value
            return True
        if ids.__class__ is int:
            ids = bucket[key] = {ids, value}
            if self._fresh is not None:
                self._fresh.add(id(ids))
        else:
            self._owned_leaf(bucket, key, ids).add(value)
        return False

    def _discard_leaf(self, bucket: Dict[int, _Leaf], key: int,
                      value: int) -> bool:
        """Drop the stored ``value`` from the leaf under ``key``; True when
        the leaf is gone with it.  A set leaf left with one id stays a set."""
        ids = bucket[key]
        if ids.__class__ is not int:
            ids = self._owned_leaf(bucket, key, ids)
            ids.discard(value)
            if ids:
                return False
        del bucket[key]
        return True

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, subject: object, predicate: object = None, obj: object = None) -> bool:
        """Add a triple.  Returns True when the triple was new.

        Accepts either ``add(Triple(...))`` or ``add(s, p, o)``; plain Python
        values are coerced via :func:`repro.rdf.terms.term_from_python`.
        """
        if isinstance(subject, Triple) and predicate is None and obj is None:
            s, p, o = subject
        else:
            s, p, o = subject, predicate, obj
        s = _as_term(s)
        p = _as_term(p)
        o = _as_term(o)
        if s is None or p is None or o is None:
            raise RDFError("cannot add a triple containing variables or wildcards")
        if isinstance(s, Literal):
            raise RDFError("literals cannot be used as subjects")
        if not isinstance(p, IRI):
            raise RDFError("predicates must be IRIs")
        encode = self._dict.encode
        si, pi, oi = encode(s), encode(p), encode(o)
        with self._lock:
            self._prepare_write()
            return self._add_ids(si, pi, oi)

    def _add_ids(self, si: int, pi: int, oi: int) -> bool:
        journal = self._journal
        if journal is not None:
            # Journal BEFORE touching the indexes: log_add raises when the
            # WAL is fail-stopped, and a rejected write must leave the
            # in-memory state exactly as it was — readers must never observe
            # a mutation whose operation reported failure, nor may the live
            # state run ahead of what recovery can reconstruct.
            if self.contains_ids(si, pi, oi):
                return False
            journal.log_add(self.identifier, si, pi, oi)
        if not self._insert_ids(si, pi, oi, known_new=journal is not None):
            return False
        self._commit(((si, pi, oi),))
        return True

    def _insert_ids(self, si: int, pi: int, oi: int,
                    known_new: bool = False) -> bool:
        """Index insertion without the epoch bump or journal record.

        The bulk-load path commits many of these under one epoch bump; the
        regular :meth:`_add_ids` path adds the per-mutation bookkeeping.
        ``known_new`` skips the duplicate probe when the caller already ran
        it (the journalled path probes before logging, and the write lock
        guarantees nothing changes in between).
        """
        # Duplicate probe against the (possibly still shared) bucket first:
        # a no-op add must not copy anything.
        if not known_new and self.contains_ids(si, pi, oi):
            return False
        if self._add_leaf(self._owned_dict(self._spo, si), pi, oi):
            # First (subject, predicate) pairing: a new distinct subject
            # under this predicate.
            self._ps_counts[pi] = self._ps_counts.get(pi, 0) + 1
        self._add_leaf(self._owned_dict(self._pos, pi), oi, si)
        self._add_leaf(self._owned_dict(self._osp, oi), si, pi)
        self._size += 1
        for counts, key in ((self._s_counts, si), (self._p_counts, pi),
                            (self._o_counts, oi)):
            counts[key] = counts.get(key, 0) + 1
        return True

    def bulk_add_ids(self, id_triples: Iterable[Tuple[int, int, int]]) -> int:
        """Bulk-insert already-encoded id triples with ONE epoch bump.

        This is the streaming bulk loader's and the checkpoint restorer's
        entry point: per-triple epoch bumps (and their snapshot/plan-cache
        invalidations) are skipped — the whole batch commits as a single
        epoch.  The batch deliberately bypasses the write-ahead journal;
        durable bulk loads go through
        :meth:`repro.storage.engine.StorageEngine.bulk_load`, which
        checkpoints after the load instead of logging per triple.
        """
        added = 0
        with self._lock:
            self._prepare_write()
            if self._fresh is None:
                added = self._bulk_insert_fast(id_triples)
            else:
                insert = self._insert_ids
                for si, pi, oi in id_triples:
                    if insert(si, pi, oi):
                        added += 1
            if added:
                self._commit(UNKNOWN)
        return added

    def _adopt_indexes(self, spo: _Index, pos: _Index, osp: _Index,
                       s_counts: Dict[int, int], p_counts: Dict[int, int],
                       o_counts: Dict[int, int], size: int) -> int:
        """Adopt fully-materialised indexes wholesale (checkpoint restore).

        The checkpoint reader hands over freshly deserialised, CRC-verified
        containers that were produced from a live graph's own indexes — so
        no per-triple validation, duplicate probing or counter maintenance
        happens here at all: the graph simply takes ownership.  This is what
        makes restoring a checkpoint an order of magnitude cheaper than
        re-inserting the triples.  Only valid on an empty graph.
        """
        with self._lock:
            if self._size:
                raise RDFError("_adopt_indexes requires an empty graph")
            self._prepare_write()
            self._spo = spo
            self._pos = pos
            self._osp = osp
            self._s_counts = s_counts
            self._p_counts = p_counts
            self._o_counts = o_counts
            # Distinct-subject counts are derivable from the adopted SPO
            # index with one pass over its (s, p) pairs — recomputing here
            # keeps the checkpoint format unchanged.
            ps_counts: Dict[int, int] = {}
            for by_pred in spo.values():
                for pi in by_pred:
                    ps_counts[pi] = ps_counts.get(pi, 0) + 1
            self._ps_counts = ps_counts
            self._size = size
            if size:
                self._commit(UNKNOWN)
        return size

    def _bulk_insert_fast(self, id_triples: Iterable[Tuple[int, int, int]]) -> int:
        """Tight insertion loop for a graph with no pinned snapshot.

        Every container is owned (``_fresh is None``), so the copy-on-write
        helpers reduce to plain dict probes — inlined here because this loop
        carries million-triple bulk loads.
        """
        spo, pos, osp = self._spo, self._pos, self._osp
        s_counts, p_counts, o_counts = (self._s_counts, self._p_counts,
                                        self._o_counts)
        ps_counts = self._ps_counts
        added = 0
        for si, pi, oi in id_triples:
            by_pred = spo.get(si)
            if by_pred is None:
                spo[si] = {pi: oi}
                ps_counts[pi] = ps_counts.get(pi, 0) + 1
            else:
                objects = by_pred.get(pi)
                if objects is None:
                    by_pred[pi] = oi
                    ps_counts[pi] = ps_counts.get(pi, 0) + 1
                elif objects.__class__ is int:
                    if objects == oi:
                        continue
                    by_pred[pi] = {objects, oi}
                elif oi in objects:
                    continue
                else:
                    objects.add(oi)
            by_obj = pos.get(pi)
            if by_obj is None:
                pos[pi] = {oi: si}
            else:
                subjects = by_obj.get(oi)
                if subjects is None:
                    by_obj[oi] = si
                elif subjects.__class__ is int:
                    by_obj[oi] = {subjects, si}
                else:
                    subjects.add(si)
            by_subj = osp.get(oi)
            if by_subj is None:
                osp[oi] = {si: pi}
            else:
                preds = by_subj.get(si)
                if preds is None:
                    by_subj[si] = pi
                elif preds.__class__ is int:
                    by_subj[si] = {preds, pi}
                else:
                    preds.add(pi)
            added += 1
            s_counts[si] = s_counts.get(si, 0) + 1
            p_counts[pi] = p_counts.get(pi, 0) + 1
            o_counts[oi] = o_counts.get(oi, 0) + 1
        self._size += added
        return added

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number of newly inserted triples.

        When ``triples`` is another :class:`Graph` (or read-only view) backed
        by the *same* dictionary, the merge runs entirely in id space without
        re-validating or re-interning any term.
        """
        other = triples
        if isinstance(other, Graph):
            # Pin the source first (fully acquiring and releasing its lock)
            # so the merge reads a consistent view even while the source is
            # being written — and so ``add_all(self)`` is safe: the pinned
            # snapshot keeps the pre-merge containers while copy-on-write
            # gives this graph fresh ones to mutate.
            other = other.snapshot()
        if isinstance(other, Graph) and other._dict is self._dict:
            with self._lock:
                self._prepare_write()
                return self._merge_encoded(other)
        added = 0
        with self._lock:
            self._prepare_write()
            for triple in other:
                if self.add(triple):
                    added += 1
        return added

    def _merge_encoded(self, other: "Graph") -> int:
        added = 0
        for si, pi, oi in other.triples_ids():
            if self._add_ids(si, pi, oi):
                added += 1
        return added

    def remove(self, subject: object = None, predicate: object = None,
               obj: object = None) -> int:
        """Remove every triple matching the (possibly wildcarded) pattern.

        Returns the number of removed triples.
        """
        if isinstance(subject, Triple) and predicate is None and obj is None:
            subject, predicate, obj = subject
        pattern = self._encode_pattern(subject, predicate, obj)
        if pattern is _NO_MATCH:
            return 0
        with self._lock:
            self._prepare_write()
            to_remove = list(self.triples_ids(*pattern))
            for si, pi, oi in to_remove:
                self._discard_ids(si, pi, oi)
            if to_remove:
                self._commit(to_remove)
            return len(to_remove)

    def _discard_ids(self, si: int, pi: int, oi: int) -> None:
        if self._journal is not None:
            # Journal first, for the same reason as _add_ids: a fail-stopped
            # WAL must reject the removal before the triple vanishes from
            # the live indexes.
            self._journal.log_remove(self.identifier, si, pi, oi)
        by_pred = self._owned_dict(self._spo, si)
        if self._discard_leaf(by_pred, pi, oi):
            remaining = self._ps_counts[pi] - 1
            if remaining:
                self._ps_counts[pi] = remaining
            else:
                del self._ps_counts[pi]
        if not by_pred:
            del self._spo[si]
        by_obj = self._owned_dict(self._pos, pi)
        self._discard_leaf(by_obj, oi, si)
        if not by_obj:
            del self._pos[pi]
        by_subj = self._owned_dict(self._osp, oi)
        self._discard_leaf(by_subj, si, pi)
        if not by_subj:
            del self._osp[oi]
        self._size -= 1
        for counts, key in ((self._s_counts, si), (self._p_counts, pi),
                            (self._o_counts, oi)):
            remaining = counts[key] - 1
            if remaining:
                counts[key] = remaining
            else:
                del counts[key]

    def clear(self) -> None:
        with self._lock:
            if self._journal is not None and self._size:
                self._journal.log_clear(self.identifier)
            # Fresh containers instead of ``.clear()``: a pinned snapshot may
            # still be reading the old ones.
            self._spo = {}
            self._pos = {}
            self._osp = {}
            self._p_counts = {}
            self._s_counts = {}
            self._o_counts = {}
            self._ps_counts = {}
            self._unpin()
            if self._fresh is not None:
                self._fresh = set()
            if self._size:
                self._commit(UNKNOWN)
            self._size = 0

    # ------------------------------------------------------------------
    # Access (term space)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        lookup = self._dict.lookup
        si = lookup(triple[0])
        if si is None:
            return False
        pi = lookup(triple[1])
        if pi is None:
            return False
        oi = lookup(triple[2])
        if oi is None:
            return False
        return self.contains_ids(si, pi, oi)

    def __iter__(self) -> Iterator[Triple]:
        return self.triples(None, None, None)

    def _encode_pattern(self, subject: object, predicate: object, obj: object):
        """Encode a wildcard pattern to id space; _NO_MATCH when a constant
        was never interned (and therefore cannot match anything)."""
        lookup = self._dict.lookup
        ids = []
        for value in (subject, predicate, obj):
            term = _as_term(value, allow_none=True)
            if term is None:
                ids.append(None)
                continue
            term_id = lookup(term)
            if term_id is None:
                return _NO_MATCH
            ids.append(term_id)
        return tuple(ids)

    def triples(self, subject: Optional[object] = None,
                predicate: Optional[object] = None,
                obj: Optional[object] = None) -> Iterator[Triple]:
        """Iterate over triples matching a pattern (``None`` = wildcard)."""
        pattern = self._encode_pattern(subject, predicate, obj)
        if pattern is _NO_MATCH:
            return
        decode = self._dict.decode
        for si, pi, oi in self.triples_ids(*pattern):
            yield Triple(decode(si), decode(pi), decode(oi))

    # ------------------------------------------------------------------
    # Access (id space) — the SPARQL hot path
    # ------------------------------------------------------------------
    def triples_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                    o: Optional[int] = None) -> Iterator[Tuple[int, int, int]]:
        """Iterate over id-triples matching an id pattern (``None`` = wildcard).

        Chooses the index whose prefix covers the constants, exactly like the
        term-level :meth:`triples`, but never touches a :class:`Term` object.
        Misses allocate nothing (plain ``.get`` probes, no auto-vivification).
        """
        if s is not None:
            by_pred = self._spo.get(s)
            if not by_pred:
                return
            if p is not None:
                objects = by_pred.get(p)
                if objects is None:
                    return
                if objects.__class__ is int:
                    if o is None or o == objects:
                        yield (s, p, objects)
                elif o is None:
                    for oi in objects:
                        yield (s, p, oi)
                elif o in objects:
                    yield (s, p, o)
                return
            for pi, objects in by_pred.items():
                if objects.__class__ is int:
                    if o is None or o == objects:
                        yield (s, pi, objects)
                elif o is None:
                    for oi in objects:
                        yield (s, pi, oi)
                elif o in objects:
                    yield (s, pi, o)
            return
        if p is not None:
            by_obj = self._pos.get(p)
            if not by_obj:
                return
            if o is not None:
                subjects = by_obj.get(o)
                if subjects is None:
                    return
                if subjects.__class__ is int:
                    yield (subjects, p, o)
                    return
                for si in subjects:
                    yield (si, p, o)
                return
            for oi, subjects in by_obj.items():
                if subjects.__class__ is int:
                    yield (subjects, p, oi)
                    continue
                for si in subjects:
                    yield (si, p, oi)
            return
        if o is not None:
            by_subj = self._osp.get(o)
            if not by_subj:
                return
            for si, preds in by_subj.items():
                if preds.__class__ is int:
                    yield (si, preds, o)
                    continue
                for pi in preds:
                    yield (si, pi, o)
            return
        for si, by_pred in self._spo.items():
            for pi, objects in by_pred.items():
                if objects.__class__ is int:
                    yield (si, pi, objects)
                    continue
                for oi in objects:
                    yield (si, pi, oi)

    # Direct slot iterators: the ids completing a 2/3-bound pattern.  These
    # feed the innermost level of the evaluator's join pipeline, where
    # per-element tuple allocation would dominate; a set leaf is handed out
    # as it is stored, so callers must not mutate it, and a bare-id leaf as
    # a one-id tuple.
    def object_ids(self, s: int, p: int):
        by_pred = self._spo.get(s)
        if by_pred is None:
            return ()
        objects = by_pred.get(p, ())
        return (objects,) if objects.__class__ is int else objects

    def subject_ids(self, p: int, o: int):
        by_obj = self._pos.get(p)
        if by_obj is None:
            return ()
        subjects = by_obj.get(o, ())
        return (subjects,) if subjects.__class__ is int else subjects

    def predicate_ids(self, s: int, o: int):
        by_subj = self._osp.get(o)
        if by_subj is None:
            return ()
        preds = by_subj.get(s, ())
        return (preds,) if preds.__class__ is int else preds

    def contains_ids(self, si: int, pi: int, oi: int) -> bool:
        """Membership test for a fully-constant id triple (O(1))."""
        by_pred = self._spo.get(si)
        if by_pred is None:
            return False
        objects = by_pred.get(pi)
        if objects.__class__ is int:
            return objects == oi
        return objects is not None and oi in objects

    def count_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> int:
        """Exact match count for an id pattern, without materialising."""
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is None and o is None:
            return self._s_counts.get(s, 0)
        if p is not None and s is None and o is None:
            return self._p_counts.get(p, 0)
        if o is not None and s is None and p is None:
            return self._o_counts.get(o, 0)
        if s is not None and p is not None and o is None:
            return len(self.object_ids(s, p))
        if p is not None and o is not None and s is None:
            return len(self.subject_ids(p, o))
        if s is not None and o is not None and p is None:
            return len(self.predicate_ids(s, o))
        return 1 if self.contains_ids(s, p, o) else 0

    # ``count_ids`` answers every pattern shape from maintained counters or a
    # single O(1) index probe, so the estimate *is* the exact count.
    estimate_cardinality_ids = count_ids

    # -- distinct-count statistics (the selectivity estimator's inputs) -------
    def distinct_subjects_ids(self, p: Optional[int] = None) -> int:
        """Distinct subjects overall, or among triples with predicate ``p``.

        O(1) either way: the global count is the SPO key count, the
        per-predicate count is maintained incrementally on the write path.
        """
        if p is None:
            return len(self._spo)
        return self._ps_counts.get(p, 0)

    def distinct_objects_ids(self, p: Optional[int] = None) -> int:
        """Distinct objects overall, or among triples with predicate ``p``."""
        if p is None:
            return len(self._osp)
        by_obj = self._pos.get(p)
        return len(by_obj) if by_obj else 0

    def distinct_predicates_ids(self) -> int:
        """Number of distinct predicates (the POS key count)."""
        return len(self._pos)

    def count(self, subject: Optional[object] = None,
              predicate: Optional[object] = None,
              obj: Optional[object] = None) -> int:
        """Count triples matching the pattern without materialising them.

        Single-constant patterns are answered from the incrementally
        maintained cardinality counters; two-constant patterns from one O(1)
        index probe.  This is what the SPARQL join-order optimizer relies on
        for cardinality estimation.
        """
        pattern = self._encode_pattern(subject, predicate, obj)
        if pattern is _NO_MATCH:
            return 0
        return self.count_ids(*pattern)

    # For a single graph the maintained counters make the exact count O(1),
    # so the planning estimate *is* the count.  Union views override this
    # with a cheap non-deduplicated bound (exact counting enumerates there).
    estimate_cardinality = count

    # -- convenience accessors ------------------------------------------------
    def subjects(self, predicate: Optional[object] = None,
                 obj: Optional[object] = None) -> Iterator[Term]:
        pattern = self._encode_pattern(None, predicate, obj)
        if pattern is _NO_MATCH:
            return
        seen: Set[int] = set()
        decode = self._dict.decode
        for si, _, _ in self.triples_ids(*pattern):
            if si not in seen:
                seen.add(si)
                yield decode(si)

    def predicates(self, subject: Optional[object] = None) -> Iterator[Term]:
        pattern = self._encode_pattern(subject, None, None)
        if pattern is _NO_MATCH:
            return
        seen: Set[int] = set()
        decode = self._dict.decode
        for _, pi, _ in self.triples_ids(*pattern):
            if pi not in seen:
                seen.add(pi)
                yield decode(pi)

    def objects(self, subject: Optional[object] = None,
                predicate: Optional[object] = None) -> Iterator[Term]:
        pattern = self._encode_pattern(subject, predicate, None)
        if pattern is _NO_MATCH:
            return
        seen: Set[int] = set()
        decode = self._dict.decode
        for _, _, oi in self.triples_ids(*pattern):
            if oi not in seen:
                seen.add(oi)
                yield decode(oi)

    def value(self, subject: Optional[object] = None,
              predicate: Optional[object] = None,
              obj: Optional[object] = None) -> Optional[Term]:
        """Return one matching value (the missing component), or None."""
        for s, p, o in self.triples(subject, predicate, obj):
            if subject is None:
                return s
            if obj is None:
                return o
            return p
        return None

    def rdf_type(self, node: object) -> Optional[Term]:
        """Return the ``rdf:type`` of ``node`` (one of them), or None."""
        return self.value(subject=node, predicate=RDF_TYPE)

    def nodes(self) -> Iterator[Term]:
        """Iterate over every distinct subject or object term."""
        decode = self._dict.decode
        for node_id in self.node_ids():
            yield decode(node_id)

    def node_ids(self) -> Set[int]:
        """Every distinct subject or object id (the RDF 'node' universe).

        Feeds the property-path closure iterators when both endpoints are
        unbound; O(|subjects| + |objects|) straight off the index keys.
        """
        ids: Set[int] = set(self._spo)
        ids.update(self._osp)
        return ids

    # ------------------------------------------------------------------
    # Set-style operations
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        clone = Graph(identifier=self.identifier, namespaces=self.namespaces.copy(),
                      dictionary=self._dict)
        # Merge from a pinned view so copying stays consistent even while a
        # writer is mutating this graph.
        clone._merge_encoded(self.snapshot())
        return clone

    def union(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.add_all(other)
        return result

    def __iadd__(self, other: Iterable[Triple]) -> "Graph":
        self.add_all(other)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(triple in other for triple in self)

    def __hash__(self) -> int:  # Graphs are mutable; identity hash.
        return id(self)

    def __repr__(self) -> str:
        name = self.identifier.value if self.identifier else "default"
        return f"<Graph {name!r} with {self._size} triples>"


#: Sentinel: a pattern containing a constant the dictionary has never seen.
_NO_MATCH = object()


class GraphSnapshot(Graph):
    """An immutable, point-in-time view of a :class:`Graph`.

    Shares the source graph's index containers at pin time; the source's
    copy-on-write discipline guarantees they are never mutated afterwards,
    so every read method inherited from :class:`Graph` (term-level and
    id-level alike) is safe from any thread without locking.  Both the
    streaming :class:`~repro.sparql.evaluator.QueryEvaluator` and the frozen
    :class:`~repro.sparql.reference.ReferenceQueryEvaluator` run on
    snapshots unchanged, which is what the differential concurrency suite
    exploits.

    Obtained via :meth:`Graph.snapshot` — not constructed directly.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise RDFError("GraphSnapshot is created via Graph.snapshot()")

    @classmethod
    def _pin(cls, graph: Graph) -> "GraphSnapshot":
        snap = object.__new__(cls)
        snap.identifier = graph.identifier
        snap.namespaces = graph.namespaces
        snap._dict = graph._dict
        snap._lock = graph._lock
        snap._changes = None  # snapshots are immutable: nothing to log
        snap._spo = graph._spo
        snap._pos = graph._pos
        snap._osp = graph._osp
        snap._size = graph._size
        snap._epoch = graph._epoch
        snap._s_counts = graph._s_counts
        snap._p_counts = graph._p_counts
        snap._o_counts = graph._o_counts
        snap._ps_counts = graph._ps_counts
        snap._snapshot_cache = None
        snap._pinned = None
        snap._detached = []
        snap._fresh = None
        snap._dataset = None
        snap._journal = None  # snapshots are immutable: nothing to journal
        return snap

    def snapshot(self) -> "GraphSnapshot":
        """A snapshot is already pinned; it is its own snapshot."""
        return self

    # -- mutation is forbidden ----------------------------------------------
    def _readonly(self, *args, **kwargs):
        raise RDFError("GraphSnapshot is read-only: mutate the live Graph, "
                       "then take a fresh snapshot")

    add = _readonly
    add_all = _readonly
    remove = _readonly
    clear = _readonly
    _add_ids = _readonly
    _discard_ids = _readonly
    bulk_add_ids = _readonly
    __iadd__ = _readonly

    def __repr__(self) -> str:
        name = self.identifier.value if self.identifier else "default"
        return (f"<GraphSnapshot {name!r} epoch={self._epoch} "
                f"with {self._size} triples>")
