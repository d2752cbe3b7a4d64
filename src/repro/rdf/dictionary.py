"""Dictionary encoding: interning RDF terms as dense integer ids.

Real RDF engines (Virtuoso, the Sage engine, HDT stores) never join on full
term values; they map every term to a dense integer once at load time and
run the whole scan/join machinery over machine words.  :class:`TermDictionary`
is that component for the in-memory substrate: a bidirectional term <-> id
interning table shared by a :class:`~repro.rdf.graph.Graph`'s SPO/POS/OSP
indexes and by the SPARQL evaluator's id-space join pipeline.

Ids are allocated densely from 0 and are **never reused or remapped**, even
when triples are removed.  That append-only discipline is what makes it safe
for a :class:`~repro.rdf.dataset.Dataset` to share one dictionary across its
default and named graphs (and their union), for the endpoint's plan cache to
keep compiled constant-ids across queries while the graph only grows — and
for *snapshot isolation*: a pinned :class:`~repro.rdf.graph.GraphSnapshot`
decodes through the same dictionary the live graph keeps appending to,
because an id's meaning can never change after allocation.

Thread-safety: reads (``lookup`` / ``decode``) are lock-free — a dict probe
and a list index are single atomic operations under CPython, and the table
only ever grows.  ``encode`` takes a *striped* lock (by term hash) so
concurrent writers interning different terms proceed in parallel; only the
dense-id allocation itself serialises on one tiny lock.  A term becomes
visible in ``lookup`` only after its id is fully allocated, so readers can
never observe a half-interned term.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.rdf.terms import Term

__all__ = ["TermDictionary", "DictionaryOverlay"]

#: Number of encode-lock stripes (power of two; indexed by ``hash & mask``).
_NUM_STRIPES = 16
_STRIPE_MASK = _NUM_STRIPES - 1


class TermDictionary:
    """A bidirectional, append-only term <-> dense-int-id interning table."""

    # ``__weakref__`` lets the result serializers key their id -> fragment
    # memos on the dictionary without keeping a dropped dataset alive.
    __slots__ = ("_term_to_id", "_id_to_term", "_stripes", "_alloc_lock",
                 "__weakref__")

    def __init__(self) -> None:
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Term] = []
        self._stripes = tuple(threading.Lock() for _ in range(_NUM_STRIPES))
        self._alloc_lock = threading.Lock()

    # -- encoding ------------------------------------------------------------
    def encode(self, term: Term) -> int:
        """Return the id for ``term``, interning it on first sight."""
        term_id = self._term_to_id.get(term)
        if term_id is not None:
            return term_id
        # Slow path: serialise per stripe so two threads interning the *same*
        # term race on one lock while unrelated terms stay parallel.
        with self._stripes[hash(term) & _STRIPE_MASK]:
            term_id = self._term_to_id.get(term)
            if term_id is not None:
                return term_id
            with self._alloc_lock:
                term_id = len(self._id_to_term)
                self._id_to_term.append(term)
            # Publish last: ``lookup`` must never return an id that
            # ``decode`` cannot resolve yet.
            self._term_to_id[term] = term_id
            return term_id

    def encode_triple(self, s: Term, p: Term, o: Term) -> Tuple[int, int, int]:
        return self.encode(s), self.encode(p), self.encode(o)

    @classmethod
    def restore(cls, terms: Iterable[Term]) -> "TermDictionary":
        """Rebuild a dictionary from an ordered id → term table in one pass.

        This is the checkpoint-restore fast path: the id of each term is its
        position in ``terms`` (exactly how a checkpoint serialises the
        table), so the whole dictionary comes back with one list copy and
        one dict comprehension — no per-term ``encode`` calls, no stripe
        locking, no re-interning.
        """
        dictionary = cls()
        dictionary._id_to_term = table = list(terms)
        # dict(zip(...)) runs the whole reverse-map build in C; only the
        # term hashing itself stays Python-level.
        dictionary._term_to_id = dict(zip(table, range(len(table))))
        return dictionary

    def lookup(self, term: Term) -> Optional[int]:
        """Return the id for ``term`` without interning; None when unseen.

        This is the read-path entry point: probing for a term that was never
        stored must not grow the dictionary.
        """
        return self._term_to_id.get(term)

    # -- decoding ------------------------------------------------------------
    def decode(self, term_id: int) -> Term:
        return self._id_to_term[term_id]

    def decode_many(self, term_ids: Iterable[int]) -> List[Term]:
        table = self._id_to_term
        return [table[term_id] for term_id in term_ids]

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: object) -> bool:
        return term in self._term_to_id

    def __iter__(self) -> Iterator[Term]:
        return iter(self._id_to_term)

    def items(self) -> Iterator[Tuple[int, Term]]:
        return enumerate(self._id_to_term)

    def __repr__(self) -> str:
        return f"<TermDictionary {len(self)} terms>"


class DictionaryOverlay:
    """Per-query ids for terms the store has never seen.

    The SPARQL evaluator keeps every binding as a term id, including values
    a query *computes* (BIND / aggregate / VALUES / UDF results).  A computed
    term that is stored resolves to its dictionary id, so it joins and
    compares against stored data as an integer; one that is not gets a
    private **negative** id from this overlay — never interned into the
    append-only dictionary, so reads cannot grow it.  Private ids live as
    long as the query and mean nothing outside it.

    The overlay is consulted before the dictionary: once a term has a private
    id it keeps it for the whole query, even if a concurrent writer interns
    the same term meanwhile (the query's pinned snapshot cannot contain it).
    """

    __slots__ = ("dictionary", "_lookup", "_decode", "_ids", "_terms")

    def __init__(self, dictionary: TermDictionary) -> None:
        self.dictionary = dictionary
        self._lookup = dictionary.lookup
        self._decode = dictionary.decode
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []

    def encode(self, term: Term) -> int:
        """The dictionary id of ``term``, or its private negative id."""
        if self._ids:
            term_id = self._ids.get(term)
            if term_id is not None:
                return term_id
        term_id = self._lookup(term)
        if term_id is None:
            self._terms.append(term)
            term_id = self._ids[term] = -len(self._terms)
        return term_id

    def decode(self, term_id: int) -> Term:
        return self._decode(term_id) if term_id >= 0 else self._terms[~term_id]

    def __len__(self) -> int:
        """Number of private (negative) ids handed out so far."""
        return len(self._terms)
