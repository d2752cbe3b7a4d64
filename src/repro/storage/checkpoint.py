"""Binary, dictionary-aware dataset checkpoints.

A checkpoint is one sequential dump of the whole
:class:`~repro.rdf.dataset.Dataset`: namespace bindings, the shared
:class:`~repro.rdf.dictionary.TermDictionary` (id order preserved, terms in
the tagged binary encoding of :mod:`repro.storage.format`), then one section
per graph holding its id-space SPO/POS/OSP indexes and cardinality counters
as a *data-only* pickle (nested dicts/sets of ints — deserialised through an
unpickler with ``find_class`` closed off, so no code can ever execute).
Restoring is the whole point of the format:

* the dictionary comes back via :meth:`TermDictionary.restore
  <repro.rdf.dictionary.TermDictionary.restore>` — positional, no
  re-interning, no stripe locks — with terms built by trusted constructors
  that skip re-validation of CRC-verified data,
* the indexes come back as one C-level deserialisation each, adopted
  wholesale by :meth:`Graph._adopt_indexes <repro.rdf.graph.Graph>` —
  no per-triple insertion, probing or counter maintenance at all,

which is why restoring a checkpoint beats re-parsing the equivalent Turtle
(``storage.checkpoint.restore_s`` on the ``update_mix`` workload of
``benchmarks/e2e`` is the record).

File layout::

    v1: MAGIC "KGCKPT01"             | u32 crc32(payload) | u64 len | payload
    v2: MAGIC "KGCKPT02" | u8 flags  | u32 crc32(payload) | u64 len | payload

``flags`` bit 0 (v2) marks the pickled sections — the term-table columns and
each graph's index state — as zlib-framed: the section's varint length then
counts *compressed* bytes, and the reader inflates before unpickling.  The
writer only emits v2 with that bit set; the reader dispatches on the magic,
so every old checkpoint on disk stays readable.  Compression is per-section,
not whole-file, so the restore path keeps its shape: one inflate + one
C-level unpickle per section.

The file is written to a temp sibling and atomically renamed into place, so
a crash mid-checkpoint leaves the previous checkpoint untouched; a torn or
tampered file fails magic/length/CRC and raises
:class:`~repro.exceptions.CorruptCheckpointError`.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import CorruptCheckpointError
from repro.rdf.dataset import Dataset
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import BNode, IRI, Literal, RDF_LANGSTRING, XSD_STRING
from repro.storage.format import (
    TAG_BNODE,
    TAG_IRI,
    TAG_LITERAL_LANG,
    TAG_LITERAL_PLAIN,
    TAG_LITERAL_TYPED,
    crc32,
    decode_string,
    decode_varint,
    encode_string,
    encode_varint,
    fsync_directory,
)

__all__ = ["CheckpointInfo", "write_checkpoint", "read_checkpoint"]

MAGIC = b"KGCKPT01"
MAGIC_V2 = b"KGCKPT02"
_HEADER = struct.Struct("<IQ")  # crc32(payload), len(payload)

#: v2 flag bit: pickled sections are zlib-framed.
FLAG_ZLIB_SECTIONS = 0x01

#: zlib level for checkpoint sections: 6 is the sweet spot for pickled index
#: dumps (levels beyond it buy <2% size for ~2x CPU on this data).
_ZLIB_LEVEL = 6


@dataclass
class CheckpointInfo:
    """What one checkpoint write/restore touched (surfaced via admin routes)."""

    path: str
    last_commit_seq: int
    triples: int
    terms: int
    named_graphs: int
    bytes: int
    seconds: float
    #: Section compression accounting (v2 files): raw pickled bytes vs the
    #: zlib-framed bytes actually stored.  Equal on v1 files.
    compressed: bool = False
    section_raw_bytes: int = 0
    section_stored_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "last_commit_seq": self.last_commit_seq,
            "triples": self.triples,
            "terms": self.terms,
            "named_graphs": self.named_graphs,
            "bytes": self.bytes,
            "seconds": round(self.seconds, 6),
            "compressed": self.compressed,
            "section_raw_bytes": self.section_raw_bytes,
            "section_stored_bytes": self.section_stored_bytes,
        }


def _frame_section(buffer: bytearray, blob: bytes) -> Tuple[int, int]:
    """Append one pickled section, zlib-framed.

    Returns ``(raw_bytes, stored_bytes)`` for the compression accounting
    the storage engine surfaces through its stats.
    """
    stored = zlib.compress(blob, _ZLIB_LEVEL)
    encode_varint(buffer, len(stored))
    buffer += stored
    return len(blob), len(stored)


def _encode_graph(buffer: bytearray, graph: Graph) -> Tuple[int, int, int]:
    """Append one graph section; returns (triples, raw_bytes, stored_bytes).

    The section body is a *data-only* pickle of the graph's three id-space
    indexes plus the maintained cardinality counters — nested dicts of
    ints and sets of ints, nothing else.  Pickling them costs one C-level
    traversal at checkpoint time and, far more importantly, restoring them
    is one C-level :func:`pickle.load` instead of ~3 Python-level index
    insertions per triple (see :func:`_decode_graph_state` for why that is
    safe).
    """
    if graph.identifier is None:
        buffer.append(0)
    else:
        buffer.append(1)
        encode_string(buffer, graph.identifier.value)
    blob = pickle.dumps(
        (graph._spo, graph._pos, graph._osp, graph._s_counts,
         graph._p_counts, graph._o_counts, len(graph)),
        protocol=pickle.HIGHEST_PROTOCOL)
    raw, stored = _frame_section(buffer, blob)
    return len(graph), raw, stored


class _DataOnlyUnpickler(pickle.Unpickler):
    """An unpickler that refuses to resolve ANY global.

    The graph-section pickles contain only builtin containers and ints, so
    a legitimate checkpoint never needs ``find_class`` — and with it closed
    off, a tampered pickle cannot name a callable, which removes the entire
    arbitrary-code-execution surface unpickling normally carries.
    """

    def find_class(self, module, name):  # noqa: ARG002 - signature fixed
        raise CorruptCheckpointError(
            f"checkpoint graph section references global {module}.{name}; "
            "index pickles must be pure data")


def _read_section(data: bytes, offset: int, compressed: bool,
                  what: str) -> Tuple[bytes, int, int]:
    """Slice (and inflate, for v2 files) one pickled section.

    Returns ``(blob, end, stored_bytes)`` — the raw size is ``len(blob)``;
    together they let the restore path report the same raw/stored
    accounting the write path does.
    """
    length, offset = decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise CorruptCheckpointError(f"{what} runs past end of payload")
    blob = data[offset:end]
    if compressed:
        try:
            blob = zlib.decompress(blob)
        except zlib.error as exc:
            raise CorruptCheckpointError(f"undecompressable {what}: {exc}")
    return blob, end, length


def _decode_graph_state(data: bytes, offset: int, compressed: bool = False):
    """Decode one graph section; returns (state, end, raw_bytes, stored_bytes)."""
    blob, end, stored = _read_section(data, offset, compressed, "graph section")
    try:
        state = _DataOnlyUnpickler(io.BytesIO(blob)).load()
    except CorruptCheckpointError:
        raise
    except Exception as exc:
        raise CorruptCheckpointError(f"undecodable graph section: {exc}")
    if not (isinstance(state, tuple) and len(state) == 7):
        raise CorruptCheckpointError("malformed graph section state")
    return state, end, len(blob), stored


def write_checkpoint(dataset: Dataset, path: str,
                     last_commit_seq: int = 0) -> CheckpointInfo:
    """Serialise ``dataset`` to ``path`` in one sequential pass.

    The caller is expected to hold the dataset's write lock (the storage
    engine does); the dump then observes one consistent commit point, and
    ``last_commit_seq`` records which WAL transactions it already covers.
    """
    started = time.perf_counter()
    payload = bytearray()
    encode_varint(payload, last_commit_seq)

    prefixes = list(dataset.namespaces.prefixes())
    encode_varint(payload, len(prefixes))
    for prefix, base in prefixes:
        encode_string(payload, prefix)
        encode_string(payload, base)

    # Snapshot the term table once: `encode` interns *outside* the write
    # lock (by design — see Graph.add), so the dictionary may keep growing
    # while we hold the lock.  Any id the indexes reference was interned
    # before the lock was taken, so a point-in-time copy is always closed
    # over the triples serialised below.
    table = list(dataset.dictionary)
    encode_varint(payload, len(table))
    raw_bytes, stored_bytes = _encode_term_table(payload, table)

    graphs = [dataset.default_graph] + list(dataset.named_graphs())
    encode_varint(payload, len(graphs))
    triples = 0
    for graph in graphs:
        count, raw, stored = _encode_graph(payload, graph)
        triples += count
        raw_bytes += raw
        stored_bytes += stored

    blob = bytes(payload)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(MAGIC_V2)
        handle.write(bytes([FLAG_ZLIB_SECTIONS]))
        handle.write(_HEADER.pack(crc32(blob), len(blob)))
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    # fsync the directory too: os.replace orders the rename in memory, but
    # the new directory entry itself must be durable BEFORE the engine
    # truncates the WAL — otherwise a power cut could leave the old
    # checkpoint next to an already-empty log.
    fsync_directory(os.path.dirname(os.path.abspath(path)))
    elapsed = time.perf_counter() - started
    header_bytes = len(MAGIC_V2) + 1
    return CheckpointInfo(path=path, last_commit_seq=last_commit_seq,
                          triples=triples, terms=len(table),
                          named_graphs=len(graphs) - 1,
                          bytes=header_bytes + _HEADER.size + len(blob),
                          seconds=elapsed,
                          compressed=True,
                          section_raw_bytes=raw_bytes,
                          section_stored_bytes=stored_bytes)


# ---------------------------------------------------------------------------
# Restore fast path
#
# The decoders below inline varint/string reads and construct terms through
# trusted constructors that skip input validation.  That is safe here and
# only here: the payload was produced by encode_term/encode_varint from live,
# already-validated terms and has just passed its CRC — re-validating every
# IRI against the forbidden-character regex on every restart is pure waste
# on the restart path, which this module exists to make fast.
# ---------------------------------------------------------------------------

def _trusted_iri(value: str) -> IRI:
    iri = object.__new__(IRI)
    object.__setattr__(iri, "value", value)
    return iri


def _trusted_literal(lexical: str, datatype: IRI,
                     language) -> Literal:
    literal = object.__new__(Literal)
    object.__setattr__(literal, "lexical", lexical)
    object.__setattr__(literal, "datatype", datatype)
    object.__setattr__(literal, "language", language)
    return literal


def _encode_term_table(buffer: bytearray, table) -> Tuple[int, int]:
    """Append the id-ordered term list as three pickled parallel columns.

    ``(tags: bytes, texts: list[str], extras: list[str|None])`` — a pure-data
    pickle, so the restore side gets every string materialised by one
    C-level :func:`pickle.load` and only the term-object construction itself
    stays Python (see :func:`_decode_term_table`).  Returns the
    ``(raw, stored)`` byte accounting like :func:`_encode_graph`.
    """
    tags = bytearray()
    texts = []
    extras = []
    for term in table:
        if isinstance(term, IRI):
            tags.append(TAG_IRI)
            texts.append(term.value)
            extras.append(None)
        elif isinstance(term, Literal):
            texts.append(term.lexical)
            if term.language is not None:
                tags.append(TAG_LITERAL_LANG)
                extras.append(term.language)
            elif term.datatype == XSD_STRING:
                tags.append(TAG_LITERAL_PLAIN)
                extras.append(None)
            else:
                tags.append(TAG_LITERAL_TYPED)
                extras.append(term.datatype.value)
        elif isinstance(term, BNode):
            tags.append(TAG_BNODE)
            texts.append(term.id)
            extras.append(None)
        else:
            raise CorruptCheckpointError(
                f"cannot checkpoint term type {type(term).__name__}")
    blob = pickle.dumps((bytes(tags), texts, extras),
                        protocol=pickle.HIGHEST_PROTOCOL)
    return _frame_section(buffer, blob)


def _decode_term_table(data: bytes, offset: int, n_terms: int,
                       compressed: bool = False):
    """Decode the dictionary section; returns (terms, end, raw, stored)."""
    blob, end, stored = _read_section(data, offset, compressed, "term table")
    try:
        tags, texts, extras = _DataOnlyUnpickler(io.BytesIO(blob)).load()
    except CorruptCheckpointError:
        raise
    except Exception as exc:
        raise CorruptCheckpointError(f"undecodable term table: {exc}")
    if not (len(tags) == len(texts) == len(extras) == n_terms):
        raise CorruptCheckpointError(
            f"term table length mismatch: header says {n_terms}, "
            f"columns hold {len(texts)}")
    terms = []
    append = terms.append
    new = object.__new__
    set_attr = object.__setattr__
    # Datatype IRIs repeat massively (xsd:integer, xsd:date, ...): intern
    # them per checkpoint so equal datatypes share one IRI object.
    datatypes = {}
    for tag, text, extra in zip(tags, texts, extras):
        if tag == TAG_IRI:
            term = new(IRI)
            set_attr(term, "value", text)
        elif tag == TAG_LITERAL_PLAIN:
            term = _trusted_literal(text, XSD_STRING, None)
        elif tag == TAG_BNODE:
            term = BNode(text)
        elif tag == TAG_LITERAL_LANG:
            term = _trusted_literal(text, RDF_LANGSTRING, extra)
        elif tag == TAG_LITERAL_TYPED:
            datatype = datatypes.get(extra)
            if datatype is None:
                datatype = datatypes[extra] = _trusted_iri(extra)
            term = _trusted_literal(text, datatype, None)
        else:
            raise CorruptCheckpointError(f"unknown term tag {tag} in checkpoint")
        append(term)
    return terms, end, len(blob), stored


def read_checkpoint(path: str,
                    lock: Optional[threading.RLock] = None
                    ) -> Tuple[Dataset, int, CheckpointInfo]:
    """Restore a dataset from ``path``; returns ``(dataset, seq, info)``.

    ``lock`` is forwarded to the restored :class:`Dataset` so the storage
    engine can install its journalled write lock before any graph exists.
    Raises :class:`~repro.exceptions.CorruptCheckpointError` when the file
    fails magic, length or CRC validation.
    """
    started = time.perf_counter()
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CorruptCheckpointError(f"cannot read checkpoint {path!r}: {exc}")
    if raw.startswith(MAGIC_V2):
        header_offset = len(MAGIC_V2) + 1
        if len(raw) < header_offset + _HEADER.size:
            raise CorruptCheckpointError(f"{path!r} is truncated inside its header")
        flags = raw[len(MAGIC_V2)]
        if flags & ~FLAG_ZLIB_SECTIONS:
            raise CorruptCheckpointError(
                f"checkpoint {path!r} carries unknown format flags {flags:#x}")
        compressed = bool(flags & FLAG_ZLIB_SECTIONS)
    elif raw.startswith(MAGIC):
        if len(raw) < len(MAGIC) + _HEADER.size:
            raise CorruptCheckpointError(f"{path!r} is truncated inside its header")
        header_offset = len(MAGIC)
        compressed = False
    else:
        raise CorruptCheckpointError(f"{path!r} is not a KGNet checkpoint")
    checksum, length = _HEADER.unpack_from(raw, header_offset)
    data = raw[header_offset + _HEADER.size:]
    if len(data) != length:
        raise CorruptCheckpointError(
            f"checkpoint {path!r} is truncated: expected {length} payload "
            f"bytes, found {len(data)}")
    if crc32(data) != checksum:
        raise CorruptCheckpointError(f"checkpoint {path!r} fails its CRC")

    offset = 0
    last_commit_seq, offset = decode_varint(data, offset)

    n_prefixes, offset = decode_varint(data, offset)
    namespaces = NamespaceManager()
    for _ in range(n_prefixes):
        prefix, offset = decode_string(data, offset)
        base, offset = decode_string(data, offset)
        namespaces.bind(prefix, base)

    n_terms, offset = decode_varint(data, offset)
    terms, offset, raw_bytes, stored_bytes = _decode_term_table(
        data, offset, n_terms, compressed=compressed)
    dictionary = TermDictionary.restore(terms)

    dataset = Dataset(namespaces=namespaces, dictionary=dictionary, lock=lock)
    n_graphs, offset = decode_varint(data, offset)
    triples = 0
    for _ in range(n_graphs):
        if offset >= len(data):
            raise CorruptCheckpointError(f"checkpoint {path!r}: graph section "
                                         "runs past end of payload")
        flag = data[offset]
        offset += 1
        if flag == 0:
            graph = dataset.default_graph
        else:
            iri, offset = decode_string(data, offset)
            graph = dataset.graph(IRI(iri))
        state, offset, raw_len, stored_len = _decode_graph_state(
            data, offset, compressed=compressed)
        raw_bytes += raw_len
        stored_bytes += stored_len
        triples += graph._adopt_indexes(*state)
    elapsed = time.perf_counter() - started
    info = CheckpointInfo(path=path, last_commit_seq=last_commit_seq,
                          triples=triples, terms=n_terms,
                          named_graphs=n_graphs - 1, bytes=len(raw),
                          seconds=elapsed, compressed=compressed,
                          section_raw_bytes=raw_bytes,
                          section_stored_bytes=stored_bytes)
    return dataset, last_commit_seq, info
