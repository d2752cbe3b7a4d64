"""Binary on-disk encoding shared by the checkpoint format and the WAL.

Everything durable in :mod:`repro.storage` is built from three primitives:

* **varints** — unsigned LEB128, so dense dictionary ids and counts cost one
  byte in the common case instead of a fixed-width word,
* **terms** — a tagged, length-prefixed encoding of the
  :mod:`repro.rdf.terms` value objects (IRI / BNode / Literal with datatype
  or language tag) that decodes without any parsing or escaping,
* **CRC frames** — ``[u32 length][u32 crc32(payload)][payload]`` records.
  A torn tail, a short write, or a flipped bit makes the frame fail its
  checksum, which is exactly the property crash recovery leans on: the WAL
  reader stops at the first bad frame and everything before it is intact.

The encoding is deliberately dumb — no compression, no string pooling beyond
what dictionary ids already give — because the decoder is on the restart
path and must stay a straight-line loop.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import Tuple

from repro.exceptions import StorageError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    RDF_LANGSTRING,
    Term,
    XSD_STRING,
)

__all__ = [
    "encode_varint",
    "decode_varint",
    "encode_string",
    "decode_string",
    "encode_term",
    "decode_term",
    "encode_frame",
    "iter_frames",
    "iter_frames_file",
    "FRAME_HEADER_SIZE",
    "crc32",
    "fsync_directory",
]


def fsync_directory(directory: str) -> None:
    """fsync a directory so freshly created/renamed entries survive power loss.

    POSIX durability is two-level: fsyncing a file pins its *contents*, but
    the file's directory entry lives in the directory, which must be synced
    separately.  Platforms that cannot open directories (Windows) skip this
    silently — os.replace is atomic there at the API level.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)

_FRAME_HEADER = struct.Struct("<II")

#: Bytes of ``[u32 length][u32 crc32]`` preceding every frame payload.
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Term tags.  Append-only: renumbering breaks every checkpoint on disk.
TAG_IRI = 1
TAG_BNODE = 2
TAG_LITERAL_PLAIN = 3      # xsd:string, the overwhelmingly common literal
TAG_LITERAL_LANG = 4       # language-tagged (rdf:langString)
TAG_LITERAL_TYPED = 5      # any other datatype IRI


def crc32(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Varints and strings
# ---------------------------------------------------------------------------

def encode_varint(buffer: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``buffer``."""
    if value < 0:
        raise StorageError(f"cannot encode negative varint {value}")
    while value > 0x7F:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise StorageError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise StorageError("varint too long")


def encode_string(buffer: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    encode_varint(buffer, len(raw))
    buffer.extend(raw)


def decode_string(data: bytes, offset: int) -> Tuple[str, int]:
    length, offset = decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise StorageError("truncated string")
    return data[offset:end].decode("utf-8"), end


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def encode_term(buffer: bytearray, term: Term) -> None:
    """Append the tagged binary form of an RDF term to ``buffer``."""
    if isinstance(term, IRI):
        buffer.append(TAG_IRI)
        encode_string(buffer, term.value)
        return
    if isinstance(term, BNode):
        buffer.append(TAG_BNODE)
        encode_string(buffer, term.id)
        return
    if isinstance(term, Literal):
        if term.language is not None:
            buffer.append(TAG_LITERAL_LANG)
            encode_string(buffer, term.lexical)
            encode_string(buffer, term.language)
        elif term.datatype == XSD_STRING:
            buffer.append(TAG_LITERAL_PLAIN)
            encode_string(buffer, term.lexical)
        else:
            buffer.append(TAG_LITERAL_TYPED)
            encode_string(buffer, term.lexical)
            encode_string(buffer, term.datatype.value)
        return
    raise StorageError(f"cannot serialise term type {type(term).__name__} "
                       "(variables never reach storage)")


def decode_term(data: bytes, offset: int) -> Tuple[Term, int]:
    """Decode one tagged term at ``offset``; returns ``(term, next_offset)``."""
    if offset >= len(data):
        raise StorageError("truncated term")
    tag = data[offset]
    offset += 1
    if tag == TAG_IRI:
        value, offset = decode_string(data, offset)
        return IRI(value), offset
    if tag == TAG_BNODE:
        value, offset = decode_string(data, offset)
        return BNode(value), offset
    if tag == TAG_LITERAL_PLAIN:
        lexical, offset = decode_string(data, offset)
        return Literal(lexical), offset
    if tag == TAG_LITERAL_LANG:
        lexical, offset = decode_string(data, offset)
        language, offset = decode_string(data, offset)
        return Literal(lexical, language=language), offset
    if tag == TAG_LITERAL_TYPED:
        lexical, offset = decode_string(data, offset)
        datatype, offset = decode_string(data, offset)
        # rdf:langString without a tag cannot be constructed via language=;
        # it also can never be produced by encode_term, so reject it here.
        if datatype == RDF_LANGSTRING.value:
            raise StorageError("typed literal with rdf:langString datatype")
        return Literal(lexical, datatype=IRI(datatype)), offset
    raise StorageError(f"unknown term tag {tag}")


# ---------------------------------------------------------------------------
# CRC frames
# ---------------------------------------------------------------------------

def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` as ``[u32 len][u32 crc32][payload]``."""
    return _FRAME_HEADER.pack(len(payload), crc32(payload)) + payload


def _iter_frames_stream(handle, size: int):
    """Core frame scanner over a binary stream of known ``size``.

    Stops — silently, by design — at the first frame that is truncated
    (header or payload runs past ``size``) or fails its CRC.  That makes a
    torn or corrupted tail indistinguishable from a clean end-of-log, which
    is the contract WAL recovery is built on.  Both public scanners wrap
    this one loop so their stop conditions can never drift apart.
    """
    header_size = _FRAME_HEADER.size
    offset = handle.tell()
    while True:
        start = offset + header_size
        if start > size:
            return
        header = handle.read(header_size)
        if len(header) < header_size:
            return
        payload_len, checksum = _FRAME_HEADER.unpack(header)
        if payload_len == 0:
            # A zero-length frame is never written (every record has at
            # least a kind byte), but an ALL-ZERO header accidentally
            # passes validation because crc32(b"") == 0 — and zero-filled
            # tail blocks are a classic crash artifact on delayed-allocation
            # filesystems.  Classify it as structural tail damage and stop.
            return
        end = start + payload_len
        if end > size:
            return  # short write: the frame never finished hitting the disk
        payload = handle.read(payload_len)
        if len(payload) < payload_len:
            return
        if crc32(payload) != checksum:
            return  # corrupt frame: stop, everything before it is intact
        yield payload, end
        offset = end


def iter_frames(data: bytes):
    """Yield ``(payload, end_offset)`` for every intact frame in ``data``."""
    handle = io.BytesIO(data)
    return _iter_frames_stream(handle, len(data))


def iter_frames_file(handle):
    """Yield ``(payload, end_offset)`` frames read incrementally from a file.

    The streaming twin of :func:`iter_frames`: WAL recovery reads the log
    header-then-payload instead of slurping the whole file, so replay memory
    is bounded by the largest single frame rather than the log size.  A
    frame length pointing past end-of-file is rejected against ``fstat``
    BEFORE the payload read, so a corrupt header cannot demand a
    multi-gigabyte allocation.
    """
    return _iter_frames_stream(handle, os.fstat(handle.fileno()).st_size)
