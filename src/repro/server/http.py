"""A pure-stdlib HTTP/1.1 server for the KGNet service boundary.

:class:`KGNetHTTPServer` owns its listening socket, its accept loop and one
loop per connection; :class:`~repro.server.service.ServiceHandler` decides
everything else.  Accepted sockets queue on a bounded
:class:`~repro.concurrency.WorkerPool` (TCP backlog + pool back-pressure),
and one worker serves one keep-alive connection for its lifetime.

A connection ``recv``\\ s into one ``bytearray``: the head, then the body
from the same buffer (pipelined bytes beyond it stay there); a byte body
goes out with its head in ONE ``sendall``, a streaming body chunked (close-
delimited for HTTP/1.0) in ~16 KB pieces.  No thread watches for hang-ups:
a request's ``cancel_event`` is a :class:`_DisconnectProbe` of its socket.
"""

from __future__ import annotations

import json
import select
import socket
import sys
import threading
import time
import traceback
from http import HTTPStatus
from typing import Dict, List, Optional, Tuple

from repro.concurrency import WorkerPool
from repro.kgnet.api.router import APIRouter
from repro.server.service import ServiceHandler, ServiceRequest, ServiceResponse

__all__ = ["KGNetHTTPServer", "serve"]

#: Streaming fragments are coalesced into chunks of about this many bytes.
STREAM_CHUNK_BYTES = 16 * 1024
#: Default cap on request bodies (see KGNetHTTPServer.max_request_bytes).
MAX_REQUEST_BODY_BYTES = 256 * 1024 * 1024
#: Per-connection idle timeout: a keep-alive client that goes quiet for this
#: long has its connection closed so the worker slot frees up.
CONNECTION_TIMEOUT_SECONDS = 60.0
#: A request's cancel probe looks at its socket at most this often.
DISCONNECT_PROBE_SECONDS = 0.01
#: Head limits, the stdlib's http.client._MAXLINE / _MAXHEADERS: a longer
#: request line is a 414, a longer header line or more headers a 431.
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100

# An unfinished head this long breaks a limit above: it can only be refused.
_MAX_HEAD_BYTES = (MAX_HEADERS + 2) * (MAX_HEADER_LINE + 1)
_RECV_BYTES = 65536
_SERVER = f"KGNetHTTP/1.0 Python/{sys.version.split()[0]}"
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_REJECT_CODES = {400: "BAD_REQUEST", 411: "LENGTH_REQUIRED",
                 413: "PAYLOAD_TOO_LARGE", 414: "URI_TOO_LONG",
                 431: "HEADERS_TOO_LARGE", 505: "HTTP_VERSION_NOT_SUPPORTED"}
_CHUNKED = "Transfer-Encoding: chunked\r\nTrailer: X-KGNet-Stream-Status\r\n\r\n"
_LAST_CHUNK = b"0\r\nX-KGNet-Stream-Status: complete\r\n\r\n"
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _Rejected(Exception):
    """``(status, message)``: a request refused before the service sees it."""


class _DisconnectProbe:
    """The ``cancel_event`` of one request: set once its client is gone.

    ``is_set()`` — asked by the evaluator's checkpoints on whichever thread
    or scheduler lane runs the query — looks at most once per
    :data:`DISCONNECT_PROBE_SECONDS`: a zero-timeout ``poll``, then, only if
    the socket is readable, a one-byte ``MSG_PEEK`` (``b""`` or an error:
    gone; data: a pipelined request, left in place).  The poll comes first
    because CPython waits up to a socket's timeout before *any* ``recv``.
    """

    __slots__ = ("_sock", "_poll", "_next_probe", "gone")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._poll: Optional[select.poll] = None
        self._next_probe = 0.0
        self.gone = False

    def set(self) -> None:
        self.gone = True

    def is_set(self) -> bool:
        if self.gone:
            return True
        now = time.monotonic()
        if now < self._next_probe:
            return False
        self._next_probe = now + DISCONNECT_PROBE_SECONDS
        try:
            if self._poll is None:
                self._poll = select.poll()
                self._poll.register(self._sock, select.POLLIN)
            if self._poll.poll(0):
                self.gone = not self._sock.recv(1, socket.MSG_PEEK)
        except (OSError, ValueError):
            self.gone = True
        return self.gone


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _imf_fixdate(seconds: float) -> str:
    """``seconds`` since the epoch as an HTTP date (RFC 9110 IMF-fixdate),
    with the English names ``strftime`` would localise."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


# Status line, Server and Date, pre-formatted per status per whole second
# (the tuple swap is atomic under the GIL; a race formats one twice).
_prefixes: Tuple[int, Dict[int, str]] = (-1, {})


def _head(status: int, headers: List[Tuple[str, str]]) -> str:
    """Status line and headers, without the terminating blank line."""
    global _prefixes
    now = int(time.time())
    second, by_status = _prefixes
    if second != now:
        by_status = {}
        _prefixes = (now, by_status)
    prefix = by_status.get(status)
    if prefix is None:
        prefix = by_status[status] = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: {_SERVER}\r\nDate: {_imf_fixdate(now)}\r\n")
    return prefix + "".join(f"{name}: {value}\r\n" for name, value in headers)


def _head_end(buffer: bytearray, start: int) -> Tuple[int, int]:
    """(end of the header lines, start of the body), or (-1, -1)."""
    crlf = buffer.find(b"\n\r\n", start)
    bare = buffer.find(b"\n\n", start, crlf + 2 if crlf >= 0 else len(buffer))
    if bare >= 0:
        return bare, bare + 2
    if crlf >= 0:
        return crlf, crlf + 3
    return -1, -1


def _parse_head(lines: List[str]) -> Tuple[str, str, Tuple[int, int], bool,
                                           Dict[str, str]]:
    """(method, target, version, keep_alive, lowercase headers).

    The stdlib parser's rules in its order — 414, then 400 / 505 on the
    request line, then 431 / 400 per header line — with its HTTP/0.9 and
    1.0 close rules and gh-87389 ``//`` collapse.  Repeated names comma-join
    (RFC 9110 §5.2), so conflicting ``Content-Length`` values are refused,
    not smuggled.  An empty request line returns an empty method.
    """
    requestline = lines[0].rstrip("\r")
    if len(lines[0]) >= MAX_HEADER_LINE:
        raise _Rejected(414, "Request line too long")
    words = requestline.split()
    if not words:
        return "", "", (0, 9), False, {}
    version = (0, 9)
    if len(words) >= 3:
        word = words[-1]
        major, dot, minor = word[5:].partition(".")
        if (not word.startswith("HTTP/") or not dot or not major.isdecimal()
                or not minor.isdecimal() or len(major) > 10 or len(minor) > 10):
            raise _Rejected(400, f"Bad request version ({word!r})")
        version = (int(major), int(minor))
        if version >= (2, 0):
            raise _Rejected(505, f"Invalid HTTP version ({word[5:]})")
    if not 2 <= len(words) <= 3:
        raise _Rejected(400, f"Bad request syntax ({requestline!r})")
    method, target = words[:2]
    if len(words) == 2 and method != "GET":
        raise _Rejected(400, f"Bad HTTP/0.9 request type ({method!r})")
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    headers: Dict[str, str] = {}
    last: Optional[str] = None
    for count, line in enumerate(lines[1:], 1):
        if len(line) >= MAX_HEADER_LINE:
            raise _Rejected(431, "Header line too long")
        if count > MAX_HEADERS:
            raise _Rejected(431, f"Too many headers (> {MAX_HEADERS})")
        line = line.rstrip("\r")
        if line[:1] in (" ", "\t"):  # obsolete folding: one space (RFC 9112)
            if last is not None:
                headers[last] += " " + line.strip()
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise _Rejected(400, f"Malformed header line ({line!r})")
        last = name.lower()
        value = value.strip()
        headers[last] = headers[last] + ", " + value if last in headers else value
    keep_alive = version >= (1, 1)
    connection = headers.get("connection", "").lower()
    if connection == "close":
        keep_alive = False
    elif connection == "keep-alive":
        keep_alive = True
    return method, target, version, keep_alive, headers


def _reject(sock: socket.socket, refusal: _Rejected, head_only: bool) -> None:
    """Answer ``HTTP/1.1 <status>`` with the JSON error envelope.  The body
    was never read, so the caller closes rather than parse it as the *next*
    request."""
    status, message = refusal.args
    body = json.dumps({"ok": False, "error": {
        "code": _REJECT_CODES[status], "message": message}}).encode("utf-8")
    head = _head(status, [("Content-Type", "application/json; charset=utf-8"),
                          ("Content-Length", str(len(body))),
                          ("Connection", "close")]) + "\r\n"
    # RFC 9110 §9.3.2: a HEAD response carries a GET's headers, no body.
    sock.sendall(head.encode("latin-1") + (b"" if head_only else body))


def _discard(response: ServiceResponse) -> None:
    """Close a streaming body that will not be sent."""
    close = getattr(response.body, "close", None)
    if close is not None:
        close()


def _respond(sock: socket.socket, response: ServiceResponse, head_only: bool,
             chunked: bool) -> bool:
    """Write ``response``; False when the connection must close after it.
    A streaming body is never materialised, not even for HEAD or HTTP/1.0."""
    head = _head(response.status, response.headers)
    if not response.is_streaming:
        body = response.body
        head += f"Content-Length: {len(body)}\r\n\r\n"
        sock.sendall(head.encode("latin-1") + (b"" if head_only else body))
        return True
    if head_only:  # no length, no chunking: no body is expected, keep-alive
        _discard(response)
        sock.sendall((head + "\r\n").encode("latin-1"))
        return True
    if not chunked:  # before HTTP/1.1: a close-delimited stream
        _stream(sock, response, head + "Connection: close\r\n\r\n", False)
        return False
    _stream(sock, response, head + _CHUNKED, True)
    return response.stream_error is None


def _stream(sock: socket.socket, response: ServiceResponse, head: str,
            chunked: bool) -> None:
    """Send ``head`` and the body in ~16 KB chunks, the head riding on the
    first and the terminator on the last (a small result: one ``sendall``).

    A producer fault becomes ``stream_error``, never a traceback.  A cut
    chunked body lacks the terminal chunk and its connection closes, which
    every client reads as incomplete (IncompleteRead, curl error 18); a
    complete one ends with a trailer clients can assert positively.
    """
    def frame(piece: bytearray) -> bytes:
        return b"%x\r\n%s\r\n" % (len(piece), piece) if chunked else bytes(piece)

    out, piece = head.encode("latin-1"), bytearray()
    fragments = iter(response.body)  # type: ignore[arg-type]
    while True:
        try:
            piece += next(fragments)
        except StopIteration:
            break
        except Exception as exc:  # noqa: BLE001 — cut, never traceback
            response.stream_error = response.stream_error or exc
            break
        if len(piece) >= STREAM_CHUNK_BYTES:
            sock.sendall(out + frame(piece))
            out = b""
            piece.clear()
    if piece:
        out += frame(piece)
    if chunked and response.stream_error is None:
        out += _LAST_CHUNK
    sock.sendall(out)


def _close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass
    sock.close()


class KGNetHTTPServer:
    """The platform's HTTP front door, worker-pool threaded.

    Construct it over an :class:`~repro.kgnet.api.router.APIRouter`, then :meth:`start` a background accept
    thread (``with server.start(): ...``) or own one with
    :meth:`serve_forever`.  Port 0 binds an ephemeral port: see
    :attr:`base_url`.
    """

    def __init__(self, address: Tuple[str, int], router: APIRouter,
                 max_workers: int = 8,
                 connection_timeout: float = CONNECTION_TIMEOUT_SECONDS) -> None:
        self.service = ServiceHandler(router)
        #: Read/write timeout per connection: a slowloris sender or a
        #: reader that stops draining a stream frees its worker slot.
        self.connection_timeout = connection_timeout
        #: Largest request body before a 413 (bulk loads carry whole KGs).
        self.max_request_bytes = MAX_REQUEST_BODY_BYTES
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = False
        # Bind BEFORE spawning workers: a failed bind (port in use) raises
        # out of the constructor, where stop() can never run.
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind(address)
            self.socket.listen(64)  # where connections wait on a busy pool
        except BaseException:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._pool = WorkerPool(max_workers=max_workers,
                                max_pending=4 * max_workers,
                                name="kgnet-http")

    def _hand_off(self, sock: socket.socket) -> None:
        """Queue a connection on the pool in bounded waits: a full queue
        stalls the accept loop but never wedges it past :meth:`stop`."""
        while not self._stopping:
            try:
                if self._pool.try_submit(self._serve_connection, sock,
                                         timeout=0.5) is not None:
                    return
            except RuntimeError:
                break  # pool already shut down: the server is stopping
        _close(sock)

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(self.connection_timeout)
            # Without it a stream's second write can wait ~40ms for the
            # peer's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buffer = bytearray()
            while self._exchange(sock, buffer):
                pass
        except OSError:
            pass  # reset, broken pipe, or stalled past the timeout: routine
        except Exception:  # noqa: BLE001 — a broken exchange is not fatal
            traceback.print_exc()
        finally:
            _close(sock)

    def _exchange(self, sock: socket.socket, buffer: bytearray) -> bool:
        """Serve one request; True when the connection stays open."""
        request = self._read_request(sock, buffer)
        if request is None:
            return False  # EOF, an empty request line, or refused
        method, target, version, keep_alive, headers, body = request
        probe = _DisconnectProbe(sock)
        response = self.service.handle(
            ServiceRequest(method, target, headers, body, probe))
        if probe.gone:  # don't write into a dead socket
            _discard(response)
            return False
        return _respond(sock, response, method == "HEAD",
                        version >= (1, 1)) and keep_alive

    def _read_request(self, sock: socket.socket, buffer: bytearray):
        """(method, target, version, keep_alive, headers, body), or None
        after EOF or a refusal; bytes past the body stay in ``buffer``."""
        start = 0
        while True:
            end, body_start = _head_end(buffer, start)
            if end >= 0:
                break
            if len(buffer) > MAX_HEADER_LINE and (
                    len(buffer) - buffer.rfind(b"\n") > MAX_HEADER_LINE
                    or len(buffer) > _MAX_HEAD_BYTES):
                # The head can no longer be accepted: refuse it now, by the
                # parser's own rules, instead of buffering it further.
                text = buffer.decode("latin-1")
                try:
                    _parse_head(text.split("\n"))
                    raise _Rejected(431, f"Too many headers (> {MAX_HEADERS})")
                except _Rejected as refusal:
                    _reject(sock, refusal, text[:5] == "HEAD ")
                    return None
            start = max(0, len(buffer) - 2)
            data = sock.recv(_RECV_BYTES)
            if not data:
                return None
            buffer += data
        text = buffer[:end].decode("latin-1")
        del buffer[:body_start]
        try:
            method, target, version, keep_alive, headers = _parse_head(
                text.split("\n"))
            if not method:
                return None
            length = self._body_length(headers)
        except _Rejected as refusal:
            _reject(sock, refusal, text[:5] == "HEAD ")
            return None
        if (len(buffer) < length and version >= (1, 1)
                and headers.get("expect", "").lower() == "100-continue"):
            sock.sendall(_CONTINUE)
        while len(buffer) < length:
            data = sock.recv(_RECV_BYTES)
            if not data:
                return None
            buffer += data
        body = bytes(buffer[:length]) if length else b""
        del buffer[:length]
        return method, target, version, keep_alive, headers, body

    def _body_length(self, headers: Dict[str, str]) -> int:
        """The declared body length; refuses chunked (411), unreadable or
        negative (400) and oversized (413) bodies before reading a byte."""
        if "chunked" in headers.get("transfer-encoding", "").lower():
            # Read as empty, its bytes would be parsed as the next request.
            raise _Rejected(411, "chunked request bodies are not supported; "
                            "send Content-Length")
        length_header = headers.get("content-length")
        try:
            length = int(length_header) if length_header else 0
        except ValueError:
            raise _Rejected(400, f"unreadable Content-Length {length_header!r}")
        if length < 0:
            # Its declared body would be parsed as the next request.
            raise _Rejected(400, f"invalid negative Content-Length {length}")
        if length > self.max_request_bytes:
            raise _Rejected(413, f"request body of {length} bytes exceeds "
                            f"the server limit of {self.max_request_bytes}")
        return length

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        host = str(host)
        if host in ("0.0.0.0", "::", ""):
            # A wildcard bind is not connectable: hand out loopback.
            host = "127.0.0.1"
        if ":" in host:  # IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop`, which shuts the listener
        down to wake ``accept``; a 0.5 s accept timeout is the fallback."""
        self.socket.settimeout(0.5)
        while not self._stopping:
            try:
                sock, _ = self.socket.accept()
            except OSError:
                continue  # a timeout, an aborted handshake, or stop()
            self._hand_off(sock)

    def start(self) -> "KGNetHTTPServer":
        """Serve from a background daemon thread; returns self."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self.serve_forever, name="kgnet-http-accept",
                daemon=True)
            self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener, release the pool (safe on a
        server never started; open connections' daemon threads live on)."""
        self._stopping = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        self.socket.close()
        # cancel_pending: a full queue must not hold the stop sentinels back,
        # and the drained tasks' accepted sockets must not leak.
        for _, args, _ in self._pool.shutdown(wait=False, cancel_pending=True):
            _close(args[0])

    def __enter__(self) -> "KGNetHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()


def serve(router: APIRouter, host: str = "127.0.0.1", port: int = 0,
          max_workers: int = 8,
          connection_timeout: float = CONNECTION_TIMEOUT_SECONDS) -> KGNetHTTPServer:
    """Build and :meth:`~KGNetHTTPServer.start` a server over ``router``; the
    caller owns ``stop()``.  ``port=0`` picks a free port (see ``base_url``)."""
    return KGNetHTTPServer((host, port), router=router,
                           max_workers=max_workers,
                           connection_timeout=connection_timeout).start()
