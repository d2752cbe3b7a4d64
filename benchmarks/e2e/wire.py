"""The wire side: server child lifecycle, the closed loop, answer digests.

The generator speaks HTTP only, over plain sockets: the SPARQL 1.1 Protocol
on ``/sparql`` and JSON envelopes on ``/kgnet/v1/<op>``.  Closed
loop because SPARQL clients wait for their reply: each of the
``min(2, nproc)`` keep-alive connections sends its next request only after
the previous answer has been read and checked.  No sleeps, no modelled RTT.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from oplists import Op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
HOST = "127.0.0.1"
#: Socket timeout of every request: a wedged server fails ops, never hangs.
REQUEST_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 150.0
HEALTH = Op(cls="health", route="query", method="GET", target="/health")


def connection_count() -> int:
    return min(2, os.cpu_count() or 1)


class ServerDied(RuntimeError):
    """The server child exited (or never became healthy)."""


class ServerProcess:
    """One ``server_child.py`` process serving one fixture.

    ``setup_s`` is spawn -> first 200 on ``/health``: the whole fixture from
    nothing (generate, load, checkpoint/train where the spec says so).
    """

    def __init__(self, spec: Dict[str, object],
                 storage_dir: Optional[str] = None) -> None:
        self.spec = spec
        self.storage_dir = storage_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + HERE
        # MorsE training iterates sets of strings: without a pinned hash seed
        # the link-prediction model (and so hits@10) differs per process.
        env["PYTHONHASHSEED"] = "0"
        argv = [sys.executable, os.path.join(HERE, "server_child.py"),
                json.dumps(self.spec)]
        if self.storage_dir is not None:
            argv.append(self.storage_dir)
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            self.port = self._await_ready(started)
            self._await_health(started)
        except BaseException:
            self.stop(kill=True)
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _await_ready(self, started: float) -> int:
        lines: "queue.Queue[bytes]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(self.proc.stdout.readline()), daemon=True)
        reader.start()
        while True:
            try:
                line = lines.get(timeout=0.05)
                break
            except queue.Empty:
                if time.perf_counter() - started > SETUP_TIMEOUT_S:
                    raise ServerDied("server child did not come up in time")
        words = line.split()
        if len(words) != 2 or words[0] != b"READY":
            raise ServerDied(f"server child exited during set-up "
                             f"(code {self.proc.poll()})")
        return int(words[1])

    def _await_health(self, started: float) -> None:
        while time.perf_counter() - started < SETUP_TIMEOUT_S:
            if not self.alive():
                raise ServerDied("server child died before /health answered")
            conn = Connection(self.port)
            status, _body = conn.send(HEALTH)
            conn.close()
            if status == 200:
                return
            time.sleep(0.01)
        raise ServerDied("/health never answered 200")

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``), read while it lives."""
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except (OSError, ValueError, IndexError):
            pass
        return 0.0

    def stop(self, kill: bool = False) -> None:
        """End the child and wait for it.  ``kill`` is ``kill -9``: no
        shutdown code runs, the storage directory is left as a crash leaves it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if kill:
                proc.send_signal(signal.SIGKILL)
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class Connection:
    """One keep-alive HTTP/1.1 connection over a plain socket.

    Not ``http.client``: measured on ``lookup_hot``, ``http.client`` spent
    0.79 of a core in the generator to keep the server at 0.61 of one -- the
    load generator was the bottleneck and a faster server could not show.
    Requests are pre-encoded (:attr:`Op.request`), and a response is read by
    the two framings the server uses, ``Content-Length`` and chunked.  That
    leaves the generator at ~0.2 of a core with the server above 0.9.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def send(self, op: Op) -> Tuple[int, bytes]:
        """(status, body); status 0 is a transport error (and a reconnect)."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (HOST, self.port), timeout=REQUEST_TIMEOUT_S)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._buffer = b""
            self._sock.sendall(op.request)
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            return 0, b""

    def _more(self) -> bytes:
        data = self._sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection mid-response")
        return data

    def _read_response(self) -> Tuple[int, bytes]:
        buffer = self._buffer
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            buffer += self._more()
        head, rest = buffer[:end].lower(), buffer[end + 4:]
        status = int(head[9:12])
        at = head.find(b"\r\ncontent-length:")
        if at >= 0:
            stop = head.find(b"\r\n", at + 2)
            length = int(head[at + 17:stop if stop >= 0 else len(head)])
            while len(rest) < length:
                rest += self._more()
            self._buffer = rest[length:]
            return status, rest[:length]
        if b"chunked" not in head:
            raise ValueError("response is neither length-framed nor chunked")
        chunks = []
        while True:
            while (line := rest.find(b"\r\n")) < 0:
                rest += self._more()
            size = int(rest[:line].split(b";")[0], 16)
            if size == 0:
                break
            while len(rest) < line + 2 + size + 2:
                rest += self._more()
            chunks.append(rest[line + 2:line + 2 + size])
            rest = rest[line + 2 + size + 2:]
        # The last chunk is followed by trailer lines (the server announces
        # X-KGNet-Stream-Status) and one empty line.
        rest = rest[line:]
        while (end := rest.find(b"\r\n\r\n")) < 0:
            rest += self._more()
        self._buffer = rest[end + 4:]
        return status, b"".join(chunks)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


#: (class, latency in ms, answered correctly, seconds into the window at which
#: the answer had been read)
Sample = Tuple[str, float, bool, float]
Checker = Callable[[int, Op, int, bytes], bool]


def closed_loop(server: ServerProcess, sequences: Sequence[Iterator[Op]],
                seconds: float, check: Checker) -> Tuple[List[Sample], float]:
    """Drive one sequence per connection for ``seconds``; returns the samples
    and the window actually measured (start -> last answer).

    ``check(conn, op, status, body)`` runs after the latency is taken, so
    checking costs offered load, never a latency sample.  If the server dies
    the in-flight ops fail and the loop ends instead of spinning on refusals.
    """
    barrier = threading.Barrier(len(sequences) + 1)
    per_conn: List[List[Sample]] = [[] for _ in sequences]
    ends = [0.0] * len(sequences)
    window = {"started": 0.0, "deadline": 0.0}

    def drive(index: int, sequence: Iterator[Op]) -> None:
        conn = Connection(server.port)
        samples = per_conn[index]
        clock = time.perf_counter
        barrier.wait()
        started, deadline = window["started"], window["deadline"]
        try:
            while True:
                began = clock()
                if began >= deadline:
                    break                  # before taking an op: none is skipped
                op = next(sequence)
                status, body = conn.send(op)
                done = clock()
                ok = status == 200 and check(index, op, status, body)
                samples.append((op.cls, (done - began) * 1e3, ok, done - started))
                if status == 0 and not server.alive():
                    break
        finally:
            ends[index] = clock()
            conn.close()

    threads = [threading.Thread(target=drive, args=(i, seq), daemon=True)
               for i, seq in enumerate(sequences)]
    for thread in threads:
        thread.start()
    started = window["started"] = time.perf_counter()
    window["deadline"] = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    samples = [s for conn_samples in per_conn for s in conn_samples]
    return samples, max(max(ends) - started, 1e-9)


# ---------------------------------------------------------------------------
# Answer digests: one canonical form for wire answers and twin answers
# ---------------------------------------------------------------------------

def body_digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


def rows_digest(rows: List[str]) -> str:
    """Order-insensitive, multiplicity-preserving digest of canonical rows."""
    digest = hashlib.sha256()
    for row in sorted(rows):
        digest.update(row.encode("utf-8"))
        digest.update(b"\x1e")
    return f"{len(rows)}:{digest.hexdigest()[:24]}"


def sparql_json_rows(body: bytes) -> List[str]:
    """Canonical rows of a SPARQL 1.1 JSON results document.

    Raises ``ValueError``/``KeyError``/``TypeError`` when the document is not
    well formed; the caller counts that as a failed op.
    """
    document = json.loads(body)
    if "boolean" in document:
        return [f"boolean={bool(document['boolean'])}"]
    rows = []
    for binding in document["results"]["bindings"]:
        rows.append("\x1f".join(
            f"{name}={cell['type']}|{cell['value']}|"
            f"{cell.get('datatype', '')}|{cell.get('xml:lang', '')}"
            for name, cell in sorted(binding.items())))
    return rows


def envelope_result(body: bytes) -> Dict[str, object]:
    """The ``result`` of an ok ``kgnet/v1`` response envelope."""
    document = json.loads(body)
    if not document.get("ok") or not isinstance(document.get("result"), dict):
        raise ValueError("response envelope is not ok")
    return document["result"]


def report_rows(result: Dict[str, object]) -> List[str]:
    """Canonical rows of a SPARQL-ML ``SELECT_REPORT`` result."""
    return [json.dumps(row, sort_keys=True) for row in result["rows"]]
