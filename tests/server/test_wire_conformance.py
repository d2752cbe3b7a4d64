"""Wire conformance of the owned connection loop, over raw sockets.

:class:`~repro.server.http.KGNetHTTPServer` reads each connection into one
buffer and parses heads itself, so the framing corners a stock HTTP stack
used to cover are pinned here byte for byte: pipelining, dribbled and
split requests, bare-LF line endings, HTTP/1.0 close-delimited streams,
HEAD of a stream, and keep-alive across error answers.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, Tuple
from urllib.parse import quote

import pytest

from repro.kgnet import KGNet
from repro.rdf import IRI, Literal, Triple
from repro.server import serve
from repro.sparql.results.serialize import MEDIA_JSON

EX = "http://example.org/wire/"
ROWS = 300
SELECT = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
SELECT_TARGET = "/sparql?query=" + quote(SELECT, safe="")


@pytest.fixture()
def server():
    platform = KGNet()
    platform.load_graph([
        Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p"),
               Literal(f"row {i} padded out to make the body span chunks"))
        for i in range(ROWS)])
    running = serve(platform.api)
    try:
        yield running
    finally:
        running.stop()


class Wire:
    """One raw client connection that reads responses by their framing."""

    def __init__(self, server) -> None:
        self.sock = socket.create_connection(server.server_address[:2],
                                             timeout=30)
        self.buffer = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _more(self) -> bytes:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        return data

    def _until(self, marker: bytes) -> bytes:
        while marker not in self.buffer:
            self.buffer += self._more()
        found, _, self.buffer = self.buffer.partition(marker)
        return found

    def _take(self, size: int) -> bytes:
        while len(self.buffer) < size:
            self.buffer += self._more()
        taken, self.buffer = self.buffer[:size], self.buffer[size:]
        return taken

    def response(self, head_only: bool = False
                 ) -> Tuple[int, Dict[str, str], bytes]:
        """(status, lowercase headers, body) of the next response."""
        status_line, *lines = self._until(b"\r\n\r\n").decode(
            "latin-1").split("\r\n")
        assert status_line.startswith("HTTP/1.1 "), status_line
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        status = int(status_line.split()[1])
        if head_only:
            return status, headers, b""
        if "content-length" in headers:
            return status, headers, self._take(int(headers["content-length"]))
        if headers.get("transfer-encoding") == "chunked":
            body = b""
            while True:
                size = int(self._until(b"\r\n"), 16)
                if size == 0:
                    trailer = self._until(b"\r\n\r\n")
                    assert trailer == b"X-KGNet-Stream-Status: complete"
                    return status, headers, body
                body += self._take(size)
                assert self._take(2) == b"\r\n"
        # Close-delimited.
        while True:
            data = self.sock.recv(65536)
            if not data:
                body, self.buffer = self.buffer, b""
                return status, headers, body
            self.buffer += data

    def close(self) -> None:
        self.sock.close()


def get(target: str, *headers: str, method: str = "GET",
        version: str = "HTTP/1.1") -> bytes:
    lines = [f"{method} {target} {version}", "Host: x", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def bindings(body: bytes) -> int:
    return len(json.loads(body)["results"]["bindings"])


class TestFraming:
    def test_two_pipelined_gets_are_answered_in_order(self, server):
        wire = Wire(server)
        try:
            wire.send(get("/health") + get("/nope"))
            first = wire.response()
            second = wire.response()
            assert first[0] == 200
            assert json.loads(first[2])["service"] == "kgnet"
            assert second[0] == 404
            assert json.loads(second[2])["error"]["code"] == "NOT_FOUND"
        finally:
            wire.close()

    def test_request_dribbled_one_byte_at_a_time(self, server):
        wire = Wire(server)
        try:
            wire.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in get("/health"):
                wire.send(bytes([byte]))
                time.sleep(0.001)
            status, _, body = wire.response()
            assert status == 200
            assert json.loads(body)["service"] == "kgnet"
        finally:
            wire.close()

    def test_bare_lf_line_endings(self, server):
        wire = Wire(server)
        try:
            wire.send(b"GET /health HTTP/1.1\nHost: x\n\n"
                      b"GET /health HTTP/1.1\nHost: x\n\n")
            assert wire.response()[0] == 200
            assert wire.response()[0] == 200
        finally:
            wire.close()

    def test_post_body_split_across_sends(self, server):
        wire = Wire(server)
        body = json.dumps({"query": SELECT}).encode("utf-8")
        try:
            wire.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            wire.send(get("/kgnet/v1/sparql", "Content-Type: application/json",
                          f"Content-Length: {len(body)}", method="POST")
                      + body[:7])
            time.sleep(0.05)
            wire.send(body[7:20])
            time.sleep(0.05)
            wire.send(body[20:] + get("/health"))
            status, _, answer = wire.response()
            assert status == 200
            assert json.loads(answer)["result"]["total_rows"] == ROWS
            # The bytes after the body are the next request, not body.
            assert wire.response()[0] == 200
        finally:
            wire.close()


class TestStreams:
    def test_http10_streamed_select_is_close_delimited_and_complete(
            self, server):
        wire = Wire(server)
        try:
            wire.send(get(SELECT_TARGET, f"Accept: {MEDIA_JSON}",
                          "Cache-Control: no-store", version="HTTP/1.0"))
            status, headers, body = wire.response()
            assert status == 200
            assert "transfer-encoding" not in headers
            assert "content-length" not in headers
            assert headers["connection"] == "close"
            assert bindings(body) == ROWS
        finally:
            wire.close()

    def test_head_of_streamed_select_is_headers_only_and_reusable(
            self, server):
        wire = Wire(server)
        try:
            wire.send(get(SELECT_TARGET, f"Accept: {MEDIA_JSON}",
                          "Cache-Control: no-store", method="HEAD"))
            status, headers, _ = wire.response(head_only=True)
            assert status == 200
            assert headers["content-type"].startswith(MEDIA_JSON)
            assert "transfer-encoding" not in headers
            assert "content-length" not in headers
            # No body bytes followed the head: the next answer on the same
            # connection starts right where the head ended.
            wire.send(get(SELECT_TARGET, f"Accept: {MEDIA_JSON}",
                          "Cache-Control: no-store"))
            status, headers, body = wire.response()
            assert status == 200
            assert headers["transfer-encoding"] == "chunked"
            assert bindings(body) == ROWS
        finally:
            wire.close()


class TestKeepAlive:
    def test_connection_is_reused_after_404_and_415(self, server):
        wire = Wire(server)
        try:
            wire.send(get("/nope"))
            assert wire.response()[0] == 404
            wire.send(get("/sparql", "Content-Type: text/plain",
                          "Content-Length: 1", method="POST") + b"x")
            status, _, body = wire.response()
            assert status == 415
            assert json.loads(body)["error"]["code"] == \
                "UNSUPPORTED_MEDIA_TYPE"
            wire.send(get(SELECT_TARGET, f"Accept: {MEDIA_JSON}"))
            status, _, body = wire.response()
            assert status == 200 and bindings(body) == ROWS
        finally:
            wire.close()
