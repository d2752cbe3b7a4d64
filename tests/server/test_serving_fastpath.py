"""The serving fast path: streamed-failure contract, result cache, parser.

Everything the "make HTTP serving actually fast" PR promises, observed the
way a client would observe it:

* **Streamed-failure contract** — a ``timeout=`` that fires *after* rows
  started flowing produces an incomplete-but-terminated chunked body (no
  terminal chunk, connection closed): ``http.client`` raises
  ``IncompleteRead``, :class:`~repro.server.RemoteClient` raises the typed
  :class:`~repro.exceptions.ResultStreamCut` (salvageable with
  ``partial_ok``), the route metrics count the cut, and the handler never
  tracebacks.  Clean completions carry the ``X-KGNet-Stream-Status:
  complete`` trailer so the two outcomes are positively distinguishable.
* **Result cache** — repeat queries are served from pre-encoded bytes
  (``X-KGNet-Result-Cache: hit``), an update invalidates a body when it
  touches a triple pattern the query reads (and leaves it a hit otherwise;
  ``tests/sparql/test_result_cache_revalidation.py`` has the rules),
  ``Cache-Control: no-store`` opts out, and the counters surface in stats.
* **Fast request parsing** — the hand-rolled header parser stays
  conformant: malformed request lines, bad versions, header-limit abuse
  and folded/duplicated/case-odd headers all answer exactly like the stock
  parser would.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from urllib.parse import quote

import pytest

from repro.exceptions import QueryTimeout, ResultStreamCut
from repro.kgnet import KGNet
from repro.rdf import IRI, Literal, Triple
from repro.server import KGNetHTTPServer, RemoteClient, serve
from repro.server.http import DISCONNECT_PROBE_SECONDS, _DisconnectProbe
from repro.sparql.results.serialize import MEDIA_JSON

EX = "http://example.org/fastpath/"
#: Streams rows immediately, then runs effectively forever over
#: :data:`CUT_TRIPLES`: the deadline is guaranteed to fire mid-body, after
#: the 200 header went out.
CROSS_PRODUCT = "SELECT ?a ?d WHERE { ?a ?b ?c . ?d ?e ?f }"
SCAN = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
#: 16M cross-product rows, ~15 s of streaming on one core: a deadline of a
#: few tenths of a second cuts it however fast the writer is (the default
#: 500 triples' 250,000 rows drain in ~0.25 s).
CUT_TRIPLES = 4_000


def build_platform(triples: int = 500) -> KGNet:
    platform = KGNet(max_query_timeout=30.0)
    platform.load_graph([
        Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{i % 5}"),
               Literal(f"value {i} with some padding for realistic rows"))
        for i in range(triples)
    ])
    return platform


def serving(triples: int):
    platform = build_platform(triples)
    server = serve(platform.api)
    try:
        yield platform, server
    finally:
        server.stop()


@pytest.fixture()
def served():
    yield from serving(500)


@pytest.fixture()
def served_to_cut():
    yield from serving(CUT_TRIPLES)


def raw_exchange(server, payload: bytes, read_timeout: float = 30.0) -> bytes:
    """Send raw bytes, read until EOF; returns everything the server sent."""
    sock = socket.create_connection(server.server_address[:2],
                                    timeout=read_timeout)
    try:
        sock.sendall(payload)
        received = bytearray()
        while True:
            block = sock.recv(65536)
            if not block:
                return bytes(received)
            received += block
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# Streamed-failure contract over real sockets
# ---------------------------------------------------------------------------


class TestStreamCut:
    def test_mid_stream_timeout_is_incomplete_but_terminated(self,
                                                             served_to_cut,
                                                             capfd):
        platform, server = served_to_cut
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            connection.request(
                "GET",
                "/sparql?query=" + quote(CROSS_PRODUCT, safe="")
                + "&timeout=0.3",
                headers={"Accept": MEDIA_JSON})
            response = connection.getresponse()
            # Rows were already flowing when the deadline fired: the status
            # is a committed 200 with chunked framing...
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            # ...and the stock client detects the truncation as a framing
            # violation, NOT as a silently complete body.
            with pytest.raises(http.client.IncompleteRead) as info:
                response.read()
            assert len(info.value.partial) > 0
        finally:
            connection.close()
        metrics = platform.api_metrics()["sparql"]
        assert metrics["streams_cut"] == 1
        assert metrics["queries_timed_out"] == 1
        # The call itself succeeded (200 went out): cuts are accounted
        # separately, never as dispatch errors.
        assert metrics["errors"] == 0
        # Zero handler tracebacks: nothing may leak to stderr.
        captured = capfd.readouterr()
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_complete_stream_carries_positive_terminal_trailer(self, served):
        _, server = served
        target = "/sparql?query=" + quote(SCAN, safe="")
        raw = raw_exchange(server, (
            f"GET {target} HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Accept: {MEDIA_JSON}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n").encode("ascii"))
        header_block, _, body = raw.partition(b"\r\n\r\n")
        assert b" 200 " in header_block.split(b"\r\n", 1)[0]
        assert b"Transfer-Encoding: chunked" in header_block
        # The trailer is declared up front and sent as the terminal chunk:
        # completeness is positively assertable, not just "no error seen".
        assert b"Trailer: X-KGNet-Stream-Status" in header_block
        assert body.endswith(b"0\r\nX-KGNet-Stream-Status: complete\r\n\r\n")

    def test_remote_client_raises_typed_cut_and_salvages_partial(
            self, served_to_cut):
        _, server = served_to_cut
        client = RemoteClient(server.base_url)
        try:
            with pytest.raises(ResultStreamCut) as info:
                client.protocol_select(CROSS_PRODUCT, timeout=0.3)
            assert info.value.partial_body
            # partial_ok=True recovers every complete row from the torn
            # body: well-formed JSON binding objects, no parse errors.
            rows = client.protocol_select(CROSS_PRODUCT, timeout=0.3,
                                          partial_ok=True)
            assert rows
            for row in rows[:50]:
                assert set(row) <= {"a", "d"}
                for binding in row.values():
                    assert binding["type"] == "uri"
        finally:
            client.close()

    def test_interruption_before_first_row_stays_a_typed_504(self, served):
        # The contract has two halves: interruptions BEFORE any output must
        # keep the typed error envelope (this), only mid-body ones cut.
        _, server = served
        client = RemoteClient(server.base_url)
        try:
            with pytest.raises(QueryTimeout):
                # timeout=0 expires before evaluation can emit anything.
                client.protocol_select(CROSS_PRODUCT, timeout=0.000001)
        finally:
            client.close()

    @pytest.mark.parametrize("query", [SCAN, CROSS_PRODUCT],
                             ids=["wide-scan", "cross-product"])
    def test_batched_stream_is_cut_within_twice_the_deadline(self, query):
        # Rows leave the evaluator in batches of up to 256, one fragment
        # per batch; every batch boundary is still a checkpoint, so a slow
        # reader cannot carry a query far past its deadline.
        from repro.server.service import ServiceHandler, ServiceRequest
        platform = build_platform(triples=20_000)
        handler = ServiceHandler(platform.api)
        deadline = 0.4
        started = time.perf_counter()
        response = handler.handle(ServiceRequest(
            method="GET",
            target=f"/sparql?query={quote(query, safe='')}&timeout={deadline}",
            headers={"accept": MEDIA_JSON, "cache-control": "no-store"}))
        assert response.status == 200 and response.is_streaming
        fragments = 0
        for fragment in response.body:
            assert fragment.count(b"}},{") < 256          # at most one batch
            fragments += 1
            time.sleep(0.01)                              # a slow socket
        elapsed = time.perf_counter() - started
        error = response.stream_error
        assert isinstance(error, QueryTimeout)
        assert error.work_units > 0 and error.rows_emitted > 0
        assert fragments > 2
        assert deadline <= elapsed < 2 * deadline
        metrics = platform.api_metrics()["sparql"]
        assert metrics["streams_cut"] == 1
        assert metrics["queries_timed_out"] == 1

    def test_cancel_mid_stream_cuts_and_records(self, served):
        # Service-level: a disconnect-driven cancel event firing mid-body
        # follows the same contract as a deadline.
        from repro.server.service import ServiceHandler, ServiceRequest
        platform, _ = served
        handler = ServiceHandler(platform.api)
        cancel = threading.Event()
        request = ServiceRequest(
            method="GET",
            target="/sparql?query=" + quote(CROSS_PRODUCT, safe=""),
            headers={"accept": MEDIA_JSON},
            cancel_event=cancel)
        response = handler.handle(request)
        assert response.status == 200
        assert response.is_streaming
        drained = 0
        for fragment in response.body:
            drained += len(fragment)
            if drained > 10_000:
                cancel.set()
        # The iterator ENDED instead of raising; the cut is on the response.
        assert response.stream_error is not None
        metrics = platform.api_metrics()["sparql"]
        assert metrics["streams_cut"] == 1
        assert metrics["queries_cancelled"] == 1


# ---------------------------------------------------------------------------
# Result cache behaviour over the wire
# ---------------------------------------------------------------------------


class TestResultCache:
    HOT = f"SELECT ?s WHERE {{ ?s <{EX}p1> ?o }}"

    def test_repeat_query_hits_and_bodies_match(self, served):
        platform, server = served
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            bodies, cache_headers = [], []
            for _ in range(3):
                connection.request(
                    "GET", "/sparql?query=" + quote(self.HOT, safe=""),
                    headers={"Accept": MEDIA_JSON})
                response = connection.getresponse()
                assert response.status == 200
                cache_headers.append(
                    response.getheader("X-KGNet-Result-Cache"))
                bodies.append(response.read())
        finally:
            connection.close()
        assert cache_headers == [None, "hit", "hit"]
        assert bodies[0] == bodies[1] == bodies[2]
        stats = platform.api.endpoint.result_cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] >= 1

    def test_update_invalidates_by_epoch(self, served):
        platform, server = served
        client = RemoteClient(server.base_url)
        try:
            before = client.protocol_select(self.HOT)
            assert client.protocol_select(self.HOT) == before  # cached hit
            client.protocol_update(
                f"INSERT DATA {{ <{EX}fresh> <{EX}p1> <{EX}o> }}")
            after = client.protocol_select(self.HOT)
            # Freshness beats the cache: the new row is visible immediately.
            assert len(after) == len(before) + 1
            assert f"{EX}fresh" in {row["s"]["value"] for row in after}
        finally:
            client.close()
        stats = platform.api.endpoint.result_cache.stats()
        assert stats["invalidations"] >= 1

    def test_no_store_bypasses_the_cache(self, served):
        platform, server = served
        client = RemoteClient(server.base_url)
        try:
            no_store = {"Cache-Control": "no-store"}
            client.protocol_select(self.HOT, extra_headers=no_store)
            client.protocol_select(self.HOT, extra_headers=no_store)
        finally:
            client.close()
        stats = platform.api.endpoint.result_cache.stats()
        assert stats["hits"] == 0
        assert stats["size"] == 0

    def test_accept_header_is_part_of_the_key(self, served):
        _, server = served
        client = RemoteClient(server.base_url)
        try:
            as_json = client.protocol_query(self.HOT, accept=MEDIA_JSON)
            as_csv = client.protocol_query(self.HOT, accept="text/csv")
            # A cached JSON body must never be served to a CSV request.
            assert as_json[1] != as_csv[1]
            assert as_csv[2].startswith("s\r\n")
        finally:
            client.close()

    def test_counters_surface_in_the_stats_route(self, served):
        _, server = served
        client = RemoteClient(server.base_url)
        try:
            client.protocol_select(self.HOT)
            client.protocol_select(self.HOT)
            stats = client.stats()
        finally:
            client.close()
        cache_stats = stats["result_cache"]
        assert cache_stats["hits"] >= 1
        assert cache_stats["misses"] >= 1
        assert 0.0 < cache_stats["hit_rate"] <= 1.0
        assert cache_stats["revalidated"] == 0


# ---------------------------------------------------------------------------
# Fast request parser conformance (raw sockets, hostile inputs)
# ---------------------------------------------------------------------------


class TestRequestParsing:
    def rejected(self, server, payload: bytes, status: int) -> dict:
        """Assert a transport-level refusal; returns its error object.

        Every refusal is a full HTTP/1.1 response — status line, the JSON
        error envelope, ``Content-Length`` and ``Connection: close`` — never
        a bare HTTP/0.9-framed page.
        """
        raw = raw_exchange(server, payload)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), raw[:80]
        assert b"\r\nConnection: close" in head
        assert b"\r\nContent-Length: %d" % len(body) in head
        document = json.loads(body)
        assert document["ok"] is False
        assert document["error"]["code"] and document["error"]["message"]
        return document["error"]

    def test_garbage_request_line_is_400(self, served):
        _, server = served
        self.rejected(server, b"GARBAGE\r\n\r\n", 400)

    def test_http2_is_505(self, served):
        _, server = served
        self.rejected(server, b"GET /health HTTP/2.0\r\nHost: x\r\n\r\n", 505)

    def test_bad_version_syntax_is_400(self, served):
        _, server = served
        error = self.rejected(
            server, b"GET /health HTTP/1.x\r\nHost: x\r\n\r\n", 400)
        assert error["code"] == "BAD_REQUEST"

    def test_too_many_headers_is_431(self, served):
        _, server = served
        flood = b"".join(b"X-Flood-%d: y\r\n" % i for i in range(150))
        self.rejected(
            server, b"GET /health HTTP/1.1\r\nHost: x\r\n" + flood + b"\r\n",
            431)

    def test_oversized_header_line_is_431(self, served):
        _, server = served
        huge = b"X-Huge: " + b"a" * 70000 + b"\r\n"
        self.rejected(
            server, b"GET /health HTTP/1.1\r\nHost: x\r\n" + huge + b"\r\n",
            431)

    def test_oversized_request_line_is_414(self, served):
        _, server = served
        self.rejected(server, b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
                      414)

    def test_header_line_without_colon_is_400(self, served):
        _, server = served
        self.rejected(
            server, b"GET /health HTTP/1.1\r\nHost: x\r\nnocolon\r\n\r\n", 400)

    def test_space_before_colon_is_400(self, served):
        # RFC 9112 §5.1: whitespace between field name and colon MUST be
        # rejected (classic response-splitting/smuggling vector).
        _, server = served
        self.rejected(server, b"GET /health HTTP/1.1\r\nHost : x\r\n\r\n", 400)

    def test_header_names_are_case_insensitive(self, served):
        _, server = served
        body = b"{}"
        raw = raw_exchange(server, (
            b"POST /kgnet/v1/ping HTTP/1.1\r\nHost: x\r\n"
            b"cOnTeNt-TyPe: application/json\r\n"
            b"CONTENT-LENGTH: %d\r\nConnection: close\r\n\r\n%s"
            % (len(body), body)))
        assert b" 200 " in raw.split(b"\r\n", 1)[0]

    def test_obsolete_line_folding_is_tolerated(self, served):
        _, server = served
        raw = raw_exchange(server, (
            b"GET /health HTTP/1.1\r\nHost: x\r\n"
            b"X-Folded: first\r\n\tsecond\r\n"
            b"Connection: close\r\n\r\n"))
        assert b" 200 " in raw.split(b"\r\n", 1)[0]

    def test_expect_100_continue_handshake(self, served):
        _, server = served
        sock = socket.create_connection(server.server_address[:2], timeout=30)
        try:
            sock.sendall(b"POST /kgnet/v1/ping HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 2\r\nExpect: 100-continue\r\n\r\n")
            interim = sock.recv(4096)
            assert interim.startswith(b"HTTP/1.1 100")
            sock.sendall(b"{}")
            final = sock.recv(65536)
            # The interim read may already contain the final response when
            # the server answered fast; accept either framing.
            assert b" 200 " in (interim + final)
        finally:
            sock.close()

    def test_head_rejection_sends_headers_only(self, served):
        # RFC 9110 §9.3.2: a HEAD response carries the same headers a GET
        # would — including Content-Length — but never a body.
        _, server = served
        raw = raw_exchange(server, (
            b"HEAD /kgnet/v1/ping HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -5\r\n\r\n"))
        header_block, _, body = raw.partition(b"\r\n\r\n")
        assert b" 400 " in header_block.split(b"\r\n", 1)[0]
        assert b"Content-Length:" in header_block
        assert body == b""


# ---------------------------------------------------------------------------
# Addressing + disconnect probe
# ---------------------------------------------------------------------------


class TestAddressing:
    def test_wildcard_bind_yields_connectable_base_url(self):
        platform = KGNet()
        server = KGNetHTTPServer(("0.0.0.0", 0), router=platform.api).start()
        try:
            assert server.base_url.startswith("http://127.0.0.1:")
            client = RemoteClient(server.base_url)
            try:
                assert client.ping()["status"] == "ok"
            finally:
                client.close()
        finally:
            server.stop()


class TestDisconnectProbe:
    @staticmethod
    def settle():
        # Let the probe's rate limit lapse so the next is_set() looks.
        time.sleep(2 * DISCONNECT_PROBE_SECONDS)

    def test_pipelined_byte_is_not_a_disconnect_and_stays_readable(self):
        local, peer = socket.socketpair()
        try:
            local.settimeout(60)
            probe = _DisconnectProbe(local)
            # A pipelined byte makes the socket readable but is NOT a
            # disconnect: the probe must peek and leave it in place.
            peer.sendall(b"G")
            self.settle()
            assert not probe.is_set()
            self.settle()
            assert not probe.is_set()
            assert local.recv(1) == b"G"
        finally:
            local.close()
            peer.close()

    def test_eof_is_detected(self):
        local, peer = socket.socketpair()
        try:
            local.settimeout(60)
            probe = _DisconnectProbe(local)
            assert not probe.is_set()
            peer.close()
            self.settle()
            assert probe.is_set()
            assert probe.is_set()  # sticky, no further probing needed
        finally:
            local.close()

    def test_idle_socket_with_a_long_timeout_answers_at_once(self):
        # A recv on a socket with a timeout waits up to that timeout even
        # with MSG_DONTWAIT; the zero-timeout poll in front of the peek is
        # what keeps a checkpoint from stalling for a minute.
        local, peer = socket.socketpair()
        try:
            local.settimeout(60)
            probe = _DisconnectProbe(local)
            started = time.perf_counter()
            assert not probe.is_set()
            assert time.perf_counter() - started < 0.05
        finally:
            local.close()
            peer.close()

    def test_set_cancels(self):
        local, peer = socket.socketpair()
        try:
            probe = _DisconnectProbe(local)
            probe.set()
            assert probe.is_set()
        finally:
            local.close()
            peer.close()
