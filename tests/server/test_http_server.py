"""Live-socket tests: the acceptance loop, client parity, streaming, load.

Everything here runs against a real :class:`~repro.server.http.KGNetHTTPServer`
on an ephemeral loopback port:

* the ISSUE acceptance loop — bulk-load over HTTP, SELECT negotiated into
  all four result formats, update via POST, persist + restart + re-query,
* behavioural parity — the same operation sequence through the in-process
  :class:`APIClient` and the network :class:`RemoteClient` must agree,
* chunked-transfer streaming of large result sets,
* concurrent keep-alive clients reading against a live writer (the PR-3
  snapshot-isolation guarantees, observed through the HTTP stack).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import urllib.request
from urllib.parse import quote

import pytest

from repro.exceptions import ModelNotFoundError, ParseError
from repro.kgnet import KGNet
from repro.kgnet.api import APIClient
from repro.rdf import IRI, Literal, Triple
from repro.server import KGNetHTTPServer, RemoteClient, serve
from repro.sparql.results.serialize import (
    MEDIA_CSV,
    MEDIA_JSON,
    MEDIA_TSV,
    MEDIA_XML,
)
from repro.storage import StorageEngine

EX = "http://example.org/http/"
COUNT_SUBJECTS = "SELECT ?s WHERE { ?s ?p ?o }"


def make_turtle(count: int) -> str:
    lines = [f"<{EX}s{i}> <{EX}p> <{EX}o{i % 7}> ." for i in range(count)]
    return "\n".join(lines) + "\n"


@pytest.fixture()
def served_platform():
    platform = KGNet()
    server = serve(platform.api)
    try:
        yield platform, server
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# The acceptance loop (stock HTTP clients against a live server)
# ---------------------------------------------------------------------------


class TestLifecycleAndAddressing:
    def test_stop_without_start_does_not_hang(self):
        platform = KGNet()
        server = KGNetHTTPServer(("127.0.0.1", 0), router=platform.api)
        server.stop()  # never started: must return, not deadlock

    def test_failed_bind_leaks_no_worker_threads(self, served_platform):
        platform, server = served_platform
        before = threading.active_count()
        with pytest.raises(OSError):
            # The port is taken by the running server; the constructor must
            # raise WITHOUT having spawned its worker pool first.
            KGNetHTTPServer(server.server_address[:2], router=platform.api)
        assert threading.active_count() == before

    def test_stop_returns_while_pool_is_saturated(self):
        # One worker, held hostage by a keep-alive connection, plus enough
        # idle connections to fill the pending queue AND block the accept
        # loop in try_submit: stop() must still come back.
        import socket as socket_module
        platform = KGNet()
        server = KGNetHTTPServer(("127.0.0.1", 0), router=platform.api,
                                 max_workers=1).start()
        sockets = []
        try:
            for _ in range(8):
                sock = socket_module.create_connection(
                    server.server_address[:2], timeout=5)
                sockets.append(sock)
            stopped = threading.Event()

            def stopper():
                server.stop()
                stopped.set()

            thread = threading.Thread(target=stopper)
            thread.start()
            assert stopped.wait(timeout=10), \
                "stop() wedged behind a saturated worker pool"
            thread.join()
            # Abandoned queued connections must be CLOSED by stop(), not
            # leaked: each client promptly sees EOF/reset instead of
            # hanging (and the server process does not accumulate fds).
            for sock in sockets[1:]:
                sock.settimeout(5)
                try:
                    data = sock.recv(64)
                except (ConnectionResetError, ConnectionAbortedError, OSError):
                    continue
                assert data == b"", "abandoned connection left half-open"
        finally:
            for sock in sockets:
                sock.close()

    def test_oversized_request_body_is_413_without_buffering(self, served_platform):
        _, server = served_platform
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            connection.putrequest("POST", "/kgnet/v1/ping")
            # Declare a body far over the cap, send none: the server must
            # answer 413 immediately instead of reading it into memory.
            connection.putheader("Content-Length",
                                 str(server.max_request_bytes + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_remote_client_accepts_bare_host_port(self, served_platform):
        _, server = served_platform
        host, port = server.server_address[:2]
        client = RemoteClient(f"localhost:{port}" if host == "127.0.0.1"
                              else f"{host}:{port}")
        try:
            assert client.ping()["status"] == "ok"
        finally:
            client.close()


class TestFullLoop:
    def test_bulk_load_query_update_persist_restart(self, tmp_path):
        directory = os.path.join(str(tmp_path), "store")
        platform = KGNet(storage=StorageEngine(directory))
        server = serve(platform.api)
        client = RemoteClient(server.base_url)
        try:
            # 1. Bulk-load over the wire through the storage admin route.
            report = client.call("admin/bulk_load",
                                 turtle=make_turtle(50), batch_size=16)
            assert report["triples_added"] == 50
            assert report["total_triples"] == 50

            # 2. One SELECT negotiated into all four standard formats.
            query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
            for accept, probe in [
                (MEDIA_JSON, lambda b: len(json.loads(b)["results"]["bindings"])),
                (MEDIA_XML, lambda b: b.count("<result>")),
                (MEDIA_CSV, lambda b: len(b.strip().splitlines()) - 1),
                (MEDIA_TSV, lambda b: len(b.strip().splitlines()) - 1),
            ]:
                status, content_type, body = client.protocol_query(
                    query, accept=accept)
                assert status == 200
                assert content_type == accept
                assert probe(body) == 50

            # 3. Update via POST, visible to the next protocol query.
            client.protocol_update(
                f"INSERT DATA {{ <{EX}extra> <{EX}p> <{EX}o0> }}")
            rows = client.protocol_select(f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}")
            assert len(rows) == 51

            # 4. Persist, tear the whole process-local stack down, restart
            #    over the same directory, re-query through a NEW server.
            client.call("admin/persist")
        finally:
            client.close()
            server.stop()
        platform.storage.close()

        reopened = KGNet(storage=StorageEngine(directory))
        server = serve(reopened.api)
        client = RemoteClient(server.base_url)
        try:
            rows = client.protocol_select(f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}")
            assert len(rows) == 51
            values = {row["s"]["value"] for row in rows}
            assert f"{EX}extra" in values
        finally:
            client.close()
            server.stop()
            reopened.storage.close()

    def test_raw_urllib_works_as_a_stock_client(self, served_platform):
        platform, server = served_platform
        platform.load_graph([Triple(IRI(EX + "a"), IRI(EX + "p"),
                                      Literal("x"))])
        url = (server.base_url + "/sparql?query="
               + quote(COUNT_SUBJECTS, safe=""))
        request = urllib.request.Request(url, headers={"Accept": MEDIA_JSON})
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            document = json.loads(response.read())
        assert document["results"]["bindings"]


# ---------------------------------------------------------------------------
# RemoteClient ≡ APIClient behavioural parity
# ---------------------------------------------------------------------------


@pytest.fixture(params=["in_process", "remote"])
def paired_client(request, served_platform):
    """The same platform reached in-process and over the wire."""
    platform, server = served_platform
    if request.param == "in_process":
        yield APIClient.for_router(platform.api)
    else:
        client = RemoteClient(server.base_url)
        yield client
        client.close()


class TestClientParity:
    def test_ping_load_query_stats(self, paired_client):
        client = paired_client
        assert client.ping()["status"] == "ok"
        loaded = client.load_graph(
            f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s2> <{EX}p> <{EX}o> .")
        assert loaded["triples_loaded"] == 2
        result = client.sparql(COUNT_SUBJECTS)
        assert result["kind"] == "SELECT"
        assert result["total_rows"] == 2
        stats = client.stats()
        assert stats["kg"]["num_triples"] == 2
        assert "api" in stats

    def test_pagination_follows_cursors(self, paired_client):
        client = paired_client
        client.load_graph("\n".join(
            f"<{EX}s{i}> <{EX}p> <{EX}o> ." for i in range(10)))
        first = client.sparql(COUNT_SUBJECTS, page_size=3)
        rows = list(client.iter_pages(first, "rows"))
        assert len(rows) == 10

    def test_errors_rebuild_the_server_exception(self, paired_client):
        client = paired_client
        with pytest.raises(ParseError):
            client.sparql("SELECT ?x WHERE {")
        with pytest.raises(ModelNotFoundError):
            client.call("describe_model",
                        model_uri="http://kgnet/model/missing")

    def test_route_metrics_include_percentiles(self, paired_client):
        client = paired_client
        client.ping()
        metrics = client.metrics()
        assert "ping" in metrics
        for key in ("calls", "p50_seconds", "p99_seconds"):
            assert key in metrics["ping"]


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------


class TestStreaming:
    def test_large_select_streams_chunked(self, served_platform):
        platform, server = served_platform
        platform.load_graph([
            Triple(IRI(f"{EX}s{i}"), IRI(EX + "p"),
                   Literal(f"row {i} with some padding to grow the body"))
            for i in range(2000)
        ])
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            connection.request(
                "GET", "/sparql?query=" + quote(COUNT_SUBJECTS, safe=""),
                headers={"Accept": MEDIA_JSON})
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Content-Length") is None
            document = json.loads(response.read())
            assert len(document["results"]["bindings"]) == 2000
        finally:
            connection.close()

    def test_chunked_request_body_is_411_and_closes(self, served_platform):
        _, server = served_platform
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            connection.putrequest("POST", "/kgnet/v1/ping")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            connection.send(b"2\r\n{}\r\n0\r\n\r\n")
            response = connection.getresponse()
            # The body was never consumed, so the server must refuse AND
            # close rather than misread the chunk frames as a next request.
            assert response.status == 411
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_negative_content_length_is_400_and_closes(self, served_platform):
        _, server = served_platform
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            connection.putrequest("POST", "/kgnet/v1/ping")
            connection.putheader("Content-Length", "-25")
            connection.endheaders()
            # Smuggling payload: without validation these bytes would be
            # parsed as a second pipelined request on the connection.
            connection.send(b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n")
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_small_envelope_responses_carry_content_length(self, served_platform):
        _, server = served_platform
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            connection.request("POST", "/kgnet/v1/ping", body=b"{}",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Length") is not None
            response.read()
            # Keep-alive: the same connection serves a second exchange.
            connection.request("GET", "/health")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    def test_malformed_k_is_400_not_500(self, served_platform):
        _, server = served_platform
        connection = http.client.HTTPConnection(server.server_address[0],
                                                server.server_address[1],
                                                timeout=30)
        try:
            body = json.dumps({"model_uri": "http://m", "source": "http://s",
                               "k": "abc"}).encode()
            connection.request("POST", "/kgnet/v1/infer_links", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["code"] == "BAD_REQUEST"
        finally:
            connection.close()


# ---------------------------------------------------------------------------
# Concurrent keep-alive clients vs a live writer
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
class TestConcurrentServing:
    def test_keepalive_readers_under_writer_fire(self):
        readers = 4
        rounds = 40 if os.environ.get("KGNET_STRESS") else 12
        platform = KGNet()
        platform.load_graph([Triple(IRI(f"{EX}seed{i}"), IRI(EX + "p"),
                                      Literal(i)) for i in range(20)])
        server = KGNetHTTPServer(("127.0.0.1", 0), router=platform.api,
                                 max_workers=readers + 2).start()
        stop = threading.Event()
        inserted = []
        failures = []

        def writer():
            client = RemoteClient(server.base_url)
            try:
                index = 0
                while not stop.is_set():
                    client.protocol_update(
                        f"INSERT DATA {{ <{EX}w{index}> <{EX}p> {index} }}")
                    inserted.append(index)
                    index += 1
            except Exception as exc:  # noqa: BLE001 - surfaced via failures
                failures.append(("writer", exc))
            finally:
                client.close()

        def reader(name):
            client = RemoteClient(server.base_url)
            try:
                last_count = 0
                for _ in range(rounds):
                    rows = client.protocol_select(COUNT_SUBJECTS)
                    count = len(rows)
                    # Snapshot isolation over HTTP: every response is a
                    # consistent prefix — at least the seed data, never a
                    # torn in-between, and monotone per keep-alive client
                    # (each request happens after the previous returned).
                    assert count >= 20
                    assert count >= last_count
                    assert count <= 20 + len(inserted) + 1
                    last_count = count
            except Exception as exc:  # noqa: BLE001 - surfaced via failures
                failures.append((name, exc))
            finally:
                client.close()

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader, args=(f"r{i}",))
                          for i in range(readers)]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join(timeout=60)
        stop.set()
        writer_thread.join(timeout=60)
        server.stop()
        assert not failures, failures
        assert inserted, "writer never committed anything"
