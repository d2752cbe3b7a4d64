"""Hostile-load survival, observed through a real HTTP server.

The acceptance story of the preemption PR, end to end over sockets:

* a deadline-exceeding query returns a *typed* timeout (HTTP 504,
  ``QUERY_TIMEOUT``, partial-progress details) and its worker immediately
  serves the next request,
* a client that disconnects mid-query gets its query cancelled at the next
  evaluator checkpoint (``queries_cancelled`` in the route metrics),
* above-capacity load is shed before execution: HTTP 503 +
  ``SERVER_OVERLOADED`` + a ``Retry-After`` header, which
  :class:`~repro.server.RemoteClient` rides out with jittered backoff,
* a stalled connection trips the socket-level ``connection_timeout`` and
  frees its worker slot,
* cheap-query latency stays bounded while an adversarial cross product
  loops against the same server (the fairness claim, stress-gated).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import List

import pytest

from repro.concurrency import AdmissionController, QueryScheduler
from repro.exceptions import QueryTimeout, ServerOverloaded
from repro.kgnet import KGNet
from repro.rdf import IRI, Literal, Triple
from repro.server import RemoteClient, serve

EX = "http://example.org/hostile/"
CHEAP_QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"
#: Explicit projection keeps the pipeline lazy (SELECT * must materialise);
#: three patterns make the cross product effectively unbounded in test time.
ADVERSARY = "SELECT ?a ?d WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"

STRESS = bool(os.environ.get("KGNET_STRESS"))


def build_platform(triples: int = 150, max_inflight: int = 16) -> KGNet:
    platform = KGNet(
        scheduler=QueryScheduler(max_workers=2, quantum_rows=256,
                                 quantum_seconds=0.01),
        admission=AdmissionController(max_inflight=max_inflight,
                                      retry_after=0.2),
        max_query_timeout=30.0,
    )
    platform.load_graph([
        Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{i % 4}"), Literal(f"v{i}"))
        for i in range(triples)
    ])
    return platform


@pytest.fixture()
def hostile_server():
    platform = build_platform()
    server = serve(platform.api, max_workers=4)
    try:
        yield platform, server
    finally:
        server.stop()
        platform.api.scheduler.close()


def http_get(base_url: str, query: str, timeout=None, read_timeout=30.0):
    """One GET /sparql; returns (status, headers, parsed json body)."""
    params = {"query": query}
    if timeout is not None:
        params["timeout"] = timeout
    url = base_url + "/sparql?" + urllib.parse.urlencode(params)
    request = urllib.request.Request(
        url, headers={"Accept": "application/sparql-results+json"})
    try:
        with urllib.request.urlopen(request, timeout=read_timeout) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def sparql_metrics(platform: KGNet):
    return platform.api_metrics()["sparql"]


# ---------------------------------------------------------------------------
# Typed deadlines over the wire
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_timeout_returns_typed_504_and_frees_the_worker(self, hostile_server):
        platform, server = hostile_server
        t0 = time.perf_counter()
        status, _, body = http_get(server.base_url, ADVERSARY, timeout="0.2")
        elapsed = time.perf_counter() - t0
        assert status == 504
        assert body["error"]["code"] == "QUERY_TIMEOUT"
        details = body["error"]["details"]
        assert details["work_units"] > 0
        assert details["elapsed_seconds"] >= 0.2
        assert elapsed < 10.0  # the deadline actually cut execution short

        # The worker (and scheduler lane) is free: the next request on the
        # same server completes promptly.
        t0 = time.perf_counter()
        status, _, body = http_get(server.base_url, CHEAP_QUERY)
        assert status == 200
        assert time.perf_counter() - t0 < 5.0
        assert len(body["results"]["bindings"]) > 0

        metrics = sparql_metrics(platform)
        assert metrics["queries_timed_out"] == 1

    def test_remote_client_surfaces_typed_query_timeout(self, hostile_server):
        _, server = hostile_server
        with RemoteClient(server.base_url) as client:
            with pytest.raises(QueryTimeout) as info:
                client.protocol_select(ADVERSARY, timeout=0.2)
        assert info.value.work_units > 0
        assert info.value.elapsed_seconds >= 0.2

    def test_invalid_timeout_is_a_400(self, hostile_server):
        _, server = hostile_server
        # NaN and inf are the hostile cases: NaN defeats both ordered
        # comparisons (deadline checks against NaN are always False) and
        # inf defeats an uncapped default — either would grant a query
        # with no deadline at all.
        for bad in ("banana", "-1", "0", "nan", "NaN", "inf", "-inf"):
            status, _, body = http_get(server.base_url, CHEAP_QUERY,
                                       timeout=bad)
            assert status == 400, bad
            assert body["error"]["code"] == "BAD_REQUEST"

    def test_timeout_is_capped_by_server_max(self, hostile_server):
        platform, server = hostile_server
        # max_query_timeout=30 caps the client's 1-hour ask; the router
        # coercion is what enforces it — observe via the router directly.
        assert platform.api._coerce_timeout("3600") == 30.0
        assert platform.api._coerce_timeout("0.5") == 0.5
        assert platform.api._coerce_timeout(None) is None


# ---------------------------------------------------------------------------
# Client disconnect cancels the query
# ---------------------------------------------------------------------------
class TestDisconnect:
    def test_disconnect_mid_query_cancels_it(self, hostile_server):
        platform, server = hostile_server
        sock = socket.create_connection(server.server_address[:2])
        try:
            path = "/sparql?" + urllib.parse.urlencode({"query": ADVERSARY})
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                         f"Accept: application/sparql-results+json\r\n\r\n"
                         .encode("ascii"))
            time.sleep(0.3)  # let the query start slicing
        finally:
            sock.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if platform.api.scheduler.stats()["queries_cancelled"] >= 1:
                break
            time.sleep(0.05)
        assert platform.api.scheduler.stats()["queries_cancelled"] >= 1
        # The metrics envelope never saw a completed dispatch for it, but
        # the lane is free: a follow-up request answers fast.
        status, _, _ = http_get(server.base_url, CHEAP_QUERY)
        assert status == 200


# ---------------------------------------------------------------------------
# Admission control over the wire
# ---------------------------------------------------------------------------
class TestAdmission:
    @staticmethod
    def start_hog(server) -> socket.socket:
        """Occupy the single admission slot with a raw-socket adversary.

        Closing the returned socket cancels the query server-side (the
        disconnect probe, at the query's next checkpoint), which releases
        the slot — no client locks in the way.
        """
        sock = socket.create_connection(server.server_address[:2])
        path = "/sparql?" + urllib.parse.urlencode({"query": ADVERSARY})
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                     f"Accept: application/sparql-results+json\r\n\r\n"
                     .encode("ascii"))
        return sock

    @staticmethod
    def wait_inflight(platform) -> None:
        deadline = time.monotonic() + 5.0
        while (platform.api.admission.inflight == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert platform.api.admission.inflight >= 1

    def test_shed_returns_503_with_retry_after(self):
        platform = build_platform(max_inflight=1)
        server = serve(platform.api, max_workers=4)
        hog = None
        try:
            hog = self.start_hog(server)
            self.wait_inflight(platform)

            status, headers, body = http_get(server.base_url, CHEAP_QUERY)
            assert status == 503
            assert body["error"]["code"] == "SERVER_OVERLOADED"
            assert body["error"]["details"]["retry_after"] == 0.2
            assert headers.get("Retry-After") == "1"  # ceil(0.2) delta-secs
            assert sparql_metrics(platform)["requests_shed"] >= 1

            # A typed exception surfaces through the client too.
            with RemoteClient(server.base_url, max_retries=0) as client:
                with pytest.raises(ServerOverloaded):
                    client.protocol_select(CHEAP_QUERY)
        finally:
            if hog is not None:
                hog.close()
            server.stop()
            platform.api.scheduler.close()

    def test_retrying_client_rides_out_the_overload(self):
        platform = build_platform(max_inflight=1)
        server = serve(platform.api, max_workers=4)
        hog = None
        try:
            hog = self.start_hog(server)
            self.wait_inflight(platform)
            # Free the slot shortly: the hang-up cancels the hog's query.
            threading.Timer(0.5, hog.close).start()

            client = RemoteClient(server.base_url, max_retries=10,
                                  backoff_seconds=0.1,
                                  max_backoff_seconds=0.3)
            rows = client.protocol_select(CHEAP_QUERY)
            assert len(rows) > 0
            assert client.retries >= 1
            client.close()
        finally:
            if hog is not None:
                hog.close()
            server.stop()
            platform.api.scheduler.close()


# ---------------------------------------------------------------------------
# Socket-level connection timeout (slowloris / stalled clients)
# ---------------------------------------------------------------------------
class TestConnectionTimeout:
    def test_stalled_client_is_disconnected(self):
        platform = build_platform(triples=20)
        server = serve(platform.api, max_workers=2,
                       connection_timeout=0.5)
        try:
            sock = socket.create_connection(server.server_address[:2])
            sock.settimeout(10.0)
            # Send half a request line, then stall.
            sock.sendall(b"GET /spar")
            t0 = time.monotonic()
            closed = sock.recv(4096)  # server closes: recv returns b""
            elapsed = time.monotonic() - t0
            assert closed == b""
            assert elapsed < 8.0  # well under the 60s default
            sock.close()
            # Both workers are free afterwards.
            status, _, _ = http_get(server.base_url, CHEAP_QUERY)
            assert status == 200
        finally:
            server.stop()
            platform.api.scheduler.close()


# ---------------------------------------------------------------------------
# Fairness: cheap queries stay fast while an adversary loops (stress-gated)
# ---------------------------------------------------------------------------
@pytest.mark.concurrency
class TestFairnessUnderAdversary:
    def test_cheap_latency_bounded_under_cross_product(self):
        platform = build_platform(triples=250 if STRESS else 120)
        server = serve(platform.api, max_workers=4)
        try:
            rounds = 40 if STRESS else 15
            # Unloaded baseline.
            base_client = RemoteClient(server.base_url)
            baseline: List[float] = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                base_client.protocol_select(CHEAP_QUERY)
                baseline.append(time.perf_counter() - t0)
            baseline.sort()

            stop = threading.Event()

            def adversary_loop():
                client = RemoteClient(server.base_url, max_retries=0)
                while not stop.is_set():
                    try:
                        client.protocol_select(ADVERSARY + " LIMIT 200000")
                    except Exception:  # noqa: BLE001 — shed/cut is expected
                        time.sleep(0.01)
                client.close()

            thread = threading.Thread(target=adversary_loop, daemon=True)
            thread.start()
            time.sleep(0.2)  # adversary in full swing

            loaded: List[float] = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                rows = base_client.protocol_select(CHEAP_QUERY)
                loaded.append(time.perf_counter() - t0)
                assert len(rows) > 0
            stop.set()
            thread.join(timeout=30)
            base_client.close()

            loaded.sort()
            p99_loaded = loaded[int(0.99 * (len(loaded) - 1))]
            # The adversary slices on the scheduler lanes, so a cheap query
            # waits at most a few quanta, never a whole cross product.  The
            # floor keeps sub-millisecond baselines from turning scheduler
            # noise into flakes.
            budget = max(5 * baseline[int(0.99 * (len(baseline) - 1))], 1.0)
            assert p99_loaded < budget, (
                f"cheap p99 {p99_loaded * 1000:.1f}ms exceeded "
                f"{budget * 1000:.1f}ms under adversarial load")
            assert platform.api.scheduler.stats()["queries_preempted"] > 0
        finally:
            server.stop()
            platform.api.scheduler.close()
