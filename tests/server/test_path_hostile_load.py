"""Hostile-load survival for property-path closures, over a real socket.

Property paths add a new adversary class: a ``+``/``*`` closure over a dense
cyclic graph is quadratic in the node count, entirely inside the BFS closure
iterator — no cross-product pattern needed.  These tests pin the PR-7
contract for that adversary end to end through HTTP:

* ``?x <ring>+ ?y`` over a large ring with ``timeout=`` returns a typed 504
  (``QUERY_TIMEOUT``) with partial-progress details, within a small multiple
  of the deadline, and the worker immediately serves the next request;
* scheduler slicing keeps cheap-query latency bounded while a path
  adversary loops against the same server (stress-gated).
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import List

import pytest

from repro.concurrency import AdmissionController, QueryScheduler
from repro.kgnet import KGNet
from repro.rdf import IRI, Triple
from repro.server import RemoteClient, serve

EX = "http://example.org/pathload/"
RING = f"{EX}ring"

STRESS = bool(os.environ.get("KGNET_STRESS"))
RING_SIZE = 4000 if STRESS else 1500

#: Full transitive closure of a ring is RING_SIZE**2 endpoint pairs, found
#: one BFS per source node — far beyond any test-time deadline.
PATH_ADVERSARY = f"SELECT ?x ?y WHERE {{ ?x <{RING}>+ ?y }}"
CHEAP_QUERY = f"SELECT ?s ?o WHERE {{ ?s <{RING}> ?o }} LIMIT 10"


def build_platform(ring_size: int = RING_SIZE, max_inflight: int = 16) -> KGNet:
    platform = KGNet(
        scheduler=QueryScheduler(max_workers=2, quantum_rows=256,
                                 quantum_seconds=0.01),
        admission=AdmissionController(max_inflight=max_inflight,
                                      retry_after=0.2),
        max_query_timeout=30.0,
    )
    ring = IRI(RING)
    platform.load_graph([
        Triple(IRI(f"{EX}n{i}"), ring, IRI(f"{EX}n{(i + 1) % ring_size}"))
        for i in range(ring_size)
    ])
    return platform


@pytest.fixture()
def path_server():
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


class TestClosureDeadline:
    def test_closure_timeout_returns_typed_504(self, path_server):
        platform, server = path_server
        deadline = 0.25
        t0 = time.perf_counter()
        status, _, body = http_get(server.base_url, PATH_ADVERSARY,
                                   timeout=str(deadline))
        elapsed = time.perf_counter() - t0
        assert status == 504
        assert body["error"]["code"] == "QUERY_TIMEOUT"
        details = body["error"]["details"]
        # Partial progress: the BFS checkpoints ticked real work before the
        # deadline fired inside the frontier loop.
        assert details["work_units"] > 0
        assert details["elapsed_seconds"] >= deadline
        # The 2x-deadline acceptance bound, plus socket/JSON overhead slack.
        assert elapsed < max(2 * deadline + 1.0, 5.0)

        # The worker and the scheduler lane are free again.
        t0 = time.perf_counter()
        status, _, body = http_get(server.base_url, CHEAP_QUERY)
        assert status == 200
        assert time.perf_counter() - t0 < 5.0
        assert len(body["results"]["bindings"]) == 10

        assert platform.api_metrics()["sparql"]["queries_timed_out"] == 1

    def test_star_closure_is_cut_too(self, path_server):
        # ``*`` additionally emits zero-length pairs for every graph node;
        # the deadline must fire inside that enumeration as well.
        _, server = path_server
        star = PATH_ADVERSARY.replace(">+", ">*")
        status, _, body = http_get(server.base_url, star, timeout="0.25")
        assert status == 504
        assert body["error"]["code"] == "QUERY_TIMEOUT"
        assert body["error"]["details"]["work_units"] > 0

    def test_bounded_closure_completes_under_deadline(self, path_server):
        # A closure from one bound source is a single BFS around the ring —
        # heavy but finite; a generous deadline must not misfire.
        _, server = path_server
        query = (f"SELECT ?y WHERE {{ <{EX}n0> <{RING}>+ ?y }} LIMIT 50")
        status, _, body = http_get(server.base_url, query, timeout="25")
        assert status == 200
        assert len(body["results"]["bindings"]) == 50


class TestJoinDeadline:
    """The same contract for the id-row join pipeline: rows move in batches
    now, and a batch must not carry a query past its deadline."""

    @pytest.mark.parametrize("query", [
        # cross product: RING_SIZE**2 rows out of the generic leaf scan
        f"SELECT ?a ?d WHERE {{ ?a <{RING}> ?b . ?c <{RING}> ?d }}",
        # wide-style: a scan whose every row fans out through a closure
        f"SELECT ?s ?o ?far WHERE {{ ?s <{RING}> ?o . ?o <{RING}>* ?far }}",
    ], ids=["cross-product", "wide-scan"])
    def test_join_adversary_returns_typed_504(self, path_server, query):
        platform, server = path_server
        deadline = 0.25
        t0 = time.perf_counter()
        status, _, body = http_get(server.base_url, query,
                                   timeout=str(deadline))
        elapsed = time.perf_counter() - t0
        assert status == 504
        assert body["error"]["code"] == "QUERY_TIMEOUT"
        details = body["error"]["details"]
        assert details["work_units"] > 0
        assert details["rows_emitted"] > 0
        # Cut within 2x the deadline (the scheduler's own clock), plus the
        # same socket/JSON slack the closure test allows.
        assert deadline <= details["elapsed_seconds"] < 2 * deadline
        assert elapsed < max(2 * deadline + 1.0, 5.0)
        # The lane is free again.
        status, _, body = http_get(server.base_url, CHEAP_QUERY)
        assert status == 200 and len(body["results"]["bindings"]) == 10


@pytest.mark.concurrency
class TestPathFairness:
    def test_cheap_latency_bounded_under_closure_adversary(self):
        platform = build_platform(ring_size=RING_SIZE)
        server = serve(platform.api, max_workers=4)
        try:
            rounds = 40 if STRESS else 15
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
                        client.protocol_select(PATH_ADVERSARY, timeout=2.0)
                    except Exception:  # noqa: BLE001 — cut/shed is expected
                        time.sleep(0.01)
                client.close()

            thread = threading.Thread(target=adversary_loop, daemon=True)
            thread.start()
            time.sleep(0.2)

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
            budget = max(5 * baseline[int(0.99 * (len(baseline) - 1))], 1.0)
            assert p99_loaded < budget, (
                f"cheap p99 {p99_loaded * 1000:.1f}ms exceeded "
                f"{budget * 1000:.1f}ms under a closure adversary")
            # The closure adversary really was sliced mid-BFS, not run to
            # completion on a lane.
            assert platform.api.scheduler.stats()["queries_preempted"] > 0
        finally:
            server.stop()
            platform.api.scheduler.close()
