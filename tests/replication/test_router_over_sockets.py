"""The replica-set router against real servers, over loopback sockets.

The stub tests in ``test_client_router_faults.py`` script the exceptions a
replica client raises; these drive :class:`ReplicaSetClient` through real
:class:`~repro.server.client.RemoteClient` connections, so the typed error a
replica's HTTP answer rebuilds into is the one the router classifies.
"""

from __future__ import annotations

import time

import pytest

from repro.concurrency.scheduler import AdmissionController
from repro.kgnet import KGNet
from repro.rdf import IRI, Literal, Triple
from repro.replication import ReplicaSetClient
from repro.server import serve
from repro.sparql.results.serialize import NotAcceptable

QUERY = "SELECT ?s WHERE { ?s ?p ?o }"


def platform(**kwargs) -> KGNet:
    node = KGNet(**kwargs)
    node.load_graph([Triple(IRI("urn:s"), IRI("urn:p"), Literal("o"))])
    return node


@pytest.fixture()
def servers():
    started = []

    def start(node: KGNet):
        server = serve(node.api, max_workers=2)
        started.append(server)
        return server

    yield start
    for server in started:
        server.stop()


def test_not_acceptable_is_the_requests_fault_not_the_replicas(servers):
    primary = servers(platform())
    replica = servers(platform())
    with ReplicaSetClient(primary.base_url, [replica.base_url]) as router:
        for _ in range(3):
            with pytest.raises(NotAcceptable) as info:
                router.select(QUERY, accept="image/png")
            assert info.value.http_status == 406
            assert "application/sparql-results+json" in info.value.offered
        stats = router.stats()
    assert stats["ejections"] == 0
    assert stats["primary_reads"] == 0
    assert stats["replicas"][0]["healthy"]


def test_a_shedding_replica_is_skipped_at_once(servers):
    admission = AdmissionController(max_inflight=1)
    primary = servers(platform())
    replica = servers(platform(admission=admission))
    ticket = admission.admit()  # the replica is now at capacity
    try:
        with ReplicaSetClient(primary.base_url, [replica.base_url]) as router:
            started = time.perf_counter()
            rows = router.select(QUERY)
            elapsed = time.perf_counter() - started
            stats = router.stats()
            retries = router._replicas[0].client.retries
    finally:
        admission.release(ticket)
    assert rows == [{"s": {"type": "uri", "value": "urn:s"}}]
    assert elapsed < 0.5
    assert stats["primary_reads"] == 1
    assert stats["ejections"] == 0
    assert retries == 0
    assert admission.stats()["requests_shed"] == 1
