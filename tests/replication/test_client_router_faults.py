"""Replica fault classification in :class:`ReplicaSetClient`.

The read router used to eject replicas only on transport failures
(``APIError`` / ``OSError``); a replica that kept *answering* — but only
with server-side 5xx errors — stayed in the round-robin rotation forever,
failing its share of every read.  These tests pin the full classification
table with stub clients (no sockets):

==============================  ==========================================
replica behaviour               router reaction
==============================  ==========================================
connection failure / timeout    immediate ejection (quarantine)
repeated 5xx answers            quarantine after ``fault_quarantine_threshold``
occasional 5xx, then success    fault counter resets; never quarantined
4xx / 501 answers               the request's own fault: raised, health untouched
``ServerOverloaded`` (shed)     skip to the next replica; never ejected
==============================  ==========================================
"""

from __future__ import annotations

import http.client
from typing import List, Optional

import pytest

from repro.exceptions import (
    APIError,
    BadRequestError,
    CursorError,
    QueryError,
    ServerOverloaded,
    StorageError,
    UnknownOperationError,
    UnsupportedFeatureError,
)
from repro.replication.client_router import ReplicaSetClient
from repro.sparql.results.serialize import MEDIA_JSON, NotAcceptable

QUERY = "SELECT ?s WHERE { ?s ?p ?o }"


class StubClient:
    """Stands in for a RemoteClient: scripted failures, then success."""

    def __init__(self, failures: Optional[List[BaseException]] = None,
                 repeat_last: bool = False) -> None:
        self.failures = list(failures or [])
        self.repeat_last = repeat_last
        self.calls = 0
        self.closes = 0

    def protocol_select(self, query, accept=None):
        self.calls += 1
        if self.failures:
            error = self.failures[0] if self.repeat_last \
                and len(self.failures) == 1 else self.failures.pop(0)
            raise error
        return [{"s": {"type": "uri", "value": "http://ok"}}]

    def replication_status(self):
        return {"applied_seq": 0}

    def close(self):
        self.closes += 1


def make_router(replica_stubs: List[StubClient],
                threshold: int = 3) -> ReplicaSetClient:
    urls = [f"http://replica{i}:1" for i in range(len(replica_stubs))]
    router = ReplicaSetClient("http://primary:1", urls,
                              fault_quarantine_threshold=threshold)
    router.primary = StubClient()
    for state, stub in zip(router._replicas, replica_stubs):
        state.client = stub
    return router


def always(error: BaseException) -> StubClient:
    return StubClient(failures=[error], repeat_last=True)


class TestServerFaultQuarantine:
    def test_persistent_5xx_replica_is_quarantined(self):
        sick = always(StorageError("checkpoint corrupt"))
        good = StubClient()
        router = make_router([sick, good], threshold=3)
        for _ in range(10):
            assert router.select(QUERY)
        # Exactly `threshold` probes, then quarantine — not one per read.
        assert sick.calls == 3
        assert router.stats()["ejections"] == 1
        assert good.calls == 10

    def test_quarantined_replica_is_probed_again_after_window(self):
        sick = StubClient(failures=[StorageError("x")] * 3)  # then healthy
        router = make_router([sick], threshold=3)
        router.eject_seconds = 0.0  # immediate re-admission for the test
        for _ in range(3):
            router.select(QUERY)  # burns the 3 faults, quarantines
        assert router.stats()["ejections"] == 1
        assert router.select(QUERY)  # re-admitted, now healthy
        assert router._replicas[0].consecutive_faults == 0
        assert router.stats()["replica_reads"] == 1

    def test_success_resets_the_fault_counter(self):
        flaky = StubClient(failures=[StorageError("hiccup"),
                                     StorageError("hiccup")])  # then healthy
        router = make_router([flaky], threshold=3)
        for _ in range(6):
            router.select(QUERY)
        assert router.stats()["ejections"] == 0
        assert router._replicas[0].consecutive_faults == 0

    def test_faults_are_visible_in_stats(self):
        sick = always(StorageError("x"))
        router = make_router([sick], threshold=5)
        router.select(QUERY)
        router.select(QUERY)
        replica = router.stats()["replicas"][0]
        assert replica["consecutive_faults"] == 2
        assert replica["healthy"]  # not yet quarantined


class TestClientFaultPropagation:
    @pytest.mark.parametrize("error", [
        QueryError("unbound variable"),           # 400-class
        UnsupportedFeatureError("no SERVICE"),    # 501
        # APIError *subclasses* with 4xx codes are client faults too: the
        # except-clause ordering must not eat them as transport failures
        # (one malformed read used to eject every replica in turn).
        BadRequestError("missing 'query' parameter"),   # 400
        UnknownOperationError("no such op"),            # 404
        CursorError("cursor expired"),                  # 410
        NotAcceptable("image/png", [MEDIA_JSON]),       # 406
    ])
    def test_request_fault_raises_without_touching_health(self, error):
        replica = always(error)
        router = make_router([replica])
        with pytest.raises(type(error)):
            router.select(QUERY)
        assert router.stats()["ejections"] == 0
        assert router._replicas[0].consecutive_faults == 0
        # The primary was never consulted: same request would fail there too.
        assert router.primary.calls == 0


class TestOverloadSkipping:
    def test_shedding_replica_is_skipped_not_ejected(self):
        busy = always(ServerOverloaded("at capacity"))
        ok = StubClient()
        router = make_router([busy, ok])
        for _ in range(6):
            assert router.select(QUERY)
        assert router.stats()["ejections"] == 0
        # Round-robin kept offering the busy replica (it stays healthy)...
        assert busy.calls >= 2
        # ...but every read was served by the other one.
        assert ok.calls == 6

    def test_all_replicas_shedding_falls_back_to_primary(self):
        router = make_router([always(ServerOverloaded("x")),
                              always(ServerOverloaded("y"))])
        assert router.select(QUERY)
        assert router.stats()["primary_reads"] == 1
        assert router.stats()["ejections"] == 0


class TestTransportEjection:
    @pytest.mark.parametrize("error", [
        ConnectionRefusedError("refused"),
        TimeoutError("read timed out"),
        http.client.BadStatusLine("garbage"),     # mid-stream death
        APIError("server answered with non-envelope body"),  # 5xx-class
    ])
    def test_transport_failure_ejects_immediately(self, error):
        dead = always(error)
        good = StubClient()
        router = make_router([dead, good])
        for _ in range(5):
            assert router.select(QUERY)
        assert dead.calls == 1  # one strike at transport level
        assert router.stats()["ejections"] == 1
        assert dead.closes >= 1  # broken keep-alive socket was dropped
