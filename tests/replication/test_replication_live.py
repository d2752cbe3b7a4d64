"""Live replication tests: primary + replicas, failover, consistency.

Two layers:

* **in-process** — a primary platform and :class:`ReplicaEngine` followers
  in one process (deterministic, fast): write visibility, read-your-writes
  under an artificially lagging replica, router ejection/re-admission,
  restart catch-up from the local WAL, snapshot bootstrap after retention,
* **multi-process** — the real deployment shape via
  ``python -m repro.replication``: one primary and two replica processes on
  loopback, a SIGKILLed replica mid-traffic, and a fresh follower catching
  up — the acceptance scenario end to end.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exceptions import ReadOnlyReplicaError, StorageError
from repro.kgnet import KGNet
from repro.rdf import IRI, Literal, Triple
from repro.replication import ReplicaEngine, ReplicaSetClient
from repro.server import KGNetHTTPServer, RemoteClient
from repro.storage import StorageEngine
from repro.storage.format import encode_frame

EX = "http://example.org/repl/"
COUNT = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def insert(n: int) -> str:
    return f'INSERT DATA {{ <{EX}s{n}> <{EX}p> "{n}" }}'


# ---------------------------------------------------------------------------
# In-process cluster
# ---------------------------------------------------------------------------

class Cluster:
    """A primary + N in-process replicas, all served over loopback HTTP."""

    def __init__(self, tmp_path, replicas: int = 2,
                 poll_interval: float = 0.02) -> None:
        self.storage = StorageEngine(str(tmp_path / "primary"), fsync=False)
        self.platform = KGNet(storage=self.storage)
        self.primary_server = KGNetHTTPServer(
            ("127.0.0.1", 0), router=self.platform.api).start()
        self.replicas = []
        self.replica_servers = []
        for i in range(replicas):
            engine = ReplicaEngine(str(tmp_path / f"replica{i}"),
                                   self.primary_server.base_url,
                                   poll_interval=poll_interval)
            server = KGNetHTTPServer(
                ("127.0.0.1", 0), router=engine.start().api).start()
            self.replicas.append(engine)
            self.replica_servers.append(server)

    def router(self, **kwargs) -> ReplicaSetClient:
        kwargs.setdefault("status_max_age", 0.02)
        kwargs.setdefault("eject_seconds", 0.4)
        return ReplicaSetClient(self.primary_server.base_url,
                                [s.base_url for s in self.replica_servers],
                                **kwargs)

    def wait_caught_up(self, seq: int, timeout: float = 10.0) -> bool:
        return wait_until(
            lambda: all(r.applied_seq >= seq for r in self.replicas),
            timeout=timeout)

    def close(self) -> None:
        for server in self.replica_servers:
            server.stop()
        for engine in self.replicas:
            engine.stop()
        self.primary_server.stop()
        self.storage.close()


@pytest.fixture()
def cluster(tmp_path):
    cluster = Cluster(tmp_path)
    yield cluster
    cluster.close()


class TestInProcessCluster:
    def test_writes_visible_on_every_replica(self, cluster):
        router = cluster.router()
        for n in range(10):
            router.update(insert(n))
        assert cluster.wait_caught_up(router.last_write_seq)
        for server in cluster.replica_servers:
            client = RemoteClient(server.base_url)
            rows = client.protocol_select(COUNT)
            assert rows[0]["n"]["value"] == "10"
            client.close()
        router.close()

    def test_read_your_writes_never_stale(self, cluster):
        router = cluster.router()
        for n in range(25):
            router.update(insert(n))
            rows = router.select(
                f"SELECT ?o WHERE {{ <{EX}s{n}> <{EX}p> ?o }}")
            # Immediately after each write — replicas may be mid-apply —
            # the routed read must still observe it.
            assert rows and rows[0]["o"]["value"] == str(n)
        router.close()

    def test_lagging_replica_is_skipped(self, cluster, tmp_path):
        # A follower that polls once and then sleeps for an hour: fresh
        # writes land only on the primary and the other replicas.
        lagger = ReplicaEngine(str(tmp_path / "lagger"),
                               cluster.primary_server.base_url,
                               poll_interval=3600.0)
        server = KGNetHTTPServer(("127.0.0.1", 0),
                                 router=lagger.start().api).start()
        router = ReplicaSetClient(cluster.primary_server.base_url,
                                  [server.base_url], status_max_age=0.0)
        try:
            # Let the first poll finish; the next one is an hour out.
            assert wait_until(lambda: lagger.replication_status()
                              ["seconds_since_progress"] is not None)
            frozen_seq = lagger.applied_seq
            router.update(insert(0))
            router.update(insert(1))
            assert lagger.applied_seq == frozen_seq  # still asleep
            rows = router.select(COUNT)
            assert rows[0]["n"]["value"] == "2"      # served by the primary
            stats = router.stats()
            assert stats["primary_reads"] >= 1
            assert stats["replicas"][0]["reads"] == 0
        finally:
            router.close()
            server.stop()
            lagger.stop()

    def test_reads_rotate_over_replicas_once_caught_up(self, cluster):
        router = cluster.router()
        for n in range(5):
            router.update(insert(n))
        assert cluster.wait_caught_up(router.last_write_seq)
        time.sleep(0.05)        # let the status cache age past max_age
        for _ in range(20):
            rows = router.select(COUNT)
            assert rows[0]["n"]["value"] == "5"
        stats = router.stats()
        assert stats["replica_reads"] >= 15
        assert all(r["reads"] > 0 for r in stats["replicas"])
        router.close()

    def test_replica_refuses_writes_with_typed_error(self, cluster):
        client = RemoteClient(cluster.replica_servers[0].base_url)
        with pytest.raises(ReadOnlyReplicaError):
            client.protocol_update(insert(0))
        # Envelope write ops are refused at dispatch, before any handler.
        with pytest.raises(ReadOnlyReplicaError):
            client.call("admin/persist")
        client.close()

    def test_router_ejects_dead_replica_and_readmits(self, cluster):
        router = cluster.router()
        for n in range(5):
            router.update(insert(n))
        assert cluster.wait_caught_up(router.last_write_seq)
        time.sleep(0.05)

        victim = cluster.replica_servers[1]
        port = int(victim.server_address[1])
        victim.stop()
        # Drop the router's keep-alive socket too: in-process stop() leaves
        # established connections alive (the multi-process test below kills
        # the whole process instead).
        router._replicas[1].client.close()
        for _ in range(10):
            rows = router.select(COUNT)
            assert rows[0]["n"]["value"] == "5"
        stats = router.stats()
        assert stats["ejections"] >= 1
        assert not stats["replicas"][1]["healthy"]

        # Same address comes back; after the eject window it serves again.
        revived = KGNetHTTPServer(
            ("127.0.0.1", port),
            router=cluster.replicas[1].platform.api).start()
        cluster.replica_servers[1] = revived
        time.sleep(0.5)
        reads_before = router.stats()["replicas"][1]["reads"]
        for _ in range(10):
            router.select(COUNT)
        state = router.stats()["replicas"][1]
        assert state["healthy"] and state["reads"] > reads_before
        router.close()

    def test_replica_restart_catches_up_from_local_wal(self, cluster,
                                                       tmp_path):
        router = cluster.router()
        for n in range(5):
            router.update(insert(n))
        assert cluster.wait_caught_up(router.last_write_seq)

        victim = cluster.replicas[0]
        directory = victim.directory
        cluster.replica_servers[0].stop()
        victim.stop()
        router.update(insert(100))      # happens while the follower is down

        revived = ReplicaEngine(directory, cluster.primary_server.base_url,
                                poll_interval=0.02)
        platform = revived.start()
        cluster.replicas[0] = revived
        cluster.replica_servers[0] = KGNetHTTPServer(
            ("127.0.0.1", 0), router=platform.api).start()
        assert wait_until(
            lambda: revived.applied_seq >= router.last_write_seq)
        assert revived.snapshot_bootstraps == 0     # local recovery sufficed
        rows = platform.sparql(COUNT)
        assert list(rows)[0].to_python() == {"n": 6}
        router.close()

    def test_snapshot_bootstrap_when_history_truncated(self, cluster,
                                                       tmp_path):
        router = cluster.router()
        for n in range(8):
            router.update(insert(n))
        # Compact away all shipped history before the follower ever joins.
        cluster.storage.archive.retain = 0
        cluster.storage.checkpoint()

        late = ReplicaEngine(str(tmp_path / "late"),
                             cluster.primary_server.base_url,
                             poll_interval=0.02)
        platform = late.start()
        try:
            assert wait_until(
                lambda: late.applied_seq >= router.last_write_seq)
            assert late.snapshot_bootstraps == 1
            rows = platform.sparql(COUNT)
            assert list(rows)[0].to_python() == {"n": 8}
            # ...and it keeps tailing after the bootstrap.
            router.update(insert(200))
            assert wait_until(
                lambda: late.applied_seq >= router.last_write_seq)
        finally:
            late.stop()
        router.close()

    def test_replication_lag_and_status_documents(self, cluster):
        router = cluster.router()
        router.update(insert(0))
        assert cluster.wait_caught_up(router.last_write_seq)
        replica = cluster.replicas[0]
        lag = replica.replication_lag()
        assert lag["applied_seq"] >= router.last_write_seq
        assert lag["primary_seq"] >= lag["applied_seq"]
        assert lag["seq_lag"] == lag["primary_seq"] - lag["applied_seq"]

        client = RemoteClient(cluster.replica_servers[0].base_url)
        doc = client.replication_status()
        assert doc["role"] == "replica" and doc["read_only"] is True
        primary = RemoteClient(cluster.primary_server.base_url)
        pdoc = primary.replication_status()
        assert pdoc["role"] == "primary" and pdoc["read_only"] is False
        assert pdoc["last_seq"] >= doc["applied_seq"]
        client.close()
        primary.close()
        router.close()


class _ShippedStream:
    """Stands in for a follower's primary client: serves one fixed stream."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def replication_wal(self, after_seq: int) -> bytes:
        return self.data

    def close(self) -> None:
        pass


def _follow(directory: str, data: bytes) -> ReplicaEngine:
    """A started follower whose every poll receives ``data``; it polls once."""
    follower = ReplicaEngine(directory, "http://127.0.0.1:9",
                             poll_interval=3600.0)
    follower.client = _ShippedStream(data)
    follower.start()
    assert wait_until(lambda: follower.last_error is not None
                      or follower.replication_status()
                      ["seconds_since_progress"] is not None)
    return follower


def _read_or_empty(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return b""


def test_follower_refuses_an_undecodable_transaction_before_writing_it(
        tmp_path):
    """A shipped transaction is decoded before it is persisted.

    Seq 1 arrives as a CRC-valid frame of an unknown record kind plus its
    commit frame.  Persisting it first would wedge the follower (every
    later poll: "not ahead of last applied seq") and make its directory
    unrecoverable; refusing it leaves the follower where it was.
    """
    primary = StorageEngine(str(tmp_path / "primary"), fsync=False)
    primary.open()
    triple = Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("ok"))
    primary.dataset.default_graph.add(triple)
    well_formed = b"".join(raw for _, raw in primary.stream_wal_after(0))
    primary.close()
    undecodable = (encode_frame(bytes([88]) + b"from a newer build")
                   + encode_frame(b"T\x01\x01"))   # commit seq 1, 1 op

    directory = str(tmp_path / "follower")
    wal_path = os.path.join(directory, "wal.log")
    follower = _follow(directory, undecodable)
    try:
        before = _read_or_empty(wal_path)
        assert "unknown WAL record kind 88" in follower.last_error
        with pytest.raises(StorageError, match="offset 0"):
            follower.poll_once()
        assert follower.applied_seq == 0
        assert _read_or_empty(wal_path) == before
    finally:
        follower.stop()
    reopened = StorageEngine(directory)
    reopened.open()                     # the directory still recovers
    reopened.close()

    follower = _follow(directory, well_formed)
    try:
        assert follower.applied_seq == 1 and follower.last_error is None
        assert triple in follower.storage.dataset.default_graph
        assert _read_or_empty(wal_path) == well_formed
    finally:
        follower.stop()


# ---------------------------------------------------------------------------
# Multi-process cluster (the acceptance scenario)
# ---------------------------------------------------------------------------

def spawn_node(role: str, directory: str, *extra: str) -> tuple:
    """Start one node process; returns (Popen, base_url)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.replication", role,
         "--dir", directory, "--port", "0", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    parts = line.split()
    if len(parts) != 3 or parts[0] != "KGNET_NODE":
        proc.kill()
        raise AssertionError(f"bad node banner {line!r}: "
                             f"{proc.stderr.read()[:2000]}")
    return proc, parts[2]


@pytest.mark.slow
class TestMultiProcessCluster:
    def test_primary_two_replicas_failover_and_catchup(self, tmp_path):
        procs = []
        try:
            primary, primary_url = spawn_node(
                "primary", str(tmp_path / "p"), "--no-fsync")
            procs.append(primary)
            r1, r1_url = spawn_node(
                "replica", str(tmp_path / "r1"), "--primary", primary_url,
                "--poll-interval", "0.02")
            procs.append(r1)
            r2, r2_url = spawn_node(
                "replica", str(tmp_path / "r2"), "--primary", primary_url,
                "--poll-interval", "0.02")
            procs.append(r2)

            router = ReplicaSetClient(primary_url, [r1_url, r2_url],
                                      status_max_age=0.02, eject_seconds=0.4)

            # Writes through the router, immediately-read-back each time:
            # read-your-writes must hold whatever the replicas' lag is.
            for n in range(30):
                router.update(insert(n))
                rows = router.select(
                    f"SELECT ?o WHERE {{ <{EX}s{n}> <{EX}p> ?o }}")
                assert rows and rows[0]["o"]["value"] == str(n)

            # Both replicas converge and answer directly.
            def caught_up(url):
                client = RemoteClient(url)
                try:
                    doc = client.replication_status()
                    return doc["applied_seq"] >= router.last_write_seq
                finally:
                    client.close()
            assert wait_until(lambda: caught_up(r1_url), timeout=15)
            assert wait_until(lambda: caught_up(r2_url), timeout=15)
            for url in (r1_url, r2_url):
                client = RemoteClient(url)
                assert client.protocol_select(COUNT)[0]["n"]["value"] == "30"
                client.close()

            # SIGKILL one replica mid-traffic: the router ejects it and
            # keeps answering correctly from the survivors.
            r2.kill()
            r2.wait(timeout=30)
            time.sleep(0.05)
            for _ in range(12):
                rows = router.select(COUNT)
                assert rows[0]["n"]["value"] == "30"
            assert router.stats()["ejections"] >= 1

            # A fresh follower joins late and catches up (from segments or,
            # if the primary compacted, via snapshot bootstrap).
            r3, r3_url = spawn_node(
                "replica", str(tmp_path / "r3"), "--primary", primary_url,
                "--poll-interval", "0.02")
            procs.append(r3)
            assert wait_until(lambda: caught_up(r3_url), timeout=15)
            client = RemoteClient(r3_url)
            assert client.protocol_select(COUNT)[0]["n"]["value"] == "30"
            client.close()

            router.close()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
