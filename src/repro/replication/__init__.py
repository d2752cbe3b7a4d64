"""Scale-out serving: WAL log-shipping replication for the KGNet platform.

The storage engine already produces everything a read replica needs —
sequence-numbered committed WAL frames, restartable checkpoints, an HTTP
transport — and this package assembles them into a primary + N follower
deployment:

* :class:`~repro.replication.replica.ReplicaEngine` — a follower that
  bootstraps from the primary's checkpoint, tail-applies shipped commit
  frames into a live read-only dataset, and serves queries through the
  normal endpoints while applying,
* :class:`~repro.replication.client_router.ReplicaSetClient` — a client-side
  router that fans reads across replicas (round-robin with health/lag
  ejection), pins writes to the primary, and keeps read-your-writes
  consistency per session via commit-sequence stickiness,
* ``python -m repro.replication`` — a tiny CLI that runs one node (primary
  or replica), used by the examples, the benchmark, and the multi-process
  test harness.

Replication is asynchronous and single-writer: the primary never waits for
followers, a follower is eventually consistent, and consistency guarantees
stronger than that live in the client router, not the server.
"""


def __getattr__(name: str):
    # Both load the HTTP client (a replica pulls frames through one), which
    # importing ``repro`` must not drag into a serving process.
    if name == "ReplicaSetClient":
        from repro.replication.client_router import ReplicaSetClient
        return ReplicaSetClient
    if name == "ReplicaEngine":
        from repro.replication.replica import ReplicaEngine
        return ReplicaEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["ReplicaEngine", "ReplicaSetClient"]
