"""KGNet reproduction: a GML-enabled knowledge graph platform.

Reproduction of "Towards a GML-Enabled Knowledge Graph Platform"
(Abdallah & Mansour, ICDE 2023).  The package is organised as:

* :mod:`repro.rdf` -- in-memory RDF store (the Virtuoso stand-in),
* :mod:`repro.sparql` -- SPARQL parser/evaluator/endpoint with UDF support,
* :mod:`repro.gml` -- numpy-based graph machine learning framework
  (the PyG/DGL/OGB stand-in): autograd, GNN layers, samplers, KGE models,
  trainers, metrics and cost estimators,
* :mod:`repro.kgnet` -- the paper's contribution: meta-sampler, GMLaaS,
  KGMeta governor, SPARQL-ML service, and the KGNet facade,
* :mod:`repro.concurrency` -- serving-layer primitives: a bounded worker
  pool, the time-slicing query scheduler and admission
  control (snapshot isolation itself lives on :class:`repro.rdf.Graph` /
  ``Dataset``),
* :mod:`repro.server` -- the network service layer: a pure-Python HTTP server
  speaking the W3C SPARQL 1.1 Protocol and the kgnet/v1 envelope API, with
  streaming content-negotiated results and a pure-stdlib ``RemoteClient``,
* :mod:`repro.replication` -- scale-out serving: WAL log-shipping read
  replicas (``ReplicaEngine``) and the replica-aware ``ReplicaSetClient``
  router with per-session read-your-writes,
* :mod:`repro.datasets` -- synthetic DBLP-like and YAGO4-like KG generators
  and task definitions.
"""

__version__ = "0.3.0"

from repro.concurrency import WorkerPool
from repro.gml.tasks import TaskSpec, TaskType
from repro.gml.train.budget import TaskBudget
from repro.kgnet.api import (
    API_VERSION,
    APIClient,
    APIRequest,
    APIResponse,
    APIRouter,
)
from repro.kgnet.kgmeta.governor import ModelMetadata
from repro.kgnet.meta_sampler import MetaSamplingConfig
from repro.kgnet.platform import KGNet
from repro.kgnet.sparqlml.service import DeleteReport, SelectReport, TrainReport
from repro.server import KGNetHTTPServer, serve
from repro.storage import StorageEngine


def __getattr__(name: str):
    # The clients load the HTTP-client stack (http.client, ssl, email),
    # which a serving process never needs: resolved on first access.
    if name == "RemoteClient":
        from repro.server.client import RemoteClient
        return RemoteClient
    if name in ("ReplicaEngine", "ReplicaSetClient"):
        from repro import replication
        return getattr(replication, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "API_VERSION",
    "APIClient",
    "APIRequest",
    "APIResponse",
    "APIRouter",
    "DeleteReport",
    "KGNet",
    "KGNetHTTPServer",
    "RemoteClient",
    "serve",
    "MetaSamplingConfig",
    "ModelMetadata",
    "ReplicaEngine",
    "ReplicaSetClient",
    "SelectReport",
    "StorageEngine",
    "TaskBudget",
    "TaskSpec",
    "TaskType",
    "TrainReport",
    "WorkerPool",
]
