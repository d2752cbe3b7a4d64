"""What a server imports: building a platform, loading triples and serving
SPARQL queries, updates and a SPARQL-ML SELECT load neither scipy, nor a
model or trainer module, nor the differential oracle, nor the HTTP-client
stack; the first TrainGML loads the GML stack.

Each side runs in a fresh interpreter, since this process has long since
imported everything."""

from __future__ import annotations

import json
import os
import subprocess
import sys

#: Modules that only training may load.
TRAINING_ONLY = [
    "scipy",
    "repro.gml.data",
    "repro.gml.transform",
    "repro.gml.splits",
    "repro.gml.autograd",
    "repro.gml.nn",
    "repro.gml.kge",
    "repro.gml.sampling",
    "repro.gml.train.trainer",
    "repro.kgnet.gmlaas.method_selector",
]
#: The differential oracle, which only tests and benchmark workloads load.
ORACLE = "repro.sparql.reference"
#: What a client (RemoteClient, ReplicaSetClient, a replica) loads and a
#: server never needs: the HTTP client, TLS, mail headers, ``urllib.request``
#: and the XML result parser.
CLIENT_ONLY = ["http.client", "ssl", "email", "urllib.request", "xml.sax",
               "xml.etree"]

SOURCE = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: argv: a storage directory, then the JSON list of modules to report.
#: The requests go over raw sockets, since ``http.client`` is watched too.
SERVE_WITHOUT_SCIPY = """
import json, socket, sys
from urllib.parse import quote


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"scipy is refused: {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())

from repro import KGNet, StorageEngine, serve
from repro.datasets import StreamingKGConfig, stream_synthetic_kg
from repro.storage.bulkload import stream_load_triples

platform = KGNet(storage=StorageEngine(sys.argv[1]))
config = StreamingKGConfig(seed=7, num_triples=3_000)
report = stream_load_triples(platform.endpoint.graph, stream_synthetic_kg(config))
server = serve(platform.api)


def request(method, path, body="", headers={}):
    # One HTTP/1.0 exchange: the server answers and closes.
    lines = [f"{method} {path} HTTP/1.0", "Host: localhost",
             f"Content-Length: {len(body.encode())}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    with socket.create_connection(server.server_address, timeout=30) as sock:
        sock.sendall(("\\r\\n".join(lines) + "\\r\\n\\r\\n" + body).encode())
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, payload = reply.partition(b"\\r\\n\\r\\n")
    status, *fields = head.decode("latin-1").split("\\r\\n")
    fields = dict(field.split(": ", 1) for field in fields)
    return [int(status.split()[1]), fields.get("X-KGNet-Result-Cache"),
            json.loads(payload or "null")]


hub, rare = config.entity(0).n3(), config.rare_type.n3()
select = "/sparql?query=" + quote(f"SELECT ?s WHERE {{ ?s a {rare} }}")
sparqlml = ("prefix kgnet: <https://www.kgnet.com/> select ?s ?c where { ?s ?NC ?c. "
            f"?NC a kgnet:NodeClassifier. ?NC kgnet:TargetNode {rare}. }}")
answers = {
    "select": request("GET", select),
    "select again": request("GET", select),
    "ask": request("GET", "/sparql?query=" + quote(f"ASK {{ {hub} a {rare} }}")),
    "update": request("POST", "/sparql", f"INSERT DATA {{ {hub} <urn:p> <urn:o> }}",
                      {"Content-Type": "application/sparql-update"}),
    "sparqlml": request("POST", "/kgnet/v1/sparqlml_select",
                        json.dumps({"query": sparqlml}),
                        {"Content-Type": "application/json"}),
}
server.stop()
modules = [name for name in json.loads(sys.argv[2]) if name in sys.modules]

from repro import ReplicaEngine, ReplicaSetClient, RemoteClient
from repro.server import RemoteClient as ServerRemoteClient

clients = [ReplicaEngine.__name__, ReplicaSetClient.__name__,
           RemoteClient.__name__, ServerRemoteClient is RemoteClient]
print(json.dumps({"loaded": report.triples_added, "answers": answers,
                  "modules": modules, "clients": clients}))
"""

#: argv: the JSON list of modules to report, before and after one TrainGML.
TRAIN_ONCE = """
import json, sys

from repro import KGNet
from repro.datasets import DBLPConfig, dblp_paper_venue_task, generate_dblp_kg
from repro.kgnet.gmlaas.training_manager import TrainingManagerConfig

watched = json.loads(sys.argv[1])
platform = KGNet(training_config=TrainingManagerConfig(
    feature_dim=16, hidden_dim=16, epochs_full_batch=2))
platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.1, seed=7)))
before = [name for name in watched if name in sys.modules]
report = platform.train_task(dblp_paper_venue_task(), method="rgcn")
print(json.dumps({"before": before, "after": [name for name in watched
                                              if name in sys.modules],
                  "model": report.model_uri}))
"""


def _run(script: str, *args: str) -> dict:
    environment = dict(os.environ, PYTHONPATH=SOURCE)
    done = subprocess.run([sys.executable, "-c", script, *args], env=environment,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_a_server_answers_without_scipy_a_model_module_or_a_client(tmp_path):
    out = _run(SERVE_WITHOUT_SCIPY, str(tmp_path / "store"),
               json.dumps(TRAINING_ONLY + [ORACLE] + CLIENT_ONLY))
    answers = out["answers"]
    assert out["loaded"] > 2_000
    status, cached, body = answers["select"]
    assert (status, cached) == (200, None) and len(body["results"]["bindings"]) == 20
    assert answers["select again"] == [200, "hit", body]
    assert answers["ask"] == [200, None, {"head": {}, "boolean": True}]
    assert answers["update"][0] == 200
    status, cached, envelope = answers["sparqlml"]
    assert (status, cached) == (404, None)
    assert envelope["error"]["code"] == "MODEL_NOT_FOUND"
    assert out["modules"] == []
    assert out["clients"] == ["ReplicaEngine", "ReplicaSetClient", "RemoteClient",
                              True]


def test_the_first_traingml_loads_the_gml_stack():
    out = _run(TRAIN_ONCE, json.dumps(TRAINING_ONLY))
    assert out["before"] == []
    assert out["after"] == TRAINING_ONLY
    assert out["model"]
