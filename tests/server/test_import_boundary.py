"""What a server imports: building a platform, loading triples and serving
SPARQL queries, updates and a SPARQL-ML SELECT load neither scipy, nor a
model or trainer module, nor the differential oracle; the first TrainGML
loads the GML stack.

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

SOURCE = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: argv: a storage directory, then the JSON list of modules to report.
SERVE_WITHOUT_SCIPY = """
import http.client, json, sys
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
connection = http.client.HTTPConnection(*server.server_address, timeout=30)


def request(method, path, body=None, headers={}):
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return [response.status, response.getheader("X-KGNet-Result-Cache"),
            json.loads(response.read() or "null")]


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
connection.close()
server.stop()
print(json.dumps({"loaded": report.triples_added, "answers": answers,
                  "modules": [name for name in json.loads(sys.argv[2])
                              if name in sys.modules]}))
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


def test_a_server_answers_without_scipy_or_a_model_module(tmp_path):
    out = _run(SERVE_WITHOUT_SCIPY, str(tmp_path / "store"),
               json.dumps(TRAINING_ONLY + [ORACLE]))
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


def test_the_first_traingml_loads_the_gml_stack():
    out = _run(TRAIN_ONCE, json.dumps(TRAINING_ONLY))
    assert out["before"] == []
    assert out["after"] == TRAINING_ONLY
    assert out["model"]
