"""A TrainGML report prices, bounds and reports the run it describes.

* ``training.estimated_memory_bytes`` is the method selector's estimate for
  the trained method, made at the dimensions the training manager trains
  with: one estimate per run, for every method.  A mini-batch method is
  priced at the batch its sampler draws.
* The request's budget holds at run time: the trainer checks it between
  epochs, and ``training.stopped_early`` says when it cut the run short.

Both are read over the wire, through ``ServiceHandler``.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import (
    DBLPConfig,
    dblp_author_affiliation_task,
    dblp_paper_venue_task,
    generate_dblp_kg,
)
from repro.kgnet import KGNet, TrainingManagerConfig
from repro.kgnet.gmlaas import training_manager
from repro.server.service import ServiceHandler, ServiceRequest

CONFIG = TrainingManagerConfig(feature_dim=16, hidden_dim=16, embedding_dim=16,
                               epochs_full_batch=4, epochs_sampling=3, epochs_kge=4)

#: What the unbudgeted INSERT below reported before the budget was checked
#: at run time; a request without a budget trains exactly as it did then.
UNBUDGETED_METRICS = {"accuracy": 0.625, "f1_macro": 0.4761904761904762,
                      "f1_micro": 0.625, "val_accuracy": 0.75}


def fresh_platform() -> KGNet:
    platform = KGNet(training_config=CONFIG)
    platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.1, seed=7)))
    return platform


@pytest.fixture(scope="module")
def platform():
    return fresh_platform()


def post(platform, op: str, **params):
    """One op over the service layer: ``(HTTP status, response envelope)``."""
    response = ServiceHandler(platform.api).handle(ServiceRequest(
        "POST", f"/kgnet/v1/{op}", {"Content-Type": "application/json"},
        json.dumps(params).encode("utf-8")))
    return response.status, json.loads(response.read_body())


def recorded_outcomes(platform, monkeypatch) -> list:
    """Every :class:`TrainingOutcome` the training manager returns from now on."""
    manager = platform.gmlaas.training_manager
    train = manager.train
    outcomes = []

    def recording(*args, **kwargs):
        outcome = train(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(manager, "train", recording)
    return outcomes


@pytest.mark.parametrize("method", ["rgcn", "graph_saint", "shadow_saint",
                                    "transe", "morse"])
def test_the_report_carries_the_estimate_of_the_selection(platform, monkeypatch,
                                                          method):
    outcomes = recorded_outcomes(platform, monkeypatch)
    task = (dblp_paper_venue_task() if method in ("rgcn", "graph_saint", "shadow_saint")
            else dblp_author_affiliation_task())
    status, envelope = post(platform, "train", task=task.as_dict(), method=method,
                            name=f"estimate_{method}")
    assert status == 200, envelope["error"]
    estimated = envelope["result"]["training"]["estimated_memory_bytes"]
    assert estimated > 0
    [outcome] = outcomes
    assert outcome.selection.method == method
    assert estimated == int(outcome.selection.estimate.memory_bytes)
    estimator = platform.gmlaas.training_manager.selector.estimator
    assert (estimator.hidden_dim, estimator.num_layers, estimator.embedding_dim,
            estimator.num_negatives) == (CONFIG.hidden_dim, CONFIG.num_layers,
                                         CONFIG.embedding_dim, CONFIG.num_negatives)


@pytest.mark.parametrize("method, nodes_per_root", [("graph_saint", 1),
                                                    ("shadow_saint", 40)])
def test_the_estimate_prices_the_batch_the_manager_trains(platform, monkeypatch,
                                                          method, nodes_per_root):
    """GraphSAINT's working set is its sampled batch, ShaDow's its roots'
    bounded expansion, both drawn as often per epoch as the manager draws."""
    samplers = []
    for name in ("GraphSAINTNodeSampler", "ShadowKHopSampler"):
        sampler_class = getattr(training_manager, name)
        monkeypatch.setattr(
            training_manager, name,
            lambda *args, _class=sampler_class, **kwargs:
                samplers.append(_class(*args, **kwargs)) or samplers[-1])
    outcomes = recorded_outcomes(platform, monkeypatch)
    status, envelope = post(platform, "train", task=dblp_paper_venue_task().as_dict(),
                            method=method, name=f"batch_{method}")
    assert status == 200, envelope["error"]
    [outcome], [sampler] = outcomes, samplers
    details = outcome.selection.estimate.details
    assert details["working_nodes"] == min(sampler.data.num_nodes,
                                           sampler.batch_size * nodes_per_root)
    assert details["batches_per_epoch"] == sampler.num_batches
    assert sampler.batch_size < sampler.data.num_nodes


def venue_insert(name: str, budget: str = "") -> str:
    return ("prefix dblp:<https://www.dblp.org/>\n"
            "prefix kgnet:<https://www.kgnet.com/>\n"
            "Insert into <kgnet> { ?s ?p ?o }\n"
            "where {select * from kgnet.TrainGML(\n"
            f"  {{Name: '{name}', GML-Method: rgcn,\n"
            "   GML-Task:{ TaskType:kgnet:NodeClassifier, TargetNode:dblp:Publication, "
            f"NodeLabel:dblp:publishedIn }}{budget} }} )}};")


def test_a_budget_the_first_epoch_exceeds_stops_the_run(monkeypatch):
    """``MaxMemory: 1``: the first epoch's traced peak is more than one byte,
    so the run stops after epoch 0 and the report says so."""
    platform = fresh_platform()
    outcomes = recorded_outcomes(platform, monkeypatch)
    status, envelope = post(platform, "sparqlml", query=venue_insert(
        "bounded", ",\n   Task Budget:{ MaxMemory:1 }"))
    assert status == 200, envelope["error"]
    report = envelope["result"]
    assert report["training"]["stopped_early"] is True
    assert report["within_budget"] is False
    [outcome] = outcomes
    assert [entry["epoch"] for entry in outcome.result.history] == [0]
    assert outcome.result.usage.peak_memory_bytes > 1


def test_a_request_without_a_budget_runs_every_epoch(monkeypatch):
    platform = fresh_platform()
    outcomes = recorded_outcomes(platform, monkeypatch)
    status, envelope = post(platform, "sparqlml", query=venue_insert("free"))
    assert status == 200, envelope["error"]
    report = envelope["result"]
    assert report["training"]["stopped_early"] is False
    assert report["within_budget"] is True
    assert report["metrics"] == UNBUDGETED_METRICS
    [outcome] = outcomes
    assert outcome.result.history[-1]["epoch"] == CONFIG.epochs_full_batch - 1
