"""A TrainGML report prices, bounds and reports the run it describes.

* ``training.estimated_memory_bytes`` is the method selector's estimate for
  the trained method, made at the config the training manager trains with:
  one estimate per run, for every method.  The estimate is the first epoch
  of the trainer that then runs the rest, and its details name that
  trainer's plan: its epochs, batches per epoch and batch or sub-KG size.
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
from repro.gml.train.trainer import (
    FullBatchNodeClassificationTrainer,
    KGETrainer,
    MorsETrainer,
    SamplingNodeClassificationTrainer,
)
from repro.kgnet import KGNet, TrainingManagerConfig
from repro.kgnet.gmlaas.method_selector import GML_METHODS, GMLMethod
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


NODE_METHODS = ("rgcn", "gcn", "gat", "graph_saint", "shadow_saint")


def train_task(method: str):
    return dblp_paper_venue_task() if method in NODE_METHODS \
        else dblp_author_affiliation_task()


@pytest.mark.parametrize("method", ["rgcn", "graph_saint", "shadow_saint",
                                    "transe", "morse"])
def test_the_report_carries_the_estimate_of_the_selection(platform, monkeypatch,
                                                          method):
    outcomes = recorded_outcomes(platform, monkeypatch)
    status, envelope = post(platform, "train", task=train_task(method).as_dict(),
                            method=method, name=f"estimate_{method}")
    assert status == 200, envelope["error"]
    estimated = envelope["result"]["training"]["estimated_memory_bytes"]
    assert estimated > 0
    [outcome] = outcomes
    assert outcome.selection.method == method
    assert estimated == int(outcome.selection.estimate.memory_bytes)
    manager = platform.gmlaas.training_manager
    assert manager.selector.estimator.config is manager.config


def what_it_runs(trainer) -> dict:
    """Epochs, batches per epoch, batch or sub-KG size, negatives and
    learning rate of a built trainer, read off the trainer and its sampler."""
    if isinstance(trainer, FullBatchNodeClassificationTrainer):
        batches, size, negatives = 1, trainer.data.num_nodes, 0
    elif isinstance(trainer, SamplingNodeClassificationTrainer):
        batches, size, negatives = (len(trainer.sampler), trainer.sampler.batch_size, 0)
    elif isinstance(trainer, KGETrainer):
        sampler = trainer.batch_sampler
        batches, size = len(sampler), sampler.batch_size
        negatives = sampler.negative_sampler.num_negatives
    else:
        assert isinstance(trainer, MorsETrainer)
        sampler = trainer.subkg_sampler
        batches, size = len(sampler), sampler.triples_per_subkg
        negatives = trainer.num_negatives
    return {"epochs": trainer.epochs, "batches_per_epoch": batches,
            "batch_size": size, "num_negatives": negatives,
            "learning_rate": trainer.optimizer.lr}


@pytest.mark.parametrize("method", list(GML_METHODS))
def test_the_estimate_prices_the_batch_the_manager_trains(platform, monkeypatch,
                                                          method):
    """The selection's estimate prices the run the built trainer makes: as many
    epochs, as many batches an epoch, each as large; and the plan the
    estimator read names the trainer's negatives and learning rate."""
    assert len(GML_METHODS) == 10
    trainers = []
    build = GMLMethod.trainer

    def recording(self, *args):
        trainers.append(build(self, *args))
        return trainers[-1]

    monkeypatch.setattr(GMLMethod, "trainer", recording)
    outcomes = recorded_outcomes(platform, monkeypatch)
    status, envelope = post(platform, "train", task=train_task(method).as_dict(),
                            method=method, name=f"batch_{method}")
    assert status == 200, envelope["error"]
    [outcome], [trainer] = outcomes, trainers
    runs = what_it_runs(trainer)
    details = outcome.selection.estimate.details
    assert {key: details[key] for key in ("epochs", "batches_per_epoch", "batch_size")} \
        == {key: runs[key] for key in ("epochs", "batches_per_epoch", "batch_size")}
    plan = GML_METHODS[method].plan(CONFIG, trainer.data)
    assert (plan.num_negatives, plan.learning_rate) == (runs["num_negatives"],
                                                        runs["learning_rate"])
    # The price is the run's own first epoch: no more than the run's peak.
    assert 0 < outcome.selection.estimate.memory_bytes \
        <= outcome.result.usage.peak_memory_bytes
    if method in ("graph_saint", "shadow_saint"):
        assert runs["batch_size"] < trainer.data.num_nodes


def venue_insert(name: str, budget: str = "") -> str:
    return ("prefix dblp:<https://www.dblp.org/>\n"
            "prefix kgnet:<https://www.kgnet.com/>\n"
            "Insert into <kgnet> { ?s ?p ?o }\n"
            "where {select * from kgnet.TrainGML(\n"
            f"  {{Name: '{name}', GML-Method: rgcn,\n"
            "   GML-Task:{ TaskType:kgnet:NodeClassifier, TargetNode:dblp:Publication, "
            f"NodeLabel:dblp:publishedIn }}{budget} }} )}};")


def test_a_budget_the_first_epoch_exceeds_stops_the_run(monkeypatch):
    """``MaxMemory: 1``: the first epoch's steps book more than one byte in
    the run's memory ledger, so the run stops after epoch 0 and the report
    says so."""
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
