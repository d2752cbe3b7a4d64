"""TrainGML reads one pinned snapshot of the data graph.

``SPARQLMLService.train_request`` pins ``endpoint.graph.snapshot()`` once and
hands it to the meta-sampler, or to GMLaaS directly when meta-sampling is
off.  A writer on the live graph can then neither crash an extraction
(``dictionary changed size during iteration``) nor leak into ``KG'``: every
``KG'`` equals the one extracted alone from the graph at the pinned epoch.
"""

import os
import sys
import threading

import pytest

from repro.gml.train.budget import TaskBudget
from repro.kgnet import KGNet, MetaSampler, MetaSamplingConfig
from repro.kgnet.sparqlml.parser import TrainGMLRequest
from repro.rdf import Graph, GraphSnapshot, IRI, RDF_TYPE
from tests.conftest import _quick_training_config

STRESS = bool(os.environ.get("KGNET_STRESS"))

D2H1 = MetaSamplingConfig(direction=2, hops=1)


def _request(task):
    return TrainGMLRequest(name="snapshot", task=task, budget=TaskBudget(),
                           method="rgcn")


def _spy(monkeypatch, owner, name, seen):
    """Wrap ``owner.name`` to record the graph it is called with."""
    real = getattr(owner, name)

    def wrapper(graph, *args, **kwargs):
        seen[name] = graph
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("use_meta_sampling", [True, False],
                         ids=["kg-prime", "full-kg"])
def test_training_reads_a_pinned_snapshot(monkeypatch, dblp_graph, paper_venue_task,
                                          use_meta_sampling):
    platform = KGNet(training_config=_quick_training_config())
    platform.load_graph(dblp_graph)
    service = platform.sparqlml
    seen = {}
    _spy(monkeypatch, service.meta_sampler, "extract", seen)
    _spy(monkeypatch, service.gmlaas, "train", seen)
    epoch = platform.graph.epoch

    report = service.train_request(_request(paper_venue_task),
                                   use_meta_sampling=use_meta_sampling)

    assert report.model_uri in platform.gmlaas.list_models()
    if use_meta_sampling:
        assert type(seen["extract"]) is GraphSnapshot
        assert seen["extract"].epoch == epoch
        assert type(seen["train"]) is Graph  # KG', built from the snapshot
    else:
        assert "extract" not in seen
        assert type(seen["train"]) is GraphSnapshot
        assert seen["train"].epoch == epoch


class _Stop(Exception):
    """Raised in place of training: the test needs KG', not a model."""


@pytest.mark.concurrency
def test_extraction_beside_a_writer_reads_its_pinned_epoch(monkeypatch, dblp_graph,
                                                           paper_venue_task):
    platform = KGNet()
    platform.load_graph(dblp_graph)
    live = platform.graph
    service = platform.sparqlml
    base = list(live)
    targets = sorted(live.subjects(RDF_TYPE, paper_venue_task.target_node_type),
                     key=lambda term: term.sort_key())[:16]
    # Out-edges of one target that are in-edges of the next: d2h1 walks both.
    touch = IRI("urn:test:touches")
    edges = [(a, touch, b) for a, b in zip(targets, targets[1:])]

    pinned, kg_primes = [], []
    real_extract = service.meta_sampler.extract

    def recording_extract(graph, task, config=None):
        pinned.append(graph.epoch)
        return real_extract(graph, task, config)

    def capture_train(graph, *args, **kwargs):
        kg_primes.append(graph)
        raise _Stop

    monkeypatch.setattr(service.meta_sampler, "extract", recording_extract)
    monkeypatch.setattr(service.gmlaas, "train", capture_train)

    #: epoch -> the extra edges present at that epoch (only the writer writes).
    states = {live.epoch: frozenset()}
    done = threading.Event()
    errors = []

    def writer():
        present = set()
        try:
            while not done.is_set():
                for edge in edges:
                    for change in (live.add, live.remove):
                        change(*edge)
                        present ^= {edge}
                        states[live.epoch] = frozenset(present)
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    extractions = 120 if STRESS else 30
    thread = threading.Thread(target=writer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        for _ in range(extractions):
            with pytest.raises(_Stop):
                service.train_request(_request(paper_venue_task), meta_sampling=D2H1)
    finally:
        done.set()
        thread.join(60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert not errors, errors
    assert len(pinned) == len(kg_primes) == extractions
    assert len(set(pinned)) > 1, "the writer never ran between two extractions"

    alone = {}
    for epoch, kg_prime in zip(pinned, kg_primes):
        if epoch not in alone:
            graph = Graph()
            graph.add_all(base)
            for edge in states[epoch]:
                graph.add(*edge)
            alone[epoch] = set(MetaSampler().extract(graph, paper_venue_task, D2H1)[0])
        assert set(kg_prime) == alone[epoch], epoch
