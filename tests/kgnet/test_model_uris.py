"""A model URI names one model for the life of a storage directory.

The governor mints one more than the largest suffix for (task, method),
counting the URIs KGMeta holds — durable with the dataset, so across a
restart — and the ones it minted but has not registered yet.  A cached
SPARQL-ML answer names its models by URI, so two models under one URI would
make a stale answer look current.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

from repro.kgnet import KGNet
from repro.kgnet.kgmeta import ontology as O
from repro.storage import StorageEngine
from tests.kgnet.test_kgmeta import make_metadata

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: One process: open the directory, load a small DBLP KG if it is empty,
#: train paper-venue with RGCN, close.
TRAIN_ONCE = """
import sys
from repro.datasets import DBLPConfig, dblp_paper_venue_task, generate_dblp_kg
from repro.kgnet import KGNet, TrainingManagerConfig
from repro.storage import StorageEngine
storage = StorageEngine(sys.argv[1], fsync=False)
platform = KGNet(storage=storage, training_config=TrainingManagerConfig(
    feature_dim=8, hidden_dim=8, epochs_full_batch=2))
if not len(platform.endpoint.graph):
    platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.05, seed=3)))
print(platform.train_task(dblp_paper_venue_task(), method="rgcn").model_uri)
storage.close()
"""


def test_a_restarted_process_mints_a_new_uri(tmp_path):
    uris = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", TRAIN_ONCE, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            timeout=300)
        assert result.returncode == 0, result.stderr.decode()
        uris.append(result.stdout.decode().strip())
    prefix = f"{O.MODEL_URI_PREFIX}dblp_paper_venue/rgcn/"
    assert uris == [prefix + "1", prefix + "2"]
    storage = StorageEngine(str(tmp_path), fsync=False)
    try:
        governor = KGNet(storage=storage).governor
        assert [m.uri.value for m in governor.list_models()] == uris
        for model in governor.list_models():
            assert len(list(governor.graph.triples(
                model.uri, O.TRAINING_TIME, None))) == 1
    finally:
        storage.close()


def test_suffixes_count_kgmeta_and_unregistered_mints(paper_venue_task):
    platform = KGNet()
    governor = platform.governor
    first = make_metadata(governor, paper_venue_task)      # minted, unregistered
    second = governor.mint_model_uri(paper_venue_task, "rgcn")
    assert first.uri.value.endswith("/rgcn/1")
    assert second.value.endswith("/rgcn/2")
    governor.register_model(paper_venue_task, first)
    governor.delete_model(first.uri)
    # Deleted, but minted here: never named again by this governor.
    assert governor.mint_model_uri(paper_venue_task, "rgcn").value.endswith("/3")
    # Another method has its own sequence.
    assert governor.mint_model_uri(paper_venue_task, "gcn").value.endswith("/gcn/1")
    # A fresh governor over the same KGMeta continues after what it holds.
    governor.register_model(paper_venue_task, make_metadata(governor, paper_venue_task))
    fresh = type(governor)(platform.endpoint)
    assert fresh.mint_model_uri(paper_venue_task, "rgcn").value.endswith("/5")


def test_concurrent_mints_are_distinct(paper_venue_task):
    governor = KGNet().governor
    minted = []
    barrier = threading.Barrier(4)

    def mint():
        barrier.wait()
        for _ in range(25):
            minted.append(governor.mint_model_uri(paper_venue_task, "rgcn"))

    threads = [threading.Thread(target=mint) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(int(uri.value.rsplit("/", 1)[1]) for uri in minted) \
        == list(range(1, 101))
