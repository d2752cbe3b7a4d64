"""Fixtures: what each workload's server holds before the first request.

One builder serves three callers -- the server child process, the in-process
twin that computes expected answers, and the traced run's onion probes -- so
all three see byte-identical data.  The data seed is a constant: the
benchmark's ``--seed`` varies the requests, never the database, which keeps
runs on different seeds comparable (README, "What a seed changes").
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro import KGNet, StorageEngine
from repro.datasets import (
    DBLPConfig,
    StreamingKGConfig,
    generate_dblp_kg,
    stream_synthetic_kg,
)
from repro.kgnet.api.envelopes import APIRequest
from repro.kgnet.gmlaas.training_manager import TrainingManagerConfig
from repro.storage.bulkload import stream_load_triples

import oplists

KG_SEED = 7

#: Fixture spec per workload.  ``full`` is the benchmark of record; ``tiny``
#: exists for ``test_selfcheck.py`` only.  The sizes are what fits three
#: set-ups plus a measured window into the driver's ~30 s per run; they are
#: smaller than ISSUE.md asked for and the README says so.
PROFILES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "lookup_hot": {"kind": "zipf", "triples": 100_000},
        "query_cold": {"kind": "zipf", "triples": 100_000},
        "sparqlml_infer": {"kind": "dblp", "scale": 1.0, "models": ["T1", "T3"]},
        "update_mix": {"kind": "zipf", "triples": 100_000, "storage": True},
        "train_pipeline": {"kind": "dblp", "scale": 0.5},
    },
    "tiny": {
        "lookup_hot": {"kind": "zipf", "triples": 6_000},
        "query_cold": {"kind": "zipf", "triples": 6_000},
        "sparqlml_infer": {"kind": "dblp", "scale": 0.15, "models": ["T1", "T3"],
                           "fast_training": True},
        "update_mix": {"kind": "zipf", "triples": 6_000, "storage": True},
        "train_pipeline": {"kind": "dblp", "scale": 0.15, "fast_training": True},
    },
}

#: The verify skill's fast training config; only the tiny profile uses it.
FAST_TRAINING = dict(feature_dim=16, hidden_dim=16, embedding_dim=16,
                     epochs_full_batch=4, epochs_sampling=3, epochs_kge=4)


def train_setup_model(platform: KGNet, label: str) -> None:
    """Train one of :data:`oplists.TRAIN_TASKS` the way a client would."""
    name, task, method, full_kg = next(
        t for t in oplists.TRAIN_TASKS if t[0] == label)
    params: Dict[str, object] = {
        "query": oplists.train_text(f"setup_{name}", task, method)}
    if full_kg:
        params["use_meta_sampling"] = False
    platform.api.dispatch(APIRequest(op="sparqlml", params=params)).raise_for_error()


def build_platform(spec: Dict[str, object],
                   storage_dir: Optional[str] = None,
                   ) -> Tuple[KGNet, Dict[str, object]]:
    """Build the platform ``spec`` describes; returns it with build timings.

    ``storage_dir`` backs the platform with ``StorageEngine(dir)`` (default
    ``fsync=True``).  A directory that already holds a checkpoint is only
    *opened* -- that is the post-crash recovery path of ``update_mix``.
    """
    info: Dict[str, object] = {}
    config = TrainingManagerConfig(**FAST_TRAINING) \
        if spec.get("fast_training") else None
    storage = None
    if storage_dir is not None:
        storage = StorageEngine(storage_dir)
        platform = KGNet(storage=storage, training_config=config)
        if storage.last_checkpoint is not None:
            return platform, info
    else:
        platform = KGNet(training_config=config)

    started = time.perf_counter()
    if spec["kind"] == "zipf":
        triples = list(stream_synthetic_kg(StreamingKGConfig(
            seed=KG_SEED, num_triples=int(spec["triples"]))))
        generated = time.perf_counter()
        stream_load_triples(platform.endpoint.graph, triples)
        count = len(triples)
    else:
        graph = generate_dblp_kg(DBLPConfig(seed=KG_SEED,
                                            scale=float(spec["scale"])))
        generated = time.perf_counter()
        platform.load_graph(graph)
        count = len(graph)
    loaded = time.perf_counter()
    info.update(generate_s=generated - started, load_s=loaded - generated,
                generated_triples=count, triples=len(platform.graph))
    if storage is not None:
        info["checkpoint"] = storage.checkpoint().as_dict()
    for label in spec.get("models", ()):
        train_setup_model(platform, label)
    return platform, info
