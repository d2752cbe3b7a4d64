"""sha256 pins over the N-Triples of every generator, at the seeds and
scales the tests and ``benchmarks/e2e`` fixtures use (``KG_SEED = 7``).

Each digest covers the triples in the order the generator yields them (a
``Graph``'s iteration order for DBLP and YAGO, the stream's for the Zipf
KG), one ``Triple.n3()`` per line, so a change to any count, draw or IRI
of a generated KG, or to the order its triples are added in, moves one.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets import (DBLPConfig, StreamingKGConfig, YAGOConfig,
                            generate_dblp_kg, generate_yago_kg,
                            stream_synthetic_kg)


def _digest(triples) -> str:
    digest = hashlib.sha256()
    for triple in triples:
        digest.update(triple.n3().encode("utf-8") + b"\n")
    return digest.hexdigest()


DBLP_PINS = [
    (dict(seed=7, scale=1.0),
     "9e5b6d8a1d8a2313ee01c114af1e67cd2567d80def0c955ed313c2a3b524c633"),
    (dict(seed=7, scale=0.5),
     "793afc49686f03065d7f1333ddf04ca400323e9480d2a70fead05d374849f7c9"),
    (dict(seed=7, scale=0.3),
     "f7976bf1fb324890e917f03eb80e3f391286539369de693486e00d62e6bfb845"),
    (dict(seed=7, scale=0.15),
     "7c074711de276d1c4f54ac8f05307d8ddda4700d5ae7b19636b68f0656ae01d9"),
    (dict(seed=3, scale=0.25),
     "a2c6843c90892438dd3f7e8747dba8eafe540bf0721b2f455431a699663651ae"),
    (dict(seed=5, scale=0.15),
     "879a83cbe2626b4df4d71f7dd829c868d6d214a8a07f7adf6ec777099f459c78"),
    (dict(seed=11, scale=0.1),
     "cc3430588ac0f76828597dfa3eb06955e170176b81ddcb9408bf9873006d3aca"),
    (dict(seed=3, scale=0.05),
     "ffe85d8c8d5ae8d5703c2f9485a0980dbd73eb603c87af65f13cb1ac1fe26a24"),
    (dict(seed=7, scale=0.1, include_literals=False),
     "401cd80cc73bb7a157fc76bd6309a56c2252d87fb269558064ffb856b194e2a0"),
    (dict(seed=7, scale=0.1, include_irrelevant_structure=False),
     "18e1497510a00fae55b9f0b8250a6761b621684ac18aff12335322ac3a6b24b1"),
]

YAGO_PINS = [
    (dict(seed=7, scale=1.0),
     "1bd89efb15b57d75e23dbb2c0ab0d29445c0eafeb5a87534d5cb9b0771363ead"),
    (dict(seed=7, scale=0.4),
     "73f7f8888575c47d69da6f2196492889c52dbbbb061e7f10cfa37918c35b3d54"),
    (dict(seed=3, scale=0.25),
     "68ffbbdf0ca4a9189f09bb16d9060ef043de22f4175e94fb6d9e9d0a4a0950c3"),
    (dict(seed=11, scale=0.1),
     "e7b61939dc855f62434622c01cc476c84754011a765015e09bf367ba05a117d5"),
]

STREAM_PINS = [
    (dict(seed=7, num_triples=6_000),
     "6511a53435e4bb2541bc78bc2226e3f118a14964d6774195d8ec87f9df13a69f"),
    (dict(seed=7, num_triples=20_000, batch_size=1_000),
     "f130c0b52808fec5af64367969f3fcbea3912f352abc79609467837f76839c73"),
    (dict(seed=7, num_triples=100_000),
     "89ab666685cebf22b6518e3c08dd2dad63bd7401610ddba8936922befd9728ce"),
]


@pytest.mark.parametrize("config, expected", DBLP_PINS,
                         ids=[str(config) for config, _ in DBLP_PINS])
def test_dblp_kg_is_pinned(config, expected):
    assert _digest(generate_dblp_kg(DBLPConfig(**config))) == expected


@pytest.mark.parametrize("config, expected", YAGO_PINS,
                         ids=[str(config) for config, _ in YAGO_PINS])
def test_yago_kg_is_pinned(config, expected):
    assert _digest(generate_yago_kg(YAGOConfig(**config))) == expected


@pytest.mark.parametrize("config, expected", STREAM_PINS,
                         ids=[str(config) for config, _ in STREAM_PINS])
def test_streaming_kg_is_pinned(config, expected):
    assert _digest(stream_synthetic_kg(StreamingKGConfig(**config))) == expected
