"""The two forms of an index leaf.

A leaf of the SPO / POS / OSP indexes holds the third ids completing a
(first, second) pair: the bare ``int`` while it holds one, a ``set`` from
the second id on.  These tests pin the shape a write leaves behind, the
order a promoted set iterates in, and that a checkpoint of both forms
restores to the same indexes.
"""

from __future__ import annotations

import os

from repro.datasets import StreamingKGConfig, stream_synthetic_kg
from repro.rdf import Dataset, Graph, IRI, Triple
from repro.storage import read_checkpoint, write_checkpoint
from repro.storage.bulkload import stream_load_triples

EX = "http://example.org/"


def _leaves(graph: Graph):
    """Every leaf of the three indexes."""
    for index in (graph._spo, graph._pos, graph._osp):
        for bucket in index.values():
            yield from bucket.values()


def _triple(s: int, p: int, o: int) -> Triple:
    return Triple(IRI(f"{EX}s{s}"), IRI(f"{EX}p{p}"), IRI(f"{EX}o{o}"))


def test_a_bulk_load_holds_no_one_id_set():
    graph = Graph()
    report = stream_load_triples(
        graph, stream_synthetic_kg(StreamingKGConfig(seed=7, num_triples=4_000)))
    leaves = list(_leaves(graph))
    bare = sum(1 for leaf in leaves if leaf.__class__ is int)
    assert all(leaf.__class__ is int or len(leaf) > 1 for leaf in leaves)
    # A Zipf KG: most (first, second) pairs are completed by one id.
    assert bare > len(leaves) // 2
    # Each triple is one id in each of the three indexes.
    assert sum(1 if leaf.__class__ is int else len(leaf)
               for leaf in leaves) == 3 * report.triples_added == 3 * len(graph)


def test_a_leaf_grows_to_a_set_and_shrinks_back_to_nothing():
    graph = Graph()
    graph.add(_triple(0, 0, 1))
    s, p, first = graph._encode_pattern(*_triple(0, 0, 1))
    assert graph._spo[s][p] == first
    held = graph.snapshot()
    graph.add(_triple(0, 0, 2))
    second = graph.encode_term(IRI(f"{EX}o2"))
    promoted = graph._spo[s][p]
    expected = set()
    expected.add(first)
    expected.add(second)
    assert promoted.__class__ is set and list(promoted) == list(expected)
    assert held._spo[s][p] == first
    assert graph.object_ids(s, p) is promoted
    assert held.object_ids(s, p) == (first,)
    graph.remove(_triple(0, 0, 2))
    assert graph._spo[s][p] == {first}
    graph.remove(_triple(0, 0, 1))
    assert s not in graph._spo and p not in graph._pos and first not in graph._osp
    assert graph.object_ids(s, p) == () and graph.count_ids(s, p) == 0
    assert set(held) == {_triple(0, 0, 1)}


def test_a_checkpoint_of_both_leaf_forms_restores_the_same_indexes(tmp_path):
    dataset = Dataset()
    graph = dataset.default_graph
    graph.add_all([_triple(s, p, o) for s in range(4) for p in range(2)
                   for o in range(s + 1)])
    # A set leaf shrunk back to one id stays a set; the copy must say so.
    graph.remove(_triple(3, 1, 0))
    graph.remove(_triple(3, 1, 1))
    graph.remove(_triple(3, 1, 2))
    forms = {leaf.__class__ for leaf in _leaves(graph)}
    assert forms == {int, set}
    path = os.path.join(str(tmp_path), "c.kgck")
    write_checkpoint(dataset, path)
    restored = read_checkpoint(path)[0].default_graph
    assert set(restored) == set(graph) and len(restored) == len(graph)
    # An int never equals a set, so equal indexes hold equal leaf forms.
    assert (restored._spo, restored._pos, restored._osp) == (
        graph._spo, graph._pos, graph._osp)
