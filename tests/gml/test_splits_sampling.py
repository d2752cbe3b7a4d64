"""Unit tests for split strategies and graph samplers."""

import numpy as np
import pytest

from repro.exceptions import DatasetError, SamplingError
from repro.gml.splits import SplitFractions, community_split, random_split, split_masks
from repro.gml.sampling import (
    EdgeSubKGSampler,
    GraphSAINTNodeSampler,
    NegativeSampler,
    ShadowKHopSampler,
    TripleBatchSampler,
)


class TestSplitFractions:
    def test_counts_sum_to_total(self):
        fractions = SplitFractions(0.6, 0.2, 0.2)
        assert sum(fractions.counts(97)) == 97

    def test_invalid_fractions(self):
        with pytest.raises(DatasetError):
            SplitFractions(0.5, 0.2, 0.2)
        with pytest.raises(DatasetError):
            SplitFractions(1.2, -0.1, -0.1)


class TestRandomSplit:
    def test_partition_properties(self):
        nodes = np.arange(100)
        train, valid, test = random_split(nodes, seed=1)
        combined = np.concatenate([train, valid, test])
        assert sorted(combined.tolist()) == list(range(100))
        assert len(train) == 60 and len(valid) == 20 and len(test) == 20

    def test_deterministic_per_seed(self):
        nodes = np.arange(50)
        assert np.array_equal(random_split(nodes, seed=3)[0], random_split(nodes, seed=3)[0])
        assert not np.array_equal(random_split(nodes, seed=3)[0],
                                  random_split(nodes, seed=4)[0])


class TestCommunitySplit:
    def test_partition_covers_candidates(self):
        edge_index = np.array([[0, 1, 3, 4, 6, 7], [1, 2, 4, 5, 7, 8]])
        candidates = np.arange(9)
        train, valid, test = community_split(candidates, edge_index, 9, seed=0)
        combined = sorted(np.concatenate([train, valid, test]).tolist())
        assert combined == list(range(9))

    def test_communities_not_broken(self):
        # Three components: {0,1,2}, {3,4,5}, {6,7,8}.
        edge_index = np.array([[0, 1, 3, 4, 6, 7], [1, 2, 4, 5, 7, 8]])
        candidates = np.arange(9)
        train, valid, test = community_split(
            candidates, edge_index, 9, seed=0,
            fractions=SplitFractions(0.34, 0.33, 0.33))
        for component in ({0, 1, 2}, {3, 4, 5}, {6, 7, 8}):
            memberships = [bool(component & set(split.tolist()))
                           for split in (train, valid, test)]
            assert sum(memberships) == 1

    def test_empty_candidates(self):
        train, valid, test = community_split(np.array([], dtype=int),
                                             np.zeros((2, 0), dtype=int), 5)
        assert train.size == valid.size == test.size == 0


class TestSplitMasks:
    def test_masks_are_disjoint(self):
        train, valid, test = split_masks(6, np.array([0, 1]), np.array([2]), np.array([3]))
        assert train.sum() == 2 and valid.sum() == 1 and test.sum() == 1

    def test_overlap_raises(self):
        with pytest.raises(DatasetError):
            split_masks(4, np.array([0, 1]), np.array([1]), np.array([2]))


@pytest.fixture(scope="module")
def graph_data(dblp_nc_data):
    return dblp_nc_data[0]


class TestGraphSaintSamplers:
    def test_node_sampler_batches(self, graph_data):
        sampler = GraphSAINTNodeSampler(graph_data, batch_size=40, num_batches=3, seed=0)
        batches = list(sampler)
        assert len(batches) == 3
        for batch in batches:
            assert 0 < batch.num_nodes <= 40
            assert batch.node_weight is not None
            assert batch.node_weight.shape[0] == batch.num_nodes
            assert batch.node_weight.min() > 0
            # Node mapping points back into the full graph.
            assert batch.node_mapping.max() < graph_data.num_nodes

    def test_invalid_configuration(self, graph_data):
        with pytest.raises(SamplingError):
            GraphSAINTNodeSampler(graph_data, batch_size=0, num_batches=1)

    def test_node_sampler_keeps_edge_endpoints(self, graph_data):
        sampler = GraphSAINTNodeSampler(graph_data, batch_size=60, num_batches=1, seed=2)
        batch = sampler.sample()
        assert batch.num_edges > 0
        kept = set(batch.node_mapping.tolist())
        src, dst = graph_data.edge_index
        induced = sorted((int(s), int(d), int(t))
                         for s, d, t in zip(src, dst, graph_data.edge_type)
                         if int(s) in kept and int(d) in kept)
        local_src, local_dst = batch.data.edge_index
        mapped = sorted(zip(batch.node_mapping[local_src].tolist(),
                            batch.node_mapping[local_dst].tolist(),
                            batch.data.edge_type.tolist()))
        assert mapped == induced

    def test_subgraph_labels_match_full_graph(self, graph_data):
        sampler = GraphSAINTNodeSampler(graph_data, batch_size=50, num_batches=1, seed=1)
        batch = sampler.sample()
        assert np.array_equal(batch.data.labels, graph_data.labels[batch.node_mapping])


def reference_offsets(num_nodes, keys):
    """CSR row offsets as the samplers counted them before ``np.bincount``."""
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets, keys + 1, 1)
    return np.cumsum(offsets)


def reference_expansion(rng, roots, fanouts, neighbors_of):
    """The bounded breadth-first expansion of ShadowKHopSampler, written out
    on its own."""
    visited = set(int(r) for r in roots)
    frontier = [int(r) for r in roots]
    for fanout in fanouts:
        next_frontier = []
        for node in frontier:
            neighbors = neighbors_of(node)
            if neighbors.size > fanout:
                neighbors = rng.choice(neighbors, size=fanout, replace=False)
            for neighbor in neighbors:
                if int(neighbor) not in visited:
                    visited.add(int(neighbor))
                    next_frontier.append(int(neighbor))
        frontier = next_frontier
    return np.asarray(sorted(visited), dtype=np.int64)


class TestSamplerIndexKernels:
    """bincount / searchsorted re-express the samplers' indexing, nothing more."""

    def test_offsets_and_degrees_equal_add_at(self, graph_data):
        src, dst = graph_data.edge_index
        n = graph_data.num_nodes
        shadow = ShadowKHopSampler(graph_data, batch_size=8, num_batches=1)
        assert np.array_equal(shadow._offsets,
                              reference_offsets(n, np.concatenate([src, dst])))
        degree = np.zeros(n)
        np.add.at(degree, src, 1.0)
        np.add.at(degree, dst, 1.0)
        node = GraphSAINTNodeSampler(graph_data, batch_size=40, num_batches=1)
        assert np.array_equal(node._probabilities, (degree + 1.0) / (degree + 1.0).sum())

    def test_shadow_batches_equal_reference_expansion(self, graph_data):
        sampler = ShadowKHopSampler(graph_data, batch_size=8, num_batches=3,
                                    depth=2, neighbors_per_hop=3, seed=4)
        twin = ShadowKHopSampler(graph_data, batch_size=8, num_batches=3,
                                 depth=2, neighbors_per_hop=3, seed=4)
        for batch in sampler:
            roots = twin._next_roots()
            nodes = reference_expansion(twin.rng, roots, [3, 3], twin._neighbors)
            assert np.array_equal(batch.node_mapping, nodes)
            position = {int(full): local for local, full in enumerate(nodes)}
            assert batch.root_nodes.tolist() == [position[int(r)] for r in roots]


class TestShadowAndNeighborSamplers:
    def test_shadow_sampler_has_roots(self, graph_data):
        sampler = ShadowKHopSampler(graph_data, batch_size=8, num_batches=2,
                                    depth=2, neighbors_per_hop=5, seed=0)
        batch = sampler.sample()
        assert batch.root_nodes is not None
        assert 0 < batch.root_nodes.shape[0] <= 8
        assert batch.root_nodes.max() < batch.num_nodes
        # Roots are labelled target nodes by default.
        root_full_ids = batch.node_mapping[batch.root_nodes]
        assert (graph_data.labels[root_full_ids] >= 0).all()

    def test_shadow_cycles_through_all_targets(self, graph_data):
        targets = graph_data.labeled_nodes()
        sampler = ShadowKHopSampler(graph_data, batch_size=len(targets) // 2 + 1,
                                    num_batches=2, depth=1, seed=0)
        seen = set()
        for batch in sampler:
            seen.update(batch.node_mapping[batch.root_nodes].tolist())
        assert len(seen) > len(targets) // 2

    def test_shadow_subgraph_size_bounded(self, graph_data):
        sampler = ShadowKHopSampler(graph_data, batch_size=4, num_batches=3,
                                    depth=2, neighbors_per_hop=3, seed=0)
        for batch in sampler:
            roots = batch.root_nodes.shape[0]
            # Each of the two hops adds at most three new nodes per frontier node.
            assert batch.num_nodes <= min(graph_data.num_nodes, roots * (1 + 3 + 9))

    def test_invalid_shadow_configuration(self, graph_data):
        with pytest.raises(SamplingError):
            ShadowKHopSampler(graph_data, batch_size=4, num_batches=1, depth=0)


class TestTripleSamplers:
    def test_negative_sampler_corrupts_one_slot(self):
        sampler = NegativeSampler(num_entities=50, num_negatives=4, seed=0)
        positives = np.array([[1, 0, 2], [3, 1, 4]])
        negatives = sampler.corrupt(positives)
        assert negatives.shape == (8, 3)
        originals = np.repeat(positives, 4, axis=0)
        changed_head = negatives[:, 0] != originals[:, 0]
        changed_tail = negatives[:, 2] != originals[:, 2]
        # Exactly one of head/tail may change per negative (could coincide by chance).
        assert ((changed_head & changed_tail) == False).all()  # noqa: E712
        assert (negatives[:, 1] == originals[:, 1]).all()

    def test_triple_batch_sampler_covers_training_set(self, dblp_lp_data):
        data = dblp_lp_data[0]
        sampler = TripleBatchSampler(data, batch_size=64, num_negatives=2, seed=0)
        seen = 0
        for positives, negatives in sampler:
            assert negatives.shape[0] == positives.shape[0] * 2
            seen += positives.shape[0]
        assert seen == data.split("train").shape[0]
        assert len(sampler) >= 1

    def test_edge_subkg_sampler_reindexes_entities(self, dblp_lp_data):
        data = dblp_lp_data[0]
        sampler = EdgeSubKGSampler(data, triples_per_subkg=100, num_subkgs=3, seed=0)
        assert len(sampler) == 3
        for local_triples, entity_map, num_local in sampler:
            assert local_triples[:, [0, 2]].max() < num_local
            assert entity_map.shape[0] == num_local
            assert entity_map.max() < data.num_entities

    def test_edge_subkg_sampler_equals_dict_remap(self, dblp_lp_data):
        data = dblp_lp_data[0]
        sampler = EdgeSubKGSampler(data, triples_per_subkg=150, num_subkgs=4, seed=9)
        rng = np.random.default_rng(9)
        train = data.split("train")
        for local, entities, num_local in sampler:
            triples = train[rng.choice(train.shape[0], size=150, replace=False)]
            reference_entities = np.unique(np.concatenate([triples[:, 0], triples[:, 2]]))
            remap = {int(e): i for i, e in enumerate(reference_entities)}
            reference = triples.copy()
            reference[:, 0] = [remap[int(h)] for h in triples[:, 0]]
            reference[:, 2] = [remap[int(t)] for t in triples[:, 2]]
            assert np.array_equal(local, reference) and local.dtype == reference.dtype
            assert np.array_equal(entities, reference_entities)
            assert num_local == reference_entities.shape[0]

    def test_invalid_configurations(self, dblp_lp_data):
        data = dblp_lp_data[0]
        with pytest.raises(SamplingError):
            NegativeSampler(10, num_negatives=0)
        with pytest.raises(SamplingError):
            TripleBatchSampler(data, batch_size=0, num_negatives=8)
        with pytest.raises(SamplingError):
            EdgeSubKGSampler(data, triples_per_subkg=0, num_subkgs=10)
