"""Unit tests for GraphData / TriplesData and the RDF dataset transformer."""

import itertools

import numpy as np
import pytest
from scipy import sparse as sp

from repro.exceptions import DatasetError
from repro.gml.data import GraphData, TriplesData, xavier_features
from repro.gml.splits import SplitFractions
from repro.gml.transform import RDFGraphTransformer
from repro.rdf import DBLP, Graph, Literal, RDF_TYPE


def small_graph_data(num_nodes=6, num_relations=2, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.array([[0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5]])
    edge_type = np.array([0, 1, 0, 1, 0, 1])
    labels = np.array([0, 1, 0, 1, -1, -1])
    train = np.array([True, True, False, False, False, False])
    val = np.array([False, False, True, False, False, False])
    test = np.array([False, False, False, True, False, False])
    return GraphData(
        num_nodes=num_nodes, edge_index=edges, edge_type=edge_type,
        num_relations=num_relations,
        features=rng.normal(size=(num_nodes, 4)), labels=labels,
        num_classes=num_classes, train_mask=train, val_mask=val, test_mask=test,
        node_names=[f"n{i}" for i in range(num_nodes)])


def reference_adjacency(data, relation=None, add_self_loops=True,
                        normalize=True, symmetric=True):
    """``GraphData.adjacency`` as scipy constructors built it before the
    one-sort kernel: coo -> csr -> + eye -> diags(1 / degree) @ adj."""
    mask = np.ones(data.num_edges, dtype=bool) if relation is None \
        else data.edge_type == relation
    src, dst = data.edge_index[0, mask], data.edge_index[1, mask]
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    adj = sp.coo_matrix((np.ones(src.shape[0]), (dst, src)),
                        shape=(data.num_nodes, data.num_nodes)).tocsr()
    if add_self_loops:
        adj = adj + sp.eye(data.num_nodes, format="csr")
    if normalize:
        degree = np.asarray(adj.sum(axis=1)).reshape(-1)
        degree[degree == 0] = 1.0
        adj = sp.diags(1.0 / degree) @ adj
    return adj.tocsr()


def random_multigraph(rng, num_nodes, num_edges, num_relations):
    """Duplicate edges, self loops, isolated nodes and empty relations all occur."""
    used_nodes = max(1, num_nodes - 2)                    # the last two stay isolated
    edge_index = rng.integers(0, used_nodes, size=(2, num_edges))
    edge_index[:, : num_edges // 4] = edge_index[:, num_edges // 4: 2 * (num_edges // 4)]
    edge_index[1, -(num_edges // 5 or 1):] = edge_index[0, -(num_edges // 5 or 1):]
    edge_type = rng.integers(0, max(1, num_relations - 1), size=num_edges)
    return GraphData(
        num_nodes=num_nodes, edge_index=edge_index, edge_type=edge_type,
        num_relations=num_relations, features=np.zeros((num_nodes, 2)),
        labels=-np.ones(num_nodes, dtype=np.int64), num_classes=2,
        train_mask=np.zeros(num_nodes, bool), val_mask=np.zeros(num_nodes, bool),
        test_mask=np.zeros(num_nodes, bool))


def assert_same_csr(built, reference):
    assert built.shape == reference.shape
    assert np.array_equal(built.indptr, reference.indptr)
    assert np.array_equal(built.indices, reference.indices)
    assert np.array_equal(built.data, reference.data)


class TestAdjacencyKernel:
    """One sort builds what six scipy constructors built: same structure, same
    stored order, same bits — so models train to the same weights."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_scipy_construction_to_the_bit(self, seed):
        rng = np.random.default_rng(seed)
        data = random_multigraph(rng, num_nodes=int(rng.integers(1, 14)),
                                 num_edges=int(rng.integers(0, 60)),
                                 num_relations=int(rng.integers(1, 6)))
        for loops, normalize, symmetric in itertools.product((False, True), repeat=3):
            options = dict(add_self_loops=loops, normalize=normalize, symmetric=symmetric)
            per_relation = data.relation_adjacencies(**options)
            assert len(per_relation) == data.num_relations
            for relation, built in enumerate(per_relation):
                reference = reference_adjacency(data, relation, **options)
                assert_same_csr(built, reference)
                assert_same_csr(data.adjacency(relation, **options), reference)
            assert_same_csr(data.adjacency(**options),
                            reference_adjacency(data, **options))

    def test_generated_kg(self, dblp_nc_data):
        data = dblp_nc_data[0]
        for relation, built in enumerate(data.relation_adjacencies()):
            assert_same_csr(built, reference_adjacency(data, relation,
                                                       add_self_loops=False))
        assert_same_csr(data.adjacency(), reference_adjacency(data))

    def test_relation_id_outside_num_relations_rejected(self):
        for edge_type in ([2], [-1]):
            with pytest.raises(DatasetError):
                GraphData(num_nodes=2, edge_index=np.array([[0], [1]]),
                          edge_type=np.array(edge_type), num_relations=2,
                          features=np.zeros((2, 3)), labels=np.zeros(2, dtype=int),
                          num_classes=1, train_mask=np.zeros(2, bool),
                          val_mask=np.zeros(2, bool), test_mask=np.zeros(2, bool))


class TestGraphData:
    def test_basic_counts(self):
        data = small_graph_data()
        assert data.num_edges == 6
        assert data.feature_dim == 4
        assert list(data.labeled_nodes()) == [0, 1, 2, 3]

    def test_validation_rejects_bad_edges(self):
        with pytest.raises(DatasetError):
            GraphData(num_nodes=2, edge_index=np.array([[0], [5]]),
                      edge_type=np.array([0]), num_relations=1,
                      features=np.zeros((2, 3)), labels=np.zeros(2, dtype=int),
                      num_classes=1, train_mask=np.zeros(2, bool),
                      val_mask=np.zeros(2, bool), test_mask=np.zeros(2, bool))

    def test_validation_rejects_mismatched_masks(self):
        with pytest.raises(DatasetError):
            GraphData(num_nodes=3, edge_index=np.zeros((2, 0)),
                      edge_type=np.zeros(0), num_relations=1,
                      features=np.zeros((3, 2)), labels=np.zeros(3, dtype=int),
                      num_classes=1, train_mask=np.zeros(2, bool),
                      val_mask=np.zeros(3, bool), test_mask=np.zeros(3, bool))

    def test_adjacency_row_normalised(self):
        data = small_graph_data()
        adjacency = data.adjacency()
        sums = np.asarray(adjacency.sum(axis=1)).reshape(-1)
        assert np.allclose(sums, 1.0)

    def test_adjacency_symmetric_includes_reverse(self):
        data = small_graph_data()
        directed = data.adjacency(symmetric=False, add_self_loops=False,
                                  normalize=False)
        symmetric = data.adjacency(symmetric=True, add_self_loops=False,
                                   normalize=False)
        assert symmetric.nnz >= directed.nnz
        assert symmetric[1, 0] > 0 and symmetric[0, 1] > 0

    def test_relation_adjacencies_count(self):
        data = small_graph_data()
        adjacencies = data.relation_adjacencies()
        assert len(adjacencies) == data.num_relations

    def test_cached_adjacency_reused(self):
        data = small_graph_data()
        assert data.cached_adjacency() is data.cached_adjacency()
        assert data.cached_relation_adjacencies() is data.cached_relation_adjacencies()

    def test_subgraph_remaps_nodes_and_edges(self):
        data = small_graph_data()
        sub, mapping = data.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert list(mapping) == [0, 1, 2]
        assert sub.num_edges == 2  # 0->1 and 1->2 survive
        assert sub.labels.tolist() == [0, 1, 0]

    def test_subgraph_of_all_nodes_is_identity(self):
        data = small_graph_data()
        sub, mapping = data.subgraph(np.arange(data.num_nodes))
        assert sub.num_edges == data.num_edges

    def test_neighbors(self):
        data = small_graph_data()
        out_only = data.neighbors(np.array([0]), bidirectional=False)
        both = data.neighbors(np.array([0]), bidirectional=True)
        assert set(out_only) == {1, 5}
        assert set(both) >= set(out_only)

    def test_xavier_features_shape_and_scale(self):
        features = xavier_features(50, 16, seed=1)
        assert features.shape == (50, 16)
        assert np.abs(features).max() <= np.sqrt(6.0 / 16) + 1e-9
        assert not np.allclose(features, xavier_features(50, 16, seed=2))


class TestTriplesData:
    def make(self):
        triples = np.array([[0, 0, 1], [1, 0, 2], [2, 1, 3], [3, 1, 0], [0, 1, 3]])
        return TriplesData(num_entities=4, num_relations=2, triples=triples,
                           train_idx=np.array([0, 1, 2]), valid_idx=np.array([3]),
                           test_idx=np.array([4]),
                           entity_names=[f"e{i}" for i in range(4)],
                           relation_names=["r0", "r1"], target_relation=1)

    def test_counts_and_splits(self):
        data = self.make()
        assert data.num_triples == 5
        assert data.split("train").shape == (3, 3)
        assert data.split("valid").shape == (1, 3)
        assert data.split("test").shape == (1, 3)

    def test_unknown_split_raises(self):
        with pytest.raises(DatasetError):
            self.make().split("dev")

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(DatasetError):
            TriplesData(num_entities=2, num_relations=1,
                        triples=np.array([[0, 0, 5]]),
                        train_idx=np.array([0]), valid_idx=np.array([], dtype=int),
                        test_idx=np.array([], dtype=int))


class TestRDFGraphTransformer:
    def test_node_classification_transform(self, dblp_graph, paper_venue_task, dblp_nc_data):
        data, report = dblp_nc_data
        assert data.num_classes >= 2
        assert report.num_label_edges_removed == report.num_labeled_nodes
        assert report.num_literal_triples_removed > 0
        # Label edges must not leak into the structural relations.
        assert paper_venue_task.label_predicate.value not in data.relation_names
        assert data.num_nodes == len(data.node_names)
        # Masks partition the labelled nodes.
        labeled = data.labeled_nodes()
        combined = data.train_mask | data.val_mask | data.test_mask
        assert combined[labeled].all()
        assert not (data.train_mask & data.test_mask).any()

    def test_statistics_collected(self, dblp_nc_data):
        _, report = dblp_nc_data
        assert "num_nodes" in report.as_dict()

    def test_link_prediction_transform(self, dblp_lp_data, author_affiliation_task):
        data, report = dblp_lp_data
        assert data.target_relation is not None
        assert data.relation_names[data.target_relation] == \
            author_affiliation_task.target_predicate.value
        # Validation/test triples all use the target relation.
        for split in ("valid", "test"):
            triples = data.split(split)
            assert (triples[:, 1] == data.target_relation).all()
        assert report.split_sizes["train"] > report.split_sizes["test"]

    def test_missing_target_type_raises(self, dblp_graph):
        transformer = RDFGraphTransformer(feature_dim=4)
        with pytest.raises(DatasetError):
            transformer.to_node_classification_data(
                dblp_graph, DBLP["Nonexistent"], DBLP["publishedIn"])

    def test_missing_label_predicate_raises(self, dblp_graph):
        transformer = RDFGraphTransformer(feature_dim=4)
        with pytest.raises(DatasetError):
            transformer.to_node_classification_data(
                dblp_graph, DBLP["Publication"], DBLP["noSuchPredicate"])

    def test_missing_target_predicate_raises_for_lp(self, dblp_graph):
        transformer = RDFGraphTransformer(feature_dim=4)
        with pytest.raises(DatasetError):
            transformer.to_link_prediction_data(dblp_graph, DBLP["noSuchPredicate"])

    def test_community_split_strategy(self, dblp_graph, paper_venue_task):
        transformer = RDFGraphTransformer(feature_dim=4, split_strategy="community")
        data, report = transformer.to_node_classification_data(
            dblp_graph, paper_venue_task.target_node_type,
            paper_venue_task.label_predicate)
        assert report.split_sizes["train"] > 0
        assert report.split_sizes["test"] > 0

    def test_unknown_split_strategy_rejected(self):
        with pytest.raises(DatasetError):
            RDFGraphTransformer(split_strategy="nope")

    def test_feature_dim_respected(self, dblp_graph, paper_venue_task):
        transformer = RDFGraphTransformer(feature_dim=7)
        data, _ = transformer.to_node_classification_data(
            dblp_graph, paper_venue_task.target_node_type,
            paper_venue_task.label_predicate)
        assert data.feature_dim == 7

    def test_deterministic_given_seed(self, dblp_graph, paper_venue_task):
        t1 = RDFGraphTransformer(feature_dim=4, seed=5)
        t2 = RDFGraphTransformer(feature_dim=4, seed=5)
        d1, _ = t1.to_node_classification_data(
            dblp_graph, paper_venue_task.target_node_type, paper_venue_task.label_predicate)
        d2, _ = t2.to_node_classification_data(
            dblp_graph, paper_venue_task.target_node_type, paper_venue_task.label_predicate)
        assert np.array_equal(d1.train_mask, d2.train_mask)
        assert np.allclose(d1.features, d2.features)
