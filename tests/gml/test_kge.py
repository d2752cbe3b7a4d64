"""Unit tests for KGE models (TransE, DistMult, ComplEx, RotatE) and MorsE."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.exceptions import TrainingError
from repro.gml.autograd import Tensor
from repro.gml.kge import ComplEx, DistMult, KGEModel, MorsE, RotatE, TransE, ranking_metrics
from repro.gml.kge.base import filtered_tail_ranks, known_tails
from repro.gml.nn import Adam
from repro.gml.sampling import NegativeSampler


def toy_triples(num_entities=20, num_relations=3, num_triples=60, seed=0):
    rng = np.random.default_rng(seed)
    triples = np.stack([
        rng.integers(0, num_entities, num_triples),
        rng.integers(0, num_relations, num_triples),
        rng.integers(0, num_entities, num_triples),
    ], axis=1)
    return triples


ALL_MODELS = [TransE, DistMult, ComplEx, RotatE]


class TestScoringFunctions:
    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_score_shape(self, model_class):
        model = model_class(num_entities=20, num_relations=3, dim=16, seed=0)
        triples = toy_triples()
        scores = model.score_triples(triples)
        assert scores.shape == (60,)

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_loss_is_scalar_and_differentiable(self, model_class):
        model = model_class(num_entities=20, num_relations=3, dim=16, seed=0)
        positives = toy_triples(num_triples=16)
        negatives = NegativeSampler(20, num_negatives=2, seed=0).corrupt(positives)
        loss = model.loss(positives, negatives)
        assert loss.size == 1
        loss.backward()
        assert model.entity_embeddings.weight.grad is not None
        assert model.relation_embeddings.weight.grad is not None

    def test_complex_dim_rounded_to_even(self):
        model = ComplEx(num_entities=5, num_relations=2, dim=7)
        assert model.dim % 2 == 0

    def test_rotate_rotation_is_norm_preserving(self):
        model = RotatE(num_entities=10, num_relations=2, dim=8, seed=0)
        triples = np.array([[0, 0, 1], [2, 1, 3]])
        scores = model.score_triples(triples)
        assert np.isfinite(scores.data).all()

    def test_dim_must_be_reasonable(self):
        with pytest.raises(TrainingError):
            DistMult(num_entities=5, num_relations=2, dim=1)

    def test_transe_translation_property(self):
        """A triple whose embeddings satisfy h + r = t must get the max score."""
        model = TransE(num_entities=3, num_relations=1, dim=4, margin=5.0)
        model.entity_embeddings.weight.data[0] = np.array([1.0, 0.0, 0.0, 0.0])
        model.relation_embeddings.weight.data[0] = np.array([0.0, 1.0, 0.0, 0.0])
        model.entity_embeddings.weight.data[1] = np.array([1.0, 1.0, 0.0, 0.0])
        model.entity_embeddings.weight.data[2] = np.array([9.0, 9.0, 9.0, 9.0])
        perfect = model.score_triples(np.array([[0, 0, 1]])).item()
        wrong = model.score_triples(np.array([[0, 0, 2]])).item()
        assert perfect == pytest.approx(5.0)
        assert perfect > wrong

    def test_distmult_symmetry(self):
        """DistMult scores (h, r, t) and (t, r, h) identically by construction."""
        model = DistMult(num_entities=10, num_relations=2, dim=8, seed=1)
        forward = model.score_triples(np.array([[1, 0, 4]])).item()
        backward = model.score_triples(np.array([[4, 0, 1]])).item()
        assert forward == pytest.approx(backward)


def rank(model, triple, known=None):
    """The filtered rank of one test triple."""
    vectors = model.entity_vectors(None, model.num_entities)
    return int(filtered_tail_ranks(model, vectors, np.array([triple]), known or {})[0])


class TestRankingAndPrediction:
    def test_rank_tail_identifies_best_entity(self):
        model = DistMult(num_entities=6, num_relations=1, dim=4, seed=0)
        # Make entity 3 the clear best tail for (0, 0, ?).
        model.entity_embeddings.weight.data[:] = 0.1
        model.relation_embeddings.weight.data[0] = np.ones(4)
        model.entity_embeddings.weight.data[0] = np.ones(4)
        model.entity_embeddings.weight.data[3] = np.ones(4) * 5
        assert rank(model, [0, 0, 3]) == 1
        assert rank(model, [0, 0, 1]) > 1

    def test_filtered_ranking_ignores_other_true_tails(self):
        model = DistMult(num_entities=6, num_relations=1, dim=4, seed=0)
        model.entity_embeddings.weight.data[:] = 0.1
        model.relation_embeddings.weight.data[0] = np.ones(4)
        model.entity_embeddings.weight.data[0] = np.ones(4)
        model.entity_embeddings.weight.data[3] = np.ones(4) * 5
        model.entity_embeddings.weight.data[4] = np.ones(4) * 4
        raw = rank(model, [0, 0, 4])
        filtered = rank(model, [0, 0, 4], {(0, 0): np.array([3, 4])})
        assert filtered < raw

    @pytest.mark.parametrize("model_class", ALL_MODELS)
    def test_tail_scores_are_the_training_scores(self, model_class):
        """Ranking runs the training ``score`` on (heads x candidates)
        blocks: every cell is that triple's training score, bit for bit."""
        model = model_class(num_entities=20, num_relations=3, dim=16, seed=0)
        vectors = model.entity_vectors(None, 20)
        heads, candidates = np.array([4, 0, 4, 19]), np.array([7, 3, 3, 12, 0])
        scores = model.tail_scores(vectors, heads, 2, candidates)
        assert scores.shape == (4, 5)
        grid = np.stack([np.repeat(heads, 5), np.full(20, 2),
                         np.tile(candidates, 4)], axis=1)
        assert scores.reshape(-1).tobytes() == model.score_triples(grid).data.tobytes()

    def test_tail_scores_of_some_candidates_are_those_columns(self):
        model = RotatE(num_entities=8, num_relations=1, dim=4, seed=0)
        vectors = model.entity_vectors(None, 8)
        every = model.tail_scores(vectors, [0, 5], 0, np.arange(8))
        some = model.tail_scores(vectors, [0, 5], 0, np.array([6, 1]))
        assert some.tobytes() == every[:, [6, 1]].tobytes()

    def test_entity_embedding_matrix_shape(self):
        model = TransE(num_entities=9, num_relations=2, dim=6)
        vectors = model.entity_vectors(None, 9)
        assert vectors.shape == (9, 6)
        assert not np.shares_memory(vectors, model.entity_embeddings.weight.data)

    def test_ranking_metrics(self):
        ranks = np.array([1, 2, 10, 100])
        metrics = ranking_metrics(ranks)
        assert metrics["hits@1"] == 0.25
        assert metrics["hits@10"] == 0.75
        assert metrics["mrr"] == pytest.approx((1 + 0.5 + 0.1 + 0.01) / 4)

    def test_ranking_metrics_empty(self):
        metrics = ranking_metrics(np.array([]))
        assert metrics["mrr"] == 0.0 and metrics["hits@10"] == 0.0


class TestKnownTails:
    def reference(self, triples):
        """The Python loop both evaluators ran before the shared helper."""
        grouped = {}
        for head, relation, tail in np.asarray(triples, dtype=np.int64):
            grouped.setdefault((int(head), int(relation)), []).append(int(tail))
        return grouped

    @pytest.mark.parametrize("num_triples", [0, 1, 60, 400])
    def test_groups_tails_like_the_loop(self, num_triples):
        triples = toy_triples(num_entities=9, num_triples=num_triples, seed=num_triples)
        known = known_tails(triples)
        reference = self.reference(triples)
        assert set(known) == set(reference)
        assert all(type(part) is int for key in known for part in key)
        for key, tails in reference.items():
            assert known[key].tolist() == tails       # triple order is kept

    def test_filtered_metrics_unchanged(self):
        triples = toy_triples(num_entities=10, num_relations=2, num_triples=80)
        model = MorsE(num_relations=2, dim=8, seed=0)
        embeddings = model.entity_vectors(triples, 10)
        reference = {key: np.asarray(tails) for key, tails in self.reference(triples).items()}
        assert np.array_equal(
            filtered_tail_ranks(model, embeddings, triples[:20], known_tails(triples)),
            filtered_tail_ranks(model, embeddings, triples[:20], reference))


class TestKGETraining:
    def test_training_separates_positives_from_negatives(self):
        """After a few epochs positive triples must outscore corrupted ones."""
        rng = np.random.default_rng(0)
        num_entities, num_relations = 30, 2
        # Deterministic structure: r0 connects i -> i+1, r1 connects i -> i+2.
        positives = np.array([[i, 0, (i + 1) % num_entities] for i in range(num_entities)] +
                             [[i, 1, (i + 2) % num_entities] for i in range(num_entities)])
        model = DistMult(num_entities, num_relations, dim=16, seed=0)
        optimizer = Adam(model.parameters(), lr=0.1)
        sampler = NegativeSampler(num_entities, num_negatives=4, seed=0)
        for _ in range(40):
            negatives = sampler.corrupt(positives)
            optimizer.zero_grad()
            loss = model.loss(positives, negatives)
            loss.backward()
            optimizer.step()
        positive_scores = model.score_triples(positives).data.mean()
        negative_scores = model.score_triples(sampler.corrupt(positives)).data.mean()
        assert positive_scores > negative_scores


def reference_incidence(model, triples, num_entities):
    """``MorsE.entity_incidence`` through the COO round trip it used to make."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    entity_of_slot = np.concatenate([triples[:, 0], triples[:, 2]])
    init_index = np.concatenate([triples[:, 1], triples[:, 1] + model.num_relations])
    degree = np.bincount(entity_of_slot, minlength=num_entities).astype(np.float64)
    degree[degree == 0] = 1.0
    incidence = sp.coo_matrix(
        (1.0 / degree[entity_of_slot], (entity_of_slot, np.arange(entity_of_slot.shape[0]))),
        shape=(num_entities, entity_of_slot.shape[0])).tocsr()
    return incidence, init_index


class TestMorsE:
    @pytest.mark.parametrize("num_entities,num_triples",
                             [(1, 0), (4, 1), (15, 40), (30, 25), (6, 200)])
    def test_incidence_equals_coo_construction_to_the_bit(self, num_entities, num_triples):
        model = MorsE(num_relations=3, dim=4, seed=0)
        triples = toy_triples(num_entities=num_entities, num_relations=3,
                              num_triples=num_triples, seed=num_triples)
        triples[: num_triples // 5, 2] = triples[: num_triples // 5, 0]   # self loops
        built, built_index = model.entity_incidence(triples, num_entities)
        reference, reference_index = reference_incidence(model, triples, num_entities)
        assert built.shape == reference.shape
        assert np.array_equal(built.indptr, reference.indptr)
        assert np.array_equal(built.indices, reference.indices)
        assert np.array_equal(built.data, reference.data)
        assert np.array_equal(built_index, reference_index)

    def test_entity_composition_shape(self):
        model = MorsE(num_relations=4, dim=8, seed=0)
        triples = toy_triples(num_entities=15, num_relations=4, num_triples=40)
        embeddings = model.compose_entity_embeddings(triples, 15)
        assert embeddings.shape == (15, 8)

    def test_composition_is_entity_agnostic(self):
        """Two entities with identical relational context get identical embeddings."""
        model = MorsE(num_relations=2, dim=8, seed=0)
        # Entities 0 and 1 both have exactly one outgoing r0 edge.
        triples = np.array([[0, 0, 2], [1, 0, 3]])
        embeddings = model.compose_entity_embeddings(triples, 4).data
        assert np.allclose(embeddings[0], embeddings[1])

    def test_score_and_loss(self):
        model = MorsE(num_relations=3, dim=8, seed=0)
        triples = toy_triples(num_entities=12, num_relations=3, num_triples=30)
        embeddings = model.compose_entity_embeddings(triples, 12)
        scores = model.score(embeddings, triples)
        assert scores.shape == (30,)
        negatives = NegativeSampler(12, num_negatives=2, seed=0).corrupt(triples)
        loss = model.loss(embeddings, triples, negatives)
        loss.backward()
        assert model.relation_init.weight.grad is not None
        assert model.relation_embeddings.weight.grad is not None

    def test_transe_decoder(self):
        model = MorsE(num_relations=2, dim=8, decoder="transe", seed=0)
        triples = toy_triples(num_entities=10, num_relations=2, num_triples=20)
        embeddings = model.compose_entity_embeddings(triples, 10)
        assert model.score(embeddings, triples).shape == (20,)

    def test_unknown_decoder_rejected(self):
        with pytest.raises(TrainingError):
            MorsE(num_relations=2, decoder="nonsense")

    def test_materialise_and_evaluate(self):
        model = MorsE(num_relations=2, dim=8, seed=0)
        triples = toy_triples(num_entities=10, num_relations=2, num_triples=30)
        embeddings = model.entity_vectors(triples, 10)
        assert isinstance(embeddings, np.ndarray)
        metrics = ranking_metrics(filtered_tail_ranks(model, embeddings, triples[:5],
                                                      known_tails(triples)))
        assert set(metrics) >= {"mrr", "hits@1", "hits@10"}
        assert 0.0 <= metrics["mrr"] <= 1.0

    def test_inductive_transfer_to_unseen_entities(self):
        """MorsE embeds entities never seen at training time (the point of MorsE)."""
        model = MorsE(num_relations=2, dim=8, seed=0)
        train_triples = toy_triples(num_entities=10, num_relations=2, num_triples=30)
        larger_graph = toy_triples(num_entities=25, num_relations=2, num_triples=60, seed=1)
        embeddings = model.entity_vectors(larger_graph, 25)
        assert embeddings.shape == (25, 8)
        assert np.isfinite(embeddings).all()
