"""The fused training nodes against the compositions of small ops they replace.

``RGCNConv.forward``, ``binary_cross_entropy_with_logits`` and ``MorsE.score``
are each one autograd node with a written-out backward.  The per-op
compositions they replaced live on here, as references only: every forward
value and every gradient must equal theirs to the bit, and whole training runs
with the references patched in must end in the same parameters, histories and
metrics.  ``MorsE.score`` keeps its ``(n, dim)`` arrays in buffers owned by one
training run; the last tests pin that those never cross runs or outlive them.
"""

import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import dblp_author_affiliation_task
from repro.gml.autograd import (
    Parameter,
    Tensor,
    binary_cross_entropy_with_logits,
    gather_rows,
    spmm,
)
from repro.gml.kge import MorsE
from repro.gml.kge import base as kge_base
from repro.gml.kge import morse as kge_morse
from repro.gml.nn import RGCNConv
from repro.gml.sampling.negative import NegativeSampler
from repro.gml.train.trainer import MorsETrainer
from tests.gml.test_autograd import check_gradient
from tests.gml.test_train import ALL_SHAPES, tiny_trainer

#: Repetitions of the concurrent-training test (the stress job sets
#: ``KGNET_STRESS=1``).
STRESS_REPEATS = 4 if os.environ.get("KGNET_STRESS") else 1


# ---------------------------------------------------------------------------
# The compositions the fused nodes replaced
# ---------------------------------------------------------------------------

def reference_rgcn_forward(layer, relation_adjacencies, x):
    out = x @ layer.self_weight
    for relation, adjacency in enumerate(relation_adjacencies):
        if adjacency.nnz == 0:
            continue
        coeff = layer.coefficients[relation]
        bases_flat = layer.bases.reshape(layer.num_bases,
                                         layer.in_features * layer.out_features)
        weight = (coeff.reshape(1, layer.num_bases) @ bases_flat).reshape(
            layer.in_features, layer.out_features)
        out = out + spmm(adjacency, x @ weight)
    if layer.bias is not None:
        out = out + layer.bias
    return out


def reference_bce(logits, targets):
    targets_t = Tensor(np.asarray(targets, dtype=np.float64))
    relu_x = logits.relu()
    abs_x = relu_x + (-logits).relu()
    softplus = (Tensor(1.0) + (-abs_x).exp()).log()
    return (softplus + relu_x - logits * targets_t).mean()


def reference_morse_score(model, entity_embeddings, triples, buffers=None):
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    heads = gather_rows(entity_embeddings, triples[:, 0])
    relations = model.relation_embeddings(triples[:, 1])
    tails = gather_rows(entity_embeddings, triples[:, 2])
    if model.decoder == "distmult":
        return (heads * relations * tails).sum(axis=1)
    difference = heads + relations - tails
    distance = (difference.relu() + (-difference).relu()).sum(axis=1)
    return Tensor(np.full((distance.shape[0],), model.margin)) - distance


def reference_morse_loss(model, entity_embeddings, positives, negatives):
    return reference_bce(reference_morse_score(model, entity_embeddings, positives),
                         np.ones(len(positives))) + \
        reference_bce(reference_morse_score(model, entity_embeddings, negatives),
                      np.zeros(len(negatives)))


def gradients_of(parameters, loss):
    """The gradients ``loss.backward()`` leaves on ``parameters`` (then cleared)."""
    for parameter in parameters:
        parameter.zero_grad()
    loss.backward()
    grads = [parameter.grad for parameter in parameters]
    for parameter in parameters:
        parameter.zero_grad()
    return grads


def same_bits(got, expected):
    """Equal shapes and bytes: stricter than ``array_equal``, which calls
    ``0.0`` and ``-0.0`` equal."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def assert_same_gradients(fused, reference):
    assert len(fused) == len(reference)
    for got, expected in zip(fused, reference):
        assert (got is None) == (expected is None)
        if expected is not None:
            assert same_bits(got, expected)


# ---------------------------------------------------------------------------
# RGCNConv
# ---------------------------------------------------------------------------

#: relation densities (0.0 is a relation without edges), bases, bias.
RGCN_CASES = {
    "empty relations": ((0.3, 0.0, 0.5, 0.0, 0.2), 2, True),
    "one relation": ((0.4,), 1, True),
    "no bias": ((0.2, 0.5, 0.3), 2, False),
    "no relation has edges": ((0.0, 0.0), 2, True),
}


def rgcn_case(case, inputs):
    """A layer, its adjacencies, the leaves to differentiate and an ``x`` maker."""
    densities, num_bases, bias = RGCN_CASES[case]
    rng = np.random.default_rng(3)
    adjacencies = [sp.random(9, 9, density=density, format="csr",
                             random_state=np.random.RandomState(index))
                   for index, density in enumerate(densities)]
    layer = RGCNConv(4, 3, num_relations=len(densities), num_bases=num_bases,
                     bias=bias, seed=1)
    features = rng.normal(size=(9, 4))
    if inputs == "constant":
        return layer, adjacencies, layer.parameters(), lambda: Tensor(features)
    source = Parameter(features)
    make_x = (lambda: source) if inputs == "leaf" else (lambda: source * 1.5)
    return layer, adjacencies, layer.parameters() + [source], make_x


class TestRGCNConvNode:
    @pytest.mark.parametrize("inputs", ["constant", "leaf", "hidden"])
    @pytest.mark.parametrize("case", sorted(RGCN_CASES))
    def test_forward_and_gradients_equal_the_composition(self, case, inputs):
        layer, adjacencies, parameters, make_x = rgcn_case(case, inputs)
        out = layer(adjacencies, make_x())
        reference = reference_rgcn_forward(layer, adjacencies, make_x())
        assert same_bits(out.data, reference.data)
        upstream = Tensor(np.random.default_rng(5).normal(size=out.shape))
        assert_same_gradients(gradients_of(parameters, (out * upstream).sum()),
                              gradients_of(parameters, (reference * upstream).sum()))

    @pytest.mark.parametrize("case", sorted(RGCN_CASES))
    def test_gradient_check(self, case):
        layer, adjacencies, parameters, make_x = rgcn_case(case, "hidden")
        loss = lambda: (layer(adjacencies, make_x()) ** 2).sum()  # noqa: E731
        reached = gradients_of(parameters, loss())
        for parameter, grad in zip(parameters, reached):
            if grad is not None:
                check_gradient(loss, parameter)

    def test_is_one_node(self):
        layer, adjacencies, _, make_x = rgcn_case("empty relations", "leaf")
        out = layer(adjacencies, make_x())
        assert out._children == (make_x(), layer.self_weight, layer.bases,
                                 layer.coefficients, layer.bias)


# ---------------------------------------------------------------------------
# binary_cross_entropy_with_logits
# ---------------------------------------------------------------------------

BCE_CASES = {
    "mixed": (np.random.default_rng(1).normal(size=12) * 3.0,
              np.random.default_rng(2).integers(0, 2, size=12)),
    "beyond the clip": (np.array([-75.0, -61.0, 61.0, 80.0, -300.0, 120.0]),
                        np.array([1, 0, 1, 0, 0, 1])),
    "zeros": (np.array([0.0, -0.0, 0.0, 1.5, -2.0]), np.array([1, 0, 0, 1, 1])),
    "2-D": (np.random.default_rng(3).normal(size=(3, 4)),
            np.random.default_rng(4).integers(0, 2, size=(3, 4))),
}


class TestBinaryCrossEntropyNode:
    @pytest.mark.parametrize("inputs", ["leaf", "hidden"])
    @pytest.mark.parametrize("case", sorted(BCE_CASES))
    def test_forward_and_gradient_equal_the_composition(self, case, inputs):
        values, targets = BCE_CASES[case]
        source = Parameter(values.copy())
        make_x = (lambda: source) if inputs == "leaf" else (lambda: source * 0.75)
        # Two losses summed, as every caller does: each node receives the
        # upstream gradient of an ``add``.
        fused = binary_cross_entropy_with_logits(make_x(), targets) + \
            binary_cross_entropy_with_logits(make_x(), 1 - targets)
        composed = reference_bce(make_x(), targets) + reference_bce(make_x(), 1 - targets)
        assert same_bits(fused.data, composed.data)
        assert_same_gradients(gradients_of([source], fused),
                              gradients_of([source], composed))

    @pytest.mark.parametrize("case", ["mixed", "beyond the clip", "2-D"])
    def test_gradient_check(self, case):
        """At exactly 0 the composition takes ``relu``'s one-sided gradient,
        not the derivative, so the zeros case is pinned to the composition."""
        values, targets = BCE_CASES[case]
        source = Parameter(values.copy())
        check_gradient(lambda: binary_cross_entropy_with_logits(source, targets), source)

    def test_is_one_node(self):
        source = Parameter(np.ones(3))
        loss = binary_cross_entropy_with_logits(source, np.ones(3))
        assert loss._children == (source,)


# ---------------------------------------------------------------------------
# MorsE.score
# ---------------------------------------------------------------------------

#: Repeated heads, tails and whole triples.
MORSE_TRIPLES = np.array([[0, 1, 2], [0, 2, 2], [3, 0, 0], [3, 1, 5],
                          [0, 1, 2], [5, 2, 3], [2, 0, 2]])
NUM_ENTITIES = 6


def morse_case(decoder, num_negatives, epoch=0):
    model = MorsE(num_relations=3, dim=5, decoder=decoder, seed=0)
    negatives = NegativeSampler(NUM_ENTITIES, num_negatives=num_negatives,
                                seed=epoch).corrupt(MORSE_TRIPLES)
    return model, negatives


class TestMorsEScoreNode:
    @pytest.mark.parametrize("decoder", ["distmult", "transe"])
    def test_forward_and_gradients_equal_the_composition(self, decoder):
        model, _ = morse_case(decoder, 1)
        entities = Parameter(np.random.default_rng(0).normal(size=(NUM_ENTITIES, 5)))
        parameters = [entities, model.relation_embeddings.weight]
        out = model.score(entities, MORSE_TRIPLES)
        reference = reference_morse_score(model, entities, MORSE_TRIPLES)
        assert same_bits(out.data, reference.data)
        upstream = Tensor(np.random.default_rng(1).normal(size=out.shape))
        assert_same_gradients(gradients_of(parameters, (out * upstream).sum()),
                              gradients_of(parameters, (reference * upstream).sum()))

    @pytest.mark.parametrize("num_negatives", [1, 3])
    @pytest.mark.parametrize("decoder", ["distmult", "transe"])
    def test_buffered_steps_equal_the_composition(self, decoder, num_negatives):
        """Steps reusing one run's buffers, the negatives' as many as the
        positives' when ``num_negatives == 1``: each step's loss and
        gradients are the composition's, through the composed entities."""
        buffers = {}
        for epoch in range(3):
            model, negatives = morse_case(decoder, num_negatives, epoch)
            parameters = model.parameters()
            fused = model.loss(model.compose_entity_embeddings(MORSE_TRIPLES, NUM_ENTITIES),
                               MORSE_TRIPLES, negatives, buffers)
            composed = reference_morse_loss(
                model, model.compose_entity_embeddings(MORSE_TRIPLES, NUM_ENTITIES),
                MORSE_TRIPLES, negatives)
            assert same_bits(fused.data, composed.data)
            assert_same_gradients(gradients_of(parameters, fused),
                                  gradients_of(parameters, composed))
        assert sorted(buffers) == ["negatives", "positives"]

    @pytest.mark.parametrize("decoder", ["distmult", "transe"])
    def test_gradient_check(self, decoder):
        model, negatives = morse_case(decoder, 2)
        entities = Parameter(np.random.default_rng(0).normal(size=(NUM_ENTITIES, 5)))
        buffers = {}
        loss = lambda: model.loss(entities, MORSE_TRIPLES, negatives, buffers)  # noqa: E731
        for parameter in (entities, model.relation_embeddings.weight):
            check_gradient(loss, parameter)

    def test_is_one_node(self):
        model, _ = morse_case("distmult", 1)
        entities = Parameter(np.ones((NUM_ENTITIES, 5)))
        out = model.score(entities, MORSE_TRIPLES)
        assert out._children == (entities, model.relation_embeddings.weight, entities)


# ---------------------------------------------------------------------------
# Whole training runs
# ---------------------------------------------------------------------------

def trainer_for(shape, nc_data, lp_data, epochs, **options):
    if shape == "T3-morse-transe":
        return MorsETrainer(MorsE(lp_data.num_relations, dim=16, decoder="transe", seed=0),
                            lp_data, epochs=epochs, triples_per_subkg=300,
                            subkgs_per_epoch=3, num_negatives=8, learning_rate=0.05,
                            **options)
    return tiny_trainer(shape, nc_data, lp_data, epochs, **options)


def outcome(result):
    """Parameter bytes, history and metrics of one training run."""
    return ([parameter.data.tobytes() for parameter in result.model.parameters()],
            result.history, result.metrics)


def run(trainer):
    return outcome(trainer.train())


def run_and_peak(trainer):
    """:func:`run`'s outcome and the peak the run's ledger booked."""
    result = trainer.train()
    return outcome(result), result.usage.peak_memory_bytes


class TestTrainingRuns:
    @pytest.mark.parametrize("shape", ALL_SHAPES + ["T3-morse-transe"])
    def test_runs_equal_runs_of_the_compositions(self, shape, dblp_nc_data, dblp_lp_data,
                                                 monkeypatch):
        fused = run(trainer_for(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=3))
        monkeypatch.setattr(RGCNConv, "forward", reference_rgcn_forward)
        monkeypatch.setattr(MorsE, "score", reference_morse_score)
        monkeypatch.setattr(kge_base, "binary_cross_entropy_with_logits", reference_bce)
        monkeypatch.setattr(kge_morse, "binary_cross_entropy_with_logits", reference_bce)
        composed = run(trainer_for(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=3))
        assert fused == composed

    @pytest.mark.concurrency
    @pytest.mark.parametrize("repeat", range(STRESS_REPEATS))
    @pytest.mark.parametrize("shapes", [
        (("T3-morse", {}), ("T3-morse", {"seed": 1}), ("T3-morse", {"seed": 2})),
        (("T1-graph_saint", {}), ("T3-morse", {}), ("T2-rgcn-on-subgraph", {})),
    ], ids=["morse-morse-morse", "saint-morse-rgcn"])
    def test_concurrent_runs_equal_runs_alone(self, shapes, repeat, dblp_nc_data,
                                              dblp_lp_data):
        """Runs on more threads than cores, switching often, end exactly as
        each run alone and report the peak they report alone: no step
        buffer, gradient mode or memory ledger is shared."""
        def trainer(index):
            shape, options = shapes[index]
            return trainer_for(shape, dblp_nc_data[0], dblp_lp_data[0], epochs=6, **options)

        alone = [run_and_peak(trainer(index)) for index in range(len(shapes))]
        together = [None] * len(shapes)
        trainers = [trainer(index) for index in range(len(shapes))]
        threads = [threading.Thread(
            target=lambda i=i: together.__setitem__(i, run_and_peak(trainers[i])))
            for i in range(len(shapes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert together == alone


@pytest.fixture()
def recorded_buffers(monkeypatch):
    """Weak references to every step buffer a ``MorsE.loss`` call is handed."""
    refs = []
    loss = MorsE.loss

    def recording(self, entity_embeddings, positives, negatives, buffers=None):
        out = loss(self, entity_embeddings, positives, negatives, buffers)
        refs.extend(weakref.ref(array) for site in (buffers or {}).values()
                    for array in site.values())
        return out

    monkeypatch.setattr(MorsE, "loss", recording)
    return refs


class TestStepBuffers:
    def test_no_buffer_outlives_its_run(self, recorded_buffers, dblp_nc_data, dblp_lp_data):
        """With the trainer and the trained model still alive, every buffer
        the run used is gone."""
        trainer = tiny_trainer("T3-morse", dblp_nc_data[0], dblp_lp_data[0], epochs=2)
        result = trainer.train()
        gc.collect()
        assert recorded_buffers
        assert all(ref() is None for ref in recorded_buffers)
        assert result.model is trainer.model

    def test_a_stored_traingml_model_holds_no_buffer(self, recorded_buffers, fresh_platform):
        report = fresh_platform.train_task(dblp_author_affiliation_task(), method="morse",
                                           meta_sampling="d2h1")
        stored = fresh_platform.gmlaas.model_store.get(report.model_uri)
        gc.collect()
        assert isinstance(stored.scorer, MorsE)
        assert recorded_buffers
        assert all(ref() is None for ref in recorded_buffers)
