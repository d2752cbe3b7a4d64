"""Unit tests for GNN layers, models, modules and optimizers."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ShapeError, TrainingError
from repro.gml.autograd import Parameter, Tensor, cross_entropy
from repro.gml.nn import (
    GAT,
    GCN,
    RGCN,
    Adam,
    GATConv,
    GCNConv,
    Module,
    RGCNConv,
    clip_grad_norm,
    xavier_uniform,
)
from tests.gml.test_autograd import to_csr
from tests.gml.test_data_transform import small_graph_data


class TestLayers:
    def test_gcn_conv_aggregates_neighbors(self):
        adjacency = to_csr(sp.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]])))
        layer = GCNConv(2, 2)
        out = layer(adjacency, Tensor(np.eye(2)))
        assert out.shape == (2, 2)

    def test_gcn_conv_shape_mismatch(self):
        layer = GCNConv(4, 3)
        with pytest.raises(ShapeError):
            layer(to_csr(sp.eye(5, format="csr")), Tensor(np.ones((5, 6))))

    def test_rgcn_conv_requires_matching_relations(self):
        layer = RGCNConv(3, 2, num_relations=2)
        with pytest.raises(ShapeError):
            layer([to_csr(sp.eye(4, format="csr"))], Tensor(np.ones((4, 3))))

    def test_rgcn_basis_decomposition_bounds_parameters(self):
        many = RGCNConv(8, 8, num_relations=40, num_bases=4)
        few = RGCNConv(8, 8, num_relations=2, num_bases=2)
        assert many.num_bases == 4
        assert many.bases.data.shape[0] == 4
        assert few.coefficients.data.shape == (2, 2)

    def test_rgcn_forward_shape(self):
        data = small_graph_data()
        layer = RGCNConv(4, 5, num_relations=data.num_relations)
        out = layer(data.relation_adjacencies(), Tensor(data.features))
        assert out.shape == (data.num_nodes, 5)

    def test_gat_conv_attention_sums_to_one(self):
        data = small_graph_data()
        layer = GATConv(4, 6)
        out = layer(data.edge_index, data.num_nodes, Tensor(data.features))
        assert out.shape == (data.num_nodes, 6)

    def test_gat_gradients_flow_to_attention(self):
        data = small_graph_data()
        layer = GATConv(4, 3)
        out = layer(data.edge_index, data.num_nodes, Tensor(data.features))
        loss = (out ** 2).sum()
        loss.backward()
        assert layer.attn_src.grad is not None
        assert np.abs(layer.attn_src.grad).sum() > 0


class TestModule:
    def test_parameter_discovery_nested(self):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.inner = GCNConv(3, 2)
                self.items = [GCNConv(2, 2), GCNConv(2, 1)]
                self.table = {"x": Parameter(np.zeros(3))}
                self.again = self.inner

        wrapper = Wrapper()
        assert len(wrapper.parameters()) == 2 + 2 + 2 + 1
        # Depth-first in attribute order; a shared module counts once.
        expected = (wrapper.inner.parameters() + wrapper.items[0].parameters()
                    + wrapper.items[1].parameters() + [wrapper.table["x"]])
        assert [id(p) for p in wrapper.parameters()] == [id(p) for p in expected]
        assert wrapper.num_parameters() > 0
        assert wrapper.parameter_bytes() == sum(p.data.nbytes for p in wrapper.parameters())

    def test_parameter_walks_leave_nothing_for_the_collector(self):
        """With the collector off, counting a model's parameters leaves no
        reference cycle behind."""
        model = RGCN(4, 8, 3, num_relations=3, num_bases=2)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                model.parameters()
                model.parameter_bytes()
                model.num_parameters()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_train_eval_propagates(self):
        model = GCN(4, 8, 2)
        model.eval()
        assert not model.training
        model.train()
        assert model.training

    def test_zero_grad(self):
        model = GCN(4, 8, 2)
        data = small_graph_data()
        loss = cross_entropy(model.forward(data), np.zeros(data.num_nodes, dtype=int))
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self):
        model = GCN(4, 8, 3, seed=0)
        other = GCN(4, 8, 3, seed=99)
        other.load_state_dict(model.state_dict())
        for a, b in zip(model.parameters(), other.parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_shape_mismatch(self):
        model = GCN(4, 8, 3)
        other = GCN(4, 16, 3)
        with pytest.raises(ValueError):
            other.load_state_dict(model.state_dict())

    def test_state_dict_missing_key(self):
        model = GCN(4, 8, 3)
        state = model.state_dict()
        state.pop("param_0")
        with pytest.raises(KeyError):
            model.load_state_dict(state)


class TestModels:
    @pytest.mark.parametrize("model_class", [GCN, GAT])
    def test_forward_shape(self, model_class):
        data = small_graph_data()
        model = model_class(data.feature_dim, 8, data.num_classes)
        logits = model.forward(data)
        assert logits.shape == (data.num_nodes, data.num_classes)

    def test_rgcn_forward_shape_and_relation_check(self):
        data = small_graph_data()
        model = RGCN(data.feature_dim, 8, data.num_classes, data.num_relations)
        assert model.forward(data).shape == (data.num_nodes, data.num_classes)
        wrong = RGCN(data.feature_dim, 8, data.num_classes, data.num_relations + 3)
        with pytest.raises(TrainingError):
            wrong.forward(data)

    def test_predict(self):
        data = small_graph_data()
        model = GCN(data.feature_dim, 8, data.num_classes)
        predictions = model.predict(data)
        assert predictions.shape == (data.num_nodes,)
        subset = model.predict(data, nodes=np.array([0, 1]))
        assert subset.shape == (2,)

    def test_models_require_at_least_one_layer(self):
        with pytest.raises(TrainingError):
            GCN(4, 8, 2, num_layers=0)
        with pytest.raises(TrainingError):
            RGCN(4, 8, 2, 2, num_layers=0)
        with pytest.raises(TrainingError):
            GAT(4, 8, 2, num_layers=0)

    def test_training_reduces_loss(self):
        data = small_graph_data()
        model = GCN(data.feature_dim, 16, data.num_classes, seed=0)
        optimizer = Adam(model.parameters(), lr=0.05)
        train_nodes = np.flatnonzero(data.train_mask)
        losses = []
        for _ in range(30):
            optimizer.zero_grad()
            logits = model.forward(data)
            loss = cross_entropy(logits[train_nodes], data.labels[train_nodes])
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]


class TestOptimizers:
    def _quadratic(self):
        target = np.array([3.0, -2.0])
        parameter = Parameter(np.zeros(2))

        def loss_fn():
            difference = parameter - Tensor(target)
            return (difference * difference).sum()

        return parameter, loss_fn, target

    def test_adam_converges(self):
        parameter, loss_fn, target = self._quadratic()
        optimizer = Adam([parameter], lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
        assert np.allclose(parameter.data, target, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        parameter = Parameter(np.ones(3) * 10)
        optimizer = Adam([parameter], lr=0.1, weight_decay=0.5)
        parameter.grad = np.zeros(3)
        optimizer.step()
        assert (np.abs(parameter.data) < 10).all()

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_adam_updates_each_parameter_as_alone(self, weight_decay):
        """Adam runs on the parameters laid end to end; every element ends
        with the bits of a per-parameter update, also on steps where some
        parameter has no gradient."""
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (5,), (2, 2, 2)]
        parameters = [Parameter(rng.standard_normal(shape)) for shape in shapes]
        expected = [parameter.data.copy() for parameter in parameters]
        moments = [(np.zeros(shape), np.zeros(shape)) for shape in shapes]
        optimizer = Adam(parameters, lr=0.05, weight_decay=weight_decay)
        for step in range(1, 5):
            optimizer.zero_grad()
            for index, parameter in enumerate(parameters):
                if step == 3 and index == 1:
                    continue
                grad = rng.standard_normal(parameter.data.shape)
                parameter.grad = grad
                if weight_decay:
                    grad = grad + weight_decay * expected[index]
                m, v = moments[index]
                m *= Adam.beta1
                m += (1 - Adam.beta1) * grad
                v *= Adam.beta2
                v += (1 - Adam.beta2) * grad ** 2
                m_hat = m / (1 - Adam.beta1 ** step)
                v_hat = v / (1 - Adam.beta2 ** step)
                expected[index] = expected[index] - 0.05 * m_hat / (np.sqrt(v_hat) + Adam.eps)
            optimizer.step()
            for parameter, data in zip(parameters, expected):
                assert parameter.data.shape == data.shape
                assert parameter.data.tobytes() == data.tobytes()

    def test_invalid_configuration(self):
        with pytest.raises(TrainingError):
            Adam([], lr=0.1)
        with pytest.raises(TrainingError):
            Adam([Parameter(np.ones(1))], lr=-1)

    def test_clip_grad_norm(self):
        parameter = Parameter(np.ones(4))
        parameter.grad = np.ones(4) * 10.0
        norm = clip_grad_norm([parameter], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_xavier_uniform_bounds(self):
        weights = xavier_uniform((100, 50), seed=0)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(weights).max() <= bound + 1e-12
