"""Unit tests for the numpy autograd engine, including numeric gradient checks."""

import numpy as np
import pytest
import scipy.sparse as sp

import gc
import threading
import weakref

from repro.exceptions import AutogradError, ShapeError
from repro.gml.autograd import (
    CSR,
    Embedding,
    Parameter,
    Tensor,
    binary_cross_entropy_with_logits,
    concatenate,
    cross_entropy,
    dropout,
    gather_rows,
    log_softmax,
    no_grad,
    softmax,
    sparse_product,
    spmm,
    stack,
)


def to_csr(matrix):
    """A scipy sparse matrix as the engine's :class:`CSR` (the same arrays)."""
    matrix = matrix.tocsr()
    return CSR(matrix.data, matrix.indices, matrix.indptr, matrix.shape, matrix.nnz)


def to_scipy(csr):
    """A :class:`CSR` as a scipy ``csr_matrix``, for scipy's methods."""
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


def numeric_gradient(fn, parameter, eps=1e-6):
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``parameter``."""
    grad = np.zeros_like(parameter.data)
    flat = parameter.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = fn().item()
        flat[index] = original - eps
        minus = fn().item()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(fn, parameter, tolerance=1e-5):
    parameter.zero_grad()
    loss = fn()
    loss.backward()
    analytic = parameter.grad
    numeric = numeric_gradient(fn, parameter)
    assert analytic is not None
    assert np.abs(analytic - numeric).max() < tolerance


@pytest.fixture()
def rng_local():
    return np.random.default_rng(7)


class TestTensorBasics:
    def test_construction_and_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2 and t.size == 4

    def test_item_and_numpy(self):
        assert Tensor([3.0]).item() == 3.0
        assert isinstance(Tensor([1.0]).numpy(), np.ndarray)

    def test_detach_breaks_graph(self):
        p = Parameter([1.0, 2.0])
        detached = (p * 2).detach()
        assert not detached.requires_grad

    def test_backward_requires_scalar(self):
        p = Parameter([[1.0, 2.0]])
        with pytest.raises(AutogradError):
            (p * 2).backward()

    def test_no_grad_disables_tracking(self):
        p = Parameter([1.0, 2.0])
        with no_grad():
            out = (p * 3).sum()
        assert out._backward_fn is None

    def test_no_grad_is_per_thread(self):
        """One thread evaluating under no_grad() leaves another's graph alone."""
        entered, built = threading.Event(), threading.Event()

        def evaluate():
            with no_grad():
                entered.set()
                built.wait(5)

        thread = threading.Thread(target=evaluate)
        thread.start()
        try:
            assert entered.wait(5)
            p = Parameter([1.0, 2.0])
            out = (p * 3).sum()
        finally:
            built.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert out._backward_fn is not None
        out.backward()
        assert np.array_equal(p.grad, [3.0, 3.0])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_spmm_requires_sparse(self):
        with pytest.raises(AutogradError):
            spmm(np.ones((2, 2)), Tensor(np.ones((2, 2))))


class TestGradients:
    def test_addition_and_broadcasting(self, rng_local):
        p = Parameter(rng_local.normal(size=(3,)))
        x = Tensor(rng_local.normal(size=(4, 3)))
        check_gradient(lambda: ((x + p) ** 2).sum(), p)

    def test_subtraction_and_negation(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 2)))
        check_gradient(lambda: ((-p - 1.5) ** 2).mean(), p)

    def test_multiplication(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 3)))
        x = Tensor(rng_local.normal(size=(3, 3)))
        check_gradient(lambda: (p * x * p).sum(), p)

    def test_division(self, rng_local):
        p = Parameter(rng_local.normal(size=(3,)) + 3.0)
        check_gradient(lambda: (Tensor([1.0, 2.0, 3.0]) / p).sum(), p)

    def test_power(self, rng_local):
        p = Parameter(np.abs(rng_local.normal(size=(4,))) + 0.5)
        check_gradient(lambda: (p ** 3).sum(), p)

    def test_matmul(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 3)) * 0.3)
        x = Tensor(rng_local.normal(size=(5, 4)))
        check_gradient(lambda: ((x @ p) ** 2).sum(), p)

    def test_spmm(self, rng_local):
        adjacency = to_csr(sp.random(6, 6, density=0.4, format="csr",
                                     random_state=np.random.RandomState(0)))
        p = Parameter(rng_local.normal(size=(6, 3)) * 0.3)
        check_gradient(lambda: (spmm(adjacency, p) ** 2).sum(), p)

    def test_relu_and_leaky_relu(self, rng_local):
        p = Parameter(rng_local.normal(size=(10,)) + 0.1)
        check_gradient(lambda: (p.relu() * 2).sum(), p)
        check_gradient(lambda: (p.leaky_relu(0.1) * 2).sum(), p)

    def test_sigmoid_tanh_exp_log(self, rng_local):
        p = Parameter(rng_local.normal(size=(6,)) * 0.5 + 1.5)
        check_gradient(lambda: p.sigmoid().sum(), p)
        check_gradient(lambda: p.tanh().sum(), p)
        check_gradient(lambda: p.exp().sum(), p, tolerance=1e-4)
        check_gradient(lambda: p.log().sum(), p)

    def test_sum_mean_axes(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 4)))
        check_gradient(lambda: (p.sum(axis=0) ** 2).sum(), p)
        check_gradient(lambda: (p.mean(axis=1) ** 2).sum(), p)

    def test_reshape_and_transpose(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 4)))
        check_gradient(lambda: ((p.reshape(4, 3) @ p) ** 2).sum(), p)
        check_gradient(lambda: ((p.T @ p) ** 2).sum(), p)

    def test_getitem_rows_and_slices(self, rng_local):
        p = Parameter(rng_local.normal(size=(5, 4)))
        indices = np.array([0, 2, 2, 4])
        check_gradient(lambda: (p[indices] ** 2).sum(), p)
        check_gradient(lambda: (p[:, :2] * p[:, 2:]).sum(), p)

    def test_gather_rows_duplicates_accumulate(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 3)))
        indices = np.array([1, 1, 1])
        check_gradient(lambda: gather_rows(p, indices).sum(), p)
        loss = gather_rows(p, indices).sum()
        p.zero_grad()
        loss = gather_rows(p, indices).sum()
        loss.backward()
        assert p.grad[1].sum() == pytest.approx(9.0)  # 3 rows x 3 columns of ones

    def test_concatenate_and_stack(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 2)))
        q = Tensor(rng_local.normal(size=(3, 2)))
        check_gradient(lambda: (concatenate([p, q], axis=1) ** 2).sum(), p)
        check_gradient(lambda: (stack([p, q], axis=0) ** 2).sum(), p)

    def test_softmax_and_log_softmax(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 5)))
        check_gradient(lambda: (softmax(p, axis=-1)[:, 0]).sum(), p)
        check_gradient(lambda: (log_softmax(p, axis=-1)[:, 1]).sum(), p)

    def test_cross_entropy(self, rng_local):
        p = Parameter(rng_local.normal(size=(6, 4)) * 0.5)
        targets = np.array([0, 1, 2, 3, 1, 2])
        check_gradient(lambda: cross_entropy(p, targets), p)

    def test_cross_entropy_with_weights(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 3)) * 0.5)
        targets = np.array([0, 1, 2, 1])
        weights = np.array([1.0, 2.0, 0.5, 1.5])
        check_gradient(lambda: cross_entropy(p, targets, weight=weights), p)

    def test_binary_cross_entropy(self, rng_local):
        p = Parameter(rng_local.normal(size=(8,)))
        targets = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=float)
        check_gradient(lambda: binary_cross_entropy_with_logits(p, targets), p)

    def test_gradient_accumulates_across_backward_calls(self):
        p = Parameter([1.0, 2.0])
        (p * 2).sum().backward()
        first = p.grad.copy()
        (p * 2).sum().backward()
        assert np.allclose(p.grad, 2 * first)

    def test_gradients_are_never_shared_arrays(self):
        """``a + b`` hands both operands the same array: each keeps a copy, so
        scaling one gradient in place leaves the other, and the caller's, alone."""
        a, b = Parameter([1.0, 2.0]), Parameter([3.0, 4.0])
        upstream = np.array([1.0, 1.0])
        (a + b).backward(upstream)
        assert a.grad is not b.grad and a.grad is not upstream
        a.grad *= 10.0
        assert np.array_equal(b.grad, [1.0, 1.0]) and np.array_equal(upstream, [1.0, 1.0])

    def test_chained_graph_reuse(self, rng_local):
        p = Parameter(rng_local.normal(size=(3,)))
        shared = p * 2
        loss = (shared * shared).sum() + shared.sum()
        loss.backward()
        numeric = numeric_gradient(
            lambda: ((p * 2) * (p * 2)).sum() + (p * 2).sum(), p)
        assert np.abs(p.grad - numeric).max() < 1e-5


def reference_scatter(shape, index, grad):
    """The scatter the engine used before it had ``_scatter``."""
    full = np.zeros(shape)
    np.add.at(full, index, grad)
    return full


#: (source shape, index): every index shape the engine back-propagates through.
SCATTER_CASES = {
    "repeated rows": ((7, 5), np.array([0, 2, 2, 6, 2, 0, 2, 2, 6, 2, 2])),
    "no rows": ((4, 3), np.zeros(0, dtype=np.int64)),
    "1-D source": ((9,), np.array([8, 1, 1, 1, 8, 0])),
    "1-D source, no rows": ((9,), np.zeros(0, dtype=np.int64)),
    "3-D source": ((4, 2, 3), np.array([3, 3, 0, 3])),
    "negative rows": ((5, 2), np.array([-1, 0, -1, 4])),
    "cross-entropy pick": ((6, 4), (np.arange(6), np.array([0, 3, 3, 1, 0, 2]))),
    "repeated cells": ((3, 3), (np.array([1, 1, 1, 2]), np.array([0, 0, 0, 2]))),
    "column slices": ((5, 4), (slice(None), slice(0, 2))),
    "one row": ((5, 4), 3),
    "one row from the end": ((5, 4), -2),
    "one cell": ((5, 4), (2, 1)),
    "one column": ((5, 4), (slice(None), 3)),
    "strided rows": ((9, 2), slice(7, 1, -2)),
    "one element of a 1-D source": ((9,), np.int64(4)),
    "list of rows": ((5, 4), [4, 4, 0]),
    "boolean mask": ((5,), np.array([True, False, True, True, False])),
    "2-D row index": ((6, 2), np.array([[0, 5], [5, 5]])),
}


class TestScatterGradient:
    """``source[index]`` back-propagates exactly what ``np.add.at`` scattered:
    same positions, same order of accumulation, so the same bits."""

    @pytest.mark.parametrize("case", sorted(SCATTER_CASES))
    def test_equals_add_at_to_the_bit(self, case):
        shape, index = SCATTER_CASES[case]
        rng = np.random.default_rng(11)
        source = Parameter(rng.normal(size=shape))
        picked = source[index]
        upstream = rng.normal(size=picked.shape) * 10.0 ** rng.integers(-8, 8, picked.shape)
        picked.backward(upstream)
        assert source.grad.shape == shape
        assert np.array_equal(source.grad, reference_scatter(shape, index, upstream))

    @pytest.mark.parametrize("shape", [(50, 8), (50,)])
    def test_gather_rows_equals_add_at_to_the_bit(self, shape):
        rng = np.random.default_rng(5)
        source = Parameter(rng.normal(size=shape))
        indices = rng.integers(0, 50, size=4000)   # ~80 additions per row
        picked = gather_rows(source, indices)
        upstream = rng.normal(size=picked.shape)
        picked.backward(upstream)
        assert np.array_equal(source.grad, reference_scatter(shape, indices, upstream))

    @pytest.mark.parametrize("case", ["one row", "one row from the end", "one cell",
                                      "one column", "column slices", "strided rows",
                                      "one element of a 1-D source"])
    def test_basic_index_is_one_assignment(self, case, monkeypatch):
        """Ints and slices repeat no position: nothing enumerates the source."""
        shape, index = SCATTER_CASES[case]

        def enumerated(*args, **kwargs):
            raise AssertionError("a basic index went through the general path")

        monkeypatch.setattr(np, "bincount", enumerated)
        monkeypatch.setattr(np, "arange", enumerated)
        source = Parameter(np.ones(shape))
        picked = source[index]
        picked.backward(np.full(picked.shape, 2.0))
        assert source.grad.sum() == 2.0 * picked.size

    def test_gradients_of_every_index_shape(self, rng_local):
        for case, (shape, index) in sorted(SCATTER_CASES.items()):
            if np.size(np.empty(shape)[index]):
                p = Parameter(rng_local.normal(size=shape))
                check_gradient(lambda: (p[index] ** 2).sum(), p)


class TestSpmmTranspose:
    def test_backward_builds_no_transpose(self, rng_local, monkeypatch):
        """``A.T @ grad`` reads A's CSR arrays as CSC: no transposed matrix
        is built, and the gradient has the bits of scipy's product."""
        adjacency = sp.random(6, 6, density=0.4, format="csr",
                              random_state=np.random.RandomState(0))
        calls = []
        transpose = sp.csr_matrix.transpose
        monkeypatch.setattr(sp.csr_matrix, "transpose",
                            lambda self, *a, **k: calls.append(1) or transpose(self, *a, **k))
        p = Parameter(rng_local.normal(size=(6, 3)))
        csr = to_csr(adjacency)
        spmm(csr, spmm(csr, p)).sum().backward()
        assert calls == []
        monkeypatch.undo()
        expected = adjacency.T @ (adjacency.T @ np.ones((6, 3)))
        assert p.grad.tobytes() == expected.tobytes()
        p.zero_grad()
        check_gradient(lambda: (spmm(csr, spmm(csr, p)) ** 2).sum(), p)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("width", [1, 3, 17])
    def test_sparse_product_has_the_bits_of_scipys(self, index_dtype, width):
        rng = np.random.default_rng(width)
        matrix = sp.random(40, 25, density=0.2, format="csr", random_state=1)
        matrix = sp.csr_matrix((matrix.data, matrix.indices.astype(index_dtype),
                                matrix.indptr.astype(index_dtype)), shape=matrix.shape)
        for transposed, dense in ((False, rng.standard_normal((25, width))),
                                  (True, rng.standard_normal((40, width)).T.copy().T)):
            expected = (matrix.T if transposed else matrix) @ dense
            got = sparse_product(to_csr(matrix), dense, transposed=transposed)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            with pytest.raises(ShapeError):
                sparse_product(to_csr(matrix), dense[1:], transposed=transposed)


class TestTape:
    """backward() sorts without recursion and frees the graph it walked."""

    def test_intermediates_die_by_reference_count(self):
        p = Parameter(np.ones((4, 4)))
        gc.collect()
        gc.disable()
        try:
            hidden = (p @ p).relu()
            loss = (hidden * 2.0).sum()
            probe = weakref.ref(hidden)
            del hidden
            assert probe() is not None      # the tape holds it
            loss.backward()
            assert probe() is None          # nothing does, and no collection ran
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deep_chain_needs_no_recursion(self):
        p = Parameter([1.0, 2.0])
        out = p
        for _ in range(5000):
            out = out + 1.0
        out.sum().backward()
        assert np.array_equal(p.grad, [1.0, 1.0])

    def test_second_backward_through_a_freed_graph_raises(self):
        p = Parameter([1.0, 2.0])
        shared = p * 2
        loss = (shared * shared).sum()
        loss.backward()
        with pytest.raises(AutogradError):
            loss.backward()
        with pytest.raises(AutogradError):
            (shared + 1.0).sum().backward()     # a new graph over freed nodes


class TestDropoutAndEmbedding:
    def test_dropout_identity_in_eval(self, rng_local):
        x = Tensor(rng_local.normal(size=(10, 10)))
        assert np.allclose(dropout(x, 0.5, training=False).data, x.data)
        assert np.allclose(dropout(x, 0.0, training=True).data, x.data)

    def test_dropout_scales_kept_units(self, rng_local):
        x = Tensor(np.ones((1000, 10)))
        dropped = dropout(x, 0.5, training=True, rng=rng_local)
        kept = dropped.data[dropped.data > 0]
        assert np.allclose(kept, 2.0)
        assert 0.3 < (dropped.data == 0).mean() < 0.7

    def test_embedding_lookup_and_gradient(self):
        table = Embedding(10, 4, rng=np.random.default_rng(0))
        indices = np.array([0, 3, 3, 9])
        out = table(indices)
        assert out.shape == (4, 4)
        loss = (out ** 2).sum()
        loss.backward()
        grad = table.weight.grad
        assert grad is not None
        assert np.allclose(grad[3], 2 * 2 * table.weight.data[3])  # two lookups
        assert np.allclose(grad[1], 0.0)

    def test_parameter_requires_grad_inside_no_grad(self):
        with no_grad():
            p = Parameter(np.ones(3))
        assert p.requires_grad
