"""A small reverse-mode automatic differentiation engine over numpy arrays.

This module is the computational core of the GML framework substrate.  The
paper's pipelines rely on PyTorch (through PyG/DGL); since the reproduction
is pure-Python, :class:`Tensor` provides the minimal set of differentiable
operations the GNN layers and KGE models need:

* element-wise arithmetic with broadcasting,
* dense ``matmul`` and *sparse* ``spmm`` (a constant :class:`CSR` matrix
  times a dense tensor — the workhorse of message passing),
* activations (ReLU, sigmoid, tanh, leaky ReLU), softmax / log-softmax,
* reductions (sum, mean), indexing (gather rows), concatenation, dropout,
* an :class:`Embedding` table with scatter-add gradients.

Gradients are accumulated with standard reverse-mode topological traversal.

The sparse products and the row scatter run scipy's compiled kernels,
``scipy/sparse/_sparsetools``, loaded on their own: training builds no
``scipy.sparse`` object, so it never imports that package.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import AutogradError, ShapeError

__all__ = [
    "CSR",
    "Tensor",
    "Parameter",
    "no_grad",
    "spmm",
    "concatenate",
    "stack",
    "gather_rows",
    "dropout",
    "softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "Embedding",
]

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _load_sparsetools():
    """scipy's compiled sparse kernels, ``scipy/sparse/_sparsetools``, as
    the module of that canonical name -- the one ``scipy.sparse`` imports,
    when it is loaded already.  ``import scipy.sparse`` runs ~280 modules
    for the two products training calls; ``find_spec`` of the top-level
    package executes nothing."""
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = FileFinder(os.path.join(package, "sparse"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()


class CSR(NamedTuple):
    """A constant sparse matrix in compressed-row form: the arrays a
    ``scipy.sparse.csr_matrix`` holds, none of its checks or methods.
    ``indices`` and ``indptr`` share one integer dtype."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: Tuple[int, int]
    nnz: int

    @classmethod
    def incidence(cls, rows: np.ndarray, num_rows: int, normalize: bool) -> "CSR":
        """The ``(num_rows, len(rows))`` matrix with one entry per column ``j``,
        in row ``rows[j]``: 1, or ``1 / (entries in its row)`` when
        ``normalize``.  A stable counting sort of the columns by row is the
        layout ``coo_matrix((data, (rows, columns))).tocsr()`` builds."""
        counts = np.bincount(rows, minlength=num_rows)
        columns = np.argsort(rows, kind="stable")
        data = 1.0 / np.maximum(counts, 1)[rows[columns]] if normalize \
            else np.ones(rows.shape[0])
        return cls(data, columns, np.concatenate([[0], np.cumsum(counts)]),
                   (num_rows, rows.shape[0]), rows.shape[0])


class _GradMode(threading.local):
    """Whether ops record a graph, per thread: one training run's evaluation
    under :class:`no_grad` must not switch off another run's gradients."""

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager disabling gradient tracking (used for inference) in
    the calling thread."""

    def __enter__(self) -> "no_grad":
        self._previous = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _grad_mode.enabled = self._previous


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data.astype(np.float64, copy=False)
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _freed_graph(grad: np.ndarray) -> None:
    """The backward closure of a node whose graph ``backward`` already walked."""
    raise AutogradError("backward() through a graph that has already been freed")


def _owned_bytes(node: "Tensor") -> int:
    """A tape node's own data bytes: none for a view or a parameter (the run books those)."""
    data = node.data
    return 0 if node.requires_grad or data.base is not None else data.nbytes


def scatter_rows(out: np.ndarray, rows: np.ndarray, grad: np.ndarray) -> None:
    """Add row ``j`` of ``grad`` to row ``rows[j]`` of the contiguous ``out``,
    in ``j`` order: one product with the sparse matrix holding a single one
    per column, so a row's sum over several calls is the sum of one call
    over the rows concatenated."""
    if not out.flags.c_contiguous:
        raise ShapeError("scatter_rows writes into a C-contiguous array only")
    count = rows.shape[0]
    _sparsetools.csc_matvecs(out.shape[0], count, math.prod(out.shape[1:]),
                             np.arange(count + 1), rows.astype(np.int64, copy=False),
                             np.ones(count), grad.ravel(), out.ravel())


def _scatter(shape: Tuple[int, ...], index, grad: np.ndarray) -> np.ndarray:
    """Gradient of ``source[index]``: ``grad`` summed into zeros of ``shape``,
    repeated positions accumulating in index order.

    A row gather (1-D non-negative integers, the embedding lookup) is one
    :func:`scatter_rows`; a basic index (ints, slices and ``...``) repeats
    no position, so it is one assignment; any other index goes through the
    flat positions it selects.
    """
    if isinstance(index, np.ndarray) and index.ndim == 1 and \
            index.dtype.kind in "iu" and (index.size == 0 or index.min() >= 0):
        out = np.zeros(shape)
        scatter_rows(out, index, grad)
        return out
    if all(isinstance(part, (int, np.integer, slice, type(Ellipsis)))
           for part in (index if isinstance(index, tuple) else (index,))):
        full = np.zeros(shape)
        full[index] = grad
        return full
    size = math.prod(shape)
    positions = np.arange(size).reshape(shape)[index].reshape(-1)
    return np.bincount(positions, weights=np.asarray(grad).reshape(-1),
                       minlength=size).reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __array_priority__ = 100  # numpy should defer to Tensor operators

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 children: Tuple["Tensor", ...] = (),
                 backward_fn: Optional[Callable[[np.ndarray], None]] = None,
                 name: str = "") -> None:
        self.data = _as_array(data)
        self.requires_grad = requires_grad and _grad_mode.enabled
        self.grad: Optional[np.ndarray] = None
        self._children = children
        self._backward_fn = backward_fn
        self.name = name

    # -- basic properties ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    @property
    def tracked(self) -> bool:
        """Whether ``backward()`` hands this tensor a gradient: it wants one
        itself or has a graph behind it."""
        return self.requires_grad or self._backward_fn is not None or bool(self._children)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    # -- autograd machinery ----------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        self.grad = grad.copy() if self.grad is None else self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> int:
        """Run reverse-mode differentiation from this tensor.

        The graph is freed as it is walked (``retain_graph=False``): a visited
        node drops its children and its closure, so a step's activations die
        by reference count, and a second ``backward()`` through the same
        graph raises :class:`AutogradError`.

        Returns the most bytes the walk held at once (a few additions per
        node, nothing per allocation): each node's own data until it is
        visited and each gradient until it is handed on.
        """
        if grad is None:
            if self.data.size != 1:
                raise AutogradError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        # Post-order depth-first sort on an explicit stack: no recursion limit
        # on deep graphs and no self-referencing closure for the collector.
        topo: List[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._children))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                if id(child) not in visited:
                    visited.add(id(child))
                    stack.append((child, iter(child._children)))
                    break
            else:
                topo.append(node)
                stack.pop()
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        held = grads[id(self)].nbytes + sum(_owned_bytes(node) for node in topo)
        peak = held
        while topo:
            node = topo.pop()
            node_grad = grads.pop(id(node), None)
            backward_fn, children = node._backward_fn, node._children
            if backward_fn is not None:
                node._backward_fn, node._children = _freed_graph, ()
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            child_grads = None if backward_fn is None else backward_fn(node_grad)
            for child, child_grad in zip(children, child_grads or ()):
                if child_grad is None or not child.tracked:
                    continue
                existing = grads.get(id(child))
                if existing is None:
                    held += child_grad.nbytes
                    grads[id(child)] = child_grad
                else:
                    grads[id(child)] = existing + child_grad
            peak = max(peak, held)
            held -= node_grad.nbytes + _owned_bytes(node)
        return peak

    # -- helpers to build result tensors ---------------------------------------
    @staticmethod
    def _result(data: np.ndarray, children: Tuple["Tensor", ...],
                backward_fn: Callable[[np.ndarray], Optional[Tuple]]) -> "Tensor":
        if not (_grad_mode.enabled and any(child.tracked for child in children)):
            return Tensor(data)
        return Tensor(data, requires_grad=False, children=children, backward_fn=backward_fn)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, self.data.shape),
                    _unbroadcast(grad, other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)
        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, self.data.shape),
                    _unbroadcast(-grad, other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad * other_t.data, self.data.shape),
                    _unbroadcast(grad * self.data, other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad / other_t.data, self.data.shape),
                    _unbroadcast(-grad * self.data / (other_t.data ** 2),
                                 other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._result(out_data, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(other)
        if self.data.shape[-1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}")
        out_data = self.data @ other.data

        def backward(grad: np.ndarray):
            return (grad @ other.data.T, self.data.T @ grad)

        return Tensor._result(out_data, (self, other), backward)

    __matmul__ = matmul

    # -- shaping ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._result(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad.T,)
        return Tensor._result(self.data.T, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray):
            return (_scatter(self.data.shape, index, grad),)

        return Tensor._result(out_data, (self,), backward)

    # -- reductions ----------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad_arr = np.asarray(grad)
            if axis is not None and not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis=axis)
            return (np.broadcast_to(grad_arr, self.data.shape).copy(),)

        return Tensor._result(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # -- element-wise functions -------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._result(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, negative_slope)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._result(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad: np.ndarray):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._result(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - out_data ** 2),)

        return Tensor._result(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward(grad: np.ndarray):
            return (grad * out_data,)

        return Tensor._result(out_data, (self,), backward)

    def log(self, eps: float = 1e-12) -> "Tensor":
        out_data = np.log(self.data + eps)

        def backward(grad: np.ndarray):
            return (grad / (self.data + eps),)

        return Tensor._result(out_data, (self,), backward)

class Parameter(Tensor):
    """A tensor that is always a leaf requiring gradients (model weights)."""

    def __init__(self, data: ArrayLike, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.requires_grad = True  # Parameters track gradients even under no_grad()


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------

def spmm(matrix: CSR, dense: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor (A @ X).

    The sparse matrix carries no gradient; the gradient w.r.t. ``dense`` is
    ``A.T @ grad``.  This is the message-passing primitive used by every GNN
    layer in the framework.
    """
    if not isinstance(matrix, CSR):
        raise AutogradError("spmm expects a CSR matrix")
    out_data = sparse_product(matrix, dense.data, transposed=False)

    def backward(grad: np.ndarray):
        return (sparse_product(matrix, grad, transposed=True),)

    return Tensor._result(out_data, (dense,), backward)


def sparse_product(csr: CSR, dense: np.ndarray, transposed: bool) -> np.ndarray:
    """``csr @ dense``, or ``csr.T @ dense`` (CSR arrays read as CSC), by the
    kernel scipy's product runs: its bits, without the per-call work and
    transposed matrix that cost more than a training step's small products."""
    rows, cols = csr.shape[::-1] if transposed else csr.shape
    if dense.shape[0] != cols:
        raise ShapeError(f"sparse product shape mismatch: {(rows, cols)} @ {dense.shape}")
    out = np.zeros((rows,) + dense.shape[1:])
    kernel = _sparsetools.csc_matvecs if transposed else _sparsetools.csr_matvecs
    kernel(rows, cols, math.prod(dense.shape[1:]), csr.indptr, csr.indices, csr.data,
           dense.ravel(), out.ravel())
    return out


def gather_rows(source: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of ``source`` (the gradient scatters back, repeats summed)."""
    return source[np.asarray(indices, dtype=np.int64)]


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    arrays = [t.data for t in tensors]
    out_data = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]

    def backward(grad: np.ndarray):
        pieces = np.split(grad, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(pieces)

    return Tensor._result(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(p.squeeze(axis) for p in pieces)

    return Tensor._result(out_data, tuple(tensors), backward)


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.data.shape) >= p).astype(np.float64) / (1.0 - p)

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return Tensor._result(x.data * mask, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._result(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    probs = np.exp(out_data)

    def backward(grad: np.ndarray):
        return (grad - probs * grad.sum(axis=axis, keepdims=True),)

    return Tensor._result(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (N x C) and integer ``targets`` (N,)."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError("cross_entropy expects 2-D logits")
    n = logits.shape[0]
    if n == 0:
        return Tensor(0.0)
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(n), targets]
    if weight is not None:
        picked = picked * Tensor(weight)
        return -(picked.sum() / float(weight.sum()))
    return -(picked.mean())


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable mean BCE over arbitrary-shaped logits, as one node.

    The loss is ``log(1 + exp(-|x|)) + relu(x) - x * y`` with
    ``|x| = relu(x) + relu(-x)``, computed op for op as the same expression
    built from :class:`Tensor` ops (the reference in
    ``tests/gml/test_fused_nodes.py``) computes it, and the backward sums the
    input gradient in that expression's order -- the ``x * y`` term, then the
    ``-x`` branch of ``|x|``, then ``relu(x)`` (whose gradient is the softplus
    sum's share plus ``|x|``'s) -- so both have the same bits.  ``targets``
    broadcast to the logits' shape.
    """
    x = logits.data
    y = np.broadcast_to(np.asarray(targets, dtype=np.float64), x.shape)
    positive = (x > 0).astype(np.float64)
    negated = -x
    negative = (negated > 0).astype(np.float64)
    relu_x = x * positive
    exp = np.exp(np.clip(-(relu_x + negated * negative), -60, 60))
    denominator = 1.0 + exp + 1e-12
    scale = 1.0 / x.size
    out_data = (np.log(denominator) + relu_x - x * y).sum() * scale

    def backward(grad: np.ndarray):
        grad = grad * scale
        grad_abs = -(grad / denominator * exp)
        grad_x = -grad * y - grad_abs * negative
        grad_x += (grad + grad_abs) * positive
        return (grad_x,)

    return Tensor._result(out_data, (logits,), backward)


class Embedding:
    """A learnable lookup table (entities / relations in KGE models)."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "embedding") -> None:
        rng = rng or np.random.default_rng(0)
        scale = 6.0 / np.sqrt(dim)
        data = rng.uniform(-scale, scale, size=(num_embeddings, dim))
        self.weight = Parameter(data, name=name)
        self.num_embeddings = num_embeddings
        self.dim = dim

    def __call__(self, indices: np.ndarray) -> Tensor:
        return gather_rows(self.weight, indices)

    def parameters(self) -> List[Parameter]:
        return [self.weight]
