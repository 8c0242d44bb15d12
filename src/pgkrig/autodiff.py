"""Dense-tensor reverse-mode differentiation core.

A minimal numpy-backed autodiff engine: each operation computes its result
eagerly and, when any input requires gradients, records a closure that
propagates adjoints back to its inputs.  ``backward()`` walks the recorded
graph once in reverse topological order, so every node's local gradient
runs after all of its consumers have contributed.

Everything is float64 and single-threaded per graph.  Independent graphs
(e.g. different training samples) are safe to evaluate on separate threads;
parameter updates happen outside the graph via :class:`Adam`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by '{op}'")
    return data


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 array plus an optional adjoint slot.

    Operations on tensors record backward closures whenever an input has
    ``requires_grad`` set; calling :meth:`backward` on a scalar result fills
    ``grad`` for every tensor that participated and requires gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- graph plumbing ------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # A fresh array shaped like the data, so it never aliases a
            # sibling's adjoint; adding 0.0 maps -0.0 to +0.0 exactly as
            # zeros-then-add would.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse pass from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        # Iterative post-order: inputs always appear before their consumers.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def relu(self) -> "Tensor":
        return relu(self)

    def abs(self) -> "Tensor":
        return absolute(self)

    def sqrt(self) -> "Tensor":
        return sqrt(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None) -> "Tensor":
        return mean(self, axis=axis)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, op: str, parents: Iterable[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result; only tracked when some parent requires grad."""
    parent_tuple = tuple(parents)
    out = Tensor(_check_finite(data, op))
    if any(p.requires_grad for p in parent_tuple):
        out.requires_grad = True
        out._parents = parent_tuple
        out._backward = backward
        out._op = op
    return out


# -- elementwise -------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, "add", (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(data, "sub", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, "mul", (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, "div", (a, b), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (x.data > 0.0))

    return _make(data, "relu", (x,), backward)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    x = as_tensor(x)
    data = np.logaddexp(0.0, x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g / (1.0 + np.exp(-x.data)))

    return _make(data, "softplus", (x,), backward)


def absolute(x) -> Tensor:
    # Subgradient at 0 is 0 (np.sign(0) == 0), so pred == target is a fixed point.
    x = as_tensor(x)
    data = np.abs(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * np.sign(x.data))

    return _make(data, "abs", (x,), backward)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    data = np.sqrt(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * 0.5 / np.sqrt(x.data))

    return _make(data, "sqrt", (x,), backward)


# -- reductions and shaping --------------------------------------------


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if axis is None:
            x._accumulate(np.broadcast_to(g, x.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return _make(data, "sum", (x,), backward)


def mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        count = x.data.size
    else:
        count = x.data.shape[axis]
    return mul(tensor_sum(x, axis=axis), 1.0 / count)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}") from None

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return _make(data, "reshape", (x,), backward)


def take(x, key) -> Tensor:
    """Numpy-style indexing; the backward pass scatter-adds into the source."""
    x = as_tensor(x)
    data = x.data[key]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data, dtype=np.float64)
    else:
        data = data.copy()

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, key, g)
            x._accumulate(full)

    return _make(data, "take", (x,), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    items = [as_tensor(t) for t in tensors]
    first = items[0].shape
    for t in items[1:]:
        if t.shape != first:
            raise ShapeError(f"stack: shapes {first} and {t.shape} differ")
    data = np.stack([t.data for t in items], axis=axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.split(g, len(items), axis=axis)
        for t, piece in zip(items, pieces):
            if t.requires_grad:
                t._accumulate(piece.reshape(t.shape))

    return _make(data, "stack", tuple(items), backward)


# -- linear algebra ----------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, "matmul", (a, b), backward)


def sparse_matmul(matrix: sp.spmatrix, x) -> Tensor:
    """Multiply a constant sparse N x N operator into dense node features.

    The sparse operator is data, not a parameter: gradients flow only to
    the dense side (transpose product).  Tests use it as propagate's reference.
    """
    x = as_tensor(x)
    if x.ndim != 2 or matrix.shape[1] != x.shape[0]:
        raise ShapeError(
            f"sparse_matmul: shapes {matrix.shape} and {x.shape} are incompatible")
    csr = matrix.tocsr()
    data = csr @ x.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(csr.T @ g)

    return _make(data, "sparse_matmul", (x,), backward)


def propagate(x, diffusion, advection, weights: tuple, bias, activation: str) -> Tensor:
    """One message-passing layer on (N, F) node features, as one tape node.

    ``weights`` is (W,) for act((D x + A x) W + b) or (W_d, W_a) for
    act(D x W_d + A x W_a + b).  D and A are constant operators with CSR
    ``weights`` and ``transpose``; only backward reads the transpose.

    Values and gradients are bitwise those of the composition sparse_matmul,
    add, matmul, add, relu/softplus: the same numpy calls run in the same
    order, each intermediate is checked under its op's name, and backward
    accumulates in the composition's order.  (A finite input has a finite
    activation, so this node's own check stands in for the activation's.)
    """
    x, bias = as_tensor(x), as_tensor(bias)
    diff_msg = _check_finite(diffusion.weights @ x.data, "sparse_matmul")
    adv_msg = _check_finite(advection.weights @ x.data, "sparse_matmul")
    w_diff, w_adv = weights if len(weights) == 2 else (weights[0], None)
    if w_adv is not None:
        mixed = _check_finite(_check_finite(diff_msg @ w_diff.data, "matmul")
                              + _check_finite(adv_msg @ w_adv.data, "matmul"), "add")
    else:
        summed = _check_finite(diff_msg + adv_msg, "add")
        mixed = _check_finite(summed @ w_diff.data, "matmul")
    pre = _check_finite(mixed + bias.data, "add")
    data = np.maximum(pre, 0.0) if activation == "relu" else np.logaddexp(0.0, pre)

    def backward(g: np.ndarray) -> None:
        if activation == "relu":
            g_pre = g * (pre > 0.0)
        else:
            g_pre = g / (1.0 + np.exp(-pre))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g_pre, bias.shape))
        if w_adv is not None:
            # the composition ran matmul(D x, W_d) and its sparse product
            # before matmul(A x, W_a) and its sparse product
            if w_diff.requires_grad:
                w_diff._accumulate(diff_msg.T @ g_pre)
            if x.requires_grad:
                x._accumulate(diffusion.transpose @ (g_pre @ w_diff.data.T))
            if w_adv.requires_grad:
                w_adv._accumulate(adv_msg.T @ g_pre)
            if x.requires_grad:
                x._accumulate(advection.transpose @ (g_pre @ w_adv.data.T))
            return
        if w_diff.requires_grad:
            w_diff._accumulate(summed.T @ g_pre)
        if x.requires_grad:
            g_summed = g_pre @ w_diff.data.T
            x._accumulate(diffusion.transpose @ g_summed)
            x._accumulate(advection.transpose @ g_summed)

    return _make(data, "propagate", (x, *weights, bias), backward)


def linear(x, weight, bias) -> Tensor:
    """x @ weight + bias for 2-D x."""
    return add(matmul(x, weight), bias)


def conv1d_causal_dilated(x, weight, bias, dilation: int = 1) -> Tensor:
    """Dilated causal convolution along the time axis.

    Args:
        x: (N, T, C_in) node-major series.
        weight: (K, C_in, C_out) kernel; tap K-1 reads the current step,
            tap k reads the step (K-1-k)*dilation back.  The input is
            implicitly left-padded with zeros, so output t never sees
            inputs later than t.
        bias: (C_out,).
        dilation: gap between taps, >= 1.

    Returns:
        (N, T, C_out) tensor.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeError(
            f"conv1d: expected (N,T,C) input and (K,C,F) kernel, got {x.shape} and {weight.shape}")
    n, t, c_in = x.shape
    k, c_kernel, c_out = weight.shape
    if c_in != c_kernel:
        raise ShapeError(f"conv1d: input channels {x.shape} vs kernel {weight.shape}")
    if dilation < 1:
        raise ShapeError(f"conv1d: dilation must be >= 1, got {dilation}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv1d: bias shape {bias.shape} vs kernel {weight.shape}")

    shifts = [(k - 1 - tap) * dilation for tap in range(k)]
    data = np.zeros((n, t, c_out))
    for tap, shift in enumerate(shifts):
        if shift >= t:
            continue
        # x at time t - shift contributes through kernel tap `tap`
        data[:, shift:, :] += x.data[:, : t - shift, :] @ weight.data[tap]
    data = data + bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for tap, shift in enumerate(shifts):
                if shift >= t:
                    continue
                gx[:, : t - shift, :] += g[:, shift:, :] @ weight.data[tap].T
            x._accumulate(gx)
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            for tap, shift in enumerate(shifts):
                if shift >= t:
                    continue
                gw[tap] = np.einsum("ntc,ntf->cf", x.data[:, : t - shift, :], g[:, shift:, :])
            weight._accumulate(gw)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 1)))

    return _make(data, "conv1d_causal_dilated", (x, weight, bias), backward)


def l1_loss(pred, target) -> Tensor:
    """Sum of |pred - target|.

    Returns the raw sum; callers apply whatever normalisation the
    surrounding objective needs.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss: pred shape {pred.shape} vs target {target.shape}")
    return tensor_sum(absolute(sub(pred, target)))


# -- optimiser ---------------------------------------------------------


class Adam:
    """Adam over a named parameter mapping.

    Moment buffers are keyed by parameter name, so the optimiser state
    survives independently of tensor identity.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = float(lr)
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the gradients currently on the parameters."""
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.BETA1 ** t
        bias2 = 1.0 - self.BETA2 ** t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * p.grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (p.grad * p.grad)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.EPS)
            p.data -= self.lr * update
            if not np.isfinite(p.data).all():
                raise NumericError(f"non-finite parameter '{name}' after Adam step {t}")
