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

from . import NumericFailure


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(NumericFailure, ArithmeticError):
    """A forward operation produced NaN or Inf."""


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
        self.data = np.asarray(data, dtype=np.float64)
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
        """Reverse pass from this scalar through the recorded graph.

        The graph is dropped as it is walked: each node forgets its parents
        and its closure once that has run, so the arrays the tape held are
        freed during the pass.  A node can therefore be walked only once;
        reaching one that an earlier backward() walked raises RuntimeError.
        """
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
            if node._backward is None and node._op != "leaf":
                raise RuntimeError(
                    f"backward() reached a '{node._op}' node that an earlier backward() walked")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._parents, node._backward = (), None

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def reshape(self, *shape: int) -> "Tensor":
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
            with np.errstate(over="ignore"):  # exp(-x) = inf below -709 gives g / inf = 0
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


# -- reductions and shaping --------------------------------------------


def tensor_sum(x) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    x = as_tensor(x)
    data = x.data.sum()

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.shape))

    return _make(data, "sum", (x,), backward)


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
    data = np.array(x.data[key], dtype=np.float64)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, key, g)
            x._accumulate(full)

    return _make(data, "take", (x,), backward)


# -- linear algebra ----------------------------------------------------


# BLAS rounds a row of a product by where it falls in the kernel's row
# blocks.  OpenBLAS gives other bits than in a long product to a
# one-column product at 117 of the row counts 1-199, and to a wider one at
# one row.  In a whole number of blocks, every row gets the bits of a long
# product.
_ROW_BLOCK = 16


def _rows_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D arrays, each row's bits independent of a's row count.

    The rows past the last whole block are multiplied as one block, padded
    with copies of a's last row, so the padding adds no value the real
    rows lack (and no warning they would not raise).
    """
    m = a.shape[0]
    cut = m - m % _ROW_BLOCK
    if cut == m:
        return a @ b
    out = np.empty((m, b.shape[1]))
    np.matmul(a[:cut], b, out=out[:cut])
    tail = np.pad(a[cut:], ((0, cut + _ROW_BLOCK - m), (0, 0)), mode="edge")
    out[cut:] = (tail @ b)[: m - cut]
    return out


def matmul(a, b) -> Tensor:
    """a @ b for 2-D a and b, each row's bits independent of a's row count."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    data = _rows_product(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, "matmul", (a, b), backward)


def _swap_hours(state: np.ndarray) -> np.ndarray:
    """View an (N, T, F) node-major array as (T, N, F) time-major, or back."""
    return state.transpose(1, 0, 2)


def propagate(x, diffusion, advection, weights: tuple, bias, activation: str) -> Tensor:
    """One message-passing layer on (N, T, F) node-major features, as one tape node.

    ``weights`` is (W,) for act((D x_t + A_t x_t) W + b) or (W_d, W_a) for
    act(D x_t W_d + A_t x_t W_a + b), at every hour t.  D is a constant
    N x N operator; A is the window's advection operator, whose ``weights``
    map the node-major (N*T, F) state to time-major (T*N, F) messages.
    Backward multiplies by D itself, which is bitwise symmetric, and by
    A's ``weights.T``.

    Values and gradients are bitwise those of ``per_hour_propagation`` in
    tests/reference_ops.py, the composition sparse_matmul, add, matmul,
    add, relu/softplus run hour after hour:
    - each sparse product sums the same terms in the same order;
    - every dense product is an ``np.matmul`` over the hour axis, so BLAS
      sees the per-hour (N, F) shapes (one (N*T, F) product rounds
      differently for some N);
    - the input adjoint is accumulated once, as D^T g + A^T g;
    - the weight and bias adjoints add up the hours in hour order.
    Each intermediate is checked under its reference op's name.  (A finite
    input has a finite activation, so this node's own check stands in for
    the activation's.)
    """
    x, bias = as_tensor(x), as_tensor(bias)
    n, t, f = x.shape
    diff_msg = _check_finite(diffusion.weights @ x.data.reshape(n, t * f),
                             "sparse_matmul").reshape(n, t, f)
    adv_msg = _check_finite(advection.weights @ x.data.reshape(n * t, f),
                            "sparse_matmul").reshape(t, n, f)
    if len(weights) == 2:
        w_diff, w_adv = weights
        hourly = (_swap_hours(diff_msg), adv_msg)  # (T, N, F) messages
    else:
        (w_diff,), w_adv = weights, None
        diff_msg += _swap_hours(adv_msg)
        del adv_msg
        hourly = (_swap_hours(_check_finite(diff_msg, "add")),)
    pre = np.empty((n, t, f))
    _check_finite(np.matmul(hourly[0], w_diff.data, out=_swap_hours(pre)), "matmul")
    if w_adv is not None:
        pre += _swap_hours(_check_finite(np.matmul(hourly[1], w_adv.data), "matmul"))
        _check_finite(pre, "add")
    pre += bias.data
    _check_finite(pre, "add")
    if activation == "relu":
        active = pre > 0.0
        data = np.maximum(pre, 0.0, out=pre)
    else:
        data = np.logaddexp(0.0, pre)

    def backward(g: np.ndarray) -> None:
        if activation == "relu":
            g_pre = g * active
        else:
            with np.errstate(over="ignore"):  # as in softplus
                g_pre = g / (1.0 + np.exp(-pre))
        g_hours = _swap_hours(g_pre)
        if bias.requires_grad:
            bias._accumulate(g_pre.sum(axis=0).sum(axis=0))
        for w, msg in zip(weights, hourly):
            if w.requires_grad:
                w._accumulate(np.matmul(msg.transpose(0, 2, 1), g_hours).sum(axis=0))
        if not x.requires_grad:
            return
        g_diff = np.matmul(g_hours, w_diff.data.T)  # time-major
        g_adv = g_diff if w_adv is None else np.matmul(g_hours, w_adv.data.T)
        g_x = diffusion.weights @ np.ascontiguousarray(_swap_hours(g_diff)).reshape(n, t * f)
        g_x += (advection.weights.T @ g_adv.reshape(t * n, f)).reshape(n, t * f)
        x._accumulate(g_x.reshape(n, t, f))

    return _make(data, "propagate", (x, *weights, bias), backward)


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
        # x at time t - shift contributes through kernel tap `tap`.  Each
        # node's product has t - shift rows; BLAS rounds a one-row product
        # differently, so a single hour is taken across the nodes instead
        taps = x.data[:, : t - shift, :]
        data[:, shift:, :] += (taps @ weight.data[tap] if t - shift > 1
                               else _rows_product(taps[:, 0], weight.data[tap])[:, None])
    data += bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for tap, shift in enumerate(shifts):
                if shift >= t:
                    continue
                gx[:, : t - shift, :] += g[:, shift:, :] @ weight.data[tap].T
            x._accumulate(gx)
        if weight.requires_grad:
            weight._accumulate(_conv_weight_grad(x.data, g, shifts))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 1)))

    return _make(data, "conv1d_causal_dilated", (x, weight, bias), backward)


def _conv_weight_grad(x: np.ndarray, g: np.ndarray, shifts: list[int]) -> np.ndarray:
    """The (K, C_in, C_out) kernel gradient of a causal conv, one einsum for all taps.

    Tap k of the (N, T, K*C_in) stack holds x delayed by ``shifts[k]`` hours,
    zero before.  The einsum adds one term at a time over (node, hour) in C
    order, which the C-contiguous stack pins whatever g's layout, exactly as
    ``per_tap_weight_grad`` in tests/reference_ops.py does tap by tap on
    node-major inputs.  So the bits agree: a padded hour only adds an exact
    +-0 to a partial sum that starts at +0.
    """
    n, t, c_in = x.shape
    c_out = g.shape[2]
    taps = np.zeros((n, t, len(shifts), c_in))
    for tap, shift in enumerate(shifts):
        if shift < t:
            taps[:, shift:, tap] = x[:, : t - shift]
    grad = np.einsum("ntj,ntf->jf", g, taps.reshape(n, t, -1)).T
    return grad.reshape(len(shifts), c_in, c_out)


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
