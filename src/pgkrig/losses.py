"""Training objectives: target reconstruction and proxy-gradient alignment.

Loss terms return raw sums on the autodiff tape; the trainer divides by
term counts so the balance weights keep their meaning across batch sizes.

The proxy term never compares absolute magnitudes: both the prediction
and the proxy field are standardized per timestep over cloud-free pixels
before differencing, so an affine distortion of the proxy (gain, offset)
leaves the constraint untouched and only spatial structure is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DataError
from . import autodiff as ad
from .graphs import DiffusionOperator, GeoAdjacency


class LossError(DataError, ValueError):
    """Loss inputs are unusable."""


@dataclass(frozen=True)
class LossWeights:
    """Balance factors for the composite objective."""

    lambda1: float = 1.0
    lambda2: float = 0.1

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise LossError(f"{name} must be finite and >= 0, got {value}")


def _check_targets(x_hat: ad.Tensor, x_true: np.ndarray,
                   target_indices: np.ndarray) -> np.ndarray:
    x_true = np.asarray(x_true, dtype=np.float64)
    if x_hat.shape != x_true.shape:
        raise LossError(f"prediction shape {x_hat.shape} vs truth shape {x_true.shape}")
    idx = np.asarray(target_indices, dtype=int)
    if idx.size == 0:
        raise LossError("target set is empty")
    if idx.min() < 0 or idx.max() >= x_hat.shape[0]:
        raise LossError(f"target indices out of range for {x_hat.shape[0]} nodes")
    return idx


def infer_loss(x_hat: ad.Tensor, x_true: np.ndarray,
               target_indices: np.ndarray) -> ad.Tensor:
    """Sum of |prediction - truth| over target nodes and all timesteps.

    Reads the truth only at target rows, so observed-node truth values
    can never influence the value or its gradient.
    """
    idx = _check_targets(x_hat, x_true, target_indices)
    return ad.l1_loss(x_hat[idx], ad.Tensor(np.asarray(x_true, dtype=np.float64)[idx]))


def init_loss(x_init: ad.Tensor, x_true: np.ndarray,
              target_indices: np.ndarray) -> ad.Tensor:
    """Same structure as infer_loss, applied to the initial estimate."""
    idx = _check_targets(x_init, x_true, target_indices)
    return ad.l1_loss(x_init[idx], ad.Tensor(np.asarray(x_true, dtype=np.float64)[idx]))


_STD_GUARD = 1e-6


def aod_gradient_loss(x_hat: ad.Tensor, aod_values: np.ndarray, aod_valid: np.ndarray,
                      edges: np.ndarray) -> ad.Tensor:
    """Masked spatial-gradient alignment between prediction and proxy.

    For each timestep, both fields are standardized over that step's
    valid pixels; then for every edge (i, j) whose endpoints are both
    valid, the term |(pred_j - pred_i) - (proxy_j - proxy_i)| is summed.
    A step whose std is below 1e-6 is only centered.  A fully masked
    field is legal and yields a constant zero with no gradient.

    All hours with a valid edge are computed at once, time-major, and
    recorded as one tape node.  Value and gradient are bitwise those of
    ``reference_aod_loss`` in tests/reference_ops.py, the per-hour
    composition take, mul, sum, sub, sqrt, div, abs, add:
    each row reduces along its contiguous last axis (the pairwise sum of
    a 1-D column), hour sums add up sequentially, and backward
    accumulates every adjoint in the composition's order.

    Args:
        x_hat: (N, T) prediction tensor.
        aod_values: (N, T) proxy values; read only where valid, so a
            cloudy pixel may hold any value, NaN included.
        aod_valid: (N, T) binary validity mask, 1 = usable pixel.
        edges: (E, 2) node index pairs, i != j.

    Returns:
        Scalar tensor, >= 0.
    """
    aod_values = np.asarray(aod_values, dtype=np.float64)
    aod_valid = np.asarray(aod_valid, dtype=np.float64)
    if x_hat.shape != aod_values.shape or aod_values.shape != aod_valid.shape:
        raise LossError(
            f"shape mismatch: prediction {x_hat.shape}, proxy {aod_values.shape}, "
            f"mask {aod_valid.shape}")
    if not np.all((aod_valid == 0.0) | (aod_valid == 1.0)):
        raise LossError("validity mask must be binary")
    edges = validate_edges(edges, x_hat.shape[0])
    if np.any(~np.isfinite(aod_values) & (aod_valid == 1.0)):
        raise LossError("proxy values must be finite where valid")

    src, dst = edges[:, 0], edges[:, 1]
    valid = aod_valid.T  # (T, N)
    edge_mask = np.take(valid, src, axis=1) * np.take(valid, dst, axis=1)  # (T, E)
    active = edge_mask.any(axis=1)
    if not active.any():
        return ad.Tensor(0.0)
    edge_mask = edge_mask[active]  # (T_active, E)
    mask = np.ascontiguousarray(valid[active])  # (T_active, N)
    count = mask.sum(axis=1)
    inv = 1.0 / count

    proxy = np.where(mask == 1.0, aod_values.T[active], 0.0)
    proxy_dev = proxy - ((proxy * mask).sum(axis=1) / count)[:, None]
    proxy_std = np.sqrt((proxy_dev ** 2 * mask).sum(axis=1) / count)
    proxy_std[proxy_std < _STD_GUARD] = 1.0
    proxy_z = proxy_dev / proxy_std[:, None]
    proxy_diff = np.take(proxy_z, dst, axis=1) - np.take(proxy_z, src, axis=1)

    check = ad._check_finite
    x = check(np.ascontiguousarray(x_hat.data.T[active]), "take")
    mean = check((x * mask).sum(axis=1), "sum") * inv
    centered = check(x - mean[:, None], "sub")
    var = check((check(centered * centered, "mul") * mask).sum(axis=1), "sum") * inv
    std = np.sqrt(var)
    live = std >= _STD_GUARD  # rows divided by their std; the rest are only centered
    denom = np.where(live, std, 1.0)  # x / 1.0 is x, bitwise
    pred_z = check(centered / denom[:, None], "div")
    gap = check(check(np.take(pred_z, dst, axis=1) - np.take(pred_z, src, axis=1), "sub")
                - proxy_diff, "sub")
    hour_sums = check((np.abs(gap) * edge_mask).sum(axis=1), "sum")
    total = check(np.cumsum(hour_sums), "add")[-1]

    def backward(g: np.ndarray) -> None:
        g_gap = g * edge_mask * np.sign(gap)
        # scatter each endpoint side on its own, in edge order, over flat
        # (hour, node) indices, then add the two sides as the two takes did
        offsets = np.arange(gap.shape[0])[:, None] * x.shape[1]
        g_z = np.zeros(x.size)
        np.add.at(g_z, (offsets + dst).ravel(), g_gap.ravel())
        g_src = np.zeros(x.size)
        np.add.at(g_src, (offsets + src).ravel(), -g_gap.ravel())
        g_z = (g_z + g_src).reshape(x.shape)
        g_centered = g_z / denom[:, None]
        # the variance path: std's adjoint, zero in rows that were only centered
        g_std = np.where(live, (-g_z * centered / (denom * denom)[:, None]).sum(axis=1), 0.0)
        g_sq = (g_std * 0.5 / denom * inv)[:, None] * mask
        g_centered += g_sq * centered
        g_centered += g_sq * centered
        g_x = g_centered + ((-g_centered).sum(axis=1) * inv)[:, None] * mask
        full = np.zeros_like(x_hat.data)
        full[:, active] = g_x.T
        x_hat._accumulate(full)

    return ad._make(total, "aod_gradient", (x_hat,), backward)


def composite_loss(infer: ad.Tensor | float, init: ad.Tensor | float,
                   aod: ad.Tensor | float, weights: LossWeights) -> ad.Tensor:
    """infer + lambda1 * init + lambda2 * aod."""
    return ad.add(ad.as_tensor(infer),
                  ad.add(ad.mul(ad.as_tensor(init), weights.lambda1),
                         ad.mul(ad.as_tensor(aod), weights.lambda2)))


# -- edge sets ----------------------------------------------------------


def validate_edges(edges: np.ndarray, n: int) -> np.ndarray:
    edges = np.asarray(edges, dtype=int)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise LossError(f"edges must be (E, 2), got {edges.shape}")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise LossError(f"edge endpoints out of range for {n} nodes")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise LossError("self-edges are not allowed")
    return edges


def edges_from_adjacency(geo: GeoAdjacency | DiffusionOperator) -> np.ndarray:
    """Each undirected adjacency pair once, as (E, 2) with i < j; an
    operator built from the adjacency has its pattern, so gives the same."""
    w = geo.weights
    rows = np.repeat(np.arange(w.shape[0], dtype=w.indices.dtype), np.diff(w.indptr))
    keep = rows < w.indices
    return np.stack([rows[keep], w.indices[keep]], axis=1)


def grid_edges(nx: int, ny: int) -> np.ndarray:
    """4-neighbor edges of a row-major (iy * nx + ix) grid."""
    if nx < 1 or ny < 1:
        raise LossError(f"grid must be at least 1x1, got {nx}x{ny}")
    pairs = []
    for iy in range(ny):
        for ix in range(nx):
            cell = iy * nx + ix
            if ix + 1 < nx:
                pairs.append((cell, cell + 1))
            if iy + 1 < ny:
                pairs.append((cell, cell + nx))
    return np.asarray(pairs, dtype=int).reshape(-1, 2)


def count_valid_edge_terms(aod_valid: np.ndarray, edges: np.ndarray) -> int:
    """Number of (timestep, edge) terms the proxy loss actually sums."""
    aod_valid = np.asarray(aod_valid, dtype=np.float64)
    edges = np.asarray(edges, dtype=int)
    if edges.size == 0:
        return 0
    both = aod_valid[edges[:, 0], :] * aod_valid[edges[:, 1], :]
    return int(both.sum())
