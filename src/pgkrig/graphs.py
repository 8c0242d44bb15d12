"""Graph operators over a planar sensor network.

Three operators drive the propagation model:

* a geospatial adjacency with Gaussian kernel weights, thresholded by
  distance,
* its symmetrically normalized diffusion form, and
* a wind-driven advection operator giving each directed edge the upwind
  transport rate in 1/hour.

All builders are pure functions of their inputs and the returned
structures are never mutated, so they are safe to share across threads.
(An advection operator caches its transpose on first use; every thread
builds the same one.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

DEFAULT_THRESHOLD_KM = 200.0


class GraphBuildError(ValueError):
    """Inputs cannot produce a valid graph operator."""


def planar_distances(positions: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances for planar km coordinates.

    The squared differences are computed symmetrically, so the result is
    bitwise symmetric.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def grid_centers(nx: int, ny: int, cell_km: float) -> np.ndarray:
    """(nx*ny, 2) raster cell centers: cell k at ((k % nx) + 0.5, (k // nx) + 0.5) * cell_km."""
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    return np.stack([(ix + 0.5) * cell_km, (iy + 0.5) * cell_km], axis=1)


@dataclass(frozen=True)
class NodeSet:
    """Sensor locations on a planar km grid.

    Node identity is positional: row k of ``positions`` is node k.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise GraphBuildError(f"positions must be (N, 2), got {pos.shape}")
        if pos.shape[0] < 2:
            raise GraphBuildError(f"need at least 2 nodes, got {pos.shape[0]}")
        if not np.all(np.isfinite(pos)):
            raise GraphBuildError("positions contain non-finite values")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class GeoAdjacency:
    """Thresholded Gaussian-kernel adjacency.

    weights is symmetric with zero diagonal; every stored value lies in
    (0, 1] and connects a pair strictly closer than the threshold it
    was built with.
    """

    weights: sp.csr_matrix
    sigma_sq: float


@dataclass(frozen=True)
class DiffusionOperator:
    """Symmetrically normalized adjacency D^(-1/2) A D^(-1/2).

    Bitwise symmetric with sorted indices, so it is its own transpose.
    """

    weights: sp.csr_matrix

    @property
    def transpose(self) -> sp.csr_matrix:
        return self.weights


@dataclass(frozen=True)
class AdvectionOperator:
    """Directed upwind-transport rates for one timestep, in 1/hour.

    Entry (i, j) is the rate at which node j's air mass is blown toward
    node i; it is positive only when j sits upwind of i.

    ``transpose`` is a CSC view of ``weights``, made on its first use,
    which only backward makes.
    """

    weights: sp.csr_matrix

    @cached_property
    def transpose(self) -> sp.csc_matrix:
        return self.weights.T


def _under_threshold(dist: np.ndarray, threshold_xi: float) -> np.ndarray:
    """Boolean mask of off-diagonal pairs strictly closer than the threshold."""
    mask = dist < threshold_xi
    np.fill_diagonal(mask, False)
    return mask


def build_geo_adjacency(nodes: NodeSet,
                        threshold_xi: float = DEFAULT_THRESHOLD_KM) -> GeoAdjacency:
    """Gaussian-kernel adjacency exp(-dist^2 / sigma^2), cut at threshold_xi.

    sigma^2 is the variance of the pairwise distances restricted to pairs
    under the threshold.  Degenerate layouts (all those distances equal)
    fall back to their mean squared distance, then to 1.0, so the kernel
    stays defined on regular grids.

    Args:
        nodes: sensor locations.
        threshold_xi: cutoff distance in km; pairs at or beyond it get
            weight 0.

    Returns:
        GeoAdjacency with symmetric weights and zero diagonal.

    Raises:
        GraphBuildError: non-positive threshold, or no pair under it.
    """
    if not threshold_xi > 0:
        raise GraphBuildError(f"threshold_xi must be positive, got {threshold_xi}")
    dist = planar_distances(nodes.positions)
    mask = _under_threshold(dist, threshold_xi)
    if not mask.any():
        raise GraphBuildError(
            f"no node pair closer than threshold {threshold_xi} km: graph is fully isolated")

    iu, ju = np.triu_indices(nodes.n, k=1)
    edge_d = dist[iu, ju][mask[iu, ju]]
    sigma_sq = float(np.var(edge_d))
    if sigma_sq == 0.0:
        sigma_sq = float(np.mean(edge_d * edge_d))
    if sigma_sq == 0.0:
        sigma_sq = 1.0

    weights = np.where(mask, np.exp(-(dist * dist) / sigma_sq), 0.0)
    return GeoAdjacency(weights=sp.csr_matrix(weights), sigma_sq=sigma_sq)


def build_diffusion_operator(geo: GeoAdjacency) -> DiffusionOperator:
    """Normalize an adjacency to D^(-1/2) A D^(-1/2).

    Zero-degree nodes keep all-zero rows and columns instead of dividing
    by zero.  Scaling each stored entry by the commutative product
    s_i * s_j preserves bitwise symmetry.
    """
    coo = geo.weights.tocoo()
    n = coo.shape[0]
    deg = np.asarray(geo.weights.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros(n)
    positive = deg > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(deg[positive])
    data = coo.data * (inv_sqrt[coo.row] * inv_sqrt[coo.col])
    out = sp.csr_matrix((data, (coo.row, coo.col)), shape=(n, n))
    return DiffusionOperator(weights=out)


# m/s over km is 1/1000 per second; times 3600 s/h gives 3.6 per hour.
_MS_PER_KM_TO_PER_HOUR = 3.6


def _advection_pairs(nodes: NodeSet,
                     threshold_xi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed pairs under the threshold and their geometry factor.

    Returns (rows, cols, geom) where geom[k] = (pos[rows[k]] - pos[cols[k]])
    / dist^2, so that weight = 3.6 * relu(wind_mid . geom): the dot product
    folds the upwind cosine and the 1/distance decay into one step.
    """
    if not threshold_xi > 0:
        raise GraphBuildError(f"threshold_xi must be positive, got {threshold_xi}")
    dist = planar_distances(nodes.positions)
    mask = _under_threshold(dist, threshold_xi)
    rows, cols = np.nonzero(mask)
    d = dist[rows, cols]
    if np.any(d == 0.0):
        k = int(np.argmax(d == 0.0))
        raise GraphBuildError(
            f"nodes {cols[k]} and {rows[k]} are coincident: advection direction undefined")
    geom = (nodes.positions[rows] - nodes.positions[cols]) / (d * d)[:, None]
    return rows, cols, geom


def build_advection_operator(nodes: NodeSet, wind: np.ndarray,
                             threshold_xi: float = DEFAULT_THRESHOLD_KM) -> AdvectionOperator:
    """Upwind transport operator for one timestep.

    For each directed pair j -> i under the threshold, the weight is
    relu(|v| / d_ij * cos(angle between v and the j -> i direction)),
    where v is the arithmetic mean of the winds at i and j.  Wind in m/s
    over distance in km is rescaled by 3.6 so weights are in 1/hour.
    The operator is intentionally not row-normalized: faster wind must
    mean proportionally stronger transport.

    Args:
        nodes: sensor locations.
        wind: (N, 2) per-node (u, v) wind components in m/s.
        threshold_xi: distance cutoff in km.

    Raises:
        GraphBuildError: bad wind shape, non-finite wind, or a coincident
            node pair (transport direction undefined).
    """
    wind = np.asarray(wind, dtype=np.float64)
    if wind.shape != (nodes.n, 2):
        raise GraphBuildError(f"wind must be ({nodes.n}, 2), got {wind.shape}")
    return advection_sequence(nodes, wind[None], threshold_xi)[0]


def advection_sequence(nodes: NodeSet, wind_series: np.ndarray,
                       threshold_xi: float = DEFAULT_THRESHOLD_KM) -> list[AdvectionOperator]:
    """One advection operator per timestep of a (T, N, 2) wind series.

    The pair geometry is computed once and the (T, E) edge weights in one
    array pass. Every step's CSR matrix shares one ``indices``/``indptr``
    pair: ``np.nonzero`` yields the pairs row-major, so they are already
    in CSR order, and weights the ReLU clips to 0 stay stored, so each
    step has the same sparsity structure.
    """
    wind_series = np.asarray(wind_series, dtype=np.float64)
    if wind_series.ndim != 3 or wind_series.shape[0] < 1:
        raise GraphBuildError(
            f"wind_series must be (T, N, 2) with T >= 1, got {wind_series.shape}")
    if wind_series.shape[1:] != (nodes.n, 2):
        raise GraphBuildError(
            f"wind_series per-step shape {wind_series.shape[1:]} does not match "
            f"({nodes.n}, 2) for {nodes.n} nodes")
    if not np.all(np.isfinite(wind_series)):
        raise GraphBuildError("wind_series contains non-finite values")

    rows, cols, geom = _advection_pairs(nodes, threshold_xi)
    wind_mid = wind_series[:, rows]
    wind_mid += wind_series[:, cols]
    wind_mid *= 0.5
    wind_mid *= geom
    weights = _MS_PER_KM_TO_PER_HOUR * np.maximum(wind_mid.sum(axis=2), 0.0)  # (T, E)
    shape = (nodes.n, nodes.n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nodes.n))])
    first = sp.csr_matrix((weights[0], cols, indptr), shape=shape)
    return [AdvectionOperator(weights=first)] + [
        AdvectionOperator(weights=sp.csr_matrix((w, first.indices, first.indptr), shape=shape))
        for w in weights[1:]]
