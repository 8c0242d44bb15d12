"""Graph operators over a planar sensor network.

Three operators drive the propagation model:

* a geospatial adjacency with Gaussian kernel weights, thresholded by
  distance,
* its symmetrically normalized diffusion form, and
* a wind-driven advection operator giving each directed edge the upwind
  transport rate in 1/hour at every hour of a window, on one sparsity
  pattern shared by all hours.

One rule, in `node_pairs`, connects two distinct nodes strictly closer
than a positive threshold; it lists the pairs row-major, which is CSR
order, and every operator is built straight from that list.  A caller
that builds several operators of one node set, or advection over several
hour blocks, can list its pairs once and pass them to each builder.

A node set with no pair under the threshold gets empty operators: all
its nodes are isolated, and nothing passes between them.

All builders are pure functions of their inputs and the returned
structures are never mutated, so they are safe to share across threads.
(An advection operator builds its block matrix on first use; every
thread builds the same one.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import DataError

if TYPE_CHECKING:  # scipy.sparse loads on the first operator build, not on import
    import scipy.sparse as sp

class GraphBuildError(DataError, ValueError):
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


@dataclass(frozen=True)
class AdvectionOperator:
    """Directed upwind-transport rates over a window of T hours, in 1/hour.

    ``indices`` and ``indptr`` are one N x N CSR pattern shared by every
    hour, and ``rates[t, k]`` is stored entry k's rate at hour t.  Entry
    (i, j) is the rate at which node j's air mass is blown toward node i;
    it is positive only when j sits upwind of i.

    ``weights`` applies every hour at once: an (N*T x N*T) CSR matrix whose
    column j*T + t is node j at hour t (the node-major state) and whose row
    t*N + i is the message to node i at hour t (time-major).  Its data is a
    view of ``rates``.  At T = 1 it is the plain N x N operator.
    """

    rates: np.ndarray  # (T, E)
    indices: np.ndarray  # (E,) column of each stored entry
    indptr: np.ndarray  # (N + 1,)

    def __len__(self) -> int:
        return self.rates.shape[0]

    @cached_property
    def weights(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        t, e = self.rates.shape
        size = (self.indptr.size - 1) * t
        hours = np.arange(t)[:, None]
        indices = (self.indices * t + hours).ravel()
        indptr = np.concatenate([[0], (self.indptr[1:] + e * hours).ravel()])
        return sp.csr_matrix((self.rates.reshape(-1), indices, indptr), shape=(size, size))


class NodePairs(NamedTuple):
    """Every ordered pair (row, col) of a node set under a threshold, in CSR order."""

    rows: np.ndarray
    cols: np.ndarray
    dist: np.ndarray
    geom: np.ndarray | None  # (E, 2) (p_row - p_col) / dist^2; None if two nodes coincide


def node_pairs(nodes: NodeSet, threshold_xi: float) -> NodePairs:
    """The pairs of distinct nodes strictly closer than `threshold_xi`, with their distances."""
    if not threshold_xi > 0:
        raise GraphBuildError(f"threshold_xi must be positive, got {threshold_xi}")
    dist = planar_distances(nodes.positions)
    near = dist < threshold_xi
    np.fill_diagonal(near, False)
    rows, cols = np.nonzero(near)
    dist, offset = dist[rows, cols], nodes.positions[rows] - nodes.positions[cols]
    # a pair's rate is 3.6 * relu(wind_mid . geom): geom folds the upwind
    # cosine and the 1/distance decay into one factor
    geom = None if np.any(dist == 0.0) else offset / (dist * dist)[:, None]
    return NodePairs(rows, cols, dist, geom)


def pair_geometry(pairs: NodePairs) -> np.ndarray:
    """The pairs' advection geometry; GraphBuildError where two nodes coincide."""
    if pairs.geom is None:
        k = int(np.argmax(pairs.dist == 0.0))
        raise GraphBuildError(f"nodes {pairs.cols[k]} and {pairs.rows[k]} are coincident: "
                              "advection direction undefined")
    return pairs.geom


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of n rows for entries listed in row order."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])


def build_geo_adjacency(nodes: NodeSet, threshold_xi: float,
                        pairs: NodePairs | None = None) -> GeoAdjacency:
    """Gaussian-kernel adjacency exp(-dist^2 / sigma^2), cut at threshold_xi.

    sigma^2 is the variance of the pairwise distances restricted to pairs
    under the threshold.  Degenerate layouts (all those distances equal)
    fall back to their mean squared distance, then to 1.0, so the kernel
    stays defined on regular grids; with no pair under the threshold it is
    1.0 and the adjacency is empty.

    Args:
        nodes: sensor locations.
        threshold_xi: cutoff distance in km; pairs at or beyond it get
            weight 0.
        pairs: ``node_pairs(nodes, threshold_xi)``, if the caller has it.

    Returns:
        GeoAdjacency with symmetric weights and zero diagonal.

    Raises:
        GraphBuildError: non-positive threshold.
    """
    import scipy.sparse as sp

    rows, cols, dist, _ = node_pairs(nodes, threshold_xi) if pairs is None else pairs
    edge_d = dist[rows < cols]  # each pair once, in upper-triangle order
    sigma_sq = 1.0
    if edge_d.size:
        sigma_sq = float(np.var(edge_d)) or float(np.mean(edge_d * edge_d)) or 1.0

    weights = np.exp(-(dist * dist) / sigma_sq)
    keep = weights >= np.finfo(float).tiny  # else 1/sqrt(degree) can overflow
    csr = sp.csr_matrix((weights[keep], cols[keep], _indptr(rows[keep], nodes.n)),
                        shape=(nodes.n, nodes.n))
    return GeoAdjacency(weights=csr, sigma_sq=sigma_sq)


def build_diffusion_operator(geo: GeoAdjacency) -> DiffusionOperator:
    """Normalize an adjacency to D^(-1/2) A D^(-1/2).

    Zero-degree nodes keep all-zero rows and columns instead of dividing
    by zero.  Scaling each stored entry by the commutative product
    s_i * s_j preserves bitwise symmetry.
    """
    import scipy.sparse as sp

    w = geo.weights
    n = w.shape[0]
    deg = np.asarray(w.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros(n)
    positive = deg > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(deg[positive])
    rows = np.repeat(np.arange(n), np.diff(w.indptr))
    data = w.data * (inv_sqrt[rows] * inv_sqrt[w.indices])
    return DiffusionOperator(weights=sp.csr_matrix((data, w.indices, w.indptr), shape=(n, n)))


# m/s over km is 1/1000 per second; times 3600 s/h gives 3.6 per hour.
_MS_PER_KM_TO_PER_HOUR = 3.6


def build_advection_operator(nodes: NodeSet, wind: np.ndarray,
                             threshold_xi: float) -> AdvectionOperator:
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
    return advection_sequence(nodes, np.asarray(wind)[None], threshold_xi)


def advection_sequence(nodes: NodeSet, wind_series: np.ndarray, threshold_xi: float,
                       pairs: NodePairs | None = None) -> AdvectionOperator:
    """The advection operator over every hour of a (T, N, 2) wind series.

    The (T, E) rates are taken over the geometry of `pairs`
    (``node_pairs(nodes, threshold_xi)`` if not given), in CSR order;
    rates the ReLU clips to 0 stay stored, so every hour has the same
    sparsity pattern.  Each hour's rates depend only on its wind, so
    the operator of any hours is those hours of the whole series', bitwise.
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

    pairs = node_pairs(nodes, threshold_xi) if pairs is None else pairs
    rows, cols, geom = pairs.rows, pairs.cols, pair_geometry(pairs)
    # the wind at each edge's midpoint times its geometry, per component;
    # adding the two component views gives C-ordered (T, E) rates, the data
    # of ``weights`` without a copy, at half the cost of .sum(axis=2)
    term = 0.5 * (np.take(wind_series, rows, axis=1) + np.take(wind_series, cols, axis=1)) * geom
    rates = np.maximum(term[..., 0] + term[..., 1], 0.0) * _MS_PER_KM_TO_PER_HOUR
    return AdvectionOperator(rates=rates, indices=cols, indptr=_indptr(rows, nodes.n))
