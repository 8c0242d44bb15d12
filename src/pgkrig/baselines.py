"""Classical interpolators for benchmark contrast.

Each baseline fills target nodes from observed nodes one timestep at a
time, with no temporal pooling: this is how a naive operational system
would run, and it makes the contrast with the learned model fair on a
per-step basis.  Every estimate is a convex combination of observed
values, so baselines can never leave the observed [min, max] hull.
"""

from __future__ import annotations

import numpy as np


class BaselineError(ValueError):
    """Baseline inputs are unusable (e.g. nothing observed)."""


def _check_inputs(observed_values, observed_positions, target_positions):
    vals = np.asarray(observed_values, dtype=np.float64)
    obs_pos = np.asarray(observed_positions, dtype=np.float64)
    tgt_pos = np.asarray(target_positions, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[None, :]
    if vals.shape[1] == 0:
        raise BaselineError("no observed nodes")
    if obs_pos.shape != (vals.shape[1], 2):
        raise BaselineError(
            f"observed positions shape {obs_pos.shape} vs {vals.shape[1]} observed series")
    if tgt_pos.ndim != 2 or tgt_pos.shape[1] != 2:
        raise BaselineError(f"target positions must be (M, 2), got {tgt_pos.shape}")
    return vals, obs_pos, tgt_pos


def idw(observed_values: np.ndarray, observed_positions: np.ndarray,
        target_positions: np.ndarray, power: float = 2.0) -> np.ndarray:
    """Inverse-distance-weighted estimates, exact at zero distance.

    Args:
        observed_values: (T, K) or (K,) values at observed nodes.
        observed_positions: (K, 2) km coordinates.
        target_positions: (M, 2) km coordinates to estimate.
        power: distance exponent p > 0; weights are dist^-p.

    Returns:
        (T, M) estimates ((M,) when input was 1-D).
    """
    if not power > 0:
        raise BaselineError(f"power must be positive, got {power}")
    vals, obs_pos, tgt_pos = _check_inputs(observed_values, observed_positions,
                                           target_positions)
    squeeze = np.asarray(observed_values).ndim == 1

    diff = tgt_pos[:, None, :] - obs_pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))  # (M, K)
    out = np.empty((vals.shape[0], tgt_pos.shape[0]))
    coincident = dist == 0.0
    with np.errstate(divide="ignore"):
        w = np.where(coincident, 0.0, dist) ** -power
    w[coincident] = 0.0
    for m in range(tgt_pos.shape[0]):
        hits = np.nonzero(coincident[m])[0]
        if hits.size:
            out[:, m] = vals[:, hits[0]]
        else:
            out[:, m] = vals @ w[m] / w[m].sum()
    return out[0] if squeeze else out
