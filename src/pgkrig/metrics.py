"""Scoring: MAE, RMSE and R² over all elements, per node and pooled."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DataError


class MetricError(DataError, ValueError):
    """Metric is undefined for the given inputs."""


def _pairs(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise MetricError(f"pred shape {pred.shape} vs truth shape {truth.shape}")
    if not pred.size:
        raise MetricError("no elements to score")
    # flat, in C order: every sum then runs in one order whatever the layout
    return pred.ravel(), truth.ravel()


def mae(pred, truth) -> float:
    """Mean absolute error."""
    p, t = _pairs(pred, truth)
    return float(np.mean(np.abs(p - t)))


def rmse(pred, truth) -> float:
    """Root mean squared error."""
    p, t = _pairs(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def r2(pred, truth) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Raises:
        MetricError: no elements, or zero-variance truth (R² undefined).
    """
    p, t = _pairs(pred, truth)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricError("truth has zero variance: R^2 is undefined")
    ss_res = float(np.sum((p - t) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class NodeScore:
    node_id: int
    mae: float
    rmse: float
    r2: float | None  # None when the node's truth is constant


def score_per_node(pred: np.ndarray, truth: np.ndarray) -> list[NodeScore]:
    """Score a (T, N) prediction node by node.

    Args:
        pred: (T, N) estimates.
        truth: (T, N) reference values.

    Returns:
        One NodeScore per node, ordered by node id.  A node's r2 is None
        when its truth is constant over the scored steps.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 2 or pred.shape != truth.shape or not pred.size:
        raise MetricError(
            f"expected matching non-empty (T, N) arrays, got {pred.shape} and {truth.shape}")
    scores = []
    for node in range(pred.shape[1]):
        node_mae = mae(pred[:, node], truth[:, node])
        node_rmse = rmse(pred[:, node], truth[:, node])
        try:
            node_r2 = r2(pred[:, node], truth[:, node])
        except MetricError:
            node_r2 = None
        scores.append(NodeScore(node_id=node, mae=node_mae, rmse=node_rmse, r2=node_r2))
    return scores


def score_pooled(pred: np.ndarray, truth: np.ndarray) -> NodeScore:
    """Pool every element into one score (node_id -1); r2 is None for constant truth."""
    pooled_mae = mae(pred, truth)  # raises on mismatched shapes and empty input
    try:
        pooled_r2: float | None = r2(pred, truth)
    except MetricError:  # past `mae`, only zero-variance truth is left
        pooled_r2 = None
    return NodeScore(node_id=-1, mae=pooled_mae, rmse=rmse(pred, truth), r2=pooled_r2)
