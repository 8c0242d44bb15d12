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


def _score(node_id: int, pred: np.ndarray, truth: np.ndarray) -> NodeScore:
    """The scores of one node's elements (the pooled row's at node_id -1).

    Raises:
        MetricError: a score overflows float64; the message names the node.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            node_mae, node_rmse = mae(pred, truth), rmse(pred, truth)
            try:
                node_r2: float | None = r2(pred, truth)
            except MetricError:  # past `mae`, only zero-variance truth is left
                node_r2 = None
    except FloatingPointError as exc:
        where = "pooled row" if node_id == -1 else f"node {node_id}"
        raise MetricError(f"{where}: scores overflow float64 ({exc})") from None
    return NodeScore(node_id=node_id, mae=node_mae, rmse=node_rmse, r2=node_r2)


def score_per_node(pred: np.ndarray, truth: np.ndarray,
                   node_ids: np.ndarray | list[int]) -> list[NodeScore]:
    """Score a (T, N) prediction node by node.

    Args:
        pred: (T, N) estimates.
        truth: (T, N) reference values.
        node_ids: the N ids of the columns, in order.

    Returns:
        One NodeScore per column, in column order.  A node's r2 is None
        when its truth is constant over the scored steps.

    Raises:
        MetricError: mismatched or empty arrays, or a node whose scores
            overflow float64.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if (pred.ndim != 2 or pred.shape != truth.shape or not pred.size
            or len(node_ids) != pred.shape[1]):
        raise MetricError(f"expected matching non-empty (T, N) arrays and N ids, got "
                          f"{pred.shape}, {truth.shape} and {len(node_ids)} ids")
    return [_score(int(node), pred[:, k], truth[:, k]) for k, node in enumerate(node_ids)]


def score_pooled(pred: np.ndarray, truth: np.ndarray) -> NodeScore:
    """Pool every element into one score (node_id -1); r2 is None for constant truth.

    Raises:
        MetricError: mismatched or empty arrays, or scores that overflow float64.
    """
    return _score(-1, pred, truth)
