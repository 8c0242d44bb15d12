"""Metric definitions and degenerate-input errors."""

import numpy as np
import pytest

from pgkrig import metrics as m


class TestScalars:
    def test_perfect_prediction(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert m.mae(truth, truth) == 0.0
        assert m.rmse(truth, truth) == 0.0
        assert m.r2(truth, truth) == 1.0

    def test_constant_offset(self):
        truth = np.array([1.0, 2.0, 3.0])
        pred = truth + 1.0
        assert m.mae(pred, truth) == 1.0
        assert m.rmse(pred, truth) == 1.0

    def test_mean_predictor_r2_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, truth.mean())
        assert m.r2(pred, truth) == pytest.approx(0.0)

    def test_hand_computed_values(self):
        truth = np.array([0.0, 4.0])
        pred = np.array([1.0, 1.0])
        assert m.mae(pred, truth) == 2.0
        assert m.rmse(pred, truth) == pytest.approx(np.sqrt((1.0 + 9.0) / 2.0))
        # SS_res = 10, SS_tot = 8
        assert m.r2(pred, truth) == pytest.approx(1.0 - 10.0 / 8.0)

    def test_empty_input_errors(self):
        for metric in (m.mae, m.rmse, m.r2, m.score_pooled):
            with pytest.raises(m.MetricError):
                metric(np.ones(0), np.ones(0))

    def test_zero_variance_truth_errors_not_nan(self):
        with pytest.raises(m.MetricError):
            m.r2(np.array([1.0, 2.0]), np.array([5.0, 5.0]))

    def test_shape_mismatch_errors(self):
        with pytest.raises(m.MetricError):
            m.mae(np.ones(3), np.ones(4))

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred = rng.normal(size=20)
            truth = rng.normal(size=20)
            assert m.rmse(pred, truth) >= m.mae(pred, truth) - 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=15)
        truth = rng.normal(size=15)
        perm = rng.permutation(15)
        assert m.mae(pred, truth) == pytest.approx(m.mae(pred[perm], truth[perm]))
        assert m.rmse(pred, truth) == pytest.approx(m.rmse(pred[perm], truth[perm]))
        assert m.r2(pred, truth) == pytest.approx(m.r2(pred[perm], truth[perm]))


class TestPerNode:
    def test_per_node_scores(self):
        truth = np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
        pred = truth + np.array([[1.0, -2.0]] * 3)
        scores = m.score_per_node(pred, truth)
        assert [s.node_id for s in scores] == [0, 1]
        assert scores[0].mae == 1.0
        assert scores[1].mae == 2.0
        # node 1 truth is constant: r2 undefined, reported as None
        assert scores[0].r2 is not None and scores[1].r2 is None

    def test_pooled_matches_flat_metrics(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(4, 3))
        truth = rng.normal(size=(4, 3))
        pooled = m.score_pooled(pred, truth)
        assert pooled.node_id == -1
        assert pooled.mae == pytest.approx(m.mae(pred, truth))
        assert pooled.rmse == pytest.approx(m.rmse(pred, truth))
        assert pooled.r2 == pytest.approx(m.r2(pred.ravel(), truth.ravel()))

    def test_scores_do_not_depend_on_memory_layout(self):
        # bitwise: eval scores column-gathered (non-contiguous) truth arrays
        rng = np.random.default_rng(0)
        pred = rng.lognormal(size=(40, 12)) * 40.0
        truth = rng.lognormal(size=(40, 12)) * 40.0
        gathered = np.concatenate([truth, truth], axis=1)[:, list(range(12))]
        assert not gathered.flags.c_contiguous
        assert m.score_pooled(pred, gathered) == m.score_pooled(pred, truth)
        assert m.score_per_node(pred, gathered) == m.score_per_node(pred, truth)

    def test_per_node_empty_input_errors(self):
        for shape in ((0, 2), (2, 0)):
            with pytest.raises(m.MetricError):
                m.score_per_node(np.ones(shape), np.ones(shape))

    def test_per_node_rejects_non_matrix(self):
        with pytest.raises(m.MetricError):
            m.score_per_node(np.ones(3), np.ones(3))
