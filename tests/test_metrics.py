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
        scores = m.score_per_node(pred, truth, [7, 3])
        assert [s.node_id for s in scores] == [7, 3]
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
        ids = list(range(12))
        assert m.score_per_node(pred, gathered, ids) == m.score_per_node(pred, truth, ids)

    def test_per_node_empty_input_errors(self):
        for shape in ((0, 2), (2, 0)):
            with pytest.raises(m.MetricError):
                m.score_per_node(np.ones(shape), np.ones(shape), list(range(shape[1])))

    def test_per_node_rejects_non_matrix(self):
        with pytest.raises(m.MetricError):
            m.score_per_node(np.ones(3), np.ones(3), [0])

    def test_per_node_needs_one_id_per_column(self):
        with pytest.raises(m.MetricError, match="and 1 ids"):
            m.score_per_node(np.ones((3, 2)), np.ones((3, 2)), [0])


class TestOverflow:
    """A score that overflows float64 is an error naming its row, never inf or a warning."""

    def test_overflowing_error_names_the_node(self):
        pred = np.array([[0.0, 1e308], [0.0, -1e308]])
        truth = np.array([[1.0, -1e308], [2.0, 1e308]])
        with pytest.raises(m.MetricError, match="^node 9: scores overflow float64"):
            m.score_per_node(pred, truth, [4, 9])
        with pytest.raises(m.MetricError, match="^pooled row: scores overflow float64"):
            m.score_pooled(pred, truth)

    def test_overflowing_square_names_the_node(self):
        # the error itself is finite; its square is not
        with pytest.raises(m.MetricError, match="^node 2: scores overflow float64"):
            m.score_per_node(np.array([[2e154], [0.0]]), np.zeros((2, 1)), [2])

    def test_overflowing_pooled_sum_names_the_pooled_row(self):
        pred, truth = np.full((1, 2), 1.3e154), np.zeros((1, 2))
        assert [s.rmse for s in m.score_per_node(pred, truth, [0, 1])] == [1.3e154] * 2
        with pytest.raises(m.MetricError, match="^pooled row: scores overflow float64"):
            m.score_pooled(pred, truth)

    def test_scores_near_the_float_range_stay_finite(self):
        truth = np.array([[1e150], [-1e150]])  # squared deviations 1e300
        (score,) = m.score_per_node(truth + 1e149, truth, [0])
        assert score.rmse == pytest.approx(1e149) and score.r2 == pytest.approx(0.99)
