"""Baseline interpolators: exactness, symmetry, convex-hull property."""

import numpy as np
import pytest

from pgkrig import baselines as b


class TestIdw:
    def test_coincident_target_returns_observed_value(self):
        obs_pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        vals = np.array([[3.0, 7.0]])
        out = b.idw(vals, obs_pos, np.array([[10.0, 0.0]]))
        assert out[0, 0] == 7.0

    def test_equidistant_pair_averages(self):
        obs_pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        vals = np.array([10.0, 20.0])
        out = b.idw(vals, obs_pos, np.array([[5.0, 0.0]]))
        assert out[0] == pytest.approx(15.0)

    def test_three_node_hand_computation(self):
        # target at origin; observed at distances 1, 2, 4 with p=2
        obs_pos = np.array([[1.0, 0.0], [0.0, 2.0], [4.0, 0.0]])
        vals = np.array([10.0, 20.0, 40.0])
        w = np.array([1.0, 1.0 / 4.0, 1.0 / 16.0])
        expected = float(np.sum(w * vals) / np.sum(w))
        out = b.idw(vals, obs_pos, np.array([[0.0, 0.0]]))
        assert out[0] == pytest.approx(expected)

    def test_power_changes_locality(self):
        obs_pos = np.array([[1.0, 0.0], [3.0, 0.0]])
        vals = np.array([0.0, 10.0])
        target = np.array([[0.0, 0.0]])
        near_heavy = b.idw(vals, obs_pos, target, power=6.0)[0]
        flat = b.idw(vals, obs_pos, target, power=0.5)[0]
        assert near_heavy < flat

    def test_no_observed_errors(self):
        with pytest.raises(b.BaselineError):
            b.idw(np.zeros((2, 0)), np.zeros((0, 2)), np.array([[0.0, 0.0]]))

    def test_nonpositive_power_errors(self):
        with pytest.raises(b.BaselineError):
            b.idw(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), power=0.0)

    def test_per_timestep_independence(self):
        rng = np.random.default_rng(0)
        obs_pos = rng.uniform(0, 10, size=(4, 2))
        vals = rng.normal(size=(3, 4))
        targets = rng.uniform(0, 10, size=(2, 2))
        full = b.idw(vals, obs_pos, targets)
        for t in range(3):
            step = b.idw(vals[t], obs_pos, targets)
            np.testing.assert_allclose(full[t], step)


class TestConvexHull:
    def test_all_baselines_stay_in_observed_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k, mt, t = 5, 4, 3
            obs_pos = rng.uniform(0, 50, size=(k, 2))
            tgt_pos = rng.uniform(0, 50, size=(mt, 2))
            vals = rng.normal(10.0, 5.0, size=(t, k))
            lo, hi = vals.min(), vals.max()
            est = b.idw(vals, obs_pos, tgt_pos)
            assert np.all(est >= lo - 1e-12) and np.all(est <= hi + 1e-12)
