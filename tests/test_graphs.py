"""Graph operator construction: kernel values, normalization, advection."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from pgkrig import graphs as g
from pgkrig.losses import edges_from_adjacency
from reference_ops import (coo_diffusion_operator, coo_edges, dense_advection_sequence,
                           dense_geo_adjacency, hour_operator)


def random_nodeset(rng, n=None):
    n = n if n is not None else int(rng.integers(3, 11))
    return g.NodeSet(rng.uniform(0.0, 100.0, size=(n, 2)))


class TestNodeSet:
    def test_rejects_single_node(self):
        with pytest.raises(g.GraphBuildError):
            g.NodeSet(np.zeros((1, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(g.GraphBuildError):
            g.NodeSet(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_default_ids_dense(self):
        # node identity is positional: node k is row k, so ids are 0..N-1
        ns = g.NodeSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(ns.positions[:, 0], [0.0, 1.0, 2.0])
        assert ns.n == 3


class TestGeoAdjacency:
    def test_coincident_pair_weight_one(self):
        ns = g.NodeSet(np.array([[5.0, 5.0], [5.0, 5.0]]))
        geo = g.build_geo_adjacency(ns, threshold_xi=10.0)
        w = geo.weights.toarray()
        assert w[0, 1] == 1.0 and w[1, 0] == 1.0

    def test_collinear_three_nodes(self):
        # distances under xi=150 are {100, 100}: variance 0, so sigma^2
        # falls back to the mean squared distance 100^2
        ns = g.NodeSet(np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]]))
        geo = g.build_geo_adjacency(ns, threshold_xi=150.0)
        w = geo.weights.toarray()
        expected = math.exp(-(100.0 ** 2) / ((100.0 ** 2 + 100.0 ** 2) / 2.0))
        assert w[0, 1] == pytest.approx(expected, rel=1e-15)
        assert w[1, 2] == pytest.approx(expected, rel=1e-15)
        assert w[0, 2] == 0.0 and w[2, 0] == 0.0
        assert geo.sigma_sq == pytest.approx(100.0 ** 2)

    def test_pair_exactly_at_threshold_excluded(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [100.0, 0.0], [50.0, 0.0]]))
        geo = g.build_geo_adjacency(ns, threshold_xi=100.0)
        w = geo.weights.toarray()
        assert w[0, 1] == 0.0
        assert w[0, 2] > 0.0 and w[1, 2] > 0.0

    def test_variance_sigma_on_irregular_layout(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 40.0]]))
        geo = g.build_geo_adjacency(ns, threshold_xi=60.0)
        dists = np.array([30.0, 40.0, 50.0])
        expected_sigma = float(np.var(dists))
        assert geo.sigma_sq == pytest.approx(expected_sigma)
        w = geo.weights.toarray()
        assert w[0, 1] == pytest.approx(math.exp(-30.0 ** 2 / expected_sigma))

    def test_zero_diagonal_and_unit_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            geo = g.build_geo_adjacency(random_nodeset(rng), threshold_xi=80.0)
            w = geo.weights.toarray()
            assert np.all(np.diag(w) == 0.0)
            assert np.all(w <= 1.0) and np.all(w >= 0.0)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            geo = g.build_geo_adjacency(random_nodeset(rng), threshold_xi=80.0)
            w = geo.weights.toarray()
            assert np.array_equal(w, w.T)

    def test_scale_covariance_pattern(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ns = random_nodeset(rng)
            geo1 = g.build_geo_adjacency(ns, threshold_xi=70.0)
            ns2 = g.NodeSet(ns.positions * 2.0)
            geo2 = g.build_geo_adjacency(ns2, threshold_xi=140.0)
            p1 = geo1.weights.toarray() > 0
            p2 = geo2.weights.toarray() > 0
            np.testing.assert_array_equal(p1, p2)

    def test_rejects_nonpositive_threshold(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(g.GraphBuildError):
            g.build_geo_adjacency(ns, threshold_xi=0.0)


class TestDiffusionOperator:
    def test_two_node_single_edge_normalizes_to_one(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [50.0, 0.0]]))
        geo = g.build_geo_adjacency(ns, threshold_xi=100.0)
        diff = g.build_diffusion_operator(geo).weights.toarray()
        # both degrees equal the single weight w, so w / sqrt(w * w) = 1
        assert diff[0, 1] == pytest.approx(1.0)
        assert diff[1, 0] == pytest.approx(1.0)

    def test_empty_adjacency_gives_zero_matrix(self):
        geo = g.GeoAdjacency(weights=sp.csr_matrix((3, 3)), sigma_sq=1.0)
        diff = g.build_diffusion_operator(geo).weights
        assert diff.nnz == 0 and diff.shape == (3, 3)

    def test_star_graph_hand_normalization(self):
        # hub 0 with unit edges to leaves 1..3: deg(hub)=3, deg(leaf)=1
        w = np.zeros((4, 4))
        w[0, 1:] = 1.0
        w[1:, 0] = 1.0
        geo = g.GeoAdjacency(weights=sp.csr_matrix(w), sigma_sq=1.0)
        diff = g.build_diffusion_operator(geo).weights.toarray()
        expected = 1.0 / math.sqrt(3.0 * 1.0)
        for leaf in (1, 2, 3):
            assert diff[0, leaf] == pytest.approx(expected)
            assert diff[leaf, 0] == pytest.approx(expected)

    def test_zero_degree_node_keeps_zero_row(self):
        # node 2 isolated inside a connected component's matrix
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.5
        geo = g.GeoAdjacency(weights=sp.csr_matrix(w), sigma_sq=1.0)
        diff = g.build_diffusion_operator(geo).weights.toarray()
        assert np.all(diff[2, :] == 0.0) and np.all(diff[:, 2] == 0.0)

    def test_bitwise_symmetry_and_contraction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            # 150 km exceeds the [0,100]^2 diameter, so no isolated layouts
            geo = g.build_geo_adjacency(random_nodeset(rng), threshold_xi=150.0)
            diff = g.build_diffusion_operator(geo).weights.toarray()
            assert np.array_equal(diff, diff.T)
            radius = np.max(np.abs(np.linalg.eigvals(diff)))
            assert radius <= 1.0 + 1e-9


class TestAdvectionOperator:
    def test_aligned_wind_gives_speed_over_distance(self):
        # wind blows from node 0 toward node 1: edge 0 -> 1 active
        ns = g.NodeSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
        wind = np.array([[3.0, 0.0], [3.0, 0.0]])
        adv = g.build_advection_operator(ns, wind, threshold_xi=10.0).weights.toarray()
        # 3 m/s over 2 km, converted to 1/hour
        assert adv[1, 0] == pytest.approx(3.6 * 3.0 / 2.0)
        assert adv[0, 1] == 0.0

    def test_perpendicular_wind_zero(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
        wind = np.array([[0.0, 5.0], [0.0, 5.0]])
        adv = g.build_advection_operator(ns, wind, threshold_xi=10.0).weights.toarray()
        assert adv[1, 0] == 0.0 and adv[0, 1] == 0.0

    def test_opposed_wind_relu_clips_one_direction(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [4.0, 0.0]]))
        wind = np.array([[-2.0, 0.0], [-2.0, 0.0]])
        adv = g.build_advection_operator(ns, wind, threshold_xi=10.0).weights.toarray()
        assert adv[1, 0] == 0.0
        assert adv[0, 1] == pytest.approx(3.6 * 2.0 / 4.0)

    def test_midpoint_wind_convention(self):
        # node winds differ: edge uses their arithmetic mean
        ns = g.NodeSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        wind = np.array([[4.0, 0.0], [0.0, 0.0]])
        adv = g.build_advection_operator(ns, wind, threshold_xi=10.0).weights.toarray()
        assert adv[1, 0] == pytest.approx(3.6 * 2.0 / 1.0)

    def test_coincident_nodes_error(self):
        ns = g.NodeSet(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(g.GraphBuildError, match="coincident"):
            g.build_advection_operator(ns, np.zeros((2, 2)), threshold_xi=10.0)

    def test_bad_wind_shape_and_nan(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(g.GraphBuildError):
            g.build_advection_operator(ns, np.zeros((3, 2)), threshold_xi=10.0)
        with pytest.raises(g.GraphBuildError):
            g.build_advection_operator(ns, np.array([[np.inf, 0.0], [0.0, 0.0]]), 10.0)

    def test_anisotropy_and_locality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ns = random_nodeset(rng)
            wind = rng.normal(0.0, 3.0, size=(ns.n, 2))
            xi = 60.0
            adv = g.build_advection_operator(ns, wind, threshold_xi=xi).weights.toarray()
            dist = g.planar_distances(ns.positions)
            assert np.all(adv >= 0.0)
            assert np.all(adv[dist >= xi] == 0.0)
            # wind with a along-edge component activates exactly one direction
            nz = (adv > 0) | (adv.T > 0)
            assert not np.any((adv > 0) & (adv.T > 0))
            for i, j in zip(*np.nonzero(np.triu(nz, k=1))):
                assert (adv[i, j] > 0) != (adv[j, i] > 0)


class TestAdvectionSequence:
    def test_constant_wind_identical_operators(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]))
        series = np.tile(np.array([[1.0, 2.0]]), (5, 3, 1))
        op = g.advection_sequence(ns, series, threshold_xi=10.0)
        assert len(op) == 5
        first = hour_operator(op, 0).weights.toarray()
        for step in range(1, 5):
            np.testing.assert_array_equal(hour_operator(op, step).weights.toarray(), first)

    def test_zero_wind_all_zero(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [3.0, 0.0]]))
        op = g.advection_sequence(ns, np.zeros((4, 2, 2)), threshold_xi=10.0)
        assert len(op) == 4 and np.all(op.rates == 0.0) and np.all(op.weights.data == 0.0)

    def test_reversing_wind_transposes(self):
        rng = np.random.default_rng(5)
        ns = random_nodeset(rng, n=6)
        t = 8
        base = rng.normal(0.0, 2.0, size=(t // 2, 1, 2))
        series = np.concatenate([base, -base[::-1]], axis=0)
        series = np.broadcast_to(series, (t, ns.n, 2))
        op = g.advection_sequence(ns, series, threshold_xi=80.0)
        for step in range(t):
            a = hour_operator(op, step).weights.toarray()
            b = hour_operator(op, t - 1 - step).weights.toarray()
            np.testing.assert_allclose(a, b.T, atol=1e-12)

    def test_matches_single_step_builder(self):
        rng = np.random.default_rng(6)
        ns = random_nodeset(rng, n=5)
        series = rng.normal(0.0, 3.0, size=(3, 5, 2))
        op = g.advection_sequence(ns, series, threshold_xi=70.0)
        for step in range(3):
            single = g.build_advection_operator(ns, series[step], threshold_xi=70.0)
            np.testing.assert_array_equal(
                hour_operator(op, step).weights.toarray(), single.weights.toarray())

    def test_spatially_varying_wind_uses_edge_midpoints(self):
        # every testbed preset blows uniform wind, so only this test gives
        # the two ends of an edge different winds
        rng = np.random.default_rng(7)
        ns = random_nodeset(rng, n=9)
        t, xi = 6, 70.0
        wind = rng.normal(0.0, 3.0, size=(t, ns.n, 2))
        ops = g.advection_sequence(ns, wind, threshold_xi=xi)
        assert len(ops) == t
        ops = [hour_operator(ops, step) for step in range(t)]

        pos = ns.positions
        offset = pos[:, None, :] - pos[None, :, :]  # p_i - p_j
        dist = g.planar_distances(pos)
        near = (dist < xi) & ~np.eye(ns.n, dtype=bool)
        d_sq = np.where(near, dist * dist, 1.0)
        rows, cols, d, _ = g.node_pairs(ns, xi)
        geom = (pos[rows] - pos[cols]) / (d * d)[:, None]
        for step, op in enumerate(ops):
            w = wind[step]
            single = g.build_advection_operator(ns, w, threshold_xi=xi).weights
            # one step at a time through a COO -> CSR conversion
            loop = sp.csr_matrix((3.6 * np.maximum(
                (0.5 * (w[rows] + w[cols]) * geom).sum(axis=1), 0.0), (rows, cols)),
                shape=(ns.n, ns.n))
            for ref in (single, loop):
                assert op.weights.data.tobytes() == ref.data.tobytes()
                np.testing.assert_array_equal(op.weights.indices, ref.indices)
                np.testing.assert_array_equal(op.weights.indptr, ref.indptr)

            mid = 0.5 * (w[:, None, :] + w[None, :, :])
            expected = np.where(
                near, 3.6 * np.maximum((mid * offset).sum(axis=-1) / d_sq, 0.0), 0.0)
            np.testing.assert_allclose(op.weights.toarray(), expected, rtol=1e-12, atol=0.0)
            # the midpoint matters: the source node's wind alone gives other rates
            source_only = np.where(
                near, 3.6 * np.maximum((w[None, :, :] * offset).sum(axis=-1) / d_sq, 0.0),
                0.0)
            assert not np.allclose(expected, source_only)

    def test_shape_validation(self):
        ns = g.NodeSet(np.array([[0.0, 0.0], [3.0, 0.0]]))
        with pytest.raises(g.GraphBuildError):
            g.advection_sequence(ns, np.zeros((4, 3, 2)), threshold_xi=10.0)
        with pytest.raises(g.GraphBuildError):
            g.advection_sequence(ns, np.zeros((0, 2, 2)), threshold_xi=10.0)


def _csr_bytes(matrix):
    return tuple(getattr(matrix, a).tobytes() for a in ("data", "indices", "indptr"))


def test_window_operator_places_each_hour_in_its_block():
    # row t*N + i is the message to node i at hour t; column j*T + t is
    # node j at hour t; so hour t's N x N operator sits on hour t alone
    rng = np.random.default_rng(22)
    ns = random_nodeset(rng, n=7)
    t = 5
    op = g.advection_sequence(ns, rng.normal(0.0, 3.0, size=(t, ns.n, 2)), 80.0)
    assert np.shares_memory(op.weights.data, op.rates)
    expected = np.zeros((ns.n * t, ns.n * t))
    for hour in range(t):
        expected[hour * ns.n:(hour + 1) * ns.n, hour::t] = (
            hour_operator(op, hour).weights.toarray())
    np.testing.assert_array_equal(op.weights.toarray(), expected)

    x = rng.normal(size=(ns.n, t, 3))
    messages = (op.weights @ x.reshape(ns.n * t, 3)).reshape(t, ns.n, 3)
    for hour in range(t):
        single = hour_operator(op, hour).weights @ np.ascontiguousarray(x[:, hour, :])
        assert messages[hour].tobytes() == single.tobytes()


def _parity_layouts():
    """(positions, threshold) pairs: random, lattice ties, coincident, isolated, subnormal."""
    rng = np.random.default_rng(23)
    for _ in range(120):
        n = int(rng.integers(2, 25))
        yield rng.uniform(0.0, 100.0, size=(n, 2)), float(rng.uniform(5.0, 150.0))
    for side, spacing in ((2, 1.0), (3, 2.0), (4, 5.0), (5, 0.5)):
        iy, ix = np.divmod(np.arange(side * side), side)
        lattice = np.stack([ix, iy], axis=1) * spacing
        for xi in (spacing, spacing * 1.5, spacing * math.sqrt(2.0), spacing * 2.0, 1e9):
            yield lattice, xi  # every distance ties, some at the threshold itself
    for _ in range(20):
        pos = rng.uniform(0.0, 30.0, size=(int(rng.integers(2, 9)), 2))
        pos[-1] = pos[int(rng.integers(0, pos.shape[0] - 1))]
        yield pos, float(rng.uniform(5.0, 60.0))
    yield np.array([[5.0, 5.0], [5.0, 5.0]]), 10.0
    yield np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]]), 50.0
    yield np.array([[0.0, 0.0], [100.0, 0.0], [300.0, 0.0]]), 150.0  # node 2 isolated
    yield np.array([[0.0, 0.0], [300.0, 0.0], [0.0, 300.0]]), 150.0  # no pair at all
    yield np.array([[0.0, 0.0], [14.85, 0.0], [0.0, 15.95], [40.0, 40.0]]), 16.0
    for xi in (0.0, -5.0, float("nan")):
        yield np.array([[0.0, 0.0], [1.0, 0.0]]), xi


def _outcome(build, *args):
    try:
        return build(*args)
    except g.GraphBuildError as exc:
        return type(exc), str(exc)


def test_builders_match_the_dense_reference():
    # the CSR-ordered pair list gives the bytes of the dense matrix and
    # COO round trip, and the same error type and text where they fail
    rng = np.random.default_rng(24)
    for positions, xi in _parity_layouts():
        ns = g.NodeSet(positions)
        wind = rng.normal(0.0, 3.0, size=(3, ns.n, 2))
        geo, ref_geo = _outcome(g.build_geo_adjacency, ns, xi), _outcome(dense_geo_adjacency, ns, xi)
        if isinstance(ref_geo, tuple):
            assert geo == ref_geo
        else:
            assert geo.sigma_sq == ref_geo.sigma_sq
            assert _csr_bytes(geo.weights) == _csr_bytes(ref_geo.weights)
            diffusion = g.build_diffusion_operator(geo).weights
            assert _csr_bytes(diffusion) == _csr_bytes(coo_diffusion_operator(ref_geo).weights)
            edges, ref_edges = edges_from_adjacency(geo), coo_edges(ref_geo)
            assert edges.dtype == ref_edges.dtype
            np.testing.assert_array_equal(edges, ref_edges)
        op = _outcome(g.advection_sequence, ns, wind, xi)
        ref_op = _outcome(dense_advection_sequence, ns, wind, xi)
        if isinstance(ref_op, tuple):
            assert op == ref_op
        else:
            assert _csr_bytes(op.weights) == _csr_bytes(ref_op.weights)
            assert op.indices.tobytes() == ref_op.indices.tobytes()
            assert op.indptr.tobytes() == ref_op.indptr.tobytes()


def _edge_case_winds(rng, t, n):
    """Winds with exact zeros, -0.0, negative components and exactly cancelling pairs."""
    normal = rng.normal(0.0, 3.0, size=(t, n, 2))
    yield normal
    yield np.where(rng.random((t, n, 2)) < 0.5, 0.0, normal)
    yield np.where(rng.random((t, n, 2)) < 0.5, -0.0, -np.abs(normal))
    yield np.full((t, n, 2), -0.0)
    yield rng.integers(-2, 3, size=(t, n, 2)).astype(float)


def test_rate_kernel_matches_the_pair_axis_expression():
    # one wind component at a time gives the bytes of the (T, E, 2) sum in
    # the reference, and C-ordered rates that `weights` reads without a copy
    rng = np.random.default_rng(25)
    for positions, xi in _parity_layouts():
        ns = g.NodeSet(positions)
        for t in (1, 5):
            for wind in _edge_case_winds(rng, t, ns.n):
                op = _outcome(g.advection_sequence, ns, wind, xi)
                ref_op = _outcome(dense_advection_sequence, ns, wind, xi)
                if isinstance(ref_op, tuple):
                    assert op == ref_op
                    continue
                assert op.rates.flags.c_contiguous and op.rates.shape == ref_op.rates.shape
                assert op.rates.tobytes() == ref_op.rates.tobytes()
                assert op.rates.size == 0 or np.shares_memory(op.weights.data, op.rates)
