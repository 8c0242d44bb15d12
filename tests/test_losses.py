"""Loss terms: hand sums, masking, invariances, composite arithmetic."""

import numpy as np
import pytest

from pgkrig import autodiff as ad
from pgkrig import losses as ls


class TestInferAndInitLoss:
    def test_zero_at_truth(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        loss = ls.infer_loss(ad.Tensor(x), x, np.array([1, 3]))
        assert loss.item() == 0.0

    def test_single_element_error(self):
        pred = ad.Tensor(np.array([[7.5]]))
        loss = ls.infer_loss(pred, np.array([[5.0]]), np.array([0]))
        assert loss.item() == 2.5

    def test_hand_sum_two_targets_three_steps(self):
        truth = np.zeros((3, 3))
        pred = ad.Tensor(np.ones((3, 3)))
        loss = ls.infer_loss(pred, truth, np.array([0, 2]))
        assert loss.item() == 6.0

    def test_empty_targets_error(self):
        with pytest.raises(ls.LossError):
            ls.infer_loss(ad.Tensor(np.zeros((2, 2))), np.zeros((2, 2)),
                          np.array([], dtype=int))

    def test_out_of_range_targets_error(self):
        with pytest.raises(ls.LossError):
            ls.infer_loss(ad.Tensor(np.zeros((2, 2))), np.zeros((2, 2)), np.array([5]))

    def test_no_leakage_from_observed_rows(self):
        rng = np.random.default_rng(1)
        pred = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        truth = rng.normal(size=(5, 4))
        targets = np.array([1, 4])
        base = ls.infer_loss(pred, truth, targets)
        perturbed = truth.copy()
        perturbed[[0, 2, 3], :] += 100.0  # observed rows only
        after = ls.infer_loss(pred, perturbed, targets)
        assert base.item() == after.item()

    def test_gradient_only_on_targets(self):
        rng = np.random.default_rng(2)
        pred = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        truth = rng.normal(size=(4, 3))
        ls.infer_loss(pred, truth, np.array([2])).backward()
        assert np.all(pred.grad[[0, 1, 3], :] == 0.0)
        assert np.any(pred.grad[2, :] != 0.0)

    def test_init_loss_same_contract(self):
        truth = np.zeros((2, 2))
        pred = ad.Tensor(np.full((2, 2), 1.5))
        assert ls.init_loss(pred, truth, np.array([0, 1])).item() == 6.0


class TestAodGradientLoss:
    def _line_edges(self, n):
        return np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)

    def test_fully_masked_zero_loss_zero_gradient(self):
        rng = np.random.default_rng(3)
        pred = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        aod = rng.normal(size=(4, 5))
        loss = ls.aod_gradient_loss(pred, aod, np.zeros((4, 5)), self._line_edges(4))
        assert loss.item() == 0.0
        total = ad.add(loss, ad.tensor_sum(ad.mul(pred, 0.0)))
        total.backward()
        assert np.all(pred.grad == 0.0)

    def test_zero_when_prediction_is_affine_in_proxy(self):
        rng = np.random.default_rng(4)
        aod = rng.normal(size=(5, 6))
        pred = ad.Tensor(2.0 * aod - 7.0)
        loss = ls.aod_gradient_loss(pred, aod, np.ones((5, 6)), self._line_edges(5))
        assert abs(loss.item()) < 1e-12

    def test_additive_offset_invariance(self):
        rng = np.random.default_rng(5)
        pred = ad.Tensor(rng.normal(size=(6, 8)))
        aod = rng.normal(size=(6, 8)) * 10.0
        valid = (rng.random((6, 8)) < 0.7).astype(float)
        edges = self._line_edges(6)
        base = ls.aod_gradient_loss(pred, aod, valid, edges).item()
        for c in (-53.2, 0.7, 1234.5):
            shifted = ls.aod_gradient_loss(pred, aod + c, valid, edges).item()
            assert abs(base - shifted) < 1e-9

    def test_gain_invariance_bias_filtering(self):
        # pure gain+offset distortion of the proxy changes nothing either
        rng = np.random.default_rng(6)
        pred = ad.Tensor(rng.normal(size=(5, 4)))
        aod = rng.normal(size=(5, 4))
        valid = np.ones((5, 4))
        edges = self._line_edges(5)
        base = ls.aod_gradient_loss(pred, aod, valid, edges).item()
        scaled = ls.aod_gradient_loss(pred, 3.0 * aod + 0.5, valid, edges).item()
        assert abs(base - scaled) < 1e-9

    def test_masking_whole_timesteps_never_increases(self):
        # per-timestep standardization makes step contributions independent,
        # so masking out a full step removes a non-negative term
        rng = np.random.default_rng(7)
        pred = ad.Tensor(rng.normal(size=(5, 6)))
        aod = rng.normal(size=(5, 6))
        valid = np.ones((5, 6))
        edges = self._line_edges(5)
        last = ls.aod_gradient_loss(pred, aod, valid, edges).item()
        for step in range(6):
            valid[:, step] = 0.0
            now = ls.aod_gradient_loss(pred, aod, valid, edges).item()
            assert now <= last + 1e-12
            last = now

    def test_hand_computed_single_step(self):
        # two nodes, one edge, identity standardization check by hand
        pred = ad.Tensor(np.array([[1.0], [3.0]]))
        aod = np.array([[5.0], [4.0]])
        valid = np.ones((2, 1))
        edges = np.array([[0, 1]])
        # standardized pred: mean 2, std 1 -> [-1, 1]; diff = 2
        # standardized aod: mean 4.5, std 0.5 -> [1, -1]; diff = -2
        loss = ls.aod_gradient_loss(pred, aod, valid, edges)
        assert loss.item() == pytest.approx(4.0)

    def test_constant_proxy_column_guarded(self):
        # zero-variance proxy must not divide by zero
        pred = ad.Tensor(np.array([[1.0], [2.0], [4.0]]), requires_grad=True)
        aod = np.full((3, 1), 9.0)
        loss = ls.aod_gradient_loss(pred, aod, np.ones((3, 1)), self._line_edges(3))
        assert np.isfinite(loss.item())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        aod = rng.normal(size=(4, 3))
        valid = (rng.random((4, 3)) < 0.8).astype(float)
        edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
        t = ad.Tensor(x, requires_grad=True)
        ls.aod_gradient_loss(t, aod, valid, edges).backward()
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                bumped = x.copy()
                bumped[i, j] += eps
                hi = ls.aod_gradient_loss(ad.Tensor(bumped), aod, valid, edges).item()
                bumped[i, j] -= 2 * eps
                lo = ls.aod_gradient_loss(ad.Tensor(bumped), aod, valid, edges).item()
                num = (hi - lo) / (2 * eps)
                assert t.grad[i, j] == pytest.approx(num, abs=1e-5)

    def test_shape_and_mask_validation(self):
        pred = ad.Tensor(np.zeros((3, 2)))
        with pytest.raises(ls.LossError):
            ls.aod_gradient_loss(pred, np.zeros((3, 3)), np.ones((3, 2)), np.array([[0, 1]]))
        with pytest.raises(ls.LossError):
            ls.aod_gradient_loss(pred, np.zeros((3, 2)), np.full((3, 2), 0.5),
                                 np.array([[0, 1]]))
        with pytest.raises(ls.LossError):
            ls.aod_gradient_loss(pred, np.zeros((3, 2)), np.ones((3, 2)),
                                 np.array([[0, 0]]))


def _standardize_on_tape(column, mask):
    count = float(mask.sum())
    mean = ad.tensor_sum(ad.mul(column, mask)) * (1.0 / count)
    centered = ad.sub(column, mean)
    var = ad.tensor_sum(ad.mul(ad.mul(centered, centered), mask)) * (1.0 / count)
    std = ad.sqrt(var)
    if float(std.data) < 1e-6:
        return centered
    return ad.div(centered, std)


def _standardize_constant(values, mask):
    count = mask.sum()
    mean = (values * mask).sum() / count
    std = np.sqrt(((values - mean) ** 2 * mask).sum() / count)
    if std < 1e-6:
        std = 1.0
    return (values - mean) / std


def reference_aod_loss(x_hat, aod_values, aod_valid, edges):
    """The per-hour primitive composition the fused loss reproduces bitwise."""
    src, dst = edges[:, 0], edges[:, 1]
    total = None
    for step in range(x_hat.shape[1]):
        mask = aod_valid[:, step]
        if mask.sum() == 0:
            continue
        edge_mask = mask[src] * mask[dst]
        if edge_mask.sum() == 0:
            continue
        pred_std = _standardize_on_tape(x_hat[:, step], mask)
        proxy_std = _standardize_constant(aod_values[:, step], mask)
        pred_diff = ad.sub(pred_std[dst], pred_std[src])
        proxy_diff = proxy_std[dst] - proxy_std[src]
        terms = ad.mul(ad.absolute(ad.sub(pred_diff, proxy_diff)), edge_mask)
        step_sum = ad.tensor_sum(terms)
        total = step_sum if total is None else ad.add(total, step_sum)
    return total if total is not None else ad.Tensor(0.0)


def _random_edges(rng, n, count):
    i, j = rng.integers(0, n, count), rng.integers(0, n, count)
    return np.stack([i, j], axis=1)[i != j].reshape(-1, 2)


def _case(name):
    """(x, aod, valid, edges) for one named situation."""
    rng = np.random.default_rng(CASES.index(name))
    n, t = 20, 24
    x = rng.normal(10.0, 4.0, size=(n, t))
    aod = rng.normal(0.5, 0.2, size=(n, t))
    valid = (rng.random((n, t)) < 0.8).astype(float)
    edges = _random_edges(rng, n, 70)
    if name == "guard hours":
        x[:, [3, 10, 11]] = 7.25  # constant prediction columns: only centered
        aod[:, 5] = 0.4  # and a constant proxy column
    elif name == "fully clouded hours":
        valid[:, [0, 6, 7, 23]] = 0.0
    elif name == "valid nodes but no valid edge":
        linked = {frozenset(pair) for pair in edges.tolist()}
        a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                    if frozenset((a, b)) not in linked)
        valid[:, [4, 9]] = 0.0
        valid[a, 4] = 1.0  # one clear node
        valid[[a, b], 9] = 1.0  # two clear nodes, no edge between them
    elif name == "empty edge set":
        edges = np.zeros((0, 2), dtype=int)
    elif name == "one hour":
        x, aod, valid = x[:, :1], aod[:, :1], np.ones((n, 1))
    elif name == "wide":  # rows longer than the pairwise-sum block
        n = 150
        x = rng.normal(size=(n, 3))
        aod = rng.normal(size=(n, 3))
        valid = (rng.random((n, 3)) < 0.9).astype(float)
        edges = _random_edges(rng, n, 600)
    return x, aod, valid, edges


CASES = ("random", "guard hours", "fully clouded hours", "valid nodes but no valid edge",
         "empty edge set", "one hour", "wide")


def _loss_and_grads(loss_fn, x, aod, valid, edges):
    """Bytes of the loss and of the gradients of x_hat and its source, when
    x_hat also feeds a reconstruction term."""
    leaf = ad.Tensor(x, requires_grad=True)
    x_hat = ad.add(ad.mul(leaf, 1.7), 0.25)
    proxy = loss_fn(x_hat, aod, valid, edges)
    recon = ad.l1_loss(x_hat[np.array([0, 2, 5])], ad.Tensor(x[[0, 2, 5]] + 0.5))
    total = ad.add(ad.mul(recon, 1.0 / 3.0), ad.mul(proxy, 0.1 / 61.0))
    total.backward()
    return (proxy.data.tobytes(), total.data.tobytes(), x_hat.grad.tobytes(),
            leaf.grad.tobytes())


class TestFusedAodGradient:
    @pytest.mark.parametrize("name", CASES)
    def test_loss_and_gradients_match_composition_bitwise(self, name):
        x, aod, valid, edges = _case(name)
        assert _loss_and_grads(ls.aod_gradient_loss, x, aod, valid, edges) == \
            _loss_and_grads(reference_aod_loss, x, aod, valid, edges)

    def test_random_cases_match_composition_bitwise(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            n, t = int(rng.integers(6, 30)), int(rng.integers(1, 12))
            x = rng.normal(size=(n, t)) * rng.choice([1e-9, 1.0, 1e3])
            aod = rng.normal(size=(n, t))
            valid = (rng.random((n, t)) < rng.uniform(0.2, 1.0)).astype(float)
            edges = _random_edges(rng, n, int(rng.integers(0, 3 * n)))
            assert _loss_and_grads(ls.aod_gradient_loss, x, aod, valid, edges) == \
                _loss_and_grads(reference_aod_loss, x, aod, valid, edges)

    @pytest.mark.parametrize("t", [1, 5, 24])
    def test_one_tape_node_whatever_t(self, t):
        x, aod, valid, edges = _case("random")
        x_hat = ad.Tensor(x[:, :t], requires_grad=True)
        loss = ls.aod_gradient_loss(x_hat, aod[:, :t], valid[:, :t], edges)
        assert loss._op == "aod_gradient"
        assert loss._parents == (x_hat,)

    def test_huge_predictions_raise_like_composition(self):
        x, aod, valid, edges = _case("random")
        x = x * 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(ad.NumericError, match="'mul'"):
                reference_aod_loss(ad.Tensor(x, requires_grad=True), aod, valid, edges)
            with pytest.raises(ad.NumericError, match="'mul'"):
                ls.aod_gradient_loss(ad.Tensor(x, requires_grad=True), aod, valid, edges)

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e300])
    def test_cloudy_pixels_are_never_read(self, fill):
        x, aod, valid, edges = _case("fully clouded hours")
        filled = np.where(valid == 1.0, aod, fill)
        assert _loss_and_grads(ls.aod_gradient_loss, x, filled, valid, edges) == \
            _loss_and_grads(ls.aod_gradient_loss, x, aod, valid, edges)


class TestComposite:
    def test_zero_weights_equal_infer_alone(self):
        infer = ad.Tensor(3.3)
        out = ls.composite_loss(infer, ad.Tensor(9.0), ad.Tensor(5.0),
                                ls.LossWeights(lambda1=0.0, lambda2=0.0))
        assert out.item() == 3.3

    def test_arithmetic(self):
        out = ls.composite_loss(1.0, 2.0, 3.0, ls.LossWeights(lambda1=0.5, lambda2=0.1))
        assert out.item() == pytest.approx(2.3)

    def test_gradient_is_weighted_sum(self):
        rng = np.random.default_rng(9)
        x = ad.Tensor(rng.normal(size=(3,)), requires_grad=True)
        truthy = rng.normal(size=(3,))
        infer = ad.tensor_sum(ad.absolute(ad.sub(x, truthy)))
        init = ad.tensor_sum(ad.mul(x, x))
        aodish = ad.tensor_sum(ad.mul(x, 2.0))
        ls.composite_loss(infer, init, aodish,
                          ls.LossWeights(lambda1=0.5, lambda2=0.1)).backward()
        expected = np.sign(x.data - truthy) + 0.5 * 2.0 * x.data + 0.1 * 2.0
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12)

    def test_negative_weights_rejected(self):
        with pytest.raises(ls.LossError):
            ls.LossWeights(lambda1=-0.1)


class TestEdgeSets:
    def test_edges_from_adjacency(self):
        import scipy.sparse as sp
        from pgkrig.graphs import GeoAdjacency
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 0.5
        w[2, 3] = w[3, 2] = 0.25
        geo = GeoAdjacency(weights=sp.csr_matrix(w), sigma_sq=1.0)
        edges = ls.edges_from_adjacency(geo)
        assert sorted(map(tuple, edges)) == [(0, 1), (2, 3)]

    def test_grid_edges_count_and_bounds(self):
        nx, ny = 4, 3
        edges = ls.grid_edges(nx, ny)
        assert len(edges) == nx * (ny - 1) + ny * (nx - 1)
        assert edges.min() >= 0 and edges.max() < nx * ny
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_grid_edges_neighbors_only(self):
        edges = ls.grid_edges(3, 3)
        for i, j in edges:
            xi, yi = i % 3, i // 3
            xj, yj = j % 3, j // 3
            assert abs(xi - xj) + abs(yi - yj) == 1

    def test_count_valid_edge_terms(self):
        valid = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        edges = np.array([[0, 1], [1, 2]])
        # step 0: edge (0,1) valid; step 1: edge (1,2) valid
        assert ls.count_valid_edge_terms(valid, edges) == 2
