"""Gradient checks for the autodiff core against central finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp

from pgkrig import autodiff as ad
from pgkrig import graphs as g


def numeric_grad(fn, arrays, index, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. arrays[index]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    target = base[index].reshape(-1)
    for i in range(target.size):
        orig = target[i]
        target[i] = orig + eps
        hi = fn(*base)
        target[i] = orig - eps
        lo = fn(*base)
        target[i] = orig
        flat[i] = (hi - lo) / (2.0 * eps)
    return grad


def check_op(fn_tensor, arrays, rtol=1e-6, atol=1e-8):
    """Run backward once and compare every input gradient to finite differences."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = fn_tensor(*tensors)
    out.backward()

    def fn_value(*arrs):
        consts = [ad.Tensor(a) for a in arrs]
        return fn_tensor(*consts).item()

    for i, t in enumerate(tensors):
        expected = numeric_grad(fn_value, arrays, i)
        assert t.grad is not None, f"input {i} got no gradient"
        np.testing.assert_allclose(t.grad, expected, rtol=rtol, atol=atol)


class TestElementwise:
    def test_add_sub_mul_div_chain(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep divisor away from zero
        check_op(lambda x, y: ((x * y + x - y) / y).sum(), [a, b])

    def test_broadcast_row_and_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3))
        row = rng.normal(size=(3,))
        check_op(lambda x, r: ((x + r) * 2.0).sum(), [a, row])
        check_op(lambda x, r: (x * r).sum(), [a, row])

    def test_broadcast_column(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3))
        col = rng.normal(size=(4, 1))
        check_op(lambda x, c: (x * c + c).sum(), [a, col])

    def test_relu_grad(self):
        x = np.array([[-2.0, -0.5, 0.5, 2.0]])
        check_op(lambda t: ad.relu(t).sum(), [x])

    def test_softplus_matches_log1pexp(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5,)) * 3.0
        out = ad.softplus(ad.Tensor(x))
        np.testing.assert_allclose(out.data, np.log1p(np.exp(x)))
        check_op(lambda t: ad.softplus(t).sum(), [x])

    def test_abs_grad_away_from_zero(self):
        x = np.array([-1.5, -0.2, 0.3, 2.0])
        check_op(lambda t: ad.absolute(t).sum(), [x])

    def test_abs_subgradient_zero_at_zero(self):
        t = ad.Tensor(np.array([0.0, 1.0, -1.0]), requires_grad=True)
        ad.absolute(t).sum().backward()
        np.testing.assert_array_equal(t.grad, np.array([0.0, 1.0, -1.0]))

    def test_sqrt_grad(self):
        x = np.array([0.5, 1.0, 4.0, 9.0])
        check_op(lambda t: ad.sqrt(t).sum(), [x])


class TestReductionsShaping:
    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4))
        check_op(lambda t: (t.sum(axis=0) * np.arange(1.0, 5.0)).sum(), [a])
        check_op(lambda t: (t.sum(axis=1, keepdims=True) * 2.0).sum(), [a])

    def test_mean(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 5))
        check_op(lambda t: t.mean(), [a])
        check_op(lambda t: (t.mean(axis=0) * np.arange(1.0, 6.0)).sum(), [a])

    def test_reshape_roundtrip(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 6))
        check_op(lambda t: (t.reshape(3, 4) * np.arange(12.0).reshape(3, 4)).sum(), [a])

    def test_getitem_scatter_adds(self):
        # repeated index must accumulate, not overwrite
        t = ad.Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = t[idx].sum()
        out.backward()
        np.testing.assert_array_equal(t.grad, np.array([0.0, 2.0, 0.0, 1.0]))

    def test_getitem_slice(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 3))
        check_op(lambda t: (t[1:3] * 2.0).sum(), [a])

    def test_stack(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3,))
        b = rng.normal(size=(3,))
        check_op(lambda x, y: (ad.stack([x, y], axis=0) * np.ones((2, 3))).sum(), [a, b])
        with pytest.raises(ad.ShapeError):
            ad.stack([ad.Tensor(a), ad.Tensor(np.zeros(4))])


class TestLinalg:
    def test_matmul_grads(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        weights = rng.normal(size=(3, 2))
        check_op(lambda x, y: (x @ y).sum(), [a, b])
        check_op(lambda x, y: ((x @ y) * weights).sum(), [a, b])

    def test_matmul_shape_error(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))

    def test_sparse_matmul_matches_dense(self):
        rng = np.random.default_rng(10)
        dense = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.4)
        mat = sp.csr_matrix(dense)
        x = rng.normal(size=(5, 3))
        weight = rng.normal(size=(5, 3))

        t = ad.Tensor(x, requires_grad=True)
        out = (ad.sparse_matmul(mat, t) * weight).sum()
        out.backward()

        t2 = ad.Tensor(x, requires_grad=True)
        out2 = (ad.matmul(ad.Tensor(dense), t2) * weight).sum()
        out2.backward()

        np.testing.assert_allclose(out.item(), out2.item())
        np.testing.assert_allclose(t.grad, t2.grad)

    def test_linear_with_bias(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(2,))
        check_op(lambda xx, ww, bb: ad.linear(xx, ww, bb).sum(), [x, w, b])


class TestConv1d:
    def test_causality(self):
        """Output at step t must not change when later inputs change."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 10, 3))
        w = rng.normal(size=(3, 3, 4))
        b = rng.normal(size=(4,))
        base = ad.conv1d_causal_dilated(ad.Tensor(x), ad.Tensor(w), b, dilation=2).data
        x2 = x.copy()
        x2[:, 6:, :] = rng.normal(size=(2, 4, 3))
        bumped = ad.conv1d_causal_dilated(ad.Tensor(x2), ad.Tensor(w), b, dilation=2).data
        np.testing.assert_array_equal(base[:, :6, :], bumped[:, :6, :])

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(13)
        n, t, c_in, c_out, k, d = 2, 8, 2, 3, 3, 2
        x = rng.normal(size=(n, t, c_in))
        w = rng.normal(size=(k, c_in, c_out))
        b = rng.normal(size=(c_out,))
        out = ad.conv1d_causal_dilated(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), dilation=d).data
        expected = np.zeros((n, t, c_out))
        for step in range(t):
            acc = b.copy() * np.ones((n, c_out))
            for tap in range(k):
                src = step - (k - 1 - tap) * d
                if src >= 0:
                    acc = acc + x[:, src, :] @ w[tap]
            expected[:, step, :] = acc
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_grads(self, dilation):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 9, 2))
        w = rng.normal(size=(3, 2, 2))
        b = rng.normal(size=(2,))
        weights = rng.normal(size=(2, 9, 2))
        check_op(
            lambda xx, ww, bb: (
                ad.conv1d_causal_dilated(xx, ww, bb, dilation=dilation) * weights).sum(),
            [x, w, b], rtol=1e-5)

    def test_receptive_field_longer_than_series(self):
        # dilation pushing taps before t=0 must silently read zeros
        rng = np.random.default_rng(15)
        x = rng.normal(size=(1, 3, 1))
        w = rng.normal(size=(3, 1, 1))
        out = ad.conv1d_causal_dilated(ad.Tensor(x), ad.Tensor(w), np.zeros(1), dilation=4).data
        np.testing.assert_allclose(out[0, :, 0], x[0, :, 0] * w[2, 0, 0])


class TestLossAndGraph:
    def test_l1_loss_value_and_grad(self):
        rng = np.random.default_rng(16)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        t = ad.Tensor(pred, requires_grad=True)
        loss = ad.l1_loss(t, ad.Tensor(target))
        assert loss.item() == pytest.approx(np.sum(np.abs(pred - target)))
        loss.backward()
        np.testing.assert_allclose(t.grad, np.sign(pred - target))

    def test_grad_accumulates_over_reuse(self):
        t = ad.Tensor(np.array([2.0]), requires_grad=True)
        out = (t * t + t).sum()  # d/dt = 2t + 1 = 5
        out.backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_diamond_graph(self):
        t = ad.Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        b = t * 4.0
        out = (a + b).sum()  # d/dt = 6
        out.backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_deep_chain_no_recursion_limit(self):
        t = ad.Tensor(np.array([1.0]), requires_grad=True)
        x = t
        for _ in range(5000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            (t * 2.0).backward()

    def test_nonfinite_forward_raises(self):
        with pytest.raises(ad.NumericError):
            ad.div(ad.Tensor([1.0]), ad.Tensor([0.0]))

    def test_no_tracking_without_requires_grad(self):
        out = ad.Tensor([1.0]) + ad.Tensor([2.0])
        assert not out.requires_grad and out._backward is None


class TestAdam:
    def test_quadratic_converges(self):
        p = ad.Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-3)

    def test_first_step_matches_reference(self):
        # With constant gradient g, step 1 moves by lr * g/|g| elementwise.
        p = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.5)
        p.grad = np.array([0.3, -0.7])
        opt.step()
        expected = np.array([1.0, 2.0]) - 0.5 * np.array([0.3, -0.7]) / (
            np.abs(np.array([0.3, -0.7])) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-6)

    def test_skips_params_without_grad(self):
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        q = ad.Tensor(np.array([2.0]), requires_grad=True)
        opt = ad.Adam({"p": p, "q": q}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        np.testing.assert_array_equal(q.data, [2.0])
        assert p.data[0] < 1.0


def _bits(array) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


def reference_propagate(x, diffusion, advection, weights, bias, activation):
    """The primitive-op composition that ad.propagate fuses into one node."""
    diff_msg = ad.sparse_matmul(diffusion.weights, x)
    adv_msg = ad.sparse_matmul(advection.weights, x)
    if len(weights) == 2:
        mixed = ad.add(ad.matmul(diff_msg, weights[0]), ad.matmul(adv_msg, weights[1]))
    else:
        mixed = ad.matmul(ad.add(diff_msg, adv_msg), weights[0])
    pre = ad.add(mixed, bias)
    return ad.relu(pre) if activation == "relu" else ad.softplus(pre)


def propagation_inputs(seed, n_weights, n=9, f=6):
    rng = np.random.default_rng(seed)
    nodes = g.NodeSet(rng.uniform(0.0, 20.0, size=(n, 2)))
    diffusion = g.build_diffusion_operator(g.build_geo_adjacency(nodes, 12.0))
    advection = g.advection_sequence(nodes, rng.normal(0.0, 3.0, size=(1, n, 2)), 12.0)[0]
    arrays = {"x": rng.normal(size=(n, f)), "bias": rng.normal(size=(f,)),
              "q": rng.normal(size=(n, f)), "r": rng.normal(size=(n, f))}
    for i in range(n_weights):
        arrays[f"w{i}"] = rng.normal(size=(f, f)) / np.sqrt(f)
    return diffusion, advection, arrays


def run_propagation(layer, diffusion, advection, arrays, activation):
    """Two stacked layers sharing weights, as the model's steps share them.

    The loss also reads x directly, and that term's backward runs first, so
    x's adjoint holds three contributions and their order shows in its bits.
    """
    leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()
              if k not in ("q", "r")}
    weights = tuple(leaves[k] for k in sorted(leaves) if k.startswith("w"))
    hidden = layer(leaves["x"], diffusion, advection, weights, leaves["bias"], activation)
    out = layer(hidden, diffusion, advection, weights, leaves["bias"], activation)
    loss = ad.add(ad.tensor_sum(ad.mul(leaves["x"], arrays["q"])),
                  ad.tensor_sum(ad.mul(out, arrays["r"])))
    loss.backward()
    return out, loss, leaves


class TestFusedPropagate:
    @pytest.mark.parametrize("activation", ["relu", "softplus"])
    @pytest.mark.parametrize("n_weights", [1, 2])
    def test_matches_primitive_composition_bitwise(self, activation, n_weights):
        for seed in range(5):
            diffusion, advection, arrays = propagation_inputs(seed, n_weights)
            fused = run_propagation(ad.propagate, diffusion, advection, arrays, activation)
            ref = run_propagation(reference_propagate, diffusion, advection, arrays,
                                  activation)
            assert _bits(fused[0].data) == _bits(ref[0].data)
            assert _bits(fused[1].data) == _bits(ref[1].data)
            assert sorted(fused[2]) == sorted(ref[2])
            for name, leaf in fused[2].items():
                assert _bits(leaf.grad) == _bits(ref[2][name].grad), name

    @pytest.mark.parametrize("plant, op", [("operator", "sparse_matmul"),
                                           ("weight", "matmul"), ("bias", "add")])
    @pytest.mark.parametrize("n_weights", [1, 2])
    def test_nonfinite_names_the_primitive_op(self, plant, op, n_weights):
        diffusion, advection, arrays = propagation_inputs(1, n_weights)
        if plant == "operator":
            weights = advection.weights.copy()
            weights.data[0] = np.nan
            advection = g.AdvectionOperator(weights=weights)
        else:
            arrays["w0" if plant == "weight" else "bias"][0] = np.inf
        for layer in (ad.propagate, reference_propagate):
            with pytest.raises(ad.NumericError, match=f"'{op}'"):
                run_propagation(layer, diffusion, advection, arrays, "relu")


class TestAdjointSeeding:
    def test_negative_zero_first_contribution_lands_positive(self):
        t = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (t * np.array([-0.0, 3.0])).sum().backward()
        assert not np.signbit(t.grad[0]) and t.grad[1] == 3.0

    def test_siblings_fed_one_array_get_their_own_adjoints(self):
        a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
        ad.add(a, b).sum().backward()  # add's backward hands both the same g
        assert not np.shares_memory(a.grad, b.grad)
        a._accumulate(np.array([10.0, 10.0]))
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_zero_d_adjoints_stay_arrays(self):
        t = ad.Tensor(np.array(2.0), requires_grad=True)
        loss = t * np.array(-0.0)
        loss.backward()
        for grad in (loss.grad, t.grad):
            assert isinstance(grad, np.ndarray) and grad.shape == ()
        assert not np.signbit(t.grad)

    def test_first_contribution_is_broadcast_to_the_tensor_shape(self):
        t = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        t._accumulate(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(t.grad, [[1.0, 2.0, 3.0]] * 2)
