"""Network contracts: locality, causality, equivariance, inductivity."""

import ast
import re
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from reference_ops import hour_operator, per_hour_forward

from pgkrig import autodiff as ad
from pgkrig import graphs as g
from pgkrig import network as nw
from pgkrig import training as tr
from pgkrig.dataio import from_mapping
from pgkrig.testbed import EmissionSource, ScenarioSpec, run_scenario


def small_config(**overrides):
    defaults = dict(hidden_dim=8, tcn_layers=2, tcn_kernel_size=3, dilation_base=2,
                    gnn_layers=2, readout_hidden=8)
    defaults.update(overrides)
    return nw.ModelConfig(**defaults)


def toy_inputs(rng, n=4, t=8):
    """Random valid series plus matching operators."""
    positions = rng.uniform(0.0, 20.0, size=(n, 2))
    nodes = g.NodeSet(positions)
    geo = g.build_geo_adjacency(nodes, threshold_xi=50.0)
    diffusion = g.build_diffusion_operator(geo)
    wind = rng.normal(0.0, 2.0, size=(t, n, 2))
    advection = g.advection_sequence(nodes, wind, threshold_xi=50.0)
    emissions = rng.uniform(0.0, 3.0, size=(t, n))
    pm25 = rng.uniform(5.0, 30.0, size=(t, n))
    observed = (rng.random((t, n)) < 0.7).astype(float)
    series = nw.make_node_series(wind, emissions, pm25, observed)
    return series, diffusion, advection


def advection_from_dense(dense):
    """An advection operator storing every entry of (T, N, N) hourly rates."""
    n = dense.shape[1]
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    return g.AdvectionOperator(np.ascontiguousarray(dense[:, rows, cols]), cols,
                               np.arange(0, n * n + 1, n))


def hourly_dense(advection):
    """(T, N, N): hour t's operator as a dense matrix."""
    return np.stack([hour_operator(advection, hour).weights.toarray()
                     for hour in range(len(advection))])


class TestNodeSeries:
    def test_flag_must_be_binary(self):
        vals = np.zeros((2, 3, nw.N_CHANNELS))
        vals[0, 0, 4] = 0.5
        with pytest.raises(nw.ModelError):
            nw.NodeSeries(vals)

    def test_pollution_zero_where_unobserved(self):
        vals = np.zeros((2, 3, nw.N_CHANNELS))
        vals[0, 0, 3] = 7.0  # pollution present but flag 0
        with pytest.raises(nw.ModelError):
            nw.NodeSeries(vals)

    def test_builder_masks_pollution(self):
        t, n = 4, 3
        rng = np.random.default_rng(0)
        wind = rng.normal(size=(t, n, 2))
        emissions = rng.random((t, n))
        pm25 = rng.uniform(10, 20, size=(t, n))
        observed = np.zeros((t, n))
        observed[:, 0] = 1.0
        series = nw.make_node_series(wind, emissions, pm25, observed)
        assert series.values.shape == (n, t, nw.N_CHANNELS)
        np.testing.assert_array_equal(series.values[1:, :, 3], 0.0)
        np.testing.assert_array_equal(series.values[0, :, 3], pm25[:, 0])

    def test_builder_shape_mismatch(self):
        with pytest.raises(nw.ModelError):
            nw.make_node_series(np.zeros((4, 3, 2)), np.zeros((4, 2)),
                                np.zeros((4, 3)), np.zeros((4, 3)))


class TestModelConfig:
    def test_receptive_field(self):
        cfg = nw.ModelConfig(tcn_layers=3, tcn_kernel_size=3, dilation_base=2)
        assert cfg.dilations == (1, 2, 4)
        assert cfg.receptive_field == 15

    def test_dimension_validation(self):
        with pytest.raises(nw.ModelError):
            nw.ModelConfig(hidden_dim=0)

    def test_dict_round_trip(self):
        cfg = small_config(two_weight_propagation=True)
        assert from_mapping(nw.ModelConfig, asdict(cfg), "model") == cfg


class TestEncode:
    def test_identical_nodes_identical_encodings(self):
        rng = np.random.default_rng(1)
        series, _, _ = toy_inputs(rng)
        vals = series.values.copy()
        vals[1] = vals[0]
        model = nw.KrigingModel(small_config(), seed=0)
        h = model.encode(nw.NodeSeries(vals)).data
        np.testing.assert_array_equal(h[0], h[1])

    def test_node_locality_bitwise(self):
        rng = np.random.default_rng(2)
        series, _, _ = toy_inputs(rng)
        model = nw.KrigingModel(small_config(), seed=0)
        base = model.encode(series).data
        vals = series.values.copy()
        vals[2, :, 0] += 5.0  # perturb node 2's wind
        bumped = model.encode(nw.NodeSeries(vals)).data
        np.testing.assert_array_equal(base[0], bumped[0])
        np.testing.assert_array_equal(base[1], bumped[1])
        assert not np.array_equal(base[2], bumped[2])

    def test_temporal_causality(self):
        rng = np.random.default_rng(3)
        series, _, _ = toy_inputs(rng, t=10)
        model = nw.KrigingModel(small_config(), seed=0)
        base = model.encode(series).data
        vals = series.values.copy()
        vals[:, 7:, 2] += 1.0  # perturb emissions from step 7 on
        bumped = model.encode(nw.NodeSeries(vals)).data
        np.testing.assert_array_equal(base[:, :7, :], bumped[:, :7, :])

    @pytest.mark.parametrize("hours", [1, 2, 5, 13, 20, 24])
    def test_last_hours_are_the_whole_encodings_bits(self, hours):
        """Three layers (receptive field 15) over 20 hours: the trimmed
        layers read from 0 to 14 hours of context, a 1-hour tap included."""
        rng = np.random.default_rng(4)
        series, _, _ = toy_inputs(rng, n=5, t=20)
        model = nw.KrigingModel(small_config(tcn_layers=3), seed=0)
        whole = model.encode(series).data
        last = model.encode(series, hours).data
        assert last.tobytes() == whole[:, max(0, 20 - hours):].tobytes()


class TestPropagate:
    def _zero_ops(self, n, t=1):
        return (g.DiffusionOperator(weights=sp.csr_matrix((n, n))),
                advection_from_dense(np.zeros((t, n, n))))

    def test_zero_operators_give_activated_bias(self):
        model = nw.KrigingModel(small_config(), seed=0)
        model.params["prop.0.bias"].data[:] = np.linspace(-1.0, 1.0, 8)
        diffusion, advection = self._zero_ops(3, t=2)
        h = ad.Tensor(np.random.default_rng(4).normal(size=(3, 2, 8)))
        out = model.propagate(h, diffusion, advection, layer=0).data
        expected = np.maximum(np.linspace(-1.0, 1.0, 8), 0.0)
        for row in out.reshape(-1, 8):
            np.testing.assert_array_equal(row, expected)

    def test_zero_wind_equals_pure_diffusion(self):
        rng = np.random.default_rng(5)
        series, diffusion, _ = toy_inputs(rng)
        n, t = series.n, series.t
        model = nw.KrigingModel(small_config(), seed=0)
        h = ad.Tensor(rng.normal(size=(n, t, 8)))
        zero_adv = self._zero_ops(n, t)[1]
        out = model.propagate(h, diffusion, zero_adv, layer=0).data
        # hand-computed pure-diffusion message, hour by hour
        w = model.params["prop.0.weight"].data
        b = model.params["prop.0.bias"].data
        for hour in range(t):
            expected = np.maximum(diffusion.weights.toarray() @ h.data[:, hour] @ w + b, 0.0)
            np.testing.assert_allclose(out[:, hour], expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = nw.KrigingModel(small_config(), seed=0)
        diffusion, advection = self._zero_ops(3)
        with pytest.raises(nw.ModelError):
            model.propagate(ad.Tensor(np.zeros((4, 1, 8))), diffusion, advection, 0)
        with pytest.raises(nw.ModelError):
            model.propagate(ad.Tensor(np.zeros((3, 2, 8))), diffusion, advection, 0)

    def test_two_weight_variant(self):
        rng = np.random.default_rng(6)
        series, diffusion, advection = toy_inputs(rng)
        model = nw.KrigingModel(small_config(two_weight_propagation=True), seed=0)
        h = ad.Tensor(rng.normal(size=(series.n, series.t, 8)))
        out = model.propagate(h, diffusion, advection, layer=0).data
        wd = model.params["prop.0.weight_diff"].data
        wa = model.params["prop.0.weight_adv"].data
        b = model.params["prop.0.bias"].data
        for hour, adv in enumerate(hourly_dense(advection)):
            x = h.data[:, hour]
            expected = np.maximum(diffusion.weights.toarray() @ x @ wd + adv @ x @ wa + b, 0.0)
            np.testing.assert_allclose(out[:, hour], expected, rtol=1e-12)


class TestReadout:
    def test_identical_rows_identical_outputs(self):
        model = nw.KrigingModel(small_config(), seed=0)
        h = np.random.default_rng(7).normal(size=(3, 5, 8))
        h[2] = h[0]
        out = model.readout(ad.Tensor(h)).data
        # identical rows may land in different BLAS blocks: allow last-ulp noise
        np.testing.assert_allclose(out[0], out[2], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_output_shape_any_n(self, n):
        model = nw.KrigingModel(small_config(), seed=0)
        out = model.readout(ad.Tensor(np.zeros((n, 6, 8))))
        assert out.shape == (n, 6)

    def test_zero_hidden_gives_bias_path(self):
        model = nw.KrigingModel(small_config(), seed=1)
        out = model.readout(ad.Tensor(np.zeros((2, 3, 8)))).data
        b0 = model.params["readout.0.bias"].data
        w1 = model.params["readout.1.weight"].data
        b1 = model.params["readout.1.bias"].data
        expected = (np.maximum(b0, 0.0) @ w1 + b1).item()
        np.testing.assert_allclose(out, np.full((2, 3), expected), rtol=1e-12)

        # biases start at zero, so also check a path the ReLU clips
        b0[...] = [0.5, -0.3, 1.2, -2.0, 0.0, 0.7, -0.1, 0.9]
        b1[...] = [-0.4]
        out = model.readout(ad.Tensor(np.zeros((2, 3, 8)))).data
        expected = (np.maximum(b0, 0.0) @ w1 + b1).item()
        np.testing.assert_allclose(out, np.full((2, 3), expected), rtol=1e-12)

    def test_init_readout_separate_weights(self):
        model = nw.KrigingModel(small_config(), seed=0)
        h = np.random.default_rng(8).normal(size=(3, 5, 8))
        a = model.readout(ad.Tensor(h)).data
        b = model.init_readout(ad.Tensor(h)).data
        assert not np.allclose(a, b)


class TestFullForward:
    def test_deterministic(self):
        rng = np.random.default_rng(9)
        series, diffusion, advection = toy_inputs(rng)
        model = nw.KrigingModel(small_config(), seed=0)
        a_init, a_hat = model.full_forward(series, diffusion, advection)
        b_init, b_hat = model.full_forward(series, diffusion, advection)
        np.testing.assert_array_equal(a_init.data, b_init.data)
        np.testing.assert_array_equal(a_hat.data, b_hat.data)

    def test_inductive_node_count(self):
        model = nw.KrigingModel(small_config(), seed=0)
        rng = np.random.default_rng(10)
        for n in (3, 7):
            series, diffusion, advection = toy_inputs(rng, n=n)
            x_init, x_hat = model.full_forward(series, diffusion, advection)
            assert x_init.shape == (n, 8) and x_hat.shape == (n, 8)

    def test_target_blindness_bitwise(self):
        rng = np.random.default_rng(11)
        t, n = 8, 5
        wind = rng.normal(size=(t, n, 2))
        emissions = rng.random((t, n))
        pm25 = rng.uniform(10, 30, size=(t, n))
        observed = np.ones((t, n))
        observed[:, [1, 3]] = 0.0  # held-out targets
        nodes = g.NodeSet(rng.uniform(0, 20, size=(n, 2)))
        geo = g.build_geo_adjacency(nodes, threshold_xi=50.0)
        diffusion = g.build_diffusion_operator(geo)
        advection = g.advection_sequence(nodes, wind, threshold_xi=50.0)
        model = nw.KrigingModel(small_config(), seed=0)

        series = nw.make_node_series(wind, emissions, pm25, observed)
        base_init, base_hat = model.full_forward(series, diffusion, advection)
        pm25_perturbed = pm25.copy()
        pm25_perturbed[:, [1, 3]] += rng.normal(0, 100, size=(t, 2))
        series2 = nw.make_node_series(wind, emissions, pm25_perturbed, observed)
        new_init, new_hat = model.full_forward(series2, diffusion, advection)
        np.testing.assert_array_equal(base_init.data, new_init.data)
        np.testing.assert_array_equal(base_hat.data, new_hat.data)

    def test_end_to_end_causality(self):
        rng = np.random.default_rng(12)
        series, diffusion, advection = toy_inputs(rng, t=10)
        model = nw.KrigingModel(small_config(), seed=0)
        _, base = model.full_forward(series, diffusion, advection)
        vals = series.values.copy()
        vals[:, 6:, :3] += 2.0  # perturb inputs from step 6 on
        _, bumped = model.full_forward(nw.NodeSeries(vals), diffusion, advection)
        np.testing.assert_array_equal(base.data[:, :6], bumped.data[:, :6])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        n, t = 6, 8
        series, diffusion, advection = toy_inputs(rng, n=n, t=t)
        model = nw.KrigingModel(small_config(), seed=0)
        x_init, x_hat = model.full_forward(series, diffusion, advection)

        perm = rng.permutation(n)
        perm_series = nw.NodeSeries(series.values[perm])
        dperm = diffusion.weights.toarray()[np.ix_(perm, perm)]
        perm_diffusion = g.DiffusionOperator(weights=sp.csr_matrix(dperm))
        perm_advection = advection_from_dense(hourly_dense(advection)[:, perm][:, :, perm])
        p_init, p_hat = model.full_forward(perm_series, perm_diffusion, perm_advection)
        np.testing.assert_allclose(p_init.data, x_init.data[perm], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(p_hat.data, x_hat.data[perm], rtol=1e-10, atol=1e-12)

    def test_operator_count_mismatch(self):
        rng = np.random.default_rng(14)
        series, diffusion, advection = toy_inputs(rng, t=8)
        model = nw.KrigingModel(small_config(), seed=0)
        with pytest.raises(nw.ModelError):
            model.full_forward(series, diffusion, g.AdvectionOperator(
                advection.rates[:7], advection.indices, advection.indptr))

    def test_every_parameter_gets_gradient(self):
        rng = np.random.default_rng(15)
        series, diffusion, advection = toy_inputs(rng, n=5, t=8)
        model = nw.KrigingModel(small_config(), seed=3)
        x_init, x_hat = model.full_forward(series, diffusion, advection)
        target = rng.normal(10.0, 3.0, size=x_hat.shape)
        loss = ad.l1_loss(x_hat, ad.Tensor(target)) + ad.l1_loss(x_init, ad.Tensor(target))
        loss.backward()
        dead = [name for name, p in model.params.items()
                if p.grad is None or not np.any(p.grad != 0.0)]
        assert not dead, f"parameters with no gradient: {dead}"

    def test_one_tape_node_per_layer(self):
        rng = np.random.default_rng(17)
        series, diffusion, advection = toy_inputs(rng)
        model = nw.KrigingModel(small_config(), seed=0)
        _, x_hat = model.full_forward(series, diffusion, advection)
        ops, stack, seen = [], [x_hat], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops.append(node._op)
                stack.extend(node._parents)
        assert ops.count("propagate") == model.config.gnn_layers


def recordable_ops() -> set[str]:
    """Every op name that a ``_make`` call in pgkrig can put on a tape."""
    ops = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "_make" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)):
                ops.add(node.args[1].value)
    return ops


def test_the_program_makes_every_recordable_op(monkeypatch):
    """Training with relu, station dropout and the AOD term, training criterion
    1's softplus two-weight model, and infer_stations after each, between them
    make exactly the op kinds pgkrig can record: an op no program path uses
    has no place in the tape."""
    made = set()
    make = ad._make

    def spy(data, op, parents, backward):
        made.add(op)
        return make(data, op, parents, backward)

    monkeypatch.setattr(ad, "_make", spy)
    dataset = tr.dataset_from_scenario(run_scenario(ScenarioSpec(
        nx=8, ny=6, t_hours=48, station_count=16, sources=(EmissionSource(5.0, 5.0, 8.0),))))
    assert dataset.aod_values is not None
    for model_config, dropout in ((small_config(), 0.25),
                                  (small_config(activation="softplus",
                                                two_weight_propagation=True), 0.0)):
        train_config = tr.TrainConfig(epochs=1, window=12, batches_per_epoch=1,
                                      val_partitions=1, station_dropout=dropout)
        result = tr.train(dataset, model_config, train_config, tr.split_from_fractions(48),
                          threshold_km=10.0)
        tr.infer_stations(result.model, result.normalization, dataset, result.heldout_ids,
                          threshold_km=10.0)
    assert made == recordable_ops()


class TestPerHourReference:
    @pytest.mark.parametrize("activation", ["relu", "softplus"])
    @pytest.mark.parametrize("two_weight", [False, True])
    @pytest.mark.parametrize("init_first", [False, True])
    def test_full_forward_matches_per_hour_loop_bitwise(self, activation, two_weight,
                                                        init_first):
        # with init_first the initial-estimate term leads the loss, so the
        # init readout's backward reaches the encoder output before the
        # propagation's does
        # 20 nodes at hidden width 32: there, one (N*T, 32) BLAS product
        # rounds differently from the per-hour (N, 32) ones
        rng = np.random.default_rng(18)
        series, diffusion, advection = toy_inputs(rng, n=20, t=9)
        values = series.values.copy()
        values[:, :, 3] /= 10.0  # pollution near its standardized scale
        series = nw.NodeSeries(values)
        target = ad.Tensor(rng.normal(size=(20, 9)))
        config = small_config(hidden_dim=32, activation=activation,
                              two_weight_propagation=two_weight)
        runs = []
        for forward in (nw.KrigingModel.full_forward, per_hour_forward):
            model = nw.KrigingModel(config, seed=2)
            x_init, x_hat = forward(model, series, diffusion, advection)
            terms = [ad.l1_loss(x_hat, target), ad.l1_loss(x_init, target) * 0.5]
            if init_first:
                terms.reverse()
            ad.add(*terms).backward()
            runs.append((x_init, x_hat, model))
        (init, hat, model), (ref_init, ref_hat, ref_model) = runs
        assert init.data.tobytes() == ref_init.data.tobytes()
        assert hat.data.tobytes() == ref_hat.data.tobytes()
        for name, p in model.params.items():
            assert p.grad.tobytes() == ref_model.params[name].grad.tobytes(), name


# tracemalloc peak, in bytes, of a detached full_forward on memory_toy()
# when propagation ran hour by hour (a propagate node per hour and layer,
# then a stack), measured once with numpy 2.4 and scipy 1.17
PER_HOUR_PEAK_BYTES = 19_067_513


def memory_toy():
    """60 nodes over 240 hours, with the default hidden width of 32."""
    rng = np.random.default_rng(0)
    n, t = 60, 240
    nodes = g.NodeSet(rng.uniform(0.0, 100.0, size=(n, 2)))
    wind = rng.normal(0.0, 3.0, size=(t, n, 2))
    diffusion = g.build_diffusion_operator(g.build_geo_adjacency(nodes, 50.0))
    advection = g.advection_sequence(nodes, wind, 50.0)
    series = nw.make_node_series(wind, rng.uniform(0.0, 3.0, (t, n)),
                                 rng.uniform(5.0, 30.0, (t, n)),
                                 (rng.random((t, n)) < 0.7).astype(float))
    return series, diffusion, advection


def test_detached_forward_peak_stays_within_the_per_hour_loop():
    series, diffusion, advection = memory_toy()
    model = nw.KrigingModel(nw.ModelConfig(hidden_dim=32), seed=0).detached()
    tracemalloc.start()
    try:
        model.full_forward(series, diffusion, advection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_HOUR_PEAK_BYTES


class TestParamStore:
    def test_rejects_wrong_names(self):
        cfg = small_config()
        good = nw.KrigingModel(cfg, seed=0).params
        bad = dict(good)
        bad.pop("readout.1.bias")
        with pytest.raises(nw.ModelError, match=re.escape("config: ['readout.1.bias']")):
            nw.KrigingModel(cfg, params=bad)

    def test_rejects_wrong_shape(self):
        cfg = small_config()
        params = nw.KrigingModel(cfg, seed=0).params
        params["readout.1.bias"] = ad.Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(nw.ModelError, match=re.escape(
                "parameter 'readout.1.bias' has shape (2,), expected (1,)")):
            nw.KrigingModel(cfg, params=params)

    def test_seeded_init_reproducible(self):
        cfg = small_config()
        a = nw.KrigingModel(cfg, seed=5).params
        b = nw.KrigingModel(cfg, seed=5).params
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_detached_shares_arrays_and_tracks_nothing(self):
        model = nw.KrigingModel(small_config(), seed=0)
        frozen = model.detached()
        assert frozen.config == model.config
        for name, p in model.params.items():
            assert frozen.params[name].data is p.data
            assert p.requires_grad and not frozen.params[name].requires_grad
        model.params["readout.1.bias"].data += 1.0  # an update shows through
        assert frozen.params["readout.1.bias"].data[0] == 1.0
