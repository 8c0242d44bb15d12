"""Partitioning, splits, standardization, and training-loop contracts."""

import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pgkrig import autodiff as ad
from pgkrig import training as tr
from pgkrig.dataio import SchemaError, from_mapping
from pgkrig.graphs import GraphBuildError, NodeSet, build_diffusion_operator, \
    build_geo_adjacency, advection_sequence
from pgkrig.losses import LossWeights, aod_gradient_loss, count_valid_edge_terms
from pgkrig.network import KrigingModel, ModelConfig, make_node_series
from pgkrig.testbed import AodSpec, EmissionSource, ScenarioSpec, run_scenario, \
    scenario_preset
from reference_ops import chunked_predict_grid


def toy_run(t_hours=60, stations=16, seed=5, cloud_fraction=0.2):
    spec = ScenarioSpec(
        nx=10, ny=8, cell_km=2.0, t_hours=t_hours,
        wind_regime="constant", wind_speed_ms=3.0, wind_direction_deg=20.0,
        kappa_km2_h=0.7, decay_per_h=0.06, background_rate=0.3,
        sources=(EmissionSource(3.0, 5.0, 8.0, "diurnal"),
                 EmissionSource(5.0, 11.0, 6.0, "constant")),
        station_count=stations, layout_seed=seed,
        aod=AodSpec(cloud_fraction=cloud_fraction))
    return run_scenario(spec)


def small_model_config():
    return ModelConfig(hidden_dim=10, tcn_layers=2, tcn_kernel_size=3,
                       dilation_base=2, gnn_layers=2, readout_hidden=10)


def fast_config(**overrides):
    base = dict(epochs=3, window=12, batches_per_epoch=4, seed=0,
                learning_rate=1e-3, val_partitions=2)
    base.update(overrides)
    return tr.TrainConfig(**base)


# ---------------------------------------------------------------------------
# partitions


def test_partition_target_count_floor():
    rng = np.random.default_rng(0)
    target = tr.sample_partition(np.arange(10), 0.5, rng)
    assert target.size == 5


def test_partition_is_disjoint_cover():
    # the targets are sorted distinct ids, and the observed rest is not empty
    rng = np.random.default_rng(1)
    for n in (2, 5, 9, 24):
        target = tr.sample_partition(np.arange(n), 0.4 if n > 2 else 0.5, rng)
        assert np.array_equal(target, np.unique(target))
        assert 0 < target.size < n and np.isin(target, np.arange(n)).all()


def test_partition_same_seed_same_sequence():
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    for _ in range(5):
        assert np.array_equal(tr.sample_partition(np.arange(12), 0.5, rng_a),
                              tr.sample_partition(np.arange(12), 0.5, rng_b))


def test_partition_fresh_draw_each_call():
    rng = np.random.default_rng(3)
    draws = {tuple(tr.sample_partition(np.arange(10), 0.5, rng))
             for _ in range(20)}
    assert len(draws) > 1


def test_partition_uniform_target_frequency():
    # Monte-Carlo: every node lands in the target set about half the time
    rng = np.random.default_rng(11)
    counts = np.zeros(10)
    n_draws = 10_000
    for _ in range(n_draws):
        counts[tr.sample_partition(np.arange(10), 0.5, rng)] += 1
    freq = counts / n_draws
    assert np.all(freq >= 0.45) and np.all(freq <= 0.55)


def test_partition_ratio_empties_a_side():
    rng = np.random.default_rng(0)
    with pytest.raises(tr.ConfigError, match="empties"):
        tr.sample_partition(np.arange(10), 0.05, rng)


class _LowestDraw:
    """Stands in for a Generator whose jitter draw lands on its lower end."""

    def uniform(self, low, high):
        return low


def test_jittered_ratio_lower_clip_keeps_one_target():
    # a draw below 1/n is clipped; n * (1/n) rounds below 1 for some n
    rng = np.random.default_rng(0)
    for n in range(2, 10_001):
        ratio = tr.jittered_ratio(0.3, 0.49, n, _LowestDraw())
        assert math.floor(n * ratio) == 1, n  # sample_partition's target count
        if n <= 500:
            assert tr.sample_partition(np.arange(n), ratio, rng).size == 1, n


def test_jittered_ratio_stays_in_band():
    rng = np.random.default_rng(0)
    ratios = [tr.jittered_ratio(0.5, 0.2, 20, rng) for _ in range(200)]
    assert 0.3 <= min(ratios) and max(ratios) <= 0.7


def test_partition_needs_two_nodes():
    with pytest.raises(tr.ConfigError, match="at least 2"):
        tr.sample_partition(np.arange(1), 0.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# splits


def test_split_from_fractions_default_carve():
    split = tr.split_from_fractions(240)
    assert split.train_range == (0, 168)
    assert split.val_range == (168, 204)
    assert split.test_range == (204, 240)


def test_split_rejects_overlap():
    with pytest.raises(tr.ConfigError, match="before the validation"):
        tr.SplitSpec(train_range=(0, 50), val_range=(40, 60), test_range=(60, 80))


def test_split_rejects_unordered_test():
    with pytest.raises(tr.ConfigError, match="before the test"):
        tr.SplitSpec(train_range=(0, 40), val_range=(40, 60), test_range=(50, 80))


def test_split_rejects_bad_holdout():
    with pytest.raises(tr.ConfigError, match="holdout_fraction"):
        tr.SplitSpec(train_range=(0, 40), val_range=(40, 60), test_range=(60, 80),
                     holdout_fraction=1.0)


def test_holdout_split_counts_and_determinism():
    train_a, held_a = tr.holdout_split(40, 0.3, seed=3)
    train_b, held_b = tr.holdout_split(40, 0.3, seed=3)
    assert held_a.size == 12 and train_a.size == 28
    assert np.array_equal(train_a, train_b) and np.array_equal(held_a, held_b)
    assert np.array_equal(np.sort(np.concatenate([train_a, held_a])), np.arange(40))


def test_holdout_split_zero_fraction():
    train_ids, held = tr.holdout_split(10, 0.0, seed=0)
    assert held.size == 0 and train_ids.size == 10


def test_holdout_split_leaves_enough():
    with pytest.raises(tr.ConfigError, match="too few"):
        tr.holdout_split(3, 0.9, seed=0)


# ---------------------------------------------------------------------------
# datasets and normalization


def test_dataset_from_scenario_shapes():
    run = toy_run()
    dataset = tr.dataset_from_scenario(run)
    assert dataset.n == 16
    assert dataset.t_hours == 60
    assert dataset.wind.shape == (60, 16, 2)
    assert dataset.aod_values.shape == (60, 16)
    assert set(np.unique(dataset.aod_valid)) <= {0.0, 1.0}


def test_dataset_without_aod():
    dataset = tr.dataset_from_scenario(toy_run(), with_aod=False)
    assert dataset.aod_values is None and dataset.aod_valid is None


def test_dataset_subset_realigns_columns():
    dataset = tr.dataset_from_scenario(toy_run())
    idx = np.array([4, 7, 9])
    sub = dataset.subset(idx)
    assert sub.n == 3
    assert np.array_equal(sub.pm25, dataset.pm25[:, idx])
    assert np.array_equal(sub.nodes.positions, dataset.nodes.positions[idx])


def test_dataset_rejects_mismatched_aod():
    dataset = tr.dataset_from_scenario(toy_run())
    with pytest.raises(tr.ConfigError, match="together"):
        tr.StationDataset(nodes=dataset.nodes, wind=dataset.wind,
                          emissions=dataset.emissions, pm25=dataset.pm25,
                          aod_values=dataset.aod_values, aod_valid=None)


def test_dataset_checks_aod_values_only_where_clear():
    dataset = tr.dataset_from_scenario(toy_run())
    cloudy = np.argwhere(dataset.aod_valid == 0.0)[0]
    clear = np.argwhere(dataset.aod_valid == 1.0)[0]

    def with_aod_at(pixel, value):
        values = dataset.aod_values.copy()
        values[tuple(pixel)] = value
        return tr.StationDataset(nodes=dataset.nodes, wind=dataset.wind,
                                 emissions=dataset.emissions, pm25=dataset.pm25,
                                 aod_values=values, aod_valid=dataset.aod_valid)

    for fill in (np.nan, np.inf, -np.inf):
        with_aod_at(cloudy, fill)  # a cloudy pixel is never read
        with pytest.raises(tr.ConfigError, match="aod_values contains non-finite"):
            with_aod_at(clear, fill)


def test_normalization_uses_only_the_given_range():
    dataset = tr.dataset_from_scenario(toy_run())
    norm = tr.Normalization.fit(dataset, (0, 40))
    tampered = dataset.pm25.copy()
    tampered[40:] += 500.0
    other = tr.StationDataset(nodes=dataset.nodes, wind=dataset.wind,
                              emissions=dataset.emissions, pm25=tampered)
    norm_b = tr.Normalization.fit(other, (0, 40))
    assert np.array_equal(norm.mean, norm_b.mean)
    assert np.array_equal(norm.std, norm_b.std)


def test_normalization_round_trip():
    dataset = tr.dataset_from_scenario(toy_run())
    norm = tr.Normalization.fit(dataset, (0, 42))
    _, _, pm25_std = norm.apply(dataset.wind, dataset.emissions, dataset.pm25)
    back = norm.to_physical(ad.Tensor(pm25_std)).data
    assert np.allclose(back, dataset.pm25, atol=1e-12)


def test_normalization_flag_channel_identity():
    norm = tr.Normalization.fit(tr.dataset_from_scenario(toy_run()), (0, 42))
    assert norm.mean[4] == 0.0 and norm.std[4] == 1.0


def test_normalization_constant_channel_guard():
    dataset = tr.dataset_from_scenario(toy_run())
    flat = tr.StationDataset(nodes=dataset.nodes, wind=np.zeros_like(dataset.wind),
                             emissions=dataset.emissions, pm25=dataset.pm25)
    norm = tr.Normalization.fit(flat, (0, 42))
    assert norm.std[0] == 1.0 and norm.std[1] == 1.0


# ---------------------------------------------------------------------------
# the loop


def test_train_zero_epochs_returns_initial_params():
    dataset = tr.dataset_from_scenario(toy_run())
    model_config = small_model_config()
    result = tr.train(dataset, model_config, fast_config(epochs=0),
                      tr.split_from_fractions(60), threshold_km=10.0)
    fresh = KrigingModel(model_config, seed=0)
    assert result.log == ()
    assert result.best_epoch == -1
    for name, tensor in fresh.params.items():
        assert np.array_equal(result.model.params[name].data, tensor.data), name


def test_train_logs_one_record_per_epoch():
    dataset = tr.dataset_from_scenario(toy_run())
    result = tr.train(dataset, small_model_config(), fast_config(),
                      tr.split_from_fractions(60), threshold_km=10.0)
    assert [rec.epoch for rec in result.log] == [0, 1, 2]
    for rec in result.log:
        assert np.isfinite(rec.train_loss) and np.isfinite(rec.val_mae)


def test_train_tracks_best_epoch():
    dataset = tr.dataset_from_scenario(toy_run())
    result = tr.train(dataset, small_model_config(), fast_config(epochs=5),
                      tr.split_from_fractions(60), threshold_km=10.0)
    maes = [rec.val_mae for rec in result.log]
    assert result.best_epoch == int(np.argmin(maes))
    assert result.best_val_mae == min(maes)
    assert result.meta["aod_loss_active"] is True
    assert result.meta["epochs_run"] == len(result.log)


def test_train_stops_early_and_returns_the_best_epochs_model():
    dataset = tr.dataset_from_scenario(toy_run())
    split = tr.split_from_fractions(60)
    result = tr.train(dataset, small_model_config(), fast_config(epochs=8, patience=1),
                      split, threshold_km=10.0)
    maes = [rec.val_mae for rec in result.log]
    assert result.meta["epochs_run"] == len(maes) < 8
    assert result.best_epoch == int(np.argmin(maes))
    # the same draws up to the best epoch, so the same parameters bit for bit
    shorter = tr.train(dataset, small_model_config(),
                       fast_config(epochs=result.best_epoch + 1, patience=1),
                       split, threshold_km=10.0)
    assert shorter.best_epoch == result.best_epoch
    for name, tensor in result.model.params.items():
        assert tensor.data.tobytes() == shorter.model.params[name].data.tobytes(), name


def test_train_smoke_loss_halves_in_twenty_epochs():
    # machinery contract: the composite loss falls by at least half on a
    # toy whose contrast is locally explainable (strong sources, fast decay)
    spec = ScenarioSpec(
        nx=8, ny=6, cell_km=2.0, t_hours=72,
        wind_regime="constant", wind_speed_ms=1.0, wind_direction_deg=30.0,
        kappa_km2_h=0.3, decay_per_h=0.45, background_rate=0.2,
        sources=(EmissionSource(3.0, 3.0, 12.0, "constant"),
                 EmissionSource(9.0, 5.0, 8.0, "diurnal"),
                 EmissionSource(13.0, 9.0, 10.0, "constant"),
                 EmissionSource(5.0, 9.0, 6.0, "diurnal"),
                 EmissionSource(11.0, 3.0, 9.0, "constant"),
                 EmissionSource(3.0, 11.0, 7.0, "constant")),
        station_count=48, layout_seed=5, aod=AodSpec(cloud_fraction=0.2))
    dataset = tr.dataset_from_scenario(run_scenario(spec))
    config = fast_config(epochs=20, batches_per_epoch=10, learning_rate=2e-2)
    result = tr.train(dataset, small_model_config(), config,
                      tr.split_from_fractions(72), threshold_km=8.0)
    first = result.log[0].train_loss
    floor = min(rec.train_loss for rec in result.log)
    assert floor <= 0.5 * first, (first, floor)


def test_train_is_deterministic():
    dataset = tr.dataset_from_scenario(toy_run())
    runs = []
    for _ in range(2):
        result = tr.train(dataset, small_model_config(), fast_config(epochs=2),
                          tr.split_from_fractions(60), threshold_km=10.0)
        runs.append(result)
    assert runs[0].log == runs[1].log
    for name in runs[0].model.params:
        assert np.array_equal(runs[0].model.params[name].data,
                              runs[1].model.params[name].data), name


def test_train_never_reads_heldout_stations():
    # bitwise identical training when only held-out columns change
    dataset = tr.dataset_from_scenario(toy_run())
    split = tr.split_from_fractions(60)
    _, heldout = tr.holdout_split(dataset.n, split.holdout_fraction, split.seed)
    tampered_pm25 = dataset.pm25.copy()
    tampered_pm25[:, heldout] = 9999.0
    tampered = tr.StationDataset(nodes=dataset.nodes, wind=dataset.wind,
                                 emissions=dataset.emissions, pm25=tampered_pm25,
                                 aod_values=dataset.aod_values,
                                 aod_valid=dataset.aod_valid)
    result_a = tr.train(dataset, small_model_config(), fast_config(epochs=2),
                        split, threshold_km=10.0)
    result_b = tr.train(tampered, small_model_config(), fast_config(epochs=2),
                        split, threshold_km=10.0)
    assert result_a.log == result_b.log
    for name in result_a.model.params:
        assert np.array_equal(result_a.model.params[name].data,
                              result_b.model.params[name].data), name


def test_train_aborts_on_numeric_blowup():
    dataset = tr.dataset_from_scenario(toy_run())
    config = fast_config(learning_rate=1e300, epochs=1)
    # the blowup itself emits numpy overflow warnings before the guard fires
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(tr.TrainError, match=r"epoch 0, batch \d"):
            tr.train(dataset, small_model_config(), config,
                     tr.split_from_fractions(60), threshold_km=10.0)


def test_train_survives_clipped_mask_jitter():
    # 49 training stations: at seed 3, batch 42 draws a ratio below 1/49,
    # which once clipped to exactly 1/49 and so masked no station at all
    spec = replace(scenario_preset("aod-ideal"), station_count=70, t_hours=60)
    dataset = tr.dataset_from_scenario(run_scenario(spec))
    config = fast_config(epochs=1, batches_per_epoch=44, mask_ratio=0.3,
                         mask_jitter=0.29, seed=3)
    result = tr.train(dataset, small_model_config(), config,
                      tr.split_from_fractions(60), threshold_km=6.0)
    assert result.train_ids.size == 49 and len(result.log) == 1


def test_train_config_rejects_adam_constants():
    for key in ("beta1", "beta2", "eps"):
        with pytest.raises(SchemaError, match=key):
            from_mapping(tr.TrainConfig, {key: 0.5}, "train")


def test_train_rejects_window_below_receptive_field():
    dataset = tr.dataset_from_scenario(toy_run())
    with pytest.raises(tr.ConfigError, match="receptive field"):
        tr.train(dataset, small_model_config(), fast_config(window=4),
                 tr.split_from_fractions(60), threshold_km=10.0)


def test_train_rejects_short_train_range():
    dataset = tr.dataset_from_scenario(toy_run())
    split = tr.SplitSpec(train_range=(0, 10), val_range=(10, 30), test_range=(30, 60))
    with pytest.raises(tr.ConfigError, match="shorter than window"):
        tr.train(dataset, small_model_config(), fast_config(), split, threshold_km=10.0)


def test_train_rejects_split_beyond_data():
    dataset = tr.dataset_from_scenario(toy_run())
    split = tr.SplitSpec(train_range=(0, 42), val_range=(42, 51), test_range=(51, 100))
    with pytest.raises(tr.ConfigError, match="data ends"):
        tr.train(dataset, small_model_config(), fast_config(), split, threshold_km=10.0)


def test_train_without_aod_records_inactive():
    dataset = tr.dataset_from_scenario(toy_run(), with_aod=False)
    result = tr.train(dataset, small_model_config(), fast_config(epochs=1),
                      tr.split_from_fractions(60), threshold_km=10.0)
    assert result.meta["aod_loss_active"] is False


# ---------------------------------------------------------------------------
# inference


def trained_toy(epochs=2):
    dataset = tr.dataset_from_scenario(toy_run())
    result = tr.train(dataset, small_model_config(), fast_config(epochs=epochs),
                      tr.split_from_fractions(60), threshold_km=10.0)
    return dataset, result


def test_infer_stations_empty_targets():
    dataset, result = trained_toy()
    out = tr.infer_stations(result.model, result.normalization, dataset,
                            np.array([], dtype=int), threshold_km=10.0)
    assert out.shape == (60, 0)


def test_infer_stations_unknown_id():
    dataset, result = trained_toy()
    with pytest.raises(tr.ConfigError, match="unknown node ids \\[99\\]"):
        tr.infer_stations(result.model, result.normalization, dataset,
                          np.array([99]), threshold_km=10.0)


def test_infer_stations_duplicate_ids():
    dataset, result = trained_toy()
    with pytest.raises(tr.ConfigError, match="duplicates"):
        tr.infer_stations(result.model, result.normalization, dataset,
                          np.array([3, 3]), threshold_km=10.0)


def test_infer_stations_blindness_probe():
    # perturbing target pollution inputs changes nothing, bit for bit
    dataset, result = trained_toy()
    targets = result.heldout_ids
    base = tr.infer_stations(result.model, result.normalization, dataset,
                             targets, threshold_km=10.0)
    rng = np.random.default_rng(0)
    for _ in range(3):
        tampered_pm25 = dataset.pm25.copy()
        tampered_pm25[:, targets] += rng.normal(0, 50, size=(60, targets.size))
        tampered = tr.StationDataset(nodes=dataset.nodes, wind=dataset.wind,
                                     emissions=dataset.emissions, pm25=tampered_pm25)
        probe = tr.infer_stations(result.model, result.normalization, tampered,
                                  targets, threshold_km=10.0)
        assert np.array_equal(probe, base)


def test_infer_stations_depends_on_observed_values():
    dataset, result = trained_toy()
    targets = result.heldout_ids[:2]
    base = tr.infer_stations(result.model, result.normalization, dataset,
                             targets, threshold_km=10.0)
    observed = [i for i in range(dataset.n) if i not in targets]
    tampered_pm25 = dataset.pm25.copy()
    tampered_pm25[:, observed] *= 1.5
    tampered = tr.StationDataset(nodes=dataset.nodes, wind=dataset.wind,
                                 emissions=dataset.emissions, pm25=tampered_pm25)
    moved = tr.infer_stations(result.model, result.normalization, tampered,
                              targets, threshold_km=10.0)
    assert not np.array_equal(moved, base)


def test_predictions_invariant_under_rigid_translation():
    # positions enter only through differences: an offset that keeps every
    # coordinate exact changes no bit, and any other offset only rounds
    rng = np.random.default_rng(21)
    n, t = 15, 30
    cells = rng.choice(30 * 30, size=n, replace=False)
    positions = np.stack([cells % 30, cells // 30], axis=1) + 0.5  # half-integer km
    wind = rng.normal(0.0, 3.0, size=(t, n, 2))
    emissions = rng.uniform(0.0, 3.0, size=(t, n))
    pm25 = rng.uniform(5.0, 40.0, size=(t, n))
    model = KrigingModel(small_model_config(), seed=0)
    targets = np.array([2, 7, 11])

    def predict_at(layout):
        dataset = tr.StationDataset(nodes=NodeSet(layout), wind=wind,
                                    emissions=emissions, pm25=pm25)
        normalization = tr.Normalization.fit(dataset, (0, t))
        # sqrt(110.25) is no distance between half-integer points, so no
        # pair sits on the cut where rounding could add or drop an edge
        return tr.infer_stations(model, normalization, dataset, targets, threshold_km=10.5)

    base = predict_at(positions)
    for offset in ((7.0, -3.0), (1000.0, 2048.0)):
        assert np.array_equal(predict_at(positions + offset), base)
    for offset in ((0.1234567, -9.87654321), (1e3 * np.pi, -517.0 * np.e)):
        np.testing.assert_allclose(predict_at(positions + offset), base, rtol=1e-12, atol=0.0)
    assert not np.allclose(predict_at(positions * 0.8), base, rtol=1e-6)


def _csr_bytes(matrix):
    return tuple(getattr(matrix, a).tobytes() for a in ("data", "indices", "indptr"))


def test_advection_of_any_hours_is_those_hours_of_the_whole_series_bitwise():
    # training batches, _evaluate and every inference block build the rates
    # of their own hours only, from the pairs the graph holds
    rng = np.random.default_rng(11)
    nodes = NodeSet(rng.uniform(0.0, 40.0, size=(12, 2)))
    wind = rng.normal(0.0, 3.0, size=(30, nodes.n, 2))  # varies by node and hour
    graph = tr.Graph.build(nodes, 15.0)
    whole = graph.advection(wind)
    assert len(whole) == 30 and graph.edges.shape[0] > 0
    for lo, hi in ((0, 30), (4, 17), (29, 30)):
        part = graph.advection(wind[lo:hi])
        direct = advection_sequence(nodes, wind[lo:hi], 15.0)
        assert len(part) == hi - lo
        assert part.rates.tobytes() == whole.rates[lo:hi].tobytes() == direct.rates.tobytes()
        for op in (whole, direct):
            assert part.indices.tobytes() == op.indices.tobytes()
            assert part.indptr.tobytes() == op.indptr.tobytes()
        assert _csr_bytes(part.weights) == _csr_bytes(direct.weights)


def test_graph_with_no_pair_has_empty_operators_and_no_proxy_term():
    # every node is isolated: nothing passes between them, and the proxy
    # loss has no edge to compare
    rng = np.random.default_rng(12)
    nodes = NodeSet(np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]]))
    graph = tr.Graph.build(nodes, 20.0)  # no distance is under the cutoff
    assert graph.pairs.rows.size == 0 and graph.sigma_sq == 1.0
    assert graph.diffusion.weights.shape == (4, 4) and graph.diffusion.weights.nnz == 0
    assert graph.edges.shape == (0, 2)
    advection = graph.advection(rng.normal(0.0, 3.0, size=(6, 4, 2)))
    assert advection.rates.shape == (6, 0) and advection.weights.shape == (24, 24)
    x = rng.normal(size=(24, 3))
    for operator in (advection.weights, advection.weights.T):
        assert np.array_equal(operator @ x, np.zeros((24, 3)))
    x_hat = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    proxy = aod_gradient_loss(x_hat, rng.normal(size=(4, 6)), np.ones((4, 6)), graph.edges)
    assert float(proxy.data) == 0.0 and count_valid_edge_terms(np.ones((4, 6)), graph.edges) == 0


def test_dropout_draw_with_no_pair_trains_without_transport(monkeypatch):
    # s1-advection at seed 0, as `train --seed 0` runs it: the training
    # stations have pairs under 6 km, and some dropout draws have none
    pairs = []
    build = tr.Graph.build

    def counted(nodes, threshold_km):
        graph = build(nodes, threshold_km)
        pairs.append(graph.pairs.rows.size)
        return graph

    monkeypatch.setattr(tr.Graph, "build", counted)
    dataset = tr.dataset_from_scenario(run_scenario(scenario_preset("s1-advection"), seed=0))
    split = tr.SplitConfig(holdout_fraction=0.3, seed=0).spec(dataset.t_hours)
    config = tr.TrainConfig(epochs=20, patience=20, batches_per_epoch=8, window=24,
                            station_dropout=0.7, seed=0)
    result = tr.train(dataset, ModelConfig(), config, split, threshold_km=6.0)
    assert len(result.log) == 20 and all(math.isfinite(r.val_mae) for r in result.log)
    assert len(pairs) == 1 + 160 and pairs[0] > 0 and 0 in pairs[1:]


ISOLATED = "no node pair closer than threshold 1.0 km: graph is fully isolated"


def test_fully_isolated_station_set_is_refused_where_it_enters():
    # toy stations sit on distinct 2 km cells, so none is under 1 km of another
    dataset, result = trained_toy(epochs=1)
    with pytest.raises(GraphBuildError, match=ISOLATED):
        tr.train(dataset, small_model_config(), fast_config(), tr.split_from_fractions(60),
                 threshold_km=1.0)
    with pytest.raises(GraphBuildError, match=ISOLATED):
        tr.infer_stations(result.model, result.normalization, dataset, result.heldout_ids,
                          threshold_km=1.0)
    # the cells have pairs with the stations, but the station set has none
    cells = dataset.nodes.positions[:3] + 0.25
    with pytest.raises(GraphBuildError, match=ISOLATED):
        tr.infer_grid(result.model, result.normalization, dataset, cells,
                      dataset.wind[:, :3], dataset.emissions[:, :3], threshold_km=1.0)


def test_inference_never_builds_proxy_loss_edges(monkeypatch):
    dataset, result = trained_toy(epochs=1)

    def refused(_):
        raise AssertionError("inference read a graph's proxy-loss edges")

    monkeypatch.setattr(tr, "edges_from_adjacency", refused)
    tr.infer_stations(result.model, result.normalization, dataset, result.heldout_ids,
                      threshold_km=10.0)
    cells = [5, 0, 3]
    positions = dataset.nodes.positions[cells] + np.array([[0.0, 0.0]] + [[0.37, 0.41]] * 2)
    tr.infer_grid(result.model, result.normalization, dataset, positions,
                  dataset.wind[:, cells], dataset.emissions[:, cells], threshold_km=10.0)


def test_graph_of_coincident_nodes_is_refused():
    # advection over it has no direction, and every graph runs advection
    nodes = NodeSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(GraphBuildError, match="nodes 2 and 0 are coincident"):
        tr.Graph.build(nodes, 10.0)


def test_infer_grid_coincident_cell_reuses_station_node():
    dataset, result = trained_toy()
    station = 5
    cell_positions = dataset.nodes.positions[station:station + 1]
    field = tr.infer_grid(result.model, result.normalization, dataset,
                          cell_positions, dataset.wind[:, station:station + 1],
                          dataset.emissions[:, station:station + 1], threshold_km=10.0)
    # manual forward with every station observed equals the deduped output
    geo = build_geo_adjacency(dataset.nodes, 10.0)
    diffusion = build_diffusion_operator(geo)
    advection = advection_sequence(dataset.nodes, dataset.wind, 10.0)
    wind_std, emissions_std, pm25_std = result.normalization.apply(
        dataset.wind, dataset.emissions, dataset.pm25)
    series = make_node_series(wind_std, emissions_std, pm25_std,
                              np.ones((60, dataset.n)))
    _, x_hat = result.model.full_forward(series, diffusion, advection)
    expected = result.normalization.to_physical(x_hat).data[station, :]
    assert np.array_equal(field[:, 0], expected)


def test_infer_grid_finds_a_coincident_cell_by_its_value():
    """A station at x = -0.0 sits where a cell at x = +0.0 does."""
    full, result = trained_toy()
    cells = np.array([[0.0, 0.0], [2.5, 2.5]])
    fields = []
    for zero in (0.0, -0.0):
        nodes = NodeSet(np.array([[zero, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]]))
        dataset = tr.StationDataset(nodes=nodes, wind=full.wind[:, :4],
                                    emissions=full.emissions[:, :4], pm25=full.pm25[:, :4])
        fields.append(tr.infer_grid(result.model, result.normalization, dataset, cells,
                                    full.wind[:, :2], full.emissions[:, :2], threshold_km=10.0))
    assert fields[0].shape == (60, 2)
    assert fields[1].tobytes() == fields[0].tobytes()


def test_infer_grid_covers_every_cell_finite():
    dataset, result = trained_toy()
    nx, ny, cell = 10, 8, 2.0
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny))
    grid_positions = np.stack([(gx.ravel() + 0.5) * cell, (gy.ravel() + 0.5) * cell],
                              axis=1)
    grid_wind = np.broadcast_to(dataset.wind[:, :1, :], (60, nx * ny, 2)).copy()
    grid_emissions = np.full((60, nx * ny), 0.3)
    field = tr.infer_grid(result.model, result.normalization, dataset,
                          grid_positions, grid_wind, grid_emissions, threshold_km=10.0)
    assert field.shape == (60, nx * ny)
    assert np.all(np.isfinite(field))


def test_infer_grid_is_equivariant_to_cell_order():
    """Permuting the cells permutes the field, bitwise: no cell's value depends
    on where the other cells sit in the input."""
    run = toy_run()
    dataset = tr.dataset_from_scenario(run)
    _, result = trained_toy()
    positions, wind, emissions = (run.truth.cell_positions(), run.truth.wind,
                                  run.truth.emissions)
    field = tr.infer_grid(result.model, result.normalization, dataset, positions,
                          wind, emissions, threshold_km=10.0)
    perm = np.random.default_rng(4).permutation(positions.shape[0])
    permuted = tr.infer_grid(result.model, result.normalization, dataset, positions[perm],
                             wind[:, perm], emissions[:, perm], threshold_km=10.0)
    assert permuted.tobytes() == field[:, perm].tobytes()


def test_station_ids_are_labels():
    """Relabelling the stations (their positions, wind, emissions and pm25
    columns permuted, the targets mapped) moves no prediction of
    infer_stations or infer_grid beyond rounding: Graph.build, where the
    kernel width and the degrees are computed, sees a set of stations."""
    run = toy_run()
    dataset = tr.dataset_from_scenario(run)
    _, result = trained_toy()
    model, norm = result.model, result.normalization
    perm = np.random.default_rng(5).permutation(dataset.n)
    relabelled = dataset.subset(perm)  # new id i is old id perm[i]
    targets = np.array([3, 11, 7])
    stations = tr.infer_stations(model, norm, dataset, targets, threshold_km=10.0)
    moved = tr.infer_stations(model, norm, relabelled, np.argsort(perm)[targets],
                              threshold_km=10.0)
    np.testing.assert_allclose(moved, stations, rtol=1e-9, atol=0.0)

    grid = (run.truth.cell_positions(), run.truth.wind, run.truth.emissions)
    field = tr.infer_grid(model, norm, dataset, *grid, threshold_km=10.0)
    moved = tr.infer_grid(model, norm, relabelled, *grid, threshold_km=10.0)
    np.testing.assert_allclose(moved, field, rtol=1e-9, atol=0.0)


@pytest.fixture(scope="module")
def s1_inference():
    """s1-advection at seed 0 over its first 48 h, a fresh default model and 4 targets."""
    dataset = tr.dataset_from_scenario(
        run_scenario(replace(scenario_preset("s1-advection"), t_hours=48), seed=0))
    model = KrigingModel(ModelConfig(), seed=0)
    normalization = tr.Normalization.fit(dataset, (0, 48))
    targets = np.array([3, 11, 20, 36])
    base = tr.infer_stations(model, normalization, dataset, targets, threshold_km=16.0)
    return dataset, model, normalization, targets, base


def _with_stations(dataset, positions):
    """`dataset` plus stations at `positions`, each carrying station 0's series."""
    extra = len(positions)
    return tr.StationDataset(
        nodes=NodeSet(np.concatenate([dataset.nodes.positions, positions])),
        wind=np.concatenate([dataset.wind, np.repeat(dataset.wind[:, :1], extra, 1)], 1),
        emissions=np.concatenate(
            [dataset.emissions, np.repeat(dataset.emissions[:, :1], extra, 1)], 1),
        pm25=np.concatenate([dataset.pm25, np.repeat(dataset.pm25[:, :1], extra, 1)], 1))


@pytest.mark.parametrize("positions", [
    [(500.0, 500.0)],
    [(500.0, 500.0), (-500.0, 500.0), (500.0, -500.0)],
], ids=["one", "three"])
def test_isolated_stations_leave_predictions_bitwise_unchanged(s1_inference, positions):
    """A station beyond the threshold of every node gets no edge, so it adds no
    term to any sum the other nodes' predictions make, and the kernel width
    sigma^2 is taken over the same pairs.  (Two far stations closer than the
    threshold to each other would add a pair to sigma^2 and move the outputs
    by rounding; that case is left out.)"""
    dataset, model, normalization, targets, base = s1_inference
    grown = _with_stations(dataset, np.array(positions))
    out = tr.infer_stations(model, normalization, grown, targets, threshold_km=16.0)
    assert out.tobytes() == base.tobytes()


def test_permuting_station_rows_permutes_predictions(s1_inference):
    """Graph building sees the permuted rows (the pair list's CSR order and
    sigma^2's summation order both change), so only rounding may differ."""
    dataset, model, normalization, targets, base = s1_inference
    perm = np.random.default_rng(0).permutation(dataset.n)
    out = tr.infer_stations(model, normalization, dataset.subset(perm),
                            np.argsort(perm)[targets], threshold_km=16.0)
    np.testing.assert_allclose(out, base, rtol=1e-10, atol=0.0)


def test_subnormal_kernel_weight_is_dropped():
    """(0,0)-(14.85,0) is the only pair under 16 km with a nonzero weight,
    and exp(-14.85**2 / 0.3025) is subnormal: kept, its node's inverse
    square-root degree overflows and the diffusion operator holds inf."""
    nodes = NodeSet(np.array([[0.0, 0.0], [14.85, 0.0], [0.0, 15.95], [40.0, 40.0]]))
    rng = np.random.default_rng(0)
    t = 12
    dataset = tr.StationDataset(nodes=nodes, wind=rng.normal(size=(t, 4, 2)),
                                emissions=rng.uniform(size=(t, 4)),
                                pm25=rng.uniform(5.0, 40.0, size=(t, 4)))
    model = KrigingModel(small_model_config(), seed=0)
    normalization = tr.Normalization.fit(dataset, (0, t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geo = build_geo_adjacency(nodes, 16.0)
        operator = build_diffusion_operator(geo)
        preds = tr.infer_stations(model, normalization, dataset, np.array([0]),
                                  threshold_km=16.0)
    assert geo.weights.nnz == 0 and np.isfinite(operator.weights.data).all()
    assert preds.shape == (t, 1) and np.isfinite(preds).all()


def test_infer_grid_uniform_scenario_is_flat():
    # uniform truth + zero wind: predicted spatial spread stays below 10%
    spec = ScenarioSpec(nx=8, ny=8, cell_km=2.0, t_hours=40, wind_speed_ms=0.0,
                        kappa_km2_h=0.5, decay_per_h=0.1, background_rate=0.8,
                        initial_value=8.0, station_count=20, layout_seed=3,
                        aod=AodSpec(cloud_fraction=0.0))
    run = run_scenario(spec)
    dataset = tr.dataset_from_scenario(run)
    result = tr.train(dataset, small_model_config(), fast_config(epochs=2),
                      tr.split_from_fractions(40), threshold_km=8.0)
    grid_positions = run.truth.cell_positions()
    field = tr.infer_grid(result.model, result.normalization, dataset, grid_positions,
                          run.truth.wind, run.truth.emissions, threshold_km=8.0)
    last = field[-1]
    assert last.std() < 0.1 * abs(last.mean())


def test_infer_grid_never_mutates_parameters():
    dataset, result = trained_toy()
    before = {name: p.data.copy() for name, p in result.model.params.items()}
    for nx, ny in ((5, 4), (10, 8)):
        gx, gy = np.meshgrid(np.arange(nx), np.arange(ny))
        grid_positions = np.stack([(gx.ravel() + 0.37) * 2.0,
                                   (gy.ravel() + 0.37) * 2.0], axis=1)
        grid_wind = np.zeros((60, nx * ny, 2))
        grid_emissions = np.zeros((60, nx * ny))
        tr.infer_grid(result.model, result.normalization, dataset, grid_positions,
                      grid_wind, grid_emissions, threshold_km=10.0)
    for name, data in before.items():
        assert np.array_equal(result.model.params[name].data, data), name


def test_infer_grid_shape_errors():
    dataset, result = trained_toy()
    with pytest.raises(tr.ConfigError, match="grid wind"):
        tr.infer_grid(result.model, result.normalization, dataset,
                      np.array([[1.0, 1.0]]), np.zeros((59, 1, 2)), np.zeros((60, 1)),
                      threshold_km=10.0)


def _record_forwards(monkeypatch):
    """Every forward-only pass from here on, as (model, outputs): the model
    `_forward_only` ran and the tensors that `encode` and `refine` returned
    since the previous pass ended."""
    passes, outputs = [], []
    for name in ("encode", "refine"):
        def recording(self, *args, _original=getattr(KrigingModel, name)):
            out = _original(self, *args)
            outputs.append(out)
            return out

        monkeypatch.setattr(KrigingModel, name, recording)
    forward_only = tr._forward_only

    def recording_pass(model, *args):
        estimates = forward_only(model, *args)
        passes.append((model, outputs[:]))
        outputs.clear()
        return estimates

    monkeypatch.setattr(tr, "_forward_only", recording_pass)
    return passes


def _forward_only_passes(dataset, result):
    """infer_stations, infer_grid (one cell on station 5) and _evaluate."""
    model, norm = result.model, result.normalization
    stations = tr.infer_stations(model, norm, dataset, result.heldout_ids, threshold_km=10.0)
    cells = [5, 0, 3, 8]
    positions = dataset.nodes.positions[cells] + np.array([[0.0, 0.0]] + [[0.37, 0.41]] * 3)
    grid = tr.infer_grid(model, norm, dataset, positions, dataset.wind[:, cells],
                         dataset.emissions[:, cells], threshold_km=10.0)
    graph = tr.Graph.build(dataset.nodes, 10.0)
    targets = [tr.sample_partition(np.arange(dataset.n), 0.5, np.random.default_rng(1))]
    scores = tr._evaluate(model, norm, dataset, graph, targets, (40, 60))
    return stations, grid, scores


def test_forward_only_passes_match_the_tracked_forward_bitwise(monkeypatch):
    dataset, result = trained_toy()
    stations, grid, scores = _forward_only_passes(dataset, result)

    monkeypatch.setattr(KrigingModel, "detached", lambda self: self)
    forwards = _record_forwards(monkeypatch)
    t_stations, t_grid, t_scores = _forward_only_passes(dataset, result)
    assert forwards and all(outputs and all(out._parents for out in outputs)
                            for _, outputs in forwards)
    assert stations.tobytes() == t_stations.tobytes()
    assert grid.tobytes() == t_grid.tobytes()
    assert scores == t_scores


def test_forward_only_passes_record_no_tape(monkeypatch):
    dataset, result = trained_toy()
    forwards = _record_forwards(monkeypatch)
    _forward_only_passes(dataset, result)
    # per hour block of the 60-h series: infer_stations once, and
    # infer_grid's station pass and one cell chunk; then _evaluate once
    blocks = -(-60 // tr._BLOCK_HOURS)
    assert len(forwards) == blocks + 2 * blocks + 1
    for model, outputs in forwards:
        assert outputs and not any(p.requires_grad for p in model.params.values())
        for out in outputs:
            assert out._parents == () and out._backward is None and not out.requires_grad
    for p in result.model.params.values():
        assert p.requires_grad and p.grad is None


def _whole_window_stations(model, norm, dataset, targets, threshold_km):
    """`infer_stations` as one tracked `full_forward` over every hour."""
    graph = tr.Graph.build(dataset.nodes, threshold_km)
    _, whole = tr.predict(model.detached(), norm, graph, dataset.wind, dataset.emissions,
                          dataset.pm25, targets)
    return whole.data[targets].T.copy()


@pytest.mark.parametrize("block", [1, 7, 60], ids=["hour", "seven", "window"])
def test_refined_estimates_do_not_depend_on_the_block_size(monkeypatch, block):
    """Each block is encoded from the hours before it and each hour is
    refined on its own, so any block size gives the bytes of one
    whole-window `full_forward`."""
    dataset, result = trained_toy()
    model, norm = result.model, result.normalization
    whole = _whole_window_stations(model, norm, dataset, [2, 5, 9], 10.0)
    monkeypatch.setattr(tr, "_BLOCK_HOURS", block)
    blocked = tr.infer_stations(model, norm, dataset, [2, 5, 9], threshold_km=10.0)
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("n_nodes", [7, 41])
@pytest.mark.parametrize("block", [1, 5, 7])
def test_block_size_invariance_holds_for_any_node_count(monkeypatch, n_nodes, block):
    """The readout's one-column product gave some rows other bits at node
    counts such as 7 and 41, where N * hours leaves a partial BLAS block.
    Every node is a target, so that every row is compared."""
    rng = np.random.default_rng(n_nodes)
    t = 30
    dataset = tr.StationDataset(nodes=NodeSet(rng.uniform(0.0, 20.0, size=(n_nodes, 2))),
                                wind=rng.normal(0.0, 3.0, size=(t, n_nodes, 2)),
                                emissions=rng.uniform(size=(t, n_nodes)),
                                pm25=rng.uniform(5.0, 40.0, size=(t, n_nodes)))
    model = KrigingModel(ModelConfig(), seed=0)
    norm = tr.Normalization.fit(dataset, (0, t))
    targets = np.arange(n_nodes)
    whole = _whole_window_stations(model, norm, dataset, targets, 8.0)
    monkeypatch.setattr(tr, "_BLOCK_HOURS", block)
    blocked = tr.infer_stations(model, norm, dataset, targets, threshold_km=8.0)
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize(("preset", "block"), [
    pytest.param("s1-advection", 12, id="s1-advection"),
    pytest.param("aod-ideal", 12, id="aod-ideal"),
    pytest.param("s1-advection", 48, id="s1-advection-block48"),
    pytest.param("aod-ideal", 48, id="aod-ideal-block48")])
def test_infer_grid_matches_one_whole_window_forward_per_chunk(monkeypatch, preset, block):
    """100 hours, so the refinement runs over eight blocks of 12 hours and
    one of 4, or over blocks of 48, 48 and 4."""
    monkeypatch.setattr(tr, "_BLOCK_HOURS", block)
    run = run_scenario(replace(scenario_preset(preset), t_hours=100), seed=0)
    dataset = tr.dataset_from_scenario(run)
    model = KrigingModel(ModelConfig(), seed=0)
    norm = tr.Normalization.fit(dataset, (0, 100))
    grid = (run.truth.cell_positions(), run.truth.wind, run.truth.emissions)
    field = tr.infer_grid(model, norm, dataset, *grid, threshold_km=16.0)
    assert field.tobytes() == chunked_predict_grid(model, norm, dataset, *grid, 16.0).tobytes()


@pytest.mark.parametrize(("hours", "block"), [
    pytest.param(100, 12, id="100"), pytest.param(50, 12, id="50"),
    pytest.param(100, 48, id="100-block48"), pytest.param(50, 48, id="50-block48")])
def test_inference_matches_the_whole_window_forward(monkeypatch, hours, block):
    """Blocks of 12 hours and a last one of 4 (100 h) or 2 (50 h), or of 48,
    48 and 4 and of 48 and 2: the last block, and at 12 every block, is
    then shorter than the encoder's receptive field of 15 hours."""
    monkeypatch.setattr(tr, "_BLOCK_HOURS", block)
    run = run_scenario(replace(scenario_preset("s1-advection"), t_hours=hours), seed=0)
    dataset = tr.dataset_from_scenario(run)
    model = KrigingModel(ModelConfig(), seed=0)
    norm = tr.Normalization.fit(dataset, (0, hours))
    targets = [3, 11, 20, 36]
    stations = tr.infer_stations(model, norm, dataset, targets, threshold_km=16.0)
    assert stations.tobytes() == _whole_window_stations(model, norm, dataset, targets,
                                                         16.0).tobytes()
    grid = (run.truth.cell_positions(), run.truth.wind, run.truth.emissions)
    field = tr.infer_grid(model, norm, dataset, *grid, threshold_km=16.0)
    assert field.tobytes() == chunked_predict_grid(model, norm, dataset, *grid, 16.0).tobytes()


def _heap_peak(infer, *args) -> int:
    """The tracemalloc peak of one call, with scipy.sparse loaded beforehand:
    its import is not the call's memory."""
    import scipy.sparse  # noqa: F401

    tracemalloc.start()
    try:
        infer(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_infer_grid_heap_peak_is_flat_in_the_number_of_hours():
    """The tracemalloc peak of `infer_grid` less its (T, G) output, which
    is allocated first and lives throughout, is flat in T. On s1-advection
    (400 cells) with numpy 2.4 the peak was 3.0 MiB over 240 h and 5.3 MiB
    over 960 h, of which the output is 0.7 and 2.9 MiB, so 2.3 MiB besides
    at both lengths (48-hour blocks: 7.9 and 10.1 MiB). Encoding every
    node over the whole series and refining in hour blocks gave 14.9 and
    59.1 MiB."""
    run = run_scenario(replace(scenario_preset("s1-advection"), t_hours=960), seed=0)
    model = KrigingModel(ModelConfig(), seed=0)
    peaks = []
    for hours in (240, 960):
        dataset = tr.dataset_from_scenario(run)
        dataset = replace(dataset, wind=dataset.wind[:hours], emissions=dataset.emissions[:hours],
                          pm25=dataset.pm25[:hours], aod_values=None, aod_valid=None)
        norm = tr.Normalization.fit(dataset, (0, hours))
        peak = _heap_peak(tr.infer_grid, model, norm, dataset, run.truth.cell_positions(),
                          run.truth.wind[:hours], run.truth.emissions[:hours], 16.0)
        peaks.append(peak - hours * run.truth.n_cells * 8)
    assert peaks[1] <= 1.2 * peaks[0]


def test_infer_grid_heap_peak_stays_well_below_the_whole_window_path():
    """On s1-advection (240 h, 400 cells) the tracemalloc peak of `infer_grid`
    was 0.106 of the whole-window reference's with numpy 2.4 (3.0 of 28.0
    MiB), and 0.28 with 48-hour blocks. Encoding every node over the whole
    series and refining in hour blocks gave 0.53."""
    run = run_scenario(scenario_preset("s1-advection"), seed=0)
    dataset = tr.dataset_from_scenario(run)
    model = KrigingModel(ModelConfig(), seed=0)
    norm = tr.Normalization.fit(dataset, (0, dataset.t_hours))
    grid = (run.truth.cell_positions(), run.truth.wind, run.truth.emissions)
    peaks = [_heap_peak(infer, model, norm, dataset, *grid, 16.0)
             for infer in (tr.infer_grid, chunked_predict_grid)]
    assert peaks[0] <= 0.20 * peaks[1]


def test_no_batch_tape_outlives_its_step(monkeypatch):
    """The network's tape of a batch is freed before the next forward starts.

    The loop's own results (the physical-unit estimates, the loss terms)
    stay bound until the next batch rebinds them; backward() has dropped
    the graph beneath them, so every array the network recorded is gone.
    """
    tapes = []
    forward = KrigingModel.full_forward

    def recording_forward(self, *args):
        assert all(ref() is None for refs in tapes for ref in refs)
        outputs = forward(self, *args)
        refs, seen, stack = [], set(), list(outputs)
        while stack:
            node = stack.pop()
            if node._op != "leaf" and id(node) not in seen:
                seen.add(id(node))
                refs.append(weakref.ref(node.data))
                stack.extend(node._parents)
        tapes.append(refs)  # validation runs forward-only and never calls full_forward
        return outputs

    monkeypatch.setattr(KrigingModel, "full_forward", recording_forward)
    trained_toy(epochs=2)
    assert len(tapes) == 8 and all(len(refs) > 15 for refs in tapes)


# ---------------------------------------------------------------------------
# config plumbing


def test_train_config_from_dict_rejects_unknown():
    with pytest.raises(SchemaError, match="'train': unknown keys \\['window_len'\\]"):
        from_mapping(tr.TrainConfig, {"window_len": 24}, "train")


def split_from_dict(data: dict, t_hours: int) -> tr.SplitSpec:
    """The split a run config's `split` mapping gives a `t_hours`-long series."""
    return from_mapping(tr.SplitConfig, data, "split").spec(t_hours)


_HOURS = {"train_hours": [0, 40], "val_hours": [40, 50], "test_hours": [50, 60]}


def test_split_from_dict_fractions():
    """The hours are carved 70/15/15 whatever the hold-out draw."""
    split = split_from_dict({"holdout_fraction": 0.2, "seed": 8}, t_hours=100)
    assert split.train_range == (0, 70)
    assert split.val_range == (70, 85)
    assert split.test_range == (85, 100)
    assert split.holdout_fraction == 0.2 and split.seed == 8


def test_split_from_dict_default_fractions():
    assert split_from_dict({}, t_hours=100) == tr.split_from_fractions(100)


@pytest.mark.parametrize("key", ["train_fraction", "val_fraction"])
def test_split_from_dict_rejects_nan_fractions(key):
    """The carve's fractions are not settable, so the key is refused before its value."""
    with pytest.raises(SchemaError, match=rf"^section 'split': unknown keys \['{key}'\]$"):
        split_from_dict({key: float("nan")}, t_hours=100)


def assert_split_keys_refused(data: dict):
    """`data` is refused by its keys, all of them named, before any value is read."""
    keys = re.escape(str(sorted(data)))
    with pytest.raises(SchemaError, match=f"^section 'split': unknown keys {keys}$"):
        split_from_dict(data, t_hours=60)


def test_split_from_dict_explicit_ranges():
    """Hour ranges are not settable: a well-formed set of them is refused by its keys."""
    assert_split_keys_refused(_HOURS)


def test_split_from_dict_partial_explicit_rejected():
    with pytest.raises(SchemaError, match=r"^section 'split': unknown keys \['train_hours'\]$"):
        split_from_dict({"train_hours": [0, 40]}, t_hours=60)


def test_split_from_dict_hours_exclude_fractions():
    """Ranges given with a fraction are refused by the keys of both."""
    for key in ("train_fraction", "val_fraction"):
        assert_split_keys_refused({**_HOURS, key: 0.5})


def test_split_from_dict_explicit_hours_must_be_ints():
    """A malformed train_hours is refused by its key, whatever its value."""
    for bad in ([True, 40], [0, 40.0], [0, "40"], [0], [0, 40, 50], 40):
        assert_split_keys_refused({**_HOURS, "train_hours": bad})


def test_split_from_dict_unknown_keys():
    with pytest.raises(SchemaError, match=r"section 'split': unknown keys \['fraction'\]"):
        split_from_dict({"fraction": 0.5}, t_hours=60)


@pytest.mark.parametrize("cls", [tr.TrainConfig, tr.SplitConfig])
def test_negative_seed_rejected(cls):
    with pytest.raises(tr.ConfigError, match="seed -1 is negative"):
        cls(seed=-1)


def test_weights_from_dict():
    weights = from_mapping(LossWeights, {"lambda1": 0.5, "lambda2": 0.0}, "loss")
    assert weights == LossWeights(lambda1=0.5, lambda2=0.0)
