"""Partitioning, splits, standardization, and training-loop contracts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pgkrig import autodiff as ad
from pgkrig import training as tr
from pgkrig.graphs import NodeSet, build_diffusion_operator, build_geo_adjacency, \
    advection_sequence
from pgkrig.losses import LossWeights
from pgkrig.network import KrigingModel, ModelConfig, make_node_series
from pgkrig.testbed import AodSpec, EmissionSource, ScenarioSpec, run_scenario, \
    scenario_preset


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
    part = tr.sample_partition(np.arange(10), 0.5, rng)
    assert part.target.size == 5
    assert part.observed.size == 5


def test_partition_is_disjoint_cover():
    rng = np.random.default_rng(1)
    for n in (2, 5, 9, 24):
        part = tr.sample_partition(np.arange(n), 0.4 if n > 2 else 0.5, rng)
        combined = np.sort(np.concatenate([part.observed, part.target]))
        assert np.array_equal(combined, np.arange(n))


def test_partition_same_seed_same_sequence():
    parts_a = [tr.sample_partition(np.arange(12), 0.5, np.random.default_rng(7))
               for _ in range(1)]
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    for _ in range(5):
        pa = tr.sample_partition(np.arange(12), 0.5, rng_a)
        pb = tr.sample_partition(np.arange(12), 0.5, rng_b)
        assert np.array_equal(pa.target, pb.target)
        assert np.array_equal(pa.observed, pb.observed)
    del parts_a


def test_partition_fresh_draw_each_call():
    rng = np.random.default_rng(3)
    draws = {tuple(tr.sample_partition(np.arange(10), 0.5, rng).target)
             for _ in range(20)}
    assert len(draws) > 1


def test_partition_uniform_target_frequency():
    # Monte-Carlo: every node lands in the target set about half the time
    rng = np.random.default_rng(11)
    counts = np.zeros(10)
    n_draws = 10_000
    for _ in range(n_draws):
        part = tr.sample_partition(np.arange(10), 0.5, rng)
        counts[part.target] += 1
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
            assert tr.sample_partition(np.arange(n), ratio, rng).target.size == 1, n


def test_jittered_ratio_stays_in_band():
    rng = np.random.default_rng(0)
    ratios = [tr.jittered_ratio(0.5, 0.2, 20, rng) for _ in range(200)]
    assert 0.3 <= min(ratios) and max(ratios) <= 0.7


def test_partition_needs_two_nodes():
    with pytest.raises(tr.ConfigError, match="at least 2"):
        tr.sample_partition(np.arange(1), 0.5, np.random.default_rng(0))


def test_mask_partition_rejects_overlap():
    with pytest.raises(tr.ConfigError, match="disjoint"):
        tr.MaskPartition(observed=np.array([0, 1]), target=np.array([1, 2]))


def test_mask_partition_rejects_empty_side():
    with pytest.raises(tr.ConfigError, match="non-empty"):
        tr.MaskPartition(observed=np.array([0, 1]), target=np.array([], dtype=int))


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
        with pytest.raises(tr.ConfigError, match=key):
            tr.train_config_from_dict({key: 0.5})


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


def test_graph_window_equals_graph_of_the_window_bitwise():
    # training slices one graph per window, and _evaluate the validation
    # hours, instead of building the operators for those hours
    rng = np.random.default_rng(11)
    nodes = NodeSet(rng.uniform(0.0, 40.0, size=(12, 2)))
    wind = rng.normal(0.0, 3.0, size=(30, nodes.n, 2))  # varies by node and hour
    full = tr.prepare_graph(nodes, wind, 15.0)
    assert len(full.advection) == 30 and full.edges.shape[0] > 0
    for lo, hi in ((0, 30), (4, 17), (29, 30)):
        window = full.window(lo, hi)
        direct = tr.prepare_graph(nodes, wind[lo:hi], 15.0)
        assert len(window.advection) == len(direct.advection) == hi - lo
        for a, b in zip(window.advection, direct.advection):
            assert _csr_bytes(a.weights) == _csr_bytes(b.weights)
            assert _csr_bytes(a.transpose) == _csr_bytes(b.transpose)
        assert _csr_bytes(window.diffusion.weights) == _csr_bytes(direct.diffusion.weights)
        assert _csr_bytes(window.diffusion.transpose) == _csr_bytes(direct.diffusion.transpose)
        assert window.edges.dtype == direct.edges.dtype
        assert window.edges.tobytes() == direct.edges.tobytes()


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
    """(model, outputs) of every full_forward call from here on."""
    calls = []
    original = KrigingModel.full_forward

    def recording(self, *args):
        outputs = original(self, *args)
        calls.append((self, outputs))
        return outputs

    monkeypatch.setattr(KrigingModel, "full_forward", recording)
    return calls


def _forward_only_passes(dataset, result):
    """infer_stations, infer_grid (one cell on station 5) and _evaluate."""
    model, norm = result.model, result.normalization
    stations = tr.infer_stations(model, norm, dataset, result.heldout_ids, threshold_km=10.0)
    cells = [5, 0, 3, 8]
    positions = dataset.nodes.positions[cells] + np.array([[0.0, 0.0]] + [[0.37, 0.41]] * 3)
    grid = tr.infer_grid(model, norm, dataset, positions, dataset.wind[:, cells],
                         dataset.emissions[:, cells], threshold_km=10.0)
    graph = tr.prepare_graph(dataset.nodes, dataset.wind, 10.0)
    parts = [tr.sample_partition(np.arange(dataset.n), 0.5, np.random.default_rng(1))]
    scores = tr._evaluate(model, norm, dataset, graph, parts, (40, 60))
    return stations, grid, scores


def test_forward_only_passes_match_the_tracked_forward_bitwise(monkeypatch):
    dataset, result = trained_toy()
    stations, grid, scores = _forward_only_passes(dataset, result)

    monkeypatch.setattr(KrigingModel, "detached", lambda self: self)
    forwards = _record_forwards(monkeypatch)
    t_stations, t_grid, t_scores = _forward_only_passes(dataset, result)
    assert forwards and all(out._parents for _, outputs in forwards for out in outputs)
    assert stations.tobytes() == t_stations.tobytes()
    assert grid.tobytes() == t_grid.tobytes()
    assert scores == t_scores


def test_forward_only_passes_record_no_tape(monkeypatch):
    dataset, result = trained_toy()
    forwards = _record_forwards(monkeypatch)
    _forward_only_passes(dataset, result)
    # infer_stations, the station pass and one cell chunk of infer_grid, _evaluate
    assert len(forwards) == 4
    for model, outputs in forwards:
        assert not any(p.requires_grad for p in model.params.values())
        for out in outputs:
            assert out._parents == () and out._backward is None and not out.requires_grad
    for p in result.model.params.values():
        assert p.requires_grad and p.grad is None


# ---------------------------------------------------------------------------
# config plumbing


def test_train_config_from_dict_rejects_unknown():
    with pytest.raises(tr.ConfigError, match="train"):
        tr.train_config_from_dict({"window_len": 24})


def test_split_from_dict_fractions():
    split = tr.split_from_dict({"train_fraction": 0.5, "val_fraction": 0.25,
                                "holdout_fraction": 0.2, "seed": 8}, t_hours=100)
    assert split.train_range == (0, 50)
    assert split.val_range == (50, 75)
    assert split.test_range == (75, 100)
    assert split.holdout_fraction == 0.2 and split.seed == 8


def test_split_from_dict_explicit_ranges():
    split = tr.split_from_dict({"train_hours": [0, 40], "val_hours": [40, 50],
                                "test_hours": [50, 60]}, t_hours=60)
    assert split.train_range == (0, 40)


def test_split_from_dict_partial_explicit_rejected():
    with pytest.raises(tr.ConfigError, match="explicit split needs"):
        tr.split_from_dict({"train_hours": [0, 40]}, t_hours=60)


def test_split_from_dict_unknown_keys():
    with pytest.raises(tr.ConfigError, match="unknown split keys"):
        tr.split_from_dict({"fraction": 0.5}, t_hours=60)


def test_weights_from_dict():
    weights = tr.weights_from_dict({"lambda1": 0.5, "lambda2": 0.0})
    assert weights == LossWeights(lambda1=0.5, lambda2=0.0)
