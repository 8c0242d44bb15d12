"""Simulator oracles: equilibrium, symmetry, drift, mass budget, proxies."""

import re
from dataclasses import replace

import numpy as np
import pytest
from reference_ops import padded_substep, per_hour_make_aod
from scipy.ndimage import gaussian_filter

from pgkrig import testbed as tb
from pgkrig.dataio import SchemaError, from_mapping


def quiet_spec(**overrides):
    defaults = dict(nx=10, ny=10, cell_km=2.0, t_hours=12, wind_regime="constant",
                    wind_speed_ms=0.0, kappa_km2_h=0.0, decay_per_h=0.0,
                    background_rate=0.0, sources=(), station_count=5, layout_seed=0)
    defaults.update(overrides)
    return tb.ScenarioSpec(**defaults)


def assert_bitwise(actual, expected):
    """Equal bit patterns, so -0.0 and 0.0 differ and NaN payloads count."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(np.ascontiguousarray(actual).view(np.uint64),
                                  np.ascontiguousarray(expected).view(np.uint64))


def centroid_x(field: tb.TruthField, step: int) -> float:
    c = field.concentrations[step]
    x = field.cell_positions()[:, 0]
    return float((x * c).sum() / c.sum())


class TestSimulate:
    def test_uniform_field_is_equilibrium(self):
        spec = quiet_spec(kappa_km2_h=1.0, initial_value=5.0)
        truth = tb.simulate(spec)
        for step in range(spec.t_hours):
            np.testing.assert_array_equal(truth.concentrations[step],
                                          np.full(spec.n_cells, 5.0))

    def test_diffusion_plume_radially_symmetric(self):
        spec = quiet_spec(nx=21, ny=21, kappa_km2_h=1.0, decay_per_h=0.05, t_hours=24,
                          sources=(tb.EmissionSource(21.0, 21.0, 10.0, "constant"),))
        truth = tb.simulate(spec)
        final = truth.concentrations[-1].reshape(21, 21)
        assert np.max(np.abs(final - final[::-1, :])) < 1e-10
        assert np.max(np.abs(final - final[:, ::-1])) < 1e-10
        assert np.max(np.abs(final - final.T)) < 1e-10

    def test_plume_centroid_drifts_at_wind_speed(self):
        # burst source, then the centroid must travel at the wind speed,
        # within one cell per 10 recorded steps
        spec = quiet_spec(nx=35, ny=13, t_hours=12, wind_speed_ms=1.0,
                          wind_direction_deg=0.0, kappa_km2_h=0.5,
                          sources=(tb.EmissionSource(10.0, 13.0, 50.0, "burst"),))
        truth = tb.simulate(spec)
        drift = centroid_x(truth, 11) - centroid_x(truth, 1)
        expected = 1.0 * tb._MS_TO_KMH * 10.0  # 36 km over 10 hours
        assert abs(drift - expected) <= spec.cell_km

    def test_mass_grows_exactly_by_injections(self):
        # zero decay, closed boundaries: running mass equals initial mass
        # plus the cumulative source input, to float accumulation error
        spec = quiet_spec(nx=12, ny=9, t_hours=20, wind_speed_ms=2.0,
                          wind_direction_deg=30.0, kappa_km2_h=0.6,
                          initial_value=1.0, background_rate=0.1, boundary="closed",
                          sources=(tb.EmissionSource(6.0, 6.0, 4.0, "diurnal"),))
        truth = tb.simulate(spec)
        area = spec.cell_km ** 2
        mass0 = spec.initial_value * spec.n_cells * area
        raster = spec.emission_raster()
        injected = 0.0
        for hour in range(spec.t_hours):
            injected += raster[hour].sum() * area
            mass = truth.concentrations[hour].sum() * area
            assert mass == pytest.approx(mass0 + injected, rel=1e-9)

    def test_decay_removes_mass(self):
        spec = quiet_spec(initial_value=8.0, decay_per_h=0.1, t_hours=10)
        truth = tb.simulate(spec)
        masses = truth.concentrations.sum(axis=1)
        assert np.all(np.diff(masses) < 0.0)
        # explicit Euler tracks the exponential to first order in dt
        assert masses[-1] / (8.0 * spec.n_cells) == pytest.approx(
            np.exp(-0.1 * 10), rel=0.1)

    def test_pure_advection_pulse_never_amplifies(self):
        spec = quiet_spec(nx=30, ny=7, t_hours=14, wind_speed_ms=2.0,
                          sources=(tb.EmissionSource(8.0, 7.0, 30.0, "burst"),))
        truth = tb.simulate(spec)
        peaks = truth.concentrations.max(axis=1)
        assert np.all(np.diff(peaks) <= 1e-12)

    def test_concentrations_nonnegative_under_rough_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            spec = quiet_spec(
                nx=14, ny=14, t_hours=30, wind_regime="rotating",
                wind_speed_ms=float(rng.uniform(1.0, 8.0)),
                wind_direction_deg=float(rng.uniform(0, 360)),
                kappa_km2_h=float(rng.uniform(0.0, 2.0)),
                decay_per_h=float(rng.uniform(0.0, 0.2)),
                sources=(tb.EmissionSource(10.0, 10.0, 20.0, "diurnal"),))
            truth = tb.simulate(spec)
            assert truth.concentrations.min() >= 0.0
            assert np.all(np.isfinite(truth.concentrations))

    def test_needed_substeps_meet_both_cfl_bounds(self):
        for spec in (quiet_spec(wind_speed_ms=10.0), quiet_spec(kappa_km2_h=3.0),
                     tb.scenario_preset("s1-advection")):
            dt, dx = 1.0 / tb._required_substeps(spec), spec.cell_km
            speed = float(np.max(np.linalg.norm(spec.wind_series() * tb._MS_TO_KMH, axis=1)))
            assert speed * dt / dx <= tb.CFL_ADVECTION
            assert spec.kappa_km2_h * dt / (dx * dx) <= tb.CFL_DIFFUSION

    @pytest.mark.parametrize("key, value", [
        ("wind_speed_ms", 1.0e307), ("kappa_km2_h", 1.5e308), ("decay_per_h", 1.7e308)])
    def test_unbounded_substep_count_errors_before_stepping(self, monkeypatch, key, value):
        # the rates overflow to inf; huge finite rates would need billions of
        # substeps and are not tried here
        def step(*args, **kwargs):
            raise AssertionError("an hour was simulated")

        monkeypatch.setattr(tb, "_substep", step)
        with pytest.raises(tb.ScenarioError,
                           match=f"^no finite number of substeps .*{re.escape(f'{key} {value}')}"):
            tb.simulate(quiet_spec(**{key: value}))

    def test_huge_finite_rates_error_before_stepping(self, monkeypatch):
        def step(*args, **kwargs):
            raise AssertionError("an hour was simulated")

        monkeypatch.setattr(tb, "_substep", step)
        for key, value, count in (("wind_speed_ms", 1.0e6, "2e+06"),
                                  ("decay_per_h", 1.0e308, "1.11e+308")):
            with pytest.raises(tb.ScenarioError, match=(
                    f"{re.escape(f'{key} {value}')}.* need {re.escape(count)} substeps per "
                    f"hour, more than the {tb.MAX_SUBSTEPS} allowed$")):
                tb.simulate(quiet_spec(**{key: value}))

    def test_substep_ceiling_bounds_explicit_and_needed_counts(self):
        # an explicit count cannot be given at all
        with pytest.raises(SchemaError, match=r"unknown keys \['substeps_per_hour'\]$"):
            from_mapping(tb.ScenarioSpec, {"substeps_per_hour": tb.MAX_SUBSTEPS + 1},
                         "scenario")
        # kappa at the positivity bound of exactly MAX_SUBSTEPS substeps runs
        kappa = tb.MAX_SUBSTEPS * tb._POSITIVITY_BUDGET * 4.0 / 4.0
        assert tb._required_substeps(quiet_spec(kappa_km2_h=kappa)) == tb.MAX_SUBSTEPS
        with pytest.raises(tb.ScenarioError, match="more than the"):
            tb._required_substeps(quiet_spec(kappa_km2_h=kappa * 1.01))

    def test_cell_whose_square_underflows_errors(self):
        with pytest.raises(tb.ScenarioError, match="cell_km 1e-200 is too small"):
            quiet_spec(cell_km=1.0e-200)

    def test_sources_off_the_grid_land_on_its_edge_cells(self):
        sources = (tb.EmissionSource(1e308, -1e308, 2.0), tb.EmissionSource(-3.0, 7.9, 1.0),
                   tb.EmissionSource(7.9, 30.0, 4.0))
        raster = quiet_spec(nx=4, ny=3, cell_km=0.5, sources=sources).emission_raster()
        expected = np.zeros(12)
        expected[[3, 8, 11]] = [2.0, 1.0, 4.0]  # cells (ix, iy) = (3, 0), (0, 2), (3, 2)
        np.testing.assert_array_equal(raster, np.tile(expected, (12, 1)))

    def test_reversing_wind_flips_at_halfway(self):
        spec = quiet_spec(t_hours=10, wind_regime="reversing", wind_speed_ms=2.0)
        wind = spec.wind_series()
        np.testing.assert_allclose(wind[:5], [[2.0, 0.0]] * 5, atol=1e-12)
        np.testing.assert_allclose(wind[5:], [[-2.0, 0.0]] * 5, atol=1e-12)

    def test_rotating_wind_keeps_speed(self):
        spec = quiet_spec(t_hours=36, wind_regime="rotating", wind_speed_ms=3.0)
        wind = spec.wind_series()
        np.testing.assert_allclose(np.linalg.norm(wind, axis=1), 3.0)
        assert not np.allclose(wind[0], wind[18])


class TestStations:
    def test_every_cell_when_count_equals_cells(self):
        spec = quiet_spec(nx=4, ny=3, initial_value=1.0)
        truth = tb.simulate(spec)
        sample = tb.sample_stations(truth, count=12, seed=0)
        np.testing.assert_array_equal(sample.cell_indices, np.arange(12))

    def test_seed_reproducibility(self):
        truth = tb.simulate(quiet_spec(initial_value=2.0))
        a = tb.sample_stations(truth, count=7, seed=42)
        b = tb.sample_stations(truth, count=7, seed=42)
        np.testing.assert_array_equal(a.cell_indices, b.cell_indices)
        np.testing.assert_array_equal(a.pm25, b.pm25)

    def test_values_match_truth_exactly(self):
        spec = quiet_spec(kappa_km2_h=0.5, initial_value=1.0,
                          sources=(tb.EmissionSource(10.0, 10.0, 5.0, "constant"),))
        truth = tb.simulate(spec)
        sample = tb.sample_stations(truth, count=6, seed=3)
        np.testing.assert_array_equal(sample.pm25,
                                      truth.concentrations[:, sample.cell_indices])
        np.testing.assert_array_equal(sample.emissions,
                                      truth.emissions[:, sample.cell_indices])

    def test_observation_noise_flag(self):
        # the stations read the truth exactly: no noise level can be set
        with pytest.raises(SchemaError, match=r"unknown keys \['observation_noise_sigma'\]$"):
            from_mapping(tb.ScenarioSpec, {"observation_noise_sigma": 0.5}, "scenario")

    def test_count_exceeding_cells_errors(self):
        truth = tb.simulate(quiet_spec(nx=3, ny=3, initial_value=1.0))
        with pytest.raises(tb.ScenarioError):
            tb.sample_stations(truth, count=10, seed=0)


class TestAod:
    def _truth(self):
        return tb.simulate(quiet_spec(
            nx=12, ny=12, t_hours=8, kappa_km2_h=0.5, initial_value=1.0,
            sources=(tb.EmissionSource(12.0, 12.0, 6.0, "constant"),)))

    def test_uncorrupted_equals_truth_with_full_mask(self):
        truth = self._truth()
        aod = tb.make_aod(truth, tb.AodSpec(cloud_fraction=0.0), seed=0)
        np.testing.assert_array_equal(aod.values, truth.concentrations)
        np.testing.assert_array_equal(aod.valid, np.ones_like(aod.valid))

    def test_full_clouds_mask_everything(self):
        truth = self._truth()
        aod = tb.make_aod(truth, tb.AodSpec(cloud_fraction=1.0), seed=0)
        np.testing.assert_array_equal(aod.valid, np.zeros_like(aod.valid))

    def test_biased_gradients_are_scaled_not_warped(self):
        # gain 3, offset 0.5: spatial differences are exactly 3x the truth's
        truth = self._truth()
        aod = tb.make_aod(truth, tb.AodSpec(cloud_fraction=0.0, gain_a=3.0,
                                            offset_b=0.5), seed=0)
        dv = aod.values[:, 1:] - aod.values[:, :-1]
        dc = truth.concentrations[:, 1:] - truth.concentrations[:, :-1]
        np.testing.assert_allclose(dv, 3.0 * dc, atol=1e-12)

    def test_inverted_field_flips_gradient_signs(self):
        truth = self._truth()
        aod = tb.make_aod(truth, tb.AodSpec(cloud_fraction=0.0, invert=True), seed=0)
        dv = aod.values[:, 1:] - aod.values[:, :-1]
        dc = truth.concentrations[:, 1:] - truth.concentrations[:, :-1]
        np.testing.assert_allclose(dv, -dc, atol=1e-12)

    def test_cloud_fraction_tracks_request(self):
        truth = tb.simulate(quiet_spec(nx=40, ny=40, t_hours=20, initial_value=1.0))
        aod = tb.make_aod(truth, tb.AodSpec(cloud_fraction=0.3), seed=5)
        masked = 1.0 - aod.valid.mean()
        assert abs(masked - 0.3) < 0.02

    def test_clouds_are_blobby_not_salt_and_pepper(self):
        # neighboring cells should usually share mask state
        truth = tb.simulate(quiet_spec(nx=30, ny=30, t_hours=6, initial_value=1.0))
        aod = tb.make_aod(truth, tb.AodSpec(cloud_fraction=0.5), seed=5)
        grid = aod.valid.reshape(6, 30, 30)
        agree = (grid[:, :, 1:] == grid[:, :, :-1]).mean()
        assert agree > 0.8

    def test_bad_cloud_fraction_errors(self):
        with pytest.raises(tb.ScenarioError):
            tb.AodSpec(cloud_fraction=1.5)


class TestPresetsAndRuns:
    def test_all_presets_load(self):
        for name in tb.PRESET_NAMES:
            spec = tb.scenario_preset(name)
            assert spec.n_cells >= spec.station_count

    def test_aod_missing_masks_all(self):
        assert tb.scenario_preset("aod-missing").aod.cloud_fraction == 1.0

    def test_aod_biased_parameters(self):
        spec = tb.scenario_preset("aod-biased")
        assert spec.aod.gain_a == 3.0 and spec.aod.offset_b == 0.5

    def test_unknown_preset_errors(self):
        with pytest.raises(tb.ScenarioError):
            tb.scenario_preset("nope")

    def test_run_scenario_deterministic(self):
        spec = tb.scenario_preset("aod-ideal")
        spec = tb.ScenarioSpec(**{**spec.__dict__, "t_hours": 12})
        a = tb.run_scenario(spec, seed=9)
        b = tb.run_scenario(spec, seed=9)
        np.testing.assert_array_equal(a.truth.concentrations, b.truth.concentrations)
        np.testing.assert_array_equal(a.stations.cell_indices, b.stations.cell_indices)
        np.testing.assert_array_equal(a.aod.values, b.aod.values)
        np.testing.assert_array_equal(a.aod.valid, b.aod.valid)

    def test_run_scenario_seed_changes_layout(self):
        spec = tb.ScenarioSpec(**{**tb.scenario_preset("aod-ideal").__dict__,
                                  "t_hours": 6})
        a = tb.run_scenario(spec, seed=1)
        b = tb.run_scenario(spec, seed=2)
        assert not np.array_equal(a.stations.cell_indices, b.stations.cell_indices)


class TestReferenceParity:
    """The pad-free integrator and the numpy cloud mask against the old code."""

    @pytest.mark.parametrize("boundary", tb.BOUNDARY_MODES)
    @pytest.mark.parametrize("u, v", [(7.3, 0.0), (-7.3, 0.0), (0.0, 5.1), (0.0, -5.1),
                                      (6.2, -3.9), (-4.4, 2.8), (0.0, 0.0)])
    def test_substep_equals_padded_reference(self, boundary, u, v):
        spec = quiet_spec(nx=9, ny=7, cell_km=1.7, kappa_km2_h=0.7, decay_per_h=0.08,
                          boundary=boundary)
        rng = np.random.default_rng(4)
        c = rng.uniform(0.0, 5.0, (spec.ny, spec.nx))
        emit = rng.uniform(0.0, 1.0, c.shape)
        buf = np.full((spec.ny + 2, spec.nx + 2), np.nan)  # stale ghosts must not leak in
        buf[1:-1, 1:-1] = c
        for _ in range(4):
            c = padded_substep(c, spec, 0.03, u, v, emit)
            tb._substep(buf, spec, 0.03, u, v, emit)
            assert_bitwise(buf[1:-1, 1:-1], c)

    @pytest.mark.parametrize("spec", [
        replace(tb.scenario_preset("s1-advection"), t_hours=8),
        replace(tb.scenario_preset("aod-ideal"), t_hours=8),
        quiet_spec(nx=12, ny=9, t_hours=8, wind_regime="rotating", wind_speed_ms=2.0,
                   kappa_km2_h=0.6, initial_value=1.0, boundary="closed",
                   sources=(tb.EmissionSource(6.0, 6.0, 4.0, "diurnal"),)),
    ])
    def test_truth_equals_padded_reference(self, spec):
        substeps = tb._required_substeps(spec)
        raster = spec.emission_raster()
        c = np.full((spec.ny, spec.nx), spec.initial_value)
        expected = []
        for hour, (u, v) in enumerate(spec.wind_series() * tb._MS_TO_KMH):
            emit = raster[hour].reshape(spec.ny, spec.nx)
            for _ in range(substeps):
                c = padded_substep(c, spec, 1.0 / substeps, u, v, emit)
                if c.min() < 0.0:
                    c = np.maximum(c, 0.0)
            expected.append(c.ravel())
        assert_bitwise(tb.simulate(spec).concentrations, np.array(expected))

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (3, 3), (2, 2), (9, 17),
                                       (20, 20), (40, 40)])
    def test_cloud_smoother_equals_ndimage(self, shape):
        noise = np.random.default_rng(sum(shape)).standard_normal((6, *shape))
        expected = np.stack([gaussian_filter(f, sigma=2.0, mode="reflect") for f in noise])
        assert_bitwise(tb._smooth_clouds(noise), expected)

    @pytest.mark.parametrize("preset", tb.PRESET_NAMES)
    @pytest.mark.parametrize("cloud_fraction", [0.0, 0.05, 0.2, 0.5, 0.97, 1.0])
    def test_make_aod_equals_per_hour_reference(self, preset, cloud_fraction):
        spec = replace(tb.scenario_preset(preset), t_hours=6)
        truth = tb.simulate(spec)
        corruption = replace(spec.aod, cloud_fraction=cloud_fraction)
        for seed in (0, 7):
            aod = tb.make_aod(truth, corruption, seed)
            expected = per_hour_make_aod(truth, corruption, seed)
            assert_bitwise(aod.values, expected.values)
            assert_bitwise(aod.valid, expected.valid)
