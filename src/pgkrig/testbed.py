"""Synthetic advection-diffusion testbed.

Generates ground-truth pollution fields on a planar grid by explicit
finite differences, then derives everything the pipeline consumes:
station samples with meteorology and emission channels, and satellite-like
column proxies with cloud gaps and retrieval bias.

The scheme is flux-form upwind advection plus a mirrored-edge 5-point
Laplacian.  Boundaries come in two modes: 'open' applies zero-gradient
ghost cells, so wind carries mass out at outflow edges; 'closed' zeroes
every boundary flux, so with zero decay total mass changes only by source
injections.  Each recorded hour is integrated in substeps small enough
for stability; explicitly configured substeps are validated against the
CFL bounds before stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import NodeSet, grid_centers


class ScenarioError(ValueError):
    """Scenario configuration is invalid or unstable."""


WIND_REGIMES = ("constant", "rotating", "reversing")
SOURCE_SCHEDULES = ("constant", "diurnal", "burst")
BOUNDARY_MODES = ("open", "closed")

# Stability margins for the explicit scheme (dt in hours, dx in km):
#   advection: max|wind| * dt / dx <= CFL_ADVECTION
#   diffusion: kappa * dt / dx^2 <= CFL_DIFFUSION
CFL_ADVECTION = 0.9
CFL_DIFFUSION = 0.25
# Stricter bound used when substeps are chosen automatically: the total
# outflow fraction of any cell per substep stays below 1, which keeps
# concentrations non-negative without clamping.
_POSITIVITY_BUDGET = 0.9

_MS_TO_KMH = 3.6


@dataclass(frozen=True)
class EmissionSource:
    """Point emission rasterized to its nearest cell.

    rate_per_h is in concentration units per hour; schedule modulates it:
    'constant' holds it, 'diurnal' applies 0.5*(1 + sin(2*pi*hour/24)),
    'burst' emits only during recorded hour 0.
    """

    x_km: float
    y_km: float
    rate_per_h: float
    schedule: str = "constant"

    def __post_init__(self):
        if self.schedule not in SOURCE_SCHEDULES:
            raise ScenarioError(
                f"unknown schedule '{self.schedule}', expected one of {SOURCE_SCHEDULES}")
        if self.rate_per_h < 0:
            raise ScenarioError(f"source rate must be >= 0, got {self.rate_per_h}")

    def factor(self, hour: int) -> float:
        if self.schedule == "constant":
            return 1.0
        if self.schedule == "diurnal":
            return 0.5 * (1.0 + math.sin(2.0 * math.pi * hour / 24.0))
        return 1.0 if hour == 0 else 0.0


@dataclass(frozen=True)
class AodSpec:
    """Corruption model for the column proxy.

    The proxy is gain_a * concentration + offset_b + gaussian noise, then
    cloud-masked at the requested coverage; invert flips high and low
    values per timestep to manufacture conflicting spatial structure.
    """

    cloud_fraction: float = 0.2
    gain_a: float = 1.0
    offset_b: float = 0.0
    noise_sigma: float = 0.0
    invert: bool = False

    def __post_init__(self):
        if not 0.0 <= self.cloud_fraction <= 1.0:
            raise ScenarioError(
                f"cloud_fraction must be in [0, 1], got {self.cloud_fraction}")
        if self.noise_sigma < 0:
            raise ScenarioError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one synthetic experiment.

    Cells are indexed row-major: cell = iy * nx + ix, centers at
    ((ix + 0.5) * cell_km, (iy + 0.5) * cell_km).
    """

    nx: int = 20
    ny: int = 20
    cell_km: float = 2.0
    t_hours: int = 240
    wind_regime: str = "constant"
    wind_speed_ms: float = 3.0
    wind_direction_deg: float = 0.0  # direction of travel, CCW from +x
    kappa_km2_h: float = 0.8
    decay_per_h: float = 0.06
    background_rate: float = 0.4
    sources: tuple[EmissionSource, ...] = ()
    station_count: int = 40
    layout_seed: int = 7
    aod: AodSpec = field(default_factory=AodSpec)
    substeps_per_hour: int | None = None
    observation_noise_sigma: float = 0.0
    initial_value: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ScenarioError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if self.cell_km <= 0:
            raise ScenarioError(f"cell_km must be positive, got {self.cell_km}")
        if self.t_hours < 1:
            raise ScenarioError(f"t_hours must be >= 1, got {self.t_hours}")
        if self.wind_regime not in WIND_REGIMES:
            raise ScenarioError(
                f"unknown wind regime '{self.wind_regime}', expected one of {WIND_REGIMES}")
        if self.kappa_km2_h < 0 or self.decay_per_h < 0 or self.background_rate < 0:
            raise ScenarioError("kappa, decay and background_rate must be >= 0")
        if not 1 <= self.station_count <= self.nx * self.ny:
            raise ScenarioError(
                f"station_count must be in [1, {self.nx * self.ny}], got {self.station_count}")
        if self.substeps_per_hour is not None and self.substeps_per_hour < 1:
            raise ScenarioError("substeps_per_hour must be >= 1 when given")
        if self.boundary not in BOUNDARY_MODES:
            raise ScenarioError(
                f"unknown boundary mode '{self.boundary}', expected one of {BOUNDARY_MODES}")
        object.__setattr__(self, "sources", tuple(self.sources))

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def wind_series(self) -> np.ndarray:
        """Spatially uniform (T, 2) wind in m/s for the recorded hours."""
        hours = np.arange(self.t_hours)
        base = math.radians(self.wind_direction_deg)
        if self.wind_regime == "constant":
            angle = np.full(self.t_hours, base)
        elif self.wind_regime == "rotating":
            angle = base + 2.0 * math.pi * hours / self.t_hours
        else:  # reversing at the half-way point
            angle = np.where(hours < self.t_hours / 2.0, base, base + math.pi)
        return self.wind_speed_ms * np.stack([np.cos(angle), np.sin(angle)], axis=1)

    def emission_raster(self) -> np.ndarray:
        """(T, n_cells) emission rates in concentration/h."""
        raster = np.full((self.t_hours, self.n_cells), float(self.background_rate))
        for src in self.sources:
            ix = min(max(int(src.x_km / self.cell_km), 0), self.nx - 1)
            iy = min(max(int(src.y_km / self.cell_km), 0), self.ny - 1)
            cell = iy * self.nx + ix
            for hour in range(self.t_hours):
                raster[hour, cell] += src.rate_per_h * src.factor(hour)
        return raster


@dataclass(frozen=True)
class TruthField:
    """Simulated ground truth: concentrations plus the driving fields."""

    concentrations: np.ndarray  # (T, n_cells), >= 0, finite
    wind: np.ndarray  # (T, n_cells, 2) m/s
    emissions: np.ndarray  # (T, n_cells) concentration/h
    nx: int
    ny: int
    cell_km: float

    @property
    def t_hours(self) -> int:
        return self.concentrations.shape[0]

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_positions(self) -> np.ndarray:
        return grid_centers(self.nx, self.ny, self.cell_km)


@dataclass(frozen=True)
class StationSample:
    """Per-station series drawn from a truth field."""

    cell_indices: np.ndarray  # (K,) cells hosting a station
    nodes: NodeSet  # station positions, ids 0..K-1 aligned with columns
    wind: np.ndarray  # (T, K, 2) m/s
    emissions: np.ndarray  # (T, K)
    pm25: np.ndarray  # (T, K)


@dataclass(frozen=True)
class AodField:
    """Column proxy on the full grid with a validity mask (1 = clear sky)."""

    values: np.ndarray  # (T, n_cells)
    valid: np.ndarray  # (T, n_cells) float 0/1


def _required_substeps(spec: ScenarioSpec) -> int:
    """Smallest substep count keeping every cell's outflow below budget."""
    dx = spec.cell_km
    wind = spec.wind_series() * _MS_TO_KMH  # km/h
    l1_speed = float(np.max(np.abs(wind).sum(axis=1))) if wind.size else 0.0
    speed = float(np.max(np.linalg.norm(wind, axis=1))) if wind.size else 0.0
    needed = 1.0
    if speed > 0:
        needed = max(needed, speed / (CFL_ADVECTION * dx))
    if spec.kappa_km2_h > 0:
        needed = max(needed, spec.kappa_km2_h / (CFL_DIFFUSION * dx * dx))
    # positivity: advective + diffusive outflow fractions must not exceed 1
    outflow = l1_speed / dx + 4.0 * spec.kappa_km2_h / (dx * dx) + spec.decay_per_h
    if outflow > 0:
        needed = max(needed, outflow / _POSITIVITY_BUDGET)
    return int(math.ceil(needed - 1e-12))


def _check_cfl(spec: ScenarioSpec, substeps: int) -> None:
    dx = spec.cell_km
    dt = 1.0 / substeps
    wind = spec.wind_series() * _MS_TO_KMH
    speed = float(np.max(np.linalg.norm(wind, axis=1))) if wind.size else 0.0
    if speed * dt / dx > CFL_ADVECTION + 1e-12:
        raise ScenarioError(
            f"CFL violation: max wind {speed:.3f} km/h at dt={dt:.4f} h, dx={dx} km "
            f"gives {speed * dt / dx:.3f} > {CFL_ADVECTION}")
    if spec.kappa_km2_h * dt / (dx * dx) > CFL_DIFFUSION + 1e-12:
        raise ScenarioError(
            f"CFL violation: kappa {spec.kappa_km2_h} km^2/h at dt={dt:.4f} h, dx={dx} km "
            f"gives {spec.kappa_km2_h * dt / (dx * dx):.3f} > {CFL_DIFFUSION}")


def _laplacian(c: np.ndarray, dx: float) -> np.ndarray:
    """Mirror-padded 5-point Laplacian: zero flux across domain edges."""
    p = np.pad(c, 1, mode="edge")
    return (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * c) / (dx * dx)


def _advection_divergence(c: np.ndarray, u_kmh: float, v_kmh: float, dx: float,
                          closed: bool) -> np.ndarray:
    """-div(v C) by upwind face fluxes.

    Open mode fills ghost cells by zero-gradient extension, so outflow
    faces drain the domain; closed mode zeroes the boundary-face fluxes,
    leaving sources and decay as the only mass terms.
    """
    div = np.zeros_like(c)
    if u_kmh != 0.0:
        p = np.pad(c, ((0, 0), (1, 1)), mode="edge")
        flux = u_kmh * (p[:, :-1] if u_kmh > 0 else p[:, 1:])  # one per face
        if closed:
            flux[:, 0] = 0.0
            flux[:, -1] = 0.0
        div += (flux[:, :-1] - flux[:, 1:]) / dx
    if v_kmh != 0.0:
        p = np.pad(c, ((1, 1), (0, 0)), mode="edge")
        flux = v_kmh * (p[:-1, :] if v_kmh > 0 else p[1:, :])
        if closed:
            flux[0, :] = 0.0
            flux[-1, :] = 0.0
        div += (flux[:-1, :] - flux[1:, :]) / dx
    return div


def simulate(spec: ScenarioSpec) -> TruthField:
    """Integrate the scenario and record the state after each hour.

    Raises:
        ScenarioError: explicitly configured substeps violate the CFL
            bounds (checked before any stepping).
    """
    substeps = spec.substeps_per_hour or _required_substeps(spec)
    _check_cfl(spec, substeps)

    dt = 1.0 / substeps
    dx = spec.cell_km
    wind_ms = spec.wind_series()
    raster = spec.emission_raster()
    c = np.full((spec.ny, spec.nx), float(spec.initial_value))
    recorded = np.empty((spec.t_hours, spec.n_cells))

    closed = spec.boundary == "closed"
    for hour in range(spec.t_hours):
        u_kmh, v_kmh = wind_ms[hour] * _MS_TO_KMH
        emit = raster[hour].reshape(spec.ny, spec.nx)
        for _ in range(substeps):
            rate = (spec.kappa_km2_h * _laplacian(c, dx)
                    + _advection_divergence(c, u_kmh, v_kmh, dx, closed)
                    + emit - spec.decay_per_h * c)
            c = c + dt * rate
            low = c.min()
            if low < -1e-9 * max(1.0, abs(c.max())):
                raise ScenarioError(
                    f"concentration went negative ({low:.3e}) at hour {hour}: "
                    "scheme unstable for this configuration")
            if low < 0.0:
                np.maximum(c, 0.0, out=c)  # shave float-rounding dust only
        recorded[hour] = c.ravel()

    if not np.all(np.isfinite(recorded)):
        raise ScenarioError("simulation produced non-finite concentrations")
    wind_cells = np.repeat(wind_ms[:, None, :], spec.n_cells, axis=1)
    return TruthField(concentrations=recorded, wind=wind_cells, emissions=raster,
                      nx=spec.nx, ny=spec.ny, cell_km=spec.cell_km)


def sample_stations(truth: TruthField, count: int,
                    seed: int | np.random.SeedSequence,
                    noise_sigma: float = 0.0) -> StationSample:
    """Place stations at distinct random cells and read their series.

    With the default noise_sigma 0 the sampled pollution equals the truth
    at those cells exactly.
    """
    if count > truth.n_cells:
        raise ScenarioError(f"station count {count} exceeds {truth.n_cells} cells")
    if count < 1:
        raise ScenarioError("station count must be >= 1")
    rng = np.random.default_rng(seed)
    cells = np.sort(rng.choice(truth.n_cells, size=count, replace=False))
    positions = truth.cell_positions()[cells]
    pm25 = truth.concentrations[:, cells].copy()
    if noise_sigma > 0.0:
        pm25 = pm25 + rng.normal(0.0, noise_sigma, size=pm25.shape)
    return StationSample(cell_indices=cells, nodes=NodeSet(positions),
                         wind=truth.wind[:, cells, :].copy(),
                         emissions=truth.emissions[:, cells].copy(), pm25=pm25)


_CLOUD_SMOOTH_CELLS = 2.0


def make_aod(truth: TruthField, corruption: AodSpec,
             seed: int | np.random.SeedSequence) -> AodField:
    """Build the column proxy: affine map, optional inversion, cloud gaps.

    Cloud masks are smoothed white-noise fields thresholded at the
    requested coverage quantile per timestep, so the masked fraction
    tracks cloud_fraction exactly up to grid quantization.
    """
    rng = np.random.default_rng(seed)
    t, n = truth.concentrations.shape
    values = corruption.gain_a * truth.concentrations + corruption.offset_b
    if corruption.noise_sigma > 0.0:
        values = values + rng.normal(0.0, corruption.noise_sigma, size=values.shape)
    if corruption.invert:
        per_t_max = values.max(axis=1, keepdims=True)
        per_t_min = values.min(axis=1, keepdims=True)
        values = per_t_max + per_t_min - values
    valid = np.ones((t, n))
    cf = corruption.cloud_fraction
    if cf >= 1.0:
        valid[:] = 0.0
    elif cf > 0.0:
        # Imported here: it costs ~0.09 s and only simulate draws clouds.
        from scipy.ndimage import gaussian_filter

        for step in range(t):
            noise = rng.standard_normal((truth.ny, truth.nx))
            smooth = gaussian_filter(noise, sigma=_CLOUD_SMOOTH_CELLS, mode="reflect")
            cut = np.quantile(smooth, cf)
            valid[step] = (smooth >= cut).ravel().astype(np.float64)
    return AodField(values=values, valid=valid)


@dataclass(frozen=True)
class ScenarioRun:
    """Everything one seeded scenario produces."""

    spec: ScenarioSpec
    truth: TruthField
    stations: StationSample
    aod: AodField


def run_scenario(spec: ScenarioSpec, seed: int | None = None) -> ScenarioRun:
    """Simulate, sample stations and build the proxy from one master seed.

    The master seed defaults to the scenario's layout_seed; station
    placement and proxy corruption use independent child streams.
    """
    master = spec.layout_seed if seed is None else int(seed)
    station_seed, aod_seed = np.random.SeedSequence(master).spawn(2)
    truth = simulate(spec)
    stations = sample_stations(truth, spec.station_count, seed=station_seed,
                               noise_sigma=spec.observation_noise_sigma)
    aod = make_aod(truth, spec.aod, seed=aod_seed)
    return ScenarioRun(spec=spec, truth=truth, stations=stations, aod=aod)


# -- presets -----------------------------------------------------------


def _s1_spec() -> ScenarioSpec:
    """Advection-dominant benchmark: steady ENE transport, mixed source field.

    Five sources span the upwind band and mid-domain so plumes cross both
    halves of the grid; kappa and decay are set so plume ridges survive the
    full fetch (decay lifetime 20 h at 3 m/s covers 60 km).
    """
    return ScenarioSpec(
        nx=20, ny=20, cell_km=2.0, t_hours=240,
        wind_regime="constant", wind_speed_ms=3.0, wind_direction_deg=25.0,
        kappa_km2_h=1.2, decay_per_h=0.05, background_rate=0.15,
        sources=(
            EmissionSource(x_km=6.0, y_km=10.0, rate_per_h=12.0, schedule="diurnal"),
            EmissionSource(x_km=10.0, y_km=22.0, rate_per_h=9.0, schedule="constant"),
            EmissionSource(x_km=5.0, y_km=30.0, rate_per_h=11.0, schedule="diurnal"),
            EmissionSource(x_km=22.0, y_km=14.0, rate_per_h=10.0, schedule="constant"),
            EmissionSource(x_km=16.0, y_km=34.0, rate_per_h=8.0, schedule="diurnal"),
        ),
        station_count=40, layout_seed=7,
        aod=AodSpec(cloud_fraction=0.2, gain_a=1.0, offset_b=0.0, noise_sigma=0.0),
    )


def _aod_base() -> ScenarioSpec:
    """Smaller grid used by the proxy-robustness scenario family."""
    return ScenarioSpec(
        nx=16, ny=16, cell_km=2.0, t_hours=144,
        wind_regime="constant", wind_speed_ms=2.5, wind_direction_deg=0.0,
        kappa_km2_h=0.8, decay_per_h=0.06, background_rate=0.4,
        sources=(
            EmissionSource(x_km=5.0, y_km=8.0, rate_per_h=10.0, schedule="diurnal"),
            EmissionSource(x_km=8.0, y_km=22.0, rate_per_h=8.0, schedule="constant"),
        ),
        station_count=32, layout_seed=11,
        aod=AodSpec(cloud_fraction=0.2, gain_a=1.0, offset_b=0.0, noise_sigma=0.0),
    )


def scenario_preset(name: str) -> ScenarioSpec:
    """Named scenario presets.

    s1-advection: the main benchmark.  The aod-* family varies only the
    proxy corruption: ideal (light clouds), missing (fully masked),
    conflict (spatially inverted values), biased (gain 3, offset 0.5).
    """
    if name == "s1-advection":
        return _s1_spec()
    if name == "aod-ideal":
        return _aod_base()
    if name == "aod-missing":
        base = _aod_base()
        return replace(base, aod=replace(base.aod, cloud_fraction=1.0))
    if name == "aod-conflict":
        base = _aod_base()
        return replace(base, aod=replace(base.aod, invert=True))
    if name == "aod-biased":
        base = _aod_base()
        return replace(base, aod=replace(base.aod, gain_a=3.0, offset_b=0.5))
    raise ScenarioError(
        f"unknown preset '{name}', expected one of {sorted(PRESET_NAMES)}")


PRESET_NAMES = ("s1-advection", "aod-ideal", "aod-missing", "aod-conflict", "aod-biased")


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Builds a ScenarioSpec from plain nested mappings.

    Mirrors the dataclass fields: `sources` is a list of mappings with
    EmissionSource fields, `aod` a mapping with AodSpec fields.  Unknown
    keys raise ScenarioError so typos in scenario files fail loudly.

    Args:
        data: Mapping of ScenarioSpec field names to values.

    Returns:
        The validated ScenarioSpec.
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario must be a mapping, got {type(data).__name__}")
    fields = dict(data)
    raw_sources = fields.pop("sources", [])
    raw_aod = fields.pop("aod", {})
    if not isinstance(raw_sources, (list, tuple)):
        raise ScenarioError("scenario 'sources' must be a list of mappings")
    if not isinstance(raw_aod, dict):
        raise ScenarioError("scenario 'aod' must be a mapping")
    try:
        sources = tuple(EmissionSource(**src) for src in raw_sources)
        aod = AodSpec(**raw_aod)
        return ScenarioSpec(sources=sources, aod=aod, **fields)
    except TypeError as exc:
        raise ScenarioError(f"bad scenario field: {exc}") from exc
