"""Synthetic advection-diffusion testbed.

Generates ground-truth pollution fields on a planar grid by explicit
finite differences, then derives everything the pipeline consumes:
station samples with meteorology and emission channels, and satellite-like
column proxies with cloud gaps and retrieval bias.

The scheme is flux-form upwind advection plus a mirrored-edge 5-point
Laplacian.  Boundaries come in two modes: 'open' applies zero-gradient
ghost cells, so wind carries mass out at outflow edges; 'closed' zeroes
every boundary flux, so with zero decay total mass changes only by source
injections.  Each recorded hour is integrated in the fewest substeps that
keep every cell's outflow below its budget, which also meets both CFL
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import PRESET_NAMES, DataError
from .graphs import NodeSet, grid_centers


class ScenarioError(DataError, ValueError):
    """Scenario configuration is invalid or unstable."""


WIND_REGIMES = ("constant", "rotating", "reversing")
SOURCE_SCHEDULES = ("constant", "diurnal", "burst")
BOUNDARY_MODES = ("open", "closed")

# Stability margins for the explicit scheme (dt in hours, dx in km):
#   advection: max|wind| * dt / dx <= CFL_ADVECTION
#   diffusion: kappa * dt / dx^2 <= CFL_DIFFUSION
CFL_ADVECTION = 0.9
CFL_DIFFUSION = 0.25
# A stricter bound that the substep count must also meet: the total
# outflow fraction of any cell per substep stays below 1, which keeps
# concentrations non-negative without clamping.
_POSITIVITY_BUDGET = 0.9
# The most substeps per hour a run may take; s1-advection needs 10. Its 240
# hours at this ceiling take about 11 s on one core, while finite but huge
# rates (wind_speed_ms 1e6, decay_per_h 1e308) would step for days or more.
MAX_SUBSTEPS = 1000

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

    The proxy is gain_a * concentration + offset_b, then cloud-masked at
    the requested coverage; invert flips high and low values per timestep
    to manufacture conflicting spatial structure.
    """

    cloud_fraction: float = 0.2
    gain_a: float = 1.0
    offset_b: float = 0.0
    invert: bool = False

    def __post_init__(self):
        if not 0.0 <= self.cloud_fraction <= 1.0:
            raise ScenarioError(
                f"cloud_fraction must be in [0, 1], got {self.cloud_fraction}")


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
    initial_value: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ScenarioError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if self.cell_km <= 0:
            raise ScenarioError(f"cell_km must be positive, got {self.cell_km}")
        if self.cell_km * self.cell_km == 0.0:  # the diffusion bounds divide by it
            raise ScenarioError(f"cell_km {self.cell_km} is too small: its square is 0")
        if self.t_hours < 1:
            raise ScenarioError(f"t_hours must be >= 1, got {self.t_hours}")
        if self.layout_seed < 0:
            raise ScenarioError(f"layout_seed must be >= 0, got {self.layout_seed}")
        if self.wind_regime not in WIND_REGIMES:
            raise ScenarioError(
                f"unknown wind regime '{self.wind_regime}', expected one of {WIND_REGIMES}")
        if self.kappa_km2_h < 0 or self.decay_per_h < 0 or self.background_rate < 0:
            raise ScenarioError("kappa, decay and background_rate must be >= 0")
        if not 1 <= self.station_count <= self.nx * self.ny:
            raise ScenarioError(
                f"station_count must be in [1, {self.nx * self.ny}], got {self.station_count}")
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
            # clamped before int(), which cannot take the inf of a far source
            ix = int(min(max(src.x_km / self.cell_km, 0.0), self.nx - 1))
            iy = int(min(max(src.y_km / self.cell_km, 0.0), self.ny - 1))
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
    """Smallest substep count keeping every cell's outflow below budget.

    Raises:
        ScenarioError: the rates overflow float64, so no count is enough,
            or the count exceeds MAX_SUBSTEPS.
    """
    dx = spec.cell_km
    with np.errstate(over="ignore"):  # a speed that overflows to inf is reported below
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
    rates = (f"wind_speed_ms {spec.wind_speed_ms}, kappa_km2_h {spec.kappa_km2_h}, "
             f"decay_per_h {spec.decay_per_h} and cell_km {dx}")
    if not math.isfinite(needed):
        raise ScenarioError(f"no finite number of substeps is stable for {rates}")
    count = int(math.ceil(needed - 1e-12))
    if count > MAX_SUBSTEPS:
        raise ScenarioError(f"{rates} need {count:.3g} substeps per hour, "
                            f"more than the {MAX_SUBSTEPS} allowed")
    return count


def _substep(buf: np.ndarray, spec: ScenarioSpec, dt: float,
             u_kmh: float, v_kmh: float, emit: np.ndarray) -> None:
    """Advance the state, the interior of the (ny+2, nx+2) ``buf``, by dt hours.

    The edge strips are refreshed from the interior first, so the ghost
    cells extend it by zero gradient. The Laplacian then has zero flux
    across domain edges. Upwind face fluxes in open mode drain the domain
    at outflow edges; closed mode zeroes the boundary-face fluxes, leaving
    sources and decay as the only mass terms.
    """
    buf[0, 1:-1] = buf[1, 1:-1]
    buf[-1, 1:-1] = buf[-2, 1:-1]
    buf[1:-1, 0] = buf[1:-1, 1]
    buf[1:-1, -1] = buf[1:-1, -2]
    c = buf[1:-1, 1:-1]
    dx = spec.cell_km
    closed = spec.boundary == "closed"
    laplacian = (buf[:-2, 1:-1] + buf[2:, 1:-1] + buf[1:-1, :-2] + buf[1:-1, 2:]
                 - 4.0 * c) / (dx * dx)
    div = np.zeros_like(c)  # -div(v C)
    if u_kmh != 0.0:
        flux = u_kmh * (buf[1:-1, :-1] if u_kmh > 0 else buf[1:-1, 1:])  # one per face
        if closed:
            flux[:, 0] = 0.0
            flux[:, -1] = 0.0
        div += (flux[:, :-1] - flux[:, 1:]) / dx
    if v_kmh != 0.0:
        flux = v_kmh * (buf[:-1, 1:-1] if v_kmh > 0 else buf[1:, 1:-1])
        if closed:
            flux[0, :] = 0.0
            flux[-1, :] = 0.0
        div += (flux[:-1, :] - flux[1:, :]) / dx
    c += dt * (spec.kappa_km2_h * laplacian + div + emit - spec.decay_per_h * c)


def simulate(spec: ScenarioSpec) -> TruthField:
    """Integrate the scenario and record the state after each hour.

    Raises:
        ScenarioError: the rates need more than MAX_SUBSTEPS (checked
            before any stepping).
    """
    substeps = _required_substeps(spec)
    dt = 1.0 / substeps
    wind_ms = spec.wind_series()
    raster = spec.emission_raster()
    # the state plus one ghost cell on every side, which _substep refreshes
    buf = np.full((spec.ny + 2, spec.nx + 2), float(spec.initial_value))
    c = buf[1:-1, 1:-1]
    recorded = np.empty((spec.t_hours, spec.n_cells))

    for hour in range(spec.t_hours):
        u_kmh, v_kmh = wind_ms[hour] * _MS_TO_KMH
        emit = raster[hour].reshape(spec.ny, spec.nx)
        for _ in range(substeps):
            _substep(buf, spec, dt, u_kmh, v_kmh, emit)
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
                    seed: int | np.random.SeedSequence) -> StationSample:
    """Place stations at distinct random cells and read their series.

    The sampled pollution equals the truth at those cells exactly.
    """
    if count > truth.n_cells:
        raise ScenarioError(f"station count {count} exceeds {truth.n_cells} cells")
    if count < 1:
        raise ScenarioError("station count must be >= 1")
    rng = np.random.default_rng(seed)
    cells = np.sort(rng.choice(truth.n_cells, size=count, replace=False))
    positions = truth.cell_positions()[cells]
    return StationSample(cell_indices=cells, nodes=NodeSet(positions),
                         wind=truth.wind[:, cells, :].copy(),
                         emissions=truth.emissions[:, cells].copy(),
                         pm25=truth.concentrations[:, cells].copy())


# The cloud smoother: a Gaussian of sigma 2 cells truncated at 4 sigma, with
# the half-sample-symmetric edges of scipy.ndimage's "reflect" mode.
_CLOUD_SMOOTH_CELLS = 2.0
_CLOUD_RADIUS = int(4.0 * _CLOUD_SMOOTH_CELLS + 0.5)


def _smooth_last_axis(fields: np.ndarray) -> np.ndarray:
    """Gaussian-smooth along the last axis, in ndimage's summation order.

    For a symmetric kernel that order is x[i] * w[0], then
    (x[i - j] + x[i + j]) * w[j] added for j = radius down to 1, so the
    result is bitwise that of ``gaussian_filter1d(mode="reflect")``.
    """
    r, n = _CLOUD_RADIUS, fields.shape[-1]
    phi = np.exp(-0.5 / (_CLOUD_SMOOTH_CELLS * _CLOUD_SMOOTH_CELLS) * np.arange(-r, r + 1) ** 2)
    weights = (phi / phi.sum())[r:]  # at offsets 0..r, as ndimage computes them
    padded = np.pad(fields, [(0, 0)] * (fields.ndim - 1) + [(r, r)], mode="symmetric")
    out = padded[..., r:r + n] * weights[0]
    for j in range(r, 0, -1):
        out += (padded[..., r - j:r - j + n] + padded[..., r + j:r + j + n]) * weights[j]
    return out


def _smooth_clouds(noise: np.ndarray) -> np.ndarray:
    """(T, ny, nx) noise smoothed hour by hour, along y and then along x."""
    return _smooth_last_axis(_smooth_last_axis(noise.swapaxes(1, 2)).swapaxes(1, 2))


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
    if corruption.invert:
        per_t_max = values.max(axis=1, keepdims=True)
        per_t_min = values.min(axis=1, keepdims=True)
        values = per_t_max + per_t_min - values
    cf = corruption.cloud_fraction
    if cf >= 1.0:
        valid = np.zeros((t, n))
    else:
        smooth = _smooth_clouds(rng.standard_normal((t, truth.ny, truth.nx))).reshape(t, n)
        cut = np.quantile(smooth, cf, axis=1)
        valid = (smooth >= cut[:, None]).astype(np.float64)
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
    stations = sample_stations(truth, spec.station_count, seed=station_seed)
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
    )


# the aod-* presets: their AodSpec fields that differ from _aod_base's
_AOD_PRESETS = {"aod-ideal": {}, "aod-missing": {"cloud_fraction": 1.0},
                "aod-conflict": {"invert": True}, "aod-biased": {"gain_a": 3.0, "offset_b": 0.5}}


def scenario_preset(name: str) -> ScenarioSpec:
    """Named scenario presets.

    s1-advection: the main benchmark.  The aod-* family varies only the
    proxy corruption: ideal (light clouds), missing (fully masked),
    conflict (spatially inverted values), biased (gain 3, offset 0.5).
    """
    if name == "s1-advection":
        return _s1_spec()
    if name in _AOD_PRESETS:
        base = _aod_base()
        return replace(base, aod=replace(base.aod, **_AOD_PRESETS[name]))
    raise ScenarioError(
        f"unknown preset '{name}', expected one of {sorted(PRESET_NAMES)}")
