"""Inductive node-masking training: splits, loop, and inference entry points.

The protocol: hold out a seeded fraction of stations entirely (they never
enter the training graph), split time chronologically, and train on
24-hour windows where a fresh random subset of the remaining stations is
masked out and reconstructed. Inference then generalizes to nodes the
model has never seen because no parameter depends on the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .graphs import (DEFAULT_THRESHOLD_KM, AdvectionOperator, DiffusionOperator, NodeSet,
                     advection_sequence, build_diffusion_operator, build_geo_adjacency)
from .losses import (LossWeights, aod_gradient_loss, composite_loss,
                     count_valid_edge_terms, edges_from_adjacency, infer_loss, init_loss)
from .metrics import MetricError, mae, r2, rmse
from .network import CHANNELS, KrigingModel, ModelConfig, make_node_series
from .testbed import ScenarioRun


class ConfigError(ValueError):
    """A training configuration or split is inconsistent with the data."""


class TrainError(RuntimeError):
    """Training aborted on a numeric failure; message carries epoch/batch."""


# ---------------------------------------------------------------------------
# masking partitions


@dataclass(frozen=True)
class MaskPartition:
    """One observed/target split of the training stations."""

    observed: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        observed = np.asarray(self.observed, dtype=np.int64)
        target = np.asarray(self.target, dtype=np.int64)
        if observed.size == 0 or target.size == 0:
            raise ConfigError("both sides of a partition must be non-empty")
        combined = np.concatenate([observed, target])
        if len(np.unique(combined)) != combined.size:
            raise ConfigError("observed and target sets must be disjoint")
        object.__setattr__(self, "observed", np.sort(observed))
        object.__setattr__(self, "target", np.sort(target))


def sample_partition(node_ids: np.ndarray, mask_ratio: float,
                     rng: np.random.Generator) -> MaskPartition:
    """Uniform random observed/target split; |target| = floor(N * ratio).

    Args:
        node_ids: ids eligible for masking.
        mask_ratio: fraction of nodes hidden as targets, in (0, 1).
        rng: source of the draw; a fresh draw every call.

    Returns:
        MaskPartition with both sides sorted.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    n = node_ids.size
    if n < 2:
        raise ConfigError(f"need at least 2 nodes to partition, got {n}")
    k = math.floor(n * mask_ratio)
    if k == 0 or k == n:
        raise ConfigError(
            f"mask_ratio {mask_ratio} empties one side of a {n}-node partition")
    perm = rng.permutation(node_ids)
    return MaskPartition(observed=perm[k:], target=perm[:k])


def jittered_ratio(mask_ratio: float, jitter: float, n: int,
                   rng: np.random.Generator) -> float:
    """Per-batch mask ratio: a uniform draw from mask_ratio +- jitter.

    The draw is clipped so that a partition of `n` nodes keeps at least one
    node on each side. The lower clip sits one ulp above 1/n: at 1/n itself,
    n * (1/n) rounds below 1 for some n (49, 98, 103, ...), and floor then
    gives no target.
    """
    return float(np.clip(rng.uniform(mask_ratio - jitter, mask_ratio + jitter),
                         np.nextafter(1.0 / n, 1.0), 1.0 - 1e-9))


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitSpec:
    """Chronological time ranges plus the station hold-out draw."""

    train_range: tuple[int, int]
    val_range: tuple[int, int]
    test_range: tuple[int, int]
    holdout_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name, (start, end) in (("train", self.train_range),
                                   ("val", self.val_range),
                                   ("test", self.test_range)):
            if start < 0 or end < start:
                raise ConfigError(f"{name}_range {(start, end)} is not a valid range")
        if self.train_range[0] >= self.train_range[1]:
            raise ConfigError(f"train_range {self.train_range} is empty")
        if self.val_range[0] >= self.val_range[1]:
            raise ConfigError(f"val_range {self.val_range} is empty")
        if self.train_range[1] > self.val_range[0]:
            raise ConfigError("train range must end before the validation range")
        if self.val_range[1] > self.test_range[0]:
            raise ConfigError("validation range must end before the test range")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction {self.holdout_fraction} not in [0, 1)")


def split_from_fractions(t_hours: int, train_fraction: float = 0.7,
                         val_fraction: float = 0.15, holdout_fraction: float = 0.3,
                         seed: int = 0) -> SplitSpec:
    """Carve [0, T) chronologically into train/val/test by fractions."""
    if t_hours < 3:
        raise ConfigError(f"need at least 3 hours to split, got {t_hours}")
    if train_fraction <= 0 or val_fraction <= 0 or train_fraction + val_fraction >= 1:
        raise ConfigError(
            f"fractions ({train_fraction}, {val_fraction}) must be positive and sum < 1")
    train_end = math.floor(t_hours * train_fraction)
    val_end = train_end + max(1, math.floor(t_hours * val_fraction))
    if train_end < 1 or val_end >= t_hours:
        raise ConfigError(f"fractions leave an empty slice of {t_hours} hours")
    return SplitSpec(train_range=(0, train_end), val_range=(train_end, val_end),
                     test_range=(val_end, t_hours), holdout_fraction=holdout_fraction,
                     seed=seed)


def holdout_split(n_nodes: int, fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded station hold-out; returns (train_ids, heldout_ids), both sorted."""
    count = math.floor(n_nodes * fraction)
    if n_nodes - count < 2:
        raise ConfigError(
            f"holding out {count} of {n_nodes} stations leaves too few to train on")
    perm = np.random.default_rng(seed).permutation(n_nodes)
    return np.sort(perm[count:]), np.sort(perm[:count])


# ---------------------------------------------------------------------------
# datasets and standardization


@dataclass(frozen=True)
class StationDataset:
    """Aligned per-station series; column k belongs to node k."""

    nodes: NodeSet
    wind: np.ndarray  # (T, N, 2) m/s
    emissions: np.ndarray  # (T, N)
    pm25: np.ndarray  # (T, N)
    aod_values: np.ndarray | None = None  # (T, N)
    aod_valid: np.ndarray | None = None  # (T, N) 0/1

    def __post_init__(self):
        for name in ("wind", "emissions", "pm25", "aod_values", "aod_valid"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=np.float64))
        n = self.nodes.n
        t = self.pm25.shape[0] if self.pm25.ndim == 2 else -1
        if t < 1 or self.pm25.shape != (t, n):
            raise ConfigError(f"pm25 must be (T, {n}), got {self.pm25.shape}")
        if self.wind.shape != (t, n, 2):
            raise ConfigError(f"wind must be ({t}, {n}, 2), got {self.wind.shape}")
        if self.emissions.shape != (t, n):
            raise ConfigError(f"emissions must be ({t}, {n}), got {self.emissions.shape}")
        if (self.aod_values is None) != (self.aod_valid is None):
            raise ConfigError("aod_values and aod_valid must be supplied together")
        if self.aod_values is not None:
            if self.aod_values.shape != (t, n) or self.aod_valid.shape != (t, n):
                raise ConfigError(
                    f"aod fields must be ({t}, {n}), got {self.aod_values.shape} "
                    f"and {self.aod_valid.shape}")
            bits = np.unique(self.aod_valid)
            if not np.all(np.isin(bits, (0.0, 1.0))):
                raise ConfigError("aod_valid must be binary")
            if not np.all(np.isfinite(self.aod_values[self.aod_valid == 1.0])):
                raise ConfigError("aod_values contains non-finite values where aod_valid is 1")
        for name in ("wind", "emissions", "pm25"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} contains non-finite values")

    @property
    def t_hours(self) -> int:
        return self.pm25.shape[0]

    @property
    def n(self) -> int:
        return self.nodes.n

    def subset(self, idx: np.ndarray) -> "StationDataset":
        """Re-indexed view over a subset of stations (ids become 0..K-1)."""
        idx = np.asarray(idx, dtype=np.int64)
        return StationDataset(
            nodes=NodeSet(self.nodes.positions[idx]),
            wind=self.wind[:, idx],
            emissions=self.emissions[:, idx],
            pm25=self.pm25[:, idx],
            aod_values=None if self.aod_values is None else self.aod_values[:, idx],
            aod_valid=None if self.aod_valid is None else self.aod_valid[:, idx],
        )


def dataset_from_scenario(run: ScenarioRun, with_aod: bool = True) -> StationDataset:
    """Bundle a synthetic scenario's station view, optionally with its proxy."""
    sample = run.stations
    aod_values = aod_valid = None
    if with_aod:
        aod_values = run.aod.values[:, sample.cell_indices]
        aod_valid = run.aod.valid[:, sample.cell_indices]
    return StationDataset(nodes=sample.nodes, wind=sample.wind,
                          emissions=sample.emissions, pm25=sample.pm25,
                          aod_values=aod_values, aod_valid=aod_valid)


_STD_FLOOR = 1e-8

_PM25_CHANNEL = CHANNELS.index("pm25_masked")


@dataclass(frozen=True)
class Normalization:
    """Per-channel z-scoring statistics, aligned with the input channels.

    The observed_flag channel keeps identity statistics so flags stay
    binary, and masked pollution entries stay exactly zero because the
    series is standardized before masking.
    """

    mean: np.ndarray  # (5,)
    std: np.ndarray  # (5,)

    @classmethod
    def fit(cls, dataset: StationDataset, time_range: tuple[int, int]) -> "Normalization":
        """Statistics from the given time slice of the given dataset only."""
        lo, hi = time_range
        wind = dataset.wind[lo:hi]
        emissions = dataset.emissions[lo:hi]
        pm25 = dataset.pm25[lo:hi]
        mean = np.zeros(len(CHANNELS))
        std = np.ones(len(CHANNELS))
        for channel, values in (("wind_u", wind[:, :, 0]), ("wind_v", wind[:, :, 1]),
                                ("emission", emissions), ("pm25_masked", pm25)):
            i = CHANNELS.index(channel)
            mean[i] = values.mean()
            spread = values.std()
            std[i] = spread if spread > _STD_FLOOR else 1.0
        return cls(mean=mean, std=std)

    def apply(self, wind: np.ndarray, emissions: np.ndarray,
              pm25: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardize raw physical inputs."""
        wind_std = np.empty_like(wind)
        wind_std[:, :, 0] = (wind[:, :, 0] - self.mean[0]) / self.std[0]
        wind_std[:, :, 1] = (wind[:, :, 1] - self.mean[1]) / self.std[1]
        emissions_std = (emissions - self.mean[2]) / self.std[2]
        pm25_std = (pm25 - self.mean[_PM25_CHANNEL]) / self.std[_PM25_CHANNEL]
        return wind_std, emissions_std, pm25_std

    def to_physical(self, x: ad.Tensor) -> ad.Tensor:
        """Map standardized pollution predictions back to physical units, on tape."""
        return ad.add(ad.mul(x, float(self.std[_PM25_CHANNEL])),
                      float(self.mean[_PM25_CHANNEL]))


# ---------------------------------------------------------------------------
# training configuration


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters; the window must cover the TCN receptive field.

    `station_dropout` removes a random fraction of training stations from the
    graph itself on every batch (on top of mask partitioning), so the model
    practices on varying node sets instead of co-adapting to one fixed
    operator. Zero disables it and keeps the single-graph loop.

    `mask_jitter` widens the per-batch mask ratio to a uniform draw from
    [mask_ratio - jitter, mask_ratio + jitter] (clipped to leave at least one
    node on each side), so the model cannot calibrate to a single observed
    fraction; inference-time inputs range from all-observed stations to
    almost-all-unobserved grids. Zero keeps the fixed ratio.
    """

    mask_ratio: float = 0.5
    epochs: int = 60
    window: int = 24
    learning_rate: float = 1e-3
    seed: int = 0
    batches_per_epoch: int = 8
    patience: int = 10
    val_partitions: int = 3
    station_dropout: float = 0.0
    mask_jitter: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio {self.mask_ratio} not in (0, 1)")
        if not 0.0 <= self.station_dropout < 1.0:
            raise ConfigError(
                f"station_dropout {self.station_dropout} not in [0, 1)")
        if not 0.0 <= self.mask_jitter < 0.5:
            raise ConfigError(f"mask_jitter {self.mask_jitter} not in [0, 0.5)")
        if self.epochs < 0:
            raise ConfigError(f"epochs {self.epochs} is negative")
        if self.window < 1:
            raise ConfigError(f"window {self.window} must be positive")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate {self.learning_rate} must be positive")
        if self.batches_per_epoch < 1:
            raise ConfigError(f"batches_per_epoch {self.batches_per_epoch} must be >= 1")
        if self.patience < 1:
            raise ConfigError(f"patience {self.patience} must be >= 1")
        if self.val_partitions < 1:
            raise ConfigError(f"val_partitions {self.val_partitions} must be >= 1")


def _from_mapping(cls, data: dict, section: str):
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"section {section!r}: {exc}") from exc


def train_config_from_dict(data: dict) -> TrainConfig:
    return _from_mapping(TrainConfig, data, "train")


def weights_from_dict(data: dict) -> LossWeights:
    return _from_mapping(LossWeights, data, "loss")


def model_config_from_dict(data: dict) -> ModelConfig:
    return _from_mapping(ModelConfig, data, "model")


def split_from_dict(data: dict, t_hours: int) -> SplitSpec:
    """Build a SplitSpec from a config section.

    Explicit `train_hours/val_hours/test_hours` ranges win; otherwise
    `train_fraction/val_fraction` carve the series chronologically.
    """
    data = dict(data)
    holdout = float(data.pop("holdout_fraction", 0.3))
    seed = int(data.pop("seed", 0))
    explicit = {"train_hours", "val_hours", "test_hours"} & set(data)
    if explicit:
        if explicit != {"train_hours", "val_hours", "test_hours"}:
            raise ConfigError("explicit split needs train_hours, val_hours and test_hours")
        ranges = {}
        for key in ("train_hours", "val_hours", "test_hours"):
            value = data.pop(key)
            if (not isinstance(value, (list, tuple)) or len(value) != 2
                    or not all(isinstance(v, int) for v in value)):
                raise ConfigError(f"{key} must be a [start, end] pair of integers")
            ranges[key] = (value[0], value[1])
        if data:
            raise ConfigError(f"unknown split keys {sorted(data)}")
        return SplitSpec(train_range=ranges["train_hours"], val_range=ranges["val_hours"],
                         test_range=ranges["test_hours"], holdout_fraction=holdout,
                         seed=seed)
    train_fraction = float(data.pop("train_fraction", 0.7))
    val_fraction = float(data.pop("val_fraction", 0.15))
    if data:
        raise ConfigError(f"unknown split keys {sorted(data)}")
    return split_from_fractions(t_hours, train_fraction, val_fraction,
                                holdout_fraction=holdout, seed=seed)


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_mae: float
    val_rmse: float
    val_r2: float | None


@dataclass(frozen=True)
class TrainResult:
    """Best-validation checkpoint plus the training trace."""

    model: KrigingModel
    normalization: Normalization
    log: tuple[EpochRecord, ...]
    best_epoch: int
    best_val_mae: float | None
    train_ids: np.ndarray
    heldout_ids: np.ndarray
    meta: dict = field(default_factory=dict)


def _window_flags(t_len: int, n: int, target: np.ndarray) -> np.ndarray:
    flags = np.ones((t_len, n))
    flags[:, target] = 0.0
    return flags


@dataclass(frozen=True)
class Graph:
    """The operators of one node set: what every kriging forward runs on."""

    diffusion: DiffusionOperator
    advection: tuple[AdvectionOperator, ...]  # one per hour
    edges: np.ndarray  # (E, 2) undirected adjacency pairs, i < j

    def window(self, lo: int, hi: int) -> "Graph":
        """The same graph over hours [lo, hi); only advection depends on time."""
        return Graph(self.diffusion, self.advection[lo:hi], self.edges)


def prepare_graph(nodes: NodeSet, wind: np.ndarray, threshold_km: float) -> Graph:
    """Build the operators for `nodes` under a (T, N, 2) wind series."""
    geo = build_geo_adjacency(nodes, threshold_km)
    return Graph(diffusion=build_diffusion_operator(geo),
                 advection=tuple(advection_sequence(nodes, wind, threshold_km)),
                 edges=edges_from_adjacency(geo))


def predict(model: KrigingModel, normalization: Normalization, graph: Graph,
            wind: np.ndarray, emissions: np.ndarray, pm25: np.ndarray,
            flags: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    """One kriging forward on raw time-major inputs over `graph`'s nodes.

    Standardizes the inputs, hides pollution wherever `flags` is 0, and
    returns (initial, refined) estimates, each (N, T) in physical units.
    Pass `model.detached()` for a forward-only pass.
    """
    series = make_node_series(*normalization.apply(wind, emissions, pm25), flags)
    x_init, x_hat = model.full_forward(series, graph.diffusion, graph.advection)
    return normalization.to_physical(x_init), normalization.to_physical(x_hat)


def _evaluate(model: KrigingModel, normalization: Normalization,
              view: StationDataset, graph: Graph,
              partitions: list[MaskPartition],
              time_range: tuple[int, int]) -> tuple[float, float, float | None]:
    """Pooled masked-reconstruction metrics over fixed partitions of a range."""
    model = model.detached()
    lo, hi = time_range
    graph = graph.window(lo, hi)
    preds, truths = [], []
    for part in partitions:
        flags = _window_flags(hi - lo, view.n, part.target)
        _, x_hat = predict(model, normalization, graph, view.wind[lo:hi],
                           view.emissions[lo:hi], view.pm25[lo:hi], flags)
        preds.append(x_hat.data[part.target, :].ravel())
        truths.append(view.pm25[lo:hi].T[part.target, :].ravel())
    pred = np.concatenate(preds)
    truth = np.concatenate(truths)
    try:
        coeff = r2(pred, truth)
    except MetricError:
        coeff = None
    return mae(pred, truth), rmse(pred, truth), coeff


def train(dataset: StationDataset, model_config: ModelConfig, config: TrainConfig,
          split: SplitSpec, weights: LossWeights | None = None,
          threshold_km: float = DEFAULT_THRESHOLD_KM) -> TrainResult:
    """Run the masked-node training loop and return the best checkpoint.

    Held-out stations are removed before anything else happens: they are
    absent from the training graph, the standardization statistics, and
    every loss term. Within each batch a fresh partition of the training
    stations is masked and reconstructed; with `station_dropout` set, each
    batch additionally rebuilds the graph on a random station subset so the
    learned fill-in map is not tied to one node layout.

    Args:
        dataset: full station bundle (including stations to hold out).
        model_config: architecture; node-count independent.
        config: loop hyperparameters.
        split: chronological ranges and the hold-out draw.
        weights: loss term weights; defaults to LossWeights().
        threshold_km: adjacency cutoff for the training graph.

    Returns:
        TrainResult whose model carries the best-validation parameters.
    """
    weights = weights if weights is not None else LossWeights()
    t_hours = dataset.t_hours
    if split.test_range[1] > t_hours:
        raise ConfigError(
            f"split extends to hour {split.test_range[1]} but data ends at {t_hours}")
    receptive = model_config.receptive_field
    if config.window < receptive:
        raise ConfigError(
            f"window {config.window} is shorter than the receptive field {receptive}")
    train_lo, train_hi = split.train_range
    if train_hi - train_lo < config.window:
        raise ConfigError(
            f"train range {split.train_range} is shorter than window {config.window}")

    train_ids, heldout_ids = holdout_split(dataset.n, split.holdout_fraction, split.seed)
    view = dataset.subset(train_ids)
    graph = prepare_graph(view.nodes, view.wind, threshold_km)
    normalization = Normalization.fit(view, split.train_range)

    model = KrigingModel(model_config, seed=config.seed)
    aod_active = view.aod_values is not None
    meta = {
        "seed": int(config.seed),
        "threshold_km": float(threshold_km),
        "window": int(config.window),
        "mask_ratio": float(config.mask_ratio),
        "learning_rate": float(config.learning_rate),
        "batches_per_epoch": int(config.batches_per_epoch),
        "patience": int(config.patience),
        "station_dropout": float(config.station_dropout),
        "mask_jitter": float(config.mask_jitter),
        "lambda1": float(weights.lambda1),
        "lambda2": float(weights.lambda2),
        "aod_loss_active": bool(aod_active),
        "holdout_fraction": float(split.holdout_fraction),
        "split_seed": int(split.seed),
        "train_range": list(split.train_range),
        "val_range": list(split.val_range),
        "test_range": list(split.test_range),
        "train_ids": [int(i) for i in train_ids],
        "heldout_ids": [int(i) for i in heldout_ids],
    }
    if config.epochs == 0:
        return TrainResult(model=model, normalization=normalization, log=(),
                           best_epoch=-1, best_val_mae=None, train_ids=train_ids,
                           heldout_ids=heldout_ids,
                           meta={**meta, "epochs_run": 0, "best_epoch": -1})

    rng = np.random.default_rng(config.seed)
    station_ids = np.arange(view.n)
    n_kept = view.n - int(np.floor(view.n * config.station_dropout))
    if n_kept < 2:
        raise ConfigError(
            f"station_dropout {config.station_dropout} leaves {n_kept} of "
            f"{view.n} stations; at least 2 are needed")
    val_parts = [sample_partition(station_ids, config.mask_ratio, rng)
                 for _ in range(config.val_partitions)]
    optimizer = ad.Adam(model.params, lr=config.learning_rate)

    log: list[EpochRecord] = []
    best_mae = np.inf
    best_epoch = -1
    best_params: dict[str, ad.Tensor] = {}
    stale = 0
    for epoch in range(config.epochs):
        batch_losses = []
        for batch in range(config.batches_per_epoch):
            t0 = int(rng.integers(train_lo, train_hi - config.window + 1))
            t1 = t0 + config.window
            ratio = config.mask_ratio
            if config.mask_jitter > 0.0:
                ratio = jittered_ratio(ratio, config.mask_jitter, n_kept, rng)
            if config.station_dropout > 0.0:
                keep = np.sort(rng.permutation(view.n)[:n_kept])
                b_graph = prepare_graph(NodeSet(view.nodes.positions[keep]),
                                        view.wind[t0:t1][:, keep], threshold_km)
            else:
                keep, b_graph = station_ids, graph.window(t0, t1)
            part = sample_partition(np.arange(n_kept), ratio, rng)
            try:
                flags = _window_flags(config.window, keep.size, part.target)
                x_init, x_hat = predict(
                    model, normalization, b_graph, view.wind[t0:t1][:, keep],
                    view.emissions[t0:t1][:, keep], view.pm25[t0:t1][:, keep], flags)
                truth_window = view.pm25[t0:t1].T[keep]  # (K, window) physical
                scale = 1.0 / (part.target.size * config.window)
                term_infer = infer_loss(x_hat, truth_window, part.target) * scale
                term_init = init_loss(x_init, truth_window, part.target) * scale
                term_aod: ad.Tensor | float = 0.0
                if aod_active:
                    valid_window = view.aod_valid[t0:t1].T[keep]
                    raw = aod_gradient_loss(x_hat, view.aod_values[t0:t1].T[keep],
                                            valid_window, b_graph.edges)
                    n_terms = count_valid_edge_terms(valid_window, b_graph.edges)
                    term_aod = raw * (1.0 / n_terms) if n_terms else raw
                loss = composite_loss(term_infer, term_init, term_aod, weights)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            except ad.NumericError as exc:
                raise TrainError(
                    f"non-finite value at epoch {epoch}, batch {batch}: {exc}") from exc
            batch_losses.append(float(loss.data))
        val_mae, val_rmse, val_r2 = _evaluate(model, normalization, view, graph,
                                              val_parts, split.val_range)
        log.append(EpochRecord(epoch=epoch, train_loss=float(np.mean(batch_losses)),
                               val_mae=val_mae, val_rmse=val_rmse, val_r2=val_r2))
        if val_mae < best_mae:
            best_mae = val_mae
            best_epoch = epoch
            best_params = {name: ad.Tensor(p.data.copy(), requires_grad=True)
                           for name, p in model.params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    best_model = KrigingModel(model_config, params=best_params)
    return TrainResult(model=best_model, normalization=normalization, log=tuple(log),
                       best_epoch=best_epoch, best_val_mae=float(best_mae),
                       train_ids=train_ids, heldout_ids=heldout_ids,
                       meta={**meta, "epochs_run": len(log), "best_epoch": int(best_epoch),
                             "best_val_mae": float(best_mae)})


# ---------------------------------------------------------------------------
# inference


def infer_stations(model: KrigingModel, normalization: Normalization,
                   dataset: StationDataset, target_ids: np.ndarray,
                   threshold_km: float = DEFAULT_THRESHOLD_KM) -> np.ndarray:
    """Predict full series at target stations from all remaining stations.

    Target nodes enter the graph with zeroed pollution channels and zero
    observed flags, so their true values can never reach the output.

    Args:
        model: trained (or fresh) model.
        normalization: channel statistics from the checkpoint.
        dataset: all stations, including the targets.
        target_ids: station ids to reconstruct; may be empty.
        threshold_km: adjacency cutoff.

    Returns:
        (T, len(target_ids)) physical predictions, columns in target order.
    """
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if target_ids.size == 0:
        return np.zeros((dataset.t_hours, 0))
    unknown = [int(i) for i in target_ids if i < 0 or i >= dataset.n]
    if unknown:
        raise ConfigError(f"unknown node ids {unknown}; dataset has 0..{dataset.n - 1}")
    if len(np.unique(target_ids)) != target_ids.size:
        raise ConfigError("target ids contain duplicates")
    flags = _window_flags(dataset.t_hours, dataset.n, target_ids)
    _, x_hat = predict(model.detached(), normalization,
                       prepare_graph(dataset.nodes, dataset.wind, threshold_km),
                       dataset.wind, dataset.emissions, dataset.pm25, flags)
    return x_hat.data[target_ids, :].T.copy()


def infer_grid(model: KrigingModel, normalization: Normalization,
               dataset: StationDataset, grid_positions: np.ndarray,
               grid_wind: np.ndarray, grid_emissions: np.ndarray,
               threshold_km: float = DEFAULT_THRESHOLD_KM) -> np.ndarray:
    """Reconstruct a full raster by treating every cell as an unseen node.

    All stations are observed; grid cells join the graph with zeroed
    pollution. A cell exactly coincident with a station reuses that
    station's node (zero-distance pairs have no defined wind direction),
    so its prediction is the model's output at the station.

    Cells are appended in batches of at most the station count rather than
    all at once: unobserved cells carry no pollution signal for each other,
    and keeping the graph near the station density keeps the transport
    operators' row magnitudes in the regime the model was trained on. A
    raster much denser than the network would otherwise multiply every
    node's upwind in-degree and push propagated features far outside the
    training distribution.

    Args:
        model: trained model.
        normalization: channel statistics from the checkpoint.
        dataset: observed stations.
        grid_positions: (G, 2) cell centers in km.
        grid_wind: (T, G, 2) per-cell wind.
        grid_emissions: (T, G) per-cell emission rates.
        threshold_km: adjacency cutoff for the combined graph.

    Returns:
        (T, G) physical predictions covering every cell.
    """
    grid_positions = np.asarray(grid_positions, dtype=np.float64)
    t_hours, n_stations = dataset.t_hours, dataset.n
    g_cells = grid_positions.shape[0]
    if grid_positions.ndim != 2 or grid_positions.shape[1] != 2 or g_cells == 0:
        raise ConfigError(f"grid_positions must be (G, 2), got {grid_positions.shape}")
    if grid_wind.shape != (t_hours, g_cells, 2):
        raise ConfigError(
            f"grid wind must be ({t_hours}, {g_cells}, 2), got {grid_wind.shape}")
    if grid_emissions.shape != (t_hours, g_cells):
        raise ConfigError(
            f"grid emissions must be ({t_hours}, {g_cells}), got {grid_emissions.shape}")
    if not (np.all(np.isfinite(grid_wind)) and np.all(np.isfinite(grid_emissions))):
        raise ConfigError("grid meteorology or emissions contain non-finite values")

    model = model.detached()
    station_lookup = {pos.tobytes(): k for k, pos in enumerate(dataset.nodes.positions)}
    node_of_cell = np.array([station_lookup.get(pos.tobytes(), -1) for pos in grid_positions],
                            dtype=np.int64)
    coincident = node_of_cell >= 0
    out = np.empty((t_hours, g_cells))
    if np.any(coincident):
        _, x_hat = predict(model, normalization,
                           prepare_graph(dataset.nodes, dataset.wind, threshold_km),
                           dataset.wind, dataset.emissions, dataset.pm25,
                           np.ones((t_hours, n_stations)))
        out[:, coincident] = x_hat.data.T[:, node_of_cell[coincident]]

    free = np.nonzero(~coincident)[0]
    chunk = max(1, n_stations)
    # scatter lattice cells across chunks with a fixed shuffle: consecutive
    # cells are 1 cell apart, and a chunk of adjacent cells would carry far
    # stronger short-range transport edges than any station pair seen in
    # training
    order = np.random.default_rng(0).permutation(free.size)
    for start in range(0, free.size, chunk):
        cells = free[order[start:start + chunk]]
        nodes = NodeSet(np.concatenate([dataset.nodes.positions, grid_positions[cells]]))
        wind = np.concatenate([dataset.wind, grid_wind[:, cells]], axis=1)
        emissions = np.concatenate([dataset.emissions, grid_emissions[:, cells]], axis=1)
        pm25 = np.zeros((t_hours, nodes.n))
        pm25[:, :n_stations] = dataset.pm25
        flags = np.zeros((t_hours, nodes.n))
        flags[:, :n_stations] = 1.0
        _, x_hat = predict(model, normalization, prepare_graph(nodes, wind, threshold_km),
                           wind, emissions, pm25, flags)
        out[:, cells] = x_hat.data[n_stations:, :].T
    return out
