"""Inductive node-masking training: splits, loop, and inference entry points.

The protocol: hold out a seeded fraction of stations entirely (they never
enter the training graph), split time chronologically, and train on
24-hour windows where a fresh random subset of the remaining stations is
masked out and reconstructed. Inference then generalizes to nodes the
model has never seen because no parameter depends on the node count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import DataError, NumericFailure
from . import autodiff as ad
from .graphs import (AdvectionOperator, DiffusionOperator, GraphBuildError, NodePairs,
                     NodeSet, advection_sequence, build_diffusion_operator,
                     build_geo_adjacency, node_pairs, pair_geometry)
from .losses import (LossWeights, aod_gradient_loss, composite_loss,
                     count_valid_edge_terms, edges_from_adjacency, infer_loss, init_loss)
from .metrics import NodeScore, score_pooled
from .network import CHANNELS, KrigingModel, ModelConfig, NodeSeries, make_node_series

if TYPE_CHECKING:  # only `simulate` loads the testbed
    from .testbed import ScenarioRun


class ConfigError(DataError, ValueError):
    """A training configuration or split is inconsistent with the data."""


class TrainError(NumericFailure, RuntimeError):
    """Training aborted on a numeric failure; message carries epoch/batch."""


# ---------------------------------------------------------------------------
# masking partitions


def sample_partition(node_ids: np.ndarray, mask_ratio: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform random target draw of floor(N * ratio) nodes, leaving the rest observed.

    Args:
        node_ids: ids eligible for masking.
        mask_ratio: fraction of nodes hidden as targets, in (0, 1).
        rng: source of the draw; a fresh draw every call.

    Returns:
        The sorted target ids; at least one node stays on each side.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    n = node_ids.size
    if n < 2:
        raise ConfigError(f"need at least 2 nodes to partition, got {n}")
    k = math.floor(n * mask_ratio)
    if k == 0 or k == n:
        raise ConfigError(
            f"mask_ratio {mask_ratio} empties one side of a {n}-node partition")
    return np.sort(rng.permutation(node_ids)[:k])


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
            if start == end and name != "test":
                raise ConfigError(f"{name}_range {(start, end)} is empty")
        if self.train_range[1] > self.val_range[0]:
            raise ConfigError("train range must end before the validation range")
        if self.val_range[1] > self.test_range[0]:
            raise ConfigError("validation range must end before the test range")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction {self.holdout_fraction} not in [0, 1)")


def split_from_fractions(t_hours: int, holdout_fraction: float = 0.3,
                         seed: int = 0) -> SplitSpec:
    """Carve [0, T) chronologically: the first 70% train, the next 15% val, the rest test."""
    train_end = math.floor(t_hours * 0.7)
    val_end = train_end + max(1, math.floor(t_hours * 0.15))
    if val_end >= t_hours:
        raise ConfigError(f"the 70/15/15 carve needs at least 4 hours, got {t_hours}")
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
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")
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


@dataclass(frozen=True)
class SplitConfig:
    """The `split` section: the hold-out draw. The series is always carved
    by `split_from_fractions`."""

    holdout_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")

    def spec(self, t_hours: int) -> SplitSpec:
        """The split of a `t_hours`-long series."""
        return split_from_fractions(t_hours, holdout_fraction=self.holdout_fraction,
                                    seed=self.seed)


@dataclass(frozen=True)
class GraphConfig:
    """The `graph` section: the station graph's edge cutoff."""

    threshold_km: float = 200.0

    def __post_init__(self):
        if not self.threshold_km > 0:
            raise ConfigError(f"threshold_km {self.threshold_km} must be positive")


@dataclass(frozen=True)
class RunConfig:
    """A whole run configuration file, one field per section."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    graph: GraphConfig = field(default_factory=GraphConfig)


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


@dataclass(frozen=True)
class Graph:
    """One node set's pairs and diffusion operator: what every kriging
    forward runs on.  Only advection depends on time, and `advection`
    builds it for any hours from the pairs' geometry."""

    nodes: NodeSet
    threshold_km: float
    pairs: NodePairs
    sigma_sq: float
    diffusion: DiffusionOperator

    @classmethod
    def build(cls, nodes: NodeSet, threshold_km: float) -> "Graph":
        """The graph of `nodes`; refused where two nodes coincide, as their
        advection would be.  With no pair under the cutoff every operator
        is empty."""
        pairs = node_pairs(nodes, threshold_km)
        pair_geometry(pairs)
        geo = build_geo_adjacency(nodes, threshold_km, pairs)
        return cls(nodes, threshold_km, pairs, geo.sigma_sq, build_diffusion_operator(geo))

    def refuse_isolated(self) -> "Graph":
        """This graph, refused if no pair of its nodes is under the cutoff:
        a station set like that passes nothing between its stations."""
        if not self.pairs.rows.size:
            raise GraphBuildError(f"no node pair closer than threshold {self.threshold_km} km: "
                                  "graph is fully isolated")
        return self

    @cached_property
    def edges(self) -> np.ndarray:
        """The proxy loss's (E, 2) undirected adjacency pairs, i < j, built on
        first use: the diffusion operator has the adjacency's pattern."""
        return edges_from_adjacency(self.diffusion)

    def advection(self, wind: np.ndarray) -> AdvectionOperator:
        """The advection operator over the hours of a (T, N, 2) wind block."""
        return advection_sequence(self.nodes, wind, self.threshold_km, self.pairs)


def _series(normalization: Normalization, wind: np.ndarray, emissions: np.ndarray,
            pm25: np.ndarray, hidden: np.ndarray | list[int]) -> NodeSeries:
    """Standardized inputs from raw time-major ones, with the pollution of
    the node ids `hidden` hidden at every hour."""
    flags = np.ones(pm25.shape)
    flags[:, hidden] = 0.0
    return make_node_series(*normalization.apply(wind, emissions, pm25), flags)


def predict(model: KrigingModel, normalization: Normalization, graph: Graph,
            wind: np.ndarray, emissions: np.ndarray, pm25: np.ndarray,
            hidden: np.ndarray | list[int]) -> tuple[ad.Tensor, ad.Tensor]:
    """One tracked kriging forward on raw time-major inputs over `graph`'s nodes.

    Returns (initial, refined) estimates, each (N, T) in physical units.
    Forward-only passes use `_encode` and `_forward_only` instead.
    """
    series = _series(normalization, wind, emissions, pm25, hidden)
    x_init, x_hat = model.full_forward(series, graph.diffusion, graph.advection(wind))
    return normalization.to_physical(x_init), normalization.to_physical(x_hat)


def _encode(model: KrigingModel, normalization: Normalization, wind: np.ndarray,
            emissions: np.ndarray, pm25: np.ndarray, hidden: np.ndarray | list[int],
            hours: int) -> np.ndarray:
    """Per-node encodings (N, hours, hidden) of the last `hours` hours of raw
    time-major inputs, `hidden` ids unobserved; the hours before them are
    context that the causal encoder reads.

    The encoder never mixes nodes, so the encodings of any node subset can
    be taken on their own and joined later.
    """
    h = model.encode(_series(normalization, wind, emissions, pm25, hidden)).data
    return h[:, h.shape[1] - hours:]


def _forward_only(model: KrigingModel, normalization: Normalization,
                  diffusion: DiffusionOperator, advection: AdvectionOperator,
                  encodings: list[np.ndarray]) -> np.ndarray:
    """Refined estimates, (N, T) in physical units, of a forward-only pass.

    `encodings` are (N_k, T, hidden) arrays that, stacked in order, give
    one row per node of the operators.  Each hour is refined on its own,
    so the output is bitwise those hours of one `full_forward` over a
    longer window; the initial readout is never computed.
    """
    h = ad.Tensor(np.concatenate(encodings))
    return normalization.to_physical(model.refine(h, diffusion, advection)).data


# hours that an inference pass encodes and refines at once: a block's
# encodings, advection rates and refinement are inference's working set
_BLOCK_HOURS = 12


def _station_blocks(model: KrigingModel, normalization: Normalization,
                    dataset: StationDataset, hidden: np.ndarray | list[int]):
    """The block loop of inference: (context, lo, hi, encodings) per block.

    The blocks [lo, hi) cover the series _BLOCK_HOURS (12) hours at a
    time, and `encodings` are the stations' (N, hi - lo, hidden) encodings
    of the block, the `hidden` ids unobserved.  The encoder is causal and
    reads receptive_field hours up to and including the hour it encodes, so
    the encodings are taken from the inputs over [context, hi), with
    context receptive_field - 1 hours before lo (clipped at 0), and each
    hour gets the bits of one encoding of the whole series.  The block
    size trades that re-encoded context for a smaller working set, and any
    size gives the same bits.
    """
    history = model.config.receptive_field - 1
    for lo in range(0, dataset.t_hours, _BLOCK_HOURS):
        hi = min(lo + _BLOCK_HOURS, dataset.t_hours)
        context = max(0, lo - history)
        yield context, lo, hi, _encode(model, normalization, dataset.wind[context:hi],
                                       dataset.emissions[context:hi], dataset.pm25[context:hi],
                                       hidden, hi - lo)


def _evaluate(model: KrigingModel, normalization: Normalization,
              view: StationDataset, graph: Graph, targets: list[np.ndarray],
              time_range: tuple[int, int]) -> NodeScore:
    """Pooled masked-reconstruction score over fixed target sets of a range.

    The range's advection rates are built once per call.  Each target set
    is one forward-only pass over the whole range, encoded from the range's
    first hour on, as in training.
    """
    model = model.detached()
    lo, hi = time_range
    inputs = (view.wind[lo:hi], view.emissions[lo:hi], view.pm25[lo:hi])
    advection = graph.advection(view.wind[lo:hi])
    preds, truths = [], []
    for target in targets:
        x_hat = _forward_only(model, normalization, graph.diffusion, advection,
                              [_encode(model, normalization, *inputs, target, hi - lo)])
        preds.append(x_hat[target, :].ravel())
        truths.append(view.pm25[lo:hi].T[target, :].ravel())
    return score_pooled(np.concatenate(preds), np.concatenate(truths))


def train(dataset: StationDataset, model_config: ModelConfig, config: TrainConfig,
          split: SplitSpec, weights: LossWeights | None = None, *,
          threshold_km: float) -> TrainResult:
    """Run the masked-node training loop and return the best checkpoint.

    Held-out stations are removed before anything else happens: they are
    absent from the training graph, the standardization statistics, and
    every loss term. Within each batch a fresh partition of the training
    stations is masked and reconstructed; with `station_dropout` set, each
    batch additionally runs on the graph built on a random subset of them,
    so the learned fill-in map is not tied to one node layout.  A subset
    with no pair under the cutoff trains without transport; training
    stations with none are refused with a GraphBuildError.

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
    graph = Graph.build(view.nodes, threshold_km).refuse_isolated()
    normalization = Normalization.fit(view, split.train_range)

    model = KrigingModel(model_config, seed=config.seed)
    aod_active = view.aod_values is not None
    meta = {**asdict(config), **asdict(weights), "threshold_km": threshold_km,
            "aod_loss_active": aod_active, "holdout_fraction": split.holdout_fraction,
            "split_seed": split.seed, "train_range": list(split.train_range),
            "val_range": list(split.val_range), "test_range": list(split.test_range),
            "train_ids": train_ids.tolist(), "heldout_ids": heldout_ids.tolist()}
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
    val_targets = [sample_partition(station_ids, config.mask_ratio, rng)
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
            keep, b_graph = station_ids, graph
            if config.station_dropout > 0.0:
                keep = np.sort(rng.permutation(view.n)[:n_kept])
                b_graph = Graph.build(NodeSet(view.nodes.positions[keep]), threshold_km)
            target = sample_partition(np.arange(n_kept), ratio, rng)
            try:
                x_init, x_hat = predict(
                    model, normalization, b_graph, view.wind[t0:t1][:, keep],
                    view.emissions[t0:t1][:, keep], view.pm25[t0:t1][:, keep], target)
                truth_window = view.pm25[t0:t1].T[keep]  # (K, window) physical
                scale = 1.0 / (target.size * config.window)
                term_infer = infer_loss(x_hat, truth_window, target) * scale
                term_init = init_loss(x_init, truth_window, target) * scale
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
        val = _evaluate(model, normalization, view, graph, val_targets, split.val_range)
        log.append(EpochRecord(epoch=epoch, train_loss=float(np.mean(batch_losses)),
                               val_mae=val.mae, val_rmse=val.rmse, val_r2=val.r2))
        if val.mae < best_mae:
            best_mae = val.mae
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
                   threshold_km: float) -> np.ndarray:
    """Predict full series at target stations from all remaining stations.

    Target nodes enter the graph with zeroed pollution channels and zero
    observed flags, so their true values can never reach the output.  A
    station set with no pair under the cutoff is refused, as in `train`.
    The graph is built once; then each 12-hour block is encoded, given its
    advection rates and refined on its own (`_station_blocks`), so no
    intermediate spans more than one block and the output is bitwise that
    of one `full_forward` over the whole series.

    Args:
        model: trained (or fresh) model.
        normalization: channel statistics from the checkpoint.
        dataset: all stations, including the targets.
        target_ids: station ids to reconstruct; may be empty.
        threshold_km: adjacency cutoff the model was trained with.

    Returns:
        (T, len(target_ids)) physical predictions, columns in target order.
    """
    target_ids = np.asarray(target_ids, dtype=np.int64)
    unknown = [int(i) for i in target_ids if i < 0 or i >= dataset.n]
    if unknown:
        raise ConfigError(f"unknown node ids {unknown}; dataset has 0..{dataset.n - 1}")
    if len(np.unique(target_ids)) != target_ids.size:
        raise ConfigError("target ids contain duplicates")
    model = model.detached()
    graph = Graph.build(dataset.nodes, threshold_km).refuse_isolated()
    out = np.empty((dataset.t_hours, target_ids.size))
    for _, lo, hi, encodings in _station_blocks(model, normalization, dataset, target_ids):
        x_hat = _forward_only(model, normalization, graph.diffusion,
                              graph.advection(dataset.wind[lo:hi]), [encodings])
        out[lo:hi] = x_hat[target_ids].T
    return out


def infer_grid(model: KrigingModel, normalization: Normalization,
               dataset: StationDataset, grid_positions: np.ndarray,
               grid_wind: np.ndarray, grid_emissions: np.ndarray,
               threshold_km: float) -> np.ndarray:
    """Reconstruct a full raster by treating every cell as an unseen node.

    All stations are observed; grid cells join the graph with zeroed
    pollution. A cell exactly coincident with a station reuses that
    station's node (zero-distance pairs have no defined wind direction),
    so its prediction is the model's output at the station.  Stations with
    no pair under the cutoff are refused, as in `train`.

    Cells are appended in batches of at most the station count rather than
    all at once: unobserved cells carry no pollution signal for each other,
    and keeping the graph near the station density keeps the transport
    operators' row magnitudes in the regime the model was trained on. A
    raster much denser than the network would otherwise multiply every
    node's upwind in-degree and push propagated features far outside the
    training distribution. Batches are drawn from the cells ordered by
    position (y, then x) and then shuffled with a fixed seed, so a cell's
    prediction does not depend on the order of the rows of
    `grid_positions`; it does still depend on which other cells are given.

    Each batch's graph is built once. The hours
    then run one 12-hour block at a time (`_station_blocks`): the stations
    are encoded once per block, and each batch encodes its cells over the
    same hours, builds the block's advection rates and refines the joined
    encodings. So apart from the inputs and the output, nothing spans more
    than one block, and memory stays flat in the number of hours; the
    output is bitwise that of one `full_forward` per batch over the whole
    series. The encoder never mixes nodes, so the stations' encodings can
    be shared by every batch.

    Args:
        model: trained model.
        normalization: channel statistics from the checkpoint.
        dataset: observed stations.
        grid_positions: (G, 2) cell centers in km.
        grid_wind: (T, G, 2) per-cell wind.
        grid_emissions: (T, G) per-cell emission rates.
        threshold_km: adjacency cutoff the model was trained with.

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
    # keyed by value: adding +0.0 turns -0.0 into +0.0, which compare equal
    station_lookup = {(pos + 0.0).tobytes(): k for k, pos in enumerate(dataset.nodes.positions)}
    node_of_cell = np.array([station_lookup.get((pos + 0.0).tobytes(), -1)
                             for pos in grid_positions], dtype=np.int64)
    coincident = node_of_cell >= 0
    station_graph = Graph.build(dataset.nodes, threshold_km).refuse_isolated()

    free = np.nonzero(~coincident)[0]
    free = free[np.lexsort((grid_positions[free, 0], grid_positions[free, 1]))]
    chunk = max(1, n_stations)
    # scatter lattice cells across chunks with a fixed shuffle: consecutive
    # cells are 1 cell apart, and a chunk of adjacent cells would carry far
    # stronger short-range transport edges than any station pair seen in
    # training
    order = np.random.default_rng(0).permutation(free.size)
    chunks = [free[order[start:start + chunk]] for start in range(0, free.size, chunk)]
    graphs = [Graph.build(NodeSet(np.concatenate([dataset.nodes.positions,
                                                  grid_positions[cells]])), threshold_km)
              for cells in chunks]

    out = np.empty((t_hours, g_cells))
    for context, lo, hi, stations in _station_blocks(model, normalization, dataset, []):
        if coincident.any():
            x_hat = _forward_only(model, normalization, station_graph.diffusion,
                                  station_graph.advection(dataset.wind[lo:hi]), [stations])
            out[lo:hi, coincident] = x_hat.T[:, node_of_cell[coincident]]
        for cells, graph in zip(chunks, graphs):
            cell_wind = grid_wind[context:hi, cells]
            cell_encodings = _encode(model, normalization, cell_wind,
                                     grid_emissions[context:hi, cells],
                                     np.zeros((hi - context, cells.size)), np.arange(cells.size),
                                     hi - lo)
            wind = np.concatenate([dataset.wind[lo:hi], cell_wind[lo - context:]], axis=1)
            x_hat = _forward_only(model, normalization, graph.diffusion, graph.advection(wind),
                                  [stations, cell_encodings])
            out[lo:hi, cells] = x_hat[n_stations:].T
    return out
