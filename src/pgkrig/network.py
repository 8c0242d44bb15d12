"""Inductive kriging network: TCN encoder, operator propagation, readouts.

Every parameter is shared across nodes, so a trained model runs on any
node count: the graph structure enters only through the diffusion and
advection operators supplied at call time.  Temporal mixing happens only
in the causal encoder; each propagation layer is one step over the whole
node-major (N, T, hidden) state, with hour t's advection rates acting
only on hour t.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import DataError
from . import autodiff as ad
from .graphs import AdvectionOperator, DiffusionOperator

# Channel layout of a NodeSeries, in order: wind components (meteorology),
# emission rate, pollution zeroed at unobserved nodes, observed flag.
CHANNELS = ("wind_u", "wind_v", "emission", "pm25_masked", "observed_flag")
N_CHANNELS = len(CHANNELS)


class ModelError(DataError, ValueError):
    """Model inputs or configuration are inconsistent."""


@dataclass(frozen=True)
class NodeSeries:
    """Per-node input series, shape (N, T, C) with the CHANNELS layout.

    The pollution channel must be exactly 0 wherever the observed flag
    is 0, so unobserved values can never leak into the network.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3 or vals.shape[2] != N_CHANNELS:
            raise ModelError(
                f"series must be (N, T, {N_CHANNELS}), got {vals.shape}")
        flag = vals[:, :, 4]
        if not np.all((flag == 0.0) | (flag == 1.0)):
            raise ModelError("observed flag channel must be binary")
        if np.any(vals[:, :, 3][flag == 0.0] != 0.0):
            raise ModelError("pollution channel must be exactly 0 where flag is 0")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]


def make_node_series(wind: np.ndarray, emissions: np.ndarray, pm25: np.ndarray,
                     observed: np.ndarray) -> NodeSeries:
    """Assemble a NodeSeries from time-major fields.

    Args:
        wind: (T, N, 2) wind components in m/s.
        emissions: (T, N) emission rates.
        pm25: (T, N) pollution; values at unobserved entries are ignored.
        observed: (T, N) binary flags, 1 where pm25 is usable.

    Returns:
        NodeSeries with pollution zeroed wherever the flag is 0.
    """
    wind = np.asarray(wind, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    pm25 = np.asarray(pm25, dtype=np.float64)
    flag = np.asarray(observed, dtype=np.float64)
    t, n = emissions.shape
    if wind.shape != (t, n, 2) or pm25.shape != (t, n) or flag.shape != (t, n):
        raise ModelError(
            f"inconsistent field shapes: wind {wind.shape}, emissions {emissions.shape}, "
            f"pm25 {pm25.shape}, observed {flag.shape}")
    masked = np.where(flag == 1.0, pm25, 0.0)
    stacked = np.stack([wind[:, :, 0], wind[:, :, 1], emissions, masked, flag], axis=2)
    return NodeSeries(values=stacked.transpose(1, 0, 2))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; none of them depend on the node count.

    The encoder's receptive field is 1 + (kernel-1) * sum(dilation_base^i);
    windows longer than it are still legal (early steps just see a shorter
    history), and the trainer checks the field covers enough context.
    """

    hidden_dim: int = 32
    tcn_layers: int = 3
    tcn_kernel_size: int = 3
    dilation_base: int = 2
    gnn_layers: int = 2
    readout_hidden: int = 32
    activation: str = "relu"
    two_weight_propagation: bool = False

    def __post_init__(self):
        for name in ("hidden_dim", "tcn_layers", "tcn_kernel_size", "dilation_base",
                     "gnn_layers", "readout_hidden"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.activation not in ("relu", "softplus"):
            raise ModelError(f"unknown activation '{self.activation}'")

    @property
    def dilations(self) -> tuple[int, ...]:
        return tuple(self.dilation_base ** i for i in range(self.tcn_layers))

    @property
    def receptive_field(self) -> int:
        return 1 + (self.tcn_kernel_size - 1) * sum(self.dilations)

    def param_shapes(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        """Each parameter's (name, shape) in initialisation order: the one place
        the layout is written, which builds the model and checks a checkpoint."""
        c_in = N_CHANNELS
        for i in range(self.tcn_layers):
            yield f"tcn.{i}.weight", (self.tcn_kernel_size, c_in, self.hidden_dim)
            yield f"tcn.{i}.bias", (self.hidden_dim,)
            c_in = self.hidden_dim
        weights = ("weight_diff", "weight_adv") if self.two_weight_propagation else ("weight",)
        for i in range(self.gnn_layers):
            for weight in weights:
                yield f"prop.{i}.{weight}", (self.hidden_dim, self.hidden_dim)
            yield f"prop.{i}.bias", (self.hidden_dim,)
        for head in ("readout", "init_readout"):
            yield f"{head}.0.weight", (self.hidden_dim, self.readout_hidden)
            yield f"{head}.0.bias", (self.readout_hidden,)
            yield f"{head}.1.weight", (self.readout_hidden, 1)
            yield f"{head}.1.bias", (1,)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class KrigingModel:
    """The network plus its named parameter store.

    Parameters live in a flat name -> Tensor map; shapes never change
    after construction, and the checkpoint round-trip preserves values
    bit for bit (see dataio).
    """

    def __init__(self, config: ModelConfig, seed: int = 0,
                 params: dict[str, ad.Tensor] | None = None):
        self.config = config
        if params is not None:
            shapes = dict(config.param_shapes())
            if set(params) != set(shapes):
                missing = set(shapes).symmetric_difference(params)
                raise ModelError(f"parameter names do not match config: {sorted(missing)}")
            for name, shape in shapes.items():
                if tuple(params[name].shape) != shape:
                    raise ModelError(
                        f"parameter '{name}' has shape {params[name].shape}, expected {shape}")
            self.params = params
        else:
            self.params = self._init_params(np.random.default_rng(seed))

    # -- parameters ------------------------------------------------------

    def _init_params(self, rng: np.random.Generator) -> dict[str, ad.Tensor]:
        params: dict[str, ad.Tensor] = {}
        for name, shape in self.config.param_shapes():
            if name.endswith(".bias"):
                data = np.zeros(shape)
            elif len(shape) == 3:  # conv kernel (K, C_in, C_out)
                k, c_in, c_out = shape
                data = _glorot(rng, shape, k * c_in, k * c_out)
            else:
                data = _glorot(rng, shape, shape[0], shape[1])
            params[name] = ad.Tensor(data, requires_grad=True)
        return params

    def detached(self) -> "KrigingModel":
        """The same model on untracked parameters, for forward-only passes.

        Each parameter is ``p.detach()``: it shares the array, so later
        updates show through, but no op on it records a backward closure
        or keeps its inputs alive.
        """
        return KrigingModel(self.config,
                            params={name: p.detach() for name, p in self.params.items()})

    def _act(self, x: ad.Tensor) -> ad.Tensor:
        return ad.relu(x) if self.config.activation == "relu" else ad.softplus(x)

    # -- forward pieces ----------------------------------------------------

    def encode(self, series: NodeSeries) -> ad.Tensor:
        """Per-node causal temporal encoding, (N, T, hidden).

        Nodes never mix here: the same convolution weights run on every
        node's own channel history, and hour t reads only hours up to t.
        """
        if series.values.shape[2] != N_CHANNELS:
            raise ModelError(
                f"series has {series.values.shape[2]} channels, expected {N_CHANNELS}")
        h = ad.Tensor(series.values)
        for i, dilation in enumerate(self.config.dilations):
            h = ad.conv1d_causal_dilated(h, self.params[f"tcn.{i}.weight"],
                                         self.params[f"tcn.{i}.bias"], dilation=dilation)
            h = self._act(h)
        return h

    def propagate(self, h: ad.Tensor, diffusion: DiffusionOperator,
                  advection: AdvectionOperator, layer: int) -> ad.Tensor:
        """One message-passing layer on the (N, T, hidden) state, every hour at once."""
        n, t, _ = h.shape
        if diffusion.weights.shape != (n, n) or advection.weights.shape != (n * t, n * t):
            raise ModelError(
                f"operator shapes {diffusion.weights.shape}/{advection.weights.shape} "
                f"do not match {n} nodes over {t} hours")
        if self.config.two_weight_propagation:
            weights = (self.params[f"prop.{layer}.weight_diff"],
                       self.params[f"prop.{layer}.weight_adv"])
        else:
            weights = (self.params[f"prop.{layer}.weight"],)
        return ad.propagate(h, diffusion, advection, weights, self.params[f"prop.{layer}.bias"],
                            self.config.activation)

    def _mlp(self, h: ad.Tensor, head: str) -> ad.Tensor:
        """Node- and step-shared MLP from (N, T, hidden) to (N, T)."""
        n, t, f = h.shape
        flat = h.reshape(n * t, f)
        hidden = self._act(ad.linear(flat, self.params[f"{head}.0.weight"],
                                     self.params[f"{head}.0.bias"]))
        return ad.linear(hidden, self.params[f"{head}.1.weight"],
                         self.params[f"{head}.1.bias"]).reshape(n, t)

    def readout(self, h_final: ad.Tensor) -> ad.Tensor:
        return self._mlp(h_final, "readout")

    def init_readout(self, h0: ad.Tensor) -> ad.Tensor:
        return self._mlp(h0, "init_readout")

    def refine(self, h: ad.Tensor, diffusion: DiffusionOperator,
               advection: AdvectionOperator) -> ad.Tensor:
        """The propagation stack and the readout: (N, T, hidden) encodings to (N, T).

        Every hour is refined on its own, so a run over a window of hours
        gives, bit for bit, those hours of a run over a longer window.
        """
        for layer in range(self.config.gnn_layers):
            h = self.propagate(h, diffusion, advection, layer)
        return self.readout(h)

    def full_forward(self, series: NodeSeries, diffusion: DiffusionOperator,
                     advection: AdvectionOperator) -> tuple[ad.Tensor, ad.Tensor]:
        """Run the whole network: returns (initial estimate, refined estimate).

        Args:
            series: (N, T, C) inputs.
            diffusion: static diffusion operator over the N nodes.
            advection: the advection operator over the same T hours.

        Returns:
            Two (N, T) tensors: the encoder-only initial estimate and the
            estimate after the propagation stack.
        """
        if len(advection) != series.t:
            raise ModelError(
                f"advection operator over {len(advection)} hours for {series.t} timesteps")
        # training records the encoder output on the tape anyway; forward-only
        # passes skip this method and the initial readout with it
        # (training._forward_only)
        h = self.encode(series)
        return self.init_readout(h), self.refine(h, diffusion, advection)
