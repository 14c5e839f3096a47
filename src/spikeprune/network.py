"""Leaky integrate-and-fire network core.

A network is a stack of dense layers with binary prune masks. Hidden layers
hold spiking LIF neurons; the final layer holds two non-spiking LIF neurons
whose membrane potentials are read out directly as the X/Y velocity
prediction. Per timestep each neuron decays its membrane by exp(-dt/tau),
integrates the masked weighted sum of presynaptic spikes, and (if spiking)
fires and resets wherever the membrane reaches the threshold.

One kernel, `forward_window`, runs these dynamics: a window of timesteps
for B equal-length sequences in lockstep, from a given membrane state.
Training, validation and eval all call it. It is layer-major: the network is
feed-forward, so each layer's input current for the whole window is one GEMM
over the finished output of the layer below, against the C-contiguous copy
of W^T; only the membrane scan runs in time order, elementwise.
`network_forward` runs one sequence through it at B=1 in fixed windows,
carrying the state across, so eval memory stays bounded on long sessions.

Eval stays per sequence because BLAS picks its GEMM kernel by the shape of
the call, and different kernels round a row differently in the last bit: the
same sequence batched with others (more rows per GEMM) can give other bits.
At B=1 in fixed windows every call of `network_forward` on a sequence makes
the same GEMMs, so eval is reproducible bit for bit per segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LifParams",
    "NetworkConfig",
    "WeightLayer",
    "ActivationRecord",
    "Network",
    "forward_window",
    "network_forward",
]

SPIKING = "spiking"
DIFFERENTIABLE = "differentiable"

# Timesteps per kernel call in network_forward. It bounds eval memory: each
# call holds a few [window x H] float64 arrays per layer, however long the
# sequence is.
_EVAL_WINDOW = 1000


@dataclass(frozen=True)
class LifParams:
    """LIF neuron parameters, shared by every layer of a network.

    tau and dt share a unit (milliseconds); the per-step decay factor is
    exp(-dt/tau). threshold=1 and reset_value=0 match the reference decoder
    configuration but remain configurable.
    """

    tau: float = 5.0
    threshold: float = 1.0
    reset_value: float = 0.0
    dt: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")

    @property
    def decay(self) -> float:
        return math.exp(-self.dt / self.tau)


@dataclass
class NetworkConfig:
    """Topology and neuron parameters for the velocity decoder.

    layer_dims is [input, hidden..., output]; the output layer has exactly
    2 neurons (X/Y velocity). Every hidden layer spikes and the readout does
    not; all layers share the one LIF model `lif`. With hidden widths
    (50, 50, 50) the bias-free synapse count is 9,900 for 96 input channels
    and 14,700 for 192.
    """

    layer_dims: tuple[int, ...]
    lif: LifParams = LifParams()
    seed: int = 0

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        if len(self.layer_dims) < 2:
            raise ValueError("layer_dims needs at least an input and an output layer")
        if any(d <= 0 for d in self.layer_dims):
            raise ValueError(f"layer dimensions must be positive, got {self.layer_dims}")
        if self.layer_dims[-1] != 2:
            raise ValueError(
                f"output layer must have 2 neurons (X/Y velocity), got {self.layer_dims[-1]}"
            )

    @classmethod
    def snn3(cls, channels: int, hidden=(50, 50, 50), lif: LifParams | None = None,
             seed: int = 0) -> "NetworkConfig":
        """Standard 3-hidden-layer decoder for a given input channel count."""
        return cls(layer_dims=(channels, *hidden, 2), lif=lif or LifParams(), seed=seed)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def synapse_count(self) -> int:
        return sum(self.layer_dims[i] * self.layer_dims[i + 1]
                   for i in range(self.n_layers))


@dataclass
class WeightLayer:
    """Dense weight matrix (rows = postsynaptic) with a binary prune mask.

    Wherever mask is 0 the stored weight is kept at exactly 0; the forward
    pass additionally multiplies by the mask so stored values under a 0 mask
    can never leak into the computation. Whether a layer spikes and may be
    pruned follows from its place in the Network: all but the readout.
    """

    weights: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.uint8)
        if self.weights.shape != self.mask.shape:
            raise ValueError(
                f"weights shape {self.weights.shape} != mask shape {self.mask.shape}"
            )

    def effective(self) -> np.ndarray:
        """Weights with the mask applied."""
        return self.weights * self.mask

    def apply_mask(self) -> None:
        """Force stored weights to exactly 0 wherever the mask is 0."""
        self.weights[self.mask == 0] = 0.0

    @property
    def n_weights(self) -> int:
        return self.weights.size

    @property
    def n_masked(self) -> int:
        return int(np.count_nonzero(self.mask == 0))


@dataclass
class ActivationRecord:
    """Everything a metrics pass needs from one forward run.

    Stores the binary input spikes, the binary spike train of every hidden
    layer, and the real-valued output membranes, all time-major.
    """

    input_spikes: np.ndarray
    hidden_spikes: list[np.ndarray]
    output_membrane: np.ndarray
    timesteps: int = field(default=0)

    def layer_inputs(self, layer_index: int) -> np.ndarray:
        """Activations feeding connection layer `layer_index` (0-based)."""
        if layer_index == 0:
            return self.input_spikes
        return self.hidden_spikes[layer_index - 1]


class Network:
    """A configured LIF decoder: config plus one WeightLayer per connection.

    The final (readout) layer is exempt from pruning: the prunable layers
    are all the others.
    """

    def __init__(self, config: NetworkConfig, layers: list[WeightLayer]):
        if len(layers) != config.n_layers:
            raise ValueError("layer count does not match config")
        for i, layer in enumerate(layers):
            expect = (config.layer_dims[i + 1], config.layer_dims[i])
            if layer.weights.shape != expect:
                raise ValueError(
                    f"layer {i} shape {layer.weights.shape}, expected {expect}"
                )
        self.config = config
        self.layers = layers

    @classmethod
    def from_config(cls, config: NetworkConfig, init_scale: float = 1.0) -> "Network":
        """Seeded dense initialization; weights ~ N(0, init_scale^2/fan_in)."""
        rng = np.random.default_rng(config.seed)
        layers = []
        for i in range(config.n_layers):
            fan_in = config.layer_dims[i]
            fan_out = config.layer_dims[i + 1]
            w = rng.normal(0.0, init_scale / math.sqrt(fan_in), size=(fan_out, fan_in))
            mask = np.ones((fan_out, fan_in), dtype=np.uint8)
            layers.append(WeightLayer(weights=w, mask=mask))
        return cls(config, layers)

    @property
    def input_dim(self) -> int:
        return self.config.layer_dims[0]

    def prunable_layers(self) -> list[WeightLayer]:
        return self.layers[:-1]

    def apply_masks(self) -> None:
        for layer in self.layers:
            layer.apply_mask()

    def snapshot(self) -> dict:
        """Deep copy of weights and masks (in-memory checkpoint)."""
        return {
            "config": self.config,
            "weights": [l.weights.copy() for l in self.layers],
            "masks": [l.mask.copy() for l in self.layers],
        }

    def restore(self, snap: dict) -> None:
        """Bitwise restore of a snapshot taken from this topology."""
        if snap["config"].layer_dims != self.config.layer_dims:
            raise ValueError("snapshot topology does not match network")
        for layer, w, m in zip(self.layers, snap["weights"], snap["masks"]):
            layer.weights = w.copy()
            layer.mask = m.copy()


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward_window(net: Network, x: np.ndarray, state: list[np.ndarray],
                   mode: str = SPIKING, width: float = 1.0):
    """Run one window of B sequences; returns (acts, membranes, final_state).

    x is [Tw x B x input_dim] float64: B independent equal-length sequences
    advance in lockstep. state holds one [B x H] membrane array per
    connection layer and is not mutated. acts[0] is x and acts[l + 1] the
    output of connection layer l (its spikes, or for the readout its
    membrane, so acts[-1] is the prediction); membranes[l] is layer l's
    pre-reset membrane. Both are [Tw x B x H] per layer. DIFFERENTIABLE mode
    (test-only) replaces the spike step with sigmoid((u - threshold)/width).

    Layer-major: each layer's input current for the whole window is one GEMM
    over the layer below's finished output, written straight into the
    membrane record; then an elementwise scan runs u = I + v * decay in time
    order and fires and resets in place.
    """
    dims = net.config.layer_dims
    if x.ndim != 3 or x.shape[2] != dims[0]:
        raise ValueError(f"expected [Tw x B x {dims[0]}] input, got shape {x.shape}")
    Tw, B = x.shape[0], x.shape[1]
    if [np.shape(v) for v in state] != [(B, d) for d in dims[1:]]:
        raise ValueError(f"state needs one [{B} x H] membrane array per layer")
    p = net.config.lif
    decay = p.decay
    readout = net.config.n_layers - 1
    acts = [x]
    membranes = []
    final_state = []
    for i, layer in enumerate(net.layers):
        a = acts[-1]
        # C-contiguous W^T: BLAS takes another kernel for the transposed view,
        # which rounds the current differently in the last bit
        w_t = layer.effective().T.copy()
        u = (a.reshape(Tw * B, dims[i]) @ w_t).reshape(Tw, B, dims[i + 1])
        v = state[i]
        if i == readout:
            for ut in u:
                ut += v * decay
                v = ut
            out = u
        elif mode == SPIKING:
            fired = np.empty(u.shape, dtype=bool)
            for ut, ft in zip(u, fired):
                ut += v * decay
                np.greater_equal(ut, p.threshold, out=ft)
                v = np.where(ft, p.reset_value, ut)
            out = fired.astype(np.float64)
        else:
            out = np.empty_like(u)
            for ut, st in zip(u, out):
                ut += v * decay
                s = _sigmoid((ut - p.threshold) / width)
                st[...] = s
                v = ut * (1.0 - s) + p.reset_value * s
        acts.append(out)
        membranes.append(u)
        final_state.append(v)
    return acts, membranes, final_state


def network_forward(net: Network, spikes: np.ndarray):
    """Run one sequence from zero membranes; returns (prediction, record).

    spikes is time-major [T x input_dim] binary. Returns the [T x 2] velocity
    prediction and an ActivationRecord of every spike and output membrane.
    This is forward_window at B=1 over consecutive windows of _EVAL_WINDOW
    timesteps with the state carried across.
    """
    spikes = np.asarray(spikes)
    if spikes.ndim != 2 or spikes.shape[1] != net.input_dim:
        raise ValueError(
            f"expected [T x {net.input_dim}] input, got shape {spikes.shape}"
        )
    T = spikes.shape[0]
    dims = net.config.layer_dims
    hidden = [np.zeros((T, d), dtype=np.uint8) for d in dims[1:-1]]
    out = np.zeros((T, 2))
    state = [np.zeros((1, d)) for d in dims[1:]]
    for lo in range(0, T, _EVAL_WINDOW):
        hi = min(lo + _EVAL_WINDOW, T)
        x = spikes[lo:hi, None, :].astype(np.float64)
        acts, _, state = forward_window(net, x, state)
        for h, a in zip(hidden, acts[1:-1]):
            h[lo:hi] = a[:, 0]
        out[lo:hi] = acts[-1][:, 0]

    record = ActivationRecord(
        input_spikes=np.asarray(spikes != 0, dtype=np.uint8),
        hidden_spikes=hidden,
        output_membrane=out,
        timesteps=T,
    )
    return out, record
