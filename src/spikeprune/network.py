"""Leaky integrate-and-fire network core.

A network is a stack of dense layers with binary prune masks. Hidden layers
hold spiking LIF neurons; the final layer holds two non-spiking LIF neurons
whose membrane potentials are read out directly as the X/Y velocity
prediction. Per timestep each neuron decays its membrane by exp(-dt/tau),
integrates the masked weighted sum of presynaptic spikes, and (if spiking)
fires and resets wherever the membrane reaches the threshold.

The per-step update lives in one helper, `_lif_scan`: add the decayed
membrane carried from the step before, compare with the threshold, and
carry on the decayed membrane, reset (as reset_value·decay, the same bits)
wherever a neuron fired. It runs in time order, elementwise; every GEMM runs
outside it, over whole windows.

Training calls `forward_window`: a window of timesteps for B equal-length
sequences in lockstep, from a given membrane state. It is layer-major: the
network is feed-forward, so each layer's input current for the whole window
is one GEMM over the finished output of the layer below, against the
C-contiguous copy of W^T, pooling the B sequences into [Tw·B] rows; then
the layer's membranes are scanned.

Eval and validation share one driver, `_forward_sequences`: it groups
sequences by length and runs each group in batches of up to _EVAL_BATCH
sequences, in fixed windows of _EVAL_WINDOW timesteps with the state carried
across. Each layer's current is one [Tw x K] GEMM per sequence: BLAS picks
its GEMM kernel by the shape of the call, and different kernels round a row
differently in the last bit, so a GEMM pooled over a batch could give a
sequence other bits than it gets alone. The driver is a wavefront over the
windows: at stage s, connection layer l runs window s - l, whose input the
layer below made at stage s - 1. All layers in flight then advance in one
scan over stage buffers that stack their neurons as columns, [Tw x ΣH x B];
the readout columns have a NaN threshold, so they never fire and their
update stays u = I + decay·u. When the lowest layer in flight is on a short
final window, the scan drops its columns once that window ends. The GEMMs
have the shapes of a B=1 run and the scan is elementwise, so a sequence's
bits depend neither on B nor on which layers share its scan: eval is
reproducible bit for bit per segment, and the validation loss is the MSE of
exactly eval's prediction. At most n_layers windows are in flight, in
buffers allocated once per batch, so memory stays bounded on long sessions.
`network_forward` is the one-sequence case.
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

# Timesteps per window in eval and validation. It bounds their memory: a
# batch holds one window of every layer in flight, however long the
# sequences are.
_EVAL_WINDOW = 1000
# Most equal-length sequences eval and validation run together. At 96 input
# channels a batch of 8 raised the eval peak RSS by 26 MB and ran no faster
# than two batches of 4.
_EVAL_BATCH = 4


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


def _lif_scan(u, fired, d, threshold, decay: float, reset_decayed: float) -> None:
    """Advance membranes through u's time steps, in place: the LIF update.

    u is [Tw x ...]: u[t] holds step t's input current and becomes its
    pre-reset membrane u[t] + d, where d holds the decayed membranes carried
    from the step before. fired[t] gets u[t] >= threshold, and d becomes
    u[t]·decay, or reset_decayed = reset_value·decay wherever a neuron
    fired: the bits of decaying the reset membrane. fired None marks
    readout-only columns, which never fire and skip the compare and reset.
    """
    if fired is None:
        for ut in u:
            ut += d
            np.multiply(ut, decay, out=d)
        return
    for ut, ft in zip(u, fired):
        ut += d
        np.greater_equal(ut, threshold, out=ft)
        np.multiply(ut, decay, out=d)
        np.putmask(d, ft, reset_decayed)


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
    over the layer below's finished output, pooling the B sequences into
    [Tw·B] rows and written straight into the membrane record; then
    _lif_scan runs the membrane update in time order, in place.
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
        if i == readout or mode == SPIKING:
            fired = None if i == readout else np.empty(u.shape, dtype=bool)
            _lif_scan(u, fired, v * decay, p.threshold, decay, p.reset_value * decay)
            out = u if fired is None else fired.astype(np.float64)
            if Tw:
                v = u[-1] if fired is None else np.where(fired[-1], p.reset_value, u[-1])
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


def _forward_sequences(net: Network, sequences) -> ActivationRecord:
    """Run each sequence from zero membranes; returns their pooled record.

    sequences are time-major [T x input_dim] arrays. The record holds them
    end to end in the given order, so its output_membrane is the prediction
    of every sequence concatenated. Equal-length sequences advance together,
    up to _EVAL_BATCH at a time, in windows of _EVAL_WINDOW timesteps as a
    wavefront over the layers (module docstring); a sequence's bits do not
    depend on which others share its batch.
    """
    dims = net.config.layer_dims
    sequences = [np.asarray(s) for s in sequences]
    for s in sequences:
        if s.ndim != 2 or s.shape[1] != dims[0]:
            raise ValueError(f"expected [T x {dims[0]}] input, got shape {s.shape}")
    starts = np.cumsum([0] + [s.shape[0] for s in sequences]).tolist()
    total = starts[-1]
    record = ActivationRecord(
        input_spikes=np.empty((total, dims[0]), dtype=np.uint8),
        hidden_spikes=[np.empty((total, d), dtype=np.uint8) for d in dims[1:-1]],
        output_membrane=np.empty((total, dims[-1])),
        timesteps=total,
    )
    groups: dict[int, list[int]] = {}
    for k, s in enumerate(sequences):
        record.input_spikes[starts[k]:starts[k + 1]] = s != 0
        if s.shape[0]:
            groups.setdefault(s.shape[0], []).append(k)
    # C-contiguous W^T, as in forward_window
    w_t = [layer.effective().T.copy() for layer in net.layers]
    for group in groups.values():
        for c in range(0, len(group), _EVAL_BATCH):
            members = group[c:c + _EVAL_BATCH]
            _wavefront(net, w_t, [sequences[k] for k in members],
                       [starts[k] for k in members], record)
    return record


def _wavefront(net: Network, w_t, xs, starts, record: ActivationRecord) -> None:
    """Run B equal-length sequences, writing their rows of record from starts.

    At stage s connection layer l runs window s - l, so the lowest layer in
    flight runs the latest window, the only one that can be short. Each
    layer's current is one [n x K] GEMM per sequence, the shapes of a B=1
    run; then one _lif_scan advances every layer in flight.
    """
    dims = net.config.layer_dims
    n_layers = net.config.n_layers
    p = net.config.lif
    T, B = xs[0].shape[0], len(xs)
    Tw = min(T, _EVAL_WINDOW)
    n_windows = -(-T // Tw)
    # layer l's neurons are the columns off[l]:off[l + 1] of the stage buffers
    off = np.cumsum([0, *dims[1:]]).tolist()
    readout = off[-2]
    u = np.empty((Tw, off[-1], B))
    fired = np.empty((Tw, off[-1], B), dtype=bool)
    spikes = fired.view(np.uint8)  # numpy casts uint8 to float64 faster than bool
    d = np.zeros((off[-1], B))  # decayed membranes, carried from window to window
    threshold = np.full((off[-1], B), p.threshold)
    threshold[readout:] = np.nan  # the readout never fires
    inputs = np.empty((Tw, B, max(dims[:-1])))  # a layer's input spikes as float64
    current = np.empty((Tw, B, max(dims[1:])))

    def scan(rows, c0, c1):
        cols = slice(c0, c1)
        _lif_scan(u[rows, cols], None if c0 >= readout else fired[rows, cols],
                  d[cols], threshold[cols], p.decay, p.reset_value * p.decay)

    for stage in range(n_windows + n_layers - 1):
        first = max(0, stage - n_windows + 1)
        last = min(n_layers - 1, stage)
        spans = []
        for l in range(first, last + 1):
            lo = (stage - l) * Tw
            n = min(Tw, T - lo)
            spans.append((l, lo, n))
            a = inputs[:n, :, :dims[l]]
            if l == 0:
                for b, x in enumerate(xs):
                    a[:, b] = x[lo:lo + n]
            else:
                # the spikes layer l - 1 made for this window last stage
                np.copyto(a.transpose(0, 2, 1), spikes[:n, off[l - 1]:off[l]])
            g = current[:n, :, :dims[l + 1]]
            np.matmul(a.transpose(1, 0, 2), w_t[l], out=g.transpose(1, 0, 2))
            np.copyto(u[:n, off[l]:off[l + 1]], g.transpose(0, 2, 1))
        # once the lowest layer's short window ends, the layers above run on
        n_first = spans[0][2]
        scan(slice(0, n_first), off[first], off[last + 1])
        if n_first < Tw and first < last:
            scan(slice(n_first, Tw), off[first + 1], off[last + 1])
        for l, lo, n in spans:
            src = u if l == n_layers - 1 else spikes
            dst = record.output_membrane if l == n_layers - 1 else record.hidden_spikes[l]
            for b, k0 in enumerate(starts):
                dst[k0 + lo:k0 + lo + n] = src[:n, off[l]:off[l + 1], b]


def network_forward(net: Network, spikes: np.ndarray):
    """Run one sequence from zero membranes; returns (prediction, record).

    spikes is time-major [T x input_dim] binary. Returns the [T x 2] velocity
    prediction and an ActivationRecord of every spike and output membrane.
    This is the one-sequence case of _forward_sequences, with the bits of
    forward_window at B=1 over consecutive windows of _EVAL_WINDOW
    timesteps, the state carried across.
    """
    record = _forward_sequences(net, [spikes])
    return record.output_membrane, record
