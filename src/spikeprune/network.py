"""Leaky integrate-and-fire network core.

A network is a stack of dense layers with binary prune masks, each weight 0
where its mask is. Hidden layers hold spiking LIF neurons; the final layer
holds two non-spiking LIF neurons whose membrane potentials are read out
directly as the X/Y velocity prediction. Per timestep each neuron decays its
membrane by exp(-dt/tau), integrates the weighted sum of presynaptic spikes,
and (if spiking) fires and resets wherever the membrane reaches threshold.

The per-step update lives in one helper, `_lif_scan`: add the decayed
membrane carried from the step before, compare with the threshold, and
carry on the decayed membrane, reset (as reset_value·decay, the same bits)
wherever a neuron fired. It runs in time order, elementwise; every GEMM runs
outside it, over whole windows. Its threshold, decay and reset operands are
float64 arrays, not Python floats, taken as given: numpy converts a Python
float operand into an array on every call, up to a third of a step op's
cost at training widths, and a 0-d array gives the same IEEE operations on
the same values. A `_Workspace` makes them once (`_lif_operands`), the eval
wavefront once a call.

Training calls `forward_window`: a window of timesteps for B equal-length
sequences in lockstep, from a given membrane state. It is layer-major: the
network is feed-forward, so each layer's input current for the whole window
is one GEMM over the finished output of the layer below, against the
C-contiguous copy of W^T, pooling the B sequences into [Tw·B] rows; then
the layer's membranes are scanned. It runs in a `_Workspace`: buffers for
the window's float64 input and every layer's window, the per-step views
the scans iterate and the membranes carried to the next window, made once
for many windows of one shape (training makes one per length group), so a
training window allocates no array and the scans are its only per-step
cost. The workspace also holds what the window's shape fixes: the scan
operands and the [Tw·B x H] row views its GEMMs read and write, of which a
window of n steps slices the first n·B rows.

Eval and validation share one driver, `_forward_sequences`: one wavefront
over fixed windows of _EVAL_WINDOW timesteps, on up to _EVAL_LANES lanes.
Sequences are packed longest first onto the lane with the fewest windows;
a lane runs its sequences back to back, each from a window boundary, and
carries the state across its windows. Each layer's current is one [n x K]
GEMM per window of a sequence: BLAS picks its GEMM kernel by the shape of
the call, and different kernels round a row differently in the last bit,
so a GEMM pooled over lanes could give a sequence other bits than it gets
alone. At stage s, connection layer l runs window s - l of every lane,
whose input the layer below made at stage s - 1; a sequence's first window
zeroes the layer's membranes on its lane. The GEMMs write their currents
straight into stage buffers [Tw x B x ΣH] that stack every layer's neurons
as columns, and one scan advances every column of every lane; the readout
columns have a NaN threshold, so they never fire and their update stays
u = I + decay·u. Rows no GEMM writes in a stage (the tail of a short window,
an idle lane, a layer not in flight) are zeroed, so the scan only decays
their membranes. The GEMMs have the shapes of a B=1 run and the scan is
elementwise, so a sequence's bits depend neither on its lane nor on the
sequences and layers sharing its scan: eval is reproducible bit for bit
per segment, and the validation loss is the MSE of exactly eval's
prediction. At most n_layers windows per lane are in flight, in buffers
allocated once per call, so memory stays bounded on long sessions. The
windows are short (_EVAL_WINDOW): the wavefront's pipeline fill scans
(n_layers - 1)·Tw extra rows, and short windows keep the stage buffers in
cache.

The driver keeps no spike train. It returns the prediction and, per input
column of every layer, the number of timesteps the column was nonzero
(SpikeCounts): each layer sums the input rows its GEMMs read, and the
activation metrics need nothing more. `network_forward` runs one sequence
through forward_window's kernel, window by window at B=1, and keeps every
step's spikes (ActivationRecord); its GEMMs have the wavefront's shapes, so
it gives the same bits by another path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LifParams",
    "NetworkConfig",
    "WeightLayer",
    "ActivationRecord",
    "SpikeCounts",
    "Network",
    "forward_window",
    "network_forward",
]

SPIKING = "spiking"
DIFFERENTIABLE = "differentiable"

# Timesteps per window in eval and validation. It bounds their memory: the
# wavefront holds one window per lane of every layer in flight, however long
# the sequences are. Short windows cost less: the wavefront's pipeline fill
# scans (n_layers - 1)·Tw extra rows (3,000 on a 1,250-step validation
# segment at 1000 steps), at 128 steps 8 lanes at 96 channels have 3.4 MB of
# stage buffers, and every GEMM stays under 10^6 multiply-adds (README
# "Determinism"). A sweep over 64 to 256 steps found 128 fastest on eval and
# validate (ROADMAP, Settled).
_EVAL_WINDOW = 128
# Most lanes eval and validation run side by side. More lanes make each
# scan step wider, so it costs less per lane-step, but lanes left idle once
# the shorter ones run out still cost their scan; a sweep over 4 to 16 lanes
# found 8 fastest on eval (ROADMAP, Settled).
_EVAL_LANES = 8


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
        for name in ("tau", "threshold", "reset_value", "dt"):
            try:
                float(getattr(self, name))
            except OverflowError:  # an int past float64's range, e.g. from a JSON header
                raise ValueError(f"{name} does not fit a float64") from None
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if math.isnan(self.dt / self.tau):  # both infinite: a NaN decay
            raise ValueError(f"dt / tau must not be NaN, got dt={self.dt}, tau={self.tau}")
        if not self.threshold >= -math.inf:  # +-inf is legal: never or always fires
            raise ValueError(f"threshold must not be NaN, got {self.threshold}")
        if not math.isfinite(self.reset_value):
            raise ValueError(f"reset_value must be finite, got {self.reset_value}")

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

    The mask is stored as uint8; it may come as bool, int or float, but
    every entry must be 0 or 1 (ValueError otherwise).

    Wherever mask is 0 the weight is ±0.0: the constructor sets a nonzero
    weight there to +0.0, in a new array, leaving the caller's as it was.
    The forward and backward passes, eval and the metrics read the weights
    as they are. An in-place edit of weights or mask must keep this
    invariant, or build the layer again. Whether a layer spikes and may be
    pruned follows from its place in the Network: all but the readout.
    """

    weights: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        mask = np.asarray(self.mask)
        # the cast would turn 0.5 into 0 and -1 into 255, and training's
        # live index assumes 0/1. A uint8 mask, the package's own, is checked
        # by its max, which allocates nothing: temporaries here shift the
        # heap that eval's buffers are later taken from
        binary = (mask.max(initial=0) <= 1 if mask.dtype == np.uint8
                  else ((mask == 0) | (mask == 1)).all())
        if not binary:
            raise ValueError("mask entries must be 0 or 1")
        self.mask = np.asarray(mask, dtype=np.uint8)
        if self.weights.shape != self.mask.shape:
            raise ValueError(
                f"weights shape {self.weights.shape} != mask shape {self.mask.shape}"
            )
        # a mask with no zero, such as a dense layer's, costs only its min
        if self.mask.min(initial=1) == 0:
            stray = (self.mask == 0) & (self.weights != 0.0)
            if stray.any():
                self.weights = np.where(stray, 0.0, self.weights)

    @property
    def n_weights(self) -> int:
        return self.weights.size

    @property
    def n_masked(self) -> int:
        return int(np.count_nonzero(self.mask == 0))


@dataclass
class ActivationRecord:
    """Every activation of one forward run, step by step (network_forward).

    Stores the binary input spikes, the binary spike train of every hidden
    layer, and the real-valued output membranes, all time-major; timesteps
    is the output's row count.
    """

    input_spikes: np.ndarray
    hidden_spikes: list[np.ndarray]
    output_membrane: np.ndarray

    @property
    def timesteps(self) -> int:
        return len(self.output_membrane)

    @property
    def fired(self) -> list[np.ndarray]:
        """Per connection layer, the steps each of its input columns was nonzero."""
        return [np.count_nonzero(a, axis=0) for a in (self.input_spikes, *self.hidden_spikes)]

    def layer_inputs(self, layer_index: int) -> np.ndarray:
        """Activations feeding connection layer `layer_index` (0-based)."""
        if layer_index == 0:
            return self.input_spikes
        return self.hidden_spikes[layer_index - 1]


@dataclass
class SpikeCounts:
    """What eval and validation keep of a forward run (_forward_sequences).

    fired[l] has one int64 entry per input column of connection layer l:
    the number of timesteps, over every sequence, in which that column was
    nonzero (fired[0] counts the input channels, fired[l + 1] the spikes of
    hidden layer l). output_membrane is the [T x 2] prediction; timesteps
    is its row count. The metrics need no more than these counts, so no
    spike train is kept.
    """

    fired: list[np.ndarray]
    output_membrane: np.ndarray

    @property
    def timesteps(self) -> int:
        return len(self.output_membrane)


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
    def from_config(cls, config: NetworkConfig) -> "Network":
        """Seeded dense initialization; weights ~ N(0, 1/fan_in)."""
        rng = np.random.default_rng(config.seed)
        layers = []
        for i in range(config.n_layers):
            fan_in = config.layer_dims[i]
            fan_out = config.layer_dims[i + 1]
            w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_out, fan_in))
            mask = np.ones((fan_out, fan_in), dtype=np.uint8)
            layers.append(WeightLayer(weights=w, mask=mask))
        return cls(config, layers)

    @property
    def input_dim(self) -> int:
        return self.config.layer_dims[0]

    def prunable_layers(self) -> list[WeightLayer]:
        return self.layers[:-1]

    def apply_masks(self) -> None:
        # no caller in the package: bench/run.py traces it by this name
        for layer in self.layers:
            np.putmask(layer.weights, layer.mask == 0, 0.0)

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


def _lif_scan(u, fired, d, threshold, decay, reset_decayed) -> None:
    """Advance membranes through u's time steps, in place: the LIF update.

    u is a sequence of step arrays (an array [Tw x ...] or a list of its
    rows): u[t] holds step t's input current and becomes its pre-reset
    membrane u[t] + d, where d holds the decayed membranes carried from the
    step before. fired[t] gets u[t] >= threshold, and d becomes u[t]·decay,
    or reset_decayed = reset_value·decay wherever a neuron fired: the bits
    of decaying the reset membrane. fired None marks readout-only columns,
    which never fire and skip the compare and reset.

    threshold, decay and reset_decayed are float64 arrays, used as given:
    0-d from _lif_operands, or the wavefront's per-column threshold.
    """
    add, greater_equal, multiply, putmask = np.add, np.greater_equal, np.multiply, np.putmask
    if fired is None:
        for ut in u:
            add(ut, d, ut)
            multiply(ut, decay, d)
        return
    for ut, ft in zip(u, fired):
        add(ut, d, ut)
        greater_equal(ut, threshold, ft)
        multiply(ut, decay, d)
        putmask(d, ft, reset_decayed)


def _lif_operands(p: LifParams):
    """_lif_scan's threshold, decay and reset_value·decay as float64 0-d arrays.

    numpy converts a Python float operand into an array on every call, up to
    a third of a step op's cost at training widths, while a 0-d array goes
    in as it is and gives the same IEEE operations on the same values
    (ROADMAP, Settled).
    """
    return tuple(np.asarray(v, dtype=np.float64)
                 for v in (p.threshold, p.decay, p.reset_value * p.decay))


class _Workspace:
    """forward_window's buffers for windows of up to Tw steps of B sequences.

    Made once for many windows of config's shape. The window's input x
    [Tw x B x input_dim] as float64, into which train_epoch,
    compute_gradients and network_forward copy each window's spikes, so
    none casts more than a window at a time. Per connection layer: the
    C-contiguous W^T, the pre-reset membranes u [Tw x B x H], into which the
    GEMM writes the input current, and the decayed membranes d [B x H] the
    scan carries from step to step and from window to window (zero at
    first). Per hidden layer: the fired flags and the spikes as float64, the
    GEMM input of the layer above. Made once, here, too: the per-step views
    the scans iterate; the [Tw·B x H] row views the GEMMs take of u, of the
    spikes and, as uint8 for the spikes' cast, of the fired flags; and the
    scan operands threshold, decay and reset_decayed (_lif_operands). A
    window of n < Tw steps uses the first n steps, the first n·B rows.
    """

    def __init__(self, config: NetworkConfig, Tw: int, B: int):
        dims = config.layer_dims
        self.Tw = Tw
        self.threshold, self.decay, self.reset_decayed = _lif_operands(config.lif)
        shapes = [(Tw, B, h) for h in dims[1:]]
        self.x = np.empty((Tw, B, dims[0]))
        self.w_t = [np.empty((k, h)) for k, h in zip(dims[:-1], dims[1:])]
        self.u = [np.empty(shape) for shape in shapes]
        self.d = [np.zeros(shape[1:]) for shape in shapes]
        fired = [np.empty(shape, dtype=bool) for shape in shapes[:-1]]
        self.spikes = [np.empty(shape) for shape in shapes[:-1]]
        self.u_t = [list(u) for u in self.u]
        self.fired_t = [list(f) for f in fired]
        self.u_rows = [u.reshape(Tw * B, u.shape[2]) for u in self.u]
        self.spike_rows = [s.reshape(Tw * B, s.shape[2]) for s in self.spikes]
        # numpy casts uint8 to float64 faster than bool
        self.fired_rows = [f.view(np.uint8).reshape(Tw * B, f.shape[2]) for f in fired]


def _forward_window(net: Network, ws: _Workspace, x: np.ndarray, mode: str):
    """Advance ws's membranes over x [n x B x input_dim]; returns (acts, membranes).

    The body of forward_window: the state is the workspace's d, left as the
    next window's start, and acts and membranes are views of ws, valid
    until its next window. The GEMMs read and write ws's row views, against
    the layers' weights as they are (zero under the masks, WeightLayer), and
    the scans take ws's operands.
    """
    n, B = x.shape[0], x.shape[1]
    rows = n * B
    p = net.config.lif
    readout = net.config.n_layers - 1
    acts = [x]
    membranes = []
    x_rows = x.reshape(rows, x.shape[2])
    for i, layer in enumerate(net.layers):
        # C-contiguous W^T: BLAS takes another kernel for the transposed view,
        # which rounds the current differently in the last bit
        w_t = ws.w_t[i]
        np.copyto(w_t, layer.weights.T)
        np.matmul(x_rows, w_t, out=ws.u_rows[i][:rows])
        u = ws.u[i][:n]
        d = ws.d[i]
        if i == readout:
            _lif_scan(ws.u_t[i][:n], None, d, ws.threshold, ws.decay, ws.reset_decayed)
            out = u
        elif mode == SPIKING:
            _lif_scan(ws.u_t[i][:n], ws.fired_t[i][:n], d, ws.threshold, ws.decay,
                      ws.reset_decayed)
            out = ws.spikes[i][:n]
            x_rows = ws.spike_rows[i][:rows]
            np.copyto(x_rows, ws.fired_rows[i][:rows])
        else:
            out = ws.spikes[i][:n]
            x_rows = ws.spike_rows[i][:rows]
            for ut, st in zip(u, out):
                ut += d
                s = _sigmoid(ut - p.threshold)
                st[...] = s
                np.multiply(ut * (1.0 - s) + p.reset_value * s, ws.decay, out=d)
        acts.append(out)
        membranes.append(u)
    return acts, membranes


def forward_window(net: Network, x: np.ndarray, state: list[np.ndarray],
                   mode: str = SPIKING, ws=None):
    """Run one window of B sequences; returns (acts, membranes, final_state).

    x is [Tw x B x input_dim] float64: B independent equal-length sequences
    advance in lockstep. state holds one [B x H] membrane array per
    connection layer and is not mutated. acts[0] is x and acts[l + 1] the
    output of connection layer l (its spikes, or for the readout its
    membrane, so acts[-1] is the prediction); membranes[l] is layer l's
    pre-reset membrane. Both are [Tw x B x H] per layer, views of the
    workspace ws (a new one by default). DIFFERENTIABLE mode (test-only)
    replaces the spike step with sigmoid(u - threshold).

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
    if ws is None:
        ws = _Workspace(net.config, Tw, B)
    p = net.config.lif
    for d, v in zip(ws.d, state):
        np.multiply(v, p.decay, out=d)
    acts, membranes = _forward_window(net, ws, x, mode)
    if not Tw:
        return acts, membranes, [np.array(v, dtype=np.float64) for v in state]
    final_state = [np.where(s[-1] != 0, p.reset_value, u[-1]) if mode == SPIKING
                   else u[-1] * (1.0 - s[-1]) + p.reset_value * s[-1]
                   for u, s in zip(membranes[:-1], acts[1:-1])]
    return acts, membranes, final_state + [membranes[-1][-1].copy()]


def _forward_sequences(net: Network, sequences) -> SpikeCounts:
    """Run each sequence from zero membranes; returns their pooled counts.

    sequences are time-major [T x input_dim] arrays. The counts pool them
    in the given order, so their output_membrane is the prediction of every
    sequence concatenated. They run on up to _EVAL_LANES lanes, in windows
    of _EVAL_WINDOW timesteps, as one wavefront over the layers (module
    docstring); a sequence's bits do not depend on its lane or on the
    sequences beside it.
    """
    dims = net.config.layer_dims
    sequences = [np.asarray(s) for s in sequences]
    for s in sequences:
        if s.ndim != 2 or s.shape[1] != dims[0]:
            raise ValueError(f"expected [T x {dims[0]}] input, got shape {s.shape}")
    lengths = [s.shape[0] for s in sequences]
    starts = np.cumsum([0] + lengths).tolist()
    pred = np.empty((starts[-1], dims[-1]))
    if not starts[-1]:
        return SpikeCounts([np.zeros(k, dtype=np.int64) for k in dims[:-1]], pred)
    # a lane runs its sequences' windows back to back, (k, lo, n) each: the
    # longest first, onto the lane with the fewest windows
    Tw = min(_EVAL_WINDOW, max(lengths))
    lanes = [[] for _ in range(min(_EVAL_LANES, sum(T > 0 for T in lengths)))]
    for k in sorted(range(len(sequences)), key=lambda k: -lengths[k]):
        min(lanes, key=len).extend((k, lo, min(Tw, lengths[k] - lo))
                                   for lo in range(0, lengths[k], Tw))
    return SpikeCounts(_wavefront(net, sequences, starts, lanes, Tw, pred), pred)


def _wavefront(net: Network, sequences, starts, lanes, Tw: int, pred) -> list[np.ndarray]:
    """Run every lane's windows, writing each sequence's rows of pred.

    At stage s connection layer l runs window s - l of every lane that has
    one. Its current is one [n x K] GEMM per window, the shape of a B=1 run,
    written into the layer's columns of u; a sequence's first window zeroes
    the layer's carried membranes on its lane. Every decision is the layer's
    own: when it runs a full window on every lane, its GEMMs go in one
    stacked call; otherwise it first zeroes its columns of u, so the rows no
    GEMM writes (a short window's tail, an idle lane) only decay. Then one
    _lif_scan advances every column of every lane. Which lanes run window w,
    and whether all of them run it full, depends on w alone, so it is
    worked out once per call, not for every layer at every stage.

    Returns SpikeCounts.fired: per connection layer, the number of rows in
    which each input column was nonzero. Each layer sums, in float64, the
    rows its GEMMs read from its input block: all of them in one GEMV after
    the stacked call, otherwise each window's n rows after its GEMM, since
    the rows past them are stale or left by an idle lane. A sum of 0.0s and
    1.0s is exact in float64, and a session's spikes are 0 or 1
    (SpikeSession checks), so each sum is the nonzero count.
    """
    dims = net.config.layer_dims
    n_layers = net.config.n_layers
    p = net.config.lif
    _, decay, reset_decayed = _lif_operands(p)
    B = len(lanes)
    # layer l's neurons are the columns off[l]:off[l + 1] of the stage buffers
    off = np.cumsum([0, *dims[1:]]).tolist()
    u = np.empty((Tw, B, off[-1]))
    fired = np.empty((Tw, B, off[-1]), dtype=bool)
    spikes = fired.view(np.uint8)  # numpy casts uint8 to float64 faster than bool
    d = np.zeros((B, off[-1]))  # decayed membranes, carried from window to window
    threshold = np.full((B, off[-1]), p.threshold)
    threshold[:, off[-2]:] = np.nan  # the readout never fires
    u_t, fired_t = list(u), list(fired)
    # every layer's input as float64, lane-major [B x Tw x K]: the input
    # spikes, and the hidden spikes, cast in one copy into h laid out like u
    x0 = np.empty((B, Tw, dims[0]))
    h = np.empty((Tw, B, off[-1]))
    xs = [x0] + [h[:, :, off[l]:off[l + 1]].transpose(1, 0, 2) for l in range(n_layers - 1)]
    # C-contiguous W^T, as in forward_window
    w_t = [layer.weights.T.copy() for layer in net.layers]
    # each layer's input block as [Tw·B x K] rows, all of which a full window reads
    rows = [x0.reshape(B * Tw, dims[0])] + [
        h[:, :, off[l]:off[l + 1]].reshape(Tw * B, -1) for l in range(n_layers - 1)]
    ones = np.ones(Tw * B)
    # the nonzero rows of every input column, as float64
    counts = [np.zeros(k) for k in dims[:-1]]
    # the schedule, per window index: the lanes that run it, with their
    # windows, and whether every lane runs it full
    schedule = []
    for w in range(max(map(len, lanes))):
        run = [(b, lane[w]) for b, lane in enumerate(lanes) if w < len(lane)]
        schedule.append((run, len(run) == B and all(n == Tw for _, (_, _, n) in run)))
    idle = ([], False)

    for stage in range(len(schedule) + n_layers - 1):
        # the spikes each hidden layer made last stage: the input of the layer above
        np.copyto(h, spikes)
        for l, x in enumerate(xs):
            cols = slice(off[l], off[l + 1])
            run, full = schedule[stage - l] if 0 <= stage - l < len(schedule) else idle
            for b, (k, lo, n) in run:
                if l == 0:
                    x0[b, :n] = sequences[k][lo:lo + n]
                if not lo:
                    d[b, cols] = 0.0
            if full:
                # the per-lane [Tw x K] GEMMs in one call, then every row counts
                np.matmul(x, w_t[l], out=u[:, :, cols].transpose(1, 0, 2))
                counts[l] += ones @ rows[l]
                continue
            # rows no GEMM writes (a short window's tail, an idle lane) are
            # zero, so the scan only decays their membranes; stale rows would
            # be added in again at every stage, and must not count
            u[:, :, cols] = 0.0
            for b, (k, lo, n) in run:
                np.matmul(x[b, :n], w_t[l], out=u[:n, b, cols])
                counts[l] += ones[:n] @ x[b, :n]
        _lif_scan(u_t, fired_t, d, threshold, decay, reset_decayed)
        # run is the readout's
        for b, (k, lo, n) in run:
            pred[starts[k] + lo:starts[k] + lo + n] = u[:n, b, off[-2]:]
    return [c.astype(np.int64) for c in counts]


def network_forward(net: Network, spikes: np.ndarray):
    """Run one sequence from zero membranes; returns (prediction, record).

    spikes is time-major [T x input_dim] binary. Returns the [T x 2] velocity
    prediction and an ActivationRecord of every spike and output membrane.
    It runs forward_window's kernel at B=1 over consecutive windows of
    _EVAL_WINDOW timesteps, the state carried across: a driver apart from
    eval's wavefront with the same GEMM shapes, so the same bits, that
    keeps every step's spikes.
    """
    dims = net.config.layer_dims
    spikes = np.asarray(spikes)
    if spikes.ndim != 2 or spikes.shape[1] != dims[0]:
        raise ValueError(f"expected [T x {dims[0]}] input, got shape {spikes.shape}")
    T = len(spikes)
    record = ActivationRecord(
        input_spikes=(spikes != 0).view(np.uint8),
        hidden_spikes=[np.empty((T, h), dtype=np.uint8) for h in dims[1:-1]],
        output_membrane=np.empty((T, dims[-1])),
    )
    ws = _Workspace(net.config, min(_EVAL_WINDOW, T), 1)
    for lo in range(0, T, _EVAL_WINDOW):
        x = ws.x[:min(_EVAL_WINDOW, T - lo)]
        x[:, 0] = spikes[lo:lo + _EVAL_WINDOW]
        acts, _ = _forward_window(net, ws, x, SPIKING)
        for out, act in zip((*record.hidden_spikes, record.output_membrane), acts[1:]):
            out[lo:lo + len(x)] = act[:, 0]
    return record.output_membrane, record
