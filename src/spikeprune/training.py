"""Backpropagation-through-time training for the LIF decoder.

The forward spike step is non-differentiable, so the backward pass swaps in
a unit-width triangular surrogate derivative, max(0, 1 - |u - threshold|);
the reset assignment is detached so no gradient flows through it. A
test-only "differentiable" mode replaces the forward step with
sigmoid(u - threshold) and differentiates the *whole* graph (reset included),
which makes analytic gradients directly checkable against finite
differences. Training itself always runs the spiking forward step, with Adam.

The loss is mean squared error between the output membranes and the velocity
labels at every labeled timestep. Gradients are accumulated over truncated
windows of `batch_length` timesteps and applied once per window; membrane
state carries across windows within a contiguous segment and resets between
segments. Pruned weights are zero on the way in (WeightLayer), and a
masked weight is zeroed again after every update that moved it, so pruned
weights are exactly zero at every observation point.

A training window costs as few numpy calls as the per-step scans allow,
with the bits of a layer-by-layer step:

- Flat optimizer pass. train_epoch packs the layers' weights into one new
  flat vector at the start of every epoch (one concatenate) and makes the
  layers' weights views of it; the gradients are one flat vector too,
  written by matmul(out=) and masked by one multiply. Adam steps the flat
  weights from the flat gradients with flat moments, once a window, not
  once a layer. Its moments advance at every entry. On a net less than
  _INDEXED_MAX_DENSITY live, its update runs only on the live (unmasked)
  weights, indexed once per epoch since masks do not change within an
  epoch, so the update costs what the live weights cost and never writes a
  masked weight. A denser net steps every weight, which is cheaper than
  gathering the live ones, and one putmask against the epoch's zero-mask
  zeroes the masked weights after each step. So the weights stay zero
  under the masks, as WeightLayer makes them, and the forward and backward
  passes read them as they are: no window takes a weights·mask product.
  Every op is elementwise, so the bits do not depend on how the layers are
  laid out, nor on whether a live weight is updated alone or in a pass over
  every entry.
- Two-call reverse scan. A SPIKING hidden layer's membrane gradient is
  du[t] += c·dk[t] with dk = decay·(1 - s) taken once a window, instead of
  du[t] += decay·c·(1 - s[t]). Since s is exactly 0 or 1, dk[t] is decay or
  +0.0, and c·dk[t] has the bits of (decay·c)·(1 - s[t]), the sign of zero
  included: decay·c cannot overflow (decay <= 1), and a product with +0.0
  takes the sign of c either way. DIFFERENTIABLE mode keeps the three-term
  step, its s being a sigmoid.
- A workspace per length group. train_epoch makes one _TrainWorkspace per
  group of equal-length segments, sized [batch_length x B x H] per layer:
  the membranes, fired flags and float spikes, du, dk, the readout error,
  the C-contiguous W^T, and, made once, the per-step views the forward and
  reverse scans iterate, the [batch_length·B x H] row views the GEMMs read
  and write (of the membranes, spikes, fired flags and du) and the LIF
  operands. The window's GEMMs write into it with matmul(out=), a tail
  window uses its first n steps (n·B rows), and it carries the membranes
  from window to window. compute_gradients makes one for its
  single window, so both run the same code. A SPIKING window's forward
  and backward passes allocate no array, and the same operations on the
  same values give the same bits.
- Scalar operands as 0-d arrays. numpy converts a Python float operand
  into an array on every call, so the forward scans (_lif_scan) and the
  reverse scans take the threshold, decay and reset as float64 0-d arrays,
  made once per workspace: the same IEEE operations on the same values,
  without a conversion at every step or every scan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .network import (SPIKING, LifParams, Network, NetworkConfig, _forward_sequences,
                      _forward_window, _Workspace, forward_window)

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "surrogate_spike_grad",
    "mse_loss",
    "compute_gradients",
    "AdamOptimizer",
    "train_epoch",
    "validate",
    "pretrain",
]

class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 2e-3
    max_epochs: int = 100
    batch_length: int = 100

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        _require_int("max_epochs", self.max_epochs, 0)
        _require_int("batch_length", self.batch_length, 1)


def _require_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def surrogate_spike_grad(u, params: LifParams, out=None):
    """Triangular stand-in for d(spike)/d(membrane): max(0, 1 - |u - threshold|).

    Written into out when given (an array shaped like u).
    """
    u = np.asarray(u, dtype=np.float64)
    g = np.subtract(u, params.threshold, out=np.empty_like(u) if out is None else out)
    np.abs(g, out=g)
    np.subtract(1.0, g, out=g)
    np.maximum(0.0, g, out=g)
    return g


def mse_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty prediction")
    return float(np.mean((pred - truth) ** 2))


class _TrainWorkspace(_Workspace):
    """A _Workspace plus _backward_window's buffers.

    Per layer: du [Tw x B x H], first the error arriving from the layer
    above, then the membrane gradient, with its per-step views in reverse
    order and its [Tw·B x H] row view for the GEMMs; per hidden layer
    dk = decay·(1 - s), first the surrogate; the readout's error, and one
    [B x H] carry product per layer. train_epoch
    builds one per length group, compute_gradients one for its window.
    """

    def __init__(self, config: NetworkConfig, Tw: int, B: int):
        super().__init__(config, Tw, B)
        self.err = np.empty((Tw, B, config.layer_dims[-1]))
        self.du = [np.empty(u.shape) for u in self.u]
        self.dk = [np.empty(u.shape) for u in self.u[:-1]]
        self.du_rows = [du.reshape(Tw * B, du.shape[2]) for du in self.du]
        self.du_r = [list(du)[::-1] for du in self.du]
        self.dk_r = [list(dk)[::-1] for dk in self.dk]
        self.carry = [np.empty(d.shape) for d in self.d]
        self.zero = [np.zeros(d.shape) for d in self.d]


def _backward_window(net: Network, ws: _TrainWorkspace, acts, membranes, truth: np.ndarray,
                     mode: str, grads) -> float:
    """Write the window-MSE gradient of every weight matrix into grads.

    acts and membranes are what forward_window returned for the window, run
    in ws with the layers' weights, which carry the gradient down as they
    are (zero under the masks); grads[i] gets layer i's gradient, unmasked.
    Returns the window's summed squared error. The GEMMs read and write
    ws's row views.
    Layer-major, from the readout down: each layer runs a reverse
    elementwise scan over the window, and one GEMM carries its membrane
    gradients to the layer below. A SPIKING hidden layer's scan is
    c = x[t] + c·dk[t], with x the error arriving from above times the
    surrogate and dk = decay·(1 - s) taken once per window (module
    docstring).
    """
    n, B = truth.shape[0], truth.shape[1]
    rows = n * B
    n_layers = net.config.n_layers
    p = net.config.lif
    # 0-d, so the readout's reverse scan does not convert a float every step
    decay = ws.decay
    add, multiply = np.add, np.multiply
    pred = acts[-1]
    err = ws.err[:n]
    np.subtract(pred, truth, out=err)
    du = ws.du[-1][:n]
    np.square(err, out=du)
    sse = float(du.sum())
    multiply(err, 2.0 / pred.size, out=du)
    skip = ws.Tw - n  # the reversed views of the window's n steps
    for i in range(n_layers - 1, -1, -1):
        u = membranes[i]
        du = ws.du[i][:n]  # holds the error arriving from above
        du_r = ws.du_r[i][skip:]
        c = ws.zero[i]
        carry = ws.carry[i]
        if i == n_layers - 1:
            # readout: the membrane feeds the loss directly and the next step
            for du_t in du_r:
                multiply(c, decay, carry)
                add(du_t, carry, du_t)
                c = du_t
        elif mode == SPIKING:
            s = acts[i + 1]
            dk = ws.dk[i][:n]
            du *= surrogate_spike_grad(u, p, out=dk)
            np.subtract(1.0, s, out=dk)
            dk *= decay
            for du_t, dk_t in zip(du_r, ws.dk_r[i][skip:]):
                multiply(c, dk_t, carry)
                add(du_t, carry, du_t)
                c = du_t
        else:
            s = acts[i + 1]
            g = s * (1.0 - s)
            du *= g
            keep = 1.0 - s
            # reset path differentiated too: v = u(1-s) + r*s
            reset_gap = p.reset_value - u
            for du_t, kt, rt, gt in zip(du_r, keep[::-1], reset_gap[::-1], g[::-1]):
                dc = decay * c
                du_t += dc * kt
                du_t += dc * rt * gt
                c = du_t
        du = ws.du_rows[i][:rows]
        if i > 0:
            np.matmul(du, net.layers[i].weights, out=ws.du_rows[i - 1][:rows])
        x = ws.spike_rows[i - 1][:rows] if i > 0 else acts[0].reshape(rows, -1)
        np.matmul(du.T, x, out=grads[i])
    return sse


def _layer_views(flat: np.ndarray, layers) -> list[np.ndarray]:
    """Views of flat shaped like each layer's weights, end to end in layer order."""
    views = []
    lo = 0
    for layer in layers:
        hi = lo + layer.weights.size
        views.append(flat[lo:hi].reshape(layer.weights.shape))
        lo = hi
    return views


def _flat_mask(net: Network) -> np.ndarray:
    """Every layer's mask as one flat float64 vector, laid out as _layer_views."""
    return np.concatenate([layer.mask.ravel() for layer in net.layers]).astype(np.float64)


def compute_gradients(net: Network, spikes: np.ndarray, velocity: np.ndarray,
                      mode: str = SPIKING, state: list[np.ndarray] | None = None):
    """Loss and weight gradients for one contiguous window.

    Returns (loss, grads, final_state); state defaults to zeros. grads are
    the per-layer views of one flat vector.
    """
    x = np.asarray(spikes, dtype=np.float64)
    y = np.asarray(velocity, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"expected [T x {net.input_dim}] input, got {x.shape}")
    if y.shape != (x.shape[0], 2):
        raise ValueError(f"expected [T x 2] labels, got {y.shape}")
    if state is None:
        state = [np.zeros(net.config.layer_dims[i + 1])
                 for i in range(net.config.n_layers)]
    batched_state = [np.asarray(s, dtype=np.float64).reshape(1, -1) for s in state]
    ws = _TrainWorkspace(net.config, x.shape[0], 1)
    acts, membranes, final_state = forward_window(net, x[:, None, :], batched_state,
                                                  mode, ws=ws)
    loss = mse_loss(acts[-1][:, 0, :], y)
    mask = _flat_mask(net)
    g = np.empty_like(mask)
    grads = _layer_views(g, net.layers)
    _backward_window(net, ws, acts, membranes, y[:, None, :], mode, grads)
    g *= mask
    return loss, grads, [s[0] for s in final_state]


# Adam's moment decays and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# train_epoch indexes Adam's update to the live weights while they are fewer
# than this share of all weights. Above it, gathering and scattering them
# costs more than the update and the per-step putmask that it saves (at
# desk shape, 32 and 96 channels, 2 shared cores, BLAS 1 thread, an epoch
# breaks even at 0.75-0.78)
_INDEXED_MAX_DENSITY = 0.75


class AdamOptimizer:
    def __init__(self, lr: float):
        self.lr = lr
        self.reset()

    def reset(self) -> None:
        self._m = None
        self._v = None
        self._t = 0

    def step(self, w: np.ndarray, g: np.ndarray, live: np.ndarray | slice) -> None:
        """One Adam update of the flat weights w, in place, from the flat
        gradient g; the moments are flat vectors of the same layout.

        Both moments advance at every entry, so a masked weight's moments
        decay as a dense step's would; only the entries live indexes (an
        index array, or a full slice) move. Elementwise, so each live
        weight gets the bits of a step over the whole vector.
        """
        if self._m is None:
            self._m = np.zeros_like(g)
            self._v = np.zeros_like(g)
        self._t += 1
        b1t = 1.0 - _BETA1 ** self._t
        b2t = 1.0 - _BETA2 ** self._t
        m, v = self._m, self._v
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        w[live] -= self.lr * (m[live] / b1t) / (np.sqrt(v[live] / b2t) + _EPS)


def _length_groups(segments):
    """Equal-length segments batch together; order is first-occurrence stable."""
    groups: dict[int, list] = {}
    for seg in segments:
        if seg.timesteps > 0:
            groups.setdefault(seg.timesteps, []).append(seg)
    return groups


def _batch_group(group):
    x = np.stack([s.spikes for s in group], axis=1).astype(np.float64)
    y = np.stack([s.velocity for s in group], axis=1)
    return x, y  # (T, B, channels), (T, B, 2)


def train_epoch(net: Network, segments, cfg: TrainConfig, optimizer) -> float:
    """One pass over the training segments; returns the epoch training loss.

    Equal-length segments advance in lockstep and share each window's update;
    the loss is the MSE of the forward predictions made during the pass
    (before the window's update), pooled over all labeled timesteps.
    optimizer.step(w, g, live) gets the flat weights and gradients, laid
    out as _layer_views, and which weights to update: the flat index of the
    unmasked ones while they are fewer than _INDEXED_MAX_DENSITY of all,
    else slice(None), after which train_epoch zeroes the masked weights
    again itself. It must update w in place and leave w unchanged outside
    live, which keeps the masked weights zero; the next window overwrites g.
    """
    groups = _length_groups(segments)
    if not groups:
        raise ValueError("empty training dataset")
    # one flat vector each for the weights and the gradients; the layers'
    # weights become views of a new packed copy. The masks hold all epoch
    w = np.concatenate([layer.weights.ravel() for layer in net.layers])
    for layer, view in zip(net.layers, _layer_views(w, net.layers)):
        layer.weights = view
    mask = _flat_mask(net)
    zero = mask == 0
    live = np.flatnonzero(mask)
    # a net at least _INDEXED_MAX_DENSITY live steps every weight, and
    # zeroes its masked ones, if it has any, again after each step
    remask = False
    if live.size >= _INDEXED_MAX_DENSITY * w.size:
        remask = live.size < w.size
        live = slice(None)
    g = np.empty_like(w)
    grads = _layer_views(g, net.layers)
    total_sq = 0.0
    total_n = 0
    for length, group in groups.items():
        x, y = _batch_group(group)
        # its membranes start at zero and carry from window to window
        ws = _TrainWorkspace(net.config, min(cfg.batch_length, length), len(group))
        for lo in range(0, length, cfg.batch_length):
            hi = min(lo + cfg.batch_length, length)
            acts, membranes = _forward_window(net, ws, x[lo:hi], SPIKING)
            total_sq += _backward_window(net, ws, acts, membranes, y[lo:hi], SPIKING, grads)
            g *= mask
            total_n += acts[-1].size
            optimizer.step(w, g, live)
            if remask:
                np.putmask(w, zero, 0.0)
    return total_sq / total_n


def validate(net: Network, segments) -> float:
    """Forward-only MSE over the given segments; no state is mutated.

    It is mse_loss of eval's prediction: the same lane-packed wavefront,
    with the GEMMs of each segment run alone, concatenated in segment order.
    """
    segments = list(segments)
    if not any(seg.timesteps for seg in segments):
        raise ValueError("empty validation dataset")
    record = _forward_sequences(net, [seg.spikes for seg in segments])
    return mse_loss(record.output_membrane, np.concatenate([seg.velocity for seg in segments]))


def pretrain(config: NetworkConfig, split: dict, cfg: TrainConfig, log=None):
    """Train a fresh dense network; returns (net, target_loss).

    target_loss is the final validation loss (that of the untrained network
    when max_epochs is 0), frozen as the reference the pruning controller
    must hold. Raises TrainingDivergedError if the loss goes non-finite.
    """
    net = Network.from_config(config)
    if cfg.max_epochs == 0:
        return net, validate(net, split["val"])
    optimizer = AdamOptimizer(cfg.learning_rate)
    for epoch in range(cfg.max_epochs):
        train_loss = train_epoch(net, split["train"], cfg, optimizer)
        val_loss = validate(net, split["val"])
        if log is not None:
            log(epoch, train_loss, val_loss)
        if not np.isfinite(train_loss) or not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}: train={train_loss}, val={val_loss}"
            )
    return net, val_loss
