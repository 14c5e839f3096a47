"""Backpropagation-through-time training for the LIF decoder.

The forward spike step is non-differentiable, so the backward pass swaps in
a triangular surrogate derivative centered on the threshold; the reset
assignment is detached so no gradient flows through it. A test-only
"differentiable" mode replaces the forward step with a sigmoid of
(u - threshold)/width and differentiates the *whole* graph (reset included),
which makes analytic gradients directly checkable against finite
differences. Training itself always runs the spiking forward step, with Adam.

The loss is mean squared error between the output membranes and the velocity
labels at every labeled timestep. Gradients are accumulated over truncated
windows of `batch_length` timesteps and applied once per window; membrane
state carries across windows within a contiguous segment and resets between
segments. The prune mask is reapplied after every parameter update, so
pruned weights are exactly zero at every observation point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (SPIKING, LifParams, Network, NetworkConfig, _forward_sequences,
                      forward_window)

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
    surrogate_width: float = 1.0

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.batch_length < 1:
            raise ValueError("batch_length must be >= 1")
        if not self.surrogate_width > 0:
            raise ValueError("surrogate_width must be > 0")


def surrogate_spike_grad(u, params: LifParams, width: float):
    """Triangular stand-in for d(spike)/d(membrane), peak 1/width at threshold."""
    u = np.asarray(u, dtype=np.float64)
    return np.maximum(0.0, 1.0 - np.abs(u - params.threshold) / width) / width


def mse_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty prediction")
    return float(np.mean((pred - truth) ** 2))


def _backward_window(net: Network, acts, membranes, truth: np.ndarray,
                     mode: str, width: float):
    """Gradients of the window MSE w.r.t. every weight matrix.

    acts and membranes are what forward_window returned for the window.
    Layer-major, from the readout down: each layer runs a reverse elementwise
    scan over the window, c = x[t] + (decay * c) * keep[t] with x the error
    arriving from above times the surrogate and keep = 1 - s, and one GEMM
    carries its membrane gradients to the layer below.
    """
    Tw, B = truth.shape[0], truth.shape[1]
    n_layers = net.config.n_layers
    p = net.config.lif
    decay = p.decay
    pred = acts[-1]
    src = (pred - truth) * (2.0 / pred.size)
    grads = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        u = membranes[i]
        c = np.zeros_like(u[0])
        if i == n_layers - 1:
            # readout: the membrane feeds the loss directly and the next step
            du = src
            for du_t in du[::-1]:
                du_t += decay * c
                c = du_t
        else:
            s = acts[i + 1]
            if mode == SPIKING:
                g = surrogate_spike_grad(u, p, width)
            else:
                g = s * (1.0 - s) / width
            du = src * g
            keep = 1.0 - s
            if mode == SPIKING:
                for du_t, kt in zip(du[::-1], keep[::-1]):
                    du_t += decay * c * kt
                    c = du_t
            else:
                # reset path differentiated too: v = u(1-s) + r*s
                reset_gap = p.reset_value - u
                for du_t, kt, rt, gt in zip(du[::-1], keep[::-1], reset_gap[::-1], g[::-1]):
                    dc = decay * c
                    du_t += dc * kt
                    du_t += dc * rt * gt
                    c = du_t
        if i > 0:
            src = (du.reshape(Tw * B, -1) @ net.layers[i].effective()).reshape(Tw, B, -1)
        grad = du.reshape(Tw * B, -1).T @ acts[i].reshape(Tw * B, -1)
        grad *= net.layers[i].mask
        grads[i] = grad
    return grads


def compute_gradients(net: Network, spikes: np.ndarray, velocity: np.ndarray,
                      mode: str = SPIKING, width: float = 1.0,
                      state: list[np.ndarray] | None = None):
    """Loss and weight gradients for one contiguous window.

    Returns (loss, grads, final_state); state defaults to zeros.
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
    acts, membranes, final_state = forward_window(net, x[:, None, :], batched_state,
                                                  mode, width)
    loss = mse_loss(acts[-1][:, 0, :], y)
    grads = _backward_window(net, acts, membranes, y[:, None, :], mode, width)
    return loss, grads, [s[0] for s in final_state]


class AdamOptimizer:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.reset()

    def reset(self) -> None:
        self._m = None
        self._v = None
        self._t = 0

    def step(self, net: Network, grads) -> None:
        if self._m is None:
            self._m = [np.zeros_like(g) for g in grads]
            self._v = [np.zeros_like(g) for g in grads]
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for layer, g, m, v in zip(net.layers, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            layer.weights -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


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
    """
    groups = _length_groups(segments)
    if not groups:
        raise ValueError("empty training dataset")
    total_sq = 0.0
    total_n = 0
    for length, group in groups.items():
        x, y = _batch_group(group)
        state = [np.zeros((len(group), net.config.layer_dims[i + 1]))
                 for i in range(net.config.n_layers)]
        for lo in range(0, length, cfg.batch_length):
            hi = min(lo + cfg.batch_length, length)
            acts, membranes, state = forward_window(net, x[lo:hi], state,
                                                    SPIKING, cfg.surrogate_width)
            grads = _backward_window(net, acts, membranes, y[lo:hi],
                                     SPIKING, cfg.surrogate_width)
            total_sq += float(np.sum((acts[-1] - y[lo:hi]) ** 2))
            total_n += acts[-1].size
            optimizer.step(net, grads)
            net.apply_masks()
    return total_sq / total_n


def validate(net: Network, segments) -> float:
    """Forward-only MSE over the given segments; no state is mutated.

    It is mse_loss of eval's prediction: the same grouped per-sequence
    forward, concatenated in segment order.
    """
    segments = list(segments)
    if not any(seg.timesteps for seg in segments):
        raise ValueError("empty validation dataset")
    record = _forward_sequences(net, [seg.spikes for seg in segments])
    return mse_loss(record.output_membrane, np.concatenate([seg.velocity for seg in segments]))


def pretrain(config: NetworkConfig, split: dict, cfg: TrainConfig,
             log=None, init_scale: float = 1.0):
    """Train a fresh dense network; returns (net, target_loss).

    target_loss is the final validation loss (that of the untrained network
    when max_epochs is 0), frozen as the reference the pruning controller
    must hold. Raises TrainingDivergedError if the loss goes non-finite.
    """
    net = Network.from_config(config, init_scale=init_scale)
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
