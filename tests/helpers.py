"""Shared test oracles and simulated trainers.

Everything here is deliberately independent of the library's fast paths:
the forward reference is a plain-Python scalar loop, spiking-mode gradients
come from a plain-Python surrogate BPTT over that loop, differentiable-mode
gradient checks use central finite differences over the public loss,
operation counts come from a brute-force quadruple loop, prune selection
from a plain-Python sort, the pruning controller from its module docstring
read sentence by sentence, synthetic labels from per-row Python sums, and
R^2 from math.fsum sums.
The training step's bit-exactness oracle is the step layer by layer: a
three-call reverse scan, Adam per layer and masking by boolean index.
"""

import math
import operator
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from spikeprune.network import (DIFFERENTIABLE, SPIKING, Network, NetworkConfig, WeightLayer,
                                 forward_window)
from spikeprune.pruning import FIXED, PER_LAYER, TOLERANCE_ONLY, prunable_zero_fraction
from spikeprune.training import TrainingDivergedError, compute_gradients, surrogate_spike_grad


def indy_net(seed=0):
    return Network.from_config(NetworkConfig.snn3(96, seed=seed))


def small_net(seed=0):
    return Network.from_config(NetworkConfig.snn3(12, hidden=(10, 10, 10), seed=seed))


def scaled_net(config, scale):
    """Network.from_config(config) with every weight multiplied by scale."""
    net = Network.from_config(config)
    for layer in net.layers:
        layer.weights *= scale
    return net


def set_masks(net, masks):
    """Give net's first len(masks) layers these masks (None keeps a layer).

    Each layer is built again as WeightLayer(weights, mask), which sets the
    weights under a zero mask to 0.
    """
    for i, mask in enumerate(masks):
        if mask is not None:
            net.layers[i] = WeightLayer(net.layers[i].weights, mask)
    return net


def scalar_reference_trace(net, spikes, state=None):
    """Independent plain-Python re-derivation of the network dynamics.

    Runs from the given membranes (one list per connection layer, default
    zero). Returns (acts, membranes): acts[0][t] is the input at step t and
    acts[i + 1][t] the output of connection layer i (spikes, or the readout
    membrane); membranes[i][t] is layer i's pre-reset membrane.
    """
    dims = net.config.layer_dims
    n_layers = net.config.n_layers
    p = net.config.lif
    decay = math.exp(-p.dt / p.tau)
    if state is None:
        v = [[0.0] * dims[i + 1] for i in range(n_layers)]
    else:
        v = [[float(u) for u in np.ravel(s)] for s in state]
    acts = [[] for _ in range(n_layers + 1)]
    membranes = [[] for _ in range(n_layers)]
    for t in range(len(spikes)):
        a = [float(x) for x in spikes[t]]
        acts[0].append(a)
        for i in range(n_layers):
            w = net.layers[i].weights
            m = net.layers[i].mask
            nxt = []
            for post in range(dims[i + 1]):
                cur = 0.0
                for pre in range(dims[i]):
                    cur += w[post, pre] * m[post, pre] * a[pre]
                nxt.append(v[i][post] * decay + cur)
            membranes[i].append(nxt)
            if i < n_layers - 1:  # hidden layers spike, the readout does not
                out = [1.0 if u >= p.threshold else 0.0 for u in nxt]
                v[i] = [p.reset_value if s else u for u, s in zip(nxt, out)]
                a = out
            else:
                v[i] = nxt
                a = nxt
            acts[i + 1].append(list(a))
    return acts, membranes


def scalar_reference_forward(net, spikes):
    """The [T x 2] prediction of `scalar_reference_trace` from zero membranes."""
    acts, _ = scalar_reference_trace(net, spikes)
    return np.array(acts[-1]).reshape(len(spikes), 2)


def scalar_surrogate_grads(net, spikes, velocity, state=None):
    """Plain-Python surrogate BPTT oracle for the SPIKING-mode gradients.

    The loss is the MSE over every output at every step. A hidden neuron's
    membrane gradient is dL/ds * g(u) + decay * dL/du(t + 1) * (1 - s), with
    g the triangular surrogate max(0, 1 - |u - threshold|) and
    the reset detached; the readout's is dL/dpred + decay * dL/du(t + 1).
    Returns (loss, grads) with masked entries zero.
    """
    acts, membranes = scalar_reference_trace(net, spikes, state)
    dims = net.config.layer_dims
    T = len(spikes)
    n = 2 * T
    loss = 0.0
    err = []  # dL/d(output of the layer being differentiated), per step
    for t in range(T):
        diffs = [acts[-1][t][k] - float(velocity[t][k]) for k in range(2)]
        loss += sum(d * d for d in diffs)
        err.append([2.0 * d / n for d in diffs])
    n_layers = net.config.n_layers
    p = net.config.lif
    decay = math.exp(-p.dt / p.tau)
    grads = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        w = net.layers[i].weights
        m = net.layers[i].mask
        du = [[0.0] * dims[i + 1] for _ in range(T)]
        carry = [0.0] * dims[i + 1]
        for t in range(T - 1, -1, -1):
            for j in range(dims[i + 1]):
                if i < n_layers - 1:
                    u = membranes[i][t][j]
                    s = acts[i + 1][t][j]
                    g = max(0.0, 1.0 - abs(u - p.threshold))
                    du[t][j] = err[t][j] * g + decay * carry[j] * (1.0 - s)
                else:
                    du[t][j] = err[t][j] + decay * carry[j]
                carry[j] = du[t][j]
        grad = np.zeros(w.shape)
        for j in range(dims[i + 1]):
            for k in range(dims[i]):
                if m[j, k]:
                    grad[j, k] = sum(du[t][j] * acts[i][t][k] for t in range(T))
        grads[i] = grad
        err = [[sum(w[j, k] * m[j, k] * du[t][j] for j in range(dims[i + 1]))
                for k in range(dims[i])] for t in range(T)]
    return loss / n, grads


def finite_difference_grads(net, x, y, h=1e-6, state=None):
    """Central-difference oracle over the differentiable-mode loss of one
    window from state (compute_gradients' default, zeros, when None)."""
    grads = []
    for layer in net.layers:
        g = np.zeros_like(layer.weights)
        it = np.nditer(layer.weights, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            lp, _, _ = compute_gradients(net, x, y, mode=DIFFERENTIABLE, state=state)
            layer.weights[idx] = orig - h
            lm, _, _ = compute_gradients(net, x, y, mode=DIFFERENTIABLE, state=state)
            layer.weights[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, floor=1e-9):
    for a, n in zip(analytic, numeric):
        diff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        bad = (diff > floor) & (diff / denom > rel)
        assert not bad.any(), f"max rel err {(diff / denom).max():.2e}"


class PerLayerAdam:
    """Adam as one update per layer; the training step's optimizer oracle."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.reset()

    def reset(self):
        self.m = None
        self.v = None
        self.t = 0

    def step(self, net, grads):
        if self.m is None:
            self.m = [np.zeros_like(g) for g in grads]
            self.v = [np.zeros_like(g) for g in grads]
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for layer, g, m, v in zip(net.layers, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            layer.weights -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def per_layer_window_grads(net, acts, membranes, truth):
    """SPIKING-mode gradients of one forward_window, layer by layer.

    A hidden layer's reverse scan is du[t] += decay * c * keep[t], three
    numpy calls a step, with keep = 1 - s; each gradient is masked by
    multiplying with its layer's mask.
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
            du = src
            for du_t in du[::-1]:
                du_t += decay * c
                c = du_t
        else:
            s = acts[i + 1]
            du = src * surrogate_spike_grad(u, p)
            keep = 1.0 - s
            for du_t, kt in zip(du[::-1], keep[::-1]):
                du_t += decay * c * kt
                c = du_t
        if i > 0:
            w = net.layers[i].weights * net.layers[i].mask
            src = (du.reshape(Tw * B, -1) @ w).reshape(Tw, B, -1)
        grad = du.reshape(Tw * B, -1).T @ acts[i].reshape(Tw * B, -1)
        grad *= net.layers[i].mask
        grads[i] = grad
    return grads


def per_layer_train_epoch(net, segments, cfg, optimizer):
    """train_epoch's oracle: the same windows, each a per-layer step.

    Equal-length segments form a batch in first-occurrence order; each
    window runs forward_window on the layers' own weights,
    per_layer_window_grads, optimizer.step and then, layer by layer,
    weights[mask == 0] = 0. Returns the pooled training MSE.
    """
    groups = {}
    for seg in segments:
        if seg.timesteps > 0:
            groups.setdefault(seg.timesteps, []).append(seg)
    total_sq = 0.0
    total_n = 0
    for length, group in groups.items():
        x = np.stack([s.spikes for s in group], axis=1).astype(np.float64)
        y = np.stack([s.velocity for s in group], axis=1)
        state = [np.zeros((len(group), d)) for d in net.config.layer_dims[1:]]
        for lo in range(0, length, cfg.batch_length):
            hi = min(lo + cfg.batch_length, length)
            acts, membranes, state = forward_window(net, x[lo:hi], state, SPIKING)
            grads = per_layer_window_grads(net, acts, membranes, y[lo:hi])
            total_sq += float(np.sum((acts[-1] - y[lo:hi]) ** 2))
            total_n += acts[-1].size
            optimizer.step(net, grads)
            for layer in net.layers:
                layer.weights[layer.mask == 0] = 0.0
    return total_sq / total_n


def assert_same_bits(a, b):
    """Equal values with equal sign bits, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def brute_force_ops(record, net):
    """Quadruple loop over (timestep, layer, post, pre); the ops oracle."""
    total = 0
    for t in range(record.timesteps):
        for li, layer in enumerate(net.layers):
            eff = layer.weights * layer.mask
            pre_acts = record.layer_inputs(li)[t]
            for post in range(eff.shape[0]):
                for pre in range(eff.shape[1]):
                    if pre_acts[pre] != 0 and eff[post, pre] != 0.0:
                        total += 1
    return total


def fsum_r_squared(pred, truth):
    """Mean per-component R^2 from correctly rounded math.fsum sums; the R^2 oracle."""
    r2 = []
    for y, yhat in zip(np.asarray(truth).T.tolist(), np.asarray(pred).T.tolist()):
        mean = math.fsum(y) / len(y)
        ss_res = math.fsum((a - b) ** 2 for a, b in zip(y, yhat))
        ss_tot = math.fsum((a - mean) ** 2 for a in y)
        r2.append(1.0 - ss_res / ss_tot)
    return math.fsum(r2) / len(r2)


def synthetic_oracle(seed, channels, T, rate, mixing=None, mixing_density=0.25,
                     label_tau_steps=5.0):
    """generate_synthetic re-derived without BLAS; returns (spikes, velocity).

    The spikes are one [T x channels] draw. Each label component's drive at
    step t is a Python sum of mixing[c, k] * spikes[t, k] in channel order,
    filtered in Python floats and normalized to unit variance.
    """
    rng = np.random.default_rng(seed)
    spikes = (rng.random((T, channels)) < rate).astype(np.uint8)
    if mixing is None:
        active = rng.random((2, channels)) < mixing_density
        for k in range(2):
            if not active[k].any():
                active[k, int(rng.integers(channels))] = True
        signs = rng.choice([-1.0, 1.0], size=(2, channels))
        gains = rng.uniform(0.5, 1.5, size=(2, channels))
        mixing = active * signs * gains
    alpha = float(np.exp(-1.0 / label_tau_steps))
    rows = spikes.tolist()
    columns = []
    for weights in np.asarray(mixing, dtype=np.float64).tolist():
        x, out = 0.0, []
        for row in rows:
            dx = reduce(operator.add, map(operator.mul, weights, row), 0.0)
            x = alpha * x + (1.0 - alpha) * dx
            out.append(x)
        columns.append(out)
    velocity = np.array(columns).T.copy()
    std = velocity.std(axis=0)
    for k in range(2):
        if std[k] > 0:
            velocity[:, k] /= std[k]
    return spikes, velocity


def brute_force_prune(net, rate, scope=PER_LAYER, max_total_zeros=None):
    """Prune-step oracle: a plain-Python sort of (|w|, layer, row, col) tuples.

    Each prunable layer is a group in per-layer scope; all of them form one
    group in global scope. A group requests round(rate% * group size) of its
    unmasked weights, clamped to what it has. If the requests exceed what is
    left of the cap budget, each group gets its exact fractional share
    request * budget / total rounded down, and the units left over go to the
    largest fractional parts, ties to the lower group. `net` is not
    touched; returns (masks as nested lists, removed per prunable layer).
    """
    layers = net.layers[:-1]  # every layer but the readout
    masks = [[[int(m) for m in row] for row in l.mask] for l in layers]
    removed = [0] * len(layers)
    budget = None
    if max_total_zeros is not None:
        zeros = sum(row.count(0) for mask in masks for row in mask)
        budget = max_total_zeros - zeros
    if not layers or (budget is not None and budget <= 0):
        return masks, removed
    if scope == PER_LAYER:
        groups = [[i] for i in range(len(layers))]
    else:
        groups = [list(range(len(layers)))]
    lives, counts = [], []
    for group in groups:
        size = 0
        live = []
        for i in group:
            w = layers[i].weights
            for r in range(w.shape[0]):
                for c in range(w.shape[1]):
                    size += 1
                    if masks[i][r][c]:
                        live.append((abs(float(w[r, c])), i, r, c))
        lives.append(live)
        counts.append(min(round(rate / 100.0 * size), len(live)))
    if budget is not None and sum(counts) > budget:
        shares = [Fraction(c * budget, sum(counts)) for c in counts]
        counts = [math.floor(f) for f in shares]
        by_part = sorted(range(len(shares)), key=lambda g: (counts[g] - shares[g], g))
        for g in by_part[:budget - sum(counts)]:
            counts[g] += 1
    for live, count in zip(lives, counts):
        for _, i, r, c in sorted(live)[:count]:
            masks[i][r][c] = 0
            removed[i] += 1
    return masks, removed


class FakeTrainer:
    """Scripted stand-in for the training engine.

    `val_fn(call_index)` produces each validation loss; the first call
    establishes the frozen target. Captures the controller's working network
    so tests can inspect live masks.
    """

    def __init__(self, val_fn, target=1.0):
        self.val_fn = val_fn
        self.target = target
        self.calls = 0
        self.resets = 0
        self.net = None

    def train_epoch(self, net):
        self.net = net
        return 0.5 * self.target

    def validate(self, net):
        self.net = net
        if self.calls == 0:
            self.calls += 1
            return self.target
        v = self.val_fn(self.calls)
        self.calls += 1
        return v

    def reset_optimizer(self):
        self.resets += 1


def always_fail(target=1.0):
    return FakeTrainer(lambda i: 10.0 * target, target=target)


def always_succeed(target=1.0):
    return FakeTrainer(lambda i: target, target=target)


class RandomTrainer(FakeTrainer):
    """Passes or fails each epoch's tolerance check at a seeded rate."""

    def __init__(self, rng, fail_prob, target=1.0, tolerance=0.1):
        self.rng = rng
        self.fail_prob = fail_prob
        good = target
        bad = target * (1.0 + tolerance) * 3
        super().__init__(
            lambda i: bad if self.rng.random() < self.fail_prob else good,
            target=target,
        )


class DivergingRandomTrainer(RandomTrainer):
    """A RandomTrainer whose epochs also diverge at a seeded rate: then the
    training or the validation loss is NaN, +inf or -inf. The first
    validation, the target, stays finite."""

    def __init__(self, rng, fail_prob, diverge_prob, target=1.0, tolerance=0.1):
        super().__init__(rng, fail_prob, target=target, tolerance=tolerance)
        self.diverge_prob = diverge_prob

    def _diverged(self, loss):
        if self.rng.random() < self.diverge_prob:
            return float(self.rng.choice([math.nan, math.inf, -math.inf]))
        return loss

    def train_epoch(self, net):
        return self._diverged(super().train_epoch(net))

    def validate(self, net):
        first = self.calls == 0
        loss = super().validate(net)
        return loss if first else self._diverged(loss)


def reference_prune_run(dense, hp, trainer, events=None):
    """The pruning controller as the `pruning` module docstring states it.

    Prune selection is brute_force_prune's, the cap is the exact floor of
    pruned_max (as written in decimal) times the prunable weight count, and
    fixed and gated steps are written as separate loops. Appends each event
    to `events` as a (kind, epoch, train_loss, val_loss, rate, pruned,
    reason) tuple, with the same fields as adaptive_prune's trace, and
    returns (net, events). Raises TrainingDivergedError where fixed-mode
    fine-tuning diverges; `events` then holds the events up to it.
    """
    events = [] if events is None else events
    net = Network(dense.config, [WeightLayer(l.weights.copy(), l.mask.copy())
                                 for l in dense.layers])
    prunable = len(net.layers) - 1  # the readout is never pruned
    total = sum(l.weights.size for l in net.layers[:prunable])
    cap = math.floor(Fraction(repr(hp.pruned_max)) * total)
    fixed = hp.mode == FIXED
    # the target is the dense validation loss; fixed mode has no gate
    gate = None if fixed else trainer.validate(net) * (1.0 + hp.tolerance)
    rate = hp.p_start
    epoch = 0

    def zeros():
        return sum(int(np.count_nonzero(l.mask == 0)) for l in net.layers[:prunable])

    def emit(kind, train_loss=None, val_loss=None, reason=""):
        events.append((kind, epoch, train_loss, val_loss, rate, zeros() / total, reason))

    def fine_tune():
        nonlocal epoch
        train_loss = trainer.train_epoch(net)
        val_loss = trainer.validate(net)
        epoch += 1
        emit("epoch", train_loss, val_loss)
        return math.isfinite(train_loss) and math.isfinite(val_loss), val_loss

    # "The run ends when the rate falls below the minimum or the cumulative
    # pruned fraction reaches its cap"
    while rate >= hp.p_min and zeros() < cap:
        checkpoint = [(l.weights.copy(), l.mask.copy()) for l in net.layers]
        masks, removed = brute_force_prune(net, rate, hp.scope, max_total_zeros=cap)
        if not any(removed):
            emit("terminated", reason="nothing-left-to-prune")
            return net, events
        set_masks(net, [np.array(m, dtype=np.uint8) for m in masks])
        emit("prune-applied")
        if fixed:
            # "prunes at the starting rate after every patience-epoch block,
            # unconditionally"; divergence raises
            for _ in range(hp.patience):
                finite, _ = fine_tune()
                if not finite:
                    raise TrainingDivergedError("reference: fixed-mode fine-tuning diverged")
            continue
        # "fine-tunes, for at least one epoch, until validation loss is back
        # within tolerance of the target": a diverged epoch is within no gate
        # and ends the step; more than patience epochs fail it
        epochs = 0
        while True:
            finite, val_loss = fine_tune()
            epochs += 1
            if finite and val_loss <= gate:
                break
            if not finite or epochs > hp.patience:
                for i, (w, m) in enumerate(checkpoint):
                    net.layers[i] = WeightLayer(w, m)
                if hp.mode == TOLERANCE_ONLY:
                    emit("rollback")
                    emit("terminated", reason="patience-exhausted")
                    return net, events
                rate = rate / 2.0
                trainer.reset_optimizer()
                emit("rollback")
                break
    emit("terminated", reason="min-rate" if rate < hp.p_min else "pruned-max")
    return net, events


class TraceInvariantChecker:
    """Validates the controller's state-machine invariants over one run."""

    def __init__(self, hp, target=1.0):
        self.hp = hp
        self.target = target
        self.observations = []  # (event, mask snapshot, recomputed fraction)
        self.trainer = None

    def sink(self, event):
        net = self.trainer.net
        masks = tuple(l.mask.copy() for l in net.layers)
        self.observations.append((event, masks, prunable_zero_fraction(net)))

    def check(self, total_prunable):
        hp = self.hp
        gate = self.target * (1.0 + hp.tolerance)
        prev_masks = None
        checkpoint_masks = None
        epochs_since_prune = 0
        prune_seen = 0
        last_rate = hp.p_start
        for k, (ev, masks, fraction) in enumerate(self.observations):
            if ev.pruned is not None:
                assert abs(ev.pruned - fraction) <= 1.0 / total_prunable
            if ev.kind == "prune-applied":
                assert ev.rate <= last_rate  # rate never increases
                last_rate = ev.rate
                if prune_seen > 0:
                    prev_ev = self.observations[k - 1][0]
                    assert prev_ev.kind in ("epoch", "rollback")
                    if prev_ev.kind == "epoch":
                        assert prev_ev.val_loss <= gate * (1 + 1e-12)
                if prev_masks is not None:
                    for m_new, m_old in zip(masks, prev_masks):
                        assert not m_new[m_old == 0].any()  # zeros only grow
                checkpoint_masks = prev_masks
                prune_seen += 1
                epochs_since_prune = 0
            elif ev.kind == "epoch":
                epochs_since_prune += 1
                assert epochs_since_prune <= hp.patience + 1
                for m_new, m_old in zip(masks, prev_masks):
                    assert np.array_equal(m_new, m_old)
            elif ev.kind == "rollback":
                assert epochs_since_prune == hp.patience + 1
                assert ev.rate == pytest.approx(last_rate / 2)
                last_rate = ev.rate
                if checkpoint_masks is not None:
                    for m_new, m_ckpt in zip(masks, checkpoint_masks):
                        assert np.array_equal(m_new, m_ckpt)
            prev_masks = masks
        assert self.observations[-1][0].kind == "terminated"
