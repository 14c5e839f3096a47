"""Adaptive magnitude pruning with tolerance gating, patience, and rollback.

The controller starts from a pretrained dense network whose validation loss
is frozen as the target. Each iteration checkpoints the network, removes the
lowest-magnitude unmasked weights at the current rate (per-layer or pooled
globally over the hidden layers), then fine-tunes, for at least one epoch,
until validation loss is back within `tolerance` of the target. If that
takes more than `patience` epochs the checkpoint is restored and the rate
is halved. The run ends when the rate falls below the minimum or the
cumulative pruned fraction reaches its cap. Masks only ever gain zeros,
except at a rollback where they revert exactly to the checkpointed set.

Rates are percentage points of each layer's (or the pool's) *original*
weight count, so cumulative bookkeeping stays coherent as layers thin out.
After a rollback the cumulative fraction is recomputed from the restored
masks, i.e. the attempted rate is subtracted back out; the trace records the
drop. Prune steps are clamped so the cumulative fraction never exceeds the
cap; a clamped per-layer step splits what is left of the cap among the
layers in proportion to their requests, so the layers thin out alike rather
than the first taking the whole remainder. The readout layer is never
pruned.

Two ablation modes: "tolerance-only" keeps the tolerance gate but terminates
(restoring the last good network) the first time patience is exhausted;
"fixed" prunes at the starting rate after every `patience`-epoch block,
unconditionally, until the cap. All three modes run the same loop; fixed
mode simply has no gate, so it never rolls back and raises
TrainingDivergedError if fine-tuning diverges, where the gated modes treat
divergence as an exhausted patience.

The terminating event carries one of four reasons:

- "min-rate" (full-adaptive): halving took the rate below `p_min`;
- "pruned-max" (all modes): the mask-zero count reached the cap,
  floor(pruned_max * prunable weights);
- "nothing-left-to-prune" (all modes): a step at the current rate would
  remove no weight, because its share of every selection group rounds to
  zero or the groups it would take from are already empty;
- "patience-exhausted" (tolerance-only): the first failed step was
  rolled back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, WeightLayer
from .training import (AdamOptimizer, TrainConfig, TrainingDivergedError, _require_int,
                       train_epoch, validate)

__all__ = [
    "PruneHyperParams",
    "TraceEvent",
    "PruneTrace",
    "select_prune_targets",
    "prune_step",
    "prunable_zero_fraction",
    "EngineTrainer",
    "adaptive_prune",
    "TRACE_COLUMNS",
]

FULL_ADAPTIVE = "full-adaptive"
TOLERANCE_ONLY = "tolerance-only"
FIXED = "fixed"

PER_LAYER = "per-layer"
GLOBAL = "global"

TRACE_COLUMNS = ("event_index", "event_type", "epoch", "train_loss", "val_loss",
                 "p_curr", "pruned")


@dataclass(frozen=True)
class PruneHyperParams:
    p_start: float = 10.0      # percentage points per prune step
    patience: int = 5          # fine-tune epochs granted per step
    tolerance: float = 0.1     # fractional slack on the target loss
    p_min: float = 0.1         # minimum rate, percentage points
    pruned_max: float = 0.95   # cap on cumulative pruned fraction
    scope: str = PER_LAYER
    mode: str = FULL_ADAPTIVE

    def __post_init__(self):
        if not (self.p_start >= self.p_min > 0):
            raise ValueError("need p_start >= p_min > 0")
        if self.p_start > 100:
            raise ValueError(
                f"p_start must be at most 100 percentage points, got {self.p_start!r}")
        if not (0 < self.pruned_max < 1):
            raise ValueError("pruned_max must be in (0,1)")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be >= 0")
        _require_int("patience", self.patience, 0)
        if self.scope not in (PER_LAYER, GLOBAL):
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.mode not in (FULL_ADAPTIVE, TOLERANCE_ONLY, FIXED):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class TraceEvent:
    index: int
    kind: str                  # prune-applied | epoch | rollback | terminated
    epoch: int
    train_loss: float | None
    val_loss: float | None
    rate: float | None
    pruned: float | None
    reason: str = ""

    def csv_row(self) -> list[str]:
        def fmt(x):
            return "" if x is None else repr(float(x))
        return [str(self.index), self.kind, str(self.epoch),
                fmt(self.train_loss), fmt(self.val_loss), fmt(self.rate),
                fmt(self.pruned)]


class PruneTrace:
    """Ordered event log of one controller run, streamable to a CSV sink."""

    def __init__(self, sink=None):
        self.events: list[TraceEvent] = []
        self._sink = sink

    def _emit(self, kind, epoch, train_loss=None, val_loss=None, rate=None,
              pruned=None, reason=""):
        ev = TraceEvent(len(self.events), kind, epoch, train_loss, val_loss,
                        rate, pruned, reason)
        self.events.append(ev)
        if self._sink is not None:
            self._sink(ev)
        return ev

    def prune_applied(self, epoch, rate, pruned):
        return self._emit("prune-applied", epoch, rate=rate, pruned=pruned)

    def epoch(self, epoch, train_loss, val_loss, rate, pruned):
        return self._emit("epoch", epoch, train_loss=train_loss,
                          val_loss=val_loss, rate=rate, pruned=pruned)

    def rollback(self, epoch, restored_pruned, new_rate):
        return self._emit("rollback", epoch, rate=new_rate, pruned=restored_pruned)

    def terminated(self, epoch, reason, rate, pruned):
        return self._emit("terminated", epoch, rate=rate, pruned=pruned,
                          reason=reason)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def total_epochs(self) -> int:
        return len(self.of_kind("epoch"))


def prunable_zero_fraction(net: Network) -> float:
    """Mask-zero fraction over the prunable layers (the bookkept `pruned`)."""
    layers = net.prunable_layers()
    total = sum(l.n_weights for l in layers)
    if total == 0:
        return 0.0
    return sum(l.n_masked for l in layers) / total


def select_prune_targets(layers: list[WeightLayer], count: int):
    """The `count` smallest-magnitude unmasked weights pooled over `layers`.

    Ties break by (position in `layers`, row, col) lexicographic order. A
    count beyond the number of unmasked weights is clamped. Returns
    (layer_idx, rows, cols) index arrays, layer_idx indexing into `layers`.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    live = [np.nonzero(layer.mask) for layer in layers]
    layer_idx = np.concatenate([np.full(r.size, i) for i, (r, _) in enumerate(live)])
    rows = np.concatenate([r for r, _ in live])
    cols = np.concatenate([c for _, c in live])
    mags = np.concatenate([np.abs(layer.weights[r, c])
                           for layer, (r, c) in zip(layers, live)])
    order = np.lexsort((cols, rows, layer_idx, mags))[:count]
    return layer_idx[order], rows[order], cols[order]


def prune_step(net: Network, rate: float, scope: str = PER_LAYER,
               max_total_zeros: int | None = None) -> list[int]:
    """Mask out the lowest-magnitude weights at `rate`% of original counts;
    returns the number removed from each prunable layer.

    The prunable layers form selection groups: each layer on its own in
    per-layer scope, all of them pooled in global scope. Each group requests
    round(rate% * group size) weights, clamped to what it still has. Masks
    are monotone. `max_total_zeros` caps the total mask-zero count across
    prunable layers (cumulative-cap clamping); when the requests exceed what
    is left of it, the budget is split in proportion to them (see
    _split_budget).
    """
    if scope not in (PER_LAYER, GLOBAL):
        raise ValueError(f"unknown scope {scope!r}")
    prunable = net.prunable_layers()
    removed = [0] * len(prunable)
    if not prunable:
        return removed
    budget = None
    if max_total_zeros is not None:
        budget = max_total_zeros - sum(l.n_masked for l in prunable)
        if budget <= 0:
            return removed

    indices = list(range(len(prunable)))
    groups = [[i] for i in indices] if scope == PER_LAYER else [indices]
    counts = []
    for group in groups:
        layers = [prunable[i] for i in group]
        count = round(rate / 100.0 * sum(l.n_weights for l in layers))
        counts.append(min(count, sum(l.n_weights - l.n_masked for l in layers)))
    if budget is not None and sum(counts) > budget:
        counts = _split_budget(counts, budget)
    for group, count in zip(groups, counts):
        layers = [prunable[i] for i in group]
        layer_idx, rows, cols = select_prune_targets(layers, count)
        for j, layer in enumerate(layers):
            sel = layer_idx == j
            layer.mask[rows[sel], cols[sel]] = 0
            layer.weights[rows[sel], cols[sel]] = 0.0
            removed[group[j]] = int(np.count_nonzero(sel))
    return removed


def _split_budget(requests: list[int], budget: int) -> list[int]:
    """Share `budget` < sum(requests) among groups in proportion to requests.

    Each group gets floor(request * budget / total); the units left over go
    one each to the largest remainders, ties to the lower group index. So no
    group gets more than it asked for, and a capped final step thins every
    layer alike instead of giving the whole remainder to the first layer.
    """
    total = sum(requests)
    shares = [r * budget // total for r in requests]
    remainders = [r * budget % total for r in requests]
    order = sorted(range(len(requests)), key=lambda i: (-remainders[i], i))
    for i in order[:budget - sum(shares)]:
        shares[i] += 1
    return shares


class EngineTrainer:
    """Bridges the controller to the training engine over one data split.

    Holds the optimizer so fine-tuning momentum persists across prune steps;
    a rollback resets it (weights and masks are restored, the optimizer
    restarts).
    """

    def __init__(self, split: dict, cfg: TrainConfig):
        self.split = split
        self.cfg = cfg
        self.optimizer = AdamOptimizer(cfg.learning_rate)

    def train_epoch(self, net: Network) -> float:
        return train_epoch(net, self.split["train"], self.cfg, self.optimizer)

    def validate(self, net: Network) -> float:
        return validate(net, self.split["val"])

    def reset_optimizer(self) -> None:
        self.optimizer.reset()


def adaptive_prune(dense_net: Network, datasets: dict | None,
                   hp: PruneHyperParams, tc: TrainConfig | None = None,
                   trainer=None, trace_sink=None):
    """Run the pruning controller; returns (pruned net, PruneTrace).

    The input network is not modified. `trainer` may be any object exposing
    train_epoch(net) -> loss, validate(net) -> loss and reset_optimizer();
    by default an EngineTrainer over `datasets` and `tc` is used. A gated
    mode raises ValueError if its gate, the dense validation loss times
    (1 + tolerance), is NaN.
    """
    if trainer is None:
        if datasets is None or tc is None:
            raise ValueError("need datasets and a TrainConfig (or an explicit trainer)")
        trainer = EngineTrainer(datasets, tc)
    net = Network(dense_net.config, [
        WeightLayer(l.weights.copy(), l.mask.copy())
        for l in dense_net.layers
    ])
    trace = PruneTrace(trace_sink)
    fixed = hp.mode == FIXED
    # fixed mode has no gate: a step is accepted after exactly `patience` epochs
    gate = None if fixed else trainer.validate(net) * (1.0 + hp.tolerance)
    if gate is not None and np.isnan(gate):
        # no loss is within a NaN gate: every step would be rolled back
        raise ValueError(f"the gate, validation loss x (1 + tolerance), is NaN "
                         f"(tolerance {hp.tolerance!r})")
    prunable = net.prunable_layers()
    max_zeros = _zero_budget(hp.pruned_max, sum(l.n_weights for l in prunable))
    rate = hp.p_start
    pruned = prunable_zero_fraction(net)
    epoch_count = 0
    reason = ""

    while rate >= hp.p_min and sum(l.n_masked for l in prunable) < max_zeros:
        snap = net.snapshot()
        if not any(prune_step(net, rate, hp.scope, max_total_zeros=max_zeros)):
            reason = "nothing-left-to-prune"
            break
        pruned = prunable_zero_fraction(net)
        trace.prune_applied(epoch_count, rate, pruned)

        # NaN is within no gate, an infinite one included: a gated step
        # fine-tunes at least one epoch, and a diverged one is rolled back
        current = np.nan
        fine_tune_epochs = 0
        while (fine_tune_epochs < hp.patience) if fixed else not (current <= gate):
            if fine_tune_epochs > hp.patience:
                net.restore(snap)
                pruned = prunable_zero_fraction(net)
                if hp.mode == TOLERANCE_ONLY:
                    reason = "patience-exhausted"
                else:
                    rate = rate / 2.0
                    trainer.reset_optimizer()
                trace.rollback(epoch_count, pruned, rate)
                break
            train_loss = trainer.train_epoch(net)
            current = trainer.validate(net)
            epoch_count += 1
            fine_tune_epochs += 1
            trace.epoch(epoch_count, train_loss, current, rate, pruned)
            if not np.isfinite(train_loss) or not np.isfinite(current):
                if fixed:
                    raise TrainingDivergedError(
                        f"fixed-mode fine-tuning diverged at epoch {epoch_count}"
                    )
                # gated modes treat divergence exactly like an exhausted patience
                fine_tune_epochs = hp.patience + 1
                current = np.nan
        if reason:
            break

    if not reason:
        reason = "min-rate" if rate < hp.p_min else "pruned-max"
    trace.terminated(epoch_count, reason, rate, pruned)
    return net, trace


def _zero_budget(pruned_max: float, total: int) -> int:
    # tiny epsilon so an exactly-representable cap (e.g. 0.95 * 9800) is not
    # floored away by float rounding
    return int(np.floor(pruned_max * total + 1e-6))
