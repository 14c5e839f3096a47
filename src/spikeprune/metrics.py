"""Decoding and sparsity metrics for one evaluated session.

Four metrics: coefficient of determination of the velocity prediction
(averaged over X and Y), connection sparsity (fraction of zero weights),
activation sparsity (fraction of zero activation values pooled over layers
and timesteps), and effective synaptic operations per timestep: the
accumulates (ACs) the spikes trigger, the NeuroBench synaptic-operation
count. A dense ANN-style layer would instead cost one MAC per nonzero
weight each timestep, synapse_count·(1 - connection_sparsity).

The two activation metrics need one count per presynaptic neuron, not the
spike trains: how many timesteps it was nonzero (`fired`). Eval's driver
returns those counts (network.SpikeCounts), so the ACs are one integer dot
product per layer, fired · (nonzero weights per column). The same functions
take a network_forward ActivationRecord, whose `fired` counts its trains.

R^2 sums each component's residuals and deviations pairwise, over a
contiguous component-major copy of the prediction and the truth, so its
bits do not depend on how the caller laid out either array.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

# network_forward stays importable from here: the benchmark traces it by this name
from .network import Network, _forward_sequences, network_forward  # noqa: F401

__all__ = [
    "DegenerateTruthError",
    "MetricsReport",
    "r_squared",
    "connection_sparsity",
    "activation_sparsity",
    "effective_ops",
    "evaluate_segments",
]


class DegenerateTruthError(ValueError):
    """Ground-truth velocity is constant in some component; R^2 is undefined."""


@dataclass
class MetricsReport:
    r2: float
    connection_sparsity: float
    connection_sparsity_prunable: float
    activation_sparsity: float
    effective_ops: float

    def as_dict(self) -> dict:
        return asdict(self)


def r_squared(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean of the per-component coefficients of determination.

    For each velocity component: 1 - sum((y - yhat)^2) / sum((y - ybar)^2).
    Raises DegenerateTruthError if any truth component is constant.

    The sums run over contiguous component-major rows, copies of pred.T and
    truth.T: numpy sums a contiguous row pairwise, while along axis 0 of a
    [T x k] array it keeps k running sums and adds one row at a time, which
    is slower and less accurate. The copies make the bits independent of
    the inputs' memory order; nothing goes through BLAS.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.ndim != 2 or pred.shape[0] < 2:
        raise ValueError("need a [T x k] series with T >= 2")
    pred, truth = np.ascontiguousarray(pred.T), np.ascontiguousarray(truth.T)
    ss_tot = np.sum((truth - truth.mean(axis=1, keepdims=True)) ** 2, axis=1)
    if np.any(ss_tot == 0):
        raise DegenerateTruthError("a truth component is constant; R^2 denominator is 0")
    ss_res = np.sum((truth - pred) ** 2, axis=1)
    return float(np.mean(1.0 - ss_res / ss_tot))


def connection_sparsity(net: Network, prunable_only: bool = False) -> float:
    """Fraction of zero-valued weights (a masked weight is 0, WeightLayer).

    Default counts every layer including the readout; prunable_only restricts
    to the layers the pruning controller may touch.
    """
    layers = net.prunable_layers() if prunable_only else net.layers
    total = sum(l.n_weights for l in layers)
    zeros = sum(l.n_weights - int(np.count_nonzero(l.weights)) for l in layers)
    return zeros / total if total else 0.0


def activation_sparsity(record) -> float:
    """Fraction of zero activation values, pooled over layers and timesteps.

    Input spikes count as activations (they drive first-layer synaptic
    events), as do output membrane values. record is a SpikeCounts or an
    ActivationRecord: each input column of a layer is zero in timesteps
    minus its fired count.
    """
    T = record.timesteps
    if T == 0:
        raise ValueError("empty activation record")
    fired = record.fired
    size = T * sum(len(f) for f in fired) + record.output_membrane.size
    nonzero = sum(int(f.sum()) for f in fired) + int(np.count_nonzero(record.output_membrane))
    return (size - nonzero) / size


def effective_ops(record, net: Network) -> float:
    """Average accumulates (ACs) the record's spikes trigger per timestep.

    One AC per (nonzero presynaptic activation, nonzero weight) pair, summed
    over connection layers and averaged over timesteps: per layer, the dot
    product of each input column's fired count with the column's nonzero
    weights. record is a SpikeCounts or an ActivationRecord.
    """
    fired = record.fired
    if [len(f) for f in fired] != list(net.config.layer_dims[:-1]):
        raise ValueError("activation record does not match network topology")
    T = record.timesteps
    if T == 0:
        return 0.0
    total = 0
    for f, layer in zip(fired, net.layers):
        total += int(f @ np.count_nonzero(layer.weights, axis=0))
    return total / T


def evaluate_segments(net: Network, segments) -> MetricsReport:
    """Forward every segment (state reset at each) and pool the four metrics."""
    segments = list(segments)
    counts = _forward_sequences(net, [seg.spikes for seg in segments])
    truth = np.concatenate([seg.velocity for seg in segments])
    return MetricsReport(
        r2=r_squared(counts.output_membrane, truth),
        connection_sparsity=connection_sparsity(net),
        connection_sparsity_prunable=connection_sparsity(net, prunable_only=True),
        activation_sparsity=activation_sparsity(counts),
        effective_ops=effective_ops(counts, net),
    )
