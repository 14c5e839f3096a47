"""Decoding and sparsity metrics for one evaluated session.

Four metrics: coefficient of determination of the velocity prediction
(averaged over X and Y), connection sparsity (fraction of zero weights),
activation sparsity (fraction of zero activation values pooled over layers
and timesteps), and effective synaptic operations per timestep (ACs for the
spiking network, MACs for a dense-equivalent comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

# network_forward stays importable from here: the benchmark traces it by this name
from .network import ActivationRecord, Network, _forward_sequences, network_forward  # noqa: F401

# rows effective_ops counts at a time, so that no boolean copy of a whole
# record is made
_COUNT_ROWS = 4096

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
    ops_kind: str

    def as_dict(self) -> dict:
        return asdict(self)


def r_squared(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean of the per-component coefficients of determination.

    For each velocity component: 1 - sum((y - yhat)^2) / sum((y - ybar)^2).
    Raises DegenerateTruthError if any truth component is constant.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.ndim != 2 or pred.shape[0] < 2:
        raise ValueError("need a [T x k] series with T >= 2")
    ss_tot = np.sum((truth - truth.mean(axis=0)) ** 2, axis=0)
    if np.any(ss_tot == 0):
        raise DegenerateTruthError("a truth component is constant; R^2 denominator is 0")
    ss_res = np.sum((truth - pred) ** 2, axis=0)
    return float(np.mean(1.0 - ss_res / ss_tot))


def connection_sparsity(net: Network, prunable_only: bool = False) -> float:
    """Fraction of zero-valued effective weights.

    Default counts every layer including the readout; prunable_only restricts
    to the layers the pruning controller may touch.
    """
    layers = net.prunable_layers() if prunable_only else net.layers
    total = sum(l.n_weights for l in layers)
    zeros = sum(int(np.count_nonzero(l.effective() == 0.0)) for l in layers)
    return zeros / total if total else 0.0


def activation_sparsity(record: ActivationRecord) -> float:
    """Fraction of zero activation values, pooled over layers and timesteps.

    Input spikes count as activations (they drive first-layer synaptic
    events), as do output membrane values.
    """
    if record.timesteps == 0:
        raise ValueError("empty activation record")
    groups = [record.input_spikes, *record.hidden_spikes, record.output_membrane]
    zeros = sum(a.size - int(np.count_nonzero(a)) for a in groups)
    return zeros / sum(a.size for a in groups)


def effective_ops(record: ActivationRecord, net: Network, kind: str = "AC"):
    """Average synaptic operations actually triggered per timestep.

    AC mode counts one accumulate per (nonzero presynaptic activation,
    nonzero effective weight) pair, summed over connection layers and
    averaged over timesteps. MAC mode emulates a dense ANN-style layer:
    every nonzero-weight connection counts each timestep, regardless of
    activations.
    """
    if kind not in ("AC", "MAC"):
        raise ValueError(f"kind must be 'AC' or 'MAC', got {kind!r}")
    T = record.timesteps
    if record.input_spikes.shape[1] != net.input_dim or \
            len(record.hidden_spikes) != net.config.n_layers - 1:
        raise ValueError("activation record does not match network topology")
    for i, s in enumerate(record.hidden_spikes):
        if s.shape[1] != net.config.layer_dims[i + 1]:
            raise ValueError("activation record does not match network topology")

    if kind == "MAC":
        return float(sum(np.count_nonzero(l.effective()) for l in net.layers)), "MAC"
    if T == 0:
        return 0.0, "AC"
    total = 0
    for i, layer in enumerate(net.layers):
        # ops = sum_j (steps where pre_j != 0) * (nonzero weights in column j)
        col_nnz = np.count_nonzero(layer.effective() != 0.0, axis=0)
        acts = record.layer_inputs(i)
        fired = np.zeros(acts.shape[1], dtype=np.int64)
        for lo in range(0, len(acts), _COUNT_ROWS):
            # a block's counts fit an int32, which sums faster than intp
            fired += (acts[lo:lo + _COUNT_ROWS] != 0).sum(axis=0, dtype=np.int32)
        total += int(fired @ col_nnz)
    return total / T, "AC"


def evaluate_segments(net: Network, segments) -> MetricsReport:
    """Forward every segment (state reset at each) and pool the four metrics."""
    segments = list(segments)
    record = _forward_sequences(net, [seg.spikes for seg in segments])
    truth = np.concatenate([seg.velocity for seg in segments])
    acs, kind = effective_ops(record, net, kind="AC")
    return MetricsReport(
        r2=r_squared(record.output_membrane, truth),
        connection_sparsity=connection_sparsity(net),
        connection_sparsity_prunable=connection_sparsity(net, prunable_only=True),
        activation_sparsity=activation_sparsity(record),
        effective_ops=acs,
        ops_kind=kind,
    )
