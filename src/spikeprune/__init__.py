"""spikeprune: adaptive magnitude pruning for small LIF spiking decoders.

Library layout:

- network: LIF dynamics, masked dense layers, the one forward kernel
- training: surrogate-gradient BPTT, the Adam optimizer, pretraining
- pruning: the adaptive prune/fine-tune/rollback controller and its trace
- metrics: R^2, connection/activation sparsity, effective synaptic ops
- energy: per-timestep energy and average power on neuromorphic hardware
- data: session container, portable file format, splits, synthetic tasks
- checkpoint: bit-exact binary network checkpoints
- cli: the `spikeprune` command (synth / pretrain / prune / eval)
"""

from .network import (
    ActivationRecord,
    LifParams,
    Network,
    NetworkConfig,
    WeightLayer,
    forward_window,
    network_forward,
)
from .training import (
    AdamOptimizer,
    TrainConfig,
    TrainingDivergedError,
    compute_gradients,
    mse_loss,
    pretrain,
    surrogate_spike_grad,
    train_epoch,
    validate,
)
from .pruning import (
    EngineTrainer,
    PruneHyperParams,
    PruneTrace,
    adaptive_prune,
    prunable_zero_fraction,
    prune_step,
    select_prune_targets,
)
from .metrics import (
    DegenerateTruthError,
    MetricsReport,
    activation_sparsity,
    connection_sparsity,
    effective_ops,
    evaluate_segments,
    r_squared,
)
from .energy import EnergyParams, EnergyReport, average_power, energy_per_timestep, energy_report
from .data import (
    BadMagicError,
    NonBinarySpikeError,
    SessionDimensionError,
    SessionFormatError,
    SpikeSession,
    TruncatedSessionError,
    generate_synthetic,
    load_session,
    save_session,
    split_session,
)
from .checkpoint import CheckpointError, CheckpointVersionError, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
