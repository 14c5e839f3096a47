"""Generate a decodable synthetic session and pretrain a dense decoder.

The synthetic task draws Bernoulli input spikes and builds velocity labels
as a low-pass-filtered sparse linear mix of those spike trains, so a
three-hidden-layer LIF decoder can genuinely learn it. This demo trains a
small network for ~30 seconds and reports validation R^2. Run:

    python demos/02_synthetic_task_and_training.py
"""

import numpy as np

from spikeprune import (
    LifParams,
    NetworkConfig,
    TrainConfig,
    evaluate_segments,
    generate_synthetic,
    pretrain,
    split_session,
)

session = generate_synthetic(seed=11, channels=16, T=8_000, rate=0.3)
print(f"session '{session.session_id}': {session.timesteps} timesteps, "
      f"{session.channels} channels, spike rate {session.spikes.mean():.3f}")

split = split_session(session)
print("split (4 sub-sessions, 50/25/25 within each):")
for name in ("train", "val", "test"):
    sizes = [seg.timesteps for seg in split[name]]
    print(f"  {name:5s}: {sizes} = {sum(sizes)} timesteps")

config = NetworkConfig.snn3(16, hidden=(40, 40, 40),
                            lif=LifParams(tau=20.0, dt=4.0), seed=7)
print(f"\nnetwork {config.layer_dims}: {config.synapse_count()} synapses")

train_cfg = TrainConfig(learning_rate=2e-3, max_epochs=80, batch_length=25)
history = []
net, target_loss = pretrain(config, split, train_cfg,
                            log=lambda e, t, v: history.append((e, t, v)))
for e, t, v in history[::20] + [history[-1]]:
    print(f"  epoch {e:3d}: train loss {t:.4f}, val loss {v:.4f}")

val = evaluate_segments(net, split["val"])
test = evaluate_segments(net, split["test"])
print(f"\nfrozen target loss (for pruning): {target_loss:.4f}")
print(f"validation R^2 = {val.r2:.4f}, test R^2 = {test.r2:.4f}")
print(f"activation sparsity = {val.activation_sparsity:.4f} "
      f"(hidden spikes are rare events)")
