"""Walk through the LIF neuron dynamics one step at a time.

Shows the three ingredients of the neuron model: exponential membrane decay,
integration of synaptic input behind a prune mask, and the fire-at-threshold
reset. Each part runs a one-neuron hidden layer through `forward_window`, the
kernel that training, validation and eval all use; it returns every
pre-reset membrane along with the spikes. Run:

    python demos/01_lif_dynamics.py
"""

from dataclasses import replace

import numpy as np

from spikeprune import LifParams, Network, NetworkConfig, WeightLayer, forward_window

params = LifParams(tau=5.0, threshold=1.0, reset_value=0.0, dt=1.0)
print(f"tau={params.tau}, dt={params.dt} -> per-step decay factor "
      f"exp(-dt/tau) = {params.decay:.6f}\n")


def neuron(weights, mask, lif=params):
    """One hidden LIF neuron behind the given synapses, plus a silent readout."""
    n_in = len(weights)
    cfg = NetworkConfig(layer_dims=(n_in, 1, 2), lif=lif)
    return Network(cfg, [WeightLayer(np.array([weights]), np.array([mask])),
                         WeightLayer(np.zeros((2, 1)), np.ones((2, 1)))])


def run(net, inputs, u0=0.0):
    """Spikes, pre-reset membranes and post-reset membranes of the neuron."""
    x = np.asarray(inputs, dtype=np.float64)[:, None, :]
    acts, membranes, _ = forward_window(net, x, [np.full((1, 1), u0), np.zeros((1, 2))])
    spikes, u = acts[1][:, 0, 0], membranes[0][:, 0, 0]
    return spikes, u, np.where(spikes > 0, params.reset_value, u)


# 1. pure decay: start a membrane at 2.0 and feed it nothing (the threshold
#    is raised out of reach so the neuron only leaks)
print("pure decay from u=2.0:")
leaky = neuron([1.0], [1], replace(params, threshold=np.inf))
_, u, _ = run(leaky, np.zeros((6, 1)), u0=2.0)
for step, value in enumerate([2.0, *u[:-1]]):
    print(f"  step {step}: u = {value:.6f}")
print()

# 2. integrate-and-fire: constant subthreshold current accumulates until
#    the threshold is reached, then the neuron resets and starts over
print("constant current 0.25 into one neuron (threshold 1.0):")
spikes, _, after = run(neuron([0.25], [1]), np.ones((16, 1)))
for step in range(16):
    marker = "  <-- spike, reset" if spikes[step] else ""
    print(f"  step {step}: u = {after[step]:.6f}{marker}")
print()

# 3. a masked synapse is absent: building the layer sets a weight under a
#    zero mask to 0, and every pass reads the weights as they are
net = neuron([0.6, 100.0], [1, 0])
_, u, _ = run(net, [[1.0, 1.0]])
print("two presynaptic spikes into weights [0.6, 100.0] with mask [1, 0]:")
print(f"  the layer stores weights {net.layers[0].weights[0].tolist()}")
print(f"  resulting membrane = {u[0]:.3f} (only the unmasked 0.6 counts)")
