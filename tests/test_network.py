import math

import numpy as np
import pytest

from helpers import scalar_reference_forward, scalar_reference_trace

import spikeprune.network as network
from spikeprune.network import (
    _EVAL_WINDOW,
    ActivationRecord,
    LifParams,
    Network,
    NetworkConfig,
    WeightLayer,
    forward_window,
    network_forward,
)
from spikeprune.pruning import prune_step


def tiny_net(dims=(2, 3, 3, 3, 2), seed=0, tau=5.0, dt=1.0):
    cfg = NetworkConfig.snn3(dims[0], hidden=dims[1:-1],
                             lif=LifParams(tau=tau, dt=dt), seed=seed)
    return Network.from_config(cfg)


def one_layer_net(weights, mask=None, params=LifParams()):
    """A single hidden layer with the given weights, plus a zero readout."""
    weights = np.asarray(weights, dtype=np.float64)
    n_out, n_in = weights.shape
    cfg = NetworkConfig(layer_dims=(n_in, n_out, 2), lif=params)
    mask = np.ones(weights.shape) if mask is None else mask
    return Network(cfg, [WeightLayer(weights, mask),
                         WeightLayer(np.zeros((2, n_out)), np.ones((2, n_out)))])


def run_steps(net, inputs, u0=None):
    """forward_window on one sequence: (spikes, pre-reset membranes, final
    membranes) of the first layer, starting it at u0 (default zero)."""
    x = np.asarray(inputs, dtype=np.float64)[:, None, :]
    dims = net.config.layer_dims
    state = [np.zeros((1, d)) for d in dims[1:]]
    if u0 is not None:
        state[0] = np.asarray(u0, dtype=np.float64).reshape(1, -1)
    acts, membranes, final = forward_window(net, x, state)
    return acts[1][:, 0], membranes[0][:, 0], final[0][0]


class TestLifParams:
    def test_decay_factor(self):
        p = LifParams(tau=2.0, dt=1.0)
        assert p.decay == math.exp(-0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LifParams(tau=0.0)
        with pytest.raises(ValueError):
            LifParams(tau=1.0, dt=-1.0)


class TestMembraneUpdate:
    def test_zero_state_zero_input(self):
        net = one_layer_net([[1.0]], params=LifParams(tau=1.0, dt=1.0))
        _, u, _ = run_steps(net, [[0.0]])
        assert u[0, 0] == 0.0

    def test_decay_plus_current(self):
        # e^-1 + 0.5, frozen from an independent high-precision evaluation
        net = one_layer_net([[0.5]], params=LifParams(tau=1.0, dt=1.0))
        _, u, _ = run_steps(net, [[1.0]], u0=[1.0])
        assert abs(u[0, 0] - 0.8678794411714423) < 1e-15

    def test_subthreshold_then_threshold(self):
        p = LifParams(tau=1.0, dt=1.0, threshold=1.0)
        s, u, _ = run_steps(one_layer_net([[0.7]], params=p), [[1.0]], u0=[0.4])
        assert u[0, 0] == pytest.approx(0.4 * math.exp(-1.0) + 0.7)
        assert s[0, 0] == 0.0  # 0.847... < 1
        # with no leak the same inputs cross the threshold
        p_inf = LifParams(tau=math.inf, dt=1.0, threshold=1.0)
        s2, u2, _ = run_steps(one_layer_net([[0.7]], params=p_inf), [[1.0]], u0=[0.4])
        assert u2[0, 0] == pytest.approx(1.1) and s2[0, 0] == 1.0

    def test_dimension_mismatch(self):
        net = one_layer_net(np.ones((2, 1)))
        with pytest.raises(ValueError):
            run_steps(net, [[0.0]], u0=np.zeros(3))


class TestSpikeAndReset:
    def test_boundary_fires(self):
        # the current equals the threshold exactly: >= fires
        p = LifParams(threshold=1.0, reset_value=0.0)
        s, u, final = run_steps(one_layer_net([[1.0]], params=p), [[1.0]])
        assert u[0, 0] == 1.0
        assert s[0, 0] == 1.0 and final[0] == 0.0

    def test_below_threshold(self):
        p = LifParams(threshold=1.0)
        s, _, final = run_steps(one_layer_net([[0.999]], params=p), [[1.0]])
        assert s[0, 0] == 0.0 and final[0] == 0.999

    def test_mixed(self):
        p = LifParams(threshold=1.0, reset_value=0.0)
        s, _, final = run_steps(one_layer_net([[2.5], [0.3]], params=p), [[1.0]])
        assert s[0].tolist() == [1.0, 0.0]
        assert final.tolist() == [0.0, 0.3]

    def test_nonzero_reset_value_matches_scalar_reference(self):
        p = LifParams(tau=3.0, threshold=0.8, reset_value=0.25)
        rng = np.random.default_rng(4)
        for seed in range(5):
            cfg = NetworkConfig.snn3(3, hidden=(4, 3, 4), lif=p, seed=seed)
            net = Network.from_config(cfg, init_scale=3.0)
            x = (rng.random((30, 3)) < 0.6).astype(float)
            pred, rec = network_forward(net, x)
            assert any(h.any() for h in rec.hidden_spikes)
            assert np.allclose(pred, scalar_reference_forward(net, x),
                               rtol=1e-12, atol=1e-14)


class TestLayerForward:
    def test_zero_input_zero_state(self):
        s, u, final = run_steps(one_layer_net(np.ones((3, 2))), [[0.0, 0.0]])
        assert not s.any() and not u.any() and not final.any()

    def test_masked_connection_contributes_nothing(self):
        net = one_layer_net([[5.0, 0.3]], mask=np.array([[0, 1]]))
        _, _, final = run_steps(net, [[1.0, 0.0]])
        assert final[0] == 0.0  # the 5.0 weight is invisible under mask 0

    def test_two_input_single_neuron_fires(self):
        # 0.6 + 0.9 = 1.5 >= threshold with no leak -> spike and reset
        p = LifParams(tau=math.inf, dt=1.0, threshold=1.0, reset_value=0.0)
        s, _, final = run_steps(one_layer_net([[0.6, 0.9]], params=p), [[1.0, 1.0]])
        assert s[0, 0] == 1.0 and final[0] == 0.0

    def test_non_spiking_returns_membrane(self):
        # the hidden neuron fires at once; the readout keeps its raw membrane
        p = LifParams(tau=math.inf, dt=1.0)
        net = one_layer_net([[5.0, 5.0]], params=p)
        net.layers[1].weights[:] = [[0.6], [0.9]]
        x = np.ones((1, 1, 2))
        acts, membranes, final = forward_window(net, x, [np.zeros((1, 1)), np.zeros((1, 2))])
        assert acts[-1][0, 0] == pytest.approx([0.6, 0.9])
        assert np.array_equal(acts[-1], membranes[-1])
        assert np.array_equal(final[-1], acts[-1][-1])

    def test_dimension_mismatch(self):
        net = one_layer_net(np.ones((1, 2)))
        with pytest.raises(ValueError):
            run_steps(net, [[0.0, 0.0, 0.0]])


class TestNetworkForward:
    def test_empty_sequence(self):
        net = tiny_net()
        pred, record = network_forward(net, np.zeros((0, 2)))
        assert pred.shape == (0, 2)
        assert record.timesteps == 0

    def test_zero_input_fixed_point(self):
        net = tiny_net(seed=3)
        pred, record = network_forward(net, np.zeros((7, 2)))
        assert not pred.any()
        assert not record.output_membrane.any()
        for s in record.hidden_spikes:
            assert not s.any()

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(42)
        for seed in range(5):
            net = tiny_net(dims=(2, 3, 2, 3, 2), seed=seed, tau=3.0)
            for layer in net.layers:
                layer.weights *= 3.0  # push some neurons past threshold
            x = (rng.random((3, 2)) < 0.7).astype(float)
            pred, _ = network_forward(net, x)
            ref = scalar_reference_forward(net, x)
            assert np.allclose(pred, ref, rtol=1e-12, atol=1e-14)

    def test_zero_input_decay_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u0 = rng.uniform(-2, 2, size=2)
            tau = rng.uniform(0.5, 50.0)
            dt = rng.uniform(0.1, 10.0)
            p = LifParams(tau=tau, dt=dt, threshold=1e9)  # never fire
            k = 100
            _, _, u = run_steps(one_layer_net(np.ones((2, 1)), params=p),
                                np.zeros((k, 1)), u0=u0)
            expect = u0 * math.exp(-k * dt / tau)
            assert np.allclose(u, expect, rtol=1e-12, atol=0)

    def test_mask_opacity(self):
        rng = np.random.default_rng(5)
        net = tiny_net(seed=5)
        for layer in net.layers:
            layer.mask = (rng.random(layer.mask.shape) > 0.4).astype(np.uint8)
        x = (rng.random((20, 2)) < 0.5).astype(float)
        base, base_rec = network_forward(net, x)
        # scribble arbitrary values under the masked positions
        for layer in net.layers:
            noise = rng.normal(size=layer.weights.shape) * 100
            layer.weights = np.where(layer.mask == 0, noise, layer.weights)
        pred, rec = network_forward(net, x)
        assert np.array_equal(base, pred)
        for a, b in zip(base_rec.hidden_spikes, rec.hidden_spikes):
            assert np.array_equal(a, b)

    def test_determinism(self):
        net1 = tiny_net(seed=9)
        net2 = tiny_net(seed=9)
        x = (np.random.default_rng(1).random((50, 2)) < 0.5).astype(float)
        p1, _ = network_forward(net1, x)
        p2, _ = network_forward(net2, x)
        assert np.array_equal(p1, p2)

    def test_hidden_spikes_binary_output_never_spikes(self):
        net = tiny_net(seed=11)
        for layer in net.layers:
            layer.weights *= 5.0
        x = (np.random.default_rng(2).random((40, 2)) < 0.6).astype(float)
        pred, record = network_forward(net, x)
        for s in record.hidden_spikes:
            assert set(np.unique(s)) <= {0, 1}
        # readout is the raw membrane, never a reset spike train
        assert np.array_equal(record.output_membrane, pred)

    def test_input_dim_mismatch(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            network_forward(net, np.zeros((4, 3)))


class TestResetState:
    def test_zeros_idempotent_weight_independent(self):
        # every call starts from zero membranes: a driven run leaves no state
        # behind, and zero input stays at zero whatever the weights
        net = tiny_net(seed=13)
        for layer in net.layers:
            layer.weights += 100
        silent = np.zeros((5, 2))
        first, _ = network_forward(net, silent)
        network_forward(net, np.ones((5, 2)))
        again, rec = network_forward(net, silent)
        assert not first.any() and np.array_equal(first, again)
        assert all(not s.any() for s in rec.hidden_spikes)


class TestWindowing:
    def test_equals_one_whole_sequence_kernel_call(self):
        rng = np.random.default_rng(21)
        net = tiny_net(dims=(3, 6, 5, 4, 2), seed=21)
        for layer in net.layers:
            layer.weights *= 3.0
        for T in (_EVAL_WINDOW - 1, _EVAL_WINDOW, _EVAL_WINDOW + 1, 2 * _EVAL_WINDOW + 3):
            x = (rng.random((T, 3)) < 0.4).astype(np.uint8)
            pred, rec = network_forward(net, x)
            state = [np.zeros((1, d)) for d in net.config.layer_dims[1:]]
            acts, _, _ = forward_window(net, x[:, None, :].astype(np.float64), state)
            assert np.array_equal(pred, acts[-1][:, 0])
            for h, a in zip(rec.hidden_spikes, acts[1:-1]):
                assert np.array_equal(h, a[:, 0])
            assert any(h.any() for h in rec.hidden_spikes)

    def test_batched_windows_carry_state_like_scalar_reference(self):
        # B = 3 sequences through 3 consecutive windows of unequal length
        rng = np.random.default_rng(33)
        net = tiny_net(dims=(4, 6, 5, 4, 2), seed=33, tau=4.0)
        for layer in net.layers:
            layer.weights *= 3.0
        x = (rng.random((7 + 12 + 4, 3, 4)) < 0.4).astype(np.float64)
        state = [np.zeros((3, d)) for d in net.config.layer_dims[1:]]
        acts = []
        for lo, hi in ((0, 7), (7, 19), (19, 23)):
            window, _, state = forward_window(net, x[lo:hi], state)
            acts.append(window)
        acts = [np.concatenate(layer) for layer in zip(*acts)]
        for b in range(3):
            ref, _ = scalar_reference_trace(net, x[:, b])
            for h, ref_h in zip(acts[1:-1], ref[1:-1]):
                assert np.array_equal(h[:, b], np.array(ref_h))
                assert h[:, b].any()
            np.testing.assert_allclose(acts[-1][:, b], np.array(ref[-1]),
                                       rtol=1e-12, atol=0)


class TestEvalDriver:
    """_forward_sequences against B=1 forward_window windows, state carried.

    With a 5-step window and 4 connection layers, lengths 7, 18 and 33 span
    fewer windows than there are layers, as many, and more, each ending in
    a short window; the groups hold 1, 4 and 5 sequences, and one sequence
    is empty. The readout is driven past the threshold with a nonzero reset
    value, so a readout that fired, or a layer that lost its membranes
    between windows, would change the bits."""

    def test_matches_windowed_kernel_and_scalar_reference(self, monkeypatch):
        monkeypatch.setattr(network, "_EVAL_WINDOW", 5)
        p = LifParams(tau=3.0, threshold=0.9, reset_value=0.3)
        net = Network.from_config(NetworkConfig.snn3(3, hidden=(6, 5, 4), lif=p, seed=8),
                                  init_scale=3.0)
        net.layers[-1].weights[:] = np.abs(net.layers[-1].weights) + 0.5
        rng = np.random.default_rng(8)
        lengths = [18, 33, 7, 18, 33, 0, 33, 18, 33, 18, 33]
        seqs = [(rng.random((T, 3)) < 0.5).astype(np.uint8) for T in lengths]
        record = network._forward_sequences(net, seqs)

        at = 0
        for x in seqs:
            T = len(x)
            rows = slice(at, at + T)
            at += T
            state = [np.zeros((1, d)) for d in net.config.layer_dims[1:]]
            windows = []
            for lo in range(0, T, 5):
                acts, _, state = forward_window(
                    net, x[lo:lo + 5, None, :].astype(np.float64), state)
                windows.append(acts)
            if not T:
                assert record.output_membrane[rows].shape == (0, 2)
                continue
            acts = [np.concatenate(layer)[:, 0] for layer in zip(*windows)]
            assert np.array_equal(record.input_spikes[rows], x)
            for h, a in zip(record.hidden_spikes, acts[1:-1]):
                assert np.array_equal(h[rows], a)
            assert np.array_equal(record.output_membrane[rows], acts[-1])
            assert (record.output_membrane[rows] >= p.threshold).any()

            ref, _ = scalar_reference_trace(net, x)
            for h, ref_h in zip(record.hidden_spikes, ref[1:-1]):
                assert np.array_equal(h[rows], np.array(ref_h))
            np.testing.assert_allclose(record.output_membrane[rows], np.array(ref[-1]),
                                       rtol=1e-12, atol=0)
        assert at == record.timesteps
        assert all(h.any() and not h.all() for h in record.hidden_spikes)


class TestConfig:
    def test_synapse_counts(self):
        assert NetworkConfig.snn3(96).synapse_count() == 9900
        assert NetworkConfig.snn3(192).synapse_count() == 14700

    def test_output_dim_enforced(self):
        with pytest.raises(ValueError):
            NetworkConfig(layer_dims=(4, 3, 3))

    def test_output_layer_not_prunable(self):
        net = Network.from_config(NetworkConfig.snn3(4, hidden=(3, 3, 3)))
        prunable = net.prunable_layers()
        assert len(prunable) == 3 and all(a is b for a, b in zip(prunable, net.layers))
        prune_step(net, 100.0)
        assert [l.n_masked for l in net.layers] == [12, 9, 9, 0]

    def test_snapshot_restore_roundtrip(self):
        net = tiny_net(seed=17)
        snap = net.snapshot()
        before = [l.weights.copy() for l in net.layers]
        for layer in net.layers:
            layer.weights += 1.0
            layer.mask[:] = 0
        net.restore(snap)
        for layer, w in zip(net.layers, before):
            assert np.array_equal(layer.weights, w)
            assert layer.mask.all()
