import math

import numpy as np
import pytest

from helpers import (assert_same_bits, scalar_reference_forward, scalar_reference_trace,
                     scaled_net, set_masks)

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
        # dt / tau is inf / inf: a NaN decay would make every membrane NaN
        with pytest.raises(ValueError, match="dt / tau"):
            LifParams(tau=math.inf, dt=math.inf)
        # a NaN threshold would silently never fire
        with pytest.raises(ValueError):
            LifParams(threshold=math.nan)
        for reset_value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                LifParams(reset_value=reset_value)
        # an int past float64's range, as a JSON checkpoint header can hold
        for name in ("tau", "threshold", "reset_value", "dt"):
            with pytest.raises(ValueError, match=f"{name} does not fit a float64"):
                LifParams(**{name: 10 ** 400})

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf])
    def test_infinite_threshold_allowed(self, threshold):
        assert LifParams(threshold=threshold).threshold == threshold

    def test_one_infinite_time_constant_allowed(self):
        # no leak (decay 1) and a membrane forgotten every step (decay 0)
        assert LifParams(tau=math.inf, dt=4.0).decay == 1.0
        assert LifParams(tau=20.0, dt=math.inf).decay == 0.0


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
            net = scaled_net(cfg, 3.0)
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
        # values written under a zero mask are dropped when the layer is
        # built, so they never reach the forward
        rng = np.random.default_rng(5)
        net = tiny_net(seed=5)
        set_masks(net, [(rng.random(layer.mask.shape) > 0.4).astype(np.uint8)
                        for layer in net.layers])
        x = (rng.random((20, 2)) < 0.5).astype(float)
        base, base_rec = network_forward(net, x)
        # scribble arbitrary values under the masked positions
        noisy = Network(net.config, [
            WeightLayer(np.where(layer.mask == 0, rng.normal(size=layer.weights.shape) * 100,
                                 layer.weights), layer.mask)
            for layer in net.layers])
        for layer in noisy.layers:
            assert not layer.weights[layer.mask == 0].any()
        pred, rec = network_forward(noisy, x)
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


def windowed_forward(net, x, Tw):
    """x [T x input_dim] through B=1 forward_window windows of Tw steps, the
    state carried; returns every layer's output, [T x H] each."""
    state = [np.zeros((1, d)) for d in net.config.layer_dims[1:]]
    windows = []
    for lo in range(0, len(x), Tw):
        acts, _, state = forward_window(net, x[lo:lo + Tw, None, :].astype(np.float64), state)
        windows.append(acts[1:])
    return [np.concatenate(layer)[:, 0] for layer in zip(*windows)]


def column_sums(x, outputs):
    """Per connection layer, each input column's sum over the steps: the
    input x, then every hidden layer's spikes (outputs without the readout)."""
    return [np.asarray(a).sum(axis=0).astype(np.int64) for a in (x, *outputs)]


def check_counts(net, seqs, counts, Tw):
    """counts (from _forward_sequences over seqs) against the column sums
    of windowed_forward and of the scalar reference, pooled over seqs, and
    each sequence run alone through the driver against its own sums."""
    pooled = [np.zeros(k, dtype=np.int64) for k in net.config.layer_dims[:-1]]
    for x in seqs:
        if not len(x):
            continue
        sums = column_sums(x, windowed_forward(net, x, Tw)[:-1])
        ref, _ = scalar_reference_trace(net, x)
        assert all(np.array_equal(a, r) for a, r in zip(sums, column_sums(x, ref[1:-1])))
        alone = network._forward_sequences(net, [x]).fired
        assert all(np.array_equal(a, f) for a, f in zip(sums, alone))
        pooled = [p + a for p, a in zip(pooled, sums)]
    assert all(np.array_equal(p, f) for p, f in zip(pooled, counts.fired))
    assert all(f.dtype == np.int64 for f in counts.fired)


class TestEvalDriver:
    """_forward_sequences against B=1 forward_window windows, state carried.

    With a 5-step window, the lengths 0, 1, Tw - 1, Tw, Tw + 1, 3·Tw + 2
    and 6·Tw + 3 span no window, one, two, as many as and more than the 4
    connection layers, ending in short and full windows. There are more
    segments than lanes, so lanes run several segments of mixed length back
    to back, each from zero membranes. The readout is driven past the
    threshold with a nonzero reset value, so a readout that fired, or a
    layer that lost its membranes between windows or kept them across
    segments, would change the bits. The driver keeps no spike train, so
    the spikes are checked through their per-column counts."""

    def test_matches_windowed_kernel_and_scalar_reference(self, monkeypatch):
        monkeypatch.setattr(network, "_EVAL_WINDOW", 5)
        p = LifParams(tau=3.0, threshold=0.9, reset_value=0.3)
        net = scaled_net(NetworkConfig.snn3(3, hidden=(6, 5, 4), lif=p, seed=8), 3.0)
        net.layers[-1].weights[:] = np.abs(net.layers[-1].weights) + 0.5
        rng = np.random.default_rng(8)
        lengths = [17, 6, 0, 33, 5, 4, 1, 17, 6, 1, 33, 4, 5, 17, 1, 6, 0, 4]
        assert sum(T > 0 for T in lengths) > network._EVAL_LANES
        seqs = [(rng.random((T, 3)) < 0.5).astype(np.uint8) for T in lengths]
        counts = network._forward_sequences(net, seqs)

        at = 0
        for x in seqs:
            T = len(x)
            rows = slice(at, at + T)
            at += T
            if not T:
                assert counts.output_membrane[rows].shape == (0, 2)
                continue
            acts = windowed_forward(net, x, 5)
            assert np.array_equal(counts.output_membrane[rows], acts[-1])
            assert (counts.output_membrane[rows] >= p.threshold).any()
            ref, _ = scalar_reference_trace(net, x)
            np.testing.assert_allclose(counts.output_membrane[rows], np.array(ref[-1]),
                                       rtol=1e-12, atol=0)
        assert at == counts.timesteps
        check_counts(net, seqs, counts, 5)
        assert all(f.any() and (f < at).any() for f in counts.fired[1:])

    @pytest.mark.parametrize("p", [LifParams(tau=3.0, threshold=0.0),
                                   LifParams(tau=3.0, threshold=0.5, reset_value=1.0),
                                   LifParams(tau=3.0, threshold=-0.25),
                                   LifParams(tau=3.0, threshold=-math.inf),
                                   LifParams(tau=3.0, threshold=math.inf)],
                             ids=["threshold-0", "reset-above-threshold", "threshold-negative",
                                  "threshold-minus-inf", "threshold-inf"])
    def test_rows_no_gemm_writes_may_fire(self, monkeypatch, p):
        # a zeroed row's membrane is the decayed carried one: at a threshold
        # of 0 or below it fires at once (a membrane of -0.0 too), and with
        # reset_value·decay >= threshold a neuron that fired keeps firing. So
        # the scan fires in the tails of short windows, on idle lanes and in
        # layers not in flight, and the counts must take only the rows the
        # GEMMs read. At -inf every hidden neuron fires at every step, at
        # +inf none ever does
        monkeypatch.setattr(network, "_EVAL_WINDOW", 5)
        scanned = []

        def spying_scan(u, fired, *args, scan=network._lif_scan):
            scan(u, fired, *args)
            scanned.append(sum(int(np.count_nonzero(f)) for f in fired or ()))

        monkeypatch.setattr(network, "_lif_scan", spying_scan)
        net = scaled_net(NetworkConfig.snn3(3, hidden=(6, 5, 4), lif=p, seed=3), 2.0)
        rng = np.random.default_rng(3)
        lengths = [17, 6, 33, 4, 1, 12, 2, 1, 7, 3]
        assert len(lengths) > network._EVAL_LANES
        seqs = [(rng.random((T, 3)) < 0.3).astype(np.uint8) for T in lengths]
        counts = network._forward_sequences(net, seqs)
        if p.threshold < math.inf:
            assert sum(scanned) > sum(int(f.sum()) for f in counts.fired[1:])
        else:
            assert sum(scanned) == 0

        at = 0
        for x in seqs:
            rows = slice(at, at + len(x))
            at += len(x)
            assert np.array_equal(counts.output_membrane[rows], windowed_forward(net, x, 5)[-1])
            ref, _ = scalar_reference_trace(net, x)
            np.testing.assert_allclose(counts.output_membrane[rows], np.array(ref[-1]),
                                       rtol=1e-12, atol=0)
        check_counts(net, seqs, counts, 5)
        spike_counts = np.concatenate(counts.fired[1:])
        if p.threshold == -math.inf:
            assert (spike_counts == at).all()
        elif p.threshold == math.inf:
            assert not spike_counts.any()
        else:
            assert all(f.any() and (f < at).any() for f in counts.fired[1:])

    def test_idle_lanes_stay_finite(self):
        # 8 hidden layers with decay near 1: one long segment keeps the
        # wavefront going for 300 windows, and the 1-step segments end after
        # a few, so their lanes idle for hundreds of stages. Rows a stage
        # leaves unwritten would be added in again at every stage, and an
        # idle lane's carried membranes would grow geometrically to overflow
        p = LifParams(tau=1000.0)
        net = scaled_net(NetworkConfig.snn3(4, hidden=(6,) * 8, lif=p, seed=5), 2.0)
        rng = np.random.default_rng(5)
        T = 300 * network._EVAL_WINDOW
        seqs = [(rng.random((n, 4)) < 0.4).astype(np.uint8) for n in [T] + [1] * 20]
        with np.errstate(over="raise", invalid="raise"):
            counts = network._forward_sequences(net, seqs)
            pred, alone = network_forward(net, seqs[0])
        assert np.array_equal(counts.output_membrane[:T], pred)
        assert all(f.any() for f in alone.fired)
        for k, x in enumerate(seqs[1:]):
            acts = windowed_forward(net, x, network._EVAL_WINDOW)
            assert np.array_equal(counts.output_membrane[T + k], acts[-1][0])
        # the scalar reference takes about 10 s over the long segment, so it
        # checks the short ones; network_forward's trains are the long one's
        assert all(np.array_equal(f, a) for f, a in
                   zip(network._forward_sequences(net, seqs[:1]).fired, alone.fired))
        short = network._forward_sequences(net, seqs[1:])
        check_counts(net, seqs[1:], short, network._EVAL_WINDOW)
        assert all(np.array_equal(f, a + s)
                   for f, a, s in zip(counts.fired, alone.fired, short.fired))

    def test_short_window_tails_stay_finite(self, monkeypatch):
        # one lane runs a full window, then 600 1-step segments, so every
        # stage leaves Tw - 1 rows of each layer unwritten. Left stale, the
        # readout's would be added in again at every stage and grow like a
        # binomial coefficient; readout weights of 1e200 make that overflow
        # after about 300 stages, while the true membranes stay near 1e202
        monkeypatch.setattr(network, "_EVAL_LANES", 1)
        p = LifParams(tau=1000.0)
        net = scaled_net(NetworkConfig.snn3(4, hidden=(6,), lif=p, seed=5), 2.0)
        net.layers[-1].weights[:] = np.abs(net.layers[-1].weights) * 1e200
        rng = np.random.default_rng(5)
        Tw = network._EVAL_WINDOW
        seqs = [(rng.random((n, 4)) < 0.4).astype(np.uint8) for n in [Tw] + [1] * 600]
        with np.errstate(over="raise", invalid="raise"):
            counts = network._forward_sequences(net, seqs)
        at = 0
        for x in seqs:
            acts = windowed_forward(net, x, Tw)
            rows = slice(at, at + len(x))
            at += len(x)
            assert np.array_equal(counts.output_membrane[rows], acts[-1])
        check_counts(net, seqs, counts, Tw)
        assert counts.fired[1].any()


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


class TestWeightLayer:
    @pytest.mark.parametrize("mask, weights, stored", [
        ([[True, False]], [[1.0, 1.0]], [[1.0, 0.0]]),
        ([[1, 0]], [[1.0, 1.0]], [[1.0, 0.0]]),
        ([[1.0, 0.0]], [[1.0, 1.0]], [[1.0, 0.0]]),
        ([[np.uint8(1), -0.0]], [[1.0, 1.0]], [[1.0, 0.0]]),
        ([[1, 0]], [[2.0, -3.0]], [[2.0, 0.0]]),
        ([[1, 0]], [[2.0, -0.0]], [[2.0, -0.0]]),
        ([[1, 1]], [[2.0, -3.0]], [[2.0, -3.0]]),
    ], ids=["bool", "int", "float", "negative-zero", "nonzero-weight-masked",
            "negative-zero-weight-masked", "no-zero-mask"])
    def test_binary_masks_stored_as_uint8(self, mask, weights, stored):
        # a nonzero weight under a zero mask becomes +0.0, a -0.0 stays, in
        # a new array: the caller's array is left as it was, and shared
        # when nothing changes
        w = np.array(weights)
        layer = WeightLayer(w, np.array(mask))
        assert layer.mask.dtype == np.uint8
        assert layer.mask.tolist() == (np.array(mask) != 0).astype(int).tolist()
        assert_same_bits(layer.weights, np.array(stored))
        assert_same_bits(w, np.array(weights))
        assert (layer.weights is w) == (stored == weights)

    @pytest.mark.parametrize("mask", [
        [[1.0, 0.5]], [[1.0, -1.0]], [[1, 2]], [[1.0, math.nan]], [[1.0, math.inf]],
        np.array([[1, 2]], dtype=np.uint8), np.array([[0, 255]], dtype=np.uint8),
    ], ids=["half", "minus-one", "int-two", "nan", "inf", "uint8-two", "uint8-255"])
    def test_non_binary_masks_are_rejected(self, mask):
        # the uint8 cast made 0.5 a 0 and -1.0 a 255; a 2 stayed 2, which
        # eval ran as 2w while training doubled the gradient
        with pytest.raises(ValueError, match="mask"):
            WeightLayer(np.ones((1, 2)), np.asarray(mask))
