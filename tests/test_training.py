import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    PerLayerAdam,
    assert_grads_close,
    assert_same_bits,
    finite_difference_grads,
    per_layer_train_epoch,
    scalar_reference_trace,
    scalar_surrogate_grads,
    scaled_net,
    set_masks,
)

from spikeprune.data import SpikeSession, generate_synthetic, split_session
from spikeprune.network import (DIFFERENTIABLE, LifParams, Network, NetworkConfig, WeightLayer,
                                network_forward)
from spikeprune.pruning import GLOBAL, prunable_zero_fraction, prune_step
from spikeprune.training import (
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
from spikeprune.training import _layer_views


def random_tiny_net(rng, max_width=3, scale=1.5, **lif_fields):
    dims_h = tuple(int(rng.integers(1, max_width + 1)) for _ in range(3))
    cin = int(rng.integers(1, max_width + 1))
    lif = LifParams(tau=float(rng.uniform(1.0, 8.0)), dt=1.0, **lif_fields)
    cfg = NetworkConfig.snn3(cin, hidden=dims_h, lif=lif,
                             seed=int(rng.integers(1 << 30)))
    return scaled_net(cfg, scale)


class RecordingOptimizer:
    """Stores each step's gradients, per layer of net, and leaves the
    weights alone. Checks that live indexes the unmasked weights whenever
    any weight is masked, and is a full slice for a dense net."""

    def __init__(self, net):
        self.layers = net.layers
        self.grads = []

    def step(self, w, g, live):
        mask = np.concatenate([layer.mask.ravel() for layer in self.layers])
        if mask.all():
            assert live == slice(None)
        else:
            assert np.array_equal(live, np.flatnonzero(mask))
        self.grads.append(_layer_views(g.copy(), self.layers))


def scalar_final_state(net, spikes, state):
    """The post-reset membranes `scalar_reference_trace` ends a window with."""
    acts, membranes = scalar_reference_trace(net, spikes, state)
    reset = net.config.lif.reset_value
    final = [np.array(m[-1]) for m in membranes]
    for i in range(len(final) - 1):  # hidden layers reset where they spiked
        final[i] = np.where(np.array(acts[i + 1][-1]) > 0, reset, final[i])
    return final


class TestSurrogate:
    @pytest.mark.parametrize("threshold", [1.0, 0.3])
    def test_unit_triangle(self, threshold):
        # at the threshold, half way down either side, at the feet, beyond
        u = [threshold + d for d in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, 0.25, -0.75)]
        expected = [max(0.0, 1.0 - abs(v - threshold)) for v in u]
        got = surrogate_spike_grad(np.array(u), LifParams(threshold=threshold))
        assert_same_bits(got, np.array(expected))

    def test_peak_at_threshold(self):
        p = LifParams(threshold=1.0)
        assert surrogate_spike_grad(np.array([1.0]), p)[0] == 1.0

    def test_halfway(self):
        p = LifParams(threshold=1.0)
        assert surrogate_spike_grad(np.array([1.5]), p)[0] == 0.5


class TestGradientCheck:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            net = random_tiny_net(rng)
            T = int(rng.integers(1, 6))
            x = (rng.random((T, net.input_dim)) < 0.5).astype(float)
            y = rng.normal(size=(T, 2))
            _, analytic, _ = compute_gradients(net, x, y, mode=DIFFERENTIABLE)
            numeric = finite_difference_grads(net, x, y)
            assert_grads_close(analytic, numeric)

    def test_matches_finite_differences_at_a_reset_value_from_a_carried_state(self):
        # the reset path's (reset_value - u) term and the forward's reset_value·s
        # vanish at reset_value 0
        rng = np.random.default_rng(28)
        for _ in range(10):
            net = random_tiny_net(rng, threshold=0.8, reset_value=0.3)
            T = int(rng.integers(2, 6))
            x = (rng.random((T, net.input_dim)) < 0.5).astype(float)
            y = rng.normal(size=(T, 2))
            state = [rng.normal(size=d) for d in net.config.layer_dims[1:]]
            _, analytic, _ = compute_gradients(net, x, y, mode=DIFFERENTIABLE, state=state)
            numeric = finite_difference_grads(net, x, y, state=state)
            assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("carried", [False, True], ids=["zero-state", "carried-state"])
    def test_spiking_matches_scalar_surrogate_bptt(self, carried):
        fired = [0, 0, 0]
        flowed = [0, 0, 0, 0]
        for seed in range(8):
            rng = np.random.default_rng(seed)
            cfg = NetworkConfig.snn3(6, hidden=(5, 4, 5), seed=seed,
                                     lif=LifParams(tau=float(rng.uniform(2.0, 8.0))))
            net = scaled_net(cfg, 2.5)
            set_masks(net, [(rng.random(layer.mask.shape) > 0.2).astype(np.uint8)
                            for layer in net.layers])
            x = (rng.random((30, 6)) < 0.5).astype(float)
            y = rng.normal(size=(30, 2))
            state = None
            if carried:
                # the state a first window leaves behind starts the second
                state = compute_gradients(net, x[:15], y[:15])[2]
                x, y = x[15:], y[15:]
            loss, grads, _ = compute_gradients(net, x, y, state=state)
            ref_loss, ref_grads = scalar_surrogate_grads(net, x, y, state=state)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            for g, ref in zip(grads, ref_grads):
                np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0)
            acts, _ = scalar_reference_trace(net, x, state)
            fired = [f + int(np.sum(a)) for f, a in zip(fired, acts[1:-1])]
            flowed = [f + int(np.count_nonzero(g)) for f, g in zip(flowed, grads)]
        assert all(fired) and all(flowed)

    def test_masked_weights_have_zero_gradient(self):
        rng = np.random.default_rng(1)
        net = random_tiny_net(rng)
        set_masks(net, [None, np.zeros_like(net.layers[1].mask)])
        x = (rng.random((4, net.input_dim)) < 0.5).astype(float)
        y = rng.normal(size=(4, 2))
        _, grads, _ = compute_gradients(net, x, y, mode=DIFFERENTIABLE)
        assert not grads[1].any()


class TestTrainEpoch:
    def make_split(self, channels=5, T=120, seed=2):
        session = generate_synthetic(seed=seed, channels=channels, T=T, rate=0.3)
        return split_session(session)

    def test_zero_lr_leaves_weights_and_matches_validate(self):
        split = self.make_split()
        cfg = NetworkConfig.snn3(5, hidden=(6, 6, 6), seed=3)
        net = Network.from_config(cfg)
        before = [l.weights.copy() for l in net.layers]
        tc = TrainConfig(learning_rate=0.0, batch_length=10_000)
        loss = train_epoch(net, split["train"], tc, AdamOptimizer(tc.learning_rate))
        for layer, w in zip(net.layers, before):
            assert np.array_equal(layer.weights, w)
        assert loss == validate(net, split["train"])

    def test_mask_stays_zero_through_training(self):
        split = self.make_split()
        cfg = NetworkConfig.snn3(5, hidden=(6, 6, 6), seed=4)
        net = Network.from_config(cfg)
        rng = np.random.default_rng(0)
        set_masks(net, [(rng.random(layer.mask.shape) > 0.5).astype(np.uint8)
                        for layer in net.prunable_layers()])
        tc = TrainConfig(learning_rate=5e-3, batch_length=10)
        opt = AdamOptimizer(tc.learning_rate)
        for _ in range(3):
            train_epoch(net, split["train"], tc, opt)
            for layer in net.layers:
                assert not layer.weights[layer.mask == 0].any()

    def test_pooled_window_gradients_match_scalar_surrogate(self):
        # two equal-length segments share each window's step, and their
        # membranes carry from one window to the next: each step's gradient is
        # the mean of the segments' scalar surrogate-BPTT gradients
        rng = np.random.default_rng(5)
        cfg = NetworkConfig.snn3(6, hidden=(5, 4, 5), seed=5, lif=LifParams(tau=4.0))
        net = scaled_net(cfg, 2.5)
        T, window = 24, 10
        segs = [SpikeSession(spikes=(rng.random((T, 6)) < 0.5).astype(np.uint8),
                             velocity=rng.normal(size=(T, 2)), dt_ms=1.0)
                for _ in range(2)]
        opt = RecordingOptimizer(net)
        loss = train_epoch(net, segs, TrainConfig(batch_length=window), opt)
        assert len(opt.grads) == 3  # windows of 10, 10 and 4 steps
        states = [None, None]
        total_sq = 0.0
        for grads, lo in zip(opt.grads, range(0, T, window)):
            refs = []
            for j, seg in enumerate(segs):
                x = seg.spikes[lo:lo + window].astype(float)
                y = seg.velocity[lo:lo + window]
                seg_loss, seg_grads = scalar_surrogate_grads(net, x, y, state=states[j])
                if states[j] is not None:
                    # the carried state matters: a zero start gives other gradients
                    zero_start = scalar_surrogate_grads(net, x, y)[1]
                    assert any(not np.allclose(a, b) for a, b in zip(seg_grads, zero_start))
                refs.append(seg_grads)
                total_sq += seg_loss * y.size
                states[j] = scalar_final_state(net, x, states[j])
            for g, ref_a, ref_b in zip(grads, *refs):
                assert g.any()
                np.testing.assert_allclose(g, (ref_a + ref_b) / 2, rtol=1e-12, atol=1e-15)
        assert loss == pytest.approx(total_sq / (2 * T * 2), rel=1e-12)

    @pytest.mark.parametrize("B, masked, reset_value, adam_reset, relink, threshold", [
        (1, 0.0, 0.0, False, "all", 1.0),
        (3, 0.6, 0.3, True, "all", 1.0),
        (4, 0.6, 0.0, False, "all", 1.0),
        (4, 0.0, 0.3, True, "all", 1.0),
        (3, 0.6, 0.0, False, "one", 1.0),
        (2, 0.6, 0.3, False, "all", -0.5),
        (2, 0.6, 0.3, True, "all", -math.inf),
        (2, 0.6, 0.3, False, "all", math.inf),
    ], ids=["B1-dense", "B3-masked-reset0.3-adam-reset", "B4-masked", "B4-reset0.3-adam-reset",
            "B3-masked-one-layer-relinked", "B2-threshold-negative", "B2-threshold-minus-inf",
            "B2-threshold-inf"])
    def test_matches_per_layer_step_bit_for_bit(self, B, masked, reset_value, adam_reset,
                                                relink, threshold):
        # the flat optimizer pass, the two-call reverse scan, the cached
        # zero-mask and the per-group workspace change no bit of the
        # per-layer step, sign bits included. Between epochs every layer
        # gets an array of its own (a restore), or only layer 1 does: the
        # next epoch must train the new arrays, through no stale view of the
        # last epoch's flat vector. At threshold -inf every hidden neuron
        # fires at every step and the surrogate is 0, so only the readout
        # trains; at +inf none fires and nothing trains
        rng = np.random.default_rng(B)
        lif = LifParams(tau=4.0, threshold=threshold, reset_value=reset_value)
        net = scaled_net(NetworkConfig.snn3(6, hidden=(7, 5, 6), seed=B, lif=lif), 2.5)
        if masked:
            set_masks(net, [(rng.random(layer.mask.shape) >= masked).astype(np.uint8)
                            for layer in net.prunable_layers()])
        ref = Network(net.config, [WeightLayer(l.weights.copy(), l.mask.copy())
                                   for l in net.layers])
        start = [l.weights.copy() for l in net.layers]

        def sessions(*lengths):
            return [SpikeSession(spikes=(rng.random((T, 6)) < 0.5).astype(np.uint8),
                                 velocity=rng.normal(size=(T, 2)), dt_ms=1.0)
                    for T in lengths]

        segs = sessions(*[57] * B)
        # two length groups, B = 3 and B = 1: a workspace per group shape, the
        # second one step shorter than a window
        mixed = sessions(57, 9, 57, 57)
        tc = TrainConfig(learning_rate=5e-3, batch_length=10)  # a 7-step tail window
        opt, ref_opt = AdamOptimizer(tc.learning_rate), PerLayerAdam(tc.learning_rate)
        for epoch, epoch_segs in enumerate((segs, segs, mixed)):
            if epoch and adam_reset:
                opt.reset()
                ref_opt.reset()
            if epoch and relink == "all":
                net.restore(net.snapshot())
            elif epoch:
                layer = net.layers[1]
                layer.weights = layer.weights.copy()
                layer.weights[layer.mask == 1] *= 0.5
                ref.layers[1].weights[layer.mask == 1] *= 0.5
            assert_same_bits(train_epoch(net, epoch_segs, tc, opt),
                             per_layer_train_epoch(ref, epoch_segs, tc, ref_opt))
        for layer, ref_layer in zip(net.layers, ref.layers):
            assert_same_bits(layer.weights, ref_layer.weights)
        moved = [not np.array_equal(l.weights[l.mask == 1], w0[l.mask == 1])
                 for l, w0 in zip(net.layers, start)]
        trains = {-math.inf: [False] * 3 + [True], math.inf: [False] * 4}
        assert moved == trains.get(threshold, [True] * 4)
        assert_same_bits(opt._m, np.concatenate([m.ravel() for m in ref_opt.m]))
        assert_same_bits(opt._v, np.concatenate([v.ravel() for v in ref_opt.v]))

    def test_prune_snapshot_restore_sequence_matches_per_layer_step(self):
        # the controller's life in miniature: one optimizer throughout,
        # pruned between epochs, snapshot, pruned again, trained, then
        # restored without an optimizer reset and trained again, lightly
        # and heavily pruned. Weights pruned after their moments moved, and
        # revived by the restore with moments that kept decaying while
        # masked, keep the bits of the dense per-layer step
        rng = np.random.default_rng(7)
        net = scaled_net(NetworkConfig.snn3(6, hidden=(7, 5, 6), seed=7), 2.5)
        ref = Network(net.config, [WeightLayer(l.weights.copy(), l.mask.copy())
                                   for l in net.layers])
        segs = [SpikeSession(spikes=(rng.random((T, 6)) < 0.5).astype(np.uint8),
                             velocity=rng.normal(size=(T, 2)), dt_ms=1.0)
                for T in (57, 57, 30)]
        tc = TrainConfig(learning_rate=5e-3, batch_length=10)
        opt, ref_opt = AdamOptimizer(tc.learning_rate), PerLayerAdam(tc.learning_rate)

        def epoch():
            assert_same_bits(train_epoch(net, segs, tc, opt),
                             per_layer_train_epoch(ref, segs, tc, ref_opt))

        def prune(rate, scope="per-layer"):
            for n in (net, ref):
                prune_step(n, rate, scope)

        epoch()
        prune(10.0)
        epoch()
        snap, ref_snap = net.snapshot(), ref.snapshot()
        prune(50.0, GLOBAL)
        epoch()
        net.restore(snap)
        ref.restore(ref_snap)
        epoch()
        prune(50.0)
        epoch()
        for layer, ref_layer in zip(net.layers, ref.layers):
            assert np.array_equal(layer.mask, ref_layer.mask)
            assert_same_bits(layer.weights, ref_layer.weights)
        assert_same_bits(opt._m, np.concatenate([m.ravel() for m in ref_opt.m]))
        assert_same_bits(opt._v, np.concatenate([v.ravel() for v in ref_opt.v]))

    @pytest.mark.parametrize("sparsity", [95.0, 10.0])
    def test_masked_weights_are_plus_zero_after_every_window(self, sparsity):
        # a dense epoch gives every weight nonzero moments; after a prune
        # those moments keep decaying, but no window may leave a masked
        # weight off +0.0, whether the net is heavily (95%) or lightly (10%)
        # pruned: Adam steps the live weights alone in both
        split = self.make_split(T=400)
        net = scaled_net(NetworkConfig.snn3(5, hidden=(20, 20, 20), seed=4), 2.0)
        tc = TrainConfig(learning_rate=5e-3, batch_length=10)
        adam = AdamOptimizer(tc.learning_rate)
        train_epoch(net, split["train"], tc, adam)
        prune_step(net, sparsity)
        masked = [l.mask == 0 for l in net.layers]
        windows = []

        class CheckingAdam:
            def step(self, w, g, live):
                if windows:  # the previous window's update
                    for layer, zero in zip(net.layers, masked):
                        assert not layer.weights[zero].any()
                        assert not np.signbit(layer.weights[zero]).any()
                adam.step(w, g, live)
                windows.append(isinstance(live, slice))

        for _ in range(2):
            train_epoch(net, split["train"], tc, CheckingAdam())
            for layer, zero in zip(net.layers, masked):
                assert not layer.weights[zero].any()
                assert not np.signbit(layer.weights[zero]).any()
        assert len(windows) > 2 and not any(windows)
        assert [l.n_masked / l.n_weights for l in net.prunable_layers()] == [sparsity / 100] * 3
        assert np.count_nonzero(adam._m[np.concatenate([z.ravel() for z in masked])])

    def test_optimizer_gets_the_live_index(self):
        # RecordingOptimizer checks live: a full slice for a dense net, the
        # unmasked weights' flat index for a lightly and a heavily pruned one
        split = self.make_split()
        net = Network.from_config(NetworkConfig.snn3(5, hidden=(6, 6, 6), seed=4))
        tc = TrainConfig(batch_length=10)
        for rate in (0.0, 10.0, 50.0):  # dense, 10%, then 60% pruned
            prune_step(net, rate)
            opt = RecordingOptimizer(net)
            train_epoch(net, split["train"], tc, opt)
            assert opt.grads

    def test_memory_does_not_grow_with_segment_length(self):
        # each window's rows are copied into the workspace, so no array in
        # train_epoch grows with the split: a float64 copy of 4 x 2,000
        # steps at 32 channels would add 1.5 MB over 4 x 500
        rng = np.random.default_rng(11)
        cfg = NetworkConfig.snn3(32, seed=11)
        tc = TrainConfig(batch_length=25)

        def peak(T):
            segs = [SpikeSession(spikes=(rng.random((T, 32)) < 0.3).astype(np.uint8),
                                 velocity=rng.normal(size=(T, 2)), dt_ms=1.0)
                    for _ in range(4)]
            net = Network.from_config(cfg)
            opt = AdamOptimizer(tc.learning_rate)
            tracemalloc.start()
            try:
                train_epoch(net, segs, tc, opt)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) - peak(500) < 64 * 1024

    def test_loss_does_not_increase_statistically(self):
        good = 0
        deltas = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cfg = NetworkConfig.snn3(6, hidden=(8, 8, 8), seed=seed)
            net = scaled_net(cfg, 2.0)
            x = (rng.random((40, 6)) < 0.4).astype(float)
            y = rng.normal(size=(40, 2)) * 0.5
            l0, grads, _ = compute_gradients(net, x, y)
            for layer, g in zip(net.layers, grads):
                layer.weights -= 1e-4 * g
            l1, _, _ = compute_gradients(net, x, y)
            good += l1 <= l0
            deltas.append(l1 - l0)
        assert good >= 9
        assert np.mean(deltas) < 0

    def test_empty_dataset_raises(self):
        cfg = NetworkConfig.snn3(5, hidden=(6, 6, 6), seed=3)
        net = Network.from_config(cfg)
        tc = TrainConfig()
        with pytest.raises(ValueError):
            train_epoch(net, [], tc, AdamOptimizer(tc.learning_rate))
        with pytest.raises(ValueError):
            validate(net, [])


class TestValidate:
    def test_perfect_predictor_zero_loss(self):
        session = generate_synthetic(seed=7, channels=4, T=100, rate=0.3)
        split = split_session(session)
        cfg = NetworkConfig.snn3(4, hidden=(5, 5, 5), seed=9)
        net = Network.from_config(cfg)
        # replace labels with the network's own predictions
        from dataclasses import replace
        segs = [replace(s, velocity=network_forward(net, s.spikes)[0])
                for s in split["val"]]
        assert validate(net, segs) == 0.0

    def test_deterministic_across_calls(self):
        session = generate_synthetic(seed=8, channels=4, T=100, rate=0.3)
        split = split_session(session)
        net = Network.from_config(NetworkConfig.snn3(4, hidden=(5, 5, 5), seed=1))
        assert validate(net, split["val"]) == validate(net, split["val"])

    def test_single_segment_equals_eval_forward_bitwise(self):
        # validate and eval run the same kernel; segments longer than the eval
        # window check that windowing changes no bit
        for seed, hidden in [(0, (5, 5, 5)), (3, (16, 12, 8)), (5, (50, 50, 50))]:
            session = generate_synthetic(seed=seed, channels=8, T=20_000, rate=0.3)
            split = split_session(session)
            net = scaled_net(NetworkConfig.snn3(8, hidden=hidden, seed=seed), 2.0)
            for seg in split["val"] + split["test"]:
                pred, _ = network_forward(net, seg.spikes)
                assert validate(net, [seg]) == mse_loss(pred, seg.velocity)

    def test_several_segments_equal_eval_mse_bitwise(self):
        # the eight val and test segments run side by side, one a lane; a
        # pooled (T·B)-row GEMM gave other bits than eval for seeds 2 and 3.
        # At T = 20,001 the last test segment is one step longer
        for T, seed in [(20_000, s) for s in range(5)] + [(20_001, s) for s in range(3)]:
            split = split_session(generate_synthetic(seed=seed, channels=32, T=T, rate=0.3))
            segs = split["val"] + split["test"]
            assert {s.timesteps for s in segs} == ({1250} if T == 20_000 else {1250, 1251})
            net = scaled_net(NetworkConfig.snn3(32, seed=seed), 2.0)
            pred = np.concatenate([network_forward(net, s.spikes)[0] for s in segs])
            truth = np.concatenate([s.velocity for s in segs])
            assert validate(net, segs) == mse_loss(pred, truth)

    def test_hand_computed_two_timesteps(self):
        # zero weights -> zero prediction; MSE = (1+4+9+16)/4
        from spikeprune.data import SpikeSession
        net = Network.from_config(NetworkConfig.snn3(2, hidden=(2, 2, 2), seed=0))
        for layer in net.layers:
            layer.weights[:] = 0.0
        seg = SpikeSession(spikes=np.zeros((2, 2), dtype=np.uint8),
                           velocity=np.array([[1.0, 2.0], [3.0, 4.0]]), dt_ms=1.0)
        assert validate(net, [seg]) == pytest.approx(7.5)

    def test_mse_loss_basics(self):
        assert mse_loss(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            mse_loss(np.zeros((0, 2)), np.zeros((0, 2)))


class TestPretrain:
    def test_zero_epochs_returns_initial(self):
        session = generate_synthetic(seed=1, channels=4, T=120, rate=0.3)
        split = split_session(session)
        cfg = NetworkConfig.snn3(4, hidden=(5, 5, 5), seed=6)
        tc = TrainConfig(max_epochs=0)
        net, target = pretrain(cfg, split, tc)
        fresh = Network.from_config(cfg)
        for a, b in zip(net.layers, fresh.layers):
            assert np.array_equal(a.weights, b.weights)
        assert target == validate(fresh, split["val"])

    @pytest.mark.parametrize("max_epochs", [0, 1, 3])
    def test_validates_once_per_epoch(self, monkeypatch, max_epochs):
        # no discarded validation before the first epoch; 0 epochs needs one
        import spikeprune.training as training
        calls = []

        def counting_validate(net, segments):
            calls.append(1)
            return validate(net, segments)

        monkeypatch.setattr(training, "validate", counting_validate)
        split = split_session(generate_synthetic(seed=1, channels=4, T=120, rate=0.3))
        tc = TrainConfig(max_epochs=max_epochs, batch_length=10)
        losses = []
        _, target = pretrain(NetworkConfig.snn3(4, hidden=(5, 5, 5), seed=6), split, tc,
                             log=lambda epoch, train, val: losses.append(val))
        assert len(calls) == max(max_epochs, 1)
        assert len(losses) == max_epochs
        if losses:
            assert target == losses[-1]

    def test_seeded_determinism(self):
        session = generate_synthetic(seed=1, channels=4, T=160, rate=0.3)
        split = split_session(session)
        cfg = NetworkConfig.snn3(4, hidden=(5, 5, 5), seed=6)
        tc = TrainConfig(learning_rate=3e-3, max_epochs=3, batch_length=10)
        n1, t1 = pretrain(cfg, split, tc)
        n2, t2 = pretrain(cfg, split, tc)
        assert t1 == t2
        for a, b in zip(n1.layers, n2.layers):
            assert np.array_equal(a.weights, b.weights)

    def test_divergence_raises(self):
        session = generate_synthetic(seed=1, channels=4, T=160, rate=0.3)
        split = split_session(session)
        cfg = NetworkConfig.snn3(4, hidden=(5, 5, 5), seed=6)
        # Adam's step is bounded by the learning rate: 1e30 does not diverge
        tc = TrainConfig(learning_rate=1e200, max_epochs=10, batch_length=20)
        with pytest.raises(TrainingDivergedError):
            with np.errstate(over="ignore", invalid="ignore"):
                pretrain(cfg, split, tc)


class TestOptimizers:
    def test_adam_reset_clears_state(self):
        net = Network.from_config(NetworkConfig.snn3(3, hidden=(2, 2, 2), seed=0))
        opt = AdamOptimizer(lr=1e-3)
        n = net.config.synapse_count()
        opt.step(np.zeros(n), np.ones(n), slice(None))
        assert opt._t == 1
        opt.reset()
        assert opt._t == 0 and opt._m is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_length=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.inf), ("learning_rate", math.nan),
        ("batch_length", 2.5), ("max_epochs", 2.5), ("max_epochs", True),
    ], ids=["lr-inf", "lr-nan", "batch-length-2.5", "max-epochs-2.5", "max-epochs-bool"])
    def test_config_rejects_values_that_fail_later(self, field, value):
        # an infinite rate trained an epoch before it raised
        # TrainingDivergedError; a fractional length or epoch count raised
        # TypeError inside pretrain
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_adam_moves_only_the_live_weights(self):
        # both moments advance everywhere; the weights outside live keep
        # their bits, and those inside get the bits of a full-vector step
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=12)
        live = np.flatnonzero(rng.random(12) < 0.5)
        full, part = AdamOptimizer(1e-2), AdamOptimizer(1e-2)
        w_full, w_part = w0.copy(), w0.copy()
        for _ in range(3):
            g = rng.normal(size=12)
            full.step(w_full, g, slice(None))
            part.step(w_part, g, live)
        assert_same_bits(part._m, full._m)
        assert_same_bits(part._v, full._v)
        assert_same_bits(w_part[live], w_full[live])
        dead = np.setdiff1d(np.arange(12), live)
        assert_same_bits(w_part[dead], w0[dead])
        assert not np.array_equal(w_full[dead], w0[dead])
