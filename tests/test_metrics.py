import tracemalloc

import numpy as np
import pytest

from helpers import brute_force_ops, fsum_r_squared

from spikeprune.metrics import (
    DegenerateTruthError,
    activation_sparsity,
    connection_sparsity,
    effective_ops,
    evaluate_segments,
    r_squared,
)
from spikeprune.network import (
    _EVAL_LANES,
    _EVAL_WINDOW,
    ActivationRecord,
    LifParams,
    Network,
    NetworkConfig,
    _forward_sequences,
    network_forward,
)
from spikeprune.pruning import prune_step
from spikeprune.data import generate_synthetic, split_session


def make_net(dims, seed=0):
    cfg = NetworkConfig.snn3(dims[0], hidden=dims[1:-1], seed=seed)
    return Network.from_config(cfg)


class TestRSquared:
    def test_perfect_prediction(self):
        truth = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
        assert r_squared(truth.copy(), truth) == 1.0

    def test_mean_prediction_is_zero(self):
        truth = np.array([[0.0, 3.0], [1.0, 5.0], [2.0, 1.0]])
        pred = np.tile(truth.mean(axis=0), (3, 1))
        assert r_squared(pred, truth) == pytest.approx(0.0, abs=1e-15)

    def test_mixed_components(self):
        truth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        pred = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        # X: 1 - 1/2 = 0.5, Y: 1.0 -> mean 0.75
        assert r_squared(pred, truth) == pytest.approx(0.75)

    def test_constant_truth_raises(self):
        truth = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        with pytest.raises(DegenerateTruthError):
            r_squared(np.zeros((3, 2)), truth)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            r_squared(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r_squared(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=(30, 2))
        pred = truth + rng.normal(scale=0.3, size=(30, 2))
        base = r_squared(pred, truth)
        perm = rng.permutation(30)
        assert r_squared(pred[perm], truth[perm]) == pytest.approx(base, rel=1e-12)

    @staticmethod
    def long_series(seed, T=60_000):
        """A T-step prediction and truth: eval-wide's length, with a mean
        far from zero so the deviations cancel many digits."""
        rng = np.random.default_rng(seed)
        truth = 50.0 + rng.normal(size=(T, 2)).cumsum(axis=0) / 30.0
        pred = 0.8 * truth + rng.normal(scale=0.5, size=(T, 2)) + 7.0
        return pred, truth

    def test_fsum_oracle_at_eval_length(self):
        for seed in range(3):
            pred, truth = self.long_series(seed)
            assert abs(r_squared(pred, truth) - fsum_r_squared(pred, truth)) <= 1e-12

    def test_memory_order_does_not_change_bits(self):
        """bench/run.py verify_outputs compares R^2 by !=, so the bits must
        not depend on the layout of the prediction or the truth."""
        pred, truth = self.long_series(7)
        base = r_squared(pred, truth)
        wide_pred, wide_truth = np.zeros((60_000, 3)), np.zeros((60_000, 3))
        wide_pred[:, :2], wide_truth[:, :2] = pred, truth
        layouts = [
            (np.asfortranarray(pred), np.asfortranarray(truth)),
            (np.asfortranarray(pred), truth),
            (wide_pred[:, :2], wide_truth[:, :2]),
            (np.repeat(pred, 2, axis=0)[::2], np.repeat(truth, 2, axis=0)[::2]),
        ]
        for p, t in layouts:
            assert np.array_equal(p, pred) and np.array_equal(t, truth)
            assert r_squared(p, t) == base


class TestConnectionSparsity:
    def test_dense_is_zero(self):
        assert connection_sparsity(make_net((4, 3, 3, 3, 2))) == 0.0

    def test_fully_masked_indy_shape(self):
        net = make_net((96, 50, 50, 50, 2))
        for layer in net.prunable_layers():
            layer.mask[:] = 0
            layer.apply_mask()
        assert connection_sparsity(net, prunable_only=True) == 1.0
        assert connection_sparsity(net) == pytest.approx(9800 / 9900)

    def test_toy_ten_weights_nine_zero(self):
        net = make_net((3, 2, 2))  # 6 + 4 = 10 weights
        net.layers[0].weights[:] = 0.0
        net.layers[1].weights[:] = 0.0
        net.layers[1].weights[0, 0] = 0.7
        assert connection_sparsity(net) == pytest.approx(0.9)

    def test_delta_after_prune_step(self):
        net = make_net((96, 50, 50, 50, 2), seed=4)
        total = 9900
        prunable = 9800
        before = connection_sparsity(net)
        prune_step(net, 10.0, "per-layer")
        after = connection_sparsity(net)
        expect = 0.10 * prunable / total
        assert abs((after - before) - expect) <= 1.0 / total


class TestActivationSparsity:
    def test_all_silent(self):
        rec = ActivationRecord(np.zeros((4, 3), dtype=np.uint8),
                               [np.zeros((4, 2), dtype=np.uint8)],
                               np.zeros((4, 2)))
        assert activation_sparsity(rec) == 1.0

    def test_all_active(self):
        rec = ActivationRecord(np.ones((4, 3), dtype=np.uint8),
                               [np.ones((4, 2), dtype=np.uint8)],
                               np.ones((4, 2)))
        assert activation_sparsity(rec) == 0.0

    def test_three_quarters(self):
        # two layers of size two, one timestep: [1,0] and [0,0] -> 3/4 zeros
        rec = ActivationRecord(np.array([[1, 0]], dtype=np.uint8), [],
                               np.array([[0.0, 0.0]]))
        assert activation_sparsity(rec) == pytest.approx(0.75)

    def test_pools_input_hidden_and_output(self):
        # input [1,1], hidden [1,0], output [0,0]: 3 of 6 values are zero
        rec = ActivationRecord(np.array([[1, 1]], dtype=np.uint8),
                               [np.array([[1, 0]], dtype=np.uint8)],
                               np.array([[0.0, 0.0]]))
        assert activation_sparsity(rec) == 3 / 6

    def test_negative_zero_is_zero_and_nan_is_not(self):
        rec = ActivationRecord(np.array([[0, 1]], dtype=np.uint8), [],
                               np.array([[-0.0, np.nan]]))
        assert activation_sparsity(rec) == 2 / 4

    def test_empty_record_raises(self):
        rec = ActivationRecord(np.zeros((0, 2), dtype=np.uint8), [],
                               np.zeros((0, 2)))
        with pytest.raises(ValueError):
            activation_sparsity(rec)


class TestEffectiveOps:
    def test_zero_input(self):
        net = make_net((3, 2, 2, 2, 2))
        _, rec = network_forward(net, np.zeros((4, 3)))
        assert effective_ops(rec, net) == 0.0

    def test_single_pair(self):
        net = make_net((2, 1, 2))
        net.layers[0].weights = np.array([[0.5, 0.0]])
        net.layers[1].weights = np.zeros((2, 1))
        rec = ActivationRecord(np.array([[1, 1]], dtype=np.uint8),
                               [np.array([[0]], dtype=np.uint8)],
                               np.zeros((1, 2)))
        ops = effective_ops(rec, net)
        assert ops == 1.0

    def test_oracle_equivalence_random_nets(self):
        rng = np.random.default_rng(12)
        for trial in range(100):
            dims = (int(rng.integers(1, 9)),) + \
                   tuple(int(rng.integers(1, 9)) for _ in range(3)) + (2,)
            cfg = NetworkConfig.snn3(dims[0], hidden=dims[1:-1],
                                     seed=int(rng.integers(1 << 30)))
            net = Network.from_config(cfg)
            for layer in net.layers:
                layer.mask = (rng.random(layer.mask.shape) > 0.4).astype(np.uint8)
                layer.apply_mask()
                # sprinkle exact zeros among the unmasked weights too
                zero = rng.random(layer.weights.shape) < 0.2
                layer.weights[zero] = 0.0
                layer.weights *= 4.0
            T = int(rng.integers(1, 17))
            x = (rng.random((T, dims[0])) < 0.5).astype(float)
            _, rec = network_forward(net, x)
            ops = effective_ops(rec, net)
            assert ops == brute_force_ops(rec, net) / T

    def test_oracle_on_silent_and_saturated_columns_over_several_blocks(self):
        """A long record (the length of two 4,096-row blocks and 3 rows),
        with columns that never fire and columns that always fire, must give
        the brute-force count."""
        rng = np.random.default_rng(21)
        net = make_net((4, 3, 3, 3, 2), seed=2)
        for layer in net.layers:
            layer.weights[rng.random(layer.weights.shape) < 0.3] = 0.0
        T = 8195

        def acts(width):
            a = (rng.random((T, width)) < 0.3).astype(np.uint8)
            a[:, 0] = 0
            a[:, -1] = 1
            return a

        rec = ActivationRecord(acts(4), [acts(3) for _ in range(3)],
                               rng.normal(size=(T, 2)))
        ops = effective_ops(rec, net)
        assert ops == brute_force_ops(rec, net) / T

    def test_pruning_monotonicity_fixed_record(self):
        rng = np.random.default_rng(3)
        net = make_net((5, 4, 4, 4, 2), seed=6)
        for layer in net.layers:
            layer.weights *= 4.0
        x = (rng.random((10, 5)) < 0.5).astype(float)
        _, rec = network_forward(net, x)
        prev = effective_ops(rec, net)
        for _ in range(5):
            for layer in net.prunable_layers():
                live = np.argwhere(layer.mask == 1)
                if live.size:
                    r, c = live[rng.integers(len(live))]
                    layer.mask[r, c] = 0
                    layer.apply_mask()
            ops = effective_ops(rec, net)
            assert ops <= prev
            prev = ops

    def test_topology_mismatch(self):
        net = make_net((3, 2, 2, 2, 2))
        rec = ActivationRecord(np.zeros((2, 4), dtype=np.uint8),
                               [np.zeros((2, 2), dtype=np.uint8)] * 3,
                               np.zeros((2, 2)))
        with pytest.raises(ValueError):
            effective_ops(rec, net)


class TestSegmentEvaluation:
    def test_merge_and_evaluate(self):
        session = generate_synthetic(seed=2, channels=6, T=400, rate=0.3)
        split = split_session(session)
        net = make_net((6, 8, 8, 8, 2), seed=1)
        report = evaluate_segments(net, split["test"])
        assert report.connection_sparsity == 0.0
        assert 0.0 <= report.activation_sparsity <= 1.0
        assert report.effective_ops >= 0.0

    def test_pooled_record_lengths(self):
        session = generate_synthetic(seed=2, channels=6, T=400, rate=0.3)
        split = split_session(session)
        net = make_net((6, 8, 8, 8, 2), seed=1)
        segs = split["train"] + split["val"] + split["test"]
        counts = _forward_sequences(net, [seg.spikes for seg in segs])
        total = sum(seg.timesteps for seg in segs)
        assert counts.timesteps == total
        assert [f.shape for f in counts.fired] == [(6,), (8,), (8,), (8,)]
        assert all(f.dtype == np.int64 for f in counts.fired)
        assert all(0 <= f.min() and f.max() <= total for f in counts.fired)
        assert counts.output_membrane.shape == (total, 2)

    def test_grouped_eval_equals_per_segment_eval(self):
        """Segments share the eval wavefront on lanes; every output must
        equal the same segment run alone. T=60,003 splits its test part into
        one 3750- and three 3751-step segments, both longer than the eval
        window; five more segments are one step longer than the window, so
        there are more segments than lanes and one lane runs two of them
        back to back. At 96 channels a GEMM pooled over lanes would
        round other bits than the per-segment one."""
        session = generate_synthetic(seed=4, channels=96, T=60_003, rate=0.3)
        split = split_session(session)
        extra = [session.slice(lo, lo + _EVAL_WINDOW + 1, f"/w{lo}")
                 for lo in range(0, 50_000, 10_000)]
        segs = [split["test"][0], *extra[:2], *split["test"][1:], *extra[2:]]
        assert len(segs) > _EVAL_LANES
        w = _EVAL_WINDOW + 1
        assert [s.timesteps for s in segs] == [3750, w, w, 3751, 3751, 3751, w, w, w]
        net = Network.from_config(NetworkConfig.snn3(96, seed=4), init_scale=2.0)
        net.layers[1].mask[::3] = 0
        net.apply_masks()

        runs = [network_forward(net, seg.spikes) for seg in segs]
        pred = np.concatenate([p for p, _ in runs])
        counts = _forward_sequences(net, [seg.spikes for seg in segs])
        assert np.array_equal(counts.output_membrane, pred)
        for i, f in enumerate(counts.fired):
            assert f.any()
            assert np.array_equal(f, sum(r.fired[i] for _, r in runs))

        # the report from per-segment counts, in integers
        acs = zeros = size = 0
        for _, r in runs:
            for i, layer in enumerate(net.layers):
                col_nnz = np.count_nonzero(layer.effective(), axis=0)
                acs += int(np.count_nonzero(r.layer_inputs(i), axis=0) @ col_nnz)
            for a in (r.input_spikes, *r.hidden_spikes, r.output_membrane):
                zeros += int(np.count_nonzero(a == 0))
                size += a.size
        steps = sum(seg.timesteps for seg in segs)
        report = evaluate_segments(net, segs)
        assert report.effective_ops == acs / steps
        assert report.activation_sparsity == zeros / size
        assert report.r2 == r_squared(pred, np.concatenate([seg.velocity for seg in segs]))

    def test_eval_memory_does_not_grow_with_the_session(self):
        """At 96 channels over 60,000 steps, 90% pruned, eval keeps the
        prediction, its stage buffers and per-neuron counts: no spike train
        of the session and no copy of its input. Those would take 5.8 MB
        (input) and 9 MB (hidden trains) more."""
        session = generate_synthetic(seed=6, channels=96, T=60_000, rate=0.3)
        split = split_session(session)
        segs = split["train"] + split["val"] + split["test"]
        net = Network.from_config(NetworkConfig.snn3(96, seed=6))
        prune_step(net, 90.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = evaluate_segments(net, segs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.effective_ops > 0
        assert peak - start <= 6_000_000
