import math

import numpy as np
import pytest

from spikeprune.network import Network, NetworkConfig, WeightLayer
from helpers import (
    DivergingRandomTrainer,
    FakeTrainer,
    RandomTrainer,
    TraceInvariantChecker,
    always_fail,
    always_succeed,
    brute_force_prune,
    indy_net,
    reference_prune_run,
    small_net,
)
from spikeprune.pruning import (
    FIXED,
    FULL_ADAPTIVE,
    TOLERANCE_ONLY,
    PruneHyperParams,
    adaptive_prune,
    prunable_zero_fraction,
    prune_step,
    select_prune_targets,
)
from spikeprune.training import TrainingDivergedError

HALVING_SEQUENCE = [10.0, 5.0, 2.5, 1.25, 0.625, 0.3125, 0.15625]


class TestSelectTargets:
    def layer(self, values):
        w = np.asarray(values, dtype=float).reshape(1, -1)
        return WeightLayer(w, np.ones_like(w, dtype=np.uint8))

    def test_smallest_magnitude(self):
        idx, rows, cols = select_prune_targets([self.layer([0.5, -0.1, 0.3])], 1)
        assert (idx[0], rows[0], cols[0]) == (0, 0, 1)

    def test_count_zero(self):
        idx, rows, cols = select_prune_targets([self.layer([0.5, -0.1])], 0)
        assert idx.size == 0 and rows.size == 0 and cols.size == 0

    def test_tie_break_lexicographic(self):
        _, rows, cols = select_prune_targets([self.layer([0.2, -0.2, 0.7])], 1)
        assert (rows[0], cols[0]) == (0, 0)
        # across layers a tie goes to the earlier layer first
        pool = [self.layer([0.7, 0.2]), self.layer([-0.2, 0.1])]
        idx, rows, cols = select_prune_targets(pool, 3)
        assert list(zip(idx, rows, cols)) == [(1, 0, 1), (0, 0, 1), (1, 0, 0)]

    def test_clamps_to_available(self):
        layer = self.layer([0.5, -0.1, 0.3])
        layer.mask[0, 0] = 0
        _, rows, _ = select_prune_targets([layer], 5)
        assert rows.size == 2

    def test_skips_masked(self):
        layer = self.layer([0.01, 0.5, 0.3])
        layer.mask[0, 0] = 0
        _, rows, cols = select_prune_targets([layer], 1)
        assert (rows[0], cols[0]) == (0, 2)


class TestPruneStep:
    def test_per_layer_counts_indy(self):
        net = indy_net(seed=1)
        removed_per_layer = prune_step(net, 10.0, "per-layer")
        assert removed_per_layer == [480, 250, 250]
        # removed entries are the smallest magnitudes of each layer
        for layer, removed in zip(net.prunable_layers(), removed_per_layer):
            masked_mags = np.abs(layer.weights)[layer.mask == 0]
            live_mags = np.abs(layer.weights)[layer.mask == 1]
            assert masked_mags.size == removed
            assert masked_mags.max() <= live_mags.min() + 1e-15

    def test_global_pool(self):
        net = indy_net(seed=2)
        assert sum(prune_step(net, 10.0, "global")) == 980
        # output layer untouched
        assert net.layers[-1].mask.all()

    def test_exhausting_rate_clamps(self):
        # 1e308% of a layer's count is past float64, so the rate clamps first
        for rate in (200.0, 1e308):
            net = indy_net(seed=3)
            removed_per_layer = prune_step(net, rate, "per-layer")
            assert removed_per_layer == [l.n_weights for l in net.prunable_layers()]
            for layer in net.prunable_layers():
                assert not layer.mask.any()
            assert net.layers[-1].mask.all()

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_a_non_finite_or_negative_rate(self, rate):
        net = indy_net(seed=6)
        with pytest.raises(ValueError, match="rate"):
            prune_step(net, rate)
        assert all(layer.mask.all() for layer in net.layers)

    def test_masks_are_monotone(self):
        net = indy_net(seed=4)
        prune_step(net, 10.0, "per-layer")
        zeros_before = [np.argwhere(l.mask == 0) for l in net.prunable_layers()]
        prune_step(net, 10.0, "per-layer")
        for layer, z in zip(net.prunable_layers(), zeros_before):
            assert not layer.mask[tuple(z.T)].any()

    def test_pruned_weights_are_exactly_zero(self):
        net = indy_net(seed=5)
        prune_step(net, 37.0, "per-layer")
        for layer in net.layers:
            assert not layer.weights[layer.mask == 0].any()


    def test_matches_brute_force_oracle(self):
        master = np.random.default_rng(77)
        for trial in range(60):
            rng = np.random.default_rng(int(master.integers(1 << 30)))
            hidden = tuple(int(h) for h in rng.integers(3, 9, size=3))
            net = Network.from_config(
                NetworkConfig.snn3(int(rng.integers(3, 9)), hidden=hidden,
                                   seed=int(rng.integers(1 << 30))))
            if trial % 2:
                # few distinct magnitudes, so most comparisons are ties
                for layer in net.layers:
                    layer.weights[:] = rng.integers(-3, 4, layer.weights.shape) * 0.25
            scope = str(rng.choice(["per-layer", "global"]))
            total = sum(l.n_weights for l in net.prunable_layers())
            cap = None if trial % 3 == 0 else int(rng.integers(0, total + 1))
            for _ in range(int(rng.integers(1, 5))):
                rate = float(rng.choice([0.5, 3.3, 10.0, 37.0, 80.0, 150.0]))
                masks, removed = brute_force_prune(net, rate, scope, cap)
                assert prune_step(net, rate, scope, max_total_zeros=cap) == removed
                for layer, mask in zip(net.prunable_layers(), masks):
                    assert layer.mask.tolist() == mask
                    assert not layer.weights[layer.mask == 0].any()
                assert net.layers[-1].mask.all()


class TestCheckpointRestore:
    def test_roundtrip_bitwise(self):
        net = small_net(seed=6)
        prune_step(net, 20.0, "per-layer")
        snap = net.snapshot()
        w = [l.weights.copy() for l in net.layers]
        m = [l.mask.copy() for l in net.layers]
        for layer in net.layers:
            layer.weights += np.pi
            layer.mask[:] = 1
        net.restore(snap)
        for layer, ww, mm in zip(net.layers, w, m):
            assert np.array_equal(layer.weights, ww)
            assert np.array_equal(layer.mask, mm)

    def test_restore_books_pruned_fraction(self):
        net = small_net(seed=7)
        prune_step(net, 37.0, "per-layer")
        fraction = prunable_zero_fraction(net)
        snap = net.snapshot()
        prune_step(net, 30.0, "per-layer")
        assert prunable_zero_fraction(net) > fraction
        net.restore(snap)
        assert prunable_zero_fraction(net) == fraction


class TestAdaptiveController:
    def hp(self, **kw):
        base = dict(p_start=10.0, patience=5, tolerance=0.1, p_min=0.1,
                    pruned_max=0.95, scope="per-layer", mode=FULL_ADAPTIVE)
        base.update(kw)
        return PruneHyperParams(**base)

    def test_always_fail_halving_sequence(self):
        dense = indy_net(seed=8)
        trainer = always_fail()
        net, trace = adaptive_prune(dense, None, self.hp(), trainer=trainer)
        prunes = trace.of_kind("prune-applied")
        assert [e.rate for e in prunes] == HALVING_SEQUENCE
        rollbacks = trace.of_kind("rollback")
        assert len(rollbacks) == len(HALVING_SEQUENCE)
        assert [e.rate for e in rollbacks] == [r / 2 for r in HALVING_SEQUENCE]
        assert trace.events[-1].kind == "terminated"
        assert trace.events[-1].reason == "min-rate"
        assert prunable_zero_fraction(net) == 0.0
        for a, b in zip(net.layers, dense.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.mask, b.mask)
        # optimizer restarted at every rollback
        assert trainer.resets == len(HALVING_SEQUENCE)
        # each failed attempt burns exactly patience+1 fine-tune epochs
        assert trace.total_epochs() == len(HALVING_SEQUENCE) * 6

    def test_always_succeed_clamps_at_cap(self):
        dense = indy_net(seed=9)
        net, trace = adaptive_prune(dense, None, self.hp(), trainer=always_succeed())
        prunes = trace.of_kind("prune-applied")
        assert len(prunes) == 10
        assert all(e.rate == 10.0 for e in prunes)
        fractions = [e.pruned for e in prunes]
        assert fractions[:9] == pytest.approx([0.1 * k for k in range(1, 10)])
        assert fractions[-1] == 0.95
        assert prunable_zero_fraction(net) == 0.95
        assert trace.events[-1].reason == "pruned-max"
        assert trace.total_epochs() == 10  # one epoch per accepted step

    @pytest.mark.parametrize("channels", [96, 32])
    def test_capped_final_step_thins_every_layer_alike(self, channels):
        # the last step asks every layer for 10% while 5% of the total is left
        # under the cap: each layer gets half its request, none is wiped out
        dense = Network.from_config(NetworkConfig.snn3(channels, seed=9))
        net, _ = adaptive_prune(dense, None, PruneHyperParams(), trainer=always_succeed())
        assert [l.n_masked / l.n_weights for l in net.prunable_layers()] == [0.95] * 3

    def test_divergent_finetune_rolls_back(self):
        dense = indy_net(seed=10)
        trainer = FakeTrainer(lambda i: float("nan"))
        net, trace = adaptive_prune(dense, None, self.hp(), trainer=trainer)
        assert trace.events[-1].reason == "min-rate"
        assert prunable_zero_fraction(net) == 0.0
        assert len(trace.of_kind("rollback")) == len(HALVING_SEQUENCE)
        # divergence cuts each attempt short: one epoch then rollback
        assert trace.total_epochs() == len(HALVING_SEQUENCE)

    def test_tolerance_only_restores_and_stops(self):
        dense = indy_net(seed=11)
        # attempts 1 and 2 pass after one epoch; attempt 3 never recovers
        calls = {"n": 0}

        def val_fn(i):
            calls["n"] += 1
            return 1.0 if calls["n"] <= 2 else 10.0

        trainer = FakeTrainer(val_fn)
        net, trace = adaptive_prune(dense, None, self.hp(mode=TOLERANCE_ONLY),
                                    trainer=trainer)
        assert trace.events[-1].reason == "patience-exhausted"
        prunes = trace.of_kind("prune-applied")
        assert [e.rate for e in prunes] == [10.0, 10.0, 10.0]
        assert len(trace.of_kind("rollback")) == 1
        # final state is the restored second-step network
        assert prunable_zero_fraction(net) == pytest.approx(0.2)

    def test_fixed_mode_schedule(self):
        dense = indy_net(seed=12)
        hp = self.hp(mode=FIXED, pruned_max=0.9)
        trainer = always_succeed()
        net, trace = adaptive_prune(dense, None, hp, trainer=trainer)
        prunes = trace.of_kind("prune-applied")
        assert len(prunes) == 9
        assert trace.total_epochs() == 9 * 5
        assert prunable_zero_fraction(net) == pytest.approx(0.9)
        assert not trace.of_kind("rollback")
        assert trace.events[-1].reason == "pruned-max"

    def test_fixed_mode_divergence_raises(self):
        # the fake's first validation returns the target, every later one NaN
        trainer = FakeTrainer(lambda i: float("nan"))
        events = []
        with pytest.raises(TrainingDivergedError):
            adaptive_prune(indy_net(seed=14), None, self.hp(mode=FIXED),
                           trainer=trainer, trace_sink=events.append)
        # fixed mode takes no target, so the first fine-tune epoch passes and
        # the second one, which diverges, is logged before the raise
        assert [e.kind for e in events] == ["prune-applied", "epoch", "epoch"]
        assert np.isnan(events[-1].val_loss)

    @pytest.mark.parametrize("mode", [FULL_ADAPTIVE, TOLERANCE_ONLY, FIXED])
    def test_fractional_cap_stops_with_pruned_max(self, mode):
        # 144 prunable weights: a 0.3 cap is 43.2 weights, floored to 43
        dense = Network.from_config(NetworkConfig.snn3(12, hidden=(6, 6, 6), seed=15))
        net, trace = adaptive_prune(dense, None, self.hp(mode=mode, pruned_max=0.3),
                                    trainer=always_succeed())
        assert trace.events[-1].reason == "pruned-max"
        assert prunable_zero_fraction(net) == trace.events[-1].pruned == 43 / 144

    def test_cap_just_below_an_integer_in_floats_is_that_integer(self):
        # (6, 6, 6, 3, 2) has 36 + 36 + 18 = 90 prunable weights, and 0.7 * 90
        # is 62.99999999999999 in floats: the cap is 63 weights, not 62
        assert 0.7 * 90 < 63
        dense = Network.from_config(NetworkConfig((6, 6, 6, 3, 2), seed=16))
        assert sum(l.n_weights for l in dense.prunable_layers()) == 90
        net, trace = adaptive_prune(dense, None, self.hp(pruned_max=0.7),
                                    trainer=always_succeed())
        assert trace.events[-1].reason == "pruned-max"
        assert sum(l.n_masked for l in net.prunable_layers()) == 63

    def test_loss_exactly_at_the_gate_is_accepted(self):
        # the gate is target·(1 + tolerance); a loss equal to it passes
        target, tol = 1.0, 0.1
        trainer = FakeTrainer(lambda i: target * (1.0 + tol), target=target)
        net, trace = adaptive_prune(indy_net(seed=17), None, self.hp(tolerance=tol),
                                    trainer=trainer)
        prunes = trace.of_kind("prune-applied")
        assert not trace.of_kind("rollback")
        assert trace.total_epochs() == len(prunes) == 10
        assert trace.events[-1].reason == "pruned-max"
        assert prunable_zero_fraction(net) == 0.95

    @pytest.mark.parametrize("mode", [FULL_ADAPTIVE, TOLERANCE_ONLY])
    def test_infinite_gate_still_fine_tunes(self, mode):
        # tolerance inf made the gate inf, and the step loop, which ran while
        # loss > gate, accepted every step after 0 epochs
        def run(tolerance):
            return adaptive_prune(indy_net(seed=9), None, self.hp(tolerance=tolerance, mode=mode),
                                  trainer=always_succeed())[1]

        huge, inf = run(1e300), run(float("inf"))
        assert huge.total_epochs() == len(huge.of_kind("prune-applied")) > 0
        assert [e.csv_row() for e in inf.events] == [e.csv_row() for e in huge.events]

    def test_overflowing_gate_still_fine_tunes(self):
        # target·(1 + tolerance) overflows to inf: one epoch per step all the same
        target = 1e300
        _, trace = adaptive_prune(indy_net(seed=9), None, self.hp(tolerance=1e10),
                                  trainer=always_succeed(target))
        assert trace.total_epochs() == len(trace.of_kind("prune-applied")) == 10

    def test_divergence_rolls_back_under_an_infinite_gate(self):
        dense = indy_net(seed=10)
        trainer = FakeTrainer(lambda i: float("nan"))
        net, trace = adaptive_prune(dense, None, self.hp(tolerance=float("inf")),
                                    trainer=trainer)
        assert trace.events[-1].reason == "min-rate"
        assert prunable_zero_fraction(net) == 0.0
        assert len(trace.of_kind("rollback")) == trace.total_epochs() == len(HALVING_SEQUENCE)

    @pytest.mark.parametrize("target, tolerance", [(float("nan"), 0.1), (0.0, float("inf"))],
                             ids=["nan-loss", "zero-loss-infinite-tolerance"])
    def test_nan_gate_rejected(self, target, tolerance):
        # no loss is within a NaN gate, so every step would fine-tune and roll back
        trainer = always_succeed(target)
        with pytest.raises(ValueError, match="gate"):
            adaptive_prune(indy_net(seed=11), None, self.hp(tolerance=tolerance),
                           trainer=trainer)
        assert trainer.calls == 1

    def test_input_net_is_not_mutated(self):
        dense = indy_net(seed=13)
        before = [l.weights.copy() for l in dense.layers]
        adaptive_prune(dense, None, self.hp(), trainer=always_succeed())
        for layer, w in zip(dense.layers, before):
            assert np.array_equal(layer.weights, w)
            assert layer.mask.all()

    def test_requires_trainer_or_datasets(self):
        with pytest.raises(ValueError):
            adaptive_prune(indy_net(), None, self.hp())


class TestRandomizedInvariants:
    def test_fifty_randomized_runs(self):
        master = np.random.default_rng(2024)
        for run in range(50):
            seed = int(master.integers(1 << 30))
            rng = np.random.default_rng(seed)
            hp = PruneHyperParams(
                p_start=10.0,
                patience=int(rng.integers(0, 5)),
                tolerance=0.1,
                p_min=0.1,
                pruned_max=float(rng.choice([0.5, 0.95])),
                scope=str(rng.choice(["per-layer", "global"])),
                mode=FULL_ADAPTIVE,
            )
            dense = small_net(seed=seed)
            total_prunable = sum(l.n_weights for l in dense.prunable_layers())
            checker = TraceInvariantChecker(hp)
            trainer = RandomTrainer(rng, fail_prob=float(rng.uniform(0.1, 0.9)))
            checker.trainer = trainer
            net, trace = adaptive_prune(dense, None, hp, trainer=trainer,
                                        trace_sink=checker.sink)
            checker.check(total_prunable)
            # reported fraction matches the returned network exactly
            assert trace.events[-1].pruned == prunable_zero_fraction(net)


class TestReferenceController:
    @pytest.mark.parametrize("scope", ["per-layer", "global"])
    @pytest.mark.parametrize("mode", [FULL_ADAPTIVE, TOLERANCE_ONLY, FIXED])
    def test_fifty_runs_match_the_reference(self, mode, scope):
        # every event, the trainer's calls and resets, the final masks and
        # weights, and the fixed-mode raise agree with the docstring's
        # controller, on trainers that also diverge at a seeded rate
        def row(e):
            return (e.kind, e.epoch, e.train_loss, e.val_loss, e.rate, e.pruned, e.reason)

        def same(a, b):  # NaN equals NaN, and -0.0 is not +0.0
            return [tuple(map(repr, r)) for r in a] == [tuple(map(repr, r)) for r in b]

        master = np.random.default_rng({FULL_ADAPTIVE: 91, TOLERANCE_ONLY: 92, FIXED: 93}[mode])
        seen = set()
        for _ in range(50):
            seed = int(master.integers(1 << 30))
            draw = np.random.default_rng(seed)
            hp = PruneHyperParams(
                p_start=float(draw.choice([10.0, 25.0, 60.0])),
                patience=int(draw.integers(0, 5)),
                tolerance=0.1,
                p_min=float(draw.choice([0.1, 2.0])),
                pruned_max=float(draw.choice([0.5, 0.95])),
                scope=scope,
                mode=mode,
            )
            fail = float(draw.uniform(0.1, 0.9))
            diverge = float(draw.choice([0.0, 0.05, 0.2]))
            dense = small_net(seed=seed)
            runs = []
            for run in (adaptive_prune, reference_prune_run):
                trainer = DivergingRandomTrainer(np.random.default_rng(seed), fail, diverge)
                events = []
                try:
                    if run is adaptive_prune:
                        net, _ = run(dense, None, hp, trainer=trainer,
                                     trace_sink=lambda e: events.append(row(e)))
                    else:
                        net, _ = run(dense, hp, trainer, events)
                except TrainingDivergedError:
                    net = None
                runs.append((net, events, trainer.calls, trainer.resets))
            (net, got, calls, resets), (ref, want, ref_calls, ref_resets) = runs
            assert same(got, want)
            assert (calls, resets) == (ref_calls, ref_resets)
            assert (net is None) == (ref is None)
            if net is None:
                seen.add("raised")
                continue
            for layer, ref_layer in zip(net.layers, ref.layers):
                assert np.array_equal(layer.mask, ref_layer.mask)
                assert np.array_equal(layer.weights, ref_layer.weights)
            seen.add(got[-1][-1])
            seen.update(e[0] for e in got)
            if any(e[0] == "epoch" and not np.isfinite(e[2:4]).all() for e in got):
                seen.add("diverged")
        expected = {FULL_ADAPTIVE: {"min-rate", "pruned-max", "rollback", "diverged"},
                    TOLERANCE_ONLY: {"patience-exhausted", "pruned-max", "rollback", "diverged"},
                    FIXED: {"pruned-max", "raised"}}[mode]
        assert expected <= seen


class TestTraceRows:
    def test_csv_row_shapes(self):
        dense = indy_net(seed=20)
        _, trace = adaptive_prune(dense, None,
                                  PruneHyperParams(p_start=10.0, patience=1),
                                  trainer=always_succeed())
        for ev in trace.events:
            row = ev.csv_row()
            assert len(row) == 7
            assert row[1] in ("prune-applied", "epoch", "rollback", "terminated")

    def test_trace_row_counts_add_up(self):
        dense = indy_net(seed=21)
        _, trace = adaptive_prune(dense, None, PruneHyperParams(),
                                  trainer=always_fail())
        n = len(trace.of_kind("prune-applied")) + len(trace.of_kind("epoch")) \
            + len(trace.of_kind("rollback")) + len(trace.of_kind("terminated"))
        assert n == len(trace.events)


class TestHyperParamValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            PruneHyperParams(p_start=0.05, p_min=0.1)
        with pytest.raises(ValueError):
            PruneHyperParams(pruned_max=1.5)
        with pytest.raises(ValueError):
            PruneHyperParams(tolerance=-0.1)
        with pytest.raises(ValueError):
            PruneHyperParams(tolerance=float("nan"))
        with pytest.raises(ValueError):
            PruneHyperParams(scope="columnwise")
        with pytest.raises(ValueError):
            PruneHyperParams(mode="extra-adaptive")

    @pytest.mark.parametrize("patience", [2.5, True, -1])
    def test_patience_is_a_nonnegative_integer(self, patience):
        # 2.5 was accepted as it was
        with pytest.raises(ValueError, match="patience"):
            PruneHyperParams(patience=patience)

    def test_p_start_is_at_most_100_percentage_points(self):
        # a finite but huge rate overflowed prune_step's count to a traceback
        assert PruneHyperParams(p_start=100.0).p_start == 100.0
        for p_start in (100.5, 1e308):
            with pytest.raises(ValueError, match="p_start"):
                PruneHyperParams(p_start=p_start)
