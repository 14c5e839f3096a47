"""Acceptance suite: one test per exit criterion, one summary line each.

The desk-scale pipeline (criteria 6 and 7) trains a real network on a seeded
synthetic session, so this module takes a few minutes; everything else is
seconds. Run with `pytest tests/test_acceptance.py`.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import record_criterion
from helpers import (
    FakeTrainer,
    RandomTrainer,
    TraceInvariantChecker,
    always_fail,
    always_succeed,
    brute_force_ops,
    finite_difference_grads,
    indy_net,
    small_net,
)
from spikeprune.cli import main as cli_main
from spikeprune.data import generate_synthetic, split_session
from spikeprune.energy import average_power, energy_per_timestep
from spikeprune.metrics import (
    DegenerateTruthError,
    effective_ops,
    evaluate_segments,
    r_squared,
)
from spikeprune.network import (
    DIFFERENTIABLE,
    LifParams,
    Network,
    NetworkConfig,
    WeightLayer,
    forward_window,
    network_forward,
)
from spikeprune.pruning import (
    EngineTrainer,
    PruneHyperParams,
    adaptive_prune,
    prunable_zero_fraction,
)
from spikeprune.training import TrainConfig, compute_gradients, pretrain

HALVING_SEQUENCE = [10.0, 5.0, 2.5, 1.25, 0.625, 0.3125, 0.15625]


@contextmanager
def criterion(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        record_criterion(number, name, ok)


def test_criterion_1_energy_table():
    with criterion(1, "energy table reproduction"):
        e_dense = energy_per_timestep(535.2)
        assert abs(e_dense - 6811.6) <= 0.05
        assert abs(average_power(e_dense, 4.0) - 1.70) <= 0.005
        e_pruned = energy_per_timestep(54.63)
        assert abs(e_pruned - 708.4) <= 0.05
        assert abs(average_power(e_pruned, 4.0) - 0.18) <= 0.005


def test_criterion_2_lif_closed_form():
    with criterion(2, "zero-input decay matches closed form (1e-12 rel)"):
        rng = np.random.default_rng(123)
        for _ in range(20):
            u0 = rng.uniform(-3, 3, size=4)
            tau = rng.uniform(0.5, 40.0)
            dt = rng.uniform(0.05, 8.0)
            p = LifParams(tau=tau, dt=dt, threshold=1e12)
            # one never-firing hidden layer of 4 neurons, started at u0
            net = Network(NetworkConfig(layer_dims=(1, 4, 2), lif=p),
                          [WeightLayer(np.ones((4, 1)), np.ones((4, 1))),
                           WeightLayer(np.ones((2, 4)), np.ones((2, 4)))])
            _, _, final = forward_window(net, np.zeros((100, 1, 1)),
                                         [u0.reshape(1, 4), np.zeros((1, 2))])
            u = final[0][0]
            expect = u0 * math.exp(-100 * dt / tau)
            assert np.allclose(u, expect, rtol=1e-12, atol=0)


def test_criterion_3_effective_ops_oracle():
    with criterion(3, "effective ops equal brute-force count on 100 nets"):
        rng = np.random.default_rng(321)
        for _ in range(100):
            dims = (int(rng.integers(1, 9)),) + \
                   tuple(int(rng.integers(1, 9)) for _ in range(3)) + (2,)
            cfg = NetworkConfig.snn3(dims[0], hidden=dims[1:-1],
                                     seed=int(rng.integers(1 << 30)))
            net = Network.from_config(cfg)
            for layer in net.layers:
                layer.mask = (rng.random(layer.mask.shape) > 0.4).astype(np.uint8)
                layer.apply_mask()
                layer.weights *= 4.0
            T = int(rng.integers(1, 17))
            x = (rng.random((T, dims[0])) < 0.5).astype(float)
            _, rec = network_forward(net, x)
            ops, _ = effective_ops(rec, net)
            assert ops == brute_force_ops(rec, net) / T


def test_criterion_4_gradient_check():
    with criterion(4, "analytic gradients match finite differences (1e-4 rel)"):
        rng = np.random.default_rng(777)
        for _ in range(20):
            dims_h = tuple(int(rng.integers(1, 4)) for _ in range(3))
            cin = int(rng.integers(1, 4))
            cfg = NetworkConfig.snn3(cin, hidden=dims_h,
                                     lif=LifParams(tau=float(rng.uniform(1, 8))),
                                     seed=int(rng.integers(1 << 30)))
            net = Network.from_config(cfg, init_scale=1.5)
            T = int(rng.integers(1, 6))
            x = (rng.random((T, cin)) < 0.5).astype(float)
            y = rng.normal(size=(T, 2))
            _, analytic, _ = compute_gradients(net, x, y, mode=DIFFERENTIABLE)
            numeric = finite_difference_grads(net, x, y)
            for a, n in zip(analytic, numeric):
                diff = np.abs(a - n)
                denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
                assert not ((diff > 1e-9) & (diff / denom > 1e-4)).any()


def test_criterion_5_controller_state_machine():
    with criterion(5, "controller halving / clamp / invariants (50 runs)"):
        hp = PruneHyperParams(p_start=10.0, patience=5, tolerance=0.1)
        # halving sequence under permanently failing fine-tuning
        net, trace = adaptive_prune(indy_net(seed=1), None, hp,
                                    trainer=always_fail())
        assert [e.rate for e in trace.of_kind("prune-applied")] == HALVING_SEQUENCE
        assert trace.events[-1].reason == "min-rate"
        assert prunable_zero_fraction(net) == 0.0
        # cap clamp under immediately succeeding fine-tuning
        net, trace = adaptive_prune(indy_net(seed=2), None, hp,
                                    trainer=always_succeed())
        assert prunable_zero_fraction(net) == 0.95
        assert trace.of_kind("prune-applied")[-1].pruned == 0.95
        # tolerance gate and patience bound on randomized simulated trainers
        master = np.random.default_rng(999)
        for _ in range(50):
            seed = int(master.integers(1 << 30))
            rng = np.random.default_rng(seed)
            run_hp = PruneHyperParams(
                p_start=10.0, patience=int(rng.integers(0, 5)), tolerance=0.1,
                pruned_max=float(rng.choice([0.5, 0.95])),
                scope=str(rng.choice(["per-layer", "global"])),
            )
            dense = small_net(seed=seed)
            checker = TraceInvariantChecker(run_hp)
            trainer = RandomTrainer(rng, fail_prob=float(rng.uniform(0.1, 0.9)))
            checker.trainer = trainer
            adaptive_prune(dense, None, run_hp, trainer=trainer,
                           trace_sink=checker.sink)
            checker.check(sum(l.n_weights for l in dense.prunable_layers()))


# ---------------------------------------------------------------------------
# desk-scale pipeline shared by criteria 6 and 7


class ObservedTrainer(EngineTrainer):
    """EngineTrainer that exposes the controller's working network."""

    def __init__(self, split, cfg):
        super().__init__(split, cfg)
        self.net = None

    def train_epoch(self, net):
        self.net = net
        return super().train_epoch(net)

    def validate(self, net):
        self.net = net
        return super().validate(net)


PIPELINE_HP = PruneHyperParams(p_start=10.0, patience=5, tolerance=0.1)


@pytest.fixture(scope="module")
def pipeline():
    session = generate_synthetic(seed=11, channels=32, T=20_000, rate=0.3,
                                 mixing_density=0.25)
    split = split_session(session)
    net_config = NetworkConfig.snn3(32, hidden=(50, 50, 50),
                                    lif=LifParams(tau=20.0, dt=4.0), seed=7)
    pretrain_cfg = TrainConfig(learning_rate=2e-3, max_epochs=150, batch_length=25)
    finetune_cfg = TrainConfig(learning_rate=5e-3, max_epochs=0, batch_length=25)

    dense, target_loss = pretrain(net_config, split, pretrain_cfg)
    dense_val = evaluate_segments(dense, split["val"])
    dense_test = evaluate_segments(dense, split["test"])

    # full-adaptive run, observed so mask snapshots are available per event
    trainer = ObservedTrainer(split, finetune_cfg)
    observations = []

    def sink(event):
        masks = tuple(l.mask.copy() for l in trainer.net.layers)
        weights_clean = all(
            not l.weights[l.mask == 0].any() for l in trainer.net.layers
        )
        observations.append((event, masks, weights_clean))

    adaptive_net, adaptive_trace = adaptive_prune(
        dense, split, PIPELINE_HP, finetune_cfg, trainer=trainer, trace_sink=sink
    )
    adaptive_sparsity = prunable_zero_fraction(adaptive_net)

    tol_net, tol_trace = adaptive_prune(
        dense, split,
        PruneHyperParams(p_start=10.0, patience=5, tolerance=0.1,
                         mode="tolerance-only"),
        finetune_cfg,
    )

    fixed_net, fixed_trace = adaptive_prune(
        dense, split,
        PruneHyperParams(p_start=10.0, patience=5, tolerance=0.1, mode="fixed",
                         pruned_max=adaptive_sparsity),
        finetune_cfg,
    )

    return {
        "split": split,
        "dense": dense,
        "dense_val_r2": dense_val.r2,
        "dense_test_r2": dense_test.r2,
        "target_loss": target_loss,
        "adaptive": (adaptive_net, adaptive_trace),
        "tolerance_only": (tol_net, tol_trace),
        "fixed": (fixed_net, fixed_trace),
        "observations": observations,
    }


def test_criterion_6_mask_permanence(pipeline):
    with criterion(6, "mask permanence and bitwise rollback restore"):
        net, trace = pipeline["adaptive"]
        for layer in net.layers:
            assert not layer.weights[layer.mask == 0].any()
        observations = pipeline["observations"]
        assert observations, "no events observed"
        # weights under a zero mask are exactly zero at every event boundary
        assert all(clean for _, _, clean in observations)
        # every rollback restores the masks checkpointed before its prune step
        prev_masks = None
        checkpoint_masks = None
        rollbacks_checked = 0
        for ev, masks, _ in observations:
            if ev.kind == "prune-applied":
                checkpoint_masks = prev_masks
            elif ev.kind == "rollback" and checkpoint_masks is not None:
                for m_new, m_ckpt in zip(masks, checkpoint_masks):
                    assert np.array_equal(m_new, m_ckpt)
                rollbacks_checked += 1
            prev_masks = masks
        assert rollbacks_checked == len(trace.of_kind("rollback"))


def test_criterion_7_desk_scale_pipeline(pipeline):
    with criterion(7, "desk-scale pipeline: R2, sparsity, epoch ordering"):
        split = pipeline["split"]
        assert pipeline["dense_val_r2"] >= 0.8

        adaptive_net, adaptive_trace = pipeline["adaptive"]
        adaptive_sparsity = prunable_zero_fraction(adaptive_net)
        assert adaptive_sparsity >= 0.8
        adaptive_r2 = evaluate_segments(adaptive_net, split["test"]).r2
        assert pipeline["dense_test_r2"] - adaptive_r2 <= 0.05

        # fixed-mode ablation at the same sparsity needs more fine-tuning
        fixed_net, fixed_trace = pipeline["fixed"]
        fixed_sparsity = prunable_zero_fraction(fixed_net)
        assert abs(fixed_sparsity - adaptive_sparsity) <= 0.01
        assert adaptive_trace.total_epochs() < fixed_trace.total_epochs()

        # Table-style ordering: adaptive >= tolerance-only sparsity at
        # comparable accuracy; fixed has the worst accuracy at equal sparsity
        tol_net, _ = pipeline["tolerance_only"]
        tol_sparsity = prunable_zero_fraction(tol_net)
        tol_r2 = evaluate_segments(tol_net, split["test"]).r2
        fixed_r2 = evaluate_segments(fixed_net, split["test"]).r2
        assert adaptive_sparsity >= tol_sparsity
        assert abs(adaptive_r2 - tol_r2) <= 0.05
        assert fixed_r2 <= adaptive_r2
        assert fixed_r2 <= tol_r2


def test_criterion_8_r_squared_oracle():
    with criterion(8, "R^2 metric oracle and degenerate input"):
        truth = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
        assert r_squared(truth.copy(), truth) == 1.0
        truth = np.array([[0.0, 3.0], [1.0, 5.0], [2.0, 1.0]])
        pred = np.tile(truth.mean(axis=0), (3, 1))
        assert r_squared(pred, truth) == pytest.approx(0.0, abs=1e-15)
        truth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        pred = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        assert r_squared(pred, truth) == pytest.approx(0.75)
        with pytest.raises(DegenerateTruthError):
            r_squared(np.zeros((3, 2)),
                      np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))


def test_criterion_9_command_determinism(tmp_path):
    with criterion(9, "byte-identical reruns of every command"):
        cfg = {
            "seed": 5,
            "network": {"hidden": [6, 6, 6]},
            "train": {"learning_rate": 2e-3, "max_epochs": 2, "batch_length": 25},
            "prune": {"p_start": 10.0, "patience": 1, "tolerance": 0.5,
                      "pruned_max": 0.3},
            "synth": {"channels": 5, "timesteps": 400, "rate": 0.3,
                      "session_id": "det"},
            "data": {"session": str(tmp_path / "det.spk")},
            "out_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        outputs = {
            "session": tmp_path / "det.spk",
            "dense": tmp_path / "out" / "dense.ckpt",
            "pretrain_trace": tmp_path / "out" / "pretrain_trace.csv",
            "pruned": tmp_path / "out" / "pruned.ckpt",
            "prune_trace": tmp_path / "out" / "prune_trace.csv",
            "metrics": tmp_path / "out" / "metrics.json",
            "metrics_txt": tmp_path / "out" / "metrics.txt",
        }

        def run_all():
            assert cli_main(["synth", "--config", str(config_path)]) == 0
            assert cli_main(["pretrain", "--config", str(config_path)]) == 0
            assert cli_main(["prune", "--config", str(config_path),
                             "--checkpoint", str(outputs["dense"])]) == 0
            assert cli_main(["eval", "--config", str(config_path),
                             "--checkpoint", str(outputs["pruned"])]) == 0
            return {k: v.read_bytes() for k, v in outputs.items()}

        first = run_all()
        second = run_all()
        for name in outputs:
            assert first[name] == second[name], f"{name} differs between runs"
