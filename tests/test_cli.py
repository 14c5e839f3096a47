import errno
import json
import struct

import numpy as np
import pytest

from spikeprune import _files, cli
from spikeprune.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spikeprune.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    config_digest,
    load_config,
    main,
)
from spikeprune.data import MAGIC as MAGIC_SESSION
from spikeprune.data import load_session
from spikeprune.network import LifParams, Network, NetworkConfig


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "network": {"hidden": [6, 6, 6]},
        "train": {"learning_rate": 2e-3, "max_epochs": 2, "batch_length": 25},
        "prune": {"p_start": 10.0, "patience": 1, "tolerance": 0.5,
                  "pruned_max": 0.3},
        "synth": {"channels": 5, "timesteps": 400, "rate": 0.3,
                  "session_id": "unit"},
        "data": {"session": str(tmp_path / "unit.spk")},
        "out_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def session_net(hidden, dt_ms=DEFAULT_CONFIG["synth"]["dt_ms"]):
    """A fresh net for write_config's 5-channel sessions, its LIF at the
    session's timestep (tau_factor 5), as pretrain would build it."""
    lif = LifParams(tau=5 * dt_ms, dt=dt_ms)
    return Network.from_config(NetworkConfig.snn3(5, hidden=hidden, lif=lif))


def wrong_values(default):
    """Values of another type than `default`; a bool is never a number."""
    if isinstance(default, list):
        return ["50", [1.5], ["x"], [True]]
    right = (int, float) if isinstance(default, float) else type(default)
    return [v for v in ("2", True, None, [1], {"a": 1}, 2.5)
            if isinstance(v, bool) or not isinstance(v, right)]


class TestConfig:
    def test_requires_seed(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"out_dir": "x"}))
        with pytest.raises(Exception):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 1, "bogus": {}}))
        assert main(["synth", "--config", str(p)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_digest_is_stable(self, tmp_path):
        p, _ = write_config(tmp_path)
        assert config_digest(load_config(p)) == config_digest(load_config(p))

    def test_directory_as_config(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("section, key, value", [
        ("train", "max_epochs", "2"),  # a string where an int belongs
        ("prune", "tolerence", 0.5),  # a misspelt key
        # keys that are gone: Adam is the only optimizer, the controller
        # decides how long it fine-tunes, tau is tau_factor * dt, eval's
        # energy runs at the session's dt_ms, and the surrogate has unit width
        ("train", "optimizer", "adam"),
        ("finetune", "max_epochs", 5),
        ("lif", "tau", 20.0),
        ("energy", "dt_ms", 4.0),
        ("train", "surrogate_width", 1.0),
        ("finetune", "surrogate_width", 1.0),
    ])
    def test_schema_names_the_bad_path(self, tmp_path, capsys, section, key, value):
        p, _ = write_config(tmp_path, **{section: {key: value}})
        assert main(["pretrain", "--config", str(p)]) == EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_schema_accepts_every_number_form_it_allows(self, tmp_path):
        p, _ = write_config(tmp_path, lif={"tau_factor": 5}, finetune={"learning_rate": 1},
                            network={"hidden": []})
        cfg = load_config(p)
        assert cfg["lif"]["tau_factor"] == 5 and cfg["finetune"] == {"learning_rate": 1}

    def test_seeded_wrong_types_and_misspelt_keys_exit_2(self, tmp_path, capsys):
        """Every key of the defaults (finetune takes train's keys but
        max_epochs), given once a value of the wrong type and once under a
        misspelt name."""
        finetune = {k: v for k, v in DEFAULT_CONFIG["train"].items() if k != "max_epochs"}
        schema = dict(DEFAULT_CONFIG, finetune=finetune)
        paths = [(k,) for k in schema]
        paths += [(k, sub) for k, v in schema.items() if isinstance(v, dict) for sub in v]
        rng = np.random.default_rng(7)
        cases = 0
        for path in paths:
            default = schema[path[0]] if len(path) == 1 else schema[path[0]][path[1]]
            bad = wrong_values(default)
            name = list(path[-1])
            i = int(rng.integers(len(name)))
            if rng.random() < 0.5:
                name.insert(i, "x")
            else:
                del name[i]
            for mutated in (path[:-1] + ("".join(name),), path):
                _, cfg = write_config(tmp_path)
                doc = cfg
                for key in mutated[:-1]:
                    doc = doc.setdefault(key, {})
                value = default if mutated != path else bad[int(rng.integers(len(bad)))]
                doc[mutated[-1]] = value
                p = tmp_path / "mutated.json"
                p.write_text(json.dumps(cfg))
                assert main(["synth", "--config", str(p)]) == EXIT_CONFIG, (mutated, value)
                err = capsys.readouterr().err
                assert err.startswith("config error:") and "Traceback" not in err
                cases += 1
        assert cases == 2 * len(paths) == 74

    @pytest.mark.parametrize("command, section, key, literal", [
        ("prune", "prune", "tolerance", "NaN"),  # would prune straight to the cap
        ("prune", "prune", "p_start", "Infinity"),  # would overflow in prune_step
        ("eval", "energy", "e_ac_pj", "NaN"),  # would write a bare NaN to metrics.json
        ("pretrain", "lif", "threshold", "NaN"),  # would pretrain with exit 0
        ("pretrain", "train", "learning_rate", "1e999"),  # parses as inf
        ("eval", "energy", "e_update_pj", "1" + "0" * 400),  # an int beyond any float
    ], ids=["tolerance-NaN", "p_start-Infinity", "e_ac_pj-NaN", "threshold-NaN",
            "learning_rate-1e999", "e_update_pj-10**400"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, command, section, key, literal):
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        dense = tmp_path / "dense.ckpt"
        save_checkpoint(dense, Network.from_config(NetworkConfig.snn3(5, hidden=(6, 6, 6))))
        p, _ = write_config(tmp_path, out_dir=str(tmp_path / "bad"), **{section: {key: "@"}})
        p.write_text(p.read_text().replace('"@"', literal))
        argv = [command, "--config", str(p)]
        if command != "pretrain":
            argv += ["--checkpoint", str(dense)]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}.{key} must be a finite number")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("doc, key", [
        ('{"seed": 1, "seed": 2, "synth": {"timesteps": 400, "channels": 4}, '
         '"synth": {"timesteps": 300}, "data": {"session": %s}}', "seed"),
        ('{"seed": 1, "prune": {"p_start": 10.0, "p_start": 20.0}, '
         '"data": {"session": %s}}', "p_start"),
    ], ids=["top-level", "prune.p_start"])
    def test_repeated_key_exits_2_and_writes_nothing(self, tmp_path, capsys, doc, key):
        # json keeps the last value of a repeated key: the first would be
        # dropped without a word
        p = tmp_path / "c.json"
        p.write_text(doc % json.dumps(str(tmp_path / "s.spk")))
        assert main(["synth", "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: config key '{key}' is set twice")
        assert sorted(x.name for x in tmp_path.iterdir()) == ["c.json"]

    def test_deeply_nested_config_exits_2_and_writes_nothing(self, tmp_path, capsys):
        p, _ = write_config(tmp_path, network="@")
        p.write_text(p.read_text().replace('"@"', "[" * 100_000 + "]" * 100_000))
        assert main(["synth", "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: config nests too deeply")
        assert sorted(x.name for x in tmp_path.iterdir()) == ["config.json"]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TestConfigFuzz:
    def test_zero_and_negative_values_exit_cleanly(self, tmp_path, capsys):
        """Every numeric key of the schema set to 0 and to -1, and
        network.hidden to a list with a 0, one with a negative width and an
        empty list: synth, pretrain, prune and eval each exit 0, 2, 3 or 4,
        never with a traceback. A synth.mixing_density outside [0, 1] and a
        synth.dt_ms <= 0 are config errors: synth exits 2 and writes no
        session."""
        config_errors = [(("synth", "mixing_density"), -1), (("synth", "dt_ms"), 0),
                         (("synth", "dt_ms"), -1)]
        finetune = {k: v for k, v in DEFAULT_CONFIG["train"].items() if k != "max_epochs"}
        schema = dict(DEFAULT_CONFIG, finetune=finetune)
        paths = [(k,) for k, v in schema.items() if _is_number(v)]
        paths += [(k, sub) for k, v in schema.items() if isinstance(v, dict)
                  for sub, d in v.items() if _is_number(d)]
        cases = [(path, value) for path in paths for value in (0, -1)]
        rng = np.random.default_rng(13)
        for width in (0, -int(rng.integers(1, 10))):
            hidden = [3, 3, 3]
            hidden[int(rng.integers(3))] = width
            cases.append((("network", "hidden"), hidden))
        cases.append((("network", "hidden"), []))
        codes = set()
        for n, (path, value) in enumerate(cases):
            case = tmp_path / str(n)
            case.mkdir()
            _, cfg = write_config(case, network={"hidden": [3, 3, 3]},
                                  train={"max_epochs": 1, "batch_length": 50},
                                  prune={"p_start": 30.0, "pruned_max": 0.5},
                                  synth={"timesteps": 200})
            doc = cfg
            for key in path[:-1]:
                doc = doc.setdefault(key, {})
            doc[path[-1]] = value
            p = case / "fuzz.json"
            p.write_text(json.dumps(cfg))
            out = case / "out"
            for argv in (["synth"], ["pretrain"],
                         ["prune", "--checkpoint", str(out / "dense.ckpt")],
                         ["eval", "--checkpoint", str(out / "pruned.ckpt")]):
                try:
                    code = main(argv + ["--config", str(p)])
                except Exception as e:
                    pytest.fail(f"{'.'.join(path)}={value!r}: {argv[0]} raised {e!r}")
                err = capsys.readouterr().err
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED), (path, value)
                assert "Traceback" not in err
                codes.add(code)
                if argv == ["synth"] and (path, value) in config_errors:
                    assert code == EXIT_CONFIG, (path, value)
                    assert err.startswith(f"config error: {path[-1]} must be"), err
                    assert not (case / "unit.spk").exists()
        assert len(paths) == 23 and len(cases) == 49
        assert {EXIT_OK, EXIT_CONFIG, EXIT_DATA} <= codes


class TestSynth:
    def test_writes_loadable_deterministic_session(self, tmp_path):
        p, cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        session_path = tmp_path / "unit.spk"
        first = session_path.read_bytes()
        session = load_session(session_path)
        assert session.channels == 5 and session.timesteps == 400
        digest = config_digest(load_config(p))
        assert session.session_id == f"unit#cfg:{digest[:12]}"
        # rerun reproduces the bytes exactly
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        assert session_path.read_bytes() == first
        rate = session.spikes.mean()
        n = session.spikes.size
        assert abs(rate - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / n)


class TestPipelineCommands:
    @pytest.fixture()
    def prepared(self, tmp_path):
        p, cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        return p, tmp_path

    def test_pretrain_emits_checkpoint_and_log(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        ckpt = tmp / "out" / "dense.ckpt"
        net, meta = load_checkpoint(ckpt)
        assert net.input_dim == 5
        assert meta["stage"] == "pretrain"
        assert meta["config_digest"] == config_digest(load_config(p))
        assert "target_loss" in meta
        trace = (tmp / "out" / "pretrain_trace.csv").read_text().splitlines()
        assert trace[0].startswith("# config_digest=")
        assert trace[1].split(",")[0] == "event_index"
        assert len(trace) == 2 + 2 + 1  # two epochs and the end marker
        assert trace[-1] == "# completed: 2 epochs"
        for k, row in enumerate(trace[2:-1]):
            index, kind, epoch, train, val, rate, pruned = row.split(",")
            assert (index, kind, epoch) == (str(k), "epoch", str(k + 1))
            assert np.isfinite(float(train)) and np.isfinite(float(val))
            assert (rate, pruned) == ("", "0.0")

    def test_pretrain_rerun_is_byte_identical(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        ckpt = tmp / "out" / "dense.ckpt"
        first = ckpt.read_bytes()
        first_trace = (tmp / "out" / "pretrain_trace.csv").read_bytes()
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        assert ckpt.read_bytes() == first
        assert (tmp / "out" / "pretrain_trace.csv").read_bytes() == first_trace

    def test_diverged_rerun_leaves_trace_without_end_marker(self, prepared, capsys):
        # the earlier run's checkpoint stays, but its trace is overwritten:
        # only the end marker tells the finished trace from the partial one
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        trace_path = tmp / "out" / "pretrain_trace.csv"
        assert trace_path.read_text().splitlines()[-1] == "# completed: 2 epochs"
        dense = (tmp / "out" / "dense.ckpt").read_bytes()
        # every hidden neuron fires at every step, so the readout weights
        # that Adam moves by ~1e200 overflow the loss
        bad, _ = write_config(tmp, lif={"threshold": -1.0}, train={"learning_rate": 1e200})
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["pretrain", "--config", str(bad)]) == EXIT_DIVERGED
        assert "training diverged" in capsys.readouterr().err
        trace = trace_path.read_text().splitlines()
        assert len(trace) > 2 and trace[-1].split(",")[1] == "epoch"
        assert not any(line.startswith("# completed") for line in trace)
        assert (tmp / "out" / "dense.ckpt").read_bytes() == dense

    def test_zero_epoch_pretrain_emits_initial_checkpoint(self, tmp_path):
        p, _ = write_config(tmp_path, train={"max_epochs": 0})
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        net, meta = load_checkpoint(tmp_path / "out" / "dense.ckpt")
        assert meta["epochs"] == 0
        trace = (tmp_path / "out" / "pretrain_trace.csv").read_text().splitlines()
        assert trace[2:] == ["# completed: 0 epochs"]

    def test_p_start_over_100_exits_2_without_checkpoint(self, prepared, capsys):
        # p_start is in percentage points; 1e308 overflowed prune_step's count
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        bad, _ = write_config(tmp, out_dir=str(tmp / "bad"), prune={"p_start": 1e308})
        capsys.readouterr()
        assert main(["prune", "--config", str(bad), "--checkpoint",
                     str(tmp / "out" / "dense.ckpt")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "p_start" in err
        assert not (tmp / "bad").exists()

    def test_tau_overflow_exits_2_without_checkpoint_or_trace(self, prepared, capsys):
        # 1e308 x dt_ms 4 is inf: pretrain wrote "tau":Infinity, which its
        # own loader then rejected
        _, tmp = prepared
        bad, _ = write_config(tmp, out_dir=str(tmp / "bad"), lif={"tau_factor": 1e308})
        capsys.readouterr()
        assert main(["pretrain", "--config", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "lif.tau_factor" in err
        assert not (tmp / "bad").exists()

    @pytest.mark.parametrize("section", ["train", "finetune"])
    def test_negative_max_epochs_exits_2_without_checkpoint(self, prepared, capsys, section):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = str(tmp / "out" / "dense.ckpt")
        bad, _ = write_config(tmp, out_dir=str(tmp / "bad"), **{section: {"max_epochs": -1}})
        commands = [["prune", "--config", str(bad), "--checkpoint", dense]]
        if section == "train":
            commands.append(["pretrain", "--config", str(bad)])
        capsys.readouterr()
        for argv in commands:
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "max_epochs" in err
            assert "Traceback" not in err
        assert not list(tmp.glob("bad/*.ckpt"))

    def test_prune_fixed_mode_and_trace(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = str(tmp / "out" / "dense.ckpt")
        assert main(["prune", "--config", str(p), "--checkpoint", dense,
                     "--mode", "fixed"]) == EXIT_OK
        net, meta = load_checkpoint(tmp / "out" / "pruned.ckpt")
        assert meta["mode"] == "fixed"
        assert meta["pruned"] == pytest.approx(0.3, abs=0.01)
        rows = (tmp / "out" / "prune_trace.csv").read_text().splitlines()
        body = [r for r in rows if r and not r.startswith("#")][1:]
        kinds = [r.split(",")[1] for r in body]
        # fixed mode to 30% in 10% steps: 3 prunes, patience epochs each
        assert kinds.count("prune-applied") == 3
        assert kinds.count("epoch") == 3 * 1
        assert kinds.count("terminated") == 1
        assert len(body) == 3 + 3 + 1

    def test_prune_flags_enter_the_digest(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        plain = config_digest(load_config(p))
        assert main(["prune", "--config", str(p), "--checkpoint", str(tmp / "out" / "dense.ckpt"),
                     "--mode", "fixed", "--scope", "global"]) == EXIT_OK
        _, meta = load_checkpoint(tmp / "out" / "pruned.ckpt")
        flagged, _ = write_config(tmp, prune={"mode": "fixed", "scope": "global"})
        assert meta["config_digest"] == config_digest(load_config(flagged)) != plain
        trace = (tmp / "out" / "prune_trace.csv").read_text().splitlines()
        assert trace[0] == f"# config_digest={meta['config_digest']}"

    def test_prune_rerun_reproduces_trace(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = str(tmp / "out" / "dense.ckpt")
        assert main(["prune", "--config", str(p), "--checkpoint", dense]) == EXIT_OK
        trace = (tmp / "out" / "prune_trace.csv").read_bytes()
        ckpt = (tmp / "out" / "pruned.ckpt").read_bytes()
        assert main(["prune", "--config", str(p), "--checkpoint", dense]) == EXIT_OK
        assert (tmp / "out" / "prune_trace.csv").read_bytes() == trace
        assert (tmp / "out" / "pruned.ckpt").read_bytes() == ckpt

    def test_eval_reports_metrics_and_both_energy_modes(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = str(tmp / "out" / "dense.ckpt")
        assert main(["eval", "--config", str(p), "--checkpoint", dense]) == EXIT_OK
        payload = json.loads((tmp / "out" / "metrics.json").read_text())
        assert payload["config_digest"] == config_digest(load_config(p))
        m = payload["metrics"]
        assert set(m) == {"r2", "connection_sparsity", "connection_sparsity_prunable",
                          "activation_sparsity", "effective_ops"}
        assert m["connection_sparsity"] == 0.0
        assert set(payload["energy"]) == {"paper-consistent", "per-neuron"}
        text = (tmp / "out" / "metrics.txt").read_text()
        assert f"# config_digest={payload['config_digest']}" in text

    def test_eval_per_neuron_energy_charges_every_hidden_and_readout_neuron(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = tmp / "out" / "dense.ckpt"
        assert main(["eval", "--config", str(p), "--checkpoint", str(dense)]) == EXIT_OK
        payload = json.loads((tmp / "out" / "metrics.json").read_text())
        net, _ = load_checkpoint(dense)
        n_neurons = sum(net.config.layer_dims[1:])
        assert n_neurons == 6 + 6 + 6 + 2
        rep = payload["energy"]["per-neuron"]
        assert rep["energy_pj_per_timestep"] == (
            payload["metrics"]["effective_ops"] * rep["e_ac_pj"] + n_neurons * rep["e_update_pj"])

    @pytest.mark.parametrize("dt_ms", [1.0, 2.0])
    def test_eval_power_uses_the_session_timestep(self, tmp_path, dt_ms):
        p, _ = write_config(tmp_path, synth={"dt_ms": dt_ms})
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        dense = tmp_path / "dense.ckpt"
        save_checkpoint(dense, session_net((6, 6, 6), dt_ms))
        assert main(["eval", "--config", str(p), "--checkpoint", str(dense)]) == EXIT_OK
        payload = json.loads((tmp_path / "out" / "metrics.json").read_text())
        for rep in payload["energy"].values():
            assert rep["dt_ms"] == dt_ms
            assert rep["power_uw"] == rep["energy_pj_per_timestep"] / dt_ms / 1000.0
        text = (tmp_path / "out" / "metrics.txt").read_text()
        assert f"energy[paper-consistent].dt_ms = {dt_ms!r}" in text

    def test_eval_dense_vs_pruned_ordering(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = str(tmp / "out" / "dense.ckpt")
        assert main(["eval", "--config", str(p), "--checkpoint", dense,
                     "--out", str(tmp / "ev_dense")]) == EXIT_OK
        assert main(["prune", "--config", str(p), "--checkpoint", dense,
                     "--mode", "fixed"]) == EXIT_OK
        pruned = str(tmp / "out" / "pruned.ckpt")
        assert main(["eval", "--config", str(p), "--checkpoint", pruned,
                     "--out", str(tmp / "ev_pruned")]) == EXIT_OK
        md = json.loads((tmp / "ev_dense" / "metrics.json").read_text())["metrics"]
        mp = json.loads((tmp / "ev_pruned" / "metrics.json").read_text())["metrics"]
        assert md["connection_sparsity"] == 0.0
        assert mp["connection_sparsity"] > 0.0
        assert mp["effective_ops"] <= md["effective_ops"]

    def test_eval_rerun_byte_identical(self, prepared):
        p, tmp = prepared
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = str(tmp / "out" / "dense.ckpt")
        assert main(["eval", "--config", str(p), "--checkpoint", dense]) == EXIT_OK
        first = (tmp / "out" / "metrics.json").read_bytes()
        assert main(["eval", "--config", str(p), "--checkpoint", dense]) == EXIT_OK
        assert (tmp / "out" / "metrics.json").read_bytes() == first


class TestErrorExits:
    def test_missing_session_is_data_error(self, tmp_path):
        p, _ = write_config(tmp_path)
        assert main(["pretrain", "--config", str(p)]) == EXIT_DATA

    def test_directory_as_session_or_checkpoint_is_data_error(self, tmp_path):
        p, _ = write_config(tmp_path, data={"session": str(tmp_path)})
        assert main(["pretrain", "--config", str(p)]) == EXIT_DATA
        p, _ = write_config(tmp_path)
        assert main(["eval", "--config", str(p), "--checkpoint", str(tmp_path)]) == EXIT_DATA

    def test_padded_session_or_bad_id_is_data_error(self, tmp_path):
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        session = tmp_path / "unit.spk"
        good = session.read_bytes()
        session.write_bytes(good + b"junk")
        assert main(["pretrain", "--config", str(p)]) == EXIT_DATA
        start = good.index(b"unit#cfg:")
        session.write_bytes(good[:start] + b"\xff" + good[start + 1:])
        assert main(["pretrain", "--config", str(p)]) == EXIT_DATA

    def test_corrupt_session_is_data_error(self, tmp_path):
        p, _ = write_config(tmp_path)
        (tmp_path / "unit.spk").write_bytes(b"garbage!" * 8)
        assert main(["pretrain", "--config", str(p)]) == EXIT_DATA

    def test_channel_mismatch_is_data_error(self, tmp_path):
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        p2, _ = write_config(tmp_path, synth={"channels": 7})
        assert main(["synth", "--config", str(p2)]) == EXIT_OK
        assert main(["eval", "--config", str(p2), "--checkpoint",
                     str(tmp_path / "out" / "dense.ckpt")]) == EXIT_DATA

    def test_timestep_mismatch_is_data_error(self, tmp_path, capsys):
        # a checkpoint pretrained at dt_ms 4.0 must not run, or report power,
        # on a session binned at 1.0 ms
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        p2, _ = write_config(tmp_path, synth={"dt_ms": 1.0}, out_dir=str(tmp_path / "fine"))
        assert main(["synth", "--config", str(p2)]) == EXIT_OK
        capsys.readouterr()
        for command in ("eval", "prune"):
            assert main([command, "--config", str(p2), "--checkpoint",
                         str(tmp_path / "out" / "dense.ckpt")]) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "4.0" in err and "1.0" in err
        assert not (tmp_path / "fine").exists()

    def test_zero_channel_session_is_data_error(self, tmp_path, capsys):
        p, _ = write_config(tmp_path)
        (tmp_path / "unit.spk").write_bytes(
            MAGIC_SESSION + struct.pack("<IIQdI", 1, 0, 400, 4.0, 0)
            + np.zeros((400, 2), dtype="<f8").tobytes())
        assert main(["pretrain", "--config", str(p)]) == EXIT_DATA
        assert "channels > 0" in capsys.readouterr().err

    def test_truncated_or_padded_checkpoint_is_data_error(self, tmp_path):
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, session_net((4, 3, 4)))
        blob = good.read_bytes()
        assert main(["eval", "--config", str(p), "--checkpoint", str(good)]) == EXIT_OK
        bad = tmp_path / "bad.ckpt"
        for data in [blob[:n] for n in range(len(blob))] + [blob + b"\x00"]:
            bad.write_bytes(data)
            assert main(["eval", "--config", str(p), "--checkpoint", str(bad)]) == EXIT_DATA

    @pytest.mark.parametrize("key", ["tau", "threshold", "reset_value", "dt"])
    def test_lif_value_past_float64_is_data_error(self, tmp_path, capsys, key):
        # a canonical header holding an int too large for a float64: eval and
        # prune reject the checkpoint before they write anything
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        ckpt = tmp_path / "big.ckpt"
        save_checkpoint(ckpt, Network.from_config(NetworkConfig.snn3(5, hidden=(4, 3, 4))))
        blob = ckpt.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
        header = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen])
        header["lif"][key] = 10 ** 400
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        ckpt.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + blob[len(MAGIC) + 4 + hlen:])
        before = sorted(tmp_path.rglob("*"))
        for command in ("eval", "prune"):
            assert main([command, "--config", str(p), "--checkpoint", str(ckpt)]) == EXIT_DATA
            assert f"{key} does not fit a float64" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_deeply_nested_checkpoint_meta_is_data_error(self, tmp_path, capsys):
        # the header parses, and is re-dumped to check its canonical form,
        # in recursive code: neither may end eval or prune with a traceback
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        ckpt = tmp_path / "deep.ckpt"
        save_checkpoint(ckpt, session_net((4, 3, 4)), meta={"x": "@"})
        blob = ckpt.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
        raw = blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen].replace(
            b'"@"', b"[" * 100_000 + b"]" * 100_000)
        ckpt.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + blob[len(MAGIC) + 4 + hlen:])
        before = sorted(tmp_path.rglob("*"))
        for command in ("eval", "prune"):
            assert main([command, "--config", str(p), "--checkpoint", str(ckpt)]) == EXIT_DATA
            assert "nests too deeply" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


class _DiskFull:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def __getattr__(self, name):
        return getattr(self._f, name)


class TestAtomicOutputs:
    @pytest.mark.parametrize("command,output", [
        ("synth", "unit.spk"), ("pretrain", "out/dense.ckpt"), ("prune", "out/pruned.ckpt"),
        ("eval", "out/metrics.json"), ("eval", "out/metrics.txt"),
    ])
    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
    def test_failed_write_leaves_no_partial_output(self, tmp_path, monkeypatch, capsys,
                                                   command, output, existing):
        p, _ = write_config(tmp_path, train={"max_epochs": 1})
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        assert main(["pretrain", "--config", str(p)]) == EXIT_OK
        dense = tmp_path / "dense.ckpt"
        (tmp_path / "out" / "dense.ckpt").replace(dense)
        target = tmp_path / output
        target.unlink(missing_ok=True)
        if existing:
            target.write_bytes(b"earlier output\n")
        before = sorted(f for f in tmp_path.rglob("*") if f != target)

        def full_disk_open(path, *args, **kwargs):
            f = open(path, *args, **kwargs)
            return _DiskFull(f) if f".{target.name}." in str(path) else f

        monkeypatch.setattr(_files, "open", full_disk_open, raising=False)
        argv = [command, "--config", str(p)]
        if command in ("prune", "eval"):
            argv += ["--checkpoint", str(dense)]
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        if existing:
            assert target.read_bytes() == b"earlier output\n"
        else:
            assert not target.exists()
        after = sorted(f for f in tmp_path.rglob("*") if f != target)
        # no temp file is left; only outputs written before the failure are new
        assert not [f for f in after if f.name.endswith(".tmp")]
        assert set(after) - set(before) <= {tmp_path / "out" / n for n in (
            "pretrain_trace.csv", "prune_trace.csv", "metrics.json")}

    @pytest.mark.parametrize("command", ["pretrain", "prune"])
    def test_trace_is_closed_when_the_run_fails(self, tmp_path, monkeypatch, command):
        p, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(p)]) == EXIT_OK
        dense = tmp_path / "dense.ckpt"
        save_checkpoint(dense, session_net((6, 6, 6)))
        closed = []
        real_close = cli.CsvTraceSink.close

        def close(sink):
            closed.append(sink.path.name)
            real_close(sink)

        def diverge(*args, **kwargs):
            raise cli.TrainingDivergedError("non-finite loss")

        monkeypatch.setattr(cli.CsvTraceSink, "close", close)
        monkeypatch.setattr(cli, "pretrain" if command == "pretrain" else "adaptive_prune",
                            diverge)
        argv = [command, "--config", str(p)]
        if command == "prune":
            argv += ["--checkpoint", str(dense)]
        assert main(argv) == EXIT_DIVERGED
        assert closed == [f"{command}_trace.csv"]
