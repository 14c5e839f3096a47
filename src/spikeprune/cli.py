"""Command-line harness: synth, pretrain, prune, eval.

One experiment is one JSON config document; every command is a pure function
of (config, input files, seed) and reruns produce byte-identical outputs.
Each output file embeds the sha256 digest of the canonical config that
produced it: checkpoints carry it in their metadata header, CSV traces and
reports carry it on a leading comment line, and synthesized sessions append
"#cfg:<12 hex>" to the stored session id (the session byte format has no
metadata field).

The train, prune and energy defaults are those of TrainConfig,
PruneHyperParams and EnergyParams, but energy has no dt_ms key: eval's
power uses the session's dt_ms, the timestep the LIF ran at (prune and eval
reject a session whose dt_ms is not the checkpoint's LIF dt). The prune
command's --mode and --scope flags are merged into the config as
prune.mode and prune.scope before its digest is taken.

Exit codes: 0 success, 2 config error, 3 data error, 4 training divergence.
A config that cannot be read, is not UTF-8 JSON, nests too deeply to parse,
repeats a key within an object, or has a key, a type or a non-finite number
not allowed by DEFAULT_CONFIG is a config error; any other OSError is a
data error.

Sessions, checkpoints and eval reports are written to a temp file and then
moved into place, so a failed write leaves no partial output; the CSV traces
are appended and flushed per event, so an interrupted run keeps its rows.
Only a finished run ends its trace with a comment: "# completed: <n> epochs"
once pretrain has written its checkpoint, "# terminated: <reason>" once the
pruning controller stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import checkpoint as ckpt
from . import data as dataio
from ._files import atomic_write
from .energy import PAPER_CONSISTENT, PER_NEURON, EnergyParams, energy_report
from .metrics import DegenerateTruthError, evaluate_segments
from .network import LifParams, NetworkConfig
from .pruning import TRACE_COLUMNS, PruneHyperParams, PruneTrace, adaptive_prune
from .training import TrainConfig, TrainingDivergedError, pretrain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

DEFAULT_CONFIG = {
    "seed": 0,
    "network": {"hidden": [50, 50, 50]},
    "lif": {"tau_factor": 5.0, "threshold": 1.0, "reset_value": 0.0},
    "train": asdict(TrainConfig()),
    "finetune": {},  # overrides applied to "train" during pruning
    "prune": asdict(PruneHyperParams()),
    # eval reports both update-count modes, at the session's timestep
    "energy": {k: v for k, v in asdict(EnergyParams()).items()
               if k not in ("update_count_mode", "dt_ms")},
    "synth": {"channels": 32, "timesteps": 20000, "rate": 0.2,
              "mixing_density": 0.25, "label_tau_steps": 5.0,
              "session_id": "synthetic", "dt_ms": 4.0},
    "data": {"session": "session.spk", "n_subsessions": 4},
    "out_dir": "out",
}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


# Every key a config may set, with a value of the type it must have: the
# defaults, plus "finetune" taking train's keys but max_epochs (the pruning
# controller decides how long it fine-tunes)
_SCHEMA = _merge(DEFAULT_CONFIG, {"finetune": {
    k: v for k, v in DEFAULT_CONFIG["train"].items() if k != "max_epochs"}})


def _check_schema(value, schema, path: str) -> None:
    """Raise ConfigError naming the path of the first key or type not in schema.

    An int is needed where the schema has an int, a finite int or float
    where it has a float, and a bool is never a number.
    """
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config root'} must be a JSON object")
        for k, v in value.items():
            key = f"{path}.{k}" if path else k
            if k not in schema:
                raise ConfigError(f"unknown config key {key}")
            _check_schema(v, schema[k], key)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        for i, v in enumerate(value):
            _check_schema(v, schema[0], f"{path}[{i}]")
    else:
        number = isinstance(schema, float)
        kind = (int, float) if number else type(schema)
        # NaN fails every comparison, and an int too large for a float
        # compares exactly, so this also rejects NaN, +-Infinity and 1e999
        if isinstance(value, bool) or not isinstance(value, kind) or \
                (number and not abs(value) <= sys.float_info.max):
            name = "a finite number" if number else f"of type {type(schema).__name__}"
            raise ConfigError(f"{path} must be {name}, got {value!r}")


def _unique_keys(pairs) -> dict:
    """json's object_pairs_hook: a repeated key would silently drop a value."""
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise ConfigError(f"config key {k!r} is set twice in one object")
        seen.add(k)
    return dict(pairs)


def load_config(path) -> dict:
    """Read a config document, check it against the schema and merge it
    over DEFAULT_CONFIG; raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            user = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"config is not valid UTF-8 JSON: {e}") from e
    except RecursionError as e:
        raise ConfigError("config nests too deeply to parse") from e
    _check_schema(user, _SCHEMA, "")
    cfg = _merge(DEFAULT_CONFIG, user)
    if "seed" not in user:
        raise ConfigError("config must set an explicit seed")
    return cfg


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _network_config(cfg: dict, channels: int, dt_ms: float) -> NetworkConfig:
    lif_cfg = cfg["lif"]
    tau = lif_cfg["tau_factor"] * dt_ms
    if not math.isfinite(tau):  # a checkpoint cannot store it
        raise ConfigError(f"lif.tau_factor {lif_cfg['tau_factor']!r} times the session's "
                          f"dt_ms {dt_ms!r} overflows tau")
    lif = LifParams(tau=tau, threshold=lif_cfg["threshold"],
                    reset_value=lif_cfg["reset_value"], dt=dt_ms)
    return NetworkConfig.snn3(channels, hidden=tuple(cfg["network"]["hidden"]),
                              lif=lif, seed=cfg["seed"])


def _load_split(cfg: dict, net=None):
    """Load and split the configured session, checking that it fits `net`, if
    given: its channels are the net's inputs and its dt_ms the LIF's dt."""
    session = dataio.load_session(cfg["data"]["session"])
    if net is not None:
        if session.channels != net.input_dim:
            raise dataio.SessionDimensionError(
                f"checkpoint expects {net.input_dim} channels, session has {session.channels}")
        if session.dt_ms != net.config.lif.dt:
            raise dataio.SessionDimensionError(
                f"checkpoint's LIF timestep is {net.config.lif.dt!r} ms, session's dt_ms "
                f"is {session.dt_ms!r}")
    return session, dataio.split_session(session, cfg["data"]["n_subsessions"])


class CsvTraceSink:
    """Append-only trace CSV, flushed per event so interrupted runs survive."""

    def __init__(self, path, digest: str):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._f = open(self.path, "w", encoding="utf-8", newline="")
        self._f.write(f"# config_digest={digest}\n")
        self._f.write(",".join(TRACE_COLUMNS) + "\n")
        self._f.flush()

    def __call__(self, event) -> None:
        self._f.write(",".join(event.csv_row()) + "\n")
        self._f.flush()

    def comment(self, text: str) -> None:
        self._f.write(f"# {text}\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


def cmd_synth(cfg: dict, out_dir: Path) -> int:
    s = cfg["synth"]
    digest = config_digest(cfg)
    session = dataio.generate_synthetic(
        seed=cfg["seed"], channels=s["channels"], T=s["timesteps"],
        rate=s["rate"], mixing_density=s["mixing_density"],
        label_tau_steps=s["label_tau_steps"], dt_ms=s["dt_ms"],
        session_id=f"{s['session_id']}#cfg:{digest[:12]}",
    )
    path = Path(cfg["data"]["session"])
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    dataio.save_session(path, session)
    print(f"wrote session {session.session_id}: T={session.timesteps} "
          f"channels={session.channels} rate={session.spikes.mean():.4f} -> {path}")
    return EXIT_OK


def cmd_pretrain(cfg: dict, out_dir: Path) -> int:
    digest = config_digest(cfg)
    session, split = _load_split(cfg)
    net_config = _network_config(cfg, session.channels, session.dt_ms)
    tc = TrainConfig(**cfg["train"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sink = CsvTraceSink(out_dir / "pretrain_trace.csv", digest)
    trace = PruneTrace(sink)

    def log(epoch, train_loss, val_loss):
        trace.emit("epoch", epoch + 1, train_loss=train_loss, val_loss=val_loss, pruned=0.0)

    ckpt_path = out_dir / "dense.ckpt"
    try:
        net, target_loss = pretrain(net_config, split, tc, log=log)
        ckpt.save_checkpoint(ckpt_path, net, meta={
            "config_digest": digest, "stage": "pretrain",
            "target_loss": target_loss, "epochs": tc.max_epochs,
            "session_id": session.session_id,
        })
        sink.comment(f"completed: {tc.max_epochs} epochs")
    finally:
        sink.close()
    print(f"pretrained {tc.max_epochs} epochs, target loss {target_loss!r} -> {ckpt_path}")
    return EXIT_OK


def cmd_prune(cfg: dict, out_dir: Path, checkpoint_path) -> int:
    digest = config_digest(cfg)
    net, meta = ckpt.load_checkpoint(checkpoint_path)
    session, split = _load_split(cfg, net)
    hp = PruneHyperParams(**cfg["prune"])
    tc = TrainConfig(**_merge(cfg["train"], cfg["finetune"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    sink = CsvTraceSink(out_dir / "prune_trace.csv", digest)
    try:
        pruned_net, trace = adaptive_prune(net, split, hp, tc, trace_sink=sink)
        final = trace.events[-1]
        sink.comment(f"terminated: {final.reason}")
    finally:
        sink.close()
    ckpt_path = out_dir / "pruned.ckpt"
    ckpt.save_checkpoint(ckpt_path, pruned_net, meta={
        "config_digest": digest, "stage": "prune",
        "mode": hp.mode, "scope": hp.scope,
        "pruned": final.pruned, "fine_tune_epochs": trace.total_epochs(),
        "source_checkpoint_meta": meta,
    })
    print(f"pruning terminated ({final.reason}): pruned={final.pruned:.4f} "
          f"over {trace.total_epochs()} fine-tune epochs -> {ckpt_path}")
    return EXIT_OK


def cmd_eval(cfg: dict, out_dir: Path, checkpoint_path) -> int:
    digest = config_digest(cfg)
    net, meta = ckpt.load_checkpoint(checkpoint_path)
    session, split = _load_split(cfg, net)
    report = evaluate_segments(net, split["test"])
    n_neurons = sum(net.config.layer_dims[1:])
    energies = {}
    for mode in (PAPER_CONSISTENT, PER_NEURON):
        params = EnergyParams(**cfg["energy"], dt_ms=session.dt_ms, update_count_mode=mode)
        energies[mode] = energy_report(report.effective_ops, n_neurons, params).as_dict()

    payload = {
        "config_digest": digest,
        "checkpoint_meta": meta,
        "session_id": session.session_id,
        "metrics": report.as_dict(),
        "energy": energies,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "metrics.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")
    lines = [f"# config_digest={digest}"]
    for k, v in sorted(report.as_dict().items()):
        lines.append(f"{k} = {v!r}")
    for mode, rep in energies.items():
        for k, v in sorted(rep.items()):
            lines.append(f"energy[{mode}].{k} = {v!r}")
    text = "\n".join(lines) + "\n"
    with atomic_write(out_dir / "metrics.txt", "w", encoding="utf-8") as f:
        f.write(text)
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikeprune",
        description="Train, prune, and benchmark small LIF velocity decoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_ckpt in (("synth", False), ("pretrain", False),
                             ("prune", True), ("eval", True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory")
        if needs_ckpt:
            p.add_argument("--checkpoint", required=True)
        if name == "prune":
            p.add_argument("--mode",
                           choices=["full-adaptive", "tolerance-only", "fixed"])
            p.add_argument("--scope", choices=["per-layer", "global"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg["out_dir"])
        if args.command == "synth":
            return cmd_synth(cfg, out_dir)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, out_dir)
        if args.command == "prune":
            flags = {"mode": args.mode, "scope": args.scope}
            cfg = _merge(cfg, {"prune": {k: v for k, v in flags.items() if v}})
            return cmd_prune(cfg, out_dir, args.checkpoint)
        return cmd_eval(cfg, out_dir, args.checkpoint)
    except (ConfigError, ValueError) as e:
        if isinstance(e, (dataio.SessionFormatError, ckpt.CheckpointError,
                          DegenerateTruthError)):
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
