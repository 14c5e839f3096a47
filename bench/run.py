"""Benchmark for spikeprune: three closed-loop workloads, timed end to end and
traced layer by layer.

    python3 bench/run.py --workload pretrain-desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30      # every workload, one table

Each workload builds its inputs from --seed, sets up several times (the
median is `setup_s`), then repeats one run of the workload back to back,
single-threaded, until --seconds have passed. Every run is checked for
correctness. The last stdout line is one JSON object: with --trace 0 it holds
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics, taken from runs in which the package's public names are wrapped in
spans. Everything measured, plus an environment record, is also written to
bench/out/. See bench/README.md for the workloads and metrics.
"""

import os

# Set before numpy loads, in this process only: BLAS on one thread, and no
# transparent huge pages for numpy's arrays, whose availability depends on the
# host's memory and moved peak RSS by 20 MB between identical runs.
PROCESS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PROCESS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MODULES = ("data", "network", "training", "pruning", "metrics", "energy", "checkpoint")
ENERGY_MODES = ("paper-consistent", "per-neuron")


SPIKE_RATE = 0.3


@dataclass(frozen=True)
class Sizes:
    channels: int = 32            # desk scale, as in the acceptance pipeline
    timesteps: int = 20_000
    hidden: tuple = (50, 50, 50)
    pretrain_epochs: int = 8      # pretrain-desk: epochs per run
    dense_epochs: int = 10        # prune-desk: set-up pretrain before pruning
    wide_channels: int = 96       # eval-wide: the paper's input width
    wide_timesteps: int = 60_000  # eval-wide: three times the desk length


DESK = Sizes()
SMOKE = replace(DESK, channels=6, timesteps=800, hidden=(8, 8, 8), pretrain_epochs=2,
                dense_epochs=2, wide_channels=12, wide_timesteps=1600)

# End-to-end metrics: unit and better direction. BENCHMARK.json gates those
# that every workload has, that are never 0 and that repeat across seeds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "epoch_s.p50": ("s", "lower"),
    "epoch_s.tail": ("s", "lower"),
    "eval_steps_per_s": ("timesteps/s", "higher"),
    "timesteps_per_s": ("timesteps/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_fraction": ("share", "lower"),
    "dense_val_r2": ("R2", "higher"),
    "test_r2": ("R2", "higher"),
    "r2_drop": ("R2", "lower"),
    "pruned_fraction": ("share", "higher"),
    "fine_tune_epochs": ("epochs", "lower"),
    "acs_per_step": ("ACs/timestep", "lower"),
    "activation_sparsity": ("share", "higher"),
    "energy_pj_per_step": ("pJ/timestep", "lower"),
}

# Spans the traced run records: (module, attribute where the consumer looks
# it up, span name). train_epoch and validate are looked up both by pretrain
# (training) and by the controller's trainer (pruning).
TRACED = (
    ("training", "train_epoch", "training.train_epoch"),
    ("pruning", "train_epoch", "training.train_epoch"),
    ("training", "validate", "training.validate"),
    ("pruning", "validate", "training.validate"),
    ("training", "AdamOptimizer.step", "training.optimizer_step"),
    ("metrics", "network_forward", "network.network_forward"),
    ("network", "Network.apply_masks", "network.apply_masks"),
    ("network", "Network.snapshot", "network.snapshot"),
    ("network", "Network.restore", "network.restore"),
    ("metrics", "evaluate_segments", "metrics.evaluate_segments"),
    ("metrics", "effective_ops", "metrics.effective_ops"),
    ("metrics", "activation_sparsity", "metrics.activation_sparsity"),
    ("pruning", "adaptive_prune", "pruning.adaptive_prune"),
    ("pruning", "prune_step", "pruning.prune_step"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "save_session", "data.save_session"),
    ("data", "load_session", "data.load_session"),
    ("data", "split_session", "data.split_session"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("energy", "energy_report", "energy.energy_report"),
)

# Timesteps handed to a call, counted at the span boundary.
STEP_COUNTERS = {
    "training.train_epoch": ("training.steps_trained", lambda a: _seg_steps(a[1])),
    "training.validate": ("training.steps_validated", lambda a: _seg_steps(a[1])),
    "network.network_forward": ("network.steps_forwarded", lambda a: len(a[1])),
}

# Per-layer metrics from the traced run, per one set-up plus one run.
PER_LAYER = {
    "training.train_epoch.calls": "count", "training.train_epoch.s": "s",
    "training.train_epoch.self_s": "s", "training.steps_trained": "timesteps",
    "training.dense_flops": "flop",
    "training.validate.calls": "count", "training.validate.s": "s",
    "training.steps_validated": "timesteps",
    "training.optimizer_step.calls": "count", "training.optimizer_step.s": "s",
    "network.network_forward.calls": "count", "network.network_forward.s": "s",
    "network.steps_forwarded": "timesteps", "network.dense_macs_per_step": "MAC/timestep",
    "network.apply_masks.calls": "count", "network.apply_masks.s": "s",
    "network.snapshot.calls": "count", "network.snapshot.s": "s",
    "network.restore.calls": "count", "network.restore.s": "s",
    "metrics.evaluate_segments.s": "s", "metrics.evaluate_segments.self_s": "s",
    "metrics.effective_ops.s": "s", "metrics.activation_sparsity.s": "s",
    "pruning.adaptive_prune.s": "s", "pruning.adaptive_prune.self_s": "s",
    "pruning.prune_step.calls": "count", "pruning.prune_step.s": "s",
    "pruning.rollbacks": "count", "pruning.step_accept_ratio": "ratio",
    "pruning.useful_epoch_ratio": "ratio",
    "data.generate_synthetic.s": "s", "data.save_session.s": "s",
    "data.load_session.s": "s", "data.split_session.s": "s", "data.session_bytes": "B",
    "checkpoint.save_checkpoint.s": "s", "checkpoint.load_checkpoint.s": "s",
    "checkpoint.bytes": "B",
    "energy.energy_report.calls": "count",
    "tracing.overhead_share": "share",
}


def _seg_steps(segments):
    return sum(s.timesteps for s in segments)


def load_package():
    """The spikeprune modules, imported from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"spikeprune.{m}") for m in MODULES}
    except ImportError as e:
        sys.exit(f"bench: cannot import spikeprune from {SRC}: {e}")
    origin = Path(mods["network"].__file__).resolve().parent.parent
    if origin != SRC.resolve():
        sys.exit(f"bench: spikeprune was imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around the package's public names, kept in memory.

    A span is [name, start, end, parent index, root index, timesteps handed
    in]; the roots are the benchmark's own `bench.setup` / `bench.run` spans.
    """

    def __init__(self, sp):
        self.sp = sp
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][4] if self._stack else len(self.spans)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, 0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name):
        counter = STEP_COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                if counter is not None:
                    self.spans[self._stack[-1]][5] = counter[1](args)
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED name for the duration of the block."""
        saved = []
        for module, attr, name in TRACED:
            owner = getattr(self.sp, module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name))
        try:
            yield
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)

    def layer_totals(self):
        """{root name: {span name: {calls, s, self_s, steps}}}."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        per_root = {}
        for i, (name, t0, t1, _, root, steps) in enumerate(self.spans):
            agg = per_root.setdefault(self.spans[root][0], {}).setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "steps": 0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["steps"] += steps
        return per_root

    def dump(self, path, origin):
        rows = [{"name": n, "start": t0 - origin, "end": t1 - origin, "parent": p}
                for n, t0, t1, p, _, _ in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# workloads


def make_session(sp, seed, channels, timesteps, workdir):
    """Synthesize, round-trip through the session file, split."""
    session = sp.data.generate_synthetic(seed=seed, channels=channels, T=timesteps,
                                         rate=SPIKE_RATE)
    path = workdir / "session.spk"
    sp.data.save_session(path, session)
    loaded = sp.data.load_session(path)
    return loaded, sp.data.split_session(loaded), path.stat().st_size


def desk_network(sp, sizes, channels, seed):
    lif = sp.network.LifParams(tau=20.0, dt=4.0)
    return sp.network.NetworkConfig.snn3(channels, hidden=sizes.hidden, lif=lif, seed=seed)


def timed_eval(sp, net, segments):
    t0 = time.perf_counter()
    report = sp.metrics.evaluate_segments(net, segments)
    return report, _seg_steps(segments), time.perf_counter() - t0


def energies(sp, net, acs):
    n_neurons = sum(net.config.layer_dims[1:])
    return {mode: sp.energy.energy_report(
                acs, n_neurons, sp.energy.EnergyParams(update_count_mode=mode))
            for mode in ENERGY_MODES}


def setup_pretrain(sp, sizes, seed, workdir):
    session, split, nbytes = make_session(sp, seed, sizes.channels, sizes.timesteps, workdir)
    return {"split": split, "session_bytes": nbytes, "inputs": session,
            "net_config": desk_network(sp, sizes, sizes.channels, seed),
            "train": sp.training.TrainConfig(learning_rate=2e-3, batch_length=25,
                                             max_epochs=sizes.pretrain_epochs)}


def run_pretrain(sp, st):
    """Dense pretraining for a fixed epoch count, then val and test evaluation."""
    stamps, losses = [time.perf_counter()], []

    def log(epoch, train_loss, val_loss):
        stamps.append(time.perf_counter())
        losses.extend((train_loss, val_loss))

    net, _ = sp.training.pretrain(st["net_config"], st["split"], st["train"], log=log)
    val, val_steps, val_s = timed_eval(sp, net, st["split"]["val"])
    test, test_steps, test_s = timed_eval(sp, net, st["split"]["test"])
    # the first interval also holds network init and the initial validation
    epochs = list(np.diff(stamps)[1:])
    split = st["split"]
    steps = (len(losses) // 2) * (_seg_steps(split["train"]) + _seg_steps(split["val"]))
    return {"net": net, "report": test, "eval_segments": split["test"],
            "losses": losses, "epoch_s": epochs, "steps": steps + val_steps + test_steps,
            "eval_steps": val_steps + test_steps, "eval_s": val_s + test_s,
            "energy": energies(sp, net, test.effective_ops),
            "dense_val_r2": val.r2, "pruned_fraction": 0.0}


def setup_prune(sp, sizes, seed, workdir):
    st = setup_pretrain(sp, replace(sizes, pretrain_epochs=sizes.dense_epochs), seed, workdir)
    net, _ = sp.training.pretrain(st["net_config"], st["split"], st["train"])
    path = workdir / "dense.ckpt"
    sp.checkpoint.save_checkpoint(path, net, meta={"stage": "pretrain"})
    dense, _ = sp.checkpoint.load_checkpoint(path)
    st.update(
        dense=dense, checkpoint_bytes=path.stat().st_size,
        dense_val_r2=sp.metrics.evaluate_segments(dense, st["split"]["val"]).r2,
        dense_test_r2=sp.metrics.evaluate_segments(dense, st["split"]["test"]).r2,
        hp=sp.pruning.PruneHyperParams(p_start=10.0, patience=5, tolerance=0.1,
                                       pruned_max=0.95,
                                       scope="per-layer", mode="full-adaptive"),
        finetune=sp.training.TrainConfig(learning_rate=5e-3, batch_length=25, max_epochs=0))
    return st


def run_prune(sp, st):
    """The adaptive controller from the reloaded dense checkpoint, then test eval."""
    events = []

    def sink(event):
        events.append((event, time.perf_counter()))

    net, trace = sp.pruning.adaptive_prune(st["dense"], st["split"], st["hp"],
                                           st["finetune"], trace_sink=sink)
    test, steps, eval_s = timed_eval(sp, net, st["split"]["test"])
    # an epoch event follows its train_epoch + validate directly
    epochs = [t - events[i - 1][1] for i, (ev, t) in enumerate(events) if ev.kind == "epoch"]
    split = st["split"]
    per_epoch = _seg_steps(split["train"]) + _seg_steps(split["val"])
    return {"net": net, "report": test, "eval_segments": split["test"],
            "steps": trace.total_epochs() * per_epoch + steps,
            "losses": [x for ev, _ in events for x in (ev.train_loss, ev.val_loss)
                       if x is not None],
            "epoch_s": epochs, "eval_steps": steps, "eval_s": eval_s,
            "energy": energies(sp, net, test.effective_ops),
            "dense_val_r2": st["dense_val_r2"],
            "r2_drop": st["dense_test_r2"] - test.r2,
            "pruned_fraction": trace.events[-1].pruned,
            "fine_tune_epochs": trace.total_epochs(),
            "prune": prune_counts(trace)}


def prune_counts(trace):
    """Rollbacks, and the share of prune steps and epochs that were kept."""
    applied = rolled = useful = epochs = 0
    step_epochs = 0
    for ev in trace.events:
        if ev.kind == "prune-applied":
            applied += 1
            useful += step_epochs
            step_epochs = 0
        elif ev.kind == "epoch":
            epochs += 1
            step_epochs += 1
        elif ev.kind == "rollback":
            rolled += 1
            step_epochs = 0
    useful += step_epochs
    return {"pruning.rollbacks": rolled,
            "pruning.step_accept_ratio": (applied - rolled) / applied if applied else 0.0,
            "pruning.useful_epoch_ratio": useful / epochs if epochs else 0.0}


def setup_eval(sp, sizes, seed, workdir):
    session, split, nbytes = make_session(sp, seed, sizes.wide_channels,
                                          sizes.wide_timesteps, workdir)
    net = sp.network.Network.from_config(desk_network(sp, sizes, sizes.wide_channels, seed))
    sp.pruning.prune_step(net, 90.0)
    return {"net": net, "inputs": session, "session_bytes": nbytes,
            "segments": split["train"] + split["val"] + split["test"]}


def run_eval(sp, st):
    """Inference only: every segment of a long, wide session, then energy."""
    net = st["net"]
    report, steps, eval_s = timed_eval(sp, net, st["segments"])
    return {"net": net, "report": report, "eval_segments": st["segments"], "losses": [],
            "epoch_s": [], "steps": steps, "eval_steps": steps, "eval_s": eval_s,
            "energy": energies(sp, net, report.effective_ops),
            "pruned_fraction": sp.pruning.prunable_zero_fraction(net)}


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    setups: int  # set-ups per process; setup_s is their median


# Why each workload: BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "pretrain-desk": Workload(setup_pretrain, run_pretrain, 5),
    "prune-desk": Workload(setup_prune, run_prune, 3),
    "eval-wide": Workload(setup_eval, run_eval, 5),
}


# ---------------------------------------------------------------------------
# correctness


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def run_digest(result):
    """Final weights, masks and reported metrics of one run."""
    net, rep = result["net"], result["report"]
    reported = np.array([rep.r2, rep.effective_ops, rep.activation_sparsity,
                         rep.connection_sparsity] + list(result["losses"]))
    return digest(*[l.weights for l in net.layers], *[l.mask for l in net.layers], reported)


def run_checks(result):
    """Checks every run must pass; returns the names of those that failed."""
    failed = []
    if not all(np.isfinite(x) for x in result["losses"]):
        failed.append("losses-finite")
    if any(np.any(l.weights[l.mask == 0] != 0.0) for l in result["net"].layers):
        failed.append("zero-under-mask")
    acs = result["report"].effective_ops
    paper = result["energy"]["paper-consistent"].energy_pj_per_timestep
    if paper != acs * 12.7 + 14.6:
        failed.append("energy-formula")
    return failed


def count_acs(net, record):
    """ACs of one record, counted apart from metrics.effective_ops: every
    presynaptic spike costs one AC per nonzero outgoing weight."""
    total = 0
    for i, layer in enumerate(net.layers):
        fan_out = np.count_nonzero((layer.weights != 0) & (layer.mask != 0), axis=0)
        fired = np.count_nonzero(record.layer_inputs(i), axis=0)
        total += sum(int(f) * int(k) for f, k in zip(fired, fan_out))
    return total


def verify_outputs(sp, result):
    """Re-run the last run's evaluation by hand; returns (failed checks, digest)."""
    net, rep = result["net"], result["report"]
    preds, truths, acs, steps = [], [], 0, 0
    for seg in result["eval_segments"]:
        pred, record = sp.network.network_forward(net, seg.spikes)
        preds.append(pred)
        truths.append(seg.velocity)
        acs += count_acs(net, record)
        steps += seg.timesteps
    pred = np.concatenate(preds)
    failed = []
    if acs / steps != rep.effective_ops:
        failed.append("acs-independent-count")
    if sp.metrics.r_squared(pred, np.concatenate(truths)) != rep.r2:
        failed.append("r2-from-predictions")
    return failed, digest(pred)


# ---------------------------------------------------------------------------
# running a workload


def median(xs):
    return float(np.median(xs)) if len(xs) else None


def tail(xs):
    """Highest percentile of a ladder with at least 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(xs) * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(xs, pct)), pct
    return (float(np.percentile(xs, 50.0)), 50.0) if xs else (None, None)


def environment(seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 only prints its build configuration
        blas = {}
    return {
        "commit": commit, "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "process_env": {v: os.environ.get(v) for v in PROCESS_ENV},
        "seed": seed,
    }


def run_one(sp, name, seed, seconds, trace, sizes):
    wl = WORKLOADS[name]
    tracer = Tracer(sp)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    origin = time.perf_counter()
    try:
        setup_s, setup_digests, traced_setups = [], set(), 0
        for k in range(wl.setups):
            st = None  # each set-up starts without the previous one in memory
            traced = trace and k % 2 == 0
            t0 = time.perf_counter()
            with (tracer.installed() if traced else nullcontext()), \
                    (tracer.span("bench.setup") if traced else nullcontext()):
                st = wl.setup(sp, sizes, seed, workdir)
            if traced:
                traced_setups += 1
            else:
                setup_s.append(time.perf_counter() - t0)
            net = st.get("dense") or st.get("net")
            setup_digests.add(digest(st["inputs"].spikes, st["inputs"].velocity,
                                     *([l.weights for l in net.layers] if net else [])))
        inputs_digest = digest(st["inputs"].spikes, st["inputs"].velocity)

        runs, failures, digests = [], [], []
        start = time.perf_counter()
        while len(runs) < 2 or time.perf_counter() - start < seconds:
            traced = trace and len(runs) % 2 == 0
            t0 = time.perf_counter()
            with (tracer.installed() if traced else nullcontext()), \
                    (tracer.span("bench.run") if traced else nullcontext()):
                result = wl.run(sp, st)
            result["wall_s"] = time.perf_counter() - t0
            result["traced"] = traced
            runs.append(result)
            digests.append(run_digest(result))
            failed = run_checks(result)
            if digests[-1] != digests[0]:
                failed.append("digest-repeat")
            if len(setup_digests) != 1 and len(runs) == 1:
                failed.append("setup-repeat")
            failures.append(failed)
        verify_failed, outputs_digest = verify_outputs(sp, runs[-1])
        failures[-1].extend(verify_failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in runs if not r["traced"]] or runs
    last = runs[-1]
    epochs = [e for r in untraced for e in r["epoch_s"]]
    tail_s, tail_pct = tail(epochs)
    failed_runs = sum(1 for f in failures if f)
    e2e = {
        "setup_s": median(setup_s),
        "run_s": median([r["wall_s"] for r in untraced]),
        "epoch_s.p50": median(epochs),
        "epoch_s.tail": tail_s,
        "eval_steps_per_s": median([r["eval_steps"] / r["eval_s"] for r in untraced]),
        "timesteps_per_s": median([r["steps"] / r["wall_s"] for r in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": failed_runs / len(runs),
        "dense_val_r2": last.get("dense_val_r2"),
        "test_r2": last["report"].r2,
        "r2_drop": last.get("r2_drop"),
        "pruned_fraction": last["pruned_fraction"],
        "fine_tune_epochs": last.get("fine_tune_epochs"),
        "acs_per_step": last["report"].effective_ops,
        "activation_sparsity": last["report"].activation_sparsity,
        "energy_pj_per_step": last["energy"]["paper-consistent"].energy_pj_per_timestep,
    }
    record = {
        "workload": name, "seconds": seconds, "trace": trace,
        "smoke": sizes == SMOKE, "environment": environment(seed),
        "load": "closed loop, one process, one run after another, no added threads",
        "inputs_sha256": inputs_digest, "outputs_sha256": outputs_digest,
        "run_sha256": digests[0],
        "attempted": len(runs), "failed": failed_runs,
        "failed_checks": sorted({c for f in failures for c in f}),
        "setups": wl.setups, "setup_s_untraced": setup_s,
        "run_s_all": [r["wall_s"] for r in runs],
        "epoch_samples": len(epochs), "epoch_s.tail_percentile": tail_pct,
        "energy": {m: e.as_dict() for m, e in last["energy"].items()},
        "end_to_end": e2e,
    }
    if trace:
        record["per_layer"] = layer_metrics(tracer, traced_setups, runs, st, last)
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        tracer.dump(spans_path, origin)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


def layer_metrics(tracer, n_setups, runs, st, last):
    """PER_LAYER values for one set-up plus one run, from the traced ones."""
    traced = [r["wall_s"] for r in runs if r["traced"]]
    untraced = [r["wall_s"] for r in runs if not r["traced"]]
    n_root = {"bench.setup": n_setups, "bench.run": len(traced)}
    out = dict.fromkeys(PER_LAYER, 0)
    for root, names in tracer.layer_totals().items():
        for name, agg in names.items():
            steps = agg.pop("steps")
            if name in STEP_COUNTERS:
                out[STEP_COUNTERS[name][0]] += steps / n_root[root]
            for key, v in agg.items():
                if f"{name}.{key}" in out:
                    out[f"{name}.{key}"] += v / n_root[root]
    synapses = last["net"].config.synapse_count()
    # forward currents, backward input gradients, weight gradients: 2 flop/MAC each
    out["training.dense_flops"] = 6 * synapses * out["training.steps_trained"]
    out["network.dense_macs_per_step"] = synapses
    out["data.session_bytes"] = st["session_bytes"]
    out["checkpoint.bytes"] = st.get("checkpoint_bytes", 0)
    out.update(last.get("prune") or {})
    out["tracing.overhead_share"] = median(traced) / median(untraced) - 1.0
    return out


def print_record(rec):
    name = rec["workload"]
    e2e = rec["end_to_end"]
    print(f"{name} seed={rec['environment']['seed']} runs={rec['attempted']} "
          f"failed={rec['failed']} {rec['failed_checks'] or ''}")
    for key, (unit, better) in END_TO_END.items():
        v = e2e[key]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {key:<20} {shown:>14} {unit:<12} ({better} is better)")
    print(f"  epoch_s.tail is p{rec['epoch_s.tail_percentile']} of "
          f"{rec['epoch_samples']} epochs")
    for key, v in rec.get("per_layer", {}).items():
        print(f"  {key:<36} {v:>14.6g} {PER_LAYER[key]}")


def run_all(args):
    """Every workload in its own process, then one metric-by-workload table."""
    records = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        records[name] = json.loads(results_path(name, args.seed, args.trace).read_text())
    print(f"{'metric':<22}{'unit':<14}{'better':<8}" + "".join(f"{n:>16}" for n in records))
    for key, (unit, better) in END_TO_END.items():
        cells = [records[n]["end_to_end"][key] for n in records]
        print(f"{key:<22}{unit:<14}{better:<8}"
              + "".join(f"{'n/a' if v is None else format(v, '.6g'):>16}" for v in cells))
    print(f"{'runs':<44}" + "".join(f"{records[n]['attempted']:>16}" for n in records))


def results_path(name, seed, trace):
    return OUT / f"BENCH_{name}-seed{seed}-trace{trace}.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    sp = load_package()
    if args.workload == "all":
        run_all(args)
        return
    sizes = SMOKE if args.smoke else DESK
    rec = run_one(sp, args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    OUT.mkdir(parents=True, exist_ok=True)
    results_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    print_record(rec)
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        metrics = {m["name"]: {"value": rec["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in bench_spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": rec["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in bench_spec["end_to_end"]}
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
