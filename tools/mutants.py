"""Mutation check: which one-line faults in the package does tier-1 catch?

    python3 tools/mutants.py                       # every mutant
    python3 tools/mutants.py gate-ties-fail ...    # the named ones

Each mutant is one edit of a package file, given as (file, old text, new
text). For each, the script copies src/, tests/ and pyproject.toml into a
temporary directory, applies the edit there, and runs the tier-1 suite
without tests/test_demos.py and tests/test_mutants.py (which would fail on
any edit), stopping at the first failure. It prints KILLED with the first
failing test, or SURVIVED. The unmutated copy runs first and must pass; an
edit whose old text does not occur exactly once is reported STALE, so the
list has to follow the code (tests/test_mutants.py checks that in tier-1). A
mutant that survives needs a test that kills it, or a note below saying why
it is equivalent.

Standard library only and not part of tier-1. CI runs a subset of them
after tier-1 (the mutant step of .github/workflows/tier1.yml, which names
them), so CI fails if tier-1 stops killing a mutant of the training
kernel's operands and carry factors, of the windows' input rows, of the
zeroing of masked weights, of the controller's rollback, of the eval
wavefront, or of the checkpoint round trip. A mutant takes about as long
as tier-1 up to its first failure (tier-1 is about 30 s on 2 cores).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/spikeprune/"

# (name, file, old text, new text)
MUTANTS = [
    # the prune controller and its helpers
    ("patience-off-by-one", PKG + "pruning.py",
     "range(hp.patience if fixed else hp.patience + 1)",
     "range(hp.patience if fixed else hp.patience)"),
    ("halving-becomes-thirds", PKG + "pruning.py",
     "rate = rate / 2.0", "rate = rate / 3.0"),
    ("adam-not-reset-on-rollback", PKG + "pruning.py",
     "rate = rate / 2.0\n                trainer.reset_optimizer()\n",
     "rate = rate / 2.0\n"),
    ("readout-counted-as-prunable", PKG + "pruning.py",
     "layers = net.prunable_layers()\n    total", "layers = net.layers\n    total"),
    ("cap-split-tie-order", PKG + "pruning.py",
     "key=lambda i: (-remainders[i], i)", "key=lambda i: (-remainders[i], -i)"),
    ("prune-selection-tie-order", PKG + "pruning.py",
     "np.lexsort((cols, rows, layer_idx, mags))", "np.lexsort((rows, cols, layer_idx, mags))"),
    ("zero-budget-without-epsilon", PKG + "pruning.py",
     "pruned_max * total + 1e-6", "pruned_max * total"),
    ("gate-ties-fail", PKG + "pruning.py",
     "if not fixed and current <= gate:", "if not fixed and current < gate:"),
    ("diverged-step-accepted", PKG + "pruning.py",
     "epoch {epoch_count}\")\n                break\n",
     "epoch {epoch_count}\")\n                accepted = True\n                break\n"),
    ("prune-leaves-weight", PKG + "pruning.py",
     "            layer.weights[rows[sel], cols[sel]] = 0.0\n", ""),
    ("tolerance-nan-accepted", PKG + "pruning.py",
     "if not self.tolerance >= 0:", "if self.tolerance < 0:"),
    ("rollback-event-rate-and-pruned-swapped", PKG + "pruning.py",
     'trace.emit("rollback", epoch_count, rate=rate, pruned=pruned)',
     'trace.emit("rollback", epoch_count, rate=pruned, pruned=rate)'),
    # eval, data and the CLI
    ("eval-neurons-without-readout", PKG + "cli.py",
     "n_neurons = sum(net.config.layer_dims[1:])", "n_neurons = sum(net.config.layer_dims[1:-1])"),
    ("report-allows-nan", PKG + "cli.py",
     "check_schema(metrics, dict.fromkeys(metrics, 0.0)", "(metrics, dict.fromkeys(metrics, 0.0)"),
    ("split-val-length-rounded", PKG + "data.py",
     "n_val = int(SPLIT_FRACTIONS[1] * length)", "n_val = round(SPLIT_FRACTIONS[1] * length)"),
    ("layer-keeps-masked-weights", PKG + "network.py",
     "self.weights = np.where(stray, 0.0, self.weights)", "pass"),
    ("count-every-row", PKG + "network.py",
     "counts[l] += ones[:n] @ x[b, :n]", "counts[l] += ones @ rows[l]"),
    ("full-window-count-dropped", PKG + "network.py",
     "                counts[l] += ones @ rows[l]\n", ""),
    ("eval-stale-tail-rows", PKG + "network.py",
     "            u[:, :, cols] = 0.0\n", ""),
    ("scan-operands-float32", PKG + "network.py",
     "tuple(np.asarray(v, dtype=np.float64)", "tuple(np.asarray(v, dtype=np.float32)"),
    ("eval-membranes-kept-across-segments", PKG + "network.py",
     "if not lo:\n                    d[b, cols] = 0.0", "if lo < 0:\n                    d[b, cols] = 0.0"),
    ("eval-short-window-stacked", PKG + "network.py",
     "len(run) == B and all(n == Tw for _, (_, _, n) in run)", "len(run) == B"),
    ("differentiable-forward-reset-dropped", PKG + "network.py",
     "ut * (1.0 - s) + p.reset_value * s, ws.decay", "ut * (1.0 - s), ws.decay"),
    ("differentiable-final-state-pre-reset", PKG + "network.py",
     "else u[-1] * (1.0 - s[-1]) + p.reset_value * s[-1]", "else u[-1]"),
    ("r2-mean-over-the-wrong-axis", PKG + "metrics.py",
     "truth.mean(axis=1, keepdims=True)", "truth.mean(axis=0, keepdims=True)"),
    # the JSON rules
    ("config-duplicate-keys-accepted", PKG + "_files.py",
     "json.loads(text, object_pairs_hook=unique_keys)", "json.loads(text)"),
    ("header-roundtrip-skipped", PKG + "checkpoint.py", "    _parse_header(blob, path)\n", ""),
    ("checkpoint-writes-non-finite-floats", PKG + "_files.py",
     "allow_nan=False", "allow_nan=True"),
    # training and synthesis
    ("adam-without-second-moment-correction", PKG + "training.py",
     "np.sqrt(v[live] / b2t)", "np.sqrt(v[live])"),
    ("adam-updates-masked-weights", PKG + "training.py",
     "w[live] -= self.lr * (m[live] / b1t) / (np.sqrt(v[live] / b2t) + _EPS)",
     "w -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + _EPS)"),
    ("backward-decay-one", PKG + "training.py",
     "decay = ws.decay", "decay = np.asarray(1.0, dtype=np.float64)"),
    ("readout-gradient-undecayed", PKG + "training.py",
     "self.dk[-1][...] = self.decay", "self.dk[-1][...] = 1.0"),
    ("differentiable-backward-reset-dropped", PKG + "training.py",
     "np.multiply(p.reset_value - u, g, out=dk)", "np.multiply(-u, g, out=dk)"),
    ("window-input-first-segment", PKG + "training.py",
     "x[:, b] = seg.spikes[lo:hi]", "x[:, b] = group[0].spikes[lo:hi]"),
    ("window-labels-first-segment", PKG + "training.py",
     "y[:, b] = seg.velocity[lo:hi]", "y[:, b] = group[0].velocity[lo:hi]"),
    ("surrogate-unclipped", PKG + "training.py",
     "    np.maximum(0.0, g, out=g)\n", ""),
    ("synthesis-drive-in-reverse-channel-order", PKG + "data.py",
     "        for k in read:\n", "        for k in read[::-1]:\n"),
]

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def tier1(workdir: Path):
    """Run tier-1 in workdir, stopping at the first failure; returns
    (passed, first failing test or summary line)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(workdir / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_demos.py", "--ignore=tests/test_mutants.py", "tests"],
        cwd=workdir, env=env, capture_output=True, text=True)
    found = FAILED.search(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, found.group(1) if found else (lines[-1] if lines else "")


def copy_tree(dst: Path):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dst / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def main(names):
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        sys.exit(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory(prefix="spikeprune-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        t0 = time.perf_counter()
        ok, detail = tier1(base)
        if not ok:
            sys.exit(f"the unmutated suite fails ({detail}); fix that first")
        print(f"baseline: passed in {time.perf_counter() - t0:.0f} s", flush=True)
        survivors = 0
        for name, path, old, new in chosen:
            work = Path(tmp) / name
            copy_tree(work)
            target = work / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE     {name}: old text occurs {text.count(old)} times in {path}",
                      flush=True)
                continue
            target.write_text(text.replace(old, new), encoding="utf-8")
            t0 = time.perf_counter()
            ok, detail = tier1(work)
            status = "SURVIVED" if ok else "KILLED  "
            survivors += ok
            print(f"{status}  {name} ({time.perf_counter() - t0:.0f} s)"
                  + ("" if ok else f": {detail}"), flush=True)
            shutil.rmtree(work)
        print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
