"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The end-to-end metrics every result file carries, with their units.
END_TO_END = {
    "setup_s": "s", "run_s": "s", "epoch_s.p50": "s", "epoch_s.tail": "s",
    "eval_steps_per_s": "timesteps/s", "timesteps_per_s": "timesteps/s", "peak_rss_mb": "MB",
    "failed_fraction": "share",
    "dense_val_r2": "R2", "test_r2": "R2", "r2_drop": "R2", "pruned_fraction": "share",
    "fine_tune_epochs": "epochs", "acs_per_step": "ACs/timestep",
    "activation_sparsity": "share", "energy_pj_per_step": "pJ/timestep",
}


def test_gated_units_match_the_table():
    for m in SPEC["end_to_end"]:
        assert END_TO_END[m["name"]] == m["unit"]


def bench(cwd, workload, seed=1, trace=0):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def results(workload, seed, trace):
    path = BENCH / "out" / f"BENCH_{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_unit(workload, trace):
    proc = bench(ROOT, workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(last["metrics"][m["name"]]["value"], (int, float))
    table = "\n".join(lines[:-1])
    for name, unit in END_TO_END.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line
                   for line in table.splitlines()), name
    rec = results(workload, 1, trace)
    assert set(rec["end_to_end"]) == set(END_TO_END)
    assert {"commit", "python", "numpy", "blas", "nproc", "process_env",
            "seed"} <= set(rec["environment"])
    if trace:
        spans = json.loads((ROOT / rec["spans_file"]).read_text(encoding="utf-8"))
        assert spans and {"name", "start", "end", "parent"} == set(spans[0])


def test_seed_changes_inputs():
    for seed in (1, 2):
        assert bench(ROOT, "eval-wide", seed=seed).returncode == 0
    assert results("eval-wide", 1, 0)["inputs_sha256"] != results("eval-wide", 2, 0)["inputs_sha256"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = bench(tmp_path, WORKLOADS[0])
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
