"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/spread.py --seeds 1-10 [--workload prune-desk] [--out bench/out/spread.json]

Runs `bench/run.py --trace 0` once per seed and workload, one after another,
and reports for each metric of BENCHMARK.json the median and the distance
between the first and third quartile as a share of the median, next to the
metric's bound. A spread above a third of the bound is flagged. With --out,
the summary, the environment record and the tier-1 reading of
bench/tier1.py (when bench/out/tier1.json exists) go to one JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in workloads:
        values, walls = {}, []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} failed runs")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary[name] = {"wall_s": walls, "metrics": {m: summarize(v) for m, v in values.items()}}
        print(f"{name}: {len(args.seeds)} seeds, wall per run {statistics.median(walls):.1f} s "
              f"(max {max(walls):.1f} s)")
        for metric, s in summary[name]["metrics"].items():
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {metric:<22} median {s['median']:<14.6g} spread {s['spread']:.4f}"
                  f"  bound {bounds[metric]}{flag}")
    if args.out:
        out = ROOT / "bench" / "out"
        first = out / f"BENCH_{workloads[0]}-seed{args.seeds[0]}-trace0.json"
        record = {"environment": json.loads(first.read_text())["environment"],
                  "run_seconds": spec["run_seconds"], "seeds": args.seeds,
                  "workloads": summary}
        if (out / "tier1.json").exists():
            record["tier1"] = json.loads((out / "tier1.json").read_text())
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
