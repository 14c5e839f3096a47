"""One wall-time reading of the repository's tier-1 test suite.

    python3 bench/tier1.py

Runs `python -m pytest -q --continue-on-collection-errors` from the
repository root with src/ on the path and BLAS pinned to one thread, as in
the benchmark, and writes the wall time and the suite's summary line to
bench/out/tier1.json. Informational: nothing gates on it. Bytecode and the
pytest cache are not written, so the run leaves files only in bench/out/.
"""

import json
import os
import subprocess
import sys
import time

from run import OUT, ROOT, environment


def main():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    record = {"command": " ".join(["python", *cmd[1:]]), "wall_s": wall,
              "exit_code": proc.returncode, "summary": lines[-1] if lines else "",
              "environment": environment(None)}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "tier1.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"tier-1: {record['summary']} in {wall:.1f} s (exit {proc.returncode})")


if __name__ == "__main__":
    main()
