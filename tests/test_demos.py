"""The demos stay runnable against the current package.

Every demo is parsed and each name it imports from spikeprune must exist.
The fast demos (under a second together) also run end to end; the others
train real networks for 10-15 s each, so they get only the name check.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUN = ("01_lif_dynamics.py", "04_metrics_and_energy.py")


def test_demos_found():
    assert {d.name for d in DEMOS} >= set(RUN)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_imported_names_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "spikeprune"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


@pytest.mark.parametrize("name", RUN)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
