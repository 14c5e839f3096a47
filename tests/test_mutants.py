"""The mutation list in tools/mutants.py follows the code: each mutant's old
text occurs exactly once in its file, so no mutant goes STALE unnoticed."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, path, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_old_text_occurs_once(name, path, old, new):
    assert old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
