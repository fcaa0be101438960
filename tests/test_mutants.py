"""The mutant catalogue of ``tools/mutants.py``: every entry's old text occurs exactly once in its file.

Running the mutants takes minutes and stays outside Tier-1; this check
keeps the catalogue in step with the code it mutates.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: f"{mutant.path}:{mutant.old.strip()}")
def test_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
