"""The comparison set of ``tools/compare_reports.py`` against its checked-in output.

``tests/golden/compare_reports.jsonl`` holds one line per case: the case
name, the ``verify`` exit code and the reports without ``runtime_ms``.  The
tool runs in a subprocess with two BLAS threads, the setting the file was
written at.  Exit codes, verdicts and every non-float field must match
exactly; floats may move by at most FLOAT_TOLERANCE.  A change that moves a
report shows as a diff of the golden file.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "compare_reports.jsonl"
FLOAT_TOLERANCE = 1e-13


def mismatches(got, expected, path="") -> list[str]:
    """Where ``got`` differs from ``expected``: floats beyond FLOAT_TOLERANCE, anything else at all."""
    if isinstance(expected, float) and isinstance(got, float):
        if math.isnan(expected) and math.isnan(got):
            return []
        return [] if abs(got - expected) <= FLOAT_TOLERANCE else [f"{path}: {got!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(got, dict):
        if list(got) != list(expected):
            return [f"{path}: keys {list(got)} != {list(expected)}"]
        return [line for key in expected for line in mismatches(got[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(got, list):
        if len(got) != len(expected):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        return [line for index, pair in enumerate(zip(got, expected)) for line in mismatches(*pair, f"{path}[{index}]")]
    return [] if type(got) is type(expected) and got == expected else [f"{path}: {got!r} != {expected!r}"]


def test_comparison_set_matches_golden_file():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_reports.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    got = [json.loads(line) for line in run.stdout.splitlines()]
    expected = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert [case["case"] for case in got] == [case["case"] for case in expected]
    problems = [line for case, golden in zip(got, expected) for line in mismatches(case, golden, case["case"])]
    assert problems == []
