"""``tools/golden_moves.py`` on two small hand-written comparison files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BEFORE = [
    {"case": "gs", "exit": 0, "stderr": "", "reports": [{"max_abs_deviation": 1.5e-15, "pass": True, "n": 2}]},
    {"case": "bad", "exit": 2, "stderr": "config error: cutoff\n", "reports": []},
    {"case": "nan", "exit": 1, "stderr": "", "reports": [{"max_abs_deviation": float("nan"), "phi": [[0.5, 0.0]]}]},
]


def run(tmp_path, after):
    paths = []
    for name, cases in (("before.jsonl", BEFORE), ("after.jsonl", after)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(case) + "\n" for case in cases), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden_moves.py"), *paths], capture_output=True, text=True
    )


def changed(index, key, value):
    after = json.loads(json.dumps(BEFORE))
    after[index]["reports"][0][key] = value
    return after


def test_lists_one_row_per_moved_float(tmp_path):
    after = changed(2, "phi", [[0.5, 1e-17]])
    after[0]["reports"][0]["max_abs_deviation"] = 2.0e-15
    got = run(tmp_path, after)
    assert got.returncode == 0 and got.stderr == ""
    assert got.stdout.splitlines() == [
        "| case | key | before | after | \\|move\\| |",
        "|---|---|---|---|---|",
        "| gs | `reports[0].max_abs_deviation` | 1.5e-15 | 2e-15 | 5e-16 |",
        "| nan | `reports[0].phi[0][1]` | 0.0 | 1e-17 | 1e-17 |",
    ]


def test_equal_files_list_no_move(tmp_path):
    got = run(tmp_path, BEFORE)
    assert got.returncode == 0 and len(got.stdout.splitlines()) == 2


@pytest.mark.parametrize(
    "after, message",
    [
        (changed(0, "pass", False), "gs: reports[0].pass: True -> False"),
        (changed(0, "n", 2.0), "gs: reports[0].n: 2 -> 2.0"),
        (changed(2, "max_abs_deviation", None), "nan: reports[0].max_abs_deviation: nan -> None"),
        ([BEFORE[0], {**BEFORE[1], "exit": 3}, BEFORE[2]], "bad: exit: 2 -> 3"),
        ([BEFORE[0], {**BEFORE[1], "stderr": ""}, BEFORE[2]], "bad: stderr: 'config error: cutoff\\n' -> ''"),
        ([BEFORE[0], {**BEFORE[1], "reports": [{}]}, BEFORE[2]], "bad: reports: length 0 -> 1"),
        (
            [{**BEFORE[0], "reports": [{"pass": True, "max_abs_deviation": 1.5e-15, "n": 2}]}, *BEFORE[1:]],
            "gs: reports[0]: keys ['max_abs_deviation', 'pass', 'n'] -> ['pass', 'max_abs_deviation', 'n']",
        ),
        (BEFORE[::-1], "cases ['gs', 'bad', 'nan'] -> ['nan', 'bad', 'gs']"),
    ],
)
def test_any_other_change_exits_one(tmp_path, after, message):
    got = run(tmp_path, after)
    assert got.returncode == 1
    assert got.stderr.splitlines() == [message]
