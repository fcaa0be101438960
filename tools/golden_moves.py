"""List the floats that moved between two outputs of ``tools/compare_reports.py``, as a markdown table.

    python tools/golden_moves.py BEFORE AFTER

BEFORE and AFTER are JSONL files with one case per line, as
``tests/golden/compare_reports.jsonl``.  The table has one row per moved
float: the case, the key path within it, both values and the size of the
move.  Anything else that changed is no move but a different outcome: a
case added, dropped or reordered, an exit code, a stderr line, a key order,
a list length or any value that is not a float on both sides.  Each such
change is printed to stderr, and the tool then exits 1.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def walk(before, after, path, moves: list, changes: list) -> None:
    """Append to ``moves`` each (path, before, after) float that moved, and to ``changes`` every other change."""
    if isinstance(before, float) and isinstance(after, float):
        if before != after and not (math.isnan(before) and math.isnan(after)):
            moves.append((path, before, after))
    elif isinstance(before, dict) and isinstance(after, dict):
        if list(before) != list(after):
            changes.append(f"{path}: keys {list(before)} -> {list(after)}")
        else:
            for key in before:
                walk(before[key], after[key], f"{path}.{key}" if path else key, moves, changes)
    elif isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            changes.append(f"{path}: length {len(before)} -> {len(after)}")
        else:
            for index, pair in enumerate(zip(before, after)):
                walk(*pair, f"{path}[{index}]", moves, changes)
    elif type(before) is not type(after) or before != after:
        changes.append(f"{path}: {before!r} -> {after!r}")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/golden_moves.py BEFORE AFTER", file=sys.stderr)
        return 2
    before, after = (
        [json.loads(line) for line in Path(name).read_text(encoding="utf-8").splitlines()] for name in argv
    )
    names = [case["case"] for case in before], [case["case"] for case in after]
    if names[0] != names[1]:
        print(f"cases {names[0]} -> {names[1]}", file=sys.stderr)
        return 1
    changes = []
    print("| case | key | before | after | \\|move\\| |")
    print("|---|---|---|---|---|")
    for old, new in zip(before, after):
        moves, changed = [], []
        walk(old, new, "", moves, changed)
        changes.extend(f"{old['case']}: {line}" for line in changed)
        for path, was, now in moves:
            print(f"| {old['case']} | `{path}` | {was!r} | {now!r} | {abs(now - was):.2g} |")
    for line in changes:
        print(line, file=sys.stderr)
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
