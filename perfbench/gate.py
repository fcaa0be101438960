"""Per-op correctness gate on `verify`'s exit code and reports.

The report contract (README, "Report schema"): exactly the keys below, in
this order, and `pass` true iff every reported deviation is at or below
`tolerance`.  Exit code 0 means every experiment passed, 1 that one failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REPORT_KEYS = (
    "experiment",
    "parameters",
    "max_abs_deviation",
    "frobenius_deviation",
    "scalar_measured",
    "scalar_predicted",
    "trusted_block",
    "pass",
    "tolerance",
    "runtime_ms",
    "tool_version",
)

PASS, FAIL, ERROR = "PASS", "FAIL", "ERROR"


def report_paths(out: Path, experiments: tuple[str, ...]) -> list[Path]:
    """Where `verify --out <out>` writes the reports of these experiments."""
    if len(experiments) == 1:
        return [out]
    return [out.with_name(f"{out.stem}_{name}{out.suffix}") for name in experiments]


def deviations(report: dict) -> list[float]:
    """Every deviation a report states; the anticlique scalar error is derived
    from the measured and predicted scalars it carries."""
    found = [report["max_abs_deviation"], report["frobenius_deviation"]]
    measured, predicted = report["scalar_measured"], report["scalar_predicted"]
    if predicted is not None:
        found.append(abs(measured - predicted) / abs(predicted) if predicted != 0 else abs(measured))
    return found


def check_op(code, out: Path, experiments: tuple[str, ...]) -> tuple[str, str, float | None]:
    """(verdict, reason, headroom) of one op.

    The verdict is PASS, FAIL (a well-formed report said FAIL) or ERROR (an
    exception, exit 2 or 3, or a broken contract).  The headroom is the
    least log10(tolerance / deviation) over the nonzero deviations reported.
    """
    if code not in (0, 1):
        return ERROR, f"exit code {code!r}", None
    verdicts = []
    headroom = math.inf
    for path, experiment in zip(report_paths(out, experiments), experiments):
        try:
            pairs = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=lambda items: items)
        except (OSError, ValueError) as exc:
            return ERROR, f"{experiment}: unreadable report: {exc}", None
        if tuple(key for key, _ in pairs) != REPORT_KEYS:
            return ERROR, f"{experiment}: report keys out of contract", None
        report = dict(pairs)
        if report["experiment"] != experiment:
            return ERROR, f"report names {report['experiment']!r}, expected {experiment!r}", None
        tolerance = report["tolerance"]
        try:
            found = deviations(report)
        except TypeError:
            return ERROR, f"{experiment}: non-numeric deviation", None
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in [tolerance, *found]) or tolerance <= 0:
            return ERROR, f"{experiment}: non-finite deviation or tolerance", None
        if report["pass"] is not all(x <= tolerance for x in found):
            return ERROR, f"{experiment}: pass={report['pass']} disagrees with its deviations", None
        verdicts.append(report["pass"])
        headroom = min([headroom] + [math.log10(tolerance / x) for x in found if x > 0])
    if code != (0 if all(verdicts) else 1):
        return ERROR, f"exit code {code} disagrees with the verdicts", None
    if not all(verdicts):
        failed = [name for name, ok in zip(experiments, verdicts) if not ok]
        return FAIL, "FAIL: " + ",".join(failed), headroom if math.isfinite(headroom) else None
    return PASS, "", headroom if math.isfinite(headroom) else None
