"""Machine-readable verification reports.

A report is a flat record of one experiment's deviations, tolerances and
pass/fail verdict.  JSON serialization emits exactly the public fields in a
fixed key order; CSV serialization is meant for convergence ladders, one row
per cutoff.  Everything except runtime_ms is deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

TOOL_VERSION = "0.1.0"

_CSV_HEADER = "cutoff,max_abs_deviation,frobenius_deviation,pass"


@dataclass(eq=False)
class VerificationReport:
    """Structured pass/fail record for one verification experiment."""

    experiment: str
    parameters: dict
    max_abs_deviation: float
    frobenius_deviation: float
    scalar_measured: float | None
    scalar_predicted: float | None
    trusted_block: int
    passed: bool
    tolerance: float
    runtime_ms: int
    tool_version: str = TOOL_VERSION
    # Non-serialized detail: per-cutoff rows for convergence ladders.
    ladder: list[dict] | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("max_abs_deviation", "frobenius_deviation", "tolerance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} is not finite: {value!r}")

    def to_json_dict(self) -> dict:
        # The key order is part of the report contract.
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "max_abs_deviation": self.max_abs_deviation,
            "frobenius_deviation": self.frobenius_deviation,
            "scalar_measured": self.scalar_measured,
            "scalar_predicted": self.scalar_predicted,
            "trusted_block": self.trusted_block,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "runtime_ms": self.runtime_ms,
            "tool_version": self.tool_version,
        }


def render_json(report: VerificationReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n"


def render_csv(report: VerificationReport) -> str:
    """CSV rendering: one row per convergence-ladder step.

    Non-convergence reports yield a single row at the configured cutoff.
    Reals use scientific notation with 13 significant digits, plain decimal
    point, no thousands separators.
    """
    rows = report.ladder
    if rows is None:
        rows = [
            {
                "cutoff": report.parameters.get("cutoff"),
                "max_abs_deviation": report.max_abs_deviation,
                "frobenius_deviation": report.frobenius_deviation,
                "pass": report.passed,
            }
        ]
    lines = [_CSV_HEADER]
    for row in rows:
        lines.append(
            "{cutoff},{max_abs:.12e},{frob:.12e},{passed}".format(
                cutoff=row["cutoff"],
                max_abs=row["max_abs_deviation"],
                frob=row["frobenius_deviation"],
                passed="true" if row["pass"] else "false",
            )
        )
    return "\n".join(lines) + "\n"


def emit_report(report: VerificationReport, out_path, fmt: str = "json") -> None:
    """Write a report to ``out_path`` in the requested format."""
    if fmt == "json":
        text = render_json(report)
    elif fmt == "csv":
        text = render_csv(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {out_path}: {exc}") from exc
