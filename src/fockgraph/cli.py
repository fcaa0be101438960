"""Command-line entry point.

``verify`` runs one configured experiment, or the default five-experiment
suite when no config is given.  Exit codes: 0 all pass, 1 verification
failure, 2 config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import ConfigError, EXPERIMENTS, default_config, default_suite, parse_config
from .report import emit_report, render_csv, render_json
from .runner import run_experiment

__all__ = ["main"]


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The ``verify`` argument parser, built by the first :func:`main` call and reused by every later one.

    Keyed on nothing: one parser per process.  ``parse_args`` reads it and
    never changes it; no caller may add to it.
    """
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Verify resolutions of identity, projections and anticliques "
        "of displaced-projector operator graphs on truncated Fock spaces.",
    )
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--experiment", choices=EXPERIMENTS, help="experiment to run (overrides the config)")
    parser.add_argument("--out", help="write the report(s) to this path")
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    parser.add_argument("--cutoff", type=int, help="override the per-mode cutoff")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--quiet", action="store_true", help="suppress per-experiment summary lines")
    return parser


def _load_configs(args) -> list:
    overrides = {}
    if args.cutoff is not None:
        overrides["cutoff"] = args.cutoff
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.experiment is not None:
        overrides["experiment"] = args.experiment

    if args.config is not None:
        return [parse_config(args.config, overrides)]
    if args.experiment is not None:
        return [default_config(args.experiment, overrides)]
    overrides.pop("experiment", None)
    return default_suite(overrides)


def _out_path(base: str, experiment: str, multiple: bool, fmt: str) -> str:
    if not multiple:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}_{experiment}{ext or '.' + fmt}"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        configs = _load_configs(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    reports = []
    try:
        for cfg in configs:
            reports.append(run_experiment(cfg))
    except ConfigError as exc:  # a valid config whose check cannot be computed
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # no result may masquerade as a pass
        print(f"internal error: {exc}", file=sys.stderr)
        return 3

    try:
        multiple = len(reports) > 1
        for report in reports:
            if args.out:
                emit_report(report, _out_path(args.out, report.experiment, multiple, args.format), args.format)
            if not args.quiet:
                verdict = "PASS" if report.passed else "FAIL"
                line = (
                    f"{report.experiment}: {verdict} "
                    f"max_abs={report.max_abs_deviation:.3e} "
                    f"frobenius={report.frobenius_deviation:.3e} "
                    f"tolerance={report.tolerance:.1e}"
                )
                print(line)
            if not args.quiet and not args.out:
                render = render_csv if args.format == "csv" else render_json
                print(render(report), end="")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``verify | head -1``); that is no
        # numerical error, so the verdict's exit code stands.  Pointing
        # stdout at devnull keeps the flush at exit from raising again, as
        # the Python signal module's notes on SIGPIPE describe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3

    return 0 if all(report.passed for report in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
