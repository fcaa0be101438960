"""One process of a workload run, started by run.py.

Imports fockgraph, makes the workload's inputs from the seed, then runs its
share of the run's ops (a fixed slice of the input list) in a closed loop:
one client, the next op starts when the previous one returns.  Each op is a
`verify` call through `fockgraph.cli.main` in-process, with its own config
file.  The first op of the process is its cold op.  Writes one JSON result
to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import gate
import inputs

def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True, help="index of this process in the run")
    parser.add_argument("--per-process", type=int, required=True, help="ops each process of the run makes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() before this process started")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _run_op(cli, index, op, workdir: Path, tracer):
    opdir = workdir / f"op{index}-{os.getpid()}"
    opdir.mkdir()
    argv = ["--quiet", *op.argv, "--out", str(opdir / "report.json")]
    if op.config is not None:
        config = opdir / "config.json"
        config.write_bytes(op.config)
        argv = ["--config", str(config), *argv]
    start = time.perf_counter()
    try:
        code = tracer.call(index, cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any escape from main is a failed op, not a crash of the run
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    verdict, reason, headroom = gate.check_op(code, opdir / "report.json", op.experiments)
    shutil.rmtree(opdir)
    return {"op": index, "seconds": seconds, "traced": tracer is not None, "verdict": verdict,
            "reason": reason, "headroom": headroom}


def main(argv=None) -> int:
    args = _parse(argv)
    import fockgraph.cli as cli

    ops = inputs.make_inputs(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"fockgraph was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    first = args.process * args.per_process
    mine = ops[first:first + args.per_process]
    if len(mine) != args.per_process:
        print(f"the input pool holds {len(ops)} ops, fewer than the run needs", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    workdir = Path(args.workdir)
    records = []
    first_end = None
    for offset, op in enumerate(mine):
        # Warm ops (all but each process's first) are numbered across the
        # run; in a traced run the odd-numbered ones are traced.
        warm = args.process * (args.per_process - 1) + offset - 1
        traced = tracer is not None and offset > 0 and warm % 2 == 1
        if traced:
            tracer.install()
        try:
            records.append(_run_op(cli, first + offset, op, workdir, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        if offset == 0:
            first_end = time.perf_counter()
    result = {
        "setup_s": setup_s,
        "digest": inputs.digest(ops),
        "ops": records,
        "warm_wall_s": time.perf_counter() - first_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    }
    if tracer is not None:
        result.update(
            missing_targets=tracer.missing,
            layer_metrics=tracer.layer_metrics(),
            spans=tracer.span_records(),
        )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
