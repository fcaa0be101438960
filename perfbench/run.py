"""fockgraph benchmark: time-to-verdict of `verify` on two seeded workloads.

    python3 perfbench/run.py --workload suite_n2 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  With `--trace 0` the result carries the end-to-end
metrics of BENCHMARK.json, with `--trace 1` the per-layer ones.  A summary of
every metric, the failed ops and the environment goes to standard error; the
last line of standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run is a fixed number of fresh processes, started one after another,
# each making the same fixed number of ops; the first op of each is a cold
# op.  So the cold ops, and the set-ups, are spread over the whole run, and
# one seed and --seconds give the same ops, and the same verdicts, on any
# machine.  The op count per process is sized from --seconds with the
# nominal set-up and op times below (2-vCPU reference machine, README), so a
# run of the current code measures for about --seconds.
PROCESSES = {"suite_n2": 7, "anticlique_n3": 10}
NOMINAL_SETUP_S = 0.55
NOMINAL_OP_S = {"suite_n2": 3.3, "anticlique_n3": 0.7}
MIN_OPS_PER_PROCESS = 2

# Every process this run starts is finished within this many seconds.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    # Pinned before numpy is imported; nproc matches the unpinned default.
    env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
    return env


def plan(workload: str, seconds: float) -> tuple[int, int]:
    """(processes, ops per process) of a run."""
    processes = PROCESSES[workload]
    per_process = round((seconds / processes - NOMINAL_SETUP_S) / NOMINAL_OP_S[workload])
    return processes, max(MIN_OPS_PER_PROCESS, per_process)


def _spawn(args, workdir: Path, process: int, per_process: int, deadline: float) -> dict:
    name = f"process {process}"
    result = workdir / f"process{process}.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--process", str(process), "--per-process", str(per_process),
        "--src", str(ROOT / "src"), "--workdir", str(workdir), "--result", str(result),
        "--t0", repr(time.monotonic()),  # last, so set-up time starts just before the process
    ]
    try:
        proc = subprocess.run(command, env=_child_env(), stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} did not finish within the run's deadline") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{name} exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(args, declared: dict) -> dict:
    """Run one workload; return the result object for standard output."""
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    out = ROOT / ".perfbench_out"
    workdir = out / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    processes, per_process = plan(args.workload, args.seconds)
    try:
        runs = [_spawn(args, workdir, p, per_process, deadline) for p in range(processes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for run in runs for op in run["ops"]]
    cold = [run["ops"][0] for run in runs]
    warm = [op for run in runs for op in run["ops"][1:]]
    untraced = [op["seconds"] for op in warm if not op["traced"]]
    errors = [op for op in ops if op["verdict"] == "ERROR"]
    failed = [op for op in ops if op["verdict"] != "PASS"]
    headrooms = [op["headroom"] for op in ops if op["headroom"] is not None]
    digests = {run["digest"] for run in runs}
    measured = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "first_op_s": statistics.median(op["seconds"] for op in cold),
        "op_s.p50": statistics.median(untraced),
        "ops_per_s": len(warm) / sum(run["warm_wall_s"] for run in runs),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "failed_ratio": len(failed) / len(ops),
    }
    if headrooms:
        measured["accuracy_headroom_decades"] = min(headrooms)
    if args.trace:
        from tracer import median_metrics

        measured.update(median_metrics({op: m for run in runs for op, m in run["layer_metrics"].items()}))
        traced = [op["seconds"] for op in warm if op["traced"]]
        measured["trace.overhead_ratio"] = statistics.median(traced) / measured["op_s.p50"] - 1.0
        _write_spans(out / f"spans_{args.workload}_seed{args.seed}.jsonl", runs)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    _summary(args, runs, measured, declared, ops, failed, len(untraced), len(digests))
    return {
        # Every output met the report contract and one seed gave the same
        # inputs in every process.  A well-formed FAIL verdict counts in
        # `failed` but not against `correct`.
        "correct": not errors and len(digests) == 1,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _write_spans(path: Path, runs) -> None:
    """Every span of the run, once; ``id`` and ``parent`` index the spans of
    their ``process``."""
    with open(path, "w", encoding="utf-8") as handle:
        for process, run in enumerate(runs):
            for span in run["spans"]:
                handle.write(json.dumps({"process": process, **span}) + "\n")


def _summary(args, runs, measured, declared, ops, failed, untraced, digests) -> None:
    say = functools.partial(print, file=sys.stderr)
    say(f"== {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say("   " + ", ".join(f"{k}={v}" for k, v in runs[0]["environment"].items()))
    say(f"   ops attempted={len(ops)} failed={len(failed)} processes={len(runs)}"
        f" ops_per_process={len(runs[0]['ops'])} untraced_warm_ops={untraced} distinct_input_digests={digests}")
    for process, run in enumerate(runs):
        say(f"   process {process} op seconds (c: cold, t: traced): " + " ".join(
            f"{op['seconds']:.3f}{'c' if i == 0 else 't' if op['traced'] else ''}" for i, op in enumerate(run["ops"])))
    if runs[0].get("missing_targets"):
        say(f"   not traced (absent): {runs[0]['missing_targets']}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in measured.items():
        say(f"   {name:42s} {value:14.6g} {units.get(name, '')}")
    for op in failed[:5]:
        say(f"   op {op['op']}: {op['verdict']} {op['reason']}")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = tuple(w["name"] for w in declared["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fockgraph" / "cli.py").is_file():
        print(f"no fockgraph source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args, declared)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        for name, result in results.items():
            for metric, entry in result["metrics"].items():
                print(f"{name:14s} {metric:28s} {entry['value']:14.6g} {entry['unit']}")
            print(f"{name:14s} {'failed/attempted':28s} {result['failed']:>7d}/{result['attempted']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
