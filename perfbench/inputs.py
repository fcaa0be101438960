"""Seeded per-op inputs for the benchmark workloads.

Every input derives from the workload seed alone, through a generator that
belongs to the benchmark, so one seed gives byte-identical config files in
any process and no change to fockgraph can change what it is asked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("suite_n2", "anticlique_n3")

# Experiments of the default suite, in the order `verify` runs them.
SUITE = ("gs", "covariant_gs", "projection", "resolution", "anticlique")

# Inputs made per run.  A run uses a few dozen at the measured op times, so
# no input repeats within a run and a cache keyed on it never hits; the pool
# runs out only once an op takes under 40 ms.
POOL_SIZE = 1024


@dataclass(frozen=True)
class OpInput:
    """One `verify` call: extra CLI arguments, and the config file, if any."""

    argv: tuple[str, ...]
    config: bytes | None
    experiments: tuple[str, ...]


def _config(data: dict) -> bytes:
    return (json.dumps(data, indent=1) + "\n").encode("utf-8")


def make_inputs(workload: str, seed: int, count: int = POOL_SIZE) -> list[OpInput]:
    """The first ``count`` op inputs of a workload for a seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ops = []
    for op_seed in rng.integers(0, 2**32, size=count).tolist():
        if workload == "suite_n2":
            ops.append(OpInput(argv=("--seed", str(op_seed)), config=None, experiments=SUITE))
        elif workload == "anticlique_n3":
            data = {"experiment": "anticlique", "n": 3, "cutoff": 8, "seed": op_seed}
            ops.append(OpInput(argv=(), config=_config(data), experiments=("anticlique",)))
        else:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return ops


def digest(ops: list[OpInput]) -> str:
    """SHA-256 over every op's arguments and config bytes, in op order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op.argv).encode("utf-8"))
        h.update(op.config or b"-")
    return h.hexdigest()
