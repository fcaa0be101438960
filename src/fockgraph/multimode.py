"""Truncated n-mode tensor Fock space.

The mode register, a graph instance on it (:class:`GraphSpec`), Kronecker
products, the unitarity check of phi and the sector plan the integrators and
graph checks share.  Occupation tuples index row-major with mode 1 slowest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import _read_only, _RebuildOnCopy

__all__ = [
    "GraphSpec",
    "ModeSpace",
    "kron_all",
    "validate_unitary",
]


@dataclass(frozen=True, eq=False)
class ModeSpace:
    """A register of ``modes`` bosonic modes, each truncated at ``cutoff``."""

    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes


def kron_all(factors) -> np.ndarray:
    """Kronecker product of the factors, first factor slowest."""
    return functools.reduce(np.kron, factors)


# The largest entry of |phi^dag phi - I| that validate_unitary admits.
UNITARY_TOLERANCE = 1e-12


def validate_unitary(phi) -> np.ndarray:
    """Return ``phi`` as a complex array after checking unitarity within UNITARY_TOLERANCE."""
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError(f"phi must be square, got shape {phi.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation fails the test below
        deviation = np.max(np.abs(phi.conj().T @ phi - np.eye(phi.shape[0])))
    if not deviation <= UNITARY_TOLERANCE:
        raise ValueError(f"phi not unitary (max deviation {deviation:.3e} > {UNITARY_TOLERANCE:.0e})")
    return phi


@dataclass(frozen=True, eq=False)
class GraphSpec(_RebuildOnCopy):
    """A truncated graph instance: mode-mixing unitary, mode count, cutoff."""

    phi: np.ndarray
    modes: int
    cutoff: int

    def __post_init__(self):
        phi = validate_unitary(np.array(self.phi, dtype=complex))
        if phi.shape != (self.modes, self.modes):
            raise ValueError(f"phi must be {self.modes}x{self.modes}, got {phi.shape}")
        ModeSpace(self.modes, self.cutoff)  # raises on a cutoff below 1
        object.__setattr__(self, "phi", _read_only(phi))

    @property
    def space(self) -> ModeSpace:
        return ModeSpace(self.modes, self.cutoff)


class _SectorPlan(NamedTuple):
    """Occupation tuples in sector-major order: each total occupation N one slice, row-major within."""

    order: np.ndarray  # at each position, the tuple's index in row-major order (its box row, for a box)
    occupations: np.ndarray  # (positions, modes) tuple at each position
    sectors: tuple  # per sector N >= 1: the slice of its positions


@functools.lru_cache(maxsize=None)
def _sector_plan(modes: int, rows: int, top: int | None = None) -> _SectorPlan:
    """The ``rows``^``modes`` box's tuples of total at most ``top`` (default: all), sector by sector, row-major within.

    Enumerated mode by mode, so a capped plan never builds the box.
    Cached per shape argument; the arrays are read-only.
    """
    top = modes * (rows - 1) if top is None else top
    occupations = np.zeros((1, 0), dtype=int)
    for _ in range(modes):
        counts = np.minimum(rows - 1, top - occupations.sum(axis=1)) + 1
        values = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        occupations = np.column_stack([np.repeat(occupations, counts, axis=0), values])
    total = occupations.sum(axis=1)
    order = np.argsort(total, kind="stable")
    occupations, total = occupations[order], total[order]
    starts = np.searchsorted(total, np.arange(total[-1] + 2))  # sector N is positions starts[N] to starts[N+1]
    sectors = tuple(slice(*starts[n : n + 2].tolist()) for n in range(1, total[-1] + 1))
    return _read_only(_SectorPlan(order, occupations, sectors))
