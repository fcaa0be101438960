"""Truncated n-mode tensor Fock space.

The mode register, Kronecker products and the unitarity check of a
mode-mixing matrix.  Occupation tuples map to flat indices row-major with
mode 1 slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
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
    return reduce(np.kron, factors)


def validate_unitary(phi, tolerance: float = 1e-12) -> np.ndarray:
    """Return ``phi`` as a complex array after checking unitarity."""
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError(f"phi must be square, got shape {phi.shape}")
    deviation = np.max(np.abs(phi.conj().T @ phi - np.eye(phi.shape[0])))
    if not deviation <= tolerance:
        raise ValueError(f"phi not unitary (max deviation {deviation:.3e} > {tolerance:.0e})")
    return phi
