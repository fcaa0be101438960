"""Truncated n-mode tensor Fock space.

Occupation indexing, tensor assembly of Weyl (multimode displacement)
operators, exponential vectors and ladder operators.

Occupation tuples map to flat indices row-major with mode 1 slowest.  States
carry an optional real ``log_scale`` so unnormalized exponential vectors with
norms past the float range stay representable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fock import coherent_state, displacement_matrix, trusted_cutoff

__all__ = [
    "ModeSpace",
    "MultimodeState",
    "apply_weyl_to_exponential_check",
    "exponential_vector_embed",
    "index_of",
    "kron_all",
    "mode_ladder",
    "state_inner",
    "trusted_mask",
    "tuple_of",
    "validate_unitary",
    "weyl_operator",
    "weyl_phase",
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

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cutoff + 1,) * self.modes

    def occupations(self) -> np.ndarray:
        """All occupation tuples as a (dim, modes) array, in index order."""
        return np.stack(np.unravel_index(np.arange(self.dim), self.shape), axis=1)


def index_of(occupation, space: ModeSpace) -> int:
    """Flat index of an occupation tuple (row-major, mode 1 slowest)."""
    occupation = tuple(int(v) for v in occupation)
    if len(occupation) != space.modes:
        raise ValueError(f"expected {space.modes} occupation numbers, got {len(occupation)}")
    for v in occupation:
        if not 0 <= v <= space.cutoff:
            raise ValueError(f"occupation {v} outside [0, {space.cutoff}]")
    return int(np.ravel_multi_index(occupation, space.shape))


def tuple_of(index: int, space: ModeSpace) -> tuple[int, ...]:
    """Occupation tuple of a flat index; inverse of :func:`index_of`."""
    if not 0 <= index < space.dim:
        raise ValueError(f"index {index} outside [0, {space.dim})")
    return tuple(int(v) for v in np.unravel_index(index, space.shape))


def kron_all(factors) -> np.ndarray:
    """Kronecker product of the factors, first factor slowest."""
    return reduce(np.kron, factors)


def trusted_mask(space: ModeSpace, max_occupation: int) -> np.ndarray:
    """Boolean mask of basis states with every mode occupation <= bound."""
    return space.occupations().max(axis=1) <= max_occupation


def validate_unitary(phi, tolerance: float = 1e-12) -> np.ndarray:
    """Return ``phi`` as a complex array after checking unitarity."""
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError(f"phi must be square, got shape {phi.shape}")
    deviation = np.max(np.abs(phi.conj().T @ phi - np.eye(phi.shape[0])))
    if not deviation <= tolerance:
        raise ValueError(f"phi not unitary (max deviation {deviation:.3e} > {tolerance:.0e})")
    return phi


@dataclass(frozen=True, eq=False)
class MultimodeState:
    """Vector on the truncated register, physically exp(log_scale)*amplitudes."""

    amplitudes: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("state amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    def physical(self) -> np.ndarray:
        return math.exp(self.log_scale) * self.amplitudes


def state_inner(left: MultimodeState, right: MultimodeState) -> complex:
    """Inner product <left, right>, antilinear in the left argument."""
    return complex(np.vdot(left.amplitudes, right.amplitudes) * math.exp(left.log_scale + right.log_scale))


def weyl_operator(coords, space: ModeSpace) -> np.ndarray:
    """Multimode displacement: the tensor product of D(coords_j) over modes.

    Valid because the coordinates refer to an orthonormal mode basis, so the
    Weyl operator acts mode-locally.
    """
    coords = _as_coords(coords, space.modes)
    return kron_all([displacement_matrix(c, space.cutoff) for c in coords])


def weyl_phase(f, g) -> complex:
    """Unit phase in W(f)W(g) = phase * W(f+g).

    Equals the product of the per-mode displacement composition phases,
    exp(i*Im (g,f)) with (g,f) antilinear in the first argument.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape:
        raise ValueError("coordinate vectors must have equal length")
    return cmath.exp(1j * float(np.imag(np.vdot(g, f))))


def exponential_vector_embed(coords, space: ModeSpace) -> MultimodeState:
    """Exponential vector e(f) as a tensor product of coherent states.

    The normalized coherent amplitudes are stored; the unnormalized
    exponential-vector scale exp(sum |f_j|^2 / 2) goes into log_scale.
    """
    coords = _as_coords(coords, space.modes)
    amplitudes = kron_all([coherent_state(c, space.cutoff) for c in coords])
    return MultimodeState(amplitudes, log_scale=0.5 * float(np.sum(np.abs(coords) ** 2)))


def apply_weyl_to_exponential_check(f, g, space: ModeSpace, trusted: int | None = None) -> float:
    """Deviation of W(f) e(g) from its predicted closed form.

    The prediction is exp(-||f||^2/2 - (f,g)) * e(f+g) with (f,g) antilinear
    in the first argument; the deviation is the max entrywise difference of
    the physical vectors on the trusted block.
    """
    f = _as_coords(f, space.modes)
    g = _as_coords(g, space.modes)
    lhs_state = exponential_vector_embed(g, space)
    lhs = math.exp(lhs_state.log_scale) * (weyl_operator(f, space) @ lhs_state.amplitudes)
    target = exponential_vector_embed(f + g, space)
    prefactor = cmath.exp(-0.5 * float(np.sum(np.abs(f) ** 2)) - complex(np.vdot(f, g)))
    rhs = prefactor * target.physical()
    if trusted is None:
        total = float(np.linalg.norm(f) + np.linalg.norm(g))
        trusted = trusted_cutoff(space.cutoff, total)
    mask = trusted_mask(space, trusted)
    return float(np.max(np.abs((lhs - rhs)[mask])))


def mode_ladder(space: ModeSpace, mode: int, kind: str) -> np.ndarray:
    """Truncated a_j ("annihilate") or a_j^dag ("create"), modes 1-based."""
    if not 1 <= mode <= space.modes:
        raise ValueError(f"mode {mode} outside [1, {space.modes}]")
    if kind not in ("annihilate", "create"):
        raise ValueError(f"kind must be 'annihilate' or 'create', got {kind!r}")
    single = np.diag(np.sqrt(np.arange(1.0, space.cutoff + 1)), 1).astype(complex)
    if kind == "create":
        single = single.T.copy()
    eye = np.eye(space.cutoff + 1, dtype=complex)
    factors = [eye] * space.modes
    factors[mode - 1] = single
    return kron_all(factors)


def _as_coords(coords, modes: int) -> np.ndarray:
    coords = np.atleast_1d(np.asarray(coords, dtype=complex))
    if coords.shape != (modes,):
        raise ValueError(f"expected {modes} mode coordinates, got shape {coords.shape}")
    return coords

