"""Operator-graph constructions on the truncated multimode space.

The seed projector spans the ladder of states generated by the creation
operator along the first column of a unitary mode-mixing matrix.  Displacing
it along the remaining columns produces the graph generators; the same
construction evaluated at anticlique parameters yields the projections whose
compression of the graph is a scalar multiple of themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import displacement_matrix
from .multimode import (
    ModeSpace,
    creation_poly_state,
    kron_all,
    validate_unitary,
)
from .quadrature import PolarScheme, integrate_dyads, unnormalized_coherent

__all__ = [
    "CompressionResult",
    "GeneratorParams",
    "GraphElement",
    "GraphSpec",
    "anticlique_projection",
    "compression_check",
    "compression_constant",
    "displaced_mode_amplitudes",
    "draw_generator_params",
    "graph_displacement",
    "graph_generator",
    "haar_unitary",
    "seed_basis",
    "seed_projector",
    "seed_projector_quadrature",
]


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """A truncated graph instance: mode-mixing unitary, mode count, cutoff."""

    phi: np.ndarray
    modes: int
    cutoff: int

    def __post_init__(self):
        phi = validate_unitary(self.phi)
        if phi.shape != (self.modes, self.modes):
            raise ValueError(f"phi must be {self.modes}x{self.modes}, got {phi.shape}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def space(self) -> ModeSpace:
        return ModeSpace(self.modes, self.cutoff)


def _normalize_params(params, spec: "GraphSpec"):
    if params.radii.shape != (spec.modes - 1,):
        raise ValueError(f"expected {spec.modes - 1} parameter pairs, got {params.radii.shape[0]}")
    return params


@dataclass(frozen=True, eq=False)
class GeneratorParams:
    """Radial amplitudes and phases of one displacement point.

    Indexes a graph generator, or the anticlique projection at that point.
    """

    radii: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        if radii.shape != phases.shape:
            raise ValueError("radii and phases must have equal length")
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(phases))):
            raise ValueError("radii and phases must be finite")
        if np.any(radii < 0):
            raise ValueError("radii must be nonnegative")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "phases", phases)

    def displacements(self) -> np.ndarray:
        return self.radii * np.exp(1j * self.phases)


# GraphElement's acceptance bounds: largest entrywise |op - op^dag| and
# smallest allowed eigenvalue.
HERMITICITY_TOLERANCE = 1e-10
PSD_TOLERANCE = -1e-8


@dataclass(eq=False)
class GraphElement:
    """A realized graph generator with its parameters and build backend."""

    op: np.ndarray
    params: GeneratorParams
    backend: str

    def __post_init__(self):
        herm = float(np.max(np.abs(self.op - self.op.conj().T)))
        if herm > HERMITICITY_TOLERANCE:
            raise ValueError(f"generator not Hermitian (deviation {herm:.3e})")
        min_eig = float(np.linalg.eigvalsh(self.op)[0])
        if min_eig < PSD_TOLERANCE:
            raise ValueError(f"generator not positive semidefinite (min eigenvalue {min_eig:.3e})")


def seed_basis(spec: GraphSpec) -> np.ndarray:
    """Columns k = 0..cutoff: (a^dag along phi's first column)^k / sqrt(k!) |vac>.

    Exact in the truncated space because every contributing occupation stays
    at or below the per-mode cutoff; the columns are orthonormal.
    """
    space = spec.space
    column = spec.phi[:, 0]
    basis = np.empty((space.dim, spec.cutoff + 1), dtype=complex)
    for k in range(spec.cutoff + 1):
        basis[:, k] = creation_poly_state(column, k, space).amplitudes
    return basis


def seed_projector(spec: GraphSpec) -> np.ndarray:
    """Rank-structured seed projector: sum of its orthonormal ladder dyads."""
    basis = seed_basis(spec)
    return basis @ basis.conj().T


def seed_projector_quadrature(spec: GraphSpec, scheme: PolarScheme) -> np.ndarray:
    """Seed projector by phase-space integration of coherent product dyads.

    (1/pi) Int dtheta Int r dr of the tensor product over modes j of
    |alpha*phi_j1><alpha*phi_j1|, tail-factored.  Cross-checks the rank sum.
    """
    column = spec.phi[:, 0]
    return integrate_dyads(
        lambda alphas: kron_all([unnormalized_coherent(alphas[0] * c, spec.cutoff) for c in column]),
        (scheme,),
        spec.space.dim,
    )


def displaced_mode_amplitudes(spec: GraphSpec, params) -> np.ndarray:
    """Per-mode displacement h_j = sum_k e^{i theta_k} r_k phi_{j,k+1}."""
    params = _normalize_params(params, spec)
    return spec.phi[:, 1:] @ params.displacements()


def graph_displacement(spec: GraphSpec, params) -> np.ndarray:
    """Tensor displacement moving the seed projector to the parameter point."""
    shifts = displaced_mode_amplitudes(spec, params)
    return kron_all([displacement_matrix(h, spec.cutoff) for h in shifts])


def graph_generator(spec: GraphSpec, params: GeneratorParams, backend: str = "rank") -> GraphElement:
    """Displaced seed projector D Q D^dag at the given parameters.

    Backend "rank" sums the cutoff+1 displaced ladder dyads (cheaper, less
    truncation mixing); "direct" conjugates the full projector matrix and is
    kept as an oracle.  Both express the same operator.
    """
    params = _normalize_params(params, spec)
    if backend not in ("rank", "direct"):
        raise ValueError(f"backend must be 'rank' or 'direct', got {backend!r}")
    displacement = graph_displacement(spec, params)
    if backend == "rank":
        displaced = displacement @ seed_basis(spec)
        op = displaced @ displaced.conj().T
    else:
        op = displacement @ seed_projector(spec) @ displacement.conj().T
    return GraphElement(op=op, params=params, backend=backend)


def anticlique_projection(spec: GraphSpec, params: GeneratorParams) -> np.ndarray:
    """Anticlique projection for the graph at the given parameters.

    Structurally identical to the graph generator evaluated at the anticlique
    parameters (both are the displaced seed projector), so the same code path
    builds it; the identity is asserted in the test suite.
    """
    return graph_generator(spec, params, backend="rank").op


def compression_constant(anticlique: GeneratorParams, generator: GeneratorParams) -> float:
    """Predicted compression scalar: the product over parameter pairs of the
    squared coherent overlap exp(-|r e^{i theta} - x e^{i gamma}|^2)."""
    a = anticlique.displacements()
    g = generator.displacements()
    if a.shape != g.shape:
        raise ValueError("parameter tuples must have equal length")
    return float(np.exp(-np.sum(np.abs(g - a) ** 2)))


class CompressionResult(NamedTuple):
    """Deviations of P A P from c P, and the measured and predicted c."""

    max_abs_deviation: float
    frobenius_deviation: float
    scalar_relative_error: float
    scalar_measured: float
    scalar_predicted: float


def compression_check(
    spec: GraphSpec,
    anticlique: GeneratorParams,
    generators,
    weights=None,
    trusted_block: int | None = None,
) -> CompressionResult:
    """Measure how far the projection compresses a graph combination to a scalar.

    Forms A = sum_i w_i G_i from rank-backend generators, computes P A P,
    extracts the least-squares scalar c = tr(P A P)/tr(P), and returns the
    max-abs and relative Frobenius deviations of P A P - c P (the latter
    against ||P||_F) together with the relative error of c against the
    predicted weighted constant sum.  Real parts of c are returned.

    With ``trusted_block`` set, the traces and residual are taken over the
    sub-block of occupations at or below it.  The full-matrix comparison is
    limited by the mass the top ladder states lose to truncation (first
    order in that loss); the identity is exact in infinite dimension, so on
    a block whose occupations stay clear of the displacement reach the
    truncated operators reproduce it to near machine precision.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator parameter set is required")
    if weights is None:
        weights = [1.0] * len(generators)
    weights = [complex(w) for w in weights]
    if len(weights) != len(generators):
        raise ValueError("weights must match the number of generators")

    anticlique = _normalize_params(anticlique, spec)
    projection = anticlique_projection(spec, anticlique)
    combined = np.zeros_like(projection)
    predicted = 0.0 + 0.0j
    for weight, params in zip(weights, generators):
        params = _normalize_params(params, spec)
        combined += weight * graph_generator(spec, params, backend="rank").op
        predicted += weight * compression_constant(anticlique, params)

    compressed = projection @ combined @ projection
    if trusted_block is not None:
        from .multimode import trusted_mask

        idx = np.flatnonzero(trusted_mask(spec.space, trusted_block))
        projection = projection[np.ix_(idx, idx)]
        compressed = compressed[np.ix_(idx, idx)]
    trace_p = complex(np.trace(projection))
    measured = complex(np.trace(compressed)) / trace_p
    residual = compressed - measured * projection
    frobenius = float(np.linalg.norm(residual) / np.linalg.norm(projection))
    max_abs = float(np.max(np.abs(residual)))
    scalar_error = abs(measured - predicted) / abs(predicted) if predicted != 0 else abs(measured)
    return CompressionResult(
        max_abs_deviation=max_abs,
        frobenius_deviation=frobenius,
        scalar_relative_error=float(scalar_error),
        scalar_measured=float(measured.real),
        scalar_predicted=float(predicted.real),
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def draw_generator_params(modes: int, rng: np.random.Generator, max_radius: float = 1.5) -> GeneratorParams:
    """Seeded generator or anticlique parameters: phases uniform on [0, 2*pi), radii on [0, max_radius]."""
    radii = rng.uniform(0.0, max_radius, size=modes - 1)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=modes - 1)
    return GeneratorParams(radii=radii, phases=phases)
