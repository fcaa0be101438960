"""Phase-space quadrature and resolution-of-identity integrators.

The substitution s = r^2 turns (1/pi) Int F(r, theta) r dr dtheta into

    (1/pi) * sum_m (2*pi/M) * sum_i (w_i/2) * G(s_i, theta_m),

with Gauss-Laguerre nodes s_i and weights w_i for the weight exp(-s) and an
equispaced angular grid, where the integrand is supplied tail-factored:
G(s, theta) = exp(s) * F(sqrt(s), theta).  Coherent and displacement matrix
elements carry exp(-s) analytically, so dividing it out leaves integrands
polynomial in sqrt(s)*exp(+-i*theta) and the composite rule becomes exact
once the orders clear the polynomial degree.

Every integrator sums weighted dyads w_k U_k U_k^dag over the product-rule
nodes through :func:`integrate_dyads`.  The node order is fixed
(angular-major, then radial; across parameter pairs the first is slowest)
and nodes are stacked into chunks of at most CHUNK_COLUMNS columns, each
added to the accumulator as one GEMM, so identical inputs give identical
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .fock import coherent_state, displacement_matrix, laguerre_sequence
from .multimode import kron_all

__all__ = [
    "AngularScheme",
    "PolarScheme",
    "RadialScheme",
    "coherent_identity",
    "displaced_projector_identity",
    "gauss_laguerre",
    "graph_resolution",
    "polar_scheme",
    "unnormalized_coherent",
]

MAX_RADIAL_ORDER = 64

# Columns stacked per accumulation GEMM.  Chunks hold whole nodes, so the
# cap bounds the stacked block's memory (dim x CHUNK_COLUMNS) independently
# of the node count.
CHUNK_COLUMNS = 128


@dataclass(frozen=True, eq=False)
class RadialScheme:
    """Gauss-Laguerre nodes/weights in s = r^2 for the weight exp(-s)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching nonempty vectors")
        if not (np.all(nodes > 0) and np.all(np.diff(nodes) > 0)):
            raise ValueError("nodes must be strictly increasing and positive")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (zeroth moment of exp(-s))")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class AngularScheme:
    """Equispaced angles 2*pi*m/M with uniform weight 2*pi/M."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"angular count must be >= 1, got {self.count}")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.count) / self.count


@dataclass(frozen=True, eq=False)
class PolarScheme:
    """Composite radial x angular rule; radial_cap enables diagnostic mode.

    With radial_cap set, nodes with s > radial_cap^2 are dropped, emulating
    integration over |alpha| <= radial_cap.  That mode is approximate (the
    rule was built for the full half-line) and is used only for diagnostics.
    """

    radial: RadialScheme
    angular: AngularScheme
    radial_cap: float | None = None

    def active_radial(self) -> tuple[np.ndarray, np.ndarray]:
        if self.radial_cap is None:
            return self.radial.nodes, self.radial.weights
        keep = self.radial.nodes <= self.radial_cap**2
        return self.radial.nodes[keep], self.radial.weights[keep]


def gauss_laguerre(order: int) -> RadialScheme:
    """Gauss-Laguerre rule of the given order via the Jacobi matrix.

    The symmetric tridiagonal matrix with diagonal 2i+1 and off-diagonal
    i+1 (i from 0) has the Laguerre roots as eigenvalues.  Weights are the
    squared first components of the normalized eigenvectors, evaluated
    through the equivalent closed form s_i / ((order+1)^2 * L_{order+1}(s_i)^2):
    the eigensolver underflows the extreme components to zero beyond order
    ~30, while the closed form keeps every weight positive and the rule
    exact (relative 1e-13) for polynomial degree <= 2*order - 1.
    """
    if not 1 <= order <= MAX_RADIAL_ORDER:
        raise ValueError(f"order must be in [1, {MAX_RADIAL_ORDER}], got {order}")
    if order == 1:
        return RadialScheme(nodes=np.array([1.0]), weights=np.array([1.0]))
    diagonal = 2.0 * np.arange(order) + 1.0
    off_diagonal = np.arange(1.0, order)
    nodes = eigh_tridiagonal(diagonal, off_diagonal, eigvals_only=True)
    scale = float((order + 1) ** 2)
    weights = np.array([s / (scale * laguerre_sequence(order + 1, 0, s)[-1] ** 2) for s in nodes])
    return RadialScheme(nodes=nodes, weights=weights)


def polar_scheme(radial_order: int, angular_count: int, radial_cap: float | None = None) -> PolarScheme:
    return PolarScheme(
        radial=gauss_laguerre(radial_order),
        angular=AngularScheme(angular_count),
        radial_cap=radial_cap,
    )


def unnormalized_coherent(alpha: complex, cutoff: int) -> np.ndarray:
    """Tail-factored coherent column alpha^m / sqrt(m!), m = 0..cutoff."""
    out = np.empty(cutoff + 1, dtype=complex)
    out[0] = 1.0
    for m in range(1, cutoff + 1):
        out[m] = out[m - 1] * alpha / math.sqrt(m)
    return out


def _node_table(schemes) -> tuple[np.ndarray, np.ndarray]:
    """Product-rule nodes as (alphas (K, pairs), weights (K,)).

    Within a scheme the order is angular-major, then radial; across schemes
    the first is slowest.
    """
    alphas = np.ones((1, 0), dtype=complex)
    weights = np.ones(1)
    for scheme in schemes:
        radial, radial_weights = scheme.active_radial()
        count = scheme.angular.count
        pair = (np.exp(1j * scheme.angular.angles)[:, None] * np.sqrt(radial)).ravel()
        # (1/pi) * (2*pi/M) * (w/2) = w/M
        pair_weights = np.tile(radial_weights / count, count)
        alphas = np.hstack([np.repeat(alphas, pair.size, axis=0), np.tile(pair, len(alphas))[:, None]])
        weights = (weights[:, None] * pair_weights).ravel()
    return alphas, weights


def _stacked_columns(columns, alphas, weights, dim: int):
    """Yield sqrt(w_k) * columns(alpha_k) side by side, whole nodes per chunk.

    A chunk holds at most CHUNK_COLUMNS columns unless one node alone is
    wider.
    """
    pending, width = [], 0
    for alpha, weight in zip(alphas, weights):
        block = math.sqrt(weight) * np.reshape(columns(alpha), (dim, -1))
        if pending and width + block.shape[1] > CHUNK_COLUMNS:
            yield np.hstack(pending)
            pending, width = [], 0
        pending.append(block)
        width += block.shape[1]
    if pending:
        yield np.hstack(pending)


def integrate_dyads(columns, schemes, dim: int) -> np.ndarray:
    """sum_k w_k U_k U_k^dag over the product of the polar schemes.

    ``columns(alphas)`` maps one node's parameter-pair amplitudes (a vector
    with one entry per scheme) to U_k, a dim-vector or a (dim, rank) block.
    """
    alphas, weights = _node_table(schemes)
    acc = np.zeros((dim, dim), dtype=complex)
    for stacked in _stacked_columns(columns, alphas, weights, dim):
        acc += stacked @ stacked.conj().T
    return acc


def coherent_identity(cutoff: int, scheme: PolarScheme) -> np.ndarray:
    """(1/pi) Int |alpha><alpha| d^2 alpha over the scheme.

    Exact to floating-point precision (equal to the identity) once the
    angular count exceeds cutoff and the radial order reaches
    ceil((cutoff+1)/2).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return integrate_dyads(lambda alphas: unnormalized_coherent(alphas[0], cutoff), (scheme,), cutoff + 1)


def displaced_projector_identity(beta: complex, cutoff: int, scheme: PolarScheme) -> np.ndarray:
    """(1/pi) Int D(a) |beta><beta| D(a)^dag d^2 a with truncated D matrices.

    Approximates the identity on the trusted block; unlike
    :func:`coherent_identity` the integrand itself carries truncation error,
    so the deviation decays with the cutoff rather than vanishing outright.
    """
    seed = coherent_state(beta, cutoff)
    return integrate_dyads(
        lambda alphas: displacement_matrix(alphas[0], cutoff, include_gaussian=False) @ seed, (scheme,), cutoff + 1
    )


def graph_resolution(spec, schemes, backend: str = "rank") -> np.ndarray:
    """Integral of the displaced graph generators against the polar measure.

    Computes (1/pi^(n-1)) Int D Q D^dag prod_k r_k dr_k dtheta_k over the
    product of one polar scheme per displacement parameter pair.  Backend
    "rank" integrates the displaced rank-(cutoff+1) seed basis as dyads;
    "direct" conjugates the seed projector as a full matrix node by node
    and is kept as the oracle.  Both produce the same operator.
    """
    from .graphs import GraphSpec, seed_basis, seed_projector

    if not isinstance(spec, GraphSpec):
        raise TypeError("spec must be a GraphSpec")
    if spec.modes < 2:
        raise ValueError("graph resolution needs at least two modes")
    if backend not in ("rank", "direct"):
        raise ValueError(f"backend must be 'rank' or 'direct', got {backend!r}")
    pairs = spec.modes - 1
    if isinstance(schemes, PolarScheme):
        schemes = (schemes,) * pairs
    schemes = tuple(schemes)
    if len(schemes) != pairs:
        raise ValueError(f"expected {pairs} polar schemes, got {len(schemes)}")

    def tail(alphas):
        shifts = spec.phi[:, 1:] @ alphas
        return kron_all([displacement_matrix(h, spec.cutoff, include_gaussian=False) for h in shifts])

    dim = spec.space.dim
    if backend == "rank":
        basis = seed_basis(spec)
        return integrate_dyads(lambda alphas: tail(alphas) @ basis, schemes, dim)
    projector = seed_projector(spec)
    alphas, weights = _node_table(schemes)
    acc = np.zeros((dim, dim), dtype=complex)
    for alpha, weight in zip(alphas, weights):
        displacement = tail(alpha)
        acc += weight * (displacement @ projector @ displacement.conj().T)
    return acc
