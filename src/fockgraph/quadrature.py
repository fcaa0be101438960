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
and nodes are taken in chunks of whole nodes, as many as keep every array
the chunk builds within CHUNK_ENTRIES entries.  An integrator builds a
chunk's columns in one batched pass (one :func:`~fockgraph.fock.displacement_matrix`
call, or for the graph ``graphs.seed_ladders``), and the chunk is added to
the accumulator as one product over fixed row blocks, so identical inputs
give identical bits.

Products whose output rows are narrow enough are cut into row blocks of at
most SERIAL_GEMM_MACS multiply-adds (:func:`serial_matmul`), which OpenBLAS
runs on the calling thread.  Wider products are left whole for BLAS to
thread.

The measure is rotation invariant and <m|D(e^{i theta} h)|n> =
e^{i (m-n) theta} <m|D(h)|n>, so when every node amplitude turns by theta,
row r of an integrand column turns by exp(i c_r theta), c_r its total
occupation, times a phase common to the column.  Turning every parameter
pair by 2*pi/g, with g the gcd of the angular counts, maps the product grid
onto itself.  Given the row charges, :func:`integrate_dyads` evaluates only
the first 1/g of the node table, one node per orbit, and multiplies the sum
entrywise by the orbit's phase sum, which keeps the rule's aliasing.
:func:`coherent_identity`, the "rank" backend of :func:`graph_resolution`
and ``graphs.seed_projector_quadrature`` pass charges.
:func:`displaced_projector_identity` displaces a coherent seed, which is not
rotation covariant, so it splits each displaced column into residue columns
(entries whose m - n agree mod M), each turning by a common phase, and
passes them as the rank with zero charges: one node per radius.

The verdicts read these operators only on the trusted box, the occupations
at or below ``trusted_block`` in every mode.  Given that bound, the
integrators build only the box rows of each U_k and return the box block:
the kernel builds just the box rows of each displacement matrix and the
ladders read only lower occupations, so the block is exactly the one the
full operator holds, and the accumulator shrinks from dim^2 to
(trusted_block + 1)^(2n) entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import coherent_state, displacement_matrix, laguerre_sequence, unnormalized_coherent
from .multimode import kron_all, trusted_mask

__all__ = [
    "AngularScheme",
    "PolarScheme",
    "RadialScheme",
    "coherent_identity",
    "displaced_projector_identity",
    "gauss_laguerre",
    "graph_resolution",
    "polar_scheme",
]

MAX_RADIAL_ORDER = 64

# Entries of the largest array one node chunk may build: the displacement
# kernel's stack, the displaced ladders or the stacked GEMM block.  Chunks
# hold whole nodes, so this bounds a chunk's memory independently of the
# node count and the cutoff; a node wider than the budget takes a chunk alone.
CHUNK_ENTRIES = 2**16

# OpenBLAS runs a complex GEMM of fewer than 2**16 multiply-adds on the
# calling thread and hands a larger one to its worker threads, which then
# spin on another core for a while after the call returns.  At the sizes of
# the default suite (n=2, cutoff 16) a threaded GEMM is barely faster, the
# woken worker doubles the CPU an op takes, and while another process holds
# the second core a two-thread op slows by 40% or more.  So every product
# whose output rows fit two to this budget is cut into row blocks that stay
# within it.
SERIAL_GEMM_MACS = 2**16 - 1


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
        nodes.flags.writeable = weights.flags.writeable = False
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
    """Composite radial x angular rule."""

    radial: RadialScheme
    angular: AngularScheme

    def active_radial(self) -> tuple[np.ndarray, np.ndarray]:
        return self.radial.nodes, self.radial.weights


@functools.lru_cache(maxsize=None)
def gauss_laguerre(order: int) -> RadialScheme:
    """Gauss-Laguerre rule of the given order via the Jacobi matrix.

    The symmetric tridiagonal matrix with diagonal 2i+1 and off-diagonal
    i+1 (i from 0) has the Laguerre roots as eigenvalues; at order <= 64 a
    dense symmetric eigensolve finds them.  One Newton step on L_order,
    with s L_Q'(s) = Q (L_Q(s) - L_{Q-1}(s)), polishes them: the closed
    form below amplifies node errors, and with the raw eigenvalues the
    order-60 weights sum to 1 - 2.0e-12.  Weights are the
    squared first components of the normalized eigenvectors, evaluated
    through the equivalent closed form s_i / ((order+1)^2 * L_{order+1}(s_i)^2):
    the eigensolver underflows the extreme components to zero beyond order
    ~30, while the closed form keeps every weight positive and the rule
    exact (relative 1e-12) for polynomial degree <= 2*order - 1.  Rules are
    cached per order; their arrays are read-only.
    """
    if not 1 <= order <= MAX_RADIAL_ORDER:
        raise ValueError(f"order must be in [1, {MAX_RADIAL_ORDER}], got {order}")
    if order == 1:
        return RadialScheme(nodes=np.array([1.0]), weights=np.array([1.0]))
    off_diagonal = np.arange(1.0, order)
    jacobi = np.diag(2.0 * np.arange(order) + 1.0) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    nodes = np.linalg.eigvalsh(jacobi)
    values = laguerre_sequence(order, 0, nodes)
    nodes = nodes - nodes * values[-1] / (order * (values[-1] - values[-2]))
    scale = float((order + 1) ** 2)
    weights = nodes / (scale * laguerre_sequence(order + 1, 0, nodes)[-1] ** 2)
    return RadialScheme(nodes=nodes, weights=weights)


def polar_scheme(radial_order: int, angular_count: int) -> PolarScheme:
    return PolarScheme(radial=gauss_laguerre(radial_order), angular=AngularScheme(angular_count))


def _node_table(schemes, orbit: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Product-rule nodes as (alphas (K, pairs), weights (K,)).

    Within a scheme the order is angular-major, then radial; across schemes
    the first is slowest.  With ``orbit`` g, the table stops after its first
    1/g: the first scheme keeps only its first M/g angles.
    """
    alphas = np.ones((1, 0), dtype=complex)
    weights = np.ones(1)
    for index, scheme in enumerate(schemes):
        radial, radial_weights = scheme.active_radial()
        count = scheme.angular.count
        taken = count // orbit if index == 0 else count
        # The first ``taken`` of scheme.angular.angles, without the rest.
        angles = 2.0 * math.pi * np.arange(taken) / count
        pair = (np.exp(1j * angles)[:, None] * np.sqrt(radial)).ravel()
        # (1/pi) * (2*pi/M) * (w/2) = w/M
        pair_weights = np.tile(radial_weights / count, taken)
        alphas = np.hstack([np.repeat(alphas, pair.size, axis=0), np.tile(pair, len(alphas))[:, None]])
        weights = (weights[:, None] * pair_weights).ravel()
    return alphas, weights


def box_side(cutoff: int, trusted_block: int | None) -> int:
    """Rows per mode of the trusted box: all cutoff + 1 when the bound is None."""
    if trusted_block is None:
        return cutoff + 1
    if not 0 <= trusted_block <= cutoff:
        raise ValueError(f"trusted_block must be in [0, {cutoff}], got {trusted_block}")
    return trusted_block + 1


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, in GEMMs that OpenBLAS runs on the calling thread.

    Where two output rows fit in SERIAL_GEMM_MACS multiply-adds, the rows
    are taken in blocks within that budget.  A one-row remainder is taken
    with the row before it: numpy hands a one-row product to GEMV, which
    OpenBLAS threads from 4096 multiply-adds.  A product with wider rows is
    taken whole, for BLAS to thread.
    """
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    count, row = a.shape[0], a.shape[1] * b.shape[1]
    step = SERIAL_GEMM_MACS // row if 0 < 2 * row <= SERIAL_GEMM_MACS else max(count, 1)
    for start in range(0, count, step):
        start = min(start, max(count - 2, 0))
        np.matmul(a[start : start + step], b, out=out[start : start + step])
    return out


def box_charges(modes: int, side: int) -> np.ndarray:
    """Total occupation of each row of a ``side``^``modes`` box, in row-major order."""
    return np.indices((side,) * modes).reshape(modes, -1).sum(axis=0)


def integrate_dyads(
    columns, schemes, dim: int, rank: int = 1, node_entries: int = 0, charges: np.ndarray | None = None
) -> np.ndarray:
    """sum_k w_k U_k U_k^dag over the product of the polar schemes.

    ``columns(alphas)`` maps a chunk of K nodes' parameter-pair amplitudes,
    shape (K, pairs), to their U_k as a (K, dim, rank) stack ((K, dim) for
    rank one).  ``node_entries`` is the per-node size of the largest array
    ``columns`` builds; with the stacked block's dim * rank, it sets the
    chunk to max(1, CHUNK_ENTRIES // widest) whole nodes, and each chunk is
    added to the accumulator as one :func:`serial_matmul` product.

    ``charges`` declares the columns rotation-covariant: rotating every
    amplitude by theta multiplies row r of U_k by exp(i c_r theta) and each
    rank column by a phase common to its rows.  Rotating every pair by
    2*pi*j/g, with g the gcd of the angular counts, then maps the product
    grid onto itself and U_k U_k^dag onto its entrywise product with
    exp(2*pi*i j (c_r - c_r')/g).  So only the first 1/g of the node table
    (the first pair's first M/g angles) is built and evaluated, and the sum is
    multiplied entrywise by T[r, r'] = sum_{j<g} exp(2*pi*i j (c_r - c_r')/g),
    which is g where g divides c_r - c_r' and 0 elsewhere: charges that
    differ by a nonzero multiple of g alias exactly as on the full grid.
    Without charges, g = 1 and every node is evaluated.
    """
    orbit = 1
    if charges is not None:
        charges = np.asarray(charges)
        if charges.shape != (dim,):
            raise ValueError(f"charges must have one entry per row ({dim}), got shape {charges.shape}")
        orbit = math.gcd(*(scheme.angular.count for scheme in schemes))
    alphas, weights = _node_table(schemes, orbit)
    roots = np.sqrt(weights)
    step = max(1, CHUNK_ENTRIES // max(node_entries, dim * rank))
    acc = np.zeros((dim, dim), dtype=complex)
    for start in range(0, len(roots), step):
        chunk = slice(start, start + step)
        block = np.reshape(columns(alphas[chunk]), (-1, dim, rank))
        stacked = (roots[chunk, None, None] * block).transpose(1, 0, 2).reshape(dim, -1)
        acc += serial_matmul(stacked, stacked.conj().T)
    if orbit > 1:
        acc *= np.where(np.subtract.outer(charges, charges) % orbit == 0, orbit, 0)
    return acc


def coherent_identity(cutoff: int, scheme: PolarScheme) -> np.ndarray:
    """(1/pi) Int |alpha><alpha| d^2 alpha over the scheme.

    Exact to floating-point precision (equal to the identity) once the
    angular count exceeds cutoff and the radial order reaches
    ceil((cutoff+1)/2).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return integrate_dyads(
        lambda alphas: unnormalized_coherent(alphas[:, 0], cutoff), (scheme,), cutoff + 1, charges=np.arange(cutoff + 1)
    )


def displaced_projector_identity(
    beta: complex, cutoff: int, scheme: PolarScheme, trusted_block: int | None = None
) -> np.ndarray:
    """(1/pi) Int D(a) |beta><beta| D(a)^dag d^2 a with truncated D matrices.

    Approximates the identity on the trusted block; unlike
    :func:`coherent_identity` the integrand itself carries truncation error,
    so the deviation decays with the cutoff rather than vanishing outright.
    With ``trusted_block`` set, only the block of occupations at or below it
    is built and returned.

    The seed is not rotation covariant, but each term of its displaced
    column is: at theta = 2*pi*j/M, D(e^{i theta} r)_mn = e^{i (m-n) theta}
    D(r)_mn, so the column splits into residue columns
    V_c(r)_m = sum over n with m - n = c (mod M) of D(r)_mn beta_n, each
    turning by e^{i c theta}, and the M angles of a radius sum to
    M sum_c V_c V_c^dag.  The residue columns go to :func:`integrate_dyads`
    as the rank, with zero charges, so it evaluates one node per radius and
    multiplies by M.  Only the residues of the differences
    -cutoff..rows-1 occur: min(M, rows + cutoff) of them.
    """
    seed = coherent_state(beta, cutoff)
    rows = box_side(cutoff, trusted_block)
    span = rows + cutoff
    rank = min(span, scheme.angular.count)
    # Entry (m, n) goes to diagonal column m - n + cutoff; a diagonal d
    # folds onto residue d mod M, so widths beyond M are padded to whole
    # multiples of M and summed.
    width = -(-span // rank) * rank
    m, n = np.indices((rows, cutoff + 1))

    def residue_columns(alphas):
        kernel = displacement_matrix(alphas[:, 0], cutoff, include_gaussian=False, rows=rows)
        diagonals = np.zeros((len(alphas), rows, width), dtype=complex)
        diagonals[:, m, m - n + cutoff] = kernel * seed
        return diagonals.reshape(len(alphas), rows, -1, rank).sum(axis=2)

    return integrate_dyads(
        residue_columns, (scheme,), rows, rank, rows * max(cutoff + 1, width), charges=np.zeros(rows, dtype=int)
    )


def graph_resolution(spec, schemes, backend: str = "rank", trusted_block: int | None = None) -> np.ndarray:
    """Integral of the displaced graph generators against the polar measure.

    Computes (1/pi^(n-1)) Int D Q D^dag prod_k r_k dr_k dtheta_k over the
    product of one polar scheme per displacement parameter pair.  Backend
    "rank" integrates the displaced rank-(cutoff+1) seed ladders as dyads,
    built by Weyl covariance (``graphs.seed_ladders``); "direct" conjugates the
    seed projector by the Kronecker-product matrix node by node and is kept
    as the oracle.  Both produce the same operator.  With ``trusted_block``
    set, the result is its block on the occupations at or below the bound
    in every mode (``trusted_mask`` order): "rank" builds only that block,
    "direct" builds the whole operator and slices it.
    """
    from .graphs import GraphSpec, seed_ladders, seed_projector

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
    rows = box_side(spec.cutoff, trusted_block)

    if backend == "rank":

        def columns(alphas):
            return seed_ladders(spec, alphas @ spec.phi[:, 1:].T, rows)

        charges = box_charges(spec.modes, rows)
        return integrate_dyads(columns, schemes, rows**spec.modes, spec.cutoff + 1, charges=charges)
    dim = spec.space.dim
    projector = seed_projector(spec)
    alphas, weights = _node_table(schemes)
    acc = np.zeros((dim, dim), dtype=complex)
    for alpha, weight in zip(alphas, weights):
        shifts = spec.phi[:, 1:] @ alpha
        displacement = kron_all([displacement_matrix(h, spec.cutoff, include_gaussian=False) for h in shifts])
        acc += weight * (displacement @ projector @ displacement.conj().T)
    if trusted_block is None:
        return acc
    idx = np.flatnonzero(trusted_mask(spec.space, trusted_block))
    return acc[np.ix_(idx, idx)]

