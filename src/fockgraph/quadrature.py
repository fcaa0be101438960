"""Phase-space quadrature and resolution-of-identity integrators.

The substitution s = r^2 turns (1/pi) Int F(r, theta) r dr dtheta into

    (1/pi) * sum_m (2*pi/M) * sum_i (w_i/2) * G(s_i, theta_m),

with Gauss-Laguerre nodes s_i and weights w_i for the weight exp(-s) and an
equispaced angular grid, where the integrand is supplied tail-factored:
G(s, theta) = exp(s) * F(sqrt(s), theta).  Coherent and displacement matrix
elements carry exp(-s) analytically, so dividing it out leaves integrands
polynomial in sqrt(s)*exp(+-i*theta) and the composite rule becomes exact
once the orders clear the polynomial degree.

The rule enters every integral of coherent dyads through one single-mode
operator.  The M angles of a radius sum e^{i (m-n) theta} to M where M
divides m - n and to 0 elsewhere, so the rule operator, the sum over nodes
of w u(alpha) u(alpha)^dag with u_m = alpha^m / sqrt(m!), is

    C[m, n] = [M | m - n] sum_i w_i s_i^((m+n)/2) / sqrt(m! n!),

with no angular node evaluated; the mask is the rule's aliasing.
:func:`coherent_identity` is C.  In the rotated mode frame (phi's columns)
the seed ladder is |k> on mode 0 and the graph shift displaces modes
1..n-1 by the parameter pairs, so ``graphs.seed_projector_quadrature`` is
B C B^dag (:func:`_seed_block`, B the graded seed ladder) and
:func:`graph_resolution` is V (P_ladder (x) C (x) ... (x) C) V^dag by residue
class (:func:`_class_plan`), V[a, m] = <a|U(phi)|m> (:func:`_rotation_sectors`).
:func:`displaced_projector_identity`'s displaced coherent seed is not
rotation covariant but its residue columns are: it evaluates one node per
radius, in chunks within CHUNK_ENTRIES entries, each added as one product
over fixed row blocks (bitwise deterministic).

The verdicts read the operators only on the trusted box (occupations <=
``trusted_block`` in every mode), and the integrators build only that
block, exactly as the full operator holds it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import (
    _read_only, _RebuildOnCopy, _root_factorials, coherent_state, displacement_matrix, laguerre_sequence,
    unnormalized_coherent
)
from .multimode import GraphSpec, _sector_plan, kron_all

__all__ = [
    "AngularScheme",
    "PolarScheme",
    "RadialScheme",
    "coherent_identity",
    "displaced_projector_identity",
    "exact_rule",
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
class RadialScheme(_RebuildOnCopy):
    """Gauss-Laguerre nodes/weights in s = r^2 for the weight exp(-s)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching nonempty vectors")
        if not (np.all(nodes > 0) and np.all(np.diff(nodes) > 0)):
            raise ValueError("nodes must be strictly increasing and positive")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (zeroth moment of exp(-s))")
        object.__setattr__(self, "nodes", _read_only(nodes))
        object.__setattr__(self, "weights", _read_only(weights))


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
    with s L_Q'(s) = Q (L_Q(s) - L_{Q-1}(s)), polishes them to within
    5.4e-16 relative of a 50-digit solve.  The weights, the squared first
    components of the normalized eigenvectors, are 1 / (s_i L_Q'(s_i)^2) =
    1 / (s_i L_{Q-1}^(1)(s_i)^2) at the polished nodes: the eigensolver
    underflows the extreme components to zero beyond order ~30, while this
    form keeps every weight positive, within 3.8e-14 relative of a 50-digit
    solve, and sums to 1 within 6.7e-16 at every order.  Both Laguerre
    values come from :func:`laguerre_sequence`.  Rules are cached per
    order; their arrays are read-only.
    """
    if not 1 <= order <= MAX_RADIAL_ORDER:
        raise ValueError(f"order must be in [1, {MAX_RADIAL_ORDER}], got {order}")
    off_diagonal = np.arange(1.0, order)
    jacobi = np.diag(2.0 * np.arange(order) + 1.0) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    nodes = np.linalg.eigvalsh(jacobi)
    values = laguerre_sequence(order, 0, nodes)
    nodes = nodes - nodes * values[-1] / (order * (values[-1] - values[-2]))
    weights = 1.0 / (nodes * laguerre_sequence(order - 1, 1, nodes)[-1] ** 2)
    return RadialScheme(nodes=nodes, weights=weights)


def polar_scheme(radial_order: int, angular_count: int) -> PolarScheme:
    return PolarScheme(radial=gauss_laguerre(radial_order), angular=AngularScheme(angular_count))


def box_side(cutoff: int, trusted_block: int | None) -> int:
    """Rows per mode of the trusted box: all cutoff + 1 when the bound is None."""
    if trusted_block is None:
        return cutoff + 1
    if not 0 <= trusted_block <= cutoff:
        raise ValueError(f"trusted_block must be in [0, {cutoff}], got {trusted_block}")
    return trusted_block + 1


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in GEMMs that OpenBLAS runs on the calling thread.

    The operands are 2-D, or stacks of matrices of one shape, or a stack
    and a matrix.  Where two output rows fit in SERIAL_GEMM_MACS multiply-adds,
    the rows are taken in blocks within that budget, the same blocks in
    every matrix of a stack, so each matrix gets the GEMMs a 2-D product of
    its own would.  A one-row remainder is taken with the row before it:
    numpy hands a one-row product to GEMV, which OpenBLAS threads from 4096
    multiply-adds.  A product with wider rows is taken whole, for BLAS to
    thread.
    """
    out = np.empty((*(a.shape[:-2] or b.shape[:-2]), a.shape[-2], b.shape[-1]), dtype=np.result_type(a, b))
    count, row = a.shape[-2], a.shape[-1] * b.shape[-1]
    step = SERIAL_GEMM_MACS // row if 0 < 2 * row <= SERIAL_GEMM_MACS else max(count, 1)
    for start in range(0, count, step):
        start = min(start, max(count - 2, 0))
        np.matmul(a[..., start : start + step, :], b, out=out[..., start : start + step, :])
    return out


def _rule_operator(size: int, scheme: PolarScheme) -> np.ndarray:
    """The rule operator C[m, n] = [M | m - n] sum_i w_i s_i^((m+n)/2) / sqrt(m! n!), m, n < size.

    Row m of A holds sqrt(w_i) s_i^(m/2) / sqrt(m!), by the ascending
    product A[m] = A[m-1] sqrt(s_i) / sqrt(m), below e^(s_i/2), and C is
    A A^T where m = n mod M.  At size 64 it keeps 2.5e-15 to 4.4e-15 against
    50 digits; in log space the rounding of m log(s_i) cost 4e-14.
    """
    radial, weights = scheme.active_radial()
    powers = np.empty((size, radial.size))
    powers[0] = np.sqrt(weights)
    root = np.sqrt(radial)
    for m in range(1, size):
        powers[m] = powers[m - 1] * root / math.sqrt(m)
    residues = np.arange(size) % scheme.angular.count
    return np.where(np.equal.outer(residues, residues), serial_matmul(powers, powers.T), 0.0)


def exact_rule(span: int) -> tuple[int, int]:
    """The smallest polar rule (radial order Q, angle count M) whose rule operator is exact on grades 0..span.

    Off the diagonal, C[m, n] vanishes unless M divides m - n, which no
    difference within the span does once M > span.  On it, C[m, m] is the
    Gauss-Laguerre sum of s^m / m!, exact for m <= 2Q - 1 (Golub & Welsch,
    Math. Comp. 23, 1969).  So (Q, M) = (ceil((span + 1) / 2), span + 1).
    """
    return (span + 2) // 2, span + 1


def coherent_identity(cutoff: int, scheme: PolarScheme) -> np.ndarray:
    """(1/pi) Int |alpha><alpha| d^2 alpha over the scheme: the rule operator.

    Exact to floating-point precision (equal to the identity) when the
    scheme's orders reach :func:`exact_rule` of ``cutoff`` in both
    entries: ``2Q - 1 >= cutoff`` and ``M > cutoff``.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return _rule_operator(cutoff + 1, scheme)


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
    turning by e^{i c theta}, so the M angles of a radius (weight w_i / M
    each) sum to M sum_c V_c V_c^dag at angle 0.  Radii are built in chunks
    within CHUNK_ENTRIES entries of a node's widest array, each chunk one
    :func:`serial_matmul` product.  Only the residues of the differences
    -cutoff..rows-1 occur: min(M, rows + cutoff) of them.
    """
    seed = coherent_state(beta, cutoff)
    rows = box_side(cutoff, trusted_block)
    span = rows + cutoff
    count = scheme.angular.count
    rank = min(span, count)
    # Entry (m, n) goes to diagonal column m - n + cutoff; diagonal d folds onto residue d mod M,
    # so widths beyond M are padded to whole multiples of M and summed.
    width = -(-span // rank) * rank
    m, n = np.indices((rows, cutoff + 1))
    radial, weights = scheme.active_radial()
    alphas = np.sqrt(radial) + 0j
    roots = np.sqrt(weights / count)
    step = max(1, CHUNK_ENTRIES // (rows * max(cutoff + 1, width)))
    acc = np.zeros((rows, rows), dtype=complex)
    for start in range(0, radial.size, step):
        chunk = slice(start, start + step)
        kernel = displacement_matrix(alphas[chunk], cutoff, include_gaussian=False, rows=rows)
        diagonals = np.zeros((len(kernel), rows, width), dtype=complex)
        diagonals[:, m, m - n + cutoff] = kernel * seed
        residues = diagonals.reshape(len(kernel), rows, -1, rank).sum(axis=2)
        stacked = (roots[chunk, None, None] * residues).transpose(1, 0, 2).reshape(rows, -1)
        acc += serial_matmul(stacked, stacked.conj().T)
    acc *= count
    return acc


def graph_resolution(spec, schemes, backend: str = "rank", trusted_block: int | None = None) -> np.ndarray:
    """Integral of the displaced graph generators against the polar measure.

    Computes (1/pi^(n-1)) Int D Q D^dag prod_k r_k dr_k dtheta_k over the
    polar scheme ``schemes`` taken once per displacement parameter pair.
    Backend "rank" is V (P_ladder (x) C (x) ... (x) C) V^dag, with C the
    rule operator and V from :func:`_rotation_sectors`.  Per sector pair
    N >= N' of :func:`_class_plan` the columns of V_N' matched to each
    tuple of N are weighted by prod_l C[m_l, m'_l] and summed, and one
    product of those columns of V_N with the sums' adjoint is the block
    (N, N'); block (N', N) is written as its adjoint.  The matches are
    formed a window of whole runs at a time, at most CHUNK_ENTRIES //
    (widest box sector + modes) of them (a wider run takes a window alone),
    so a gather stays within CHUNK_ENTRIES entries and no array grows with
    the matched tuple pairs.
    "direct" conjugates the seed projector B B^dag (:func:`_seed_block` of
    diag(N <= cutoff) on the whole box) by the Kronecker-product matrix at
    every node of the product grid and is kept as the oracle.  With
    ``trusted_block`` set, the result is the block on the occupations at or
    below it in every mode, in row-major order: "rank" builds only that
    block, "direct" builds the whole operator and slices it.
    """
    if not isinstance(spec, GraphSpec):
        raise TypeError("spec must be a GraphSpec")
    if not isinstance(schemes, PolarScheme):
        raise TypeError("schemes must be a PolarScheme, shared by every parameter pair")
    if spec.modes < 2:
        raise ValueError("graph resolution needs at least two modes")
    if backend not in ("rank", "direct"):
        raise ValueError(f"backend must be 'rank' or 'direct', got {backend!r}")
    rows = box_side(spec.cutoff, trusted_block)

    if backend == "rank":
        plan = _class_plan(spec.modes, rows, spec.cutoff, schemes.angular.count)
        sectors = _rotation_sectors(spec, rows)
        rule = _rule_operator(len(sectors), schemes)
        out = np.zeros((rows**spec.modes,) * 2, dtype=complex)
        budget = max(1, CHUNK_ENTRIES // (max(len(at) for at, _ in sectors) + spec.modes))
        ends = np.cumsum(plan.count)
        end = 0
        for sector, other, low, high in plan.pairs:
            (at, ladder), (at_other, ladder_other) = sectors[sector], sectors[other]
            summed = np.empty((high - low, len(at_other)), dtype=complex)
            run = low
            while run < high:
                if run == end:
                    # The next window: whole runs within `budget` matches (a wider run alone), formed at once.
                    begin = end
                    before = ends[begin] - plan.count[begin]
                    end = max(begin + 1, np.searchsorted(ends, before + budget, side="right"))
                    counts = plan.count[begin:end]
                    stops = ends[begin:end] - before
                    starts = stops - counts
                    take = np.repeat(plan.first[begin:end] - starts, counts) + np.arange(stops[-1])
                    columns = plan.members[take]
                    left = np.repeat(plan.right[plan.left[begin:end]], counts, axis=0)
                    weight = rule[left, plan.right[take]].prod(axis=1)[:, None]
                stop = min(high, end)
                part = slice(starts[run - begin], stops[stop - 1 - begin])
                gathered = ladder_other.T[columns[part]]
                gathered *= weight[part]
                offsets = starts[run - begin : stop - begin] - part.start
                np.add.reduceat(gathered, offsets, out=summed[run - low : stop - low])
                run = stop
            block = serial_matmul(ladder[:, plan.members[plan.left[low:high]]], summed.conj())
            out[at[:, None], at_other] = block
            if other != sector:
                out[at_other[:, None], at] = block.conj().T
        return out
    ladder_depth = np.diag(np.arange(spec.modes * spec.cutoff + 1) <= spec.cutoff) * 1.0
    projector = _seed_block(spec, spec.cutoff + 1, ladder_depth)
    # The nodes angular-major, then radial, each weighted (1/pi) (2 pi/M) (w/2) = w/M.
    radial, weights = schemes.active_radial()
    amplitudes = np.exp(1j * schemes.angular.angles)[:, None] * np.sqrt(radial)
    table = list(zip(amplitudes.ravel(), np.tile(weights / schemes.angular.count, schemes.angular.count)))
    acc = np.zeros_like(projector)
    for nodes in itertools.product(table, repeat=spec.modes - 1):
        shifts = spec.phi[:, 1:] @ np.array([alpha for alpha, _ in nodes])
        displacement = kron_all([displacement_matrix(h, spec.cutoff, include_gaussian=False) for h in shifts])
        acc += math.prod(weight for _, weight in nodes) * (displacement @ projector @ displacement.conj().T)
    idx = np.flatnonzero(np.indices((spec.cutoff + 1,) * spec.modes).max(axis=0) < rows)
    return acc[np.ix_(idx, idx)]


def _seed_block(spec: GraphSpec, side: int, operator: np.ndarray) -> np.ndarray:
    """B X B^dag on the row-major ``side``^n box, X = ``operator`` indexed by total occupation.

    Entry (m, m') is b_m X[N_m, N_m'] conj(b_m'), with b the graded ladder on the box and N the
    total occupation: the quadrature block and the ``direct`` backend's whole-box projector.
    """
    occupations = np.indices((side,) * spec.modes).reshape(spec.modes, -1).T
    ladder, total = _graded_ladder(spec, occupations), occupations.sum(axis=1)
    return np.multiply.outer(ladder, ladder.conj()) * operator[np.ix_(total, total)]


def _graded_ladder(spec: GraphSpec, occupations: np.ndarray) -> np.ndarray:
    """The seed ladder graded: at each occupation tuple (row of ``occupations``), its entry of column sum(tuple).

    By the multinomial theorem the part of kron_j sum_m c_j^m / sqrt(m!) |m>,
    c = phi[:, 0], at total k is (sum_j c_j a_j^dag)^k / k! |vac>; times sqrt(k!)
    it is ladder column k.  Each entry is the ascending product over the
    modes of c_j^m_j / sqrt(m_j!), times sqrt(k!) (``fock._root_factorials``).
    """
    factors = unnormalized_coherent(spec.phi[:, 0], int(occupations.max()))
    ladder = factors[0, occupations[:, 0]]
    for mode in range(1, spec.modes):
        ladder = ladder * factors[mode, occupations[:, mode]]
    total = occupations.sum(axis=1)
    return ladder * _root_factorials(int(total.max()))[total]


@functools.lru_cache(maxsize=None)
def _predecessors(modes: int, rows: int, top: int | None = None) -> tuple:
    """Per sector N >= 1 of ``_sector_plan(modes, rows, top)``, the predecessors :func:`_rotation_sectors` reads.

    ``lower`` (modes, size) holds the position of m - e_j within sector
    N-1, 0 where m_j = 0, ``weight`` (modes, size, 1) sqrt(m_j) / N,
    ``lifted`` j * (size of N-1) + lower and ``roots`` sqrt(m_j).  So a
    sweep reads only sector N-1, and a read at m_j = 0 adds 0 as long as
    that sector is finite, which V's is: V is unitary.  Cached per shape
    argument; each entry is a read-only view of one (modes, positions) array.
    """
    plan = _sector_plan(modes, rows, top)
    total = plan.occupations.sum(axis=1)
    starts = np.array([0, *(at.start for at in plan.sectors), len(total)])
    strides = rows ** np.arange(modes)[::-1]
    keys = plan.occupations @ strides
    position = np.argsort(plan.order)  # keys[position] is in row-major order, so ascending
    lowered = np.minimum(np.searchsorted(keys[position], keys - strides[:, None]), len(keys) - 1)
    lower = np.where(plan.occupations.T > 0, position[lowered] - starts[total - 1], 0)
    roots = np.sqrt(plan.occupations.T, order="C")
    weight = roots[..., None] / np.maximum(total, 1)[:, None]
    lifted = lower + np.arange(modes)[:, None] * np.diff(starts)[total - 1]
    return _read_only(tuple(tuple(array[:, at] for at in plan.sectors) for array in (lower, weight, lifted, roots)))


class _ClassPlan(NamedTuple):
    """The residue classes of the rotated tuples and the sector pairs that share one, as flat arrays."""

    members: np.ndarray  # tuples with m_0 <= cutoff, sector by sector and class by class: position in their sector
    right: np.ndarray  # (members, modes - 1) each member's occupations of modes 1..n-1
    pairs: np.ndarray  # (pairs, 4): N >= N' of each sector pair sharing a class, and the range of its runs
    left: np.ndarray  # per run, pair by pair: the member of N it sums for, in position order
    first: np.ndarray  # per run: the first member of its class in N'
    count: np.ndarray  # per run: the size of its class in N'


@functools.lru_cache(maxsize=None)
def _class_plan(modes: int, rows: int, cutoff: int, angular: int) -> _ClassPlan:
    """The residue classes of the rotated tuples, as ``graph_resolution`` reads them.

    The tuples are ``_sector_plan(modes, T+1, T)``'s, T = modes (rows - 1), and
    P_ladder (x) C (x) ... (x) C links two exactly within one class (m_0 <=
    cutoff, m_1 mod M, ..., m_{n-1} mod M), M = ``angular``.  A run is a
    member of N with its class's members in N' (N >= N'): members ``first``
    to ``first + count``, consecutive.  So the plan holds one entry per
    tuple and per run, at most one per tuple and sector pair, and none per
    matched tuple pair.  Cached per shape argument; the arrays are read-only.
    """
    top = modes * (rows - 1)
    sectors = _sector_plan(modes, top + 1, top)
    total = sectors.occupations.sum(axis=1)
    members = np.flatnonzero(sectors.occupations[:, 0] <= cutoff)
    moduli = np.minimum((cutoff + 1, *(angular,) * (modes - 1)), top + 1)  # occupations <= T: same residues
    keys = np.ravel_multi_index((sectors.occupations[members] % moduli).T, moduli)
    order = np.lexsort((keys, total[members]))
    members = members[order]
    keys = keys[order]
    sector = total[members]
    # A group is a class within one sector; each member pairs with its class's groups in its own and earlier sectors.
    heads = np.flatnonzero(np.diff(keys, prepend=-1) | np.diff(sector, prepend=-1))
    size = np.diff(heads, append=len(members))
    by = np.lexsort((sector[heads], keys[heads]))
    rank = np.argsort(by)[np.repeat(np.arange(len(heads)), size)]
    lowest = np.searchsorted(keys[heads[by]], keys)
    partners = rank - lowest + 1
    left = np.repeat(np.arange(len(members)), partners)
    group = by[np.repeat(lowest - np.cumsum(partners) + partners, partners) + np.arange(len(left))]
    order = np.lexsort((members[left], sector[heads[group]], sector[left]))
    left = left[order]
    group = group[order]
    cuts = np.flatnonzero(np.diff(sector[left] * (top + 1) + sector[heads[group]], prepend=-1, append=-1))
    pairs = np.column_stack((sector[left[cuts[:-1]]], sector[heads[group[cuts[:-1]]]], cuts[:-1], cuts[1:]))
    start = np.array([0, *(at.start for at in sectors.sectors)])
    plan = _ClassPlan(members - start[sector], sectors.occupations[members, 1:], pairs, left, heads[group], size[group])
    return _read_only(plan)


def _rotation_sectors(spec: GraphSpec, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """V[a, m] = <a|U(phi)|m> for the rows a of the ``rows``-per-mode box, one block per total occupation.

    U(phi), U a_j^dag U^dag = sum_i phi_ij a_i^dag, takes |k, 0, ..., 0> to
    seed ladder column k and D(0, alpha) to the shift D(phi[:, 1:] alpha).
    It keeps total occupation: V_N maps the box rows of total N to every
    rotated tuple of total N.  From V_0 = 1 the number operator gives
    N V_N[a, m] = sum_{i,j} sqrt(a_i) phi_ij sqrt(m_j) V_{N-1}[a - e_i, m - e_j],
    stable where the single raising step cancels between the modes (README,
    numerical notes).  Each step reads the positions of a - e_i and m - e_j
    within sector N-1 from the :func:`_predecessors` of the box's plan and
    of the rotated tuples' ``(modes, T + 1, T)``, T = modes (rows - 1),
    enumerated without the (T+1)^n box; it mixes the lifted rows by phi and
    takes the sum over j as one gather over (mode, column), the terms added
    in mode order.  Returns per N = 0..T the box rows (row-major indices)
    and V_N, column-major, its columns the rotated tuples of total N in order.
    """
    top = spec.modes * (rows - 1)
    box = _sector_plan(spec.modes, rows, top)
    steps = zip(box.sectors, *_predecessors(spec.modes, rows, top)[:2], *_predecessors(spec.modes, top + 1, top)[2:])
    ladder = np.ones((1, 1), dtype=complex)
    sectors = [(box.order[:1], ladder)]
    for at, lower, weight, lifted, roots in steps:
        box_rows = box.order[at]
        mixed = np.einsum("ij,iac->ajc", spec.phi, ladder[lower] * weight).reshape(len(box_rows), -1)
        out = np.empty((len(box_rows), roots.shape[1]), dtype=complex, order="F")
        ladder = np.add.reduce(mixed[:, lifted] * roots, axis=1, out=out)
        sectors.append((box_rows, ladder))
    return sectors
