"""Operator-graph constructions on the truncated multimode space.

The seed projector spans the ladder of states generated by the creation
operator along the first column of a unitary mode-mixing matrix.  Displacing
it along the remaining columns produces the graph generators; the same
construction evaluated at anticlique parameters yields the projections whose
compression of the graph is a scalar multiple of themselves.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .multimode import ModeSpace, validate_unitary
from .fock import _log_factorials, displacement_matrix, unnormalized_coherent
from .quadrature import (
    CHUNK_ENTRIES, SERIAL_GEMM_MACS, PolarScheme, _rule_operator, box_side, coherent_identity, serial_matmul
)

__all__ = [
    "CompressionResult",
    "GeneratorParams",
    "GraphSpec",
    "LadderUnderflow",
    "compression_check",
    "compression_constant",
    "displaced_mode_amplitudes",
    "draw_generator_params",
    "graph_generator",
    "seed_basis",
    "seed_projector_quadrature",
]


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """A truncated graph instance: mode-mixing unitary, mode count, cutoff."""

    phi: np.ndarray
    modes: int
    cutoff: int

    def __post_init__(self):
        phi = validate_unitary(np.array(self.phi, dtype=complex))
        if phi.shape != (self.modes, self.modes):
            raise ValueError(f"phi must be {self.modes}x{self.modes}, got {phi.shape}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def space(self) -> ModeSpace:
        return ModeSpace(self.modes, self.cutoff)


@dataclass(frozen=True, eq=False)
class GeneratorParams:
    """Radial amplitudes and phases of one displacement point.

    Indexes a graph generator, or the anticlique projection at that point.
    """

    radii: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        radii = np.atleast_1d(np.array(self.radii, dtype=float))
        phases = np.atleast_1d(np.array(self.phases, dtype=float))
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


def seed_basis(spec: GraphSpec) -> np.ndarray:
    """Columns k = 0..cutoff: (a^dag along phi's first column)^k / sqrt(k!) |vac>.

    The graded ladder (:func:`_graded_ladder`) on the rows of total k, exact
    because those rows stay within the cutoff; the columns are orthonormal.
    """
    occupations = np.indices((spec.cutoff + 1,) * spec.modes).reshape(spec.modes, -1).T
    total = occupations.sum(axis=1)
    return np.where(total[:, None] == np.arange(spec.cutoff + 1), _graded_ladder(spec, occupations)[:, None], 0.0)


def seed_projector_quadrature(spec: GraphSpec, scheme: PolarScheme, trusted_block: int | None = None) -> np.ndarray:
    """Seed projector by phase-space integration of coherent product dyads.

    (1/pi) Int dtheta Int r dr of the tensor product over modes j of
    |alpha*phi_j1><alpha*phi_j1|, tail-factored.  Cross-checks the rank sum.
    With ``trusted_block`` set, it is the block on the trusted box.  Row m of
    the product column is alpha^N b_m / sqrt(N!), N = total[m], with b the
    graded ladder on the box, so the integral is B C B^dag, C the rule operator.
    """
    side = box_side(spec.cutoff, trusted_block)
    return _seed_block(spec, side, _rule_operator(spec.modes * (side - 1) + 1, scheme))


def projection_deviations(spec: GraphSpec, scheme: PolarScheme, trusted_block: int) -> dict:
    """Projector checks of P = B B^dag from B's graded entries, and of its box against the quadrature.

    B is graded once, on the tuples of ``_sector_plan(modes, cutoff + 1, max(cutoff, modes t))``,
    t the trusted block.  Column k of B lives on sector k (the tuples of total occupation k), so
    B^dag B is the diagonal of the column norms s_k = ||b_k||^2 over sectors k <= cutoff.
    P^2 - P = B (B^dag B - I) B^dag is the direct sum of (s_k - 1) b_k b_k^dag.  Its max-abs
    is max_k |s_k - 1| max_m |B[m, k]|^2, "trace" is |sum_k s_k - (cutoff + 1)| with numpy's
    pairwise sum of the s_k in sector order, and "frobenius" is ||P^2 - P||_F / ||P||_F =
    sqrt(sum (s_k - 1)^2 s_k^2 / sum s_k^2).  P is Hermitian by construction.  "backend" is
    the max-abs of P - B C B^dag on the trusted box, C the rule operator
    (:func:`seed_projector_quadrature`): entry (m, m') is |b_m| |b_m'| |D - C|[N_m, N_m'],
    D = diag(N <= cutoff), so it is the largest peak_N peak_N' |D - C|[N, N'], peak_N the
    largest |b_m| of total N over the plan's tuples with every occupation <= t (the others
    read as 0, and a NaN propagates).  The others are absolute deviations.
    """
    top = spec.modes * trusted_block
    plan = _sector_plan(spec.modes, spec.cutoff + 1, max(spec.cutoff, top))
    entries = _graded_ladder(spec, plan.occupations)
    starts = [0, *(at.start for at in plan.sectors)]
    squares = entries.real**2 + entries.imag**2
    norms = np.add.reduceat(squares, starts)[: spec.cutoff + 1]
    idempotency = float(np.max(np.abs(norms - 1.0) * np.maximum.reduceat(squares, starts)[: spec.cutoff + 1]))
    frobenius = math.sqrt(float(np.sum((norms - 1.0) ** 2 * norms**2))) / math.sqrt(float(np.sum(norms**2)))
    boxed = np.where(np.all(plan.occupations <= trusted_block, axis=1), np.abs(entries), 0.0)
    peaks = np.maximum.reduceat(boxed, starts)[: top + 1]
    gap = np.abs(np.diag(np.arange(top + 1) <= spec.cutoff) - coherent_identity(top, scheme))
    return {
        "idempotency": idempotency,
        "trace": abs(float(np.sum(norms)) - (spec.cutoff + 1)),
        "backend": float(np.max(np.multiply.outer(peaks, peaks) * gap)),
        "frobenius": frobenius,
    }


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
    modes of c_j^m_j / sqrt(m_j!), times sqrt(k!).
    """
    top = int(occupations.max())
    factors = unnormalized_coherent(spec.phi[:, 0], top)
    ladder = factors[0, occupations[:, 0]]
    for mode in range(1, spec.modes):
        ladder = ladder * factors[mode, occupations[:, mode]]
    return ladder * np.exp(0.5 * _log_factorials(spec.modes * top))[occupations.sum(axis=1)]


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
    for array in (order, occupations):
        array.flags.writeable = False
    return _SectorPlan(order, occupations, sectors)


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
    for array in (lower, weight, lifted, roots):
        array.flags.writeable = False
    return tuple(tuple(array[:, at] for at in plan.sectors) for array in (lower, weight, lifted, roots))


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

    The tuples are ``_sector_plan(modes, T+1, T)``'s (no predecessors), T = modes (rows - 1), and
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
    for array in plan:
        array.flags.writeable = False
    return plan


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
    box = _sector_plan(spec.modes, rows)
    top = spec.modes * (rows - 1)
    steps = zip(box.sectors, *_predecessors(spec.modes, rows)[:2], *_predecessors(spec.modes, top + 1, top)[2:])
    ladder = np.ones((1, 1), dtype=complex)
    sectors = [(box.order[:1], ladder)]
    for at, lower, weight, lifted, roots in steps:
        box_rows = box.order[at]
        mixed = np.einsum("ij,iac->ajc", spec.phi, ladder[lower] * weight).reshape(len(box_rows), -1)
        out = np.empty((len(box_rows), roots.shape[1]), dtype=complex, order="F")
        ladder = np.add.reduce(mixed[:, lifted] * roots, axis=1, out=out)
        sectors.append((box_rows, ladder))
    return sectors


def displaced_mode_amplitudes(spec: GraphSpec, params) -> np.ndarray:
    """Per-mode displacement h_j = sum_k e^{i theta_k} r_k phi_{j,k+1}."""
    return _mode_shift(spec, params.displacements())


def _mode_shift(spec: GraphSpec, displacement: np.ndarray) -> np.ndarray:
    """:func:`displaced_mode_amplitudes` from the point's ``displacements()``."""
    if displacement.shape != (spec.modes - 1,):
        raise ValueError(f"expected {spec.modes - 1} parameter pairs, got {displacement.shape[0]}")
    return spec.phi[:, 1:] @ displacement


def graph_generator(spec: GraphSpec, params: GeneratorParams) -> np.ndarray:
    """Displaced seed projector D Q D^dag at the given parameters.

    Sums the cutoff+1 displaced ladder dyads as the Gram matrix Y Y^dag of
    Y = D B, so the result is Hermitian and positive semidefinite by
    construction; the test suite measures both.  Y is built as the
    anticlique check builds its ladder: sqrt(k!) times the level
    convolution of the point's per-mode factors (:func:`_mode_factors`,
    :func:`_level_convolution`), rows in box order.  B lives on total
    occupation <= cutoff, so the truncated D B is the exact one on every box
    row, and a point whose Gaussian rounds to 0 gives Y = 0.
    """
    shift = displaced_mode_amplitudes(spec, params)
    displaced = _level_convolution(_mode_factors(spec, shift[None])[:, 0], _root_factorials(spec.cutoff + 1))
    return displaced @ displaced.conj().T


def _root_factorials(levels: int) -> np.ndarray:
    """sqrt(k!) for k < ``levels``, each the root of k! rounded to a double, which holds k! up to k = 170."""
    if levels > 171:
        raise ValueError(f"sqrt(k!) needs k! as a double, so cutoff must be <= 170, got {levels - 1}")
    return np.sqrt([float(math.factorial(k)) for k in range(levels)])


def compression_constant(anticlique: GeneratorParams, generator: GeneratorParams) -> float:
    """Predicted compression scalar: the product over parameter pairs of the
    squared coherent overlap exp(-|r e^{i theta} - x e^{i gamma}|^2)."""
    return _overlap_constant(anticlique.displacements(), generator.displacements())


def _overlap_constant(anticlique: np.ndarray, generator: np.ndarray) -> float:
    """:func:`compression_constant` from the two points' ``displacements()``."""
    if anticlique.shape != generator.shape:
        raise ValueError("parameter tuples must have equal length")
    with np.errstate(over="ignore"):  # a distance past 1.3e154 squares to inf, and exp(-inf) = 0 is the constant
        return float(np.exp(-np.sum(np.abs(generator - anticlique) ** 2)))


class CompressionResult(NamedTuple):
    """Deviations of P A P from c P, and the measured and predicted c."""

    max_abs_deviation: float
    frobenius_deviation: float
    scalar_relative_error: float
    scalar_measured: float
    scalar_predicted: float


class LadderUnderflow(ArithmeticError):
    """The anticlique ladder underflows on the trusted box, so compression_check has no scale to measure against."""


class _Residual(NamedTuple):
    """The factors of the residual Y_t (M - c I) Y_t^dag that compression_check sweeps."""

    ladder: np.ndarray  # Y_t, its rows from the top sector down
    scaled: np.ndarray  # Y_t (M - c I): the residual is scaled @ ladder^dag
    deviation: np.ndarray  # M - c I
    overlap: np.ndarray  # S = Y_t^dag Y_t
    overlap_norm: float  # ||S||_F, positive
    measured: complex
    predicted: complex


def compression_check(
    spec: GraphSpec,
    anticlique: GeneratorParams,
    generators,
    weights=None,
    trusted_block: int | None = None,
) -> CompressionResult:
    """Measure how far the projection compresses a graph combination to a scalar.

    The projection is P = Y_x Y_x^dag and the combination A = sum_i w_i Y_i Y_i^dag,
    with Y = D(h) B the displaced seed ladder (dim x (cutoff+1)) at each
    point.  Then P A P = Y_x M Y_x^dag with the small matrix
    M = sum_i w_i G_i G_i^dag, G_i = Y_x^dag Y_i: the Knill-Laflamme form of
    the anticlique as a code for the graph.  On the rows Y_t of Y_x kept by
    ``trusted_block`` (in [0, cutoff]; all rows when it is None), with
    S = Y_t^dag Y_t, the least-squares scalar is c = tr(M S)/tr(S) and the
    residual is Y_t (M - c I) Y_t^dag.  Returns its max-abs and Frobenius
    deviations (the latter against ||P_t||_F = ||S||_F) with the relative
    error of c against the predicted weighted constant sum.  Real parts of c
    are returned.

    The check takes Y_x and the Grams from per-mode factors at every n
    (:func:`_factored_grams`): Y_x is a level convolution over the modes
    and each G_i a 2-D one, O(n (cutoff+1)^4) per generator beyond Y_x,
    with no (cutoff+1)^n object, and every one of these GEMMs goes through
    serial_matmul.  Y_t keeps the box plan's rows with every occupation <=
    ``trusted_block`` (all of them at the default), taken from the top
    sector down, and S is its own product over them: it sums a ladder's
    small entries first, where summed large entries first it rounded
    further from the full residual.  No dim_t x dim_t residual is formed.
    With K = M - c I, the Frobenius norm is taken in rank space,
    ||Y_t K Y_t^dag||_F^2 = tr(K S K^dag S), in O((cutoff+1)^3).  The
    max-abs is exact, and swept by entries (:func:`_residual_max_abs`): it
    forms only the entries whose widened Cauchy-Schwarz bound
    |(Y_t K)_a| |Y_b| beats the running max, so beyond the ladders the cost
    is O(dim (cutoff+1)^2) plus cutoff+1 multiply-adds per entry formed; at
    n=3 cutoff 8 the sweep forms 446 to 4,762 of the 531,441 entries on
    seeds 0-7, in two GEMMs each.

    The arrays are Y_x and the residual's factors (dim x (cutoff+1) each),
    the Gram convolution's gathers (within CHUNK_ENTRIES, or one point's
    (cutoff+1)^3 entries), and one chunk's factors with the kernel's stack
    (:func:`_factored_grams`), so no array grows with the generator count,
    and the runner's four points take one chunk, one kernel call and one M
    product at every size MAX_DIM admits.  Where eight output rows of a ladder GEMM
    fit SERIAL_GEMM_MACS (up to n=2 cutoff 19, n=3 cutoff 8 and n=4 cutoff
    5), S and Y_t K are also cut into row blocks within it, and no BLAS
    worker thread is woken.

    The full-matrix comparison is limited by the mass the top ladder states
    lose to truncation (first order in that loss); the identity is exact in
    infinite dimension, so on a block whose occupations stay clear of the
    displacement reach the truncated operators reproduce it to near machine
    precision.  Far enough out the anticlique's Gaussian underflows the
    trusted rows, ||S||_F rounds to 0 and there is nothing to compare:
    :class:`LadderUnderflow` is raised.
    """
    residual = _compression_residual(spec, anticlique, generators, weights, trusted_block)
    ladder, deviation, overlap = residual.ladder, residual.deviation, residual.overlap
    # tr(K S K^dag S) is >= 0 but can round below it where the residual vanishes; NaN passes max().
    squares = float(np.sum((deviation @ overlap) * (overlap @ deviation).conj()).real)
    frobenius = math.sqrt(max(squares, 0.0)) / residual.overlap_norm

    max_abs = _residual_max_abs(residual.scaled, ladder)
    measured, predicted = residual.measured, residual.predicted
    scalar_error = abs(measured - predicted) / abs(predicted) if predicted != 0 else abs(measured)
    return CompressionResult(
        max_abs_deviation=float(max_abs),
        frobenius_deviation=frobenius,
        scalar_relative_error=float(scalar_error),
        scalar_measured=float(measured.real),
        scalar_predicted=float(predicted.real),
    )


def _compression_residual(spec, anticlique, generators, weights, trusted_block) -> _Residual:
    """compression_check's ladders, M, c and Y_t (M - c I): everything before its two deviations."""
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator parameter set is required")
    if weights is None:
        weights = [1.0] * len(generators)
    weights = [complex(w) for w in weights]
    if len(weights) != len(generators):
        raise ValueError("weights must match the number of generators")
    top = box_side(spec.cutoff, trusted_block) - 1

    # Each point's displacements once: the anticlique's enter every predicted constant.
    points = [params.displacements() for params in (anticlique, *generators)]
    predicted = 0.0 + 0.0j
    for weight, point in zip(weights, points[1:]):
        predicted += weight * _overlap_constant(points[0], point)

    rank = spec.cutoff + 1
    entries = spec.space.dim * rank
    # Where eight output rows of a GEMM (dim * rank multiply-adds each) fit the serial budget, every GEMM
    # is cut into row blocks that OpenBLAS runs on the calling thread; wider ones are faster threaded.
    serial = 8 * entries <= SERIAL_GEMM_MACS
    matmul = serial_matmul if serial else np.matmul

    shifts = np.array([_mode_shift(spec, point) for point in points])
    ladder, combined = _factored_grams(spec, shifts, np.array(weights))
    plan = _sector_plan(spec.modes, rank)
    # Y_t: the box plan's rows with every occupation <= top, top sector first, so S sums small entries first.
    positions = plan.order if top == spec.cutoff else plan.order[np.all(plan.occupations <= top, axis=1)]
    ladder = ladder[positions[::-1]]  # the factored ladder's rows are in box order
    overlap = matmul(ladder.conj().T, ladder)
    overlap_norm = float(np.linalg.norm(overlap))
    if overlap_norm == 0.0:
        # Far out, exp(-|h_x|^2/2) leaves S too small to square: c and the Frobenius ratio are 0/0.
        raise LadderUnderflow("||Y_t^dag Y_t||_F rounds to 0 on the trusted box")
    measured = complex(np.sum(combined * overlap.T)) / complex(np.trace(overlap))
    deviation = combined - measured * np.eye(rank)
    scaled = matmul(ladder, deviation)
    return _Residual(ladder, scaled, deviation, overlap, overlap_norm, measured, predicted)


def _residual_max_abs(scaled: np.ndarray, ladder: np.ndarray) -> float:
    """The max-abs entry of the residual ``scaled`` @ ``ladder``^dag, Y_t K Y_t^dag, forming few of its entries.

    Entry (a, b) is at most |(Y_t K)_a| |Y_b| (Cauchy-Schwarz).  Widened by
    the margin 1 + 8 (L+2) eps, L the rank, that bound covers the rounding
    of an L-long complex dot product, of np.abs and of the norms, so an
    entry whose bound is at most the threshold cannot exceed it.  Rows are
    taken by decreasing |(Y_t K)_a| and columns by decreasing |Y_b|.  A
    block forms only the columns whose bound at its first row beats the
    threshold, a prefix of the sorted columns, and only the rows whose bound
    at the first column does, as one product whose height also keeps it
    within SERIAL_GEMM_MACS for that width (or within CHUNK_ENTRIES, for
    BLAS to thread, where two rows do not fit); the sweep stops at the
    first block without such a column.  The threshold is the running max,
    seeded with a floor below which it cannot end: the largest diagonal
    entry |R_aa| over the first block's rows, each a row-wise dot product,
    less the allowance 2 * 8 (L+2) eps |(Y_t K)_a| |Y_a| for its rounding
    and that of the same entry in a GEMM, divided by the margin.  Entry
    (a, a)'s own bound beats that floor, so the first block forms it.  The
    norms are dot products of the float views with themselves.  A NaN norm
    is a NaN row or column of the residual: the max is NaN and no entry is
    formed; a NaN entry formed is kept and ends the sweep.
    """
    rank = ladder.shape[1]
    allowance = 8 * (rank + 2) * np.finfo(float).eps
    margin = 1.0 + allowance
    norms, reach = (np.sqrt(np.einsum("ij,ij->i", part.view(float), part.view(float))) for part in (scaled, ladder))
    if np.isnan(norms).any() or np.isnan(reach).any():
        return math.nan

    def height(width: int) -> int:
        row = width * rank
        return SERIAL_GEMM_MACS // row if 2 * row <= SERIAL_GEMM_MACS else max(1, CHUNK_ENTRIES // width)

    rows = np.argsort(norms)[::-1]
    first = rows[: height(len(reach))]
    diagonal = np.abs(np.einsum("ij,ij->i", scaled[first], ladder[first].conj()))
    floors = (diagonal - 2 * allowance * norms[first] * reach[first]) / margin
    threshold = float(floors.max()) if np.isfinite(floors).all() else 0.0
    # Only the columns whose bound at the largest row beats the floor can enter a block, and only the
    # rows whose bound at the largest of those columns does.
    bounds = reach * margin
    columns = np.flatnonzero(float(norms[rows[0]]) * bounds > threshold)
    if not columns.size:
        return 0.0  # every bound, and so every entry, is 0
    columns = columns[np.argsort(reach[columns])[::-1]]
    adjoint = ladder[columns]
    adjoint = np.conj(adjoint, out=adjoint).T
    bounds = bounds[columns].tolist()
    tops = norms[rows[: np.count_nonzero(norms * bounds[0] > threshold)]].tolist()
    max_abs, start = 0.0, 0
    while start < len(tops):
        width = bisect.bisect_left(bounds, True, key=lambda bound: tops[start] * bound <= threshold)
        if width == 0:
            break
        stop = bisect.bisect_left(tops, True, start, key=lambda top: top * bounds[0] <= threshold)
        block = rows[start : min(stop, start + (len(first) if start == 0 else height(width)))]
        peak = float(np.abs(serial_matmul(scaled[block], adjoint[:, :width])).max())
        if not peak <= max_abs:
            max_abs = peak
            if math.isnan(peak):
                break
            threshold = max(threshold, peak)
        start += len(block)
    return max_abs


def _factored_grams(spec, shifts, weights) -> tuple[np.ndarray, np.ndarray]:
    """Y_x, rows in box order, and M = sum_i w_i G_i G_i^dag from per-mode factors.

    With A the factors (:func:`_mode_factors`), Y_x is sqrt(k!) times the
    level convolution of A_xj over the modes and G_i is sqrt(k! l!) times
    the 2-D level convolution of W_ij = A_xj^dag A_ij, whose entry (a, b)
    is <Y_x|Y_i> restricted to mode j's occupations a and b.  The points,
    the anticlique first, are taken in chunks whose factors (n (cutoff+1)^2
    entries a point) fit CHUNK_ENTRIES, at least two a chunk so that the
    first holds a generator; each chunk is one kernel call, one stacked
    :func:`serial_matmul` for every mode's W_j = A_xj^dag [A_1j, A_2j, ...],
    and one more product for its share of M.
    """
    modes, rank = spec.modes, spec.cutoff + 1
    roots = _root_factorials(rank)
    step = max(2, CHUNK_ENTRIES // (modes * rank * rank))
    combined = np.zeros((rank, rank), dtype=complex)
    for start in range(0, len(shifts), step):
        factors = _mode_factors(spec, shifts[start : start + step])
        if start == 0:
            anticlique, factors = factors[:, 0], factors[:, 1:]
            ladder = _level_convolution(anticlique, roots)
        count = factors.shape[1]
        grams = serial_matmul(
            anticlique.conj().transpose(0, 2, 1), factors.transpose(0, 2, 1, 3).reshape(modes, rank, count * rank)
        )
        grams = grams.reshape(modes, rank, count, rank).transpose(0, 2, 1, 3)
        gram = (_gram_convolution(grams) * np.multiply.outer(roots, roots)).transpose(1, 0, 2)
        scaled = gram * weights[max(start - 1, 0) : start + step - 1, None]
        combined += serial_matmul(scaled.reshape(rank, -1), gram.reshape(rank, -1).conj().T)
    return ladder, combined


def _mode_factors(spec: GraphSpec, shifts: np.ndarray) -> np.ndarray:
    """A[j, p, r, a] = D(h_pj)[r, a] c_j^a / sqrt(a!), c = phi[:, 0], for box rows r and levels a <= cutoff.

    D(h) = (x)_j D(h_j) and B_k = sqrt(k!) sum_{|m| = k} prod_j c_j^(m_j) /
    sqrt(m_j!) |m>, so box row (r_1, ..., r_n) of Y_k = D(h) B_k is sqrt(k!)
    times the sum over a_1 + ... + a_n = k of prod_j A[j, p, r_j, a_j].  Every
    entry of the truncated D(h_j) is exact, so that sum is exact on the box.
    One displacement_matrix call builds every point's and mode's D(h_pj),
    its Gaussian included.  A point whose exp(-|h_p|^2/2) rounds to 0 gets
    zero factors without the kernel, whose 2^-shift scaling turns inf * 0
    into NaN past a per-mode amplitude of about 40: every amplitude of a
    point whose Gaussian is positive stays below 38.7.
    """
    rank = spec.cutoff + 1
    with np.errstate(over="ignore"):  # an amplitude past 1.3e154 squares to inf, and exp(-inf) = 0 is its Gaussian
        live = np.exp(-0.5 * np.sum(np.abs(shifts) ** 2, axis=1)) > 0.0
    factors = np.zeros((spec.modes, len(shifts), rank, rank), dtype=complex)
    if live.any():
        kernel = displacement_matrix(shifts[live].T.ravel(), spec.cutoff)
        factors[:, live] = kernel.reshape(spec.modes, -1, rank, rank)
    powers = np.cumprod(np.column_stack([np.ones(spec.modes), spec.phi[:, :1] / np.sqrt(np.arange(1, rank))]), axis=1)
    factors *= powers[:, None, None, :]
    return factors


@functools.lru_cache(maxsize=None)
def _convolution_plan(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gathers of the truncated level convolutions from an L x L array flattened with a trailing 0, L = ``levels``.

    ``shift[k', r L + k]`` reads entry (r, k - k') and ``toeplitz[k, b L + k']``
    entry (k - k', b); both read the trailing 0 where k < k'.  Cached per
    ``levels``; the arrays are read-only.
    """
    steps = np.arange(levels)
    empty = levels * levels
    lower, upper = steps[:, None, None], steps[None, None, :]
    shift = np.where(upper >= lower, steps[None, :, None] * levels + upper - lower, empty)
    toeplitz = np.where(lower >= upper, (lower - upper) * levels + steps[None, :, None], empty)
    plan = shift.reshape(levels, empty), toeplitz.reshape(levels, empty)
    for array in plan:
        array.flags.writeable = False
    return plan


def _level_convolution(factors: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale[k] times sum over a_1 + ... + a_n = k of prod_j factors[j, r_j, a_j], at rows (r_1, ..., r_n) and levels k < L.

    ``factors`` is (modes, L, L); the rows come out row-major, mode 0
    slowest.  Each mode after the first is one :func:`serial_matmul`,
    Z (L^j, L) @ T_j (L, L^2), with T_j[k', (r, k)] = factors[j, r, k - k']
    for k >= k' and 0 below, gathered by the ``shift`` of
    :func:`_convolution_plan`; ``scale`` goes into the last T_j's columns
    (with one mode there is none, and the result is factors[0] times scale).
    """
    modes, rows, levels = factors.shape
    if modes == 1:
        return factors[0] * scale
    padded = np.zeros((modes - 1, rows * levels + 1), dtype=complex)
    padded[:, :-1] = factors[1:].reshape(modes - 1, -1)
    shifted = np.take(padded, _convolution_plan(levels)[0], axis=1)
    shifted[-1] *= np.tile(scale, rows)
    out = factors[0]
    for right in shifted:
        out = serial_matmul(out, right).reshape(-1, levels)
    return out


def _gram_convolution(grams: np.ndarray) -> np.ndarray:
    """G[p, k, l] = sum over a_1 + ... + a_n = k, b_1 + ... + b_n = l of prod_j grams[j, p, a_j, b_j], k, l < L.

    ``grams`` is (modes, points, L, L).  Each mode after the first takes
    W's Toeplitz blocks against shifted copies of the running G, both
    gathered by :func:`_convolution_plan`: G'[k, l] = sum over (b, k') of
    W[k - k', b] G[k', l - b], L^4 multiply-adds and two L^3-entry gathers
    per point.  The points go in batches whose gathers, L^3 entries a point,
    fit CHUNK_ENTRIES (at least one point), one stacked
    :func:`serial_matmul` per batch and mode.
    """
    modes, count, levels, _ = grams.shape
    shift, toeplitz = _convolution_plan(levels)
    step = max(1, CHUNK_ENTRIES // levels**3)
    out = np.empty((count, levels, levels), dtype=complex)
    for start in range(0, count, step):
        gram = grams[0, start : start + step]
        padded = np.zeros((2, len(gram), levels * levels + 1), dtype=complex)
        for factor in grams[1:, start : start + step]:
            padded[0, :, :-1] = factor.reshape(len(gram), -1)
            padded[1, :, :-1] = gram.reshape(len(gram), -1)
            left, right = np.take(padded[0], toeplitz, axis=1), np.take(padded[1], shift, axis=1)
            gram = serial_matmul(left, right.reshape(len(gram), levels * levels, levels))
        out[start : start + step] = gram
    return out


def draw_generator_params(modes: int, rng: np.random.Generator, max_radius: float = 1.5) -> GeneratorParams:
    """Seeded generator or anticlique parameters: phases uniform on [0, 2*pi), radii on [0, max_radius]."""
    radii = rng.uniform(0.0, max_radius, size=modes - 1)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=modes - 1)
    return GeneratorParams(radii=radii, phases=phases)
