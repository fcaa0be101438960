"""Operator-graph constructions on the truncated multimode space.

The seed projector spans the ladder of states generated by the creation
operator along the first column of a unitary mode-mixing matrix, graded by
``quadrature``.  Displacing it along the remaining columns produces the graph
generators; the same construction evaluated at anticlique parameters yields
the projections whose compression of the graph is a scalar multiple of themselves.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fock import _read_only, _RebuildOnCopy, _root_factorials, displacement_matrix, unnormalized_coherent
from .multimode import GraphSpec, _sector_plan
from .quadrature import (
    CHUNK_ENTRIES, SERIAL_GEMM_MACS, PolarScheme, _graded_ladder, _rule_operator, _seed_block, box_side,
    coherent_identity, serial_matmul
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
class GeneratorParams(_RebuildOnCopy):
    """Radial amplitudes and phases of one displacement point.

    Indexes a graph generator, or the anticlique projection at that point.
    Both arrays are copied; they and the displacement r e^{i theta}, formed once, are read-only.
    """

    radii: np.ndarray
    phases: np.ndarray
    _displacements: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        radii = np.atleast_1d(np.array(self.radii, dtype=float))
        phases = np.atleast_1d(np.array(self.phases, dtype=float))
        if radii.shape != phases.shape:
            raise ValueError("radii and phases must have equal length")
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(phases))):
            raise ValueError("radii and phases must be finite")
        if np.any(radii < 0):
            raise ValueError("radii must be nonnegative")
        for name, array in (("radii", radii), ("phases", phases), ("_displacements", radii * np.exp(1j * phases))):
            object.__setattr__(self, name, _read_only(array))

    def displacements(self) -> np.ndarray:
        return self._displacements


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


def displaced_mode_amplitudes(spec: GraphSpec, params) -> np.ndarray:
    """Per-mode displacement h_j = sum_k e^{i theta_k} r_k phi_{j,k+1}."""
    displacement = params.displacements()
    if displacement.shape != (spec.modes - 1,):
        raise ValueError(f"expected {spec.modes - 1} parameter pairs, got {displacement.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # a point near the float maximum gives inf or NaN amplitudes
        return serial_matmul(spec.phi[:, 1:], displacement[:, None])[:, 0]


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
    displaced = _level_convolution(_mode_factors(spec, shift[None])[:, 0], _root_factorials(spec.cutoff))
    return displaced @ displaced.conj().T


def compression_constant(anticlique: GeneratorParams, generator: GeneratorParams) -> float:
    """Predicted compression scalar: the product over parameter pairs of the
    squared coherent overlap exp(-|r e^{i theta} - x e^{i gamma}|^2)."""
    anticlique, generator = anticlique.displacements(), generator.displacements()
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
    error of c against sum_i w_i :func:`compression_constant`, from each
    point's stored displacement.  Real parts of c are returned.

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
    product at every size MAX_DIM admits.  S, Y_t K and the two rank-space
    products of the Frobenius norm go through serial_matmul too, whose rule
    is the check's one threading decision.

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
    squares = float(np.sum(serial_matmul(deviation, overlap) * serial_matmul(overlap, deviation).conj()).real)
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
    """compression_check's ladders, M, c and Y_t (M - c I), before its two deviations: no displacement is re-formed."""
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator parameter set is required")
    weights = [1.0 + 0.0j] * len(generators) if weights is None else [complex(w) for w in weights]
    if len(weights) != len(generators):
        raise ValueError("weights must match the number of generators")
    top = box_side(spec.cutoff, trusted_block) - 1

    predicted = 0.0 + 0.0j
    for weight, generator in zip(weights, generators):
        predicted += weight * compression_constant(anticlique, generator)

    rank = spec.cutoff + 1
    shifts = np.array([displaced_mode_amplitudes(spec, params) for params in (anticlique, *generators)])
    ladder, combined = _factored_grams(spec, shifts, np.array(weights))
    plan = _sector_plan(spec.modes, rank)
    # Y_t: the box plan's rows with every occupation <= top, top sector first, so S sums small entries first.
    positions = plan.order if top == spec.cutoff else plan.order[np.all(plan.occupations <= top, axis=1)]
    ladder = ladder[positions[::-1]]  # the factored ladder's rows are in box order
    overlap = serial_matmul(ladder.conj().T, ladder)
    overlap_norm = float(np.linalg.norm(overlap))
    if overlap_norm == 0.0:
        # Far out, exp(-|h_x|^2/2) leaves S too small to square: c and the Frobenius ratio are 0/0.
        raise LadderUnderflow("||Y_t^dag Y_t||_F rounds to 0 on the trusted box")
    measured = complex(np.sum(combined * overlap.T)) / complex(np.trace(overlap))
    deviation = combined - measured * np.eye(rank)
    scaled = serial_matmul(ladder, deviation)
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
    level convolution of A_xj over the modes and G_i is sqrt(k!) sqrt(l!)
    times the 2-D level convolution of W_ij = A_xj^dag A_ij, whose entry (a, b)
    is <Y_x|Y_i> restricted to mode j's occupations a and b.  The points,
    the anticlique first, are taken in chunks whose factors (n (cutoff+1)^2
    entries a point) fit CHUNK_ENTRIES, at least two a chunk so that the
    first holds a generator; each chunk is one kernel call, one stacked
    :func:`serial_matmul` for every mode's W_j = A_xj^dag [A_1j, A_2j, ...],
    and one more product for its share of M.
    """
    modes, rank = spec.modes, spec.cutoff + 1
    roots = _root_factorials(spec.cutoff)
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
    The grades c_j^a / sqrt(a!) are :func:`unnormalized_coherent`'s, as for
    the graded seed ladder.  One displacement_matrix call builds every
    point's and mode's D(h_pj), its Gaussian included.  A point whose
    exp(-|h_p|^2/2) rounds to 0 gets zero factors without the kernel: its
    per-mode amplitudes may be inf or NaN (a displacement near the float
    maximum), which the kernel refuses.  Every amplitude of a point whose
    Gaussian is positive stays below 38.7.  The Grams scale levels k, l by
    sqrt(k!) sqrt(l!), a double up to 170, so a cutoff past 170 raises
    ValueError here, for the generator and the check alike.
    """
    if spec.cutoff > 170:
        raise ValueError(f"sqrt(k!) sqrt(l!) must stay a double, so cutoff must be <= 170, got {spec.cutoff}")
    rank = spec.cutoff + 1
    with np.errstate(over="ignore"):  # an amplitude past 1.3e154 squares to inf, and exp(-inf) = 0 is its Gaussian
        live = np.exp(-0.5 * np.sum(np.abs(shifts) ** 2, axis=1)) > 0.0
    factors = np.zeros((spec.modes, len(shifts), rank, rank), dtype=complex)
    if live.any():
        kernel = displacement_matrix(shifts[live].T.ravel(), spec.cutoff)
        factors[:, live] = kernel.reshape(spec.modes, -1, rank, rank)
    factors *= unnormalized_coherent(spec.phi[:, 0], spec.cutoff)[:, None, None, :]
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
    return _read_only(plan)


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
