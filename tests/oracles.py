"""Independent oracles and test-only helpers, kept with the tests.

Closed forms for coherent overlaps and the displacement composition phase,
and the displacement matrix by exponentiating the truncated generator: none
of them shares a code path with ``fockgraph.fock``, which is what makes them
oracles for it.  The Gauss-Laguerre rule with its Jacobi eigenvalues from
scipy's tridiagonal eigensolver, the oracle for the dense one in
``quadrature.gauss_laguerre``, and the same rule to 50 digits by Newton's
method from its nodes, its precision reference.  The seed projector checks
on the projector ``B B^dag`` formed densely, which
``graphs.projection_deviations`` reads from the column norms of the graded
``B``, and the same check with ``B`` graded on two sector plans, the
reference for its one plan.  The graded seed entries to 50 digits
with ``fractions`` and ``decimal``, for a rational ``phi``: the precision
reference for ``quadrature._graded_ladder``, and the rule operator to 50
digits, the precision reference for ``quadrature._rule_operator``.  The
rotation blocks ``V`` and the displaced seed ladders at n=2 to 50 digits
by the binomial theorem, the precision reference for both number-operator
sweeps and, with the Gaussian put back, for the anticlique check's ladder
and ``M`` from per-mode factors at n=2, and the displaced seed ladders at
n=3 the same way, the precision reference for those factors at n=3.
``quadrature._rotation_sectors`` one mode at a time, reading the predecessor
positions of both its plans (``quadrature._predecessors``) directly, the
reference for its one gather.  The displaced seed ladder by applying
truncated displacement matrices mode by mode, the oracle for the
package's level convolution of per-mode factors and for
``sector_ladders``.  That one builds the same ladder tail-factored, by
Weyl covariance swept over total occupation with no displacement matrix,
reading the box's ``quadrature._predecessors``: an oracle for the per-mode
factored ladder of ``graphs.graph_generator`` and the anticlique check
that shares no arithmetic with it.  The dense Kronecker Weyl operator
(``weyl_operator``, ``graph_displacement``) and the displaced seed
projector built from it (``dense_generator``), the oracles for
``graphs.graph_generator`` and for the dense ``P A P`` that
``graphs.compression_check`` never forms.  The anticlique residual with
each of its ``dim_t^2`` entries formed, and the position of its max
entry, the oracle for ``graphs.compression_check``, which prunes its
max-abs sweep and takes its Frobenius norm in rank space.  The Poisson distribution function to 50
digits and the cut exponential series e_j(z), for the closed forms of
``quadrature.displaced_projector_identity`` under an exact rule and of the
displaced ladders' Grams on the total-occupation simplex.  Exponential
vectors, the Weyl composition phase, ladder operators and occupation
indexing on the multimode space, the occupation table (``occupations``),
the trusted-box mask (``trusted_mask``), the dense seed projector
``B B^dag`` (``seed_projector``) and Haar-random mixing matrices, which
only the tests use.  The schoolbook complex product elementwise in numpy
(``complex_product``), the chain the kernel's scalar power ladders and
coherent columns are checked against bitwise.
"""

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from fockgraph import (
    coherent_state,
    displaced_mode_amplitudes,
    displacement_matrix,
    kron_all,
    seed_basis,
)
from fockgraph.graphs import _compression_residual
from fockgraph.multimode import ModeSpace, _sector_plan
from fockgraph.quadrature import (
    CHUNK_ENTRIES, _graded_ladder, _predecessors, coherent_identity, serial_matmul
)


def complex_product(a, b) -> np.ndarray:
    """Elementwise a * b with each real product rounded once.

    numpy's vectorised complex multiply can round differently in the last
    place from its scalar arithmetic; this schoolbook form gives the scalar
    bits.  It is also conjugation-covariant: conj(a) * conj(b) is bitwise
    conj(a * b).
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """Overlap <beta|alpha> = exp(-|a|^2/2 - |b|^2/2 + conj(b)*a).

    Inner products are antilinear in the first slot throughout the package.
    The squared modulus is exp(-|a - b|^2).
    """
    alpha = complex(alpha)
    beta = complex(beta)
    exponent = -0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2 + beta.conjugate() * alpha
    return cmath.exp(exponent)


def displacement_compose_phase(alpha: complex, beta: complex) -> complex:
    """Unit-modulus phase in D(a)D(b) = phase * D(a+b)."""
    alpha = complex(alpha)
    beta = complex(beta)
    return cmath.exp(0.5 * (alpha * beta.conjugate() - alpha.conjugate() * beta))


def gauss_laguerre_reference(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``quadrature.gauss_laguerre(order)``, eigenvalues by ``eigh_tridiagonal``.

    The same Newton polish, by s L_Q'(s) = Q (L_Q(s) - L_{Q-1}(s)), and the
    same weights 1 / (s L_{Q-1}^(1)(s)^2) at the polished nodes, with the
    Laguerre recurrence's difference form at orders 0 and 1 written out, so
    that a rule equal to this one bit for bit differs only in its
    eigensolver.
    """
    if order == 1:
        return np.array([1.0]), np.array([1.0])

    def laguerre(count, k, x):
        # L_0^(k)..L_count^(k) at x: d_1 = k - x, (n + 1) d_{n+1} = (n + k) d_n - x L_n, L_n = L_{n-1} + d_n.
        vals = [np.ones_like(x)]
        step = (k - x) * vals[0]
        for n in range(1, count + 1):
            vals.append(vals[n - 1] + step)
            step = ((n + k) * step - x * vals[n]) / (n + 1)
        return vals

    nodes = eigh_tridiagonal(2.0 * np.arange(order) + 1.0, np.arange(1.0, order), eigvals_only=True)
    values = laguerre(order, 0, nodes)
    nodes = nodes - nodes * values[order] / (order * (values[order] - values[order - 1]))
    weights = 1.0 / (nodes * laguerre(order - 1, 1, nodes)[order - 1] ** 2)
    return nodes, weights


def gauss_laguerre_decimal(order: int) -> tuple[list[Decimal], list[Decimal]]:
    """Nodes and weights of the order-``order`` Gauss-Laguerre rule, to 50 digits.

    Newton's method on L_order, with s L_Q'(s) = Q (L_Q(s) - L_{Q-1}(s)),
    starts from ``quadrature.gauss_laguerre``'s float nodes and stops once a
    step is below 1e-45 of its node: from float64 starts three steps get
    there.  The weights are s / ((order+1)^2 L_{order+1}(s)^2).  Every
    operation rounds at 50 digits; the Laguerre values come from the
    three-term recurrence.
    """
    from fockgraph.quadrature import gauss_laguerre

    def laguerre(degree, s):
        # (L_{degree-1}(s), L_degree(s)), degree >= 1.
        previous, current = Decimal(1), 1 - s
        for k in range(1, degree):
            previous, current = current, ((2 * k + 1 - s) * current - k * previous) / (k + 1)
        return previous, current

    nodes, weights = [], []
    with localcontext() as context:
        context.prec = 50
        for s in map(Decimal, gauss_laguerre(order).nodes.tolist()):
            for _ in range(8):
                previous, current = laguerre(order, s)
                step = s * current / (order * (current - previous))
                s -= step
                if abs(step) <= s * Decimal("1e-45"):
                    break
            else:
                raise ArithmeticError(f"Newton did not converge at order {order}")
            nodes.append(s)
            weights.append(s / ((order + 1) ** 2 * laguerre(order + 1, s)[1] ** 2))
    return nodes, weights


def min_oracle_buffer(alpha: complex) -> int:
    """Smallest inflation of the cutoff accepted by the expm oracle."""
    a = abs(complex(alpha))
    return 2 * math.ceil(a * a + 3.0 * a) + 4


def expm_displacement_oracle(alpha: complex, cutoff: int, buffer: int) -> np.ndarray:
    """Displacement matrix by truncated-generator exponentiation.

    Builds alpha*adag - conj(alpha)*a at cutoff + buffer, exponentiates by
    scaling-and-squaring Taylor summation, and restricts to the top-left
    (cutoff+1) x (cutoff+1) block.  Independent of the Laguerre closed form,
    which is exactly why it serves as the oracle for it.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    needed = min_oracle_buffer(alpha)
    if buffer < needed:
        raise ValueError(f"buffer {buffer} too small for |alpha|={abs(complex(alpha)):.3f}; need >= {needed}")
    alpha = complex(alpha)
    dim = cutoff + buffer + 1
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # annihilation
    generator = alpha * lower.conj().T - alpha.conjugate() * lower
    return _expm_taylor(generator)[: cutoff + 1, : cutoff + 1]


def _expm_taylor(matrix: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(matrix, 1)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    scaled = matrix / (2.0**squarings)
    dim = matrix.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for j in range(1, 64):
        term = term @ scaled / j
        result = result + term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def dense_projection_deviations(basis: np.ndarray, quad: np.ndarray, box: np.ndarray) -> dict:
    """Projector checks of the dense P = B B^dag, and of its box rows against ``quad``.

    ``box`` holds the indices of the rows and columns ``quad`` is the block
    of.  P is formed on the rows where B is nonzero: every other row and
    column of P is an exact zero, and at n=3 cutoff 16 (dim 4913) only 969
    rows remain.  The trace sums P's whole diagonal in index order, zeros
    included, as ``np.trace`` of the full P does.  Keys and meanings as in
    ``graphs.projection_deviations``, which omits the hermiticity.
    """
    support = np.flatnonzero(np.any(basis != 0, axis=1))
    rows = basis[support]
    projector = rows @ rows.conj().T
    residual = projector @ projector - projector
    diagonal = np.zeros(len(basis), dtype=complex)
    diagonal[support] = np.diagonal(projector)
    boxed = basis[box]
    return {
        "idempotency": float(np.abs(residual).max()),
        "hermiticity": float(np.abs(projector - projector.conj().T).max()),
        "trace": abs(float(np.sum(diagonal).real) - basis.shape[1]),
        "backend": float(np.abs(boxed @ boxed.conj().T - quad).max()),
        "frobenius": float(np.linalg.norm(residual) / np.linalg.norm(projector)),
    }


def two_plan_projection_deviations(spec, scheme, trusted_block: int) -> dict:
    """``graphs.projection_deviations`` on two sector plans, each graded on its own.

    The column norms, idempotency, trace and Frobenius values from the
    capped plan ``_sector_plan(modes, cutoff + 1, cutoff)``, and the
    backend's ``peaks`` from the trusted box's own plan
    ``_sector_plan(modes, trusted_block + 1)``: the reference that the
    one-plan check must equal bit for bit.
    """
    plan = _sector_plan(spec.modes, spec.cutoff + 1, spec.cutoff)
    entries = _graded_ladder(spec, plan.occupations)
    starts = [0, *(at.start for at in plan.sectors)]
    squares = entries.real**2 + entries.imag**2
    norms = np.add.reduceat(squares, starts)
    idempotency = float(np.max(np.abs(norms - 1.0) * np.maximum.reduceat(squares, starts)))
    frobenius = math.sqrt(float(np.sum((norms - 1.0) ** 2 * norms**2))) / math.sqrt(float(np.sum(norms**2)))
    box = _sector_plan(spec.modes, trusted_block + 1)
    peaks = np.maximum.reduceat(np.abs(_graded_ladder(spec, box.occupations)), [0, *(at.start for at in box.sectors)])
    gap = np.abs(np.diag(np.arange(len(peaks)) <= spec.cutoff) - coherent_identity(spec.modes * trusted_block, scheme))
    return {
        "idempotency": idempotency,
        "trace": abs(float(np.sum(norms)) - (spec.cutoff + 1)),
        "backend": float(np.max(np.multiply.outer(peaks, peaks) * gap)),
        "frobenius": frobenius,
    }


def graded_entries_reference(column, cutoff: int) -> list[Decimal]:
    """The seed entries sqrt(k!/prod m_j!) prod c_j^m_j of ``quadrature._graded_ladder``, to 50 digits.

    ``column`` is phi's first column as Fractions, so every product of
    powers and the integer multinomial coefficient are exact, and only the
    square root and the one division round, at 50 digits.  In
    ``multimode._sector_plan(len(column), cutoff + 1, cutoff)`` order.
    """
    modes = len(column)
    entries = []
    with localcontext() as context:
        context.prec = 50
        for occupation in _sector_plan(modes, cutoff + 1, cutoff).occupations.tolist():
            multinomial = math.factorial(sum(occupation)) // math.prod(map(math.factorial, occupation))
            power = math.prod((c**m for c, m in zip(column, occupation)), start=Fraction(1))
            entries.append(Decimal(multinomial).sqrt() * Decimal(power.numerator) / Decimal(power.denominator))
    return entries


def rule_operator_reference(size: int, scheme) -> list[list[Decimal]]:
    """``quadrature._rule_operator``'s C[m, n] = [M | m - n] sum_i w_i s_i^((m+n)/2) / sqrt(m! n!) to 50 digits.

    The float64 nodes s_i and weights w_i are taken as exact.  C is Hankel
    in m + n before the factorials, so the sums H[k] = sum_i w_i sqrt(s_i)^k,
    k < 2 size - 1, are formed once and each entry is H[m + n] / sqrt(m! n!),
    every operation rounding at 50 digits.
    """
    with localcontext() as context:
        context.prec = 50
        roots = [Decimal(s).sqrt() for s in scheme.radial.nodes.tolist()]
        terms = [Decimal(w) for w in scheme.radial.weights.tolist()]
        hankel = []
        for _ in range(2 * size - 1):
            hankel.append(sum(terms, Decimal(0)))
            terms = [term * root for term, root in zip(terms, roots)]
        norms = [Decimal(math.factorial(m)).sqrt() for m in range(size)]
        count = scheme.angular.count
        return [
            [hankel[m + n] / (norms[m] * norms[n]) if (m - n) % count == 0 else Decimal(0) for n in range(size)]
            for m in range(size)
        ]


def poisson_cdf(mean: float, count: int, upper: bool = False) -> float:
    """P(Poisson(mean) <= count), or P(Poisson(mean) > count) with ``upper``, summed to 50 digits.

    ``mean`` is taken as exact.  The upper tail is 1 minus the sum at 50
    digits, so it keeps its relative precision far below float epsilon.
    """
    with localcontext() as context:
        context.prec = 50
        term = (-Decimal(mean)).exp()
        total = term
        for j in range(1, count + 1):
            term = term * Decimal(mean) / j
            total += term
        return float(1 - total if upper else total)


def exponential_partial_sum(count: int, z: complex) -> complex:
    """e_count(z) = sum_{s <= count} z^s / s!, the exponential series cut after the power ``count``."""
    term = total = 1.0 + 0.0j
    for s in range(1, count + 1):
        term = term * z / s
        total += term
    return total


def two_mode_sweeps_reference(rotation, denominator: int, shift: Fraction, rows: int, cutoff: int):
    """V of ``quadrature._rotation_sectors`` and the tail-factored ``sector_ladders`` at n=2, to 50 digits.

    phi = ``rotation`` / ``denominator`` is rational, real and orthogonal,
    and the shift is h = ``shift`` phi[:, 1].  U|m> = (phi_00 a_0^dag +
    phi_10 a_1^dag)^m_0 (phi_01 a_0^dag + phi_11 a_1^dag)^m_1 / sqrt(m!)
    |vac>, m! = m_0! m_1!, so by the binomial theorem <a|U|m> is
    sqrt(a!/m!) / denominator^N times the integer
    sum_j C(m_0, j) C(m_1, a_0 - j) r_00^j r_10^(m_0 - j) r_01^(a_0 - j) r_11^(m_1 - a_0 + j),
    r = ``rotation``.  D(h) B_k = U (|k> (x) D(shift)|vac>), and the
    tail-factored ladder leaves out exp(-shift^2/2), so
    Y_k[a] = shift^l / sqrt(l!) <a|U|k, l>, l = N - k.  Only the square
    roots and the divisions round, at 50 digits.  Returns V_N per
    N = 0..2 (rows - 1), its rows the box rows of total N and its columns
    the rotated tuples (k, N - k), both in row-major order, and Y's rows in
    row-major box order, all as lists of Decimals.
    """
    (r00, r01), (r10, r11) = rotation
    top = 2 * (rows - 1)
    powers = [[entry**k for k in range(top + 1)] for entry in (r00, r01, r10, r11)]
    factorials = [math.factorial(k) for k in range(top + 1)]
    blocks, ladders = [], []
    with localcontext() as context:
        context.prec = 50
        for total in range(top + 1):
            block = []
            for a0 in range(max(0, total - rows + 1), min(total, rows - 1) + 1):
                row = []
                for m0 in range(total + 1):
                    m1 = total - m0
                    terms = range(max(0, a0 - m1), min(m0, a0) + 1)
                    numerator = sum(
                        math.comb(m0, j) * math.comb(m1, a0 - j)
                        * powers[0][j] * powers[2][m0 - j] * powers[1][a0 - j] * powers[3][m1 - a0 + j]
                        for j in terms
                    )
                    norm = Decimal(factorials[a0] * factorials[total - a0]) / Decimal(factorials[m0] * factorials[m1])
                    row.append(Decimal(numerator) / Decimal(denominator) ** total * norm.sqrt())
                block.append(row)
            blocks.append(block)
        tails = [
            Decimal(shift.numerator) ** l / Decimal(shift.denominator) ** l / Decimal(factorials[l]).sqrt()
            for l in range(top + 1)
        ]
        for a0 in range(rows):
            for a1 in range(rows):
                total = a0 + a1
                row = blocks[total][a0 - max(0, total - rows + 1)]
                levels = [tails[total - k] * row[k] for k in range(min(total, cutoff) + 1)]
                ladders.append(levels + [Decimal(0)] * (cutoff - min(total, cutoff)))
    return blocks, ladders


def three_mode_ladder_reference(rotation, denominator: int, shift: Fraction, cutoff: int) -> list[list[Decimal]]:
    """The displaced seed ladder Y = D(h) B at n=3 on the whole box, its Gaussian included, to 50 digits.

    phi = ``rotation`` / ``denominator`` is rational, real and orthogonal,
    and h = ``shift`` phi[:, 1], so Y_k = U (|k> (x) |shift> (x) |0>) with U
    the rotation of ``quadrature._rotation_sectors``.  Expanding
    (sum_i phi_i0 a_i^dag)^k (sum_i phi_i1 a_i^dag)^l |vac> by the binomial
    theorem gives, at box row a of total N and l = N - k,
    Y_k[a] = exp(-shift^2/2) shift^l sqrt(k! / a!) e_k(a) / denominator^N,
    a! = prod_i a_i!, where the integer e_k(a) is the coefficient of t^k in
    prod_i (r_i0 t + r_i1)^(a_i), r = ``rotation``.  Only the square roots,
    the exponential and the divisions round, at 50 digits.  No factor of
    ``graphs._mode_factors`` enters.  Returns the rows in row-major box
    order, as lists of Decimals.
    """
    binomials = [
        [[math.comb(a, u) * row[0] ** u * row[1] ** (a - u) for u in range(a + 1)] for a in range(cutoff + 1)]
        for row in rotation
    ]
    ladders = []
    with localcontext() as context:
        context.prec = 50
        gauss = (-Decimal(shift.numerator) ** 2 / Decimal(2 * shift.denominator**2)).exp()
        roots = [Decimal(math.factorial(m)).sqrt() for m in range(cutoff + 1)]
        for a0, a1, a2 in np.ndindex(*(cutoff + 1,) * 3):
            product = [1]
            for poly in (binomials[0][a0], binomials[1][a1], binomials[2][a2]):
                product = [
                    sum(product[j] * poly[t - j] for j in range(max(0, t - len(poly) + 1), min(t, len(product) - 1) + 1))
                    for t in range(len(product) + len(poly) - 1)
                ]
            total = a0 + a1 + a2
            row = []
            for k in range(cutoff + 1):
                if k > total:
                    row.append(Decimal(0))
                    continue
                power = Fraction(shift) ** (total - k) / Fraction(denominator) ** total * product[k]
                scale = roots[k] / (roots[a0] * roots[a1] * roots[a2])
                row.append(gauss * scale * Decimal(power.numerator) / Decimal(power.denominator))
            ladders.append(row)
    return ladders


def sector_ladders(spec, shifts: np.ndarray, rows: int) -> np.ndarray:
    """Tail-factored displaced seed ladders Y = D(h) B on the box of ``rows`` per mode, sector-major.

    Each shift h (row of ``shifts``, (K, modes)) must be orthogonal to phi's
    first column c, as h = phi[:, 1:] @ alpha is.  Weyl covariance gives
    a_j Y_k = h_j Y_k + sqrt(k) c_j Y_{k-1}, which the number operator turns
    into a sweep over total occupation N from the vacuum row (1, 0, ..., 0),
    N Y_k[m] = sum_j sqrt(m_j) (h_j Y_k + sqrt(k) c_j Y_{k-1})[m - e_j], stable
    and exact on any box (README, numerical notes).  Returns a
    (rows^n, (cutoff+1) K) matrix whose row ``i`` is box row
    ``_sector_plan(modes, rows).order[i]``, so each sector (the rows of one
    total occupation N) is one contiguous slice, and column k K + p holds
    level k of shift p.  Sector N has levels k <= N, so it reads the first
    min(N, cutoff+1) K columns of sector N-1 at the predecessor positions
    within that sector (``quadrature._predecessors``), gathered once as (modes,
    rows of N, columns), and weighted by sqrt(m_j)/N in place.  Two contractions over
    the modes then fill the sector's slice: the shift term against h_j
    spread over the levels, and the raising term against c_j sqrt(k), one
    level up.  The package builds Y from per-mode displacement matrices
    instead (``graphs._mode_factors``, ``graphs._level_convolution``), so
    this sweep shares no arithmetic with it.  Without the Gaussian
    exp(-|h|^2/2) its entries grow as |h|^s / sqrt(s!), s = N - k, and
    overflow far out (past |h| = 3.7e19 at n=2 cutoff 8); the tests keep
    |h| below 8.
    """
    plan = _sector_plan(spec.modes, rows)
    count, rank = len(shifts), spec.cutoff + 1
    ladder = np.zeros((len(plan.order), rank * count), dtype=complex)
    ladder[0, :count] = 1.0
    spread = np.tile(shifts.T, rank)[:, None]
    raising = (spec.phi[:, :1] * np.repeat(np.sqrt(np.arange(1, rank)), count))[:, None]
    previous = slice(0, 1)
    steps = zip(plan.sectors, *_predecessors(spec.modes, rows)[:2])
    for occupation, (at, lower, weight) in enumerate(steps, start=1):
        below, top = min(occupation, rank) * count, min(occupation + 1, rank) * count
        terms = np.take(ladder[previous, :below], lower, axis=0)
        np.multiply(terms.view(float), weight, out=terms.view(float))
        raised = (terms[..., : top - count] * raising[..., : top - count]).sum(axis=0)
        sector = ladder[at]
        np.multiply(terms, spread[..., :below], out=terms).sum(axis=0, out=sector[:, :below])
        sector[:, count:top] += raised
        previous = at
    return ladder


def rotation_sectors_loop(spec, rows: int) -> list:
    """``quadrature._rotation_sectors`` step by step: one mode at a time, the sum over modes in Python.

    Reads the positions of a - e_i and m - e_j within sector N-1 directly
    from both plans' ``quadrature._predecessors`` and takes sqrt(m_j) from the
    rotated tuples, not from their ``lifted`` and ``roots``.  The reference
    for the sweep's one gather over (mode, column), which takes the same
    products and sums in the same order, so V must agree bit for bit.
    """
    box = _sector_plan(spec.modes, rows)
    top = spec.modes * (rows - 1)
    rotated = _sector_plan(spec.modes, top + 1, top)
    sectors = [(box.order[:1], np.ones((1, 1), dtype=complex))]
    box_steps, rotated_lower = _predecessors(spec.modes, rows)[:2], _predecessors(spec.modes, top + 1, top)[0]
    for at, lower, weight, here, below in zip(box.sectors, *box_steps, rotated.sectors, rotated_lower):
        mixed = np.einsum("ij,iac->jac", spec.phi, sectors[-1][1][lower] * weight)
        tuples = rotated.occupations[here]
        ladder = sum(mixed[j][:, below[j]] * np.sqrt(tuples[:, j]) for j in range(spec.modes))
        sectors.append((box.order[at], ladder))
    return sectors


def weyl_operator(coords, space: ModeSpace) -> np.ndarray:
    """Multimode displacement: the tensor product of D(coords_j) over modes.

    Valid because the coordinates refer to an orthonormal mode basis, so the
    Weyl operator acts mode-locally.
    """
    coords = _as_coords(coords, space.modes)
    return kron_all([displacement_matrix(c, space.cutoff) for c in coords])


def graph_displacement(spec, params) -> np.ndarray:
    """Tensor displacement moving the seed projector to the parameter point."""
    return weyl_operator(displaced_mode_amplitudes(spec, params), spec.space)


def dense_generator(spec, params) -> np.ndarray:
    """``graphs.graph_generator`` as Y Y^dag with Y the dense Kronecker displacement times the seed basis."""
    displaced = graph_displacement(spec, params) @ seed_basis(spec)
    return displaced @ displaced.conj().T


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def displace_modewise(spec, basis: np.ndarray, alphas: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Rows of (D_1 x ... x D_n) @ basis at each node, without forming the Kronecker product.

    ``alphas`` (K, pairs) are node amplitudes; mode j is displaced by the
    tail-factored D(h_j) with h = phi[:, 1:] @ alpha.  ``basis`` (dim, rank)
    is reshaped to (side, ..., side, rank) and each mode's D_j, built for
    its first ``rows`` rows only (all by default), is applied to its axis:
    the first mode as one :func:`serial_matmul` for all K nodes (they share
    the basis), the others as one batched matmul over the nodes.  Returns the
    (K, rows^n, rank) stack: the rows whose occupations are all below
    ``rows``, in row-major order.
    """
    side = spec.cutoff + 1
    rows = side if rows is None else rows
    count = len(alphas)
    shifts = (alphas @ spec.phi[:, 1:].T).ravel()
    factors = displacement_matrix(shifts, spec.cutoff, include_gaussian=False, rows=rows)
    factors = factors.reshape(count, spec.modes, rows, side)
    out = serial_matmul(factors[:, 0].reshape(count * rows, side), basis.reshape(side, -1))
    for mode in range(1, spec.modes):
        out = factors[:, mode, None] @ out.reshape(count, rows**mode, side, -1)
    return out.reshape(count, rows**spec.modes, -1)


def full_residual_deviations(spec, anticlique, generators, weights=None, trusted_block=None) -> tuple:
    """Max-abs and Frobenius deviations of ``graphs.compression_check``, every residual entry formed.

    The check's own ladders, ``M``, scalar and ``Y_t (M - c I)`` (its
    ``_compression_residual``), then the residual row block by row block
    in row order, blocks of at most CHUNK_ENTRIES entries, each product by
    ``serial_matmul``, with the max and the sum of squares of the
    magnitudes of each block.  Returns the max-abs, the Frobenius deviation
    and the (row, column) of the max entry in ``Y_t``'s row order, the
    first in row-major order where entries tie.
    """
    residual = _compression_residual(spec, anticlique, generators, weights, trusted_block)
    ladder, scaled = residual.ladder, residual.scaled
    adjoint = ladder.conj().T
    rows = max(1, CHUNK_ENTRIES // len(ladder))
    max_abs = squares = 0.0
    entry = (0, 0)
    for start in range(0, len(ladder), rows):
        magnitude = np.abs(serial_matmul(scaled[start : start + rows], adjoint))
        row, column = np.unravel_index(np.argmax(magnitude), magnitude.shape)
        if magnitude[row, column] > max_abs:
            max_abs, entry = float(magnitude[row, column]), (start + int(row), int(column))
        squares += float(np.sum(np.square(magnitude, out=magnitude)))
    return max_abs, math.sqrt(squares) / float(np.linalg.norm(residual.overlap)), entry


def index_of(occupation, space: ModeSpace) -> int:
    """Flat index of an occupation tuple (row-major, mode 1 slowest)."""
    occupation = tuple(int(v) for v in occupation)
    if len(occupation) != space.modes:
        raise ValueError(f"expected {space.modes} occupation numbers, got {len(occupation)}")
    for v in occupation:
        if not 0 <= v <= space.cutoff:
            raise ValueError(f"occupation {v} outside [0, {space.cutoff}]")
    return int(np.ravel_multi_index(occupation, _box_shape(space)))


def tuple_of(index: int, space: ModeSpace) -> tuple[int, ...]:
    """Occupation tuple of a flat index; inverse of :func:`index_of`."""
    if not 0 <= index < space.dim:
        raise ValueError(f"index {index} outside [0, {space.dim})")
    return tuple(int(v) for v in np.unravel_index(index, _box_shape(space)))


def _box_shape(space: ModeSpace) -> tuple[int, ...]:
    return (space.cutoff + 1,) * space.modes


def occupations(space: ModeSpace) -> np.ndarray:
    """All occupation tuples as a (dim, modes) array, in index order."""
    return np.stack(np.unravel_index(np.arange(space.dim), _box_shape(space)), axis=1)


def trusted_mask(space: ModeSpace, max_occupation: int) -> np.ndarray:
    """Boolean mask of basis states with every mode occupation <= bound."""
    return occupations(space).max(axis=1) <= max_occupation


def seed_projector(spec) -> np.ndarray:
    """Rank-structured seed projector: sum of its orthonormal ladder dyads."""
    basis = seed_basis(spec)
    return serial_matmul(basis, basis.conj().T)


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


def _as_coords(coords, modes: int) -> np.ndarray:
    coords = np.atleast_1d(np.asarray(coords, dtype=complex))
    if coords.shape != (modes,):
        raise ValueError(f"expected {modes} mode coordinates, got shape {coords.shape}")
    return coords


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


def trusted_cutoff(cutoff: int, amplitude: float) -> int:
    """Highest occupation still trusted after displacing by ``amplitude``.

    Displacement adds a mean of |a|^2 photons with Poisson spread; dropping
    the mean plus ~3 standard deviations from the cutoff leaves the block
    where truncated products agree with the untruncated operator.
    """
    a = float(amplitude)
    if a < 0:
        raise ValueError("amplitude must be nonnegative")
    return max(0, cutoff - math.ceil(a * a + 3.0 * a))
