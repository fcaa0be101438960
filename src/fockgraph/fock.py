"""Single-mode truncated Fock-space kernel.

Coherent-state amplitudes and exact displacement-operator matrix elements
on a photon-number ladder truncated at a finite occupation.

Matrix elements are taken from the infinite-dimensional closed forms, so
truncation error never enters through an entry itself, only through later
matrix products.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "coherent_state",
    "displacement_matrix",
    "laguerre_sequence",
    "unnormalized_coherent",
]


# displacement_matrix keeps Laguerre values below exp(_LAGUERRE_LOG_CEILING),
# which leaves the recurrence's coefficients, n + k below 2 * 8192 and s, room
# under the float maximum (about exp(709.8)).
_LAGUERRE_LOG_CEILING = 690.0
_LN2 = math.log(2.0)
# The largest |alpha| whose exp(-|alpha|^2/2) is positive: past it the Gaussian rounds to 0.
_GAUSSIAN_EDGE = 38.60396920271129
# exp(-x) is a normal float up to x = 708: the normal range ends at 2^-1022 = exp(-708.40).
_NORMAL_LOG_FLOOR = 708.0


def _require_cutoff(cutoff: int) -> None:
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")


def _read_only(value):
    """Make each array in ``value``, through tuples, and each array it views (``.base``) read-only; return ``value``."""
    if isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif isinstance(value, np.ndarray):
        value.flags.writeable = False
        _read_only(value.base)
    return value


class _RebuildOnCopy:
    """Copies and pickles of a frozen dataclass rebuild through its constructor, so its arrays stay read-only."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, field.name) for field in dataclasses.fields(self) if field.init)


@functools.lru_cache(maxsize=None)
def _log_factorials(top: int) -> np.ndarray:
    """log(m!) for m = 0..top, one ``math.lgamma`` call per entry.

    Cached per ``top``; the array is shared and read-only.
    """
    return _read_only(np.array([math.lgamma(m + 1) for m in range(top + 1)]))


def laguerre_sequence(count: int, order, x, scale=1.0) -> np.ndarray:
    """Associated Laguerre values scale * L_n^(order)(x) for n = 0..count.

    ``order``, ``x`` and ``scale`` broadcast against each other and the
    result has shape (count + 1, *broadcast shape), so scalars give a
    vector.  Uses the three-term recurrence ascending in n, in difference
    form: with d_n = L_n - L_(n-1), d_1 = k - x and
    (n + 1) d_(n+1) = (n + k) d_n - x L_n, k = ``order``.  It carries x
    itself, where the plain form's 2n + 1 + k - x rounds away x's low bits:
    up to n = 64 at x = 1e-3, that form errs by 2.4e-14 of the largest |L|
    so far and this one by 6.2e-16 (at x = 200, 1.5e-15 against 2.5e-15).
    The recurrence is linear, so a power-of-two ``scale`` scales every value
    exactly, away from the float range's ends; it keeps values that would
    overflow in range.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    x = np.asarray(x, dtype=float)
    # d_1, then each step, is written in place: step is an array and vals[n, ...] a view even where they are 0-d.
    step = np.asarray((order - x) * scale, dtype=float)
    coefficient = np.array(order, dtype=float)  # n + k, stepped in place: exact for integer orders
    scratch = np.empty_like(step)
    vals = np.empty((count + 1, *step.shape))
    vals[0] = scale
    for n in range(1, count + 1):
        np.add(vals[n - 1], step, out=vals[n, ...])
        if n < count:  # d_(count+1) is never read
            coefficient += 1.0
            np.multiply(coefficient, step, out=step)
            np.multiply(x, vals[n], out=scratch)
            np.subtract(step, scratch, out=step)
            np.divide(step, n + 1, out=step)
    return vals


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..cutoff.

    Magnitudes are assembled in log space (log-factorials), so large n never
    overflows.  The squared norm falls short of 1 by exactly the
    Poisson(|a|^2) tail beyond the cutoff.  A non-finite alpha raises
    ValueError.
    """
    _require_cutoff(cutoff)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha is not finite: {alpha}")
    if alpha == 0:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[0] = 1.0
        return out
    n = np.arange(cutoff + 1)
    mag = abs(alpha)
    log_mag = -0.5 * mag * mag + n * math.log(mag) - 0.5 * _log_factorials(cutoff)
    return np.exp(log_mag + 1j * n * cmath.phase(alpha))


def unnormalized_coherent(alpha, cutoff: int) -> np.ndarray:
    """Tail-factored coherent column alpha^m / sqrt(m!), m = 0..cutoff.

    An array of amplitudes gives one column per amplitude, along a new last
    axis.  Each column is the ascending product c_m = c_(m-1) alpha / sqrt(m)
    in Python complex arithmetic: its multiply is the schoolbook product,
    and each part is then multiplied by 1 / sqrt(m), as numpy's
    complex-by-real division does, so the bits are those of that division
    stepped level by level in numpy.  Where an entry is not finite, past
    the float range or from a non-finite alpha, it raises ValueError.
    """
    alpha = np.asarray(alpha, dtype=complex)
    inverse_roots = [1.0 / math.sqrt(m) for m in range(1, cutoff + 1)]
    columns = []
    for amplitude in alpha.ravel().tolist():
        value = 1.0 + 0.0j
        column = [value]
        for inverse in inverse_roots:
            value *= amplitude
            value = complex(value.real * inverse, value.imag * inverse)
            column.append(value)
        columns.append(column)
    out = np.array(columns, dtype=complex).reshape(*alpha.shape, cutoff + 1)
    if not np.isfinite(out).all():
        raise ValueError(f"an entry is not finite: largest |alpha| {np.abs(alpha).max()}, cutoff {cutoff}")
    return out


class _KernelGrid(NamedTuple):
    """The amplitude-free arrays of displacement_matrix for one (cutoff, rows)."""

    order: np.ndarray  # (rows, dim) |m - n|: the power and Laguerre order of entry (m, n)
    power: np.ndarray  # (rows, dim) 2 |m - n| + [m < n]: its row of the (2 dim, K) powers
    laguerre: np.ndarray  # (rows, dim) min(m, n) dim + |m - n|: its row of the (rows dim, K) Laguerre values
    orders: np.ndarray  # (dim, 1) the orders k = 0..cutoff
    log_bound: np.ndarray  # (dim, 1) log C(n + k, n) at the deepest kept n of order k
    half_log_ratio: np.ndarray  # (rows, dim, 1) log sqrt(low! / (low + k)!)
    signs: np.ndarray  # (dim, 2) (-1)^k and -(-1)^k: (-conj alpha)^k from alpha^k's parts


@functools.lru_cache(maxsize=None)
def _kernel_grid(cutoff: int, rows: int) -> _KernelGrid:
    """displacement_matrix's index grids and factorial tables for rows m < ``rows`` of the ``cutoff`` ladder.

    Cached per (cutoff, rows); the arrays are read-only.
    """
    dim = cutoff + 1
    m, n = np.ogrid[:rows, :dim]
    low, order = np.minimum(m, n), abs(m - n)
    log_factorial = _log_factorials(cutoff)
    orders = np.arange(dim)
    deepest = np.minimum(rows - 1, cutoff - orders)
    log_bound = log_factorial[deepest + orders] - log_factorial[deepest] - log_factorial[orders]
    half_log_ratio = 0.5 * (log_factorial[low] - log_factorial[low + order])
    signs = np.where(orders % 2, -1.0, 1.0)[:, None] * np.array([1.0, -1.0])
    grid = _KernelGrid(
        order,
        2 * order + (m < n),
        low * dim + order,
        orders[:, None],
        log_bound[:, None],
        half_log_ratio[..., None],
        signs,
    )
    return _read_only(grid)


def _power_ladders(amplitudes: list, signs: np.ndarray) -> np.ndarray:
    """Rows 2k and 2k + 1: alpha^k and (-conj alpha)^k for k < len(``signs``), a column per amplitude.

    alpha^k is the ascending chain of Python complex products, each the
    schoolbook product, so it has the bits of that chain stepped in numpy.
    (-conj alpha)^k is (-1)^k conj(alpha^k), the :func:`_kernel_grid`
    ``signs`` taken on the parts, which is exact.
    """
    ladders = []
    for amplitude in amplitudes:
        power = 1.0 + 0.0j
        ladder = [power]
        for _ in range(len(signs) - 1):
            power *= amplitude
            ladder.append(power)
        ladders.append(ladder)
    positive = np.array(ladders, dtype=complex).reshape(len(amplitudes), len(signs))
    negative = (positive.view(float).reshape(*positive.shape, 2) * signs).view(complex)[..., 0]
    return np.stack([positive.T, negative.T], axis=1).reshape(2 * len(signs), len(amplitudes))


def displacement_matrix(alpha, cutoff: int, include_gaussian: bool = True, rows: int | None = None) -> np.ndarray:
    """Exact matrix elements <m|D(alpha)|n> on the truncated ladder.

    A scalar ``alpha`` gives one (dim, dim) matrix; a 1-D array of K
    amplitudes gives the (K, dim, dim) stack, built in one vectorised pass
    over the amplitudes.  Both go through the same code, and a matrix does
    not depend on the batch it was built in.  With ``rows`` set, only rows
    m < rows are built (shape (rows, dim) or (K, rows, dim)); they are
    bitwise the rows of the whole matrix.

    For m >= n the associated-Laguerre closed form gives
    sqrt(n!/m!) * alpha^(m-n) * exp(-|alpha|^2/2) * L_n^(m-n)(|alpha|^2);
    the upper triangle follows from D(alpha)^dag = D(-alpha).  Factorial
    ratios are taken in log space; the integer powers alpha^k are built by
    repeated Python complex products, which are schoolbook products, and
    (-conj alpha)^k is (-1)^k conj(alpha^k), exactly, so D(-alpha) is
    bitwise D(alpha)^dag.  The grids that depend on the shape alone come
    from :func:`_kernel_grid`.  Where the bound |L_n^(k)(s)| <= C(n+k, n)
    min(e^{s/2}, (1 + s)^n) at the deepest kept n passes e^690, order k's
    recurrence runs scaled by a power of two, which the factorial ratio
    puts back, so no Laguerre value overflows where the ratio underflows.
    Past |alpha| = 37.64, where exp(-|alpha|^2/2) is subnormal, the ratio
    carries its powers of two below the normal range too.

    With ``include_gaussian=False`` the exp(-|alpha|^2/2) prefactor is left
    out; quadrature code folds that factor into the radial weight instead.
    With it, a finite amplitude past |alpha| = 38.604, where the Gaussian
    rounds to 0, gives a zero matrix.  Every entry returned is finite.  An
    alpha whose alpha^cutoff is not finite, past the limit cutoff ln|alpha|
    <= ln(float max) = 709.78 or itself not finite, raises ValueError, and
    so, without the Gaussian, does one whose entries pass the float range.
    """
    _require_cutoff(cutoff)
    alphas = np.asarray(alpha, dtype=complex)
    if alphas.ndim > 1:
        raise ValueError(f"alpha must be a scalar or a 1-D array, got shape {alphas.shape}")
    dim = cutoff + 1
    rows = dim if rows is None else rows
    if not 1 <= rows <= dim:
        raise ValueError(f"rows must be in [1, {dim}], got {rows}")
    # |alpha|^2, the powers and the Gaussian in Python scalars (numpy's vectorised abs, complex multiply
    # and exp round differently in the last place), so that every entry keeps the bits of the scalar
    # closed form and reports reproduce byte for byte.
    batch = alphas.reshape(-1).tolist()
    # With the Gaussian, a finite amplitude past the edge has a zero block.  It is formed at alpha = 0, so that
    # neither its powers nor its square are taken, and the block is set to +0.0 at the end.
    dead = [include_gaussian and _GAUSSIAN_EDGE < abs(a) < math.inf for a in batch]
    batch = [0j if d else a for a, d in zip(batch, dead)]
    magnitudes = [abs(a) for a in batch]
    grid = _kernel_grid(cutoff, rows)
    powers = _power_ladders(batch, grid.signs)
    if not np.isfinite(powers[-2]).all():  # cutoff ln|alpha| > ln(float max), or a non-finite alpha
        limit = math.exp(math.log(np.finfo(float).max) / cutoff)
        largest = max(m for m, d in zip(magnitudes, dead) if not d)  # the message names live amplitudes only
        raise ValueError(f"alpha^cutoff is not finite: largest |alpha| {largest} > limit {limit:.6g}, cutoff {cutoff}")
    # The IEEE product is the correctly rounded square, and past the float range it is inf, which the final check meets.
    s = np.array([m * m for m in magnitudes])
    # With the Gaussian, the powers of two by which exp(-s/2) passes below the normal range: the ratio carries them.
    carry = [max(0, math.ceil((0.5 * v - _NORMAL_LOG_FLOOR) / _LN2)) if include_gaussian else 0 for v in s.tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        # C(n + k, n) e^{s/2} is Szego's bound on |L_n^(k)(s)|, and C(n + k, n) (1 + s)^n bounds its sum term by
        # term.  Below the ceiling the shift is 0 and no bit changes.
        deepest = np.minimum(rows - 1, cutoff - grid.orders)
        growth = grid.log_bound + np.minimum(0.5 * s, deepest * np.log1p(s))
        shift = np.maximum(0.0, np.ceil((growth - _LAGUERRE_LOG_CEILING) / _LN2))
        ratio = np.exp(grid.half_log_ratio + _LN2 * (shift - carry)[grid.order])
        # L_n^(k)(s) 2^-shift for n < rows and every order; values with n + k > cutoff are never read.
        lag = laguerre_sequence(rows - 1, grid.orders, s, np.exp2(-shift))
        # The grid is gathered amplitude-last, where each gather reads whole rows.
        laguerre = np.take(lag.reshape(rows * dim, -1), grid.laguerre, axis=0)
        entries = ratio * np.take(powers, grid.power, axis=0) * laguerre
    if not np.isfinite(entries).all():  # every live |alpha| is finite here, and a dead one reads 0
        limit, largest = np.finfo(float).max, max(magnitudes)
        raise ValueError(f"an entry passes the float limit {limit:.6g}: largest |alpha| {largest}, cutoff {cutoff}")
    # The copy hands back the (K, rows, dim) stack C-contiguous.
    out = np.ascontiguousarray(np.moveaxis(entries, -1, 0))
    if include_gaussian:
        out *= np.array([math.exp(-0.5 * v + _LN2 * c) for v, c in zip(s.tolist(), carry)])[:, None, None]
        out[dead] = 0.0
    return out if alphas.ndim else out[0]
