"""Single-mode kernel tests.

Expected values are frozen from independent oracles: exact rational Laguerre
sums, float series summation for exponentials, Poisson tails, and the
matrix-exponential oracle for displacement entries.
"""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import poisson

from fockgraph import (
    coherent_state,
    displacement_matrix,
    laguerre_sequence,
    unnormalized_coherent,
)
from fockgraph.config import MAX_DIM
from fockgraph.fock import _GAUSSIAN_EDGE, _kernel_grid, _log_factorials, _power_ladders
from oracles import (
    coherent_overlap,
    complex_product,
    displacement_compose_phase,
    expm_displacement_oracle,
    min_oracle_buffer,
    trusted_cutoff,
)

# e^{-1/2} by direct series summation, independent of any exp() call path.
EXP_MINUS_HALF = math.fsum((-0.5) ** k / math.factorial(k) for k in range(40))

# Measured errors are pinned within this factor both ways.
PRECISION_MARGIN = 1.25


def laguerre_direct(n, order, x, scale=1):
    """Exact-rational associated Laguerre polynomial evaluation, times ``scale``."""
    xf = Fraction(x)
    total = sum(
        Fraction((-1) ** i * math.comb(n + order, n - i), math.factorial(i)) * xf**i
        for i in range(n + 1)
    )
    return float(total * scale)


def tail_factored_direct(alpha: complex, cutoff: int) -> np.ndarray:
    """sqrt(low!/high!) alpha^k L_low^(k)(|alpha|^2), k = high - low, below the diagonal and with (-conj alpha)^k
    above it, from the correctly rounded power, Laguerre value and factorial ratio."""
    re, im = Fraction(alpha.real), Fraction(alpha.imag)
    out = np.empty((cutoff + 1, cutoff + 1), dtype=complex)
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            low, high = min(m, n), max(m, n)
            base, power = (re if m >= n else -re, im), (Fraction(1), Fraction(0))
            for _ in range(high - low):
                power = (power[0] * base[0] - power[1] * base[1], power[0] * base[1] + power[1] * base[0])
            root = math.sqrt(math.factorial(low) / math.factorial(high))
            out[m, n] = root * complex(*map(float, power)) * laguerre_direct(low, high - low, re * re + im * im)
    return out


def test_laguerre_sequence_rejects_a_negative_count():
    with pytest.raises(ValueError) as caught:
        laguerre_sequence(-1, 0, 1.0)
    assert str(caught.value) == "count must be nonnegative"


class TestLogFactorials:
    def test_matches_gammaln_to_the_largest_cutoff(self):
        # Every cutoff the schema accepts has cutoff + 1 <= MAX_DIM.
        got = _log_factorials(MAX_DIM - 1)
        expected = gammaln(np.arange(MAX_DIM) + 1.0)
        assert got[:2].tolist() == [0.0, 0.0]
        assert np.all(np.abs(got[2:] - expected[2:]) <= 1e-15 * expected[2:])


class TestCoherentState:
    def test_vacuum(self):
        state = coherent_state(0.0, 4)
        assert np.array_equal(state, np.array([1, 0, 0, 0, 0], dtype=complex))

    def test_ground_amplitude_series_oracle(self):
        state = coherent_state(1.0, 6)
        assert state[0] == pytest.approx(EXP_MINUS_HALF, abs=1e-14)
        assert state[0].real == pytest.approx(0.6065306597, abs=1e-10)

    def test_norm_deficit_is_poisson_tail(self):
        for alpha, cutoff in ((1.0, 12), (1.5, 14), (0.5 + 1.2j, 17)):
            state = coherent_state(alpha, cutoff)
            rate = abs(alpha) ** 2
            tail = math.fsum(
                math.exp(-rate) * rate**n / math.factorial(n) for n in range(cutoff + 1, 90)
            )
            deficit = 1.0 - float(np.sum(np.abs(state) ** 2))
            assert deficit == pytest.approx(tail, abs=1e-13)

    def test_unit_alpha_norm_nearly_one(self):
        # Poisson(1) tail beyond 12 is 6.4e-11; beyond 14 it is 2.8e-13, so
        # the 1e-12 bound needs cutoff 14.
        state = coherent_state(1.0, 14)
        assert np.sum(np.abs(state) ** 2) >= 1.0 - 1e-12

    def test_amplitudes_match_poisson_pmf(self):
        alpha = 1.3 - 0.7j
        state = coherent_state(alpha, 20)
        pmf = poisson.pmf(np.arange(21), abs(alpha) ** 2)
        assert np.abs(np.abs(state) ** 2 - pmf).max() < 1e-14

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            coherent_state(1.0, 0)


class TestLaguerre:
    @pytest.mark.parametrize("x", [0.3, 1.0, 5.0, 12.5, 25.0])
    def test_recurrence_matches_direct_sum(self, x):
        for order in range(13):
            seq = laguerre_sequence(12, order, x)
            for n in range(13):
                exact = laguerre_direct(n, order, x)
                assert seq[n] == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_broadcasts_over_order_and_argument(self):
        orders = np.arange(6)[:, None]
        xs = np.array([0.3, 5.0, 25.0, 120.0])
        table = laguerre_sequence(9, orders, xs)
        assert table.shape == (10, 6, 4)
        for order in range(6):
            for j, x in enumerate(xs):
                assert np.array_equal(table[:, order, j], laguerre_sequence(9, order, x))

    def test_large_argument_stability(self):
        # Quadrature nodes reach s ~ 235 at the largest radial order.
        seq = laguerre_sequence(30, 10, 120.0)
        exact = laguerre_direct(30, 10, 120.0)
        assert seq[30] == pytest.approx(exact, rel=1e-12)

    # The largest error of n <= 64 at orders 0, 1, 5 and 20 against a 50-digit plain recurrence, relative to the
    # largest |L| up to n, as measured, pinned within PRECISION_MARGIN both ways.  The difference form carries x
    # itself: at x = 1e-3 the plain form's 2n + 1 + k - x read 2.4e-14, this one 6.2e-16.  At x = 200 it gives a
    # little back, 2.5e-15 against the plain form's 1.5e-15.
    @pytest.mark.parametrize("x, pin", [(1e-3, 6.17e-16), (200.0, 2.54e-15)])
    def test_recurrence_matches_the_50_digit_reference(self, x, pin):
        error = 0.0
        with localcontext() as context:
            context.prec = 50
            s = Decimal(x)
            for order in (0, 1, 5, 20):
                want = [Decimal(1), 1 + order - s]
                for n in range(1, 64):
                    want.append(((2 * n + 1 + order - s) * want[n] - (n + order) * want[n - 1]) / (n + 1))
                largest = Decimal(0)
                for got, value in zip(laguerre_sequence(64, order, x).tolist(), want):
                    largest = max(largest, abs(value))
                    error = max(error, float(abs(Decimal(got) - value) / largest))
        assert pin / PRECISION_MARGIN <= error <= pin * PRECISION_MARGIN

    def test_power_of_two_scale_keeps_values_in_range(self):
        # L_600^(600)(1) is about C(1200, 600) ~ 4e359, past the float range.
        with np.errstate(over="ignore", invalid="ignore"):
            plain = laguerre_sequence(600, 600, 1.0)
        scaled = laguerre_sequence(600, 600, 1.0, scale=2.0**-300)
        finite = np.isfinite(plain)
        assert not finite.all() and np.all(np.isfinite(scaled))
        assert np.array_equal(scaled[finite], plain[finite] * 2.0**-300)
        for n in (1, 37, 300, 600):
            assert scaled[n] == pytest.approx(laguerre_direct(n, 600, 1.0, Fraction(1, 2**300)), rel=1e-12)

    @pytest.mark.parametrize("cutoff", [4, 8, 16, 89, 170, 300])
    def test_bitwise_equal_to_the_per_step_loop(self, cutoff):
        # The in-place float n + k and the skipped last difference change no bit against the loop that formed
        # n + k as an integer at every step and one difference more; values that overflow compare as bytes too.
        orders = np.arange(cutoff + 1)[:, None]
        x = np.array([0.0, 1e-3, 1.0, 30.0, 38.0]) ** 2
        for scale in (1.0, 2.0**-300):
            want = np.empty((cutoff + 1, cutoff + 1, len(x)))
            step = (orders - x) * scale
            want[0] = scale
            with np.errstate(over="ignore", invalid="ignore"):
                got = laguerre_sequence(cutoff, orders, x, scale)
                for n in range(1, cutoff + 1):
                    want[n] = want[n - 1] + step
                    step = ((n + orders) * step - x * want[n]) / (n + 1)
            assert got.tobytes() == want.tobytes()


class TestComplexProduct:
    def test_matches_scalar_arithmetic_and_conjugation(self):
        # The displacement powers rely on both: numpy's scalar complex
        # multiply rounds each real product once, and so must the batch.
        rng = np.random.default_rng(12)
        a = 3.0 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        b = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        got = complex_product(a, b)
        assert np.array_equal(got, np.array([x * y for x, y in zip(a, b)]))
        assert np.array_equal(complex_product(a.conj(), b.conj()), got.conj())


# |alpha| from 1e-3 to 38, log-spaced, with every phase: past 38.7 a point's Gaussian rounds to 0 and the
# anticlique check builds no kernel for it.
WIDE_AMPLITUDES = np.geomspace(1e-3, 38.0, 60) * np.exp(2j * math.pi * np.random.default_rng(38).uniform(size=60))


class TestScalarLadders:
    """The kernel's Python-scalar ladders against the same recurrences stepped level by level in numpy."""

    @pytest.mark.parametrize("cutoff", [1, 8, 40])
    def test_power_ladders_match_the_schoolbook_chain(self, cutoff):
        powers = _power_ladders(WIDE_AMPLITUDES.tolist(), _kernel_grid(cutoff, cutoff + 1).signs)
        assert powers.shape == (2 * (cutoff + 1), len(WIDE_AMPLITUDES))
        for column, base in enumerate((WIDE_AMPLITUDES, -WIDE_AMPLITUDES.conj())):
            chain = np.ones_like(base)
            for k in range(cutoff + 1):
                assert np.array_equal(powers[2 * k + column], chain), (k, column)
                chain = complex_product(chain, base)

    @pytest.mark.parametrize("cutoff", [1, 16, 40])
    def test_coherent_columns_match_numpy_division(self, cutoff):
        # numpy divides a complex by a real as a product with the reciprocal, which the scalar ladder copies.
        got = unnormalized_coherent(WIDE_AMPLITUDES.reshape(3, 20), cutoff)
        assert got.shape == (3, 20, cutoff + 1)
        chain = np.ones_like(WIDE_AMPLITUDES)
        for m in range(cutoff + 1):
            assert np.array_equal(got[..., m].ravel(), chain), m
            chain = complex_product(chain, WIDE_AMPLITUDES) / math.sqrt(m + 1)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 1e200])
def test_coherent_columns_refuse_what_the_kernel_refuses(alpha):
    # The kernel refuses a non-finite alpha, and without the Gaussian one whose power passes the float range.
    # With the Gaussian, 1e200 is past the edge and the kernel's column 0 is zero.
    if math.isfinite(alpha):
        assert np.array_equal(coherent_state(alpha, 4), displacement_matrix(alpha, 4)[:, 0])
    else:
        for call in (coherent_state, displacement_matrix):
            with pytest.raises(ValueError, match="not finite"):
                call(alpha, 4)
    with pytest.raises(ValueError, match="alpha\\^cutoff is not finite"):
        displacement_matrix(alpha, 4, include_gaussian=False)
    with pytest.raises(ValueError) as caught:
        unnormalized_coherent(np.array([0.5, alpha]), 4)
    assert str(caught.value) == f"an entry is not finite: largest |alpha| {alpha}, cutoff 4"


class TestDisplacementMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(displacement_matrix(0.0, 5), np.eye(6, dtype=complex))

    @pytest.mark.parametrize("alpha", [0.7, 1.5j, -0.8 + 0.6j, 2.0])
    def test_column_zero_is_coherent_state(self, alpha):
        mat = displacement_matrix(alpha, 14)
        assert np.abs(mat[:, 0] - coherent_state(alpha, 14)).max() < 1e-12

    def test_vacuum_element_against_oracle(self):
        oracle = expm_displacement_oracle(1.0, 8, 24)
        assert displacement_matrix(1.0, 8)[0, 0] == pytest.approx(oracle[0, 0], abs=1e-12)
        assert displacement_matrix(1.0, 8)[0, 0].real == pytest.approx(0.6065306597, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.7 + 0.3j, 1.5 - 2.2j, -0.4 + 1.9j])
    def test_adjoint_is_negated_argument_exactly(self, alpha):
        # Bitwise, forced by the closed form and conjugation-covariant powers.
        left = displacement_matrix(alpha, 18).conj().T
        right = displacement_matrix(-alpha, 18)
        assert np.array_equal(left, right)
        alphas = alpha * np.array([1.0, -0.5j, 0.3 + 2.0j, 2.5])
        for gaussian in (True, False):
            left = displacement_matrix(alphas, 18, include_gaussian=gaussian).conj().transpose(0, 2, 1)
            right = displacement_matrix(-alphas, 18, include_gaussian=gaussian)
            assert np.array_equal(left, right)

    @pytest.mark.parametrize("cutoff", [4, 16, 32])
    def test_array_form_matches_scalar_loop(self, cutoff):
        # Amplitudes out to |alpha| ~ 7, the reach of the default radial
        # nodes.  Batching changes no entry's arithmetic, so the stack equals
        # the scalar matrices bitwise, well inside 1e-14 of the largest entry.
        rng = np.random.default_rng(cutoff)
        alphas = rng.uniform(0.0, 7.0, 40) * np.exp(2j * math.pi * rng.uniform(size=40))
        for gaussian in (True, False):
            stack = displacement_matrix(alphas, cutoff, include_gaussian=gaussian)
            assert stack.shape == (40, cutoff + 1, cutoff + 1) and stack.flags.c_contiguous
            for alpha, got in zip(alphas, stack):
                assert np.array_equal(got, displacement_matrix(alpha, cutoff, include_gaussian=gaussian))
            # Building only the first rows gives those rows bitwise.
            for rows in (1, cutoff // 2 + 1, cutoff + 1):
                part = displacement_matrix(alphas, cutoff, gaussian, rows=rows)
                assert part.flags.c_contiguous and np.array_equal(part, stack[:, :rows])
                assert np.array_equal(displacement_matrix(alphas[0], cutoff, gaussian, rows=rows), stack[0, :rows])

    def test_powers_round_like_scalar_arithmetic(self):
        # Entry (k, 0) of the tail-factored matrix is alpha^k / sqrt(k!), with
        # the power taken by repeated scalar complex multiplication.
        alpha = 1.3 - 0.8j
        column = displacement_matrix(np.array([alpha]), 24, include_gaussian=False)[0, :, 0]
        log_factorial = _log_factorials(24)
        power = 1.0 + 0.0j
        for k in range(25):
            assert column[k] == np.exp(0.5 * (log_factorial[0] - log_factorial[k])) * power
            power *= alpha

    def test_rows_stay_unit_where_laguerre_values_overflow(self):
        # At cutoff 1200, L_n^(k)(1) passes the float range near n = k = 600
        # while sqrt(n!/(n+k)!) underflows; the matrix must stay finite and
        # its first 601 rows, which lose no mass past the cutoff, unit.
        rows = displacement_matrix(np.exp(0.4j), 1200, rows=601)
        assert np.all(np.isfinite(rows))
        assert np.abs(np.sum(np.abs(rows) ** 2, axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("alpha", [2.0**-5, 0.1])
    def test_diagonal_keeps_a_small_argument_to_cutoff_89(self, alpha):
        # Tail-factored, entry (n, n) is L_n(|alpha|^2) itself.  Read at most 1.1e-15 relative against
        # the exact rational sum; the three-term form 2n + 1 - s lost s's low bits, 3.2e-14 and 2.2e-13.
        diagonal = np.diag(displacement_matrix(alpha, 89, include_gaussian=False))
        exact = np.array([laguerre_direct(n, 0, alpha**2) for n in range(90)])
        assert not diagonal.imag.any()
        assert np.max(np.abs(diagonal.real - exact) / np.abs(exact)) <= 2e-15

    def test_array_form_against_expm_oracle(self):
        alphas = np.array([0.7 + 0.3j, -1.2 + 0.5j, 1.9j, -0.4 - 1.1j])
        stack = displacement_matrix(alphas, 10)
        for alpha, got in zip(alphas, stack):
            oracle = expm_displacement_oracle(alpha, 10, min_oracle_buffer(alpha))
            assert np.abs(got - oracle).max() < 1e-10

    @pytest.mark.parametrize(
        "alpha, largest",
        [(30.0, "30.0"), (12 - 9j, "15.0"), (np.array([0.5, 30.0]), "30.0")],
        ids=["30", "12-9j", "batch"],
    )
    def test_rejects_an_amplitude_whose_power_overflows(self, alpha, largest):
        # |alpha|^300 passes the float range above |alpha| = exp(709.78 / 300).  Unchecked, the kernel returns
        # NaN entries here (with a RuntimeWarning at 30, without one at 12 - 9j).
        with pytest.raises(ValueError) as caught:
            displacement_matrix(alpha, 300)
        assert str(caught.value) == f"alpha^cutoff is not finite: largest |alpha| {largest} > limit 10.6541, cutoff 300"

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_a_non_finite_amplitude(self, alpha):
        with pytest.raises(ValueError, match="alpha\\^cutoff is not finite"):
            displacement_matrix(alpha, 4)

    @pytest.mark.parametrize("alpha, cutoff", [(38.0, 170), (38.6, 180)])
    def test_finite_just_inside_the_power_limit(self, alpha, cutoff):
        assert cutoff * math.log(alpha) < math.log(np.finfo(float).max)
        assert np.all(np.isfinite(displacement_matrix(alpha, cutoff)))

    def test_gaussian_edge_is_the_last_positive_gaussian(self):
        assert math.exp(-0.5 * _GAUSSIAN_EDGE**2) > 0.0
        assert math.exp(-0.5 * math.nextafter(_GAUSSIAN_EDGE, math.inf) ** 2) == 0.0

    # Past the edge every entry underflows to 0.  Formed, these blocks are NaN (the scaled Laguerre values
    # underflow while the ratio or the power overflows), and 1e160 squared is inf.
    @pytest.mark.parametrize(
        "alpha, cutoff",
        [(math.nextafter(_GAUSSIAN_EDGE, math.inf), 8), (100.0, 8), (1e3j, 16), (-1e30, 8), (1.3e154, 1), (1e160, 1)],
    )
    def test_zero_block_where_the_gaussian_rounds_to_zero(self, alpha, cutoff):
        dim = cutoff + 1
        assert displacement_matrix(alpha, cutoff).tobytes() == bytes(16 * dim * dim)
        assert displacement_matrix(alpha, cutoff, rows=1).tobytes() == bytes(16 * dim)
        batch = displacement_matrix(np.array([alpha, 0.5 - 0.2j, alpha]), cutoff)
        assert batch.shape == (3, dim, dim) and batch.flags.c_contiguous
        assert np.array_equal(batch[1], displacement_matrix(0.5 - 0.2j, cutoff)) and not batch[::2].any()

    @pytest.mark.parametrize(
        "alpha, cutoff",
        [(100.0, 8), (1e3, 16), (60 * cmath.exp(0.7j), 12), (50.0, 24), (52.0, 12), (40.0, 16)],
    )
    def test_tail_factored_far_amplitude_is_formed(self, alpha, cutoff):
        # Szego's exp(s/2) alone asks for a shift that underflows the scaled Laguerre values while the ratio
        # overflows (the first three; the entries, at most 2.5e27 at (100, 8), are representable), or that
        # rounds away their low bits: under it the last three read 1.1e-13, 1.3e-13 and 1.9e-14 relative.
        got = displacement_matrix(alpha, cutoff, include_gaussian=False)
        want = tail_factored_direct(complex(alpha), cutoff)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("magnitude", [38.0, 38.3, 38.6])
    def test_normal_entries_keep_their_bits_where_the_gaussian_is_subnormal(self, magnitude):
        # Past |alpha| = 37.64 exp(-|alpha|^2/2) is below the normal range.  Multiplied in as that float, it left
        # the worst entry that is a normal float 4.6e-11, 3.3e-6 and 0.72 relative off here.
        alpha, cutoff = magnitude * cmath.exp(0.7j), 24
        got = displacement_matrix(alpha, cutoff)
        with localcontext() as context:
            context.prec = 60
            re, im = Decimal(alpha.real), Decimal(alpha.imag)
            gaussian = (-(re * re + im * im) / 2).exp()
            want = np.array(
                [
                    complex(float(Decimal(z.real) * gaussian), float(Decimal(z.imag) * gaussian))
                    for z in tail_factored_direct(alpha, cutoff).ravel()
                ]
            ).reshape(got.shape)
        normal = np.abs(want) >= np.finfo(float).tiny
        assert normal.sum() >= 100
        assert np.all(np.abs(got - want)[normal] <= 2e-13 * np.abs(want)[normal])

    @pytest.mark.parametrize(
        "alpha, cutoff, message",
        [
            (1e30, 8, "an entry passes the float limit 1.79769e+308: largest |alpha| 1e+30, cutoff 8"),
            # 1e160 squared is inf, and the entries formed from it are not finite.
            (1e160, 1, "an entry passes the float limit 1.79769e+308: largest |alpha| 1e+160, cutoff 1"),
        ],
        ids=["entries", "square"],
    )
    def test_tail_factored_entries_past_the_float_range_raise(self, alpha, cutoff, message):
        with pytest.raises(ValueError) as caught:
            displacement_matrix(alpha, cutoff, include_gaussian=False)
        assert str(caught.value) == message

    def test_squared_modulus_is_the_correctly_rounded_product(self):
        # Entry (1, 1) without the Gaussian is L_1(s) = 1 - s.  glibc's pow(x, 2), x**2, is one ulp off x * x here.
        x = 34.11451446950815
        assert displacement_matrix(x, 1, include_gaussian=False)[1, 1] == 1 - x * x

    def test_rejects_matrix_of_amplitudes(self):
        with pytest.raises(ValueError, match="1-D"):
            displacement_matrix(np.ones((2, 2)), 4)

    @pytest.mark.parametrize("rows", [0, 6])
    def test_rejects_rows_outside_ladder(self, rows):
        with pytest.raises(ValueError, match="rows"):
            displacement_matrix(0.5, 4, rows=rows)

    def test_gaussian_factoring(self):
        alpha = 1.1 - 0.4j
        bare = displacement_matrix(alpha, 10, include_gaussian=False)
        full = displacement_matrix(alpha, 10)
        assert np.abs(full - bare * math.exp(-0.5 * abs(alpha) ** 2)).max() < 1e-15

    def test_unitarity_where_column_mass_is_retained(self):
        # D^dag D deviates from I at (m, m) by exactly the column mass lost
        # past the cutoff; displacement reach from level m scales like
        # |alpha|*sqrt(m), so the clean block sits well below the naive
        # mean-plus-spread heuristic.  Frozen from measured decay.
        mat = displacement_matrix(1.0, 32)
        product = mat.conj().T @ mat
        sub = product[:13, :13] - np.eye(13)
        assert np.abs(sub).max() < 1e-8

    def test_unitarity_deficit_decays_with_cutoff(self):
        devs = []
        for cutoff in (16, 24, 32):
            mat = displacement_matrix(1.0, cutoff)
            product = mat.conj().T @ mat
            devs.append(np.abs(product[:9, :9] - np.eye(9)).max())
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-12


class TestComposePhase:
    def test_trivial_cases(self):
        assert displacement_compose_phase(0.9 + 0.2j, 0.0) == pytest.approx(1.0)
        assert displacement_compose_phase(1.2, -0.7) == pytest.approx(1.0)

    def test_quarter_turn_pair(self):
        value = displacement_compose_phase(1.0, 1.0j)
        assert value.real == pytest.approx(0.5403023059, abs=1e-10)
        assert value.imag == pytest.approx(-0.8414709848, abs=1e-10)

    def test_composition_law_on_matrices(self):
        # Product of truncated matrices vs phase * D(a+b), compared where the
        # intermediate sums retain their mass (small amplitudes, low block).
        alpha, beta = 0.35 + 0.1j, -0.25j
        cutoff = 24
        product = displacement_matrix(alpha, cutoff) @ displacement_matrix(beta, cutoff)
        target = displacement_compose_phase(alpha, beta) * displacement_matrix(alpha + beta, cutoff)
        assert np.abs((product - target)[:11, :11]).max() < 1e-8


class TestCoherentOverlap:
    def test_self_overlap_is_unimodular(self):
        assert abs(coherent_overlap(0.8 + 0.4j, 0.8 + 0.4j)) == pytest.approx(1.0)

    def test_vacuum_against_unit(self):
        value = coherent_overlap(0.0, 1.0)
        expected = math.fsum((-1.0) ** k / math.factorial(k) for k in range(40))
        assert abs(value) ** 2 == pytest.approx(expected, abs=1e-13)
        assert abs(value) ** 2 == pytest.approx(0.3678794412, abs=1e-10)

    def test_squared_modulus_is_gaussian_in_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            alpha, beta = (rng.uniform(-2, 2, 4) * [1, 1j, 1, 1j]).reshape(2, 2).sum(axis=1)
            got = abs(coherent_overlap(alpha, beta)) ** 2
            assert got == pytest.approx(math.exp(-abs(alpha - beta) ** 2), rel=1e-12)

    def test_against_truncated_dot_product_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            alpha = rng.uniform(0, 2) * np.exp(2j * math.pi * rng.uniform())
            beta = rng.uniform(0, 2) * np.exp(2j * math.pi * rng.uniform())
            numeric = np.vdot(coherent_state(beta, 40), coherent_state(alpha, 40))
            assert abs(coherent_overlap(alpha, beta) - numeric) < 1e-12


class TestExpmOracle:
    def test_identity_at_zero(self):
        assert np.abs(expm_displacement_oracle(0.0, 6, 12) - np.eye(7)).max() < 1e-15

    def test_agrees_with_closed_form(self):
        delta = expm_displacement_oracle(1.0, 8, 16) - displacement_matrix(1.0, 8)
        assert np.abs(delta).max() < 1e-10

    def test_column_zero_matches_coherent_state(self):
        oracle = expm_displacement_oracle(2.0j, 6, 24)
        assert np.abs(oracle[:, 0] - coherent_state(2.0j, 6)).max() < 1e-10

    def test_rejects_small_buffer(self):
        assert min_oracle_buffer(2.0j) == 24
        with pytest.raises(ValueError, match="buffer"):
            expm_displacement_oracle(2.0j, 6, 23)


class TestTrustedCutoff:
    def test_values(self):
        assert trusted_cutoff(20, 1.0) == 16
        assert trusted_cutoff(20, 2.0) == 10
        assert trusted_cutoff(4, 2.0) == 0

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            trusted_cutoff(10, -0.5)
