"""A catalogue of mutants of the package that the test suite must kill, and a runner for it.

Each entry names a file of the repository, a text that occurs in it exactly
once, the text that replaces it and the tests that must fail once it does.
From the repository root:

    python tools/mutants.py          # every mutant
    python tools/mutants.py 0 3      # the mutants at those indices

For each mutant the runner copies the repository (without ``.git``) to a
temporary directory, applies the mutant there, runs only its tests with
pytest and prints one line: ``killed`` when every named test fails (a
name without its ``[params]`` fails when one of its parametrizations does),
``SURVIVED`` and the tests that passed otherwise.  It exits 1 if a mutant
survives or its old text does not occur exactly once.  The checkout itself
is never written.

The full run takes minutes, so Tier-1 (``tests/test_mutants.py``) checks
only that every old text occurs exactly once: a change that moves mutated
code must move its entry with it.  A mutant no test kills stays in the
catalogue; its survival is the finding.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # pytest ids, each of which must fail (without its [params], at one parametrization at least)


FOCK = "src/fockgraph/fock.py"
GRAPHS = "src/fockgraph/graphs.py"
QUADRATURE = "src/fockgraph/quadrature.py"

MUTANTS = [
    # M is summed over the chunks of points: keeping only the last chunk's share drops generators.
    Mutant(
        GRAPHS,
        "        combined += serial_matmul(",
        "        combined = serial_matmul(",
        (
            "tests/test_graphs.py::TestFactoredGrams::test_chunks_add_up_to_the_one_chunk_m",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # M = sum_i w_i G_i G_i^dag: without the conjugate the product is G G^T.
    Mutant(
        GRAPHS,
        "gram.reshape(rank, -1).conj().T)",
        "gram.reshape(rank, -1).T)",
        (
            "tests/test_graphs.py::TestCompressionOracle::test_complex_weights_match_dense_oracle",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # Y_t takes the box plan's rows from the top sector down; in plan order S sums large entries first.
    Mutant(
        GRAPHS,
        "    ladder = ladder[positions[::-1]]",
        "    ladder = ladder[positions]",
        (
            "tests/test_graphs.py::TestFactoredGrams::test_trusted_rows_match_the_modewise_oracle_top_sector_first"
            "[2-16-42-5]",
            "tests/test_graphs.py::TestFactoredGrams::test_trusted_rows_match_the_modewise_oracle_top_sector_first"
            "[3-8-0-None]",
        ),
    ),
    # A point whose Gaussian rounds to 0 gets zero factors without the kernel.  The kernel gives a finite far
    # amplitude a zero block itself, but refuses the inf and NaN amplitudes of a point near the float maximum.
    Mutant(
        GRAPHS,
        "        live = np.exp(-0.5 * np.sum(np.abs(shifts) ** 2, axis=1)) > 0.0",
        "        live = np.exp(-0.5 * np.sum(np.abs(shifts) ** 2, axis=1)) >= 0.0",
        (
            "tests/test_cli.py::TestExitCodes::test_far_point_takes_the_outcome_of_its_zero_gaussian"
            "[generator-3-two-radii-1.7e+308]",
            "tests/test_cli.py::TestExitCodes::test_far_point_takes_the_outcome_of_its_zero_gaussian"
            "[anticlique-3-two-radii-1.7e+308]",
        ),
    ),
    # graph_generator's ladder is sqrt(k!) times the level convolution: without the scale level k shrinks by 1/k!.
    Mutant(
        FOCK,
        "    return _read_only(np.array([math.isqrt(math.factorial(k) << 256) / (1 << 128) for k in range(top + 1)]))",
        "    return _read_only(np.ones(top + 1))",
        (
            "tests/test_graphs.py::TestGraphGenerator::test_matches_the_oracle_sweep",
            "tests/test_graphs.py::TestGraphGenerator::test_one_mode_is_the_identity",
        ),
    ),
    # sqrt(k!) is rounded once from the exact k!: the root of k! rounded to a double rounds twice, one ulp off at
    # 19 k <= 170 (the first k = 32), and past k = 170 k! is no double.
    Mutant(
        FOCK,
        "math.isqrt(math.factorial(k) << 256) / (1 << 128)",
        "math.sqrt(math.factorial(k))",
        (
            "tests/test_fock.py::TestRootFactorials::test_every_root_is_the_80_digit_root_rounded_once",
            "tests/test_graphs.py::TestGraphGenerator::test_sqrt_factorial_scale_stops_at_cutoff_170",
        ),
    ),
    # The graded ladder's scale is fock's root table: exp(lgamma(N + 1) / 2) is up to 6.2e-14 off sqrt(N!).
    Mutant(
        QUADRATURE,
        "    return ladder * _root_factorials(int(total.max()))[total]",
        "    return ladder * np.exp([0.5 * math.lgamma(k + 1) for k in range(int(total.max()) + 1)])[total]",
        (
            "tests/test_graphs.py::TestSeedBasis::test_graded_scale_is_the_correctly_rounded_root",
            "tests/test_graphs.py::TestSeedBasis::test_graded_entries_to_total_178_match_the_80_digit_reference",
        ),
    ),
    # The check's Grams hold sqrt(k!) sqrt(l!), a double up to k = l = 170: past it the generator and the
    # check both refuse the cutoff.
    Mutant(
        GRAPHS,
        "    if spec.cutoff > 170:",
        "    if False:",
        ("tests/test_graphs.py::TestGraphGenerator::test_sqrt_factorial_scale_stops_at_cutoff_170",),
    ),
    # The generator is Y Y^dag: without the conjugate Y Y^T is neither Hermitian nor the projector.
    Mutant(
        GRAPHS,
        "    return displaced @ displaced.conj().T",
        "    return displaced @ displaced.T",
        (
            "tests/test_graphs.py::TestGraphGenerator::test_matches_the_oracle_sweep",
            "tests/test_graphs.py::TestGraphGenerator::test_one_mode_is_the_identity",
        ),
    ),
    # Where m_j = 0 there is no predecessor: without the mask its position is no tuple of sector N-1.
    Mutant(
        QUADRATURE,
        "    lower = np.where(plan.occupations.T > 0, position[lowered] - starts[total - 1], 0)",
        "    lower = position[lowered] - starts[total - 1]",
        (
            "tests/test_graphs.py::TestSectorPlan::test_predecessors_lie_in_the_previous_sector",
            "tests/test_warm_path.py::TestCacheContract::test_keys_on_every_shape_argument[predecessors]",
        ),
    ),
    # A predecessor's position counts from the start of sector N-1.  From sector N's own start it is negative:
    # as an index into sector N-1 it wraps to the same tuple, but ``lifted`` then reads mode j - 1's column
    # block for mode j, so V is the sweep of phi with its columns shifted.  That phi is unitary too, so the
    # resolution still holds, and the comparison set's reports stay within the golden file's float tolerance.
    Mutant(
        QUADRATURE,
        "position[lowered] - starts[total - 1], 0)",
        "position[lowered] - starts[total], 0)",
        (
            "tests/test_graphs.py::TestSectorPlan::test_predecessors_lie_in_the_previous_sector",
            "tests/test_warm_path.py::TestCacheContract::test_keys_on_every_shape_argument[predecessors]",
            "tests/test_graphs.py::TestSweepPrecision::test_rotation_blocks_match_the_50_digit_reference",
            "tests/test_quadrature.py::TestIntegrateDyads::test_rotation_sectors_match_the_step_by_step_sweep",
        ),
    ),
    # The kernel's Laguerre recurrence runs on L 2^-shift: its first difference must carry the scale too.
    Mutant(
        FOCK,
        "    step = np.asarray((order - x) * scale, dtype=float)",
        "    step = np.asarray(order - x, dtype=float)",
        (
            "tests/test_fock.py::TestDisplacementMatrix::test_rows_stay_unit_where_laguerre_values_overflow",
            "tests/test_fock.py::TestLaguerre::test_power_of_two_scale_keeps_values_in_range",
        ),
    ),
    # The recurrence's x L_n term scaled by 1 + 1e-13: past the 50-digit pins of the values and of the rules.
    Mutant(
        FOCK,
        "            np.multiply(x, vals[n], out=scratch)",
        "            np.multiply(x * (1 + 1e-13), vals[n], out=scratch)",
        (
            "tests/test_fock.py::TestLaguerre::test_recurrence_matches_the_50_digit_reference",
            "tests/test_quadrature.py::TestGaussLaguerre::test_rule_matches_the_50_digit_reference",
        ),
    ),
    # The weights are 1 / (s L_{Q-1}^(1)(s)^2): at order 0 they no longer sum to 1.
    Mutant(
        QUADRATURE,
        "laguerre_sequence(order - 1, 1, nodes)",
        "laguerre_sequence(order - 1, 0, nodes)",
        ("tests/test_quadrature.py::TestGaussLaguerre::test_every_order_builds",),
    ),
    # Without the Newton polish the eigensolver's nodes stand: past the 50-digit node pins, and no longer the
    # rule scipy's tridiagonal eigensolve gives after the same polish.
    Mutant(
        QUADRATURE,
        "    nodes = nodes - nodes * values[-1] / (order * (values[-1] - values[-2]))",
        "    nodes = nodes - 0 * values[-1]",
        (
            "tests/test_quadrature.py::TestGaussLaguerre::test_rule_matches_the_50_digit_reference",
            "tests/test_quadrature.py::TestGaussLaguerre::test_bitwise_equal_to_tridiagonal_reference",
        ),
    ),
    # (-conj alpha)^k is (-1)^k conj(alpha^k): without the (-1)^k every odd order above the diagonal flips sign.
    Mutant(
        FOCK,
        "    signs = np.where(orders % 2, -1.0, 1.0)[:, None] * np.array([1.0, -1.0])",
        "    signs = np.ones((dim, 1)) * np.array([1.0, -1.0])",
        (
            "tests/test_fock.py::TestScalarLadders::test_power_ladders_match_the_schoolbook_chain",
            "tests/test_fock.py::TestDisplacementMatrix::test_adjoint_is_negated_argument_exactly",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # Without its rounding allowance and margin the max-abs floor can pass the GEMM's value of its entry.
    Mutant(
        GRAPHS,
        "    floors = (diagonal - 2 * allowance * norms[first] * reach[first]) / margin",
        "    floors = diagonal",
        ("tests/test_graphs.py::TestResidualPruning::test_floor_stays_below_a_diagonal_that_cancels",),
    ),
    # A row block forms every column whose bound beats the threshold: one short drops the last of them.
    Mutant(
        GRAPHS,
        "        width = bisect.bisect_left(bounds, True, key=lambda bound: tops[start] * bound <= threshold)",
        "        width = bisect.bisect_left(bounds, True, key=lambda bound: tops[start] * bound <= threshold) - 1",
        (
            "tests/test_graphs.py::TestResidualPruning::test_trusted_blocks_match_full_sweep",
            "tests/test_graphs.py::TestResidualPruning::test_sweep_by_entries_at_n5_cutoff_10",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # A stack's matrices keep a 2-D product's row blocks: one GEMM per whole matrix passes the serial budget.
    Mutant(
        QUADRATURE,
        "    step = SERIAL_GEMM_MACS // row if 0 < 2 * row <= SERIAL_GEMM_MACS else max(count, 1)",
        "    step = SERIAL_GEMM_MACS // row if 0 < 2 * row <= SERIAL_GEMM_MACS and a.ndim == 2 else max(count, 1)",
        (
            "tests/test_quadrature.py::TestSerialMatmul::test_a_stack_takes_each_matrix_in_its_own_row_blocks",
            "tests/test_graphs.py::TestFactoredGrams::test_every_gemm_goes_through_serial_matmul",
        ),
    ),
    # B X B^dag: without the conjugate the box block is B X B^T, which a complex (Haar) phi shows.
    Mutant(
        QUADRATURE,
        "    return np.multiply.outer(ladder, ladder.conj()) * operator[np.ix_(total, total)]",
        "    return np.multiply.outer(ladder, ladder) * operator[np.ix_(total, total)]",
        (
            "tests/test_graphs.py::TestProjectionCheck::test_seed_block_is_the_dense_projector_on_the_box",
            "tests/test_quadrature.py::TestGraphResolution::test_backends_agree_entrywise",
        ),
    ),
    # The seed projector is diag(N <= cutoff) in total occupation: one grade more moves the backend deviation.
    Mutant(
        GRAPHS,
        "np.diag(np.arange(top + 1) <= spec.cutoff)",
        "np.diag(np.arange(top + 1) <= spec.cutoff + 1)",
        (
            "tests/test_graphs.py::TestProjectionCheck::test_one_plan_equals_the_two_plan_reference_bitwise",
            "tests/test_graphs.py::TestProjectionCheck::test_matches_dense_oracle_where_the_backend_fails",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # A layout cache that ignores part of its key: a capped plan's predecessors taken from the uncapped plan.
    # Their common sectors agree, so the V sweep does not show it; the arrays' length and the key contract do.
    Mutant(
        QUADRATURE,
        "    plan = _sector_plan(modes, rows, top)\n",
        "    plan = _sector_plan(modes, rows)\n",
        (
            "tests/test_warm_path.py::TestCacheContract::test_keys_on_every_shape_argument[predecessors]",
            "tests/test_graphs.py::TestSectorPlan::test_sector_entries_are_read_only_views_of_one_array[4-7-9]",
        ),
    ),
    # U(phi) maps a_j^dag to sum_i phi_ij a_i^dag: V mixed by phi's columns in reverse mode order is another rotation.
    Mutant(
        QUADRATURE,
        '"ij,iac->ajc", spec.phi,',
        '"ij,iac->ajc", spec.phi[:, ::-1],',
        (
            "tests/test_graphs.py::TestSweepPrecision::test_rotation_blocks_match_the_50_digit_reference",
            "tests/test_quadrature.py::TestIntegrateDyads::test_rotation_sectors_match_the_step_by_step_sweep",
        ),
    ),
    # V's number-operator step scaled by 1 + 1e-13: the error compounds over the sectors, past the 50-digit pin.
    Mutant(
        QUADRATURE,
        "        ladder = np.add.reduce(mixed[:, lifted] * roots, axis=1, out=out)",
        "        ladder = np.add.reduce(mixed[:, lifted] * (roots * (1 + 1e-13)), axis=1, out=out)",
        (
            "tests/test_graphs.py::TestSweepPrecision::test_rotation_blocks_match_the_50_digit_reference",
            "tests/test_quadrature.py::TestIntegrateDyads::test_rotation_sectors_match_the_step_by_step_sweep",
        ),
    ),
    # The backend's peaks read the trusted box alone: without the mask a NaN past it reaches the verdict.
    Mutant(
        GRAPHS,
        "    boxed = np.where(np.all(plan.occupations <= trusted_block, axis=1), np.abs(entries), 0.0)",
        "    boxed = np.abs(entries)",
        (
            "tests/test_graphs.py::TestProjectionCheck::test_peaks_read_the_box_alone_and_keep_a_nan",
            "tests/test_graphs.py::TestProjectionCheck::test_matches_dense_oracle_where_the_backend_fails",
        ),
    ),
    # exact_rule is the smallest exact rule: one radius short is not exact on the top grade.
    Mutant(
        QUADRATURE,
        "    return (span + 2) // 2, span + 1",
        "    return span // 2, span + 1",
        (
            "tests/test_quadrature.py::TestExactRule::test_exact_and_sharp_on_the_rule_operator",
            "tests/test_quadrature.py::TestExactRule::test_default_rule_is_exact_and_sharp",
        ),
    ),
    # One radius over is exact but not the smallest: one radius fewer than it still passes.
    Mutant(
        QUADRATURE,
        "return (span + 2) // 2,",
        "return (span + 4) // 2,",
        (
            "tests/test_quadrature.py::TestExactRule::test_exact_and_sharp_on_the_rule_operator",
            "tests/test_quadrature.py::TestExactRule::test_default_rule_is_exact_and_sharp",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # One angle short aliases grades span apart: M = span divides span - 0.
    Mutant(
        QUADRATURE,
        "// 2, span + 1",
        "// 2, span",
        (
            "tests/test_quadrature.py::TestExactRule::test_exact_and_sharp_on_the_rule_operator",
            "tests/test_quadrature.py::TestExactRule::test_default_rule_is_exact_and_sharp",
        ),
    ),
    # One angle over is exact but not the smallest.
    Mutant(
        QUADRATURE,
        ", span + 1\n",
        ", span + 2\n",
        (
            "tests/test_quadrature.py::TestExactRule::test_exact_and_sharp_on_the_rule_operator",
            "tests/test_quadrature.py::TestExactRule::test_default_displaced_rule_is_exact",
        ),
    ),
    # The projection and resolution spans reach total occupation n t: without the n, n >= 3 rules alias.
    Mutant(
        "src/fockgraph/config.py",
        "        return n * trusted_block",
        "        return trusted_block",
        ("tests/test_quadrature.py::TestExactRule::test_default_rule_is_exact_and_sharp",),
    ),
    # The displaced seed reaches rows 0..t past the largest cutoff: without the t the default rule is too small.
    Mutant(
        "src/fockgraph/config.py",
        "    return trusted_block + top",
        "    return top",
        ("tests/test_quadrature.py::TestExactRule::test_default_displaced_rule_is_exact",),
    ),
    # C[m, n] vanishes unless M divides m - n: without the alias mask every pair of grades couples.  The graph
    # resolution reads C only within a residue class, so the single-mode integrators and the gs reports show it.
    Mutant(
        QUADRATURE,
        "    return np.where(np.equal.outer(residues, residues), serial_matmul(powers, powers.T), 0.0)",
        "    return serial_matmul(powers, powers.T)",
        (
            "tests/test_quadrature.py::TestExactRule::test_exact_and_sharp_on_the_rule_operator",
            "tests/test_quadrature.py::TestRuleAliasing::test_single_mode_integrators_match_per_node_sum",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # Each member pairs with its class in its own and every earlier sector: only its own sector drops the
    # off-diagonal blocks of the graph resolution.
    Mutant(
        QUADRATURE,
        "    lowest = np.searchsorted(keys[heads[by]], keys)",
        "    lowest = rank",
        (
            "tests/test_warm_path.py::TestCacheContract::test_keys_on_every_shape_argument[class_plan]",
            "tests/test_quadrature.py::TestRuleAliasing::test_three_mode_rank_matches_direct",
            "tests/test_quadrature.py::TestRuleAliasing::test_five_mode_rank_matches_direct",
        ),
    ),
    # P_ladder keeps levels m_0 <= cutoff: without the cutoff, tuples past it join the classes of their residue.
    Mutant(
        QUADRATURE,
        "    members = np.flatnonzero(sectors.occupations[:, 0] <= cutoff)",
        "    members = np.arange(len(total))",
        (
            "tests/test_warm_path.py::TestCacheContract::test_keys_on_every_shape_argument[class_plan]",
            "tests/test_quadrature.py::TestRuleAliasing::test_three_mode_rank_matches_direct",
            "tests/test_quadrature.py::TestRuleAliasing::test_five_mode_rank_matches_direct",
        ),
    ),
    # A point's displacement is r e^{i theta}.  Conjugated, every compression_constant stays (|g - a| is invariant
    # under conjugation), and the oracles read the same stored value: only a test that forms r e^{i theta} itself
    # shows it, or the comparison set's anticlique with a non-DFT phi (the DFT phi's conjugate is itself with its
    # modes permuted, so conjugation is a symmetry of every other case).
    Mutant(
        GRAPHS,
        "radii * np.exp(1j * phases)",
        "radii * np.exp(-1j * phases)",
        (
            "tests/test_graphs.py::TestGeneratorParams::test_displacement_is_formed_once",
            "tests/test_graphs.py::TestGraphGenerator::test_displaces_by_r_e_i_theta",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # A point near the float maximum has inf or NaN per-mode amplitudes; without errstate numpy warns forming them.
    Mutant(
        GRAPHS,
        'with np.errstate(over="ignore", invalid="ignore"):  # a point near the float maximum',
        "if True:  # a point near the float maximum",
        (
            "tests/test_cli.py::TestExitCodes::test_far_point_takes_the_outcome_of_its_zero_gaussian"
            "[generator-3-two-radii-1.7e+308]",
            "tests/test_cli.py::TestExitCodes::test_far_point_takes_the_outcome_of_its_zero_gaussian"
            "[anticlique-3-two-radii-1.7e+308]",
        ),
    ),
    # Past the Gaussian edge the block is zero; formed instead, (1e30, 8) overflows and 1e160 squares to inf.
    Mutant(
        FOCK,
        "    dead = [include_gaussian and _GAUSSIAN_EDGE < abs(a) < math.inf for a in batch]",
        "    dead = [False for a in batch]",
        ("tests/test_fock.py::TestDisplacementMatrix::test_zero_block_where_the_gaussian_rounds_to_zero",),
    ),
    # A dead amplitude is formed at alpha = 0: without the assignment its block is D(0), the identity.
    Mutant(
        FOCK,
        "        out[dead] = 0.0\n",
        "",
        ("tests/test_fock.py::TestDisplacementMatrix::test_zero_block_where_the_gaussian_rounds_to_zero",),
    ),
    # |alpha|^2 is the IEEE product: libm's pow(x, 2) is one ulp off it for about 0.09% of doubles.
    Mutant(
        FOCK,
        "    s = np.array([m * m for m in magnitudes])",
        "    s = np.array([m**2 for m in magnitudes])",
        ("tests/test_fock.py::TestDisplacementMatrix::test_squared_modulus_is_the_correctly_rounded_product",),
    ),
    # Under Szego's bound alone the shift is too large at large s: the scaled Laguerre values underflow while the
    # ratio overflows, or lose their low bits.
    Mutant(
        FOCK,
        "np.minimum(0.5 * s, deepest * np.log1p(s))",
        "0.5 * s",
        ("tests/test_fock.py::TestDisplacementMatrix::test_tail_factored_far_amplitude_is_formed",),
    ),
    # covariant_gs is convergence on the one-rung ladder at its own cutoff.
    Mutant(
        "src/fockgraph/runner.py",
        "    for cutoff in cfg.cutoff_ladder or (cfg.cutoff,):",
        "    for cutoff in cfg.cutoff_ladder or (cfg.cutoff + 1,):",
        (
            "tests/test_quadrature.py::TestExactRule::test_default_displaced_rule_is_exact",
            "tests/test_perfbench_contract.py::test_traced_experiments_pass_and_count_nodes",
            "tests/test_golden_reports.py::test_comparison_set_matches_golden_file",
        ),
    ),
    # Past cutoff ln|alpha| <= ln(float max) alpha^cutoff is inf, and inf times the ratio's 0 is a NaN entry: the
    # kernel still refuses it, but only as an entry past the float range.
    Mutant(
        FOCK,
        "    if not np.isfinite(powers[-2]).all():",
        "    if False:",
        (
            "tests/test_fock.py::TestDisplacementMatrix::test_rejects_an_amplitude_whose_power_overflows",
            "tests/test_fock.py::TestDisplacementMatrix::test_rejects_a_non_finite_amplitude",
        ),
    ),
    # The check's own threading switch restored: S taken whole, for BLAS to thread, once eight rows pass the budget.
    Mutant(
        GRAPHS,
        "    overlap = serial_matmul(ladder.conj().T, ladder)\n",
        "    matmul = serial_matmul if 8 * ladder.size <= SERIAL_GEMM_MACS else np.matmul\n"
        "    overlap = matmul(ladder.conj().T, ladder)\n",
        ("tests/test_graphs.py::TestFactoredGrams::test_check_products_go_through_serial_matmul",),
    ),
    # Without the carry the Gaussian is multiplied in as a subnormal float past |alpha| = 37.64.
    Mutant(
        FOCK,
        "max(0, math.ceil((0.5 * v - _NORMAL_LOG_FLOOR) / _LN2)) if include_gaussian else 0 for v",
        "0 for v",
        (
            "tests/test_fock.py::TestDisplacementMatrix::"
            "test_normal_entries_keep_their_bits_where_the_gaussian_is_subnormal",
        ),
    ),
    # The read-only rule without its view step: a cache's views refuse writes, but the arrays they view do not,
    # so a write through ``orders.base`` moves every later displacement matrix of that shape.
    Mutant(
        FOCK,
        "        _read_only(value.base)\n",
        "",
        (
            "tests/test_warm_path.py::TestCacheContract::test_returns_read_only_arrays[kernel_grid]",
            "tests/test_warm_path.py::TestCacheContract::test_returns_read_only_arrays[convolution_plan]",
        ),
    ),
    # GraphSpec without the rebuild mixin: a deep copy copies phi as a plain, writable array.
    Mutant(
        "src/fockgraph/multimode.py",
        "class GraphSpec(_RebuildOnCopy):",
        "class GraphSpec:",
        ("tests/test_graphs.py::TestGraphSpec::test_copies_keep_phi_read_only",),
    ),
]


def failed_tests(root: Path, tests) -> set:
    """The ids among ``tests`` that fail or error when pytest runs them in ``root``."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    failed = set()
    for line in run.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    return failed


def main(argv) -> int:
    chosen = [MUTANTS[int(index)] for index in argv] if argv else MUTANTS
    survived = 0
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as workdir:
            copy = Path(workdir) / "repo"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"BROKEN   {mutant.path}: old text occurs {text.count(mutant.old)} times: {mutant.old!r}")
                survived += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            failed = failed_tests(copy, mutant.tests)
            passed = [test for test in mutant.tests if not any(f == test or f.startswith(test + "[") for f in failed)]
        survived += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed  '} {mutant.path}: {mutant.old.strip()!r}", *passed, sep="\n  ")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
