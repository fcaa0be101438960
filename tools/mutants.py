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


GRAPHS = "src/fockgraph/graphs.py"

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
    # A point whose Gaussian rounds to 0 gets zero factors without the kernel, which turns inf * 0 into NaN.
    Mutant(
        GRAPHS,
        "        live = np.exp(-0.5 * np.sum(np.abs(shifts) ** 2, axis=1)) > 0.0",
        "        live = np.exp(-0.5 * np.sum(np.abs(shifts) ** 2, axis=1)) >= 0.0",
        (
            "tests/test_cli.py::TestExitCodes::test_generator_past_its_gaussian_adds_nothing",
            "tests/test_cli.py::TestExitCodes::test_anticlique_past_its_gaussian_cannot_be_checked",
        ),
    ),
    # graph_generator's ladder is sqrt(k!) times the level convolution: without the scale level k shrinks by 1/k!.
    Mutant(
        GRAPHS,
        "    return np.sqrt([float(math.factorial(k)) for k in range(levels)])",
        "    return np.ones(levels)",
        (
            "tests/test_graphs.py::TestGraphGenerator::test_matches_the_oracle_sweep",
            "tests/test_graphs.py::TestGraphGenerator::test_one_mode_is_the_identity",
        ),
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
        GRAPHS,
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
        GRAPHS,
        "position[lowered] - starts[total - 1], 0)",
        "position[lowered] - starts[total], 0)",
        (
            "tests/test_graphs.py::TestSectorPlan::test_predecessors_lie_in_the_previous_sector",
            "tests/test_warm_path.py::TestCacheContract::test_keys_on_every_shape_argument[predecessors]",
            "tests/test_graphs.py::TestSweepPrecision::test_rotation_blocks_match_the_50_digit_reference",
            "tests/test_quadrature.py::TestIntegrateDyads::test_rotation_sectors_match_the_step_by_step_sweep",
        ),
    ),
    # The Laguerre recurrence runs on L 2^-shift: its first difference must carry the scale too.
    Mutant(
        "src/fockgraph/fock.py",
        "    step = (grid.orders - s) * lag[0]",
        "    step = grid.orders - s",
        ("tests/test_fock.py::TestDisplacementMatrix::test_rows_stay_unit_where_laguerre_values_overflow",),
    ),
    # (-conj alpha)^k is (-1)^k conj(alpha^k): without the (-1)^k every odd order above the diagonal flips sign.
    Mutant(
        "src/fockgraph/fock.py",
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
        "src/fockgraph/quadrature.py",
        "    step = SERIAL_GEMM_MACS // row if 0 < 2 * row <= SERIAL_GEMM_MACS else max(count, 1)",
        "    step = SERIAL_GEMM_MACS // row if 0 < 2 * row <= SERIAL_GEMM_MACS and a.ndim == 2 else max(count, 1)",
        (
            "tests/test_quadrature.py::TestSerialMatmul::test_a_stack_takes_each_matrix_in_its_own_row_blocks",
            "tests/test_graphs.py::TestFactoredGrams::test_every_gemm_goes_through_serial_matmul",
        ),
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
