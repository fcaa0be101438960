"""Operator-graph tests: seed projectors, generators, anticliques, compression."""

import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

import fockgraph.graphs
from fockgraph import (
    CompressionResult,
    GeneratorParams,
    GraphSpec,
    coherent_identity,
    compression_check,
    compression_constant,
    displaced_mode_amplitudes,
    draw_generator_params,
    graph_generator,
    graph_resolution,
    polar_scheme,
    seed_basis,
    seed_projector_quadrature,
)
from fockgraph.config import config_from_dict, dft_matrix
from fockgraph.fock import displacement_matrix
from fockgraph.runner import DEFAULT_DRAW_RADIUS, DEFAULT_GENERATOR_DRAWS, run_experiment
from fockgraph.cli import main
from fockgraph.graphs import _graded_ladder, _predecessors, _rotation_sectors, _sector_plan, _seed_block
from fockgraph.quadrature import SERIAL_GEMM_MACS, serial_matmul
from oracles import (
    dense_generator,
    dense_projection_deviations,
    displace_modewise,
    exponential_partial_sum,
    full_residual_deviations,
    graded_entries_reference,
    graph_displacement,
    haar_unitary,
    index_of,
    mode_ladder,
    occupations,
    poisson_cdf,
    sector_ladders,
    seed_projector,
    trusted_mask,
    three_mode_ladder_reference,
    two_mode_sweeps_reference,
    two_plan_projection_deviations,
)


def block(op, mask):
    idx = np.flatnonzero(mask)
    return op[np.ix_(idx, idx)]


def box_ladders(spec, shifts, rows):
    """The oracle sweep's rows in row-major box order, as a (K, rows^n, cutoff+1) stack."""
    ladder = sector_ladders(spec, shifts, rows)[np.argsort(_sector_plan(spec.modes, rows).order)]
    return ladder.reshape(rows**spec.modes, spec.cutoff + 1, len(shifts)).transpose(2, 0, 1)


def mixing_matrix(modes, mixing, rng):
    return dft_matrix(modes) if mixing == "dft" else haar_unitary(modes, rng)


def within(result, tolerance):
    deviations = (result.max_abs_deviation, result.frobenius_deviation, result.scalar_relative_error)
    return max(deviations) <= tolerance


class TestGraphSpec:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            GraphSpec(phi=np.array([[1.0, 0.0], [0.0, 0.0]]), modes=2, cutoff=4)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="2x2"):
            GraphSpec(phi=np.eye(3), modes=2, cutoff=4)

    def test_phi_is_read_only(self):
        spec = GraphSpec(phi=np.eye(2), modes=2, cutoff=4)
        with pytest.raises(ValueError):
            spec.phi[0, 0] = 2.0

    def test_caller_phi_stays_its_own(self):
        phi = dft_matrix(2)
        spec = GraphSpec(phi=phi, modes=2, cutoff=4)
        phi[0, 0] = 1.0
        assert np.array_equal(spec.phi, dft_matrix(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GraphSpec(phi=np.eye(2), modes=2, cutoff=0), "cutoff must be >= 1, got 0"),
        (lambda: GeneratorParams(radii=[0.1, 0.2], phases=[0.0]), "radii and phases must have equal length"),
        (
            lambda: displaced_mode_amplitudes(
                GraphSpec(phi=dft_matrix(3), modes=3, cutoff=4), GeneratorParams([0.1], [0.0])
            ),
            "expected 2 parameter pairs, got 1",
        ),
        (
            lambda: compression_constant(GeneratorParams([0.1], [0.0]), GeneratorParams([0.1, 0.2], [0.0, 0.0])),
            "parameter tuples must have equal length",
        ),
    ],
    ids=["spec-cutoff-0", "params-unequal-lengths", "amplitudes-pair-count", "constant-unequal-tuples"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


class TestGeneratorParams:
    def test_caller_arrays_stay_their_own(self):
        radii, phases = np.array([0.3]), np.array([0.1])
        params = GeneratorParams(radii=radii, phases=phases)
        radii[0], phases[0] = -5.0, 2.0
        assert params.radii.tolist() == [0.3] and params.phases.tolist() == [0.1]


class TestSeedProjector:
    def test_identity_mixing_structure(self):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=5)
        vacuum_dyad = np.zeros((6, 6))
        vacuum_dyad[0, 0] = 1.0
        expected = np.kron(np.eye(6), vacuum_dyad)
        assert np.abs(seed_projector(spec) - expected).max() < 1e-15

    def test_idempotent_hermitian_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=12)
            proj = seed_projector(spec)
            assert np.abs(proj @ proj - proj).max() < 1e-12
            assert np.abs(proj - proj.conj().T).max() < 1e-13
            assert abs(np.trace(proj).real - 13) < 1e-9

    def test_quadrature_backend_agrees_on_trusted_block(self):
        rng = np.random.default_rng(17)
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=16)
        rank_sum = seed_projector(spec)
        quad = seed_projector_quadrature(spec, polar_scheme(12, 34))
        mask = trusted_mask(spec.space, 8)
        assert np.abs(block(rank_sum - quad, mask)).max() < 1e-8

    def test_quadrature_identity_mixing_factorizes(self):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=4)
        scheme = polar_scheme(8, 16)
        quad = seed_projector_quadrature(spec, scheme)
        vacuum_dyad = np.zeros((5, 5), dtype=complex)
        vacuum_dyad[0, 0] = 1.0
        expected = np.kron(coherent_identity(4, scheme), vacuum_dyad)
        assert np.abs(quad - expected).max() < 1e-12

    def test_quadrature_hermitian_psd(self):
        rng = np.random.default_rng(19)
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=6)
        quad = seed_projector_quadrature(spec, polar_scheme(5, 9))
        assert np.abs(quad - quad.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(quad).min() > -1e-12

    def test_basis_columns_orthonormal(self):
        rng = np.random.default_rng(20)
        for modes, cutoff in ((2, 8), (3, 4), (3, 5)):
            for mixing in ("dft", "haar"):
                spec = GraphSpec(phi=mixing_matrix(modes, mixing, rng), modes=modes, cutoff=cutoff)
                basis = seed_basis(spec)
                gram = basis.conj().T @ basis
                assert np.abs(gram - np.eye(cutoff + 1)).max() < 1e-12


class TestProjectionCheck:
    """The column-norm projector check, ``graphs.projection_deviations``, against the dense one."""

    @staticmethod
    def projection_config(modes, cutoff, phi=None, **fields):
        data = {"experiment": "projection", "n": modes, "cutoff": cutoff, **fields}
        if phi is not None:
            data["phi"] = [[float(z.real), float(z.imag)] for z in phi.ravel()]
        return config_from_dict(data)

    def dense_oracle(self, cfg):
        spec = GraphSpec(phi=cfg.phi, modes=cfg.n, cutoff=cfg.cutoff)
        basis = seed_basis(spec)
        scheme = polar_scheme(cfg.radial_order, cfg.angular_order)
        quad = seed_projector_quadrature(spec, scheme, cfg.trusted_block)
        box = np.flatnonzero(trusted_mask(spec.space, cfg.trusted_block))
        return spec, basis, quad, dense_projection_deviations(basis, quad, box)

    def check_against_dense_oracle(self, modes, cutoff, phi=None, **fields):
        cfg = self.projection_config(modes, cutoff, phi, **fields)
        spec, _, quad, expected = self.dense_oracle(cfg)
        scheme = polar_scheme(cfg.radial_order, cfg.angular_order)
        got = fockgraph.graphs.projection_deviations(spec, scheme, cfg.trusted_block)
        assert got.keys() == expected.keys() - {"hermiticity"}
        # The check sums the sector norms, the oracle the dense diagonal in index order: the same terms in
        # another order.  Over these cases the two traces differ by at most one unit in the last place of
        # cutoff + 1; the bound allows two.
        assert abs(got.pop("trace") - expected["trace"]) <= 2 * math.ulp(cfg.cutoff + 1)
        # Where a config sets the rule or the box, the backend deviation is O(0.1) and decides a FAIL:
        # it is held within a few units in the last place of the dense value, the rest within 1e-15.
        bounds = {"backend": 4 * math.ulp(expected["backend"])} if fields else {}
        for key, value in got.items():
            assert abs(value - expected[key]) <= bounds.get(key, 1e-15), key
        assert run_experiment(cfg).passed == (max(expected.values()) <= cfg.tolerance)

    # n=3 cutoff 16 has grades of up to 153 rows.
    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8), (4, 4), (3, 16), (4, 8)])
    def test_matches_dense_oracle(self, modes, cutoff):
        self.check_against_dense_oracle(modes, cutoff)

    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8), (3, 16), (4, 4)])
    def test_matches_dense_oracle_for_haar_mixing(self, modes, cutoff):
        self.check_against_dense_oracle(modes, cutoff, haar_unitary(modes, np.random.default_rng(modes * cutoff)))

    @pytest.mark.parametrize("mixing", ["dft", "haar"])
    @pytest.mark.parametrize(
        "modes, cutoff, fields",
        [
            (2, 16, {"radial_order": 3, "angular_order": 5}),
            (3, 8, {"trusted_block": 8, "radial_order": 2, "angular_order": 3}),
            (4, 4, {"trusted_block": 4, "radial_order": 2, "angular_order": 2}),
            (2, 40, {"trusted_block": 40}),
        ],
        ids=["n2-c16-Q3-M5", "n3-c8-t8-Q2-M3", "n4-c4-t4-Q2-M2", "n2-c40-t40"],
    )
    def test_matches_dense_oracle_where_the_backend_fails(self, modes, cutoff, fields, mixing):
        # Aliased rules, and whole boxes, whose totals past the cutoff the integral reaches and P does not.
        phi = None if mixing == "dft" else haar_unitary(modes, np.random.default_rng(modes * cutoff))
        self.check_against_dense_oracle(modes, cutoff, phi, **fields)

    # Blocks inside, at and past cutoff // n, and whole boxes, where the plan runs past the cutoff.
    @pytest.mark.parametrize("mixing", ["dft", "haar"])
    @pytest.mark.parametrize(
        "modes, cutoff, block",
        [(2, 16, 3), (2, 16, 8), (2, 16, 12), (3, 8, 2), (3, 8, 8), (3, 16, 5), (2, 40, 40), (4, 6, 1)],
    )
    def test_one_plan_equals_the_two_plan_reference_bitwise(self, modes, cutoff, block, mixing):
        phi = None if mixing == "dft" else haar_unitary(modes, np.random.default_rng(modes * cutoff))
        cfg = self.projection_config(modes, cutoff, phi, trusted_block=block)
        spec = GraphSpec(phi=cfg.phi, modes=modes, cutoff=cutoff)
        scheme = polar_scheme(cfg.radial_order, cfg.angular_order)
        got = fockgraph.graphs.projection_deviations(spec, scheme, block)
        expected = two_plan_projection_deviations(spec, scheme, block)
        assert list(got) == list(expected)
        for key, value in expected.items():
            assert np.float64(got[key]).tobytes() == np.float64(value).tobytes(), key

    @pytest.mark.parametrize("modes, cutoff, block", [(2, 16, 8), (2, 16, 12), (3, 8, 8)])
    def test_grades_once_on_one_plan(self, monkeypatch, modes, cutoff, block):
        calls = []

        def counted(name):
            original = getattr(fockgraph.graphs, name)

            def call(*args):
                calls.append(name)
                return original(*args)

            return call

        for name in ("_sector_plan", "_graded_ladder"):
            monkeypatch.setattr(fockgraph.graphs, name, counted(name))
        spec = GraphSpec(phi=dft_matrix(modes), modes=modes, cutoff=cutoff)
        fockgraph.graphs.projection_deviations(spec, polar_scheme(cutoff + 1, 2 * cutoff + 2), block)
        assert sorted(calls) == ["_graded_ladder", "_sector_plan"]

    def test_peaks_read_the_box_alone_and_keep_a_nan(self, monkeypatch):
        # n=2 cutoff 16 at block 12: the plan holds every tuple of total <= 24, and (12, 12) is in the box,
        # (16, 8) is not.  A NaN on a box tuple past the cutoff reaches only the backend, and stays NaN.
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=16)
        scheme = polar_scheme(17, 34)
        for poisoned, backend_is_nan in (((12, 12), True), ((16, 8), False)):

            def nan_at(spec, occupations, poisoned=poisoned):
                entries = _graded_ladder(spec, occupations)
                entries[np.all(occupations == poisoned, axis=1)] = np.nan
                return entries

            monkeypatch.setattr(fockgraph.graphs, "_graded_ladder", nan_at)
            got = fockgraph.graphs.projection_deviations(spec, scheme, 12)
            assert math.isnan(got.pop("backend")) is backend_is_nan
            assert all(math.isfinite(value) for value in got.values())

    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8), (4, 4)])
    def test_dense_hermiticity_is_rounding_alone(self, modes, cutoff):
        # P = B B^dag is Hermitian by construction: P[i, j] and conj(P[j, i]) differ only by the rounding
        # of one product (about eps/4 max|B|^2), which no defect in B can move, so the check omits it.
        for seed in range(5):
            cfg = self.projection_config(modes, cutoff, haar_unitary(modes, np.random.default_rng(seed)))
            _, basis, _, expected = self.dense_oracle(cfg)
            assert expected["hermiticity"] <= np.finfo(float).eps * np.abs(basis).max() ** 2

    @pytest.mark.parametrize("mixing", ["dft", "haar"])
    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8), (4, 6)])
    def test_graded_entries_are_the_seed_basis_nonzeros(self, modes, cutoff, mixing):
        # The check reads B graded, one entry per tuple of total <= cutoff; the dense basis holds
        # those entries bit for bit at (tuple, total) and exact zeros everywhere else.
        spec = GraphSpec(phi=mixing_matrix(modes, mixing, np.random.default_rng(modes)), modes=modes, cutoff=cutoff)
        occupations = _sector_plan(modes, cutoff + 1, cutoff).occupations
        at = occupations @ (cutoff + 1) ** np.arange(modes)[::-1], occupations.sum(axis=1)
        basis = seed_basis(spec)
        entries = _graded_ladder(spec, occupations)
        assert np.array_equal(basis[at], entries)
        assert np.all(entries != 0)
        basis[at] = 0.0
        assert not basis.any()

    @pytest.mark.parametrize("mixing", ["dft", "haar"])
    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8), (4, 4)])
    def test_seed_block_is_the_dense_projector_on_the_box(self, modes, cutoff, mixing):
        # The direct backend's projector: B diag(N <= cutoff) B^dag, at the default trusted box and on
        # the whole box, whose rows of total past the cutoff hold exact zeros.
        spec = GraphSpec(phi=mixing_matrix(modes, mixing, np.random.default_rng(modes)), modes=modes, cutoff=cutoff)
        dense = seed_projector(spec)
        for block in (cutoff // modes, cutoff):
            got = _seed_block(spec, block + 1, np.diag(np.arange(modes * block + 1) <= cutoff) * 1.0)
            box = np.flatnonzero(trusted_mask(spec.space, block))
            assert np.abs(got - dense[np.ix_(box, box)]).max() <= 1e-15
            total = occupations(spec.space)[box].sum(axis=1)
            assert not got[(total[:, None] != total) | (total[:, None] > cutoff)].any()

    def test_scaled_column_fails_on_idempotency(self, monkeypatch):
        def scaled(spec, occupations):
            entries = _graded_ladder(spec, occupations)
            entries[occupations.sum(axis=1) == 5] *= 1.001
            return entries

        monkeypatch.setattr(fockgraph.graphs, "_graded_ladder", scaled)
        cfg = self.projection_config(2, 16)
        report = run_experiment(cfg)
        assert report.passed is False
        # The Frobenius deviation is ||P^2 - P||_F / ||P||_F alone.
        assert report.frobenius_deviation > 1e3 * cfg.tolerance

    def test_builds_no_dense_projector(self):
        # n=3 cutoff 12 (dim 2197): a dense P alone would hold 77 MB, and so would one complex square of
        # the trusted box at block 12.  The quadrature is compared grade by grade, so neither is formed.
        # The whole box FAILs: its grades run to 36, and the default rule (M = 26) aliases them.
        for fields, passes in (({}, True), ({"trusted_block": 12}, False)):
            cfg = self.projection_config(3, 12, **fields)
            tracemalloc.start()
            try:
                report = run_experiment(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.passed is passes
            assert peak < 5 * 2**20, fields


def multinomial_oracle(spec):
    """Column k entry at (k_1..k_n), sum k_j = k: sqrt(k!/prod k_j!) prod c_j^k_j."""
    column = spec.phi[:, 0]
    basis = np.zeros((spec.space.dim, spec.cutoff + 1), dtype=complex)
    for index, occupation in enumerate(occupations(spec.space)):
        total = int(occupation.sum())
        if total <= spec.cutoff:
            log_coeff = 0.5 * (gammaln(total + 1.0) - sum(gammaln(k + 1.0) for k in occupation))
            basis[index, total] = math.exp(log_coeff) * math.prod(c ** int(k) for c, k in zip(column, occupation))
    return basis


# Rational orthogonal phi = rows / denominator and cutoffs, with the max-abs error of graphs._graded_ladder
# against the 50-digit reference as measured; the float phi is the nearest double of each entry.  A pin
# holds within PRECISION_MARGIN of its value both ways: above it the entries lost accuracy, below it the
# README's figure is stale or the reference rounds as the float code does.
ROTATION_2 = ((3, 4), (4, -3))
ROTATION_3 = ((1, 2, 2), (2, 1, -2), (2, -2, 1))
PRECISION_PINS = [
    (ROTATION_2, 5, 40, 2.89e-15),
    (ROTATION_2, 5, 56, 6.21e-15),
    (ROTATION_2, 5, 63, 6.21e-15),
    (ROTATION_3, 3, 16, 4.99e-16),
]
PRECISION_MARGIN = 1.25


def decimal_error(got, reference) -> float:
    """Max-abs of a real float array's rows against rows of Decimals, at 50 digits."""
    with localcontext() as context:
        context.prec = 50
        return float(max(abs(Decimal(x) - y) for row, want in zip(got.tolist(), reference) for x, y in zip(row, want)))


class TestSeedBasis:
    def test_zero_power_is_vacuum(self):
        spec = GraphSpec(phi=haar_unitary(2, np.random.default_rng(24)), modes=2, cutoff=4)
        vacuum = seed_basis(spec)[:, 0]
        assert vacuum[0] == 1.0
        assert np.abs(vacuum[1:]).max() == 0.0

    def test_single_quantum_superposition(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=2)
        expected = np.zeros(spec.space.dim, dtype=complex)
        expected[index_of((1, 0), spec.space)] = 1 / math.sqrt(2)
        expected[index_of((0, 1), spec.space)] = 1 / math.sqrt(2)
        assert np.abs(seed_basis(spec)[:, 1] - expected).max() < 1e-15

    # Brute force: apply (sum_j c_j a_j^dag)^k to the vacuum with dense
    # ladder matrices and normalize by sqrt(k!).
    @pytest.mark.parametrize("mixing", ["dft", "haar"])
    @pytest.mark.parametrize("modes, cutoff", [(2, 6), (3, 4)])
    def test_matches_ladder_operator_oracle(self, modes, cutoff, mixing):
        spec = GraphSpec(phi=mixing_matrix(modes, mixing, np.random.default_rng(21)), modes=modes, cutoff=cutoff)
        space = spec.space
        lifted = sum(c * mode_ladder(space, j + 1, "create") for j, c in enumerate(spec.phi[:, 0]))
        state = np.zeros(space.dim, dtype=complex)
        state[0] = 1.0
        basis = seed_basis(spec)
        for k in range(cutoff + 1):
            assert np.abs(basis[:, k] - state).max() < 1e-12
            state = lifted @ state / math.sqrt(k + 1)

    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (2, 89), (3, 8)])
    def test_matches_multinomial_formula(self, modes, cutoff):
        spec = GraphSpec(phi=haar_unitary(modes, np.random.default_rng(cutoff)), modes=modes, cutoff=cutoff)
        assert np.abs(seed_basis(spec) - multinomial_oracle(spec)).max() <= 1e-13

    @pytest.mark.parametrize("rows, denominator, cutoff, pin", PRECISION_PINS)
    def test_graded_entries_match_the_50_digit_reference(self, rows, denominator, cutoff, pin):
        spec = GraphSpec(phi=np.array(rows) / denominator, modes=len(rows), cutoff=cutoff)
        entries = _graded_ladder(spec, _sector_plan(spec.modes, cutoff + 1, cutoff).occupations)
        reference = graded_entries_reference([Fraction(row[0], denominator) for row in rows], cutoff)
        assert not entries.imag.any()
        error = decimal_error(entries.real[None], [reference])
        assert pin / PRECISION_MARGIN <= error <= pin * PRECISION_MARGIN


class TestGraphDisplacement:
    def test_zero_radii_give_identity(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=6)
        params = GeneratorParams(radii=[0.0], phases=[1.3])
        assert np.abs(graph_displacement(spec, params) - np.eye(49)).max() < 1e-15

    def test_identity_mixing_displaces_second_mode_only(self):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=6)
        params = GeneratorParams(radii=[0.7], phases=[0.4])
        expected = np.kron(np.eye(7, dtype=complex), displacement_matrix(0.7 * np.exp(0.4j), 6))
        assert np.abs(graph_displacement(spec, params) - expected).max() < 1e-14

    def test_mode_amplitudes_use_trailing_columns(self):
        rng = np.random.default_rng(29)
        phi = haar_unitary(3, rng)
        spec = GraphSpec(phi=phi, modes=3, cutoff=3)
        params = GeneratorParams(radii=[0.5, 1.1], phases=[0.2, 2.6])
        expected = phi[:, 1] * 0.5 * np.exp(0.2j) + phi[:, 2] * 1.1 * np.exp(2.6j)
        assert np.abs(displaced_mode_amplitudes(spec, params) - expected).max() < 1e-15

    def test_unitarity_on_retained_block(self):
        # Same reach physics as the single-mode case: clean block frozen
        # from measured column-mass decay at ||h|| <= 0.9, cutoff 24.
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=24)
        params = GeneratorParams(radii=[0.9], phases=[0.8])
        disp = graph_displacement(spec, params)
        product = disp.conj().T @ disp
        mask = trusted_mask(spec.space, 10)
        assert np.abs(block(product, mask) - np.eye(int(mask.sum()))).max() < 1e-8


class TestSeedLadders:
    """The oracle sector sweep builds D(h) B by Weyl covariance, without displacement matrices."""

    @staticmethod
    def case(modes, cutoff, seed, max_radius=1.5, count=4):
        rng = np.random.default_rng(seed)
        spec = GraphSpec(phi=mixing_matrix(modes, "dft" if modes == 2 else "haar", rng), modes=modes, cutoff=cutoff)
        points = [draw_generator_params(modes, rng, max_radius=max_radius) for _ in range(count)]
        return spec, points, np.array([p.displacements() for p in points])

    # Box rows per mode; None is every row.  At one row only the vacuum row
    # is built, where every column past the first vanishes.  17 points: a
    # sweep wider than the levels, at n=3 on a box cut below the cutoff and
    # at n=2 on the default resolution's 9-row box.
    @pytest.mark.parametrize(
        "modes, cutoff, rows, count",
        [
            (2, 16, 9, 4),
            (2, 16, None, 4),
            (3, 8, None, 4),
            (4, 4, 2, 4),
            (4, 6, None, 4),
            (2, 64, 1, 4),
            (3, 8, 5, 17),
            (2, 16, 9, 17),
        ],
        ids=["2-16-9", "2-16-None", "3-8-None", "4-4-2", "4-6-None", "2-64-1", "3-8-5-17points", "2-16-9-17points"],
    )
    def test_matches_modewise_oracle(self, modes, cutoff, rows, count):
        spec, _, alphas = self.case(modes, cutoff, seed=modes * cutoff, count=count)
        rows = cutoff + 1 if rows is None else rows
        expected = displace_modewise(spec, seed_basis(spec), alphas, rows)
        got = box_ladders(spec, alphas @ spec.phi[:, 1:].T, rows)
        assert got.shape == expected.shape == (len(alphas), rows**modes, cutoff + 1)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.all(got[:, 0, 1:] == 0)

    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8), (4, 4)])
    def test_matches_dense_displacement(self, modes, cutoff):
        # With the Gaussian exp(-|h|^2/2) the tail-factored ladder leaves out.
        spec, points, alphas = self.case(modes, cutoff, seed=7 * modes)
        shifts = alphas @ spec.phi[:, 1:].T
        got = box_ladders(spec, shifts, cutoff + 1)
        for point, shift, ladder in zip(points, shifts, got):
            expected = graph_displacement(spec, point) @ seed_basis(spec)
            gauss = math.exp(-0.5 * float(np.sum(np.abs(shift) ** 2)))
            assert np.abs(gauss * ladder - expected).max() <= 1e-14

    def test_stays_accurate_at_large_cutoff(self):
        # Cutoff 64 on the 33-row box at |alpha| up to 7, the reach of a
        # resolution rule's middle nodes.  A single raising step
        # Y_k = a_phi^dag Y_{k-1} / sqrt(k) loses seven digits here to
        # cancellation between the modes; the sweep over total occupation
        # keeps the oracle's accuracy.
        spec, _, alphas = self.case(2, 64, seed=64, max_radius=7.0)
        expected = displace_modewise(spec, seed_basis(spec), alphas, 33)
        got = box_ladders(spec, alphas @ spec.phi[:, 1:].T, 33)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class TestSectorPlan:
    """The sweep's layout: the box by total occupation, each sector one slice read from the one before."""

    @staticmethod
    def occupations(modes, rows, plan):
        return np.indices((rows,) * modes).reshape(modes, -1).T[plan.order]

    @pytest.mark.parametrize("modes, rows", [(2, 9), (2, 17), (3, 9), (3, 5), (4, 7), (2, 1), (3, 2)])
    def test_sectors_partition_the_box_by_occupation(self, modes, rows):
        plan = _sector_plan(modes, rows)
        total = self.occupations(modes, rows, plan).sum(axis=1)
        assert np.array_equal(np.sort(plan.order), np.arange(rows**modes))
        # The vacuum first, then each sector N >= 1 as one slice, just after sector N - 1.
        start = 1
        for occupation, at in enumerate(plan.sectors, start=1):
            assert at.start == start and np.all(total[at] == occupation)
            start = at.stop
        assert start == rows**modes and total[0] == 0

    @pytest.mark.parametrize("modes, rows", [(2, 9), (3, 9), (4, 7), (3, 2)])
    def test_predecessors_lie_in_the_previous_sector(self, modes, rows):
        # The whole box, and the tuples of total at most half its top.
        for top in (None, modes * (rows - 1) // 2):
            plan, predecessors = _sector_plan(modes, rows, top), _predecessors(modes, rows, top)
            previous = slice(0, 1)
            for occupation, at in enumerate(plan.sectors, start=1):
                here, there = plan.occupations[at], plan.occupations[previous]
                lower, weight, lifted, roots = (part[occupation - 1] for part in predecessors)
                assert lower.shape == weight.shape[:2] == lifted.shape == roots.shape == (modes, len(here))
                assert np.all((0 <= lower) & (lower < len(there)))
                assert np.array_equal(lifted, lower + len(there) * np.arange(modes)[:, None])
                for mode in range(modes):
                    held = here[:, mode] > 0
                    # m - e_j where m_j > 0, a position within sector N - 1, with weight sqrt(m_j) / N, root sqrt(m_j).
                    assert np.array_equal(there[lower[mode, held]], here[held] - np.eye(modes, dtype=int)[mode])
                    assert np.array_equal(weight[mode, held, 0], np.sqrt(here[held, mode]) / occupation)
                    assert np.array_equal(roots[mode, held], np.sqrt(here[held, mode]))
                    # Else position 0 of that sector, read with weight and root 0.
                    assert np.all(lower[mode, ~held] == 0) and np.all(weight[mode, ~held] == 0)
                    assert np.all(roots[mode, ~held] == 0)
                previous = at

    @pytest.mark.parametrize("modes, rows, top", [(2, 9, None), (3, 9, None), (4, 7, 9), (3, 2, None)])
    def test_sector_entries_are_read_only_views_of_one_array(self, modes, rows, top):
        plan = _sector_plan(modes, rows, top)
        for field in _predecessors(modes, rows, top):
            whole = field[0].base
            assert whole.shape[:2] == (modes, len(plan.order)) and not whole.flags.writeable
            for entry in field:
                assert entry.base is whole and np.shares_memory(entry, whole)
                with pytest.raises(ValueError, match="read-only"):
                    entry[...] = 0

    def test_the_plan_holds_the_tuples_only(self):
        assert fockgraph.graphs._SectorPlan._fields == ("order", "occupations", "sectors")

    def test_only_the_resolution_sweep_builds_predecessors(self):
        # The anticlique check's box plan and the projection's capped plan read only the tuples; the V sweep
        # of resolution reads the predecessors of its box and of its rotated tuples.
        _predecessors.cache_clear()
        rng = np.random.default_rng(4)
        points = [draw_generator_params(4, rng, max_radius=0.5) for _ in range(3)]
        compression_check(GraphSpec(phi=dft_matrix(4), modes=4, cutoff=8), points[0], points[1:])
        spec = GraphSpec(phi=dft_matrix(3), modes=3, cutoff=16)
        fockgraph.graphs.projection_deviations(spec, polar_scheme(8, 16), 5)
        assert _predecessors.cache_info().currsize == 0
        graph_resolution(GraphSpec(phi=dft_matrix(2), modes=2, cutoff=8), polar_scheme(5, 9), trusted_block=4)
        assert _predecessors.cache_info().currsize == 2


class TestSweepPrecision:
    """Both number-operator sweeps against the 50-digit reference, on the 29-row box at cutoff 56.

    n=2, phi = ROTATION_2 / 5 (the nearest doubles), shift 3/2 along
    phi[:, 1]: the default resolution's box at cutoff 56, and |h| at
    draw_generator_params' default radius bound.  The ladder sweep also at
    shift 3 on the 31-row box at cutoff 30, where its tail-factored entries
    reach 17.  Each max-abs error is pinned as the graded entries' are,
    within PRECISION_MARGIN both ways.
    """

    ROWS, CUTOFF, SHIFT = 29, 56, Fraction(3, 2)

    @pytest.fixture(scope="class")
    def case(self):
        spec = GraphSpec(phi=np.array(ROTATION_2) / 5, modes=2, cutoff=self.CUTOFF)
        return spec, two_mode_sweeps_reference(ROTATION_2, 5, self.SHIFT, self.ROWS, self.CUTOFF)

    def test_rotation_blocks_match_the_50_digit_reference(self, case):
        spec, (blocks, _) = case
        sectors = _rotation_sectors(spec, self.ROWS)
        assert len(sectors) == len(blocks) and not any(ladder.imag.any() for _, ladder in sectors)
        error = max(decimal_error(ladder.real, block) for (_, ladder), block in zip(sectors, blocks))
        assert 4.87e-16 / PRECISION_MARGIN <= error <= 4.87e-16 * PRECISION_MARGIN

    def test_seed_ladders_match_the_50_digit_reference(self, case):
        spec, (_, ladders) = case
        ladder = box_ladders(spec, float(self.SHIFT) * spec.phi[None, :, 1], self.ROWS)[0]
        assert not ladder.imag.any()
        error = decimal_error(ladder.real, ladders)
        assert 9.52e-16 / PRECISION_MARGIN <= error <= 9.52e-16 * PRECISION_MARGIN

    def test_seed_ladders_at_shift_3_match_the_50_digit_reference(self):
        # Entries up to 17.3, which the shift-3/2 case (up to 1.2) does not reach.
        rows, cutoff, shift = 31, 30, Fraction(3)
        spec = GraphSpec(phi=np.array(ROTATION_2) / 5, modes=2, cutoff=cutoff)
        _, ladders = two_mode_sweeps_reference(ROTATION_2, 5, shift, rows, cutoff)
        ladder = box_ladders(spec, float(shift) * spec.phi[None, :, 1], rows)[0]
        assert not ladder.imag.any() and np.abs(ladder).max() > 17
        error = decimal_error(ladder.real, ladders)
        assert 2.45e-14 / PRECISION_MARGIN <= error <= 2.45e-14 * PRECISION_MARGIN


class TestGraphGenerator:
    def test_zero_params_reduce_to_seed_projector(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=8)
        params = GeneratorParams(radii=[0.0], phases=[0.0])
        assert np.abs(graph_generator(spec, params) - seed_projector(spec)).max() < 1e-13

    # The sweep against the dense Kronecker displacement of tests/oracles.py.
    @pytest.mark.parametrize(
        "modes, cutoff, mixing",
        [(2, 10, "haar"), (3, 8, "dft"), (3, 8, "haar"), (4, 4, "dft"), (4, 4, "haar")],
        ids=["n2-c10-haar", "n3-c8-dft", "n3-c8-haar", "n4-c4-dft", "n4-c4-haar"],
    )
    def test_backends_agree(self, modes, cutoff, mixing):
        rng = np.random.default_rng(33)
        spec = GraphSpec(phi=mixing_matrix(modes, mixing, rng), modes=modes, cutoff=cutoff)
        params = draw_generator_params(modes, rng)
        disp = graph_displacement(spec, params)
        direct = disp @ seed_projector(spec) @ disp.conj().T
        assert np.abs(graph_generator(spec, params) - direct).max() < 1e-10

    # Against Y Y^dag of the oracle's tail-factored sweep, with its Gaussian put back, at two draws each.
    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (2, 40), (3, 8), (3, 12), (4, 6)])
    def test_matches_the_oracle_sweep(self, modes, cutoff):
        rng = np.random.default_rng(modes * cutoff)
        spec = GraphSpec(phi=mixing_matrix(modes, "haar", rng), modes=modes, cutoff=cutoff)
        for _ in range(2):
            params = draw_generator_params(modes, rng)
            shift = displaced_mode_amplitudes(spec, params)
            ladder = box_ladders(spec, shift[None], cutoff + 1)[0] * math.exp(-0.5 * float(np.sum(np.abs(shift) ** 2)))
            assert np.abs(graph_generator(spec, params) - ladder @ ladder.conj().T).max() <= 1e-14

    def test_one_mode_is_the_identity(self):
        # One mode has no displacement: Y is diag(c^k) with |c| = 1, and Y Y^dag the identity.
        spec = GraphSpec(phi=np.array([[np.exp(0.7j)]]), modes=1, cutoff=6)
        generator = graph_generator(spec, GeneratorParams(radii=[], phases=[]))
        assert np.abs(generator - np.eye(7)).max() <= 1e-15

    def test_sqrt_factorial_scale_stops_at_cutoff_170(self):
        # 170! is the largest factorial a double holds: one more is a ValueError naming the limit, for the
        # generator and for the check, which share the scale.
        origin = GeneratorParams(radii=[], phases=[])
        generator = graph_generator(GraphSpec(phi=np.eye(1), modes=1, cutoff=170), origin)
        assert np.abs(generator - np.eye(171)).max() <= 1e-14
        roots = [math.sqrt(math.factorial(k)) for k in range(171)]
        assert np.array_equal(fockgraph.graphs._root_factorials(171), roots)
        spec = GraphSpec(phi=np.eye(1), modes=1, cutoff=171)
        for build in (lambda: graph_generator(spec, origin), lambda: compression_check(spec, origin, [origin])):
            with pytest.raises(ValueError, match=r"cutoff must be <= 170, got 171"):
                build()

    def test_trace_preserves_projector_rank(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=24)
        params = GeneratorParams(radii=[0.3], phases=[1.0])
        generator = graph_generator(spec, params)
        # Rank-(cutoff+1) projector displaced by a small amount: the trace
        # deficit is the mass the top ladder states lose past the cutoff,
        # measured 2e-6 here.
        assert np.trace(generator).real == pytest.approx(25.0, abs=1e-4)

    def test_trace_deficit_shrinks_with_cutoff(self):
        rng = np.random.default_rng(35)
        phi = haar_unitary(2, rng)
        params = GeneratorParams(radii=[0.8], phases=[1.0])
        deficits = []
        for cutoff in (12, 16, 20):
            spec = GraphSpec(phi=phi, modes=2, cutoff=cutoff)
            deficits.append(cutoff + 1 - np.trace(graph_generator(spec, params)).real)
        assert deficits[0] > deficits[1] > deficits[2] > 0

    # The build runs no check of its own: the Gram-matrix form makes every
    # generator Hermitian and positive semidefinite, measured here.
    @pytest.mark.parametrize("max_radius", [0.5, 1.5])
    @pytest.mark.parametrize("mixing", ["dft", "haar"])
    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8)])
    def test_hermitian_and_psd(self, modes, cutoff, mixing, max_radius):
        rng = np.random.default_rng(37)
        spec = GraphSpec(phi=mixing_matrix(modes, mixing, rng), modes=modes, cutoff=cutoff)
        for _ in range(3):
            generator = graph_generator(spec, draw_generator_params(modes, rng, max_radius=max_radius))
            assert np.abs(generator - generator.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh(generator).min() >= -1e-8

    def test_displaced_ladder_nearly_orthonormal(self):
        # Orthonormality survives exactly where the ladder keeps its mass:
        # the top few displaced states lose ~1e-3, the low ladder is clean.
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=20)
        params = GeneratorParams(radii=[0.7], phases=[0.9])
        displaced = graph_displacement(spec, params) @ seed_basis(spec)
        gram = displaced.conj().T @ displaced
        assert np.abs(gram - np.eye(21)).max() < 1e-2
        assert np.abs(gram[:10, :10] - np.eye(10)).max() < 1e-10


class TestAnticliqueProjection:
    def test_zero_radii_reduce_to_seed_projector(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=8)
        params = GeneratorParams(radii=[0.0], phases=[0.7])
        assert np.abs(graph_generator(spec, params) - seed_projector(spec)).max() < 1e-13

    def test_is_generator_at_same_parameters(self):
        # compression_check projects with the generator at the anticlique
        # point, so compressing that generator alone measures tr(P^3)/tr(P).
        rng = np.random.default_rng(41)
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=10)
        params = draw_generator_params(2, rng)
        proj = graph_generator(spec, params)
        expected = np.trace(proj @ proj @ proj).real / np.trace(proj).real
        assert compression_check(spec, params, [params]).scalar_measured == pytest.approx(expected, abs=1e-14)

    def test_idempotent_where_ladder_survives(self):
        # The top ladder states lose mass under mixing and truncation, so
        # idempotency holds on the low block (measured 4e-10 here, reaching
        # 4e-5 on the full matrix).
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=24)
        params = GeneratorParams(radii=[0.8], phases=[0.5])
        proj = graph_generator(spec, params)
        mask = trusted_mask(spec.space, 8)
        assert np.abs(block(proj @ proj - proj, mask)).max() < 1e-8

    def test_rank_equals_ladder_length(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=20)
        params = GeneratorParams(radii=[0.9], phases=[2.8])
        eigs = np.sort(np.linalg.eigvalsh(graph_generator(spec, params)))[::-1]
        assert eigs[20] > 0.995
        assert eigs[21] < 0.005
        assert eigs[20] - eigs[21] >= 0.99


class TestCompressionConstant:
    def test_equal_parameters_give_one(self):
        params = dict(radii=[0.7, 1.2], phases=[0.3, 2.0])
        assert compression_constant(GeneratorParams(**params), GeneratorParams(**params)) == 1.0

    def test_unit_distance(self):
        ap = GeneratorParams(radii=[1.0], phases=[0.0])
        gp = GeneratorParams(radii=[0.0], phases=[0.0])
        expected = math.fsum((-1.0) ** k / math.factorial(k) for k in range(40))
        assert compression_constant(ap, gp) == pytest.approx(expected, abs=1e-13)
        assert compression_constant(ap, gp) == pytest.approx(0.3678794412, abs=1e-10)

    def test_common_phase_shift_invariance(self):
        rng = np.random.default_rng(43)
        ap = draw_generator_params(3, rng)
        gp = draw_generator_params(3, rng)
        base = compression_constant(ap, gp)
        for delta in (0.4, 1.9, 5.1):
            shifted_ap = GeneratorParams(radii=ap.radii, phases=ap.phases + delta)
            shifted_gp = GeneratorParams(radii=gp.radii, phases=gp.phases + delta)
            assert compression_constant(shifted_ap, shifted_gp) == pytest.approx(base, rel=1e-12)

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            value = compression_constant(draw_generator_params(2, rng), draw_generator_params(2, rng))
            assert 0.0 <= value <= 1.0


class TestCompressionCheck:
    def test_self_compression_scalar_is_one(self):
        # P A P = P^3 = P up to truncation; the ladder-edge mass loss sets
        # the floor (1.6e-7 at this scale, falling ~20x per +4 cutoff).
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=24)
        params = dict(radii=[0.3], phases=[1.1])
        result = compression_check(spec, GeneratorParams(**params), [GeneratorParams(**params)])
        assert result.scalar_measured == pytest.approx(1.0, abs=1e-6)
        assert result.frobenius_deviation < 1e-5
        assert within(result, 1e-5)

    def test_unmixed_graph_compresses_exactly(self):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=16)
        result = compression_check(
            spec,
            GeneratorParams(radii=[0.8], phases=[0.3]),
            [GeneratorParams(radii=[0.9], phases=[2.1])],
        )
        assert within(result, 1e-12)
        assert result.scalar_relative_error < 1e-12

    def test_balanced_mixing_small_radii(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=24)
        result = compression_check(
            spec,
            GeneratorParams(radii=[0.4], phases=[0.3]),
            [GeneratorParams(radii=[0.45], phases=[2.1])],
        )
        assert within(result, 1e-6)
        assert result.frobenius_deviation < 1e-6
        assert result.scalar_relative_error < 1e-6

    def test_weighted_combination_is_linear(self):
        rng = np.random.default_rng(47)
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=20)
        ap = draw_generator_params(2, rng, max_radius=0.5)
        gps = [draw_generator_params(2, rng, max_radius=0.5) for _ in range(3)]
        weights = [1.0 + 0.5j, -0.25 + 1.0j, 0.8 - 0.1j]
        result = compression_check(spec, ap, gps, weights=weights)
        assert within(result, 1e-4)
        assert result.scalar_relative_error < 1e-4

    def test_deviation_decreases_along_cutoff_ladder(self):
        rng = np.random.default_rng(48)
        phi = haar_unitary(2, rng)
        ap = GeneratorParams(radii=[0.8], phases=[0.3])
        gp = GeneratorParams(radii=[0.9], phases=[2.1])
        deviations = []
        for cutoff in (12, 16, 20):
            spec = GraphSpec(phi=phi, modes=2, cutoff=cutoff)
            result = compression_check(spec, ap, [gp])
            deviations.append(result.frobenius_deviation)
        assert deviations[0] > deviations[1] > deviations[2]

    def test_rejects_empty_generators(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=8)
        with pytest.raises(ValueError, match="generator"):
            compression_check(spec, GeneratorParams(radii=[0.5], phases=[0.0]), [])

    def test_rejects_weight_mismatch(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=8)
        ap = GeneratorParams(radii=[0.5], phases=[0.0])
        gp = GeneratorParams(radii=[0.5], phases=[0.0])
        with pytest.raises(ValueError, match="weights"):
            compression_check(spec, ap, [gp], weights=[1.0, 2.0])


def dense_compression(spec, anticlique, generators, weights=None, trusted_block=None):
    """Oracle: P A P - c P formed as dim x dim matrices from the dense Kronecker generators."""
    weights = [complex(w) for w in (weights or [1.0] * len(generators))]
    projection = dense_generator(spec, anticlique)
    combined = np.zeros_like(projection)
    predicted = 0.0 + 0.0j
    for weight, params in zip(weights, generators):
        combined += weight * dense_generator(spec, params)
        predicted += weight * compression_constant(anticlique, params)
    compressed = projection @ combined @ projection
    if trusted_block is not None:
        mask = trusted_mask(spec.space, trusted_block)
        projection = block(projection, mask)
        compressed = block(compressed, mask)
    measured = complex(np.trace(compressed)) / complex(np.trace(projection))
    residual = compressed - measured * projection
    return CompressionResult(
        max_abs_deviation=float(np.max(np.abs(residual))),
        frobenius_deviation=float(np.linalg.norm(residual) / np.linalg.norm(projection)),
        scalar_relative_error=float(abs(measured - predicted) / abs(predicted)),
        scalar_measured=float(measured.real),
        scalar_predicted=float(predicted.real),
    )


def runner_case(modes, cutoff, seed):
    """The anticlique runner's inputs at a seed: DFT mixing and its seeded draws."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = [
        draw_generator_params(modes, rng, max_radius=DEFAULT_DRAW_RADIUS) for _ in range(1 + DEFAULT_GENERATOR_DRAWS)
    ]
    return GraphSpec(phi=dft_matrix(modes), modes=modes, cutoff=cutoff), draws[0], draws[1:]


def criterion_5_combination():
    """The complex-weighted three-generator case of acceptance criterion 5, replayed from its seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    for _ in range(10):
        haar_unitary(2, rng)
        draw_generator_params(2, rng, max_radius=1.0)
        draw_generator_params(2, rng, max_radius=1.0)
    spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=20)
    anticlique = draw_generator_params(2, rng, max_radius=1.0)
    generators = [draw_generator_params(2, rng, max_radius=1.0) for _ in range(3)]
    return spec, anticlique, generators, [1.0 + 0.5j, -0.25 + 1.0j, 0.8 - 0.1j]


def matches_full_sweep(spec, anticlique, generators, weights=None, trusted_block=None):
    """compression_check's result, after checking it against every residual entry formed.

    A GEMM rounds an entry by its block's shape, so the pruned sweep and the
    full one can round the max entry differently (by 1 ulp at suite seed 1).
    The check's max-abs must lie within the sweep's own allowance
    8 (L+2) eps |(Y_t K)_a| |Y_b| of the exact magnitude of the full
    sweep's max entry (a, b) (:func:`assert_within_entry_allowance`); the
    rank-space Frobenius norm reorders the sum.
    """
    result = compression_check(spec, anticlique, generators, weights=weights, trusted_block=trusted_block)
    _, frobenius, entry = full_residual_deviations(spec, anticlique, generators, weights, trusted_block)
    residual = fockgraph.graphs._compression_residual(spec, anticlique, generators, weights, trusted_block)
    assert_within_entry_allowance(result.max_abs_deviation, residual, entry)
    assert abs(result.frobenius_deviation - frobenius) <= 1e-15 * frobenius
    return result


def assert_within_entry_allowance(max_abs, residual, entry):
    """``max_abs`` within 8 (L+2) eps |(Y_t K)_a| |Y_b| of |R_ab|, R_ab = (Y_t K)_a . conj(Y_b) to 50 digits.

    The dot product is exact over the same doubles as the check's factors,
    so the bound is the rounding allowance of ``_residual_max_abs`` alone.
    """
    row, column = residual.scaled[entry[0]], residual.ladder[entry[1]]
    rank = len(row)
    allowance = 8 * (rank + 2) * np.finfo(float).eps * np.linalg.norm(row) * np.linalg.norm(column)
    with localcontext() as context:
        context.prec = 50
        parts = [(Decimal(x.real), Decimal(x.imag), Decimal(y.real), Decimal(y.imag)) for x, y in zip(row, column)]
        real = sum(xr * yr + xi * yi for xr, xi, yr, yi in parts)
        imag = sum(xi * yr - xr * yi for xr, xi, yr, yi in parts)
        exact = (real * real + imag * imag).sqrt()
        assert abs(Decimal(max_abs) - exact) <= Decimal(float(allowance))


class TestCompressionOracle:
    # The ladder-Gram path reorders the arithmetic of the dense P A P; at the
    # anticlique tolerance 1e-4 the verdict must not move.  Seed 3243419750
    # at n=2 and seeds 5 and 6 at n=3 are known truncation FAILs.
    @pytest.mark.parametrize(
        "modes, cutoff, seed, trusted_block",
        [
            (2, 16, 42, None),
            (2, 16, 3243419750, None),
            (3, 8, 0, None),
            (3, 8, 5, None),
            (3, 8, 6, None),
            (3, 8, 5, 6),
            (4, 6, 0, None),
        ],
        ids=["n2-seed42", "n2-seed3243419750", "n3-seed0", "n3-seed5", "n3-seed6", "n3-seed5-block6", "n4-seed0"],
    )
    def test_matches_dense_oracle(self, modes, cutoff, seed, trusted_block):
        spec, anticlique, generators = runner_case(modes, cutoff, seed)
        self.check(spec, anticlique, generators, None, trusted_block)

    def test_complex_weights_match_dense_oracle(self):
        spec, anticlique, generators, weights = criterion_5_combination()
        self.check(spec, anticlique, generators, weights, 6)

    @staticmethod
    def check(spec, anticlique, generators, weights, trusted_block):
        result = matches_full_sweep(spec, anticlique, generators, weights, trusted_block)
        oracle = dense_compression(spec, anticlique, generators, weights=weights, trusted_block=trusted_block)
        for field, value, expected in zip(CompressionResult._fields, result, oracle):
            assert abs(value - expected) <= 1e-13, field
        assert within(result, 1e-4) == within(oracle, 1e-4)

    def test_builds_no_dense_operator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense operator built")

        monkeypatch.setattr(fockgraph.graphs, "graph_generator", forbidden)
        spec, anticlique, generators = runner_case(3, 8, 0)
        tracemalloc.start()
        try:
            result = compression_check(spec, anticlique, generators)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert within(result, 1e-4)
        # One dense dim x dim complex matrix: 8.5 MB at dim 729.
        assert peak < 16 * spec.space.dim**2


def trusted_rows(spec, trusted_block):
    """Row-major box rows with every occupation <= trusted_block, by decreasing total, then decreasing index."""
    tuples = occupations(spec.space)
    inside = np.flatnonzero(tuples.max(axis=1) <= (spec.cutoff if trusted_block is None else trusted_block))
    return inside[np.lexsort((inside, tuples[inside].sum(axis=1)))[::-1]]


class TestFactoredGrams:
    """compression_check takes Y_x and the Grams from per-mode displacement factors at every n."""

    # With the default trusted block every plan row is kept, read without the mask.
    @pytest.mark.parametrize(
        "modes, cutoff, seed, trusted_block",
        [(2, 16, 42, 5), (2, 16, 42, None), (3, 8, 5, 6), (3, 8, 0, None), (4, 6, 1, 3), (4, 6, 1, None)],
    )
    def test_trusted_rows_match_the_modewise_oracle_top_sector_first(self, modes, cutoff, seed, trusted_block):
        # Y_t top sector first (the box plan's order, reversed), against truncated displacement
        # matrices applied mode by mode to the seed basis, with the Gaussian exp(-|h_x|^2/2).
        spec, anticlique, generators = runner_case(modes, cutoff, seed)
        residual = fockgraph.graphs._compression_residual(spec, anticlique, generators, None, trusted_block)
        ladder = displace_modewise(spec, seed_basis(spec), anticlique.displacements()[None])[0]
        gauss = math.exp(-0.5 * float(np.sum(np.abs(displaced_mode_amplitudes(spec, anticlique)) ** 2)))
        expected = ladder[trusted_rows(spec, trusted_block)] * gauss
        assert residual.ladder.shape == expected.shape
        assert np.abs(residual.ladder - expected).max() <= 1e-14 * np.abs(expected).max()

    # The level convolution at n=4 cutoff 6 ends in a (343 x 7) @ (7 x 49) product, 117,649 multiply-adds.
    @pytest.mark.parametrize(
        "modes, cutoff, convolution",
        [(2, 16, [(17, 17, 289)]), (3, 8, [(9, 9, 81), (81, 9, 81)]), (4, 6, [(7, 7, 49), (49, 7, 49), (343, 7, 49)])],
        ids=["n2-c16", "n3-c8", "n4-c6"],
    )
    def test_every_gemm_goes_through_serial_matmul(self, monkeypatch, modes, cutoff, convolution):
        spec, anticlique, generators = runner_case(modes, cutoff, 0)
        shifts = np.array([displaced_mode_amplitudes(spec, p) for p in (anticlique, *generators)])
        weights = np.ones(len(generators), dtype=complex)
        expected = fockgraph.graphs._factored_grams(spec, shifts, weights)
        serial, gemms = [], []
        matmul = np.matmul

        def recording_serial(a, b):
            serial.append((*a.shape, b.shape[-1]))
            return serial_matmul(a, b)

        def recording(x, y, **kwargs):
            gemms.append(x.shape[-2:] + y.shape[-1:])
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(fockgraph.graphs, "serial_matmul", recording_serial)
        monkeypatch.setattr(np, "matmul", recording)
        ladder, combined = fockgraph.graphs._factored_grams(spec, shifts, weights)
        monkeypatch.undo()
        assert np.array_equal(ladder, expected[0]) and np.array_equal(combined, expected[1])
        rank, count = cutoff + 1, len(generators)
        # The level convolution, A_xj^dag [A_1j, A_2j, A_3j] stacked over the modes, the Gram convolution
        # stacked over the generators (one batch, count * rank^3 <= CHUNK_ENTRIES) per mode after the first,
        # and M.  A stacked product's GEMMs are its matrices' row blocks, each within the budget below.
        grams = [(modes, rank, rank, count * rank)] + [(count, rank, rank * rank, rank)] * (modes - 1)
        assert serial == [*convolution, *grams, (rank, count * rank, rank)]
        assert all(2 <= rows and rows * k * n <= SERIAL_GEMM_MACS for rows, k, n in gemms)

    def test_gram_convolution_batches_match_one_point_at_a_time(self, monkeypatch):
        # 30 points at L = 17 go in batches of 13, 13 and 4 (13 L^3 <= CHUNK_ENTRIES), one stacked product
        # per batch and mode after the first; each point's G is bitwise its own one-point convolution.
        rng = np.random.default_rng(30)
        grams = rng.standard_normal((3, 30, 17, 17)) + 1j * rng.standard_normal((3, 30, 17, 17))
        batches = []

        def recording(a, b):
            batches.append(len(a))
            return serial_matmul(a, b)

        monkeypatch.setattr(fockgraph.graphs, "serial_matmul", recording)
        got = fockgraph.graphs._gram_convolution(grams)
        assert batches == [13, 13, 13, 13, 4, 4]
        for point in range(30):
            assert np.array_equal(got[point], fockgraph.graphs._gram_convolution(grams[:, point : point + 1])[0])

    @pytest.mark.parametrize("cutoff", [8, 12])
    def test_ladder_and_m_match_the_50_digit_reference(self, cutoff):
        # phi = ROTATION_3 / 3 (the nearest doubles); the anticlique at shift 3/2 along phi[:, 1], the
        # generators there and at shift 3.  Each max-abs error is pinned within PRECISION_MARGIN both ways.
        pins = self.PINS[cutoff]
        spec = GraphSpec(phi=np.array(ROTATION_3) / 3, modes=3, cutoff=cutoff)
        references = [three_mode_ladder_reference(ROTATION_3, 3, shift, cutoff) for shift in self.SHIFTS]
        shifts = np.array([float(shift) * spec.phi[:, 1] for shift in self.SHIFTS])
        weights = np.ones(len(shifts), dtype=complex)
        for index, (reference, pin) in enumerate(zip(references, pins)):
            ladder, _ = fockgraph.graphs._factored_grams(spec, shifts[[index, *range(len(shifts))]], weights)
            assert not ladder.imag.any()
            assert pin / PRECISION_MARGIN <= decimal_error(ladder.real, reference) <= pin * PRECISION_MARGIN
        _, combined = fockgraph.graphs._factored_grams(spec, shifts[[0, *range(len(shifts))]], weights)
        assert not combined.imag.any()
        error = decimal_error(combined.real, self.reference_m(references))
        assert pins[-1] / PRECISION_MARGIN <= error <= pins[-1] * PRECISION_MARGIN

    def test_two_mode_ladder_and_m_match_the_50_digit_reference(self):
        # phi = ROTATION_2 / 5 (the nearest doubles).  The ladder at shift 3/2 along phi[:, 1] on the 29-row
        # box at cutoff 56, TestSweepPrecision's case, where the tail-factored sweep is 9.52e-16 off (this
        # ladder's error over its Gaussian exp(-9/8) is 4.3e-15).  M, with generators at shifts 3/2 and 3, at
        # cutoff 28, whose whole box the reference spans.  Each max-abs error is pinned within
        # PRECISION_MARGIN both ways.
        spec = GraphSpec(phi=np.array(ROTATION_2) / 5, modes=2, cutoff=56)
        shifts = np.array([float(self.SHIFTS[0]) * spec.phi[:, 1]] * 2)
        ladder, _ = fockgraph.graphs._factored_grams(spec, shifts, np.ones(1, dtype=complex))
        inside = np.all(occupations(spec.space) <= 28, axis=1)
        assert not ladder.imag.any()
        error = decimal_error(ladder.real[inside], self.two_mode_reference(self.SHIFTS[0], 29, 56))
        assert 1.39e-15 / PRECISION_MARGIN <= error <= 1.39e-15 * PRECISION_MARGIN
        spec = GraphSpec(phi=np.array(ROTATION_2) / 5, modes=2, cutoff=28)
        references = [self.two_mode_reference(shift, 29, 28) for shift in self.SHIFTS]
        shifts = np.array([float(shift) * spec.phi[:, 1] for shift in self.SHIFTS])
        _, combined = fockgraph.graphs._factored_grams(spec, shifts[[0, 0, 1]], np.ones(2, dtype=complex))
        assert not combined.imag.any()
        error = decimal_error(combined.real, self.reference_m(references))
        assert 3.80e-15 / PRECISION_MARGIN <= error <= 3.80e-15 * PRECISION_MARGIN

    @staticmethod
    def two_mode_reference(shift, rows, cutoff):
        """The n=2 ladder of two_mode_sweeps_reference with its Gaussian exp(-shift^2/2), to 50 digits."""
        _, ladders = two_mode_sweeps_reference(ROTATION_2, 5, shift, rows, cutoff)
        with localcontext() as context:
            context.prec = 50
            gauss = (-Decimal(shift.numerator) ** 2 / Decimal(2 * shift.denominator**2)).exp()
            return [[gauss * entry for entry in row] for row in ladders]

    def test_chunks_add_up_to_the_one_chunk_m(self, monkeypatch):
        # With CHUNK_ENTRIES at two points' factors (2 x 3 x 81 entries at n=3 cutoff 8), the anticlique and
        # six weighted generators go two points to a kernel call, the last alone.  Y_x keeps its bits (a
        # kernel matrix does not depend on its batch), and M sums the same products in another order.
        spec, anticlique, generators = runner_case(3, 8, 0)
        generators = [*generators, *runner_case(3, 8, 1)[2]]
        shifts = np.array([displaced_mode_amplitudes(spec, p) for p in (anticlique, *generators)])
        weights = np.array([1.0, 0.5 - 0.25j, 2.0, 0.75j, 1.5, 0.25])
        ladder, combined = fockgraph.graphs._factored_grams(spec, shifts, weights)
        calls = []

        def counting(alphas, cutoff):
            calls.append(len(alphas))
            return displacement_matrix(alphas, cutoff)

        monkeypatch.setattr(fockgraph.graphs, "CHUNK_ENTRIES", 2 * 3 * 81)
        monkeypatch.setattr(fockgraph.graphs, "displacement_matrix", counting)
        chunked = fockgraph.graphs._factored_grams(spec, shifts, weights)
        assert calls == [6, 6, 6, 3]
        assert np.array_equal(chunked[0], ladder)
        assert np.abs(chunked[1] - combined).max() <= 1e-15 * np.abs(combined).max()

    # 512 generators against 3, from one set of draws.  Without chunks the factors and the kernel's stack
    # grew with the points: the n=3 cutoff 16 peak read 28 MB against 5.4 MB.
    @pytest.mark.parametrize("modes, cutoff", [(2, 40), (3, 16)])
    def test_peak_memory_does_not_grow_with_the_generator_count(self, modes, cutoff):
        spec, anticlique, _ = runner_case(modes, cutoff, 0)
        rng = np.random.default_rng(512)
        generators = [draw_generator_params(modes, rng) for _ in range(512)]
        compression_check(spec, anticlique, generators[:3])  # the cached plans, outside either peak
        peaks = []
        for count in (3, 512):
            tracemalloc.start()
            try:
                compression_check(spec, anticlique, generators[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 8 * 2**20

    SHIFTS = (Fraction(3, 2), Fraction(3))
    # Per cutoff: the ladder's error at each shift (entries up to 0.33), then M's (entries up to 1.11).  The
    # sector sweep's ladders were 7.6e-17 and 4.1e-17 off, and Grams of them gave M 1.3e-15 and 1.2e-15 off.
    PINS = {8: (2.43e-16, 1.24e-16, 2.69e-15), 12: (2.65e-16, 1.56e-16, 2.94e-15)}

    @staticmethod
    def reference_m(references):
        """M = sum_i G_i G_i^dag, G_i = Y_x^dag Y_i on the box, the anticlique the first reference, to 50 digits."""
        levels = range(len(references[0][0]))
        with localcontext() as context:
            context.prec = 50
            grams = [
                [[sum(x[k] * y[l] for x, y in zip(references[0], other)) for l in levels] for k in levels]
                for other in references
            ]
            return [[sum(g[k][j] * g[l][j] for g in grams for j in levels) for l in levels] for k in levels]


class TestSimplexClosedForms:
    """The displaced ladders on the tuples of total occupation <= cutoff, in closed form.

    U(phi) keeps total occupation, and in the rotated frame Y_k is |k> on
    mode 0 times the coherent state of alpha on the other modes.  So on
    those rows G = Y_x^dag Y_i is G[k, l] = delta_kl e_{cutoff-k}(<h_x, h_i>)
    exp(-(|h_x|^2 + |h_i|^2)/2), e_j(z) = sum_{s<=j} z^s / s!, and on the
    whole box a level loses at most 1 - ||Y_k||^2 <= P(Poisson(|h|^2) > cutoff - k).
    """

    # Float slack of the loss 1 - ||Y_k||^2 against its bound: the loss exceeded it by at most 1.8e-15.
    LOSS_FLOOR = 4e-15

    @pytest.mark.parametrize(
        "modes, cutoff, seed", [(2, 16, 42), (2, 16, 3243419750), (3, 8, 0), (3, 8, 5), (3, 8, 6), (4, 6, 1)]
    )
    def test_runner_draws_match_the_closed_forms(self, modes, cutoff, seed):
        spec, anticlique, generators = runner_case(modes, cutoff, seed)
        shifts = np.array([displaced_mode_amplitudes(spec, p) for p in (anticlique, *generators)])
        mass = np.sum(np.abs(shifts) ** 2, axis=1)
        ladders = box_ladders(spec, shifts, cutoff + 1) * np.exp(-0.5 * mass)[:, None, None]
        simplex = occupations(spec.space).sum(axis=1) <= cutoff
        levels = range(cutoff + 1)
        for ladder, shift, norm in zip(ladders, shifts, mass):
            gram = ladders[0, simplex].conj().T @ ladder[simplex]
            overlap = complex(np.vdot(shifts[0], shift))
            expected = np.array([exponential_partial_sum(cutoff - k, overlap) for k in levels])
            expected *= np.exp(-0.5 * (mass[0] + norm))
            # Read at most 2.2e-15.
            assert np.abs(gram - np.diag(expected)).max() <= 1e-14
            loss = 1.0 - np.sum(np.abs(ladder) ** 2, axis=0)
            bound = np.array([poisson_cdf(norm, cutoff - k, upper=True) for k in levels])
            assert np.all(loss <= bound + self.LOSS_FLOOR)


class TestResidualPruning:
    """The pruned max-abs sweep and the rank-space Frobenius norm against the full residual."""

    # n=2 cutoff 24 has wider GEMMs than SERIAL_GEMM_MACS, so its blocks are threaded and larger.  At seed 1
    # the two sweeps round the max entry 1 ulp apart.
    @pytest.mark.parametrize(
        "modes, cutoff, seed, trusted_block",
        [
            (2, 16, 1, None),
            (2, 16, 42, 1),
            (2, 16, 3243419750, 13),
            (3, 8, 5, 1),
            (3, 8, 6, 5),
            (4, 6, 0, 1),
            (4, 6, 0, 3),
            (2, 24, 42, None),
            (2, 24, 42, 21),
        ],
    )
    def test_trusted_blocks_match_full_sweep(self, modes, cutoff, seed, trusted_block):
        matches_full_sweep(*runner_case(modes, cutoff, seed), trusted_block=trusted_block)

    @pytest.mark.parametrize("trusted_block", [None, 1, 17])
    def test_complex_weights_match_full_sweep(self, trusted_block):
        spec, anticlique, generators, weights = criterion_5_combination()
        matches_full_sweep(spec, anticlique, generators, weights, trusted_block)

    # Without mixing the row norms are flat, so the bound prunes little.
    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 8)])
    def test_unmixed_graph_matches_full_sweep(self, modes, cutoff):
        spec, anticlique, generators = runner_case(modes, cutoff, 7)
        spec = GraphSpec(phi=np.eye(modes, dtype=complex), modes=modes, cutoff=cutoff)
        matches_full_sweep(spec, anticlique, generators)

    @staticmethod
    def sweep_blocks(monkeypatch, case):
        """compression_check's max-abs and the (rows, columns) of each residual block its sweep forms."""
        residual = fockgraph.graphs._compression_residual(*case, None, None)
        blocks = []

        def counting(a, b):
            blocks.append((len(a), b.shape[1]))
            return serial_matmul(a, b)

        monkeypatch.setattr(fockgraph.graphs, "serial_matmul", counting)
        max_abs = fockgraph.graphs._residual_max_abs(residual.scaled, residual.ladder)
        monkeypatch.undo()
        assert max_abs == compression_check(*case).max_abs_deviation
        return max_abs, blocks

    def test_sweep_forms_a_three_hundredth_of_the_entries(self, monkeypatch):
        # Each block is one GEMM of the rows whose bound can still beat the running max against the prefix of
        # the sorted columns whose bound can.  The floor prunes the first block's columns too: its 9 rows take
        # 48 of the 729 columns.  The row sweep took 18 whole rows here, 13,122 entries.
        case = runner_case(3, 8, 0)
        dim = case[0].space.dim
        max_abs, blocks = self.sweep_blocks(monkeypatch, case)
        entry = full_residual_deviations(*case)[2]
        assert_within_entry_allowance(max_abs, fockgraph.graphs._compression_residual(*case, None, None), entry)
        assert blocks[0] == (SERIAL_GEMM_MACS // (dim * 9), 48)
        assert 0 < sum(rows * columns for rows, columns in blocks) <= dim * dim // 300

    def test_sweep_by_entries_at_n5_cutoff_10(self, monkeypatch):
        # A library call past MAX_DIM, which guards configs alone: dim_t 161,051 at n=5 cutoff 10, past
        # CHUNK_ENTRIES = 65,536, where the row sweep took one-row products.  The max is bitwise the one that
        # row sweep read, forming every entry; this sweep forms 55,751 of the 2.6e10 entries.
        max_abs, blocks = self.sweep_blocks(monkeypatch, runner_case(5, 10, 42))
        assert max_abs == 1.3980863900675715e-08
        assert sum(rows * columns for rows, columns in blocks) == 55_751
        assert all(rows * columns * 11 <= SERIAL_GEMM_MACS for rows, columns in blocks)

    def test_floor_stays_below_a_diagonal_that_cancels(self):
        # Y_0 is orthogonal to (Y_t K)_0 to rounding, so entry (0, 0) is rounding noise, which a row-wise dot
        # product and a GEMM round differently.  Row 1 of Y_t is (Y_t K)_0's own direction, scaled so that
        # entry (0, 1) is half that dot product: its bound is at most the dot product, and it beats the
        # GEMM's value of (0, 0) in 22 of these 200 draws under OpenBLAS 0.3.31.  The floor must leave it in
        # play; read as the dot product alone, it pruned column 1 in those draws.
        rng = np.random.default_rng(7)
        for _ in range(200):
            row = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            other = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            other -= np.vdot(row, other) / np.vdot(row, row) * row
            half = abs(np.einsum("ij,ij->i", row[None], other[None].conj())[0]) / 2
            ladder = np.array([other, half / np.vdot(row, row).real * row])
            max_abs = fockgraph.graphs._residual_max_abs(np.array([row, np.zeros(6)]), ladder)
            assert max_abs >= half * (1 - 1e-13)

    @pytest.mark.parametrize("modes", [2, 3])
    def test_nan_in_a_deep_ladder_row_exits_three(self, monkeypatch, tmp_path, modes):
        # The anticlique's top level on the box's last row, (8, ..., 8), of the factored ladder the check reads.
        def poisoned(factors, scale):
            ladder = level_convolution(factors, scale)
            ladder[-1, -1] = np.nan
            return ladder

        level_convolution = fockgraph.graphs._level_convolution
        monkeypatch.setattr(fockgraph.graphs, "_level_convolution", poisoned)
        self.exits_three(runner_case(modes, 8, 0), tmp_path, modes)

    @staticmethod
    def exits_three(case, tmp_path, modes):
        result = compression_check(*case)
        assert not math.isfinite(result.max_abs_deviation)
        assert not math.isfinite(result.frobenius_deviation)
        config = tmp_path / "config.json"
        config.write_text(f'{{"experiment": "anticlique", "n": {modes}, "cutoff": 8, "seed": 0}}')
        assert main(["--config", str(config), "--out", str(tmp_path / "report.json"), "--quiet"]) == 3


class TestNoDisplacementKernel:
    """projection and resolution build their ladders by Weyl covariance alone.

    The anticlique check takes every point's per-mode displacement matrices
    from one kernel call at every n.
    """

    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 6)])
    def test_graph_experiments_call_the_kernel_only_for_factored_grams(self, monkeypatch, modes, cutoff):
        configs = [
            config_from_dict({"experiment": name, "n": modes, "cutoff": cutoff})
            for name in ("projection", "resolution", "anticlique")
        ]
        expected = [run_experiment(cfg) for cfg in configs]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return displacement_matrix(*args, **kwargs)

        bound = [
            module
            for name, module in sys.modules.items()
            if name.split(".")[0] == "fockgraph" and vars(module).get("displacement_matrix") is displacement_matrix
        ]
        assert {"fockgraph", "fockgraph.fock", "fockgraph.graphs", "fockgraph.quadrature"} <= {
            module.__name__ for module in bound
        }
        for module in bound:
            monkeypatch.setattr(module, "displacement_matrix", counting)
        for cfg, before in zip(configs, expected):
            calls.clear()
            report = run_experiment(cfg)
            assert len(calls) == (cfg.experiment == "anticlique")
            assert (report.passed, report.max_abs_deviation, report.frobenius_deviation) == (
                before.passed,
                before.max_abs_deviation,
                before.frobenius_deviation,
            )


class TestSampling:
    def test_haar_unitary_is_unitary_and_seed_stable(self):
        rng = np.random.default_rng(51)
        u = haar_unitary(4, rng)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
        again = haar_unitary(4, np.random.default_rng(51))
        assert np.array_equal(u, again)

    def test_draws_respect_bounds(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            gp = draw_generator_params(3, rng, max_radius=1.5)
            assert gp.radii.shape == (2,)
            assert np.all(gp.radii >= 0) and np.all(gp.radii <= 1.5)
            assert np.all(gp.phases >= 0) and np.all(gp.phases < 2 * math.pi)
