"""Operator-graph tests: seed projectors, generators, anticliques, compression."""

import math

import numpy as np
import pytest

from fockgraph import (
    GeneratorParams,
    GraphSpec,
    anticlique_projection,
    coherent_identity,
    compression_check,
    compression_constant,
    displaced_mode_amplitudes,
    draw_generator_params,
    graph_displacement,
    graph_generator,
    haar_unitary,
    polar_scheme,
    seed_basis,
    seed_projector,
    seed_projector_quadrature,
)
from fockgraph.config import dft_matrix
from fockgraph.fock import displacement_matrix
from fockgraph.multimode import trusted_mask


def block(op, mask):
    idx = np.flatnonzero(mask)
    return op[np.ix_(idx, idx)]


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
        spec = GraphSpec(phi=haar_unitary(3, rng), modes=3, cutoff=5)
        basis = seed_basis(spec)
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(6)).max() < 1e-12


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


class TestGraphGenerator:
    def test_zero_params_reduce_to_seed_projector(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=8)
        params = GeneratorParams(radii=[0.0], phases=[0.0])
        element = graph_generator(spec, params)
        assert np.abs(element.op - seed_projector(spec)).max() < 1e-13

    def test_backends_agree(self):
        rng = np.random.default_rng(33)
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=10)
        params = draw_generator_params(2, rng)
        rank = graph_generator(spec, params, backend="rank")
        direct = graph_generator(spec, params, backend="direct")
        assert np.abs(rank.op - direct.op).max() < 1e-10

    def test_trace_preserves_projector_rank(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=24)
        params = GeneratorParams(radii=[0.3], phases=[1.0])
        element = graph_generator(spec, params)
        # Rank-(cutoff+1) projector displaced by a small amount: the trace
        # deficit is the mass the top ladder states lose past the cutoff,
        # measured 2e-6 here.
        assert np.trace(element.op).real == pytest.approx(25.0, abs=1e-4)

    def test_trace_deficit_shrinks_with_cutoff(self):
        rng = np.random.default_rng(35)
        phi = haar_unitary(2, rng)
        params = GeneratorParams(radii=[0.8], phases=[1.0])
        deficits = []
        for cutoff in (12, 16, 20):
            spec = GraphSpec(phi=phi, modes=2, cutoff=cutoff)
            element = graph_generator(spec, params)
            deficits.append(cutoff + 1 - np.trace(element.op).real)
        assert deficits[0] > deficits[1] > deficits[2] > 0

    def test_element_validates_hermiticity_and_psd(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=8)
        params = GeneratorParams(radii=[0.6], phases=[2.2])
        element = graph_generator(spec, params)
        assert np.abs(element.op - element.op.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(element.op).min() > -1e-8

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
        assert np.abs(anticlique_projection(spec, params) - seed_projector(spec)).max() < 1e-13

    def test_is_generator_at_same_parameters(self):
        rng = np.random.default_rng(41)
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=10)
        params = draw_generator_params(2, rng)
        assert np.array_equal(anticlique_projection(spec, params), graph_generator(spec, params).op)

    def test_idempotent_where_ladder_survives(self):
        # The top ladder states lose mass under mixing and truncation, so
        # idempotency holds on the low block (measured 4e-10 here, reaching
        # 4e-5 on the full matrix).
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=24)
        params = GeneratorParams(radii=[0.8], phases=[0.5])
        proj = anticlique_projection(spec, params)
        mask = trusted_mask(spec.space, 8)
        assert np.abs(block(proj @ proj - proj, mask)).max() < 1e-8

    def test_rank_equals_ladder_length(self):
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=20)
        params = GeneratorParams(radii=[0.9], phases=[2.8])
        eigs = np.sort(np.linalg.eigvalsh(anticlique_projection(spec, params)))[::-1]
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
