"""Quadrature tests: Gauss-Laguerre rules and identity integrators."""

import cmath
import itertools
import math

import numpy as np
import pytest

from fockgraph import (
    AngularScheme,
    GraphSpec,
    coherent_identity,
    coherent_state,
    displaced_projector_identity,
    displacement_matrix,
    gauss_laguerre,
    graph_resolution,
    haar_unitary,
    kron_all,
    polar_scheme,
    seed_basis,
    seed_projector,
    seed_projector_quadrature,
    unnormalized_coherent,
)
from fockgraph.multimode import trusted_mask
from fockgraph.quadrature import integrate_dyads


def identity_deviation(op, mask=None):
    if mask is None:
        return np.abs(op - np.eye(op.shape[0])).max()
    idx = np.flatnonzero(mask)
    sub = op[np.ix_(idx, idx)]
    return np.abs(sub - np.eye(idx.size)).max()


def oracle_nodes(scheme):
    """(alpha, weight) one node at a time, angular-major, then radial."""
    nodes, weights = scheme.active_radial()
    count = scheme.angular.count
    for theta in scheme.angular.angles:
        phase = cmath.exp(1j * theta)
        for s, w in zip(nodes, weights):
            yield math.sqrt(s) * phase, w / count


def oracle_dyad_sum(vector, scheme, dim):
    """sum_k w_k u_k u_k^dag accumulated node by node with np.outer."""
    acc = np.zeros((dim, dim), dtype=complex)
    for alpha, weight in oracle_nodes(scheme):
        u = vector(alpha)
        acc += weight * np.outer(u, u.conj())
    return acc


def oracle_graph_resolution(spec, scheme, conjugate):
    """sum_k w_k conjugate(D_k) over the node product, first pair slowest."""
    acc = np.zeros((spec.space.dim, spec.space.dim), dtype=complex)
    for combo in itertools.product(list(oracle_nodes(scheme)), repeat=spec.modes - 1):
        alphas = np.array([alpha for alpha, _ in combo])
        weight = math.prod(w for _, w in combo)
        shifts = spec.phi[:, 1:] @ alphas
        tail = kron_all([displacement_matrix(h, spec.cutoff, include_gaussian=False) for h in shifts])
        acc += weight * conjugate(tail)
    return acc


class TestIntegrateDyads:
    # With 128 columns a chunk, rank 1 fills a chunk with 128 nodes, rank 17
    # with 7, and a node wider than the cap takes a chunk alone; the node
    # counts fall below a chunk, on it and off a multiple of it.
    @pytest.mark.parametrize(
        "rank, orders",
        [(1, (4, 5)), (1, (8, 16)), (1, (10, 20)), (17, (1, 5)), (17, (1, 7)), (17, (3, 10)), (130, (2, 3))],
    )
    def test_matches_per_node_outer_products(self, rank, orders):
        scheme = polar_scheme(*orders)
        base = np.random.default_rng(rank).standard_normal((5, rank))

        def columns(alpha):
            return base * alpha + np.arange(rank) / (1.0 + abs(alpha))

        expected = np.zeros((5, 5), dtype=complex)
        for alpha, weight in oracle_nodes(scheme):
            block = columns(alpha)
            for j in range(rank):
                expected += weight * np.outer(block[:, j], block[:, j].conj())
        got = integrate_dyads(lambda alphas: columns(alphas[0]), (scheme,), 5)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_radial_cap_dropping_every_node_gives_zeros(self):
        scheme = polar_scheme(5, 6, radial_cap=0.1)
        assert scheme.active_radial()[0].size == 0
        op = integrate_dyads(lambda alphas: np.ones(3), (scheme,), 3)
        assert np.array_equal(op, np.zeros((3, 3)))
        assert np.array_equal(coherent_identity(4, scheme), np.zeros((5, 5)))

    @pytest.mark.parametrize("orders", [(4, 5), (8, 16), (10, 20)])
    def test_coherent_identity_matches_outer_sum(self, orders):
        scheme = polar_scheme(*orders)
        expected = oracle_dyad_sum(lambda a: unnormalized_coherent(a, 6), scheme, 7)
        assert np.abs(coherent_identity(6, scheme) - expected).max() <= 1e-13

    def test_displaced_projector_identity_matches_outer_sum(self):
        scheme = polar_scheme(9, 20)
        seed = coherent_state(1.0, 12)
        expected = oracle_dyad_sum(
            lambda a: displacement_matrix(a, 12, include_gaussian=False) @ seed, scheme, 13
        )
        assert np.abs(displaced_projector_identity(1.0, 12, scheme) - expected).max() <= 1e-13

    def test_seed_projector_quadrature_matches_outer_sum(self):
        spec = GraphSpec(phi=haar_unitary(2, np.random.default_rng(5)), modes=2, cutoff=6)
        scheme = polar_scheme(7, 15)
        column = spec.phi[:, 0]
        expected = oracle_dyad_sum(
            lambda a: kron_all([unnormalized_coherent(a * c, 6) for c in column]), scheme, spec.space.dim
        )
        assert np.abs(seed_projector_quadrature(spec, scheme) - expected).max() <= 1e-13

    @pytest.mark.parametrize("orders", [(1, 5), (1, 7), (3, 10)])
    def test_rank_17_graph_resolution_matches_per_node_sum(self, orders):
        spec = GraphSpec(phi=haar_unitary(2, np.random.default_rng(6)), modes=2, cutoff=16)
        scheme = polar_scheme(*orders)
        basis = seed_basis(spec)
        expected = oracle_graph_resolution(spec, scheme, lambda d: (d @ basis) @ (d @ basis).conj().T)
        assert np.abs(graph_resolution(spec, scheme, backend="rank") - expected).max() <= 1e-13

    def test_direct_graph_resolution_matches_per_node_sum(self):
        spec = GraphSpec(phi=haar_unitary(3, np.random.default_rng(9)), modes=3, cutoff=3)
        scheme = polar_scheme(3, 4)
        projector = seed_projector(spec)
        expected = oracle_graph_resolution(spec, scheme, lambda d: d @ projector @ d.conj().T)
        assert np.abs(graph_resolution(spec, scheme, backend="direct") - expected).max() <= 1e-13


class TestGaussLaguerre:
    def test_order_one(self):
        scheme = gauss_laguerre(1)
        assert scheme.nodes == pytest.approx([1.0])
        assert scheme.weights == pytest.approx([1.0])

    def test_order_two_against_quadratic_roots(self):
        # Roots of 1 - 2s + s^2/2 via the quadratic formula, weights from
        # the derivative formula evaluated independently.
        scheme = gauss_laguerre(2)
        roots = sorted((2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)))
        assert scheme.nodes == pytest.approx(roots, abs=1e-12)
        assert scheme.nodes == pytest.approx([0.5857864376, 3.4142135624], abs=1e-9)
        assert scheme.weights == pytest.approx([0.8535533906, 0.1464466094], abs=1e-9)

    @pytest.mark.parametrize("order", [1, 2, 5, 13, 21, 40, 64])
    def test_moments_are_factorials(self, order):
        scheme = gauss_laguerre(order)
        assert math.fsum(scheme.weights) == pytest.approx(1.0, abs=1e-12)
        for power in range(0, 2 * order, max(1, order // 3)):
            moment = float(np.sum(scheme.weights * scheme.nodes**power))
            assert moment == pytest.approx(math.factorial(power), rel=1e-12)

    def test_low_moments(self):
        scheme = gauss_laguerre(9)
        assert float(np.sum(scheme.weights * scheme.nodes)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(scheme.weights * scheme.nodes**2)) == pytest.approx(2.0, abs=1e-12)

    def test_weights_match_eigenvector_components_at_moderate_order(self):
        # The derivative formula evaluates the same squared-first-component
        # weights the Jacobi eigenvectors carry, where those are representable.
        from scipy.linalg import eigh_tridiagonal

        order = 13
        nodes, vectors = eigh_tridiagonal(2.0 * np.arange(order) + 1.0, np.arange(1.0, order))
        scheme = gauss_laguerre(order)
        assert scheme.weights == pytest.approx(vectors[0] ** 2, rel=1e-10)

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError, match="order"):
            gauss_laguerre(0)
        with pytest.raises(ValueError, match="order"):
            gauss_laguerre(65)


class TestAngularScheme:
    def test_kills_low_harmonics(self):
        count = 17
        scheme = AngularScheme(count)
        for k in range(1, count):
            total = np.sum(np.exp(1j * k * scheme.angles)) * (2 * math.pi / count)
            assert abs(total) < 1e-12

    def test_keeps_constant(self):
        scheme = AngularScheme(8)
        assert np.sum(np.ones(8)) * (2 * math.pi / 8) == pytest.approx(2 * math.pi)


class TestCoherentIdentity:
    def test_single_level_single_node(self):
        op = coherent_identity(0, polar_scheme(1, 1))
        assert op.shape == (1, 1)
        assert op[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_exact_at_sufficient_orders(self):
        op = coherent_identity(4, polar_scheme(8, 16))
        assert identity_deviation(op) < 1e-12

    def test_hermitian_and_psd_for_any_scheme(self):
        for orders in ((3, 5), (6, 7), (10, 9)):
            op = coherent_identity(6, polar_scheme(*orders))
            assert np.abs(op - op.conj().T).max() < 1e-14
            assert np.linalg.eigvalsh(op).min() > -1e-12

    def test_deterministic_bits(self):
        a = coherent_identity(5, polar_scheme(7, 12))
        b = coherent_identity(5, polar_scheme(7, 12))
        assert np.array_equal(a, b)

    def test_radial_cap_diagnostic_against_incomplete_gamma(self):
        # Capped rule at level 0 approximates the integral of exp(-s) over
        # s <= 4, i.e. 1 - e^-4 = 0.9816843611.  The cap truncates a smooth
        # rule at a hard edge, so only ~1e-3 accuracy is available.
        op = coherent_identity(0, polar_scheme(24, 1, radial_cap=2.0))
        target = 1.0 - math.exp(-4.0)
        assert target == pytest.approx(0.9816843611, abs=1e-10)
        assert abs(op[0, 0].real - target) < 2e-3


class TestDisplacedProjectorIdentity:
    def test_vacuum_seed_reduces_to_coherent_identity(self):
        scheme = polar_scheme(9, 14)
        a = displaced_projector_identity(0.0, 6, scheme)
        b = coherent_identity(6, scheme)
        assert np.abs(a - b).max() < 1e-12

    def test_unit_seed_on_trusted_block(self):
        op = displaced_projector_identity(1.0, 24, polar_scheme(20, 52))
        mask = np.zeros(25, dtype=bool)
        mask[:9] = True
        assert identity_deviation(op, mask) < 1e-6

    def test_deviation_non_increasing_with_cutoff(self):
        scheme = polar_scheme(20, 52)
        devs = []
        for cutoff in (10, 12, 14):
            op = displaced_projector_identity(1.0, cutoff, scheme)
            mask = np.zeros(cutoff + 1, dtype=bool)
            mask[:9] = True
            devs.append(identity_deviation(op, mask))
        assert devs[0] > devs[1] > devs[2] > 0


class TestGraphResolution:
    def test_identity_mixing_is_exact_on_full_block(self):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=4)
        op = graph_resolution(spec, polar_scheme(8, 16), backend="rank")
        assert identity_deviation(op) < 1e-10

    def test_direct_backend_on_trusted_block(self):
        rng = np.random.default_rng(7)
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=16)
        op = graph_resolution(spec, polar_scheme(8, 24), backend="direct")
        assert identity_deviation(op, trusted_mask(spec.space, 5)) < 1e-4

    def test_direct_backend_improves_with_cutoff(self):
        rng = np.random.default_rng(7)
        phi = haar_unitary(2, rng)
        scheme = polar_scheme(8, 24)
        devs = []
        for cutoff in (12, 16):
            spec = GraphSpec(phi=phi, modes=2, cutoff=cutoff)
            op = graph_resolution(spec, scheme, backend="direct")
            devs.append(identity_deviation(op, trusted_mask(spec.space, 5)))
        assert devs[1] <= devs[0] + 1e-12

    def test_backends_agree_entrywise(self):
        rng = np.random.default_rng(8)
        spec = GraphSpec(phi=haar_unitary(2, rng), modes=2, cutoff=6)
        scheme = polar_scheme(7, 14)
        rank = graph_resolution(spec, scheme, backend="rank")
        direct = graph_resolution(spec, scheme, backend="direct")
        assert np.abs(rank - direct).max() < 1e-10

    def test_three_mode_identity_mixing(self):
        spec = GraphSpec(phi=np.eye(3, dtype=complex), modes=3, cutoff=2)
        op = graph_resolution(spec, polar_scheme(4, 8), backend="rank")
        assert identity_deviation(op) < 1e-10

    def test_rejects_single_mode(self):
        spec = GraphSpec(phi=np.eye(1, dtype=complex), modes=1, cutoff=4)
        with pytest.raises(ValueError, match="two modes"):
            graph_resolution(spec, polar_scheme(4, 8))

    def test_rejects_wrong_scheme_count(self):
        spec = GraphSpec(phi=np.eye(3, dtype=complex), modes=3, cutoff=2)
        with pytest.raises(ValueError, match="schemes"):
            graph_resolution(spec, (polar_scheme(4, 8),))

    def test_rejects_unknown_backend(self):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=2)
        with pytest.raises(ValueError, match="backend"):
            graph_resolution(spec, polar_scheme(3, 6), backend="sparse")
