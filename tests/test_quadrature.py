"""Quadrature tests: Gauss-Laguerre rules and identity integrators."""

import cmath
import copy
import itertools
import math
import pickle
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fockgraph import (
    AngularScheme,
    GeneratorParams,
    GraphSpec,
    coherent_identity,
    coherent_state,
    compression_check,
    displaced_projector_identity,
    displacement_matrix,
    gauss_laguerre,
    graph_resolution,
    kron_all,
    polar_scheme,
    seed_basis,
    seed_projector_quadrature,
    unnormalized_coherent,
)
from fockgraph import graphs, quadrature
from fockgraph.config import config_from_dict, dft_matrix
from fockgraph.quadrature import (
    CHUNK_ENTRIES,
    SERIAL_GEMM_MACS,
    RadialScheme,
    box_side,
    exact_rule,
    serial_matmul,
)
from fockgraph.runner import run_experiment
from oracles import (
    displace_modewise,
    gauss_laguerre_decimal,
    gauss_laguerre_reference,
    haar_unitary,
    occupations,
    poisson_cdf,
    rotation_sectors_loop,
    rule_operator_reference,
    seed_projector,
    trusted_mask,
)

PRECISION_MARGIN = 1.25


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
    """sum_k w_k conjugate(D_k) over the product of the scheme's nodes, one factor per pair, first pair slowest."""
    acc = np.zeros((spec.space.dim, spec.space.dim), dtype=complex)
    for combo in itertools.product(list(oracle_nodes(scheme)), repeat=spec.modes - 1):
        alphas = np.array([alpha for alpha, _ in combo])
        weight = math.prod(w for _, w in combo)
        shifts = spec.phi[:, 1:] @ alphas
        tail = kron_all([displacement_matrix(h, spec.cutoff, include_gaussian=False) for h in shifts])
        acc += weight * conjugate(tail)
    return acc


def record_chunks(monkeypatch):
    """Record the radii of each displacement-kernel call and each serial_matmul left operand's shape in quadrature."""
    sizes, operands = [], []

    def kernel(alpha, cutoff, include_gaussian=True, rows=None):
        sizes.append(np.size(alpha))
        return displacement_matrix(alpha, cutoff, include_gaussian, rows)

    def product(a, b):
        operands.append(a.shape)
        return serial_matmul(a, b)

    monkeypatch.setattr(quadrature, "displacement_matrix", kernel)
    monkeypatch.setattr(quadrature, "serial_matmul", product)
    return sizes, operands


class TestIntegrateDyads:
    # displaced_projector_identity builds one node per radius, with rank =
    # min(M, rows + cutoff) residue columns, and a chunk holds CHUNK_ENTRIES
    # // (rows * max(cutoff + 1, width)) radii, width the diagonal stack's.
    # The shape of each rank gives 3 radii a chunk at rank 1 (M = 1, 101 x 201
    # entries a node) and 2 at rank 17 (101 x 255); at rank 4 a node, 256 x
    # 512 entries, is wider than the budget and takes a chunk alone.  The
    # radial orders fall below a chunk, on a multiple of it and off one.
    SHAPES = {1: (100, 100, 3), 17: (150, 100, 2), 4: (255, 255, 1)}

    @pytest.mark.parametrize(
        "rank, orders",
        [(1, (2, 1)), (1, (6, 1)), (1, (10, 1)), (17, (1, 17)), (17, (4, 17)), (17, (5, 17)), (4, (2, 4))],
    )
    def test_matches_per_node_outer_products(self, monkeypatch, rank, orders):
        cutoff, block, step = self.SHAPES[rank]
        scheme = polar_scheme(*orders)
        rows = box_side(cutoff, block)
        seed = coherent_state(1.0, cutoff)
        expected = oracle_dyad_sum(
            lambda a: displacement_matrix(a, cutoff, include_gaussian=False, rows=rows) @ seed, scheme, rows
        )
        sizes, operands = record_chunks(monkeypatch)
        got = displaced_projector_identity(1.0, cutoff, scheme, trusted_block=block)
        assert sizes[:-1] == [step] * (len(sizes) - 1) and 1 <= sizes[-1] <= step
        assert sum(sizes) == orders[0]
        assert operands == [(rows, size * rank) for size in sizes]
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

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

    def test_displaced_projector_identity_bounds_kernel_batches(self, monkeypatch):
        # At cutoff 40 the 81 differences m - n fold onto the 20 residues, so
        # a node's diagonal stack, 41 x 100 entries (81 padded to 5 x 20),
        # is its widest array and a chunk holds CHUNK_ENTRIES // 4100 = 15
        # nodes: the 9 nodes of the fold, one per radius, go in one chunk.
        scheme = polar_scheme(9, 20)
        seed = coherent_state(1.0, 40)
        expected = oracle_dyad_sum(
            lambda a: displacement_matrix(a, 40, include_gaussian=False) @ seed, scheme, 41
        )
        sizes, _ = record_chunks(monkeypatch)
        got = displaced_projector_identity(1.0, 40, scheme)
        assert sizes == [9]
        assert max(sizes) * 41 * 100 <= CHUNK_ENTRIES
        assert np.abs(got - expected).max() <= 1e-13

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

    @pytest.mark.parametrize("modes, cutoff, rows", [(2, 16, 9), (2, 40, 21), (3, 6, 3), (3, 8, 9), (4, 6, 5), (5, 5, 2)])
    def test_rotation_sectors_match_the_step_by_step_sweep(self, modes, cutoff, rows):
        # The cached plan changes no product and no order of summation: V is bitwise the same.
        for phi in (dft_matrix(modes), haar_unitary(modes, np.random.default_rng(rows))):
            spec = GraphSpec(phi=phi, modes=modes, cutoff=cutoff)
            expected = rotation_sectors_loop(spec, rows)
            got = quadrature._rotation_sectors(spec, rows)
            assert len(got) == len(expected) == modes * (rows - 1) + 1
            for (at, ladder), (at_ref, ladder_ref) in zip(got, expected):
                assert np.array_equal(at, at_ref)
                assert ladder.flags.f_contiguous and np.array_equal(ladder, ladder_ref)

    def test_direct_graph_resolution_matches_per_node_sum(self):
        spec = GraphSpec(phi=haar_unitary(3, np.random.default_rng(9)), modes=3, cutoff=3)
        scheme = polar_scheme(3, 4)
        projector = seed_projector(spec)
        expected = oracle_graph_resolution(spec, scheme, lambda d: d @ projector @ d.conj().T)
        assert np.abs(graph_resolution(spec, scheme, backend="direct") - expected).max() <= 1e-13


class TestTrustedBox:
    """Integrators bounded by the trusted box return the box block of the full operator."""

    @pytest.mark.parametrize(
        "modes, cutoff, block, orders", [(2, 16, 8, (17, 34)), (3, 6, 2, (4, 8))], ids=["n2-c16-t8", "n3-c6-t2"]
    )
    def test_rank_box_matches_full_block(self, modes, cutoff, block, orders):
        spec = GraphSpec(phi=haar_unitary(modes, np.random.default_rng(cutoff)), modes=modes, cutoff=cutoff)
        scheme = polar_scheme(*orders)
        full = graph_resolution(spec, scheme, backend="rank")
        boxed = graph_resolution(spec, scheme, backend="rank", trusted_block=block)
        idx = np.flatnonzero(trusted_mask(spec.space, block))
        assert boxed.shape == (idx.size, idx.size) == ((block + 1) ** modes,) * 2
        expected = full[np.ix_(idx, idx)]
        assert np.abs(boxed - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_single_mode_integrators_match_full_block(self):
        scheme = polar_scheme(9, 20)
        full = displaced_projector_identity(1.0, 12, scheme)
        boxed = displaced_projector_identity(1.0, 12, scheme, trusted_block=5)
        assert np.abs(boxed - full[:6, :6]).max() <= 1e-13 * np.abs(full).max()
        spec = GraphSpec(phi=haar_unitary(2, np.random.default_rng(3)), modes=2, cutoff=8)
        full = seed_projector_quadrature(spec, scheme)
        boxed = seed_projector_quadrature(spec, scheme, trusted_block=4)
        idx = np.flatnonzero(trusted_mask(spec.space, 4))
        assert np.abs(boxed - full[np.ix_(idx, idx)]).max() <= 1e-13 * np.abs(full).max()

    def test_box_at_cutoff_is_full_operator(self):
        spec = GraphSpec(phi=haar_unitary(2, np.random.default_rng(4)), modes=2, cutoff=6)
        scheme = polar_scheme(7, 14)
        for backend in ("rank", "direct"):
            full = graph_resolution(spec, scheme, backend=backend)
            assert np.array_equal(graph_resolution(spec, scheme, backend=backend, trusted_block=6), full)
        full = displaced_projector_identity(1.0, 6, scheme)
        assert np.array_equal(displaced_projector_identity(1.0, 6, scheme, trusted_block=6), full)
        full = seed_projector_quadrature(spec, scheme)
        assert np.array_equal(seed_projector_quadrature(spec, scheme, trusted_block=6), full)

    def test_direct_backend_slices_full_operator(self):
        spec = GraphSpec(phi=haar_unitary(3, np.random.default_rng(9)), modes=3, cutoff=3)
        scheme = polar_scheme(3, 4)
        full = graph_resolution(spec, scheme, backend="direct")
        idx = np.flatnonzero(trusted_mask(spec.space, 1))
        boxed = graph_resolution(spec, scheme, backend="direct", trusted_block=1)
        assert np.array_equal(boxed, full[np.ix_(idx, idx)])
        rank = graph_resolution(spec, scheme, backend="rank", trusted_block=1)
        assert np.abs(rank - boxed).max() <= 1e-13

    @pytest.mark.parametrize("block", [-1, 7])
    def test_rejects_box_outside_cutoff(self, block):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=6)
        scheme = polar_scheme(3, 6)
        with pytest.raises(ValueError, match="trusted_block"):
            graph_resolution(spec, scheme, trusted_block=block)
        with pytest.raises(ValueError, match="trusted_block"):
            displaced_projector_identity(1.0, 6, scheme, trusted_block=block)
        with pytest.raises(ValueError, match="trusted_block"):
            seed_projector_quadrature(spec, scheme, trusted_block=block)
        point = GeneratorParams(radii=[0.5], phases=[0.0])
        with pytest.raises(ValueError, match="trusted_block"):
            compression_check(spec, point, [point], trusted_block=block)

    def test_small_box_at_large_cutoff_stays_within_budget(self):
        # n=2 at cutoff 64 (dim 4225, rank 65) on the vacuum box: the rank
        # backend reads the 16 x 8 rule through its 1 x 1 rule operator and
        # V_0 = 1, with no ladder and no node, so memory stays within a few
        # chunk arrays; the full operator's accumulator alone would take
        # 285 MB.
        spec = GraphSpec(phi=haar_unitary(2, np.random.default_rng(11)), modes=2, cutoff=64)
        scheme = polar_scheme(16, 8)
        basis = seed_basis(spec)
        tracemalloc.start()
        try:
            got = graph_resolution(spec, scheme, backend="rank", trusted_block=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * CHUNK_ENTRIES * 16
        # Oracle: the vacuum row of D_1 x D_2 is the Kronecker product of
        # the rows, so each node adds |row @ basis|^2.
        expected = 0.0
        for alpha, weight in oracle_nodes(scheme):
            rows = [displacement_matrix(h, 64, include_gaussian=False)[0] for h in spec.phi[:, 1] * alpha]
            expected += weight * np.sum(np.abs(kron_all(rows) @ basis) ** 2)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - expected) <= 1e-13 * expected


class TestRuleAliasing:
    """The integrators read the polar rule through its operator C, aliasing and all, as the node-by-node sum does."""

    # (modes, radial order, angular count M) of one rule that every parameter
    # pair shares, and whether the node-by-node sum aliases: entries whose
    # total occupations differ by a nonzero multiple of M stand far above
    # 1e-6 of the largest.  At cutoff 6 - n the full box's totals reach 8
    # (n=2), 9 (n=3) and 5 (n=5).
    RULES = [
        ((3, 4, 10), False),  # M = 10 above every total difference
        ((2, 4, 7), True),  # M = 7 prime: 8 - 1 aliases
        ((3, 3, 6), True),  # M = 6 composite: 7 - 1 aliases
        ((5, 1, 6), False),  # M = 6 above every total difference
        ((5, 2, 3), True),  # M = 3: 4 - 1 aliases
        ((2, 6, 12), False),  # M = 12 above every total difference
    ]
    # One-mode rules at cutoff 8 (n=2 cutoff 4 for the seed projector).
    SINGLE_MODE_RULES = [
        ((4, 7), True),  # 8 - 1 aliases
        ((5, 4), True),  # M = 4 below the largest occupation
        ((6, 12), False),  # M = 12 above every difference
    ]

    @staticmethod
    def aliases(expected, totals, angular) -> bool:
        difference = np.subtract.outer(totals, totals)
        folded = (difference % angular == 0) & (difference != 0)
        return bool(np.max(np.abs(expected[folded]), initial=0.0) > 1e-6 * np.abs(expected).max())

    @pytest.mark.parametrize("orders, aliased", RULES)
    def test_graph_resolution_matches_per_node_sum(self, orders, aliased):
        modes, radial, angular = orders
        phi = haar_unitary(modes, np.random.default_rng(modes + angular))
        spec = GraphSpec(phi=phi, modes=modes, cutoff=6 - modes)
        scheme = polar_scheme(radial, angular)
        basis = seed_basis(spec)
        expected = oracle_graph_resolution(spec, scheme, lambda d: (d @ basis) @ (d @ basis).conj().T)
        got = graph_resolution(spec, scheme, backend="rank")
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert self.aliases(expected, occupations(spec.space).sum(axis=1), angular) == aliased

    @pytest.mark.parametrize("orders, aliased", SINGLE_MODE_RULES)
    def test_single_mode_integrators_match_per_node_sum(self, orders, aliased):
        scheme = polar_scheme(*orders)
        expected = oracle_dyad_sum(lambda a: unnormalized_coherent(a, 8), scheme, 9)
        assert np.abs(coherent_identity(8, scheme) - expected).max() <= 1e-13 * np.abs(expected).max()
        assert self.aliases(expected, np.arange(9), orders[1]) == aliased
        spec = GraphSpec(phi=haar_unitary(2, np.random.default_rng(orders[1])), modes=2, cutoff=4)
        column = spec.phi[:, 0]
        expected = oracle_dyad_sum(
            lambda a: kron_all([unnormalized_coherent(a * c, 4) for c in column]), scheme, spec.space.dim
        )
        got = seed_projector_quadrature(spec, scheme)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert self.aliases(expected, occupations(spec.space).sum(axis=1), orders[1]) == aliased

    # Cutoff 3: the full box's totals reach 9, so M = 4 and 7 alias and 10 does not.
    @pytest.mark.parametrize("angular", [4, 7, 10])
    def test_three_mode_rank_matches_direct(self, angular):
        spec = GraphSpec(phi=haar_unitary(3, np.random.default_rng(angular)), modes=3, cutoff=3)
        scheme = polar_scheme(3, angular)
        rank = graph_resolution(spec, scheme, backend="rank")
        direct = graph_resolution(spec, scheme, backend="direct")
        assert np.abs(rank - direct).max() <= 1e-13

    def test_five_mode_rank_matches_direct(self):
        # Cutoff 1 (dim 32, totals up to 5) under the aliased 2 x 3 rule, (2 x 3)^4 = 1296 product nodes for the oracle.
        spec = GraphSpec(phi=haar_unitary(5, np.random.default_rng(5)), modes=5, cutoff=1)
        scheme = polar_scheme(2, 3)
        rank = graph_resolution(spec, scheme, backend="rank")
        direct = graph_resolution(spec, scheme, backend="direct")
        assert np.abs(rank - direct).max() <= 1e-13

    def test_default_resolution_evaluates_no_node(self, monkeypatch):
        # n=2 c=16 at the defaults: the 17 x 34 rule is read through its
        # operator C, so no per-mode ladder factor and no displacement matrix is built.
        def refuse(*args, **kwargs):
            raise AssertionError("a node column was built")

        builders = ((graphs, "_mode_factors"), (quadrature, "displacement_matrix"))
        for module, name in builders:
            monkeypatch.setattr(module, name, refuse)
        spec = GraphSpec(phi=dft_matrix(2), modes=2, cutoff=16)
        got = graph_resolution(spec, polar_scheme(17, 34), backend="rank", trusted_block=8)
        assert identity_deviation(got) <= 1e-13

    def test_aliased_full_box_stays_within_budget(self):
        # n=3 cutoff 6 with trusted_block = cutoff: the 343 x 343 result
        # (1.9 MB) over rotated tuples of total up to 18, 1330 of them, where
        # one dense X over them would take 28 MB.  X is never formed: each
        # sector pair sums the columns of V_N matched within a residue class,
        # and its class plan is built here too.  The 2 x 5 rule aliases;
        # the oracle is the node-by-node sum of the displaced ladders.
        spec = GraphSpec(phi=haar_unitary(3, np.random.default_rng(36)), modes=3, cutoff=6)
        scheme = polar_scheme(2, 5)
        tracemalloc.start()
        try:
            got = graph_resolution(spec, scheme, backend="rank", trusted_block=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 2 * CHUNK_ENTRIES * 16
        nodes = list(itertools.product(list(oracle_nodes(scheme)), repeat=2))
        alphas = np.array([[alpha for alpha, _ in combo] for combo in nodes])
        weights = np.array([math.prod(w for _, w in combo) for combo in nodes])
        ladders = displace_modewise(spec, seed_basis(spec), alphas) * np.sqrt(weights)[:, None, None]
        stacked = ladders.transpose(1, 0, 2).reshape(spec.space.dim, -1)
        expected = stacked @ stacked.conj().T
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_one_node_full_box_stays_within_budget(self):
        # n=3 cutoff 8 with trusted_block = cutoff under the one-node rule Q=1, M=1: a class is one ladder
        # level, of up to 25 tuples in a sector, so every sector pair couples and 276,555 tuple pairs of
        # sectors N >= N' match.  Beside the 729 x 729 result (8.5 MB) the op holds V (1.2 MB), its class
        # plan (0.8 MB, built here), one window's gather (within CHUNK_ENTRIES entries) and index arrays,
        # and a pair's sums; a plan with an entry per matched pair took 35 MB.  The oracle is the single node.
        spec = GraphSpec(phi=haar_unitary(3, np.random.default_rng(81)), modes=3, cutoff=8)
        scheme = polar_scheme(1, 1)
        quadrature._class_plan.cache_clear()
        tracemalloc.start()
        try:
            got = graph_resolution(spec, scheme, backend="rank", trusted_block=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 6 * CHUNK_ENTRIES * 16
        direct = graph_resolution(spec, scheme, backend="direct", trusted_block=8)
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


class TestDisplacedSeedFold:
    """displaced_projector_identity folds each radius's angles onto its residue columns."""

    # Cutoff 16 with 17 radii: the default covariant_gs rule at 34 angles, and
    # counts at or below the 25 (box) or 33 (full) differences m - n, where
    # the rule aliases.
    @pytest.mark.parametrize("angular", [1, 5, 7, 17, 34])
    @pytest.mark.parametrize("block", [8, None])
    def test_matches_per_node_outer_products_over_every_node(self, monkeypatch, angular, block):
        scheme = polar_scheme(17, angular)
        rows = box_side(16, block)
        seed = coherent_state(1.0, 16)
        expected = oracle_dyad_sum(
            lambda a: displacement_matrix(a, 16, include_gaussian=False, rows=rows) @ seed, scheme, rows
        )
        amplitudes, _ = record_chunks(monkeypatch)
        got = displaced_projector_identity(1.0, 16, scheme, trusted_block=block)
        assert sum(amplitudes) == 17
        assert np.abs(got - expected).max() <= 1e-13

    # On the default 9-row box at cutoff 16 the differences m - n run over
    # -16..8, 25 values, which take min(M, 25) residues mod M; the diagonal
    # stack is padded to a multiple of M (28 wide at M = 7).  The rank is
    # read from the product's operand, 9 rows by rank columns a radius.
    # With CHUNK_ENTRIES cut to 9 * width^2, a chunk holds `width` of the
    # 64 radii exactly when the budget counts the padded stack.
    @pytest.mark.parametrize(
        "angular, rank, width", [(1, 1, 25), (7, 7, 28), (25, 25, 25), (26, 25, 25), (2**17, 25, 25)]
    )
    def test_rank_is_the_residues_that_occur(self, monkeypatch, angular, rank, width):
        monkeypatch.setattr(quadrature, "CHUNK_ENTRIES", 9 * width * width)
        sizes, operands = record_chunks(monkeypatch)
        got = displaced_projector_identity(1.0, 16, polar_scheme(64, angular), trusted_block=8)
        assert sizes == [width, width, 64 - 2 * width]
        assert operands == [(9, size * rank) for size in sizes]
        assert got.shape == (9, 9)


class TestDisplaceModewise:
    @pytest.mark.parametrize("modes, cutoff", [(2, 16), (3, 4), (3, 5), (3, 6)])
    def test_matches_kronecker_product(self, modes, cutoff):
        # DFT mixing at n=2, Haar mixing at n=3.
        rng = np.random.default_rng(10 * modes + cutoff)
        phi = dft_matrix(modes) if modes == 2 else haar_unitary(modes, rng)
        spec = GraphSpec(phi=phi, modes=modes, cutoff=cutoff)
        basis = seed_basis(spec)
        alphas = rng.uniform(0.0, 5.0, (6, modes - 1)) * np.exp(2j * math.pi * rng.uniform(size=(6, modes - 1)))
        got = displace_modewise(spec, basis, alphas)
        assert got.shape == (6, spec.space.dim, cutoff + 1)
        # Rows cut to the trusted box give its rows of the full product.
        box = cutoff // modes
        idx = np.flatnonzero(trusted_mask(spec.space, box))
        boxed = displace_modewise(spec, basis, alphas, box + 1)
        assert boxed.shape == (6, idx.size, cutoff + 1)
        for alpha, block, box_block in zip(alphas, got, boxed):
            shifts = spec.phi[:, 1:] @ alpha
            expected = kron_all([displacement_matrix(h, cutoff, include_gaussian=False) for h in shifts]) @ basis
            assert np.abs(block - expected).max() <= 1e-13 * np.abs(expected).max()
            assert np.abs(box_block - expected[idx]).max() <= 1e-13 * np.abs(expected).max()


class TestSerialMatmul:
    # Shapes of the default suite (n=2, cutoff 16): the seed projector, an
    # 81-row dyad accumulate on the resolution box (two-row blocks, so a
    # one-row remainder), a ladder Gram and its residual factor; then a
    # product too small to cut, rows too wide to cut, and a single row.
    @pytest.mark.parametrize(
        "m, k, n",
        [(289, 17, 289), (81, 289, 81), (17, 289, 17), (289, 17, 17), (40, 10, 10), (3, 200, 200), (1, 17, 5)],
    )
    def test_gemms_stay_serial_and_match_the_product(self, monkeypatch, m, k, n):
        rng = np.random.default_rng(m * k * n)
        a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        b = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))).conj().T
        gemms = []
        matmul = np.matmul

        def recording(x, y, **kwargs):
            gemms.append((len(x), x.shape[1], y.shape[1]))
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        got = serial_matmul(a, b)
        monkeypatch.undo()
        expected = a @ b
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        if m > 1 and 2 * k * n <= SERIAL_GEMM_MACS:
            # Within the budget and never one row: numpy hands a one-row
            # product to GEMV, which OpenBLAS threads from 4096 multiply-adds.
            assert all(2 <= rows and rows * k * n <= SERIAL_GEMM_MACS for rows, _, _ in gemms)
        else:
            assert gemms == [(m, k, n)]


    def test_a_stack_takes_each_matrix_in_its_own_row_blocks(self, monkeypatch):
        # The Gram convolution's product at n=2 cutoff 16, (17 x 289) @ (289 x 17), for 13 points: the rows
        # go in blocks of 13 and 4 in every matrix, so each matrix is bitwise its own 2-D product.
        rng = np.random.default_rng(4913)
        a = rng.standard_normal((13, 17, 289)) + 1j * rng.standard_normal((13, 17, 289))
        b = rng.standard_normal((13, 289, 17)) + 1j * rng.standard_normal((13, 289, 17))
        gemms = []
        matmul = np.matmul

        def recording(x, y, **kwargs):
            gemms.append(x.shape + y.shape[-1:])
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        got = serial_matmul(a, b)
        monkeypatch.undo()
        assert gemms == [(13, 13, 289, 17), (13, 4, 289, 17)]
        assert all(np.array_equal(matrix, serial_matmul(left, right)) for matrix, left, right in zip(got, a, b))
        assert np.array_equal(serial_matmul(a, b[0]), np.stack([serial_matmul(left, b[0]) for left in a]))


class TestGaussLaguerre:
    def test_order_one(self):
        scheme = gauss_laguerre(1)
        assert scheme.nodes.tolist() == [1.0]
        assert scheme.weights.tolist() == [1.0]

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

    @pytest.mark.parametrize("order", range(1, 65))
    def test_bitwise_equal_to_tridiagonal_reference(self, order):
        # The dense eigensolve and scipy's tridiagonal one give the same rule
        # after the Newton polish, bit for bit.
        nodes, weights = gauss_laguerre_reference(order)
        scheme = gauss_laguerre(order)
        assert np.array_equal(scheme.nodes, nodes)
        assert np.array_equal(scheme.weights, weights)

    # Largest relative errors of the float nodes and weights against 50 digits, as measured, pinned within
    # PRECISION_MARGIN both ways.  The polished nodes are within one rounding; the weights, 1 / (s L_{Q-1}^(1)(s)^2),
    # carry the order-1 recurrence's error twice and err most at the largest nodes.
    @pytest.mark.parametrize(
        "order, node_pin, weight_pin", [(17, 1.06e-16, 6.90e-15), (33, 2.08e-16, 1.31e-14), (64, 1.43e-16, 2.45e-14)]
    )
    def test_rule_matches_the_50_digit_reference(self, order, node_pin, weight_pin):
        nodes, weights = gauss_laguerre_decimal(order)
        scheme = gauss_laguerre(order)
        with localcontext() as context:
            context.prec = 50
            node_error = float(max(abs(Decimal(x) - y) / y for x, y in zip(scheme.nodes.tolist(), nodes)))
            weight_error = float(max(abs(Decimal(x) - y) / y for x, y in zip(scheme.weights.tolist(), weights)))
        assert node_pin / PRECISION_MARGIN <= node_error <= node_pin * PRECISION_MARGIN
        assert weight_pin / PRECISION_MARGIN <= weight_error <= weight_pin * PRECISION_MARGIN

    def test_weights_of_every_order_sum_to_one(self):
        # The zeroth moment of exp(-s), summed exactly.
        sums = [math.fsum(gauss_laguerre(order).weights) for order in range(1, 65)]
        assert max(abs(total - 1.0) for total in sums) <= 6.7e-16

    @pytest.mark.parametrize("order", range(1, 65))
    def test_every_order_builds(self, order):
        # RadialScheme checks that the weights sum to 1 within 1e-12; order
        # 60 missed it before its nodes were polished.
        scheme = gauss_laguerre(order)
        assert scheme.nodes.size == order

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError, match="order"):
            gauss_laguerre(0)
        with pytest.raises(ValueError, match="order"):
            gauss_laguerre(65)


class TestRadialScheme:
    def test_caller_arrays_stay_their_own(self):
        nodes, weights = np.array([0.5, 2.0]), np.array([0.75, 0.25])
        scheme = RadialScheme(nodes=nodes, weights=weights)
        nodes[0], weights[0] = -1.0, 3.0
        assert scheme.nodes.tolist() == [0.5, 2.0] and scheme.weights.tolist() == [0.75, 0.25]

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_arrays_read_only(self, duplicate):
        scheme = gauss_laguerre(5)
        copied = duplicate(scheme)
        assert copied is not scheme
        for name in ("nodes", "weights"):
            array = getattr(copied, name)
            assert not array.flags.writeable and array.tobytes() == getattr(scheme, name).tobytes()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RadialScheme([0.5, 2.0], [1.0]), ValueError, "nodes and weights must be matching nonempty vectors"),
        (lambda: RadialScheme([2.0, 0.5], [0.5, 0.5]), ValueError, "nodes must be strictly increasing and positive"),
        (lambda: RadialScheme([0.5, 2.0], [1.5, -0.5]), ValueError, "weights must be positive"),
        (lambda: RadialScheme([0.5, 2.0], [0.5, 0.25]), ValueError, "weights must sum to 1 (zeroth moment of exp(-s))"),
        (lambda: AngularScheme(0), ValueError, "angular count must be >= 1, got 0"),
        (lambda: coherent_identity(-1, polar_scheme(2, 4)), ValueError, "cutoff must be nonnegative"),
        (lambda: graph_resolution(np.eye(4), polar_scheme(2, 4)), TypeError, "spec must be a GraphSpec"),
    ],
    ids=[
        "radial-shapes",
        "radial-node-order",
        "radial-weight-sign",
        "radial-weight-sum",
        "angular-count",
        "identity-cutoff",
        "resolution-spec",
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


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

    # The max-abs error of the size-64 rule operator against the 50-digit
    # reference (float64 nodes and weights exact), pinned within a factor
    # PRECISION_MARGIN both ways: a larger error is a regression, a smaller
    # one a change that should move the pin.
    @pytest.mark.parametrize("orders, pin", [((32, 128), 2.53e-15), ((33, 66), 4.40e-15), ((17, 34), 2.30e-15)])
    def test_rule_operator_matches_the_50_digit_reference(self, orders, pin):
        scheme = polar_scheme(*orders)
        reference = rule_operator_reference(64, scheme)
        with localcontext() as context:
            context.prec = 50
            rows = zip(quadrature._rule_operator(64, scheme).tolist(), reference)
            error = float(max(abs(Decimal(x) - y) for got, want in rows for x, y in zip(got, want)))
        assert pin / PRECISION_MARGIN <= error <= pin * PRECISION_MARGIN


class TestExactRule:
    """exact_rule(span) is the smallest rule whose rule operator is the identity on grades 0..span.

    Every default rule is exact_rule of its experiment's span: ``t`` for
    ``gs``, ``n t`` for ``projection`` and ``resolution``, ``t`` plus the
    largest cutoff run for ``covariant_gs`` and ``convergence``.
    """

    @pytest.mark.parametrize("span", range(21))
    def test_exact_and_sharp_on_the_rule_operator(self, span):
        radial, angular = exact_rule(span)
        assert 2 * radial - 1 >= span and angular > span
        assert identity_deviation(coherent_identity(span, polar_scheme(radial, angular))) <= 1e-13
        # Past order 21 the one missing degree, (Q!)^2 / (2Q)! of the top diagonal, sinks below the rounding.
        if radial > 1:
            assert identity_deviation(coherent_identity(span, polar_scheme(radial - 1, angular))) > 1e-8
        if angular > 1:
            assert identity_deviation(coherent_identity(span, polar_scheme(radial, angular - 1))) > 1e-8

    # The default rule reads at most 1e-13, and one radial order fewer or one angle fewer FAILs.
    @pytest.mark.parametrize(
        "data, rule",
        [
            ({"experiment": "gs", "cutoff": 8}, (5, 9)),
            ({"experiment": "gs", "cutoff": 16}, (9, 17)),
            ({"experiment": "gs", "cutoff": 40}, (21, 41)),
            ({"experiment": "projection", "cutoff": 16}, (9, 17)),
            ({"experiment": "projection", "n": 3, "cutoff": 8}, (4, 7)),
            ({"experiment": "projection", "n": 3, "cutoff": 16}, (8, 16)),
            ({"experiment": "resolution", "cutoff": 16}, (9, 17)),
            ({"experiment": "resolution", "n": 3, "cutoff": 8}, (4, 7)),
            ({"experiment": "resolution", "n": 3, "cutoff": 16}, (8, 16)),
        ],
    )
    def test_default_rule_is_exact_and_sharp(self, data, rule):
        cfg = config_from_dict(data)
        assert (cfg.radial_order, cfg.angular_order) == rule
        report = run_experiment(cfg)
        assert report.passed and max(report.max_abs_deviation, report.frobenius_deviation) <= 1e-13
        radial, angular = rule
        for fewer in ({"radial_order": radial - 1}, {"angular_order": angular - 1}):
            assert not run_experiment(config_from_dict({**data, **fewer})).passed

    # The displaced seed's top weights |beta_c|^2 ~ 1/c! are tiny, so there the rule is sufficient, not sharp.
    @pytest.mark.parametrize(
        "data, rule",
        [
            ({"experiment": "covariant_gs", "cutoff": 16}, (13, 25)),
            ({"experiment": "covariant_gs", "cutoff": 40}, (25, 49)),
            ({"experiment": "covariant_gs", "cutoff": 40, "trusted_block": 20}, (31, 61)),
            ({"experiment": "convergence"}, (14, 27)),
            ({"experiment": "convergence", "cutoff": 4, "cutoff_ladder": [16, 20]}, (15, 29)),
            ({"experiment": "convergence", "cutoff_ladder": [8, 16, 32, 64]}, (35, 69)),
        ],
    )
    def test_default_displaced_rule_is_exact(self, data, rule):
        cfg = config_from_dict(data)
        assert (cfg.radial_order, cfg.angular_order) == rule
        report = run_experiment(cfg)
        assert report.passed and max(report.max_abs_deviation, report.frobenius_deviation) <= 1e-13


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

    # With an exact rule the truncated integral on rows 0..t is P(Poisson(|beta|^2) <= cutoff) I, by the
    # orthogonality of the Heisenberg-Weyl matrix elements: the seed keeps only its mass up to the cutoff.
    # The rule is exact when M > t + cutoff (no aliased angular difference) and 2Q - 1 >= t + cutoff.
    @staticmethod
    def closed_form_deviation(beta, cutoff, scheme, trusted_block=None):
        op = displaced_projector_identity(beta, cutoff, scheme, trusted_block)
        return np.abs(op - poisson_cdf(abs(beta) ** 2, cutoff) * np.eye(len(op))).max()

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("cutoff", [6, 8, 12, 16])
    def test_default_rule_gives_the_poisson_mass(self, cutoff, beta):
        # The default rule on the whole block, t = cutoff: exact at span t + cutoff.
        scheme = polar_scheme(*exact_rule(2 * cutoff))
        assert self.closed_form_deviation(beta, cutoff, scheme) <= 1e-14

    # Cutoff 8, t = 4, beta = 1.5: t + cutoff = 12.  (Q, M) = (7, 13) is exact (read 8.9e-16); one radial
    # order fewer or one angle fewer is not.
    def test_exact_rule_edges(self):
        assert self.closed_form_deviation(1.5, 8, polar_scheme(7, 13), 4) <= 1e-14
        assert self.closed_form_deviation(1.5, 8, polar_scheme(6, 13), 4) == pytest.approx(9.198e-4, rel=1e-3)
        assert self.closed_form_deviation(1.5, 8, polar_scheme(7, 12), 4) == pytest.approx(9.846e-3, rel=1e-3)


class TestGraphResolution:
    @pytest.mark.parametrize("cutoff", [56, 63])
    def test_default_rule_stays_exact_at_large_cutoff(self, cutoff):
        # V comes from the number-operator recurrence; built by the single
        # raising step (the first occupied mode) it read 9.0e-10 and 6.7e-9 here.
        report = run_experiment(config_from_dict({"experiment": "resolution", "cutoff": cutoff}))
        assert report.passed
        assert max(report.max_abs_deviation, report.frobenius_deviation) <= 1e-10

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

    def test_rejects_a_scheme_per_pair(self):
        spec = GraphSpec(phi=np.eye(3, dtype=complex), modes=3, cutoff=2)
        with pytest.raises(TypeError, match="PolarScheme"):
            graph_resolution(spec, (polar_scheme(4, 8),) * 2)

    def test_rejects_unknown_backend(self):
        spec = GraphSpec(phi=np.eye(2, dtype=complex), modes=2, cutoff=2)
        with pytest.raises(ValueError, match="backend"):
            graph_resolution(spec, polar_scheme(3, 6), backend="sparse")
