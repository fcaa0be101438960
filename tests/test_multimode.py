"""Multimode space tests: indexing, Weyl operators, exponential vectors."""

import itertools
import math

import numpy as np
import pytest

from fockgraph import (
    GraphSpec,
    ModeSpace,
    coherent_state,
    displacement_matrix,
    kron_all,
    seed_basis,
    validate_unitary,
)
from fockgraph.multimode import UNITARY_TOLERANCE
from oracles import (
    apply_weyl_to_exponential_check,
    displacement_compose_phase,
    exponential_vector_embed,
    index_of,
    mode_ladder,
    occupations,
    state_inner,
    trusted_cutoff,
    trusted_mask,
    tuple_of,
    weyl_operator,
    weyl_phase,
)

EULER_E = math.fsum(1.0 / math.factorial(k) for k in range(40))


def random_coords(rng, modes, norm):
    raw = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    return raw / np.linalg.norm(raw) * norm


def unitary_with_first_column(c, rng):
    """A unitary whose first column is the unit vector c."""
    modes = len(c)
    raw = np.column_stack([c, rng.standard_normal((modes, modes - 1)) + 1j * rng.standard_normal((modes, modes - 1))])
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize(
    "modes, cutoff, message", [(0, 4, "modes must be >= 1, got 0"), (2, 0, "cutoff must be >= 1, got 0")]
)
def test_mode_space_input_checks(modes, cutoff, message):
    with pytest.raises(ValueError) as caught:
        ModeSpace(modes, cutoff)
    assert str(caught.value) == message


class TestIndexing:
    def test_origin(self):
        space = ModeSpace(2, 2)
        assert index_of((0, 0), space) == 0

    def test_row_major_mode_one_slowest(self):
        space = ModeSpace(2, 2)
        assert index_of((1, 2), space) == 5

    def test_bijection_exhaustive(self):
        space = ModeSpace(3, 3)
        for occ in itertools.product(range(4), repeat=3):
            assert tuple_of(index_of(occ, space), space) == occ

    def test_out_of_range(self):
        space = ModeSpace(2, 3)
        with pytest.raises(ValueError, match="occupation"):
            index_of((1, 4), space)
        with pytest.raises(ValueError, match="index"):
            tuple_of(space.dim, space)

    def test_occupation_table_order(self):
        space = ModeSpace(2, 1)
        assert np.array_equal(occupations(space), [[0, 0], [0, 1], [1, 0], [1, 1]])


class TestWeylOperator:
    def test_zero_is_identity(self):
        space = ModeSpace(2, 3)
        assert np.array_equal(weyl_operator([0, 0], space), np.eye(16, dtype=complex))

    def test_tensor_locality(self):
        space = ModeSpace(2, 5)
        alpha = 0.8 - 0.3j
        expected = np.kron(displacement_matrix(alpha, 5), np.eye(6, dtype=complex))
        assert np.array_equal(weyl_operator([alpha, 0], space), expected)

    def test_vacuum_column_is_coherent_product(self):
        space = ModeSpace(2, 12)
        coords = np.array([0.9 + 0.2j, -0.5j])
        vacuum = np.zeros(space.dim)
        vacuum[0] = 1.0
        got = weyl_operator(coords, space) @ vacuum
        expected = kron_all([coherent_state(c, 12) for c in coords])
        assert np.abs(got - expected).max() < 1e-12

    def test_unitarity_on_retained_block(self):
        # Truncated W loses column mass only near the cutoff; frozen block
        # from the measured single-mode decay at |f_j| <= 0.8, N = 24.
        space = ModeSpace(2, 24)
        w = weyl_operator([0.8, 0.5j], space)
        product = w.conj().T @ w
        mask = trusted_mask(space, 10)
        idx = np.flatnonzero(mask)
        sub = product[np.ix_(idx, idx)] - np.eye(idx.size)
        assert np.abs(sub).max() < 1e-8


class TestWeylPhase:
    def test_zero_second_argument(self):
        assert weyl_phase([1.2 + 0.1j], [0.0]) == pytest.approx(1.0)

    def test_real_proportional_pair(self):
        f = np.array([0.3 + 0.4j, -0.2j])
        assert weyl_phase(f, 1.7 * f) == pytest.approx(1.0)

    def test_matches_single_mode_composition_phase(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f, g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert weyl_phase([f], [g]) == pytest.approx(displacement_compose_phase(f, g), abs=1e-14)

    def test_multimode_phase_is_product_of_mode_phases(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        product = np.prod([displacement_compose_phase(a, b) for a, b in zip(f, g)])
        assert weyl_phase(f, g) == pytest.approx(product, abs=1e-13)

    def test_composition_law_on_the_vacuum(self):
        # W(f)W(g)|vac> = phase * W(f+g)|vac>: state-level check of the
        # full composition law including the phase sign.
        space = ModeSpace(2, 20)
        rng = np.random.default_rng(6)
        vacuum = np.zeros(space.dim)
        vacuum[0] = 1.0
        for _ in range(5):
            f = random_coords(rng, 2, rng.uniform(0.2, 1.0))
            g = random_coords(rng, 2, rng.uniform(0.2, 1.0))
            lhs = weyl_operator(f, space) @ (weyl_operator(g, space) @ vacuum)
            rhs = weyl_phase(f, g) * (weyl_operator(f + g, space) @ vacuum)
            mask = trusted_mask(space, trusted_cutoff(20, np.linalg.norm(f) + np.linalg.norm(g)))
            assert np.abs((lhs - rhs)[mask]).max() < 1e-10

    def test_composition_law_on_matrices_small_amplitudes(self):
        # Operator-entry agreement needs low occupations relative to the
        # cutoff: displacement reach from level m grows like |f| sqrt(m).
        space = ModeSpace(2, 24)
        f = np.array([0.25, -0.15j])
        g = np.array([0.1j, 0.2])
        lhs = weyl_operator(f, space) @ weyl_operator(g, space)
        rhs = weyl_phase(f, g) * weyl_operator(f + g, space)
        mask = trusted_mask(space, 10)
        idx = np.flatnonzero(mask)
        assert np.abs((lhs - rhs)[np.ix_(idx, idx)]).max() < 1e-8


class TestExponentialVectors:
    def test_zero_embeds_to_vacuum(self):
        space = ModeSpace(2, 6)
        state = exponential_vector_embed([0, 0], space)
        assert state.log_scale == 0.0
        vacuum = np.zeros(space.dim, dtype=complex)
        vacuum[0] = 1.0
        assert np.array_equal(state.amplitudes, vacuum)

    def test_unit_norm_self_kernel_is_e(self):
        space = ModeSpace(2, 25)
        f = np.array([math.sqrt(0.5), math.sqrt(0.5) * 1j])
        state = exponential_vector_embed(f, space)
        assert state_inner(state, state) == pytest.approx(EULER_E, rel=1e-10)
        assert state_inner(state, state).real == pytest.approx(2.7182818285, abs=1e-9)

    def test_kernel_matches_exponential_of_inner_product(self):
        space = ModeSpace(2, 25)
        rng = np.random.default_rng(12)
        for _ in range(15):
            f = random_coords(rng, 2, rng.uniform(0.1, 1.5))
            g = random_coords(rng, 2, rng.uniform(0.1, 1.5))
            numeric = state_inner(exponential_vector_embed(f, space), exponential_vector_embed(g, space))
            expected = np.exp(np.vdot(f, g))
            assert abs(numeric - expected) / abs(expected) < 1e-10


class TestWeylOnExponentialVectors:
    def test_zero_displacement(self):
        space = ModeSpace(2, 14)
        dev = apply_weyl_to_exponential_check([0, 0], [0.4, 0.3j], space)
        assert dev < 1e-12

    def test_action_on_vacuum(self):
        space = ModeSpace(2, 20)
        rng = np.random.default_rng(13)
        for _ in range(8):
            f = random_coords(rng, 2, rng.uniform(0.2, 1.5))
            assert apply_weyl_to_exponential_check(f, [0, 0], space) < 1e-10

    def test_action_on_random_exponential_vectors(self):
        space = ModeSpace(2, 24)
        rng = np.random.default_rng(14)
        for _ in range(10):
            f = random_coords(rng, 2, rng.uniform(0.2, 1.0))
            g = random_coords(rng, 2, rng.uniform(0.2, 1.0))
            assert apply_weyl_to_exponential_check(f, g, space) < 1e-8


class TestCreationPolyState:
    """(sum_j c_j a_j^dag)^k / sqrt(k!) |vac>, column k of graphs.seed_basis."""

    def test_unit_norm(self):
        rng = np.random.default_rng(22)
        c = random_coords(rng, 3, 1.0)
        spec = GraphSpec(phi=unitary_with_first_column(c, rng), modes=3, cutoff=5)
        assert np.abs(spec.phi[:, 0] - c).max() < 1e-14
        state = seed_basis(spec)[:, 4]
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_ladder_orthonormality(self):
        rng = np.random.default_rng(23)
        c = random_coords(rng, 2, 1.0)
        spec = GraphSpec(phi=unitary_with_first_column(c, rng), modes=2, cutoff=8)
        assert np.abs(spec.phi[:, 0] - c).max() < 1e-14
        states = seed_basis(spec).T
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.abs(gram - np.eye(9)).max() < 1e-12


class TestModeLadder:
    def test_truncated_commutator_diagonal(self):
        space = ModeSpace(2, 3)
        a = mode_ladder(space, 1, "annihilate")
        adag = mode_ladder(space, 1, "create")
        comm = a @ adag - adag @ a
        table = occupations(space)
        for idx in range(space.dim):
            expected = 1.0 if table[idx, 0] < 3 else -3.0
            assert comm[idx, idx] == pytest.approx(expected)

    def test_cross_mode_commutators_vanish(self):
        space = ModeSpace(2, 3)
        a1 = mode_ladder(space, 1, "annihilate")
        a2 = mode_ladder(space, 2, "annihilate")
        assert np.abs(a1 @ a2 - a2 @ a1).max() == 0.0
        adag2 = mode_ladder(space, 2, "create")
        assert np.abs(a1 @ adag2 - adag2 @ a1).max() == 0.0

    def test_coherent_product_is_eigenstate(self):
        space = ModeSpace(2, 22)
        coords = np.array([0.9, -0.4 + 0.6j])
        state = kron_all([coherent_state(c, 22) for c in coords])
        mask = trusted_mask(space, trusted_cutoff(22, float(np.abs(coords).max())))
        for mode in (1, 2):
            applied = mode_ladder(space, mode, "annihilate") @ state
            assert np.abs((applied - coords[mode - 1] * state)[mask]).max() < 1e-10

    def test_rejects_bad_mode(self):
        space = ModeSpace(2, 3)
        with pytest.raises(ValueError, match="mode"):
            mode_ladder(space, 3, "annihilate")
        with pytest.raises(ValueError, match="kind"):
            mode_ladder(space, 1, "destroy")


class TestValidateUnitary:
    def test_accepts_unitary(self):
        phi = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        validate_unitary(phi)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            validate_unitary(np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_admits_up_to_the_tolerance(self):
        # |phi^dag phi - I| at diag(1, 1 + d) is 2d + d^2.
        validate_unitary(np.diag([1.0, 1.0 + 0.4 * UNITARY_TOLERANCE]))
        with pytest.raises(ValueError, match=r"> 1e-12\)$"):
            validate_unitary(np.diag([1.0, 1.0 + 0.6 * UNITARY_TOLERANCE]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_unitary(np.ones((2, 3)))
