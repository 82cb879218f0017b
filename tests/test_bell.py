import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gaussian_scenario, qr_rotation, scenarios, unit_vectors
from reference import CARTESIAN_PAIR, levi_civita_along, spin_kron_bell
from spinchsh import (
    HermiticityError,
    InputError,
    MeasurementScenario,
    NonFiniteError,
    NormalizationError,
    ObservableFamily,
    PAULI_FAMILY,
    SPIN1_FAMILY,
    bell_operator,
    canonical_operator,
    cartesian_generators,
    correlation_matrices,
    coupling_operator,
    random_directions,
    spin_generators,
    spin_representation,
)
from spinchsh.bell import SPIN1_REAL_TENSOR


def brute_force_coupling(M):
    """Triple-loop oracle for sum_ij M_ij S_i (x) S_j."""
    S = spin_generators()
    K = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            K += M[i][j] * np.kron(S[i], S[j])
    return K


class TestCorrelationMatrix:
    def test_tight_scenario(self, tight_scenario):
        assert np.array_equal(correlation_matrices(tight_scenario), np.diag([0.0, 0.0, 2.0]))

    def test_hand_outer_product_example(self):
        sc = MeasurementScenario((1, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1))
        M = correlation_matrices(sc)
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
        assert np.array_equal(M, expected)
        # brute-force loop oracle over components
        a, ap, b, bp = sc.directions()
        loop = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                loop[i, j] = a[i] * (b[j] + bp[j]) + ap[i] * (b[j] - bp[j])
        assert np.array_equal(M, loop)

    @given(scenarios())
    def test_rank_at_most_two(self, sc):
        sigma = np.linalg.svd(correlation_matrices(sc), compute_uv=False)
        assert sigma[2] < 1e-12

    @given(scenarios())
    def test_frobenius_norm_squared_is_four(self, sc):
        M = correlation_matrices(sc)
        assert abs(np.sum(M * M) - 4.0) < 1e-10

    @pytest.mark.parametrize(
        "shape", [(5, 3), (4, 4), (3, 3), (2, 5, 3)], ids=["5x3", "4x4", "3x3", "2x5x3"]
    )
    def test_rejects_a_stack_not_of_quadruples(self, shape):
        # a (5, 3) stack used to lose its fifth row, and a (4, 4) one gave a 4x4 "M"
        with pytest.raises(InputError, match=r"expected an \(\.\.\., 4, 3\) direction stack"):
            correlation_matrices(np.full(shape, 0.5))


class TestCouplingOperator:
    def test_zero_matrix(self):
        assert np.array_equal(coupling_operator(np.zeros((3, 3))), np.zeros((9, 9)))

    def test_canonical_diagonal(self):
        Sx, _, Sz = spin_generators()
        s, t = 1.3, 0.4
        expected = s * np.kron(Sx, Sx) + t * np.kron(Sz, Sz)
        assert np.linalg.norm(coupling_operator(np.diag([s, 0.0, t])) - expected) < 1e-15
        assert np.linalg.norm(canonical_operator(s, t) - expected) < 1e-15

    def test_identity_matches_triple_loop(self):
        Sx, Sy, Sz = spin_generators()
        K = coupling_operator(np.eye(3))
        assert np.linalg.norm(K - brute_force_coupling(np.eye(3))) < 1e-14
        assert np.linalg.norm(K - (np.kron(Sx, Sx) + np.kron(Sy, Sy) + np.kron(Sz, Sz))) < 1e-14

    def test_arbitrary_matrix_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            assert np.linalg.norm(coupling_operator(M) - brute_force_coupling(M)) < 1e-13

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError):
            coupling_operator(np.eye(2))

    def test_correlation_stack_matches_scalar(self):
        rng = np.random.default_rng(29)
        dirs = rng.standard_normal((2, 5, 4, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        stack = correlation_matrices(dirs)
        assert stack.shape == (2, 5, 3, 3)
        for i in range(2):
            for k in range(5):
                sc = MeasurementScenario(*dirs[i, k])
                assert np.array_equal(stack[i, k], correlation_matrices(sc))


class TestBellOperator:
    """The four-term reference, built in the Cartesian basis, against the spin basis and K(M)."""

    def test_tight_scenario(self, tight_scenario):
        eps_z = cartesian_generators()[2]
        assert np.array_equal(bell_operator(tight_scenario), -2.0 * np.kron(eps_z, eps_z))

    def test_four_term_sum_oracle(self):
        rng = np.random.default_rng(8)
        W = CARTESIAN_PAIR
        for _ in range(10):
            sc = gaussian_scenario(rng)
            direct = W.conj().T @ spin_kron_bell(sc.directions()) @ W
            assert np.linalg.norm(bell_operator(sc) - direct) < 1e-14

    def test_antiparallel_collapses_to_single_term(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
            sc = MeasurementScenario(a, -a, b, b)
            single = -np.kron(levi_civita_along(a), levi_civita_along(b))
            assert np.linalg.norm(bell_operator(sc) - 2.0 * single) < 1e-14

    @given(scenarios())
    def test_two_paths_agree(self, sc):
        diff = bell_operator(sc) - coupling_operator(correlation_matrices(sc), SPIN1_REAL_TENSOR)
        assert np.linalg.norm(diff) < 1e-12

    def test_two_paths_agree_bulk(self):
        # 10^5 scenarios: the four-term sum built here, K(M) by the library's batched kernel
        rng = np.random.default_rng(17)
        n, block = 100_000, 10_000
        dirs = rng.standard_normal((n, 4, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        S = np.stack(spin_generators())
        worst = 0.0
        for start in range(0, n, block):
            d = dirs[start : start + block]
            sa, sap, sb, sbp = (np.einsum("ni,iab->nab", d[:, k], S) for k in range(4))
            four_term = (
                np.einsum("nab,ncd->nacbd", sa, sb)
                + np.einsum("nab,ncd->nacbd", sa, sbp)
                + np.einsum("nab,ncd->nacbd", sap, sb)
                - np.einsum("nab,ncd->nacbd", sap, sbp)
            ).reshape(-1, 9, 9)
            coupled = coupling_operator(correlation_matrices(d))
            diff = (four_term - coupled).reshape(len(d), -1)
            worst = max(worst, np.max(np.linalg.norm(diff, axis=1)))
        assert worst < 1e-12

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(23)
        dirs = rng.standard_normal((20, 4, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        batch = coupling_operator(correlation_matrices(dirs))
        real = coupling_operator(correlation_matrices(dirs), SPIN1_REAL_TENSOR)
        for k in range(20):
            sc = MeasurementScenario(*dirs[k])
            assert np.linalg.norm(real[k] - bell_operator(sc)) < 1e-13
            assert np.linalg.norm(batch[k] - coupling_operator(correlation_matrices(sc))) < 1e-13
            # the family builds in its basis, the Cartesian one, from its own real tensor
            assert np.linalg.norm(real[k] - SPIN1_FAMILY.bell_operator(sc)) < 1e-13

    def test_float64_and_exactly_symmetric(self):
        B = bell_operator(random_directions(np.random.default_rng(33), (3000, 4)))
        assert B.dtype == np.float64 and B.flags.c_contiguous
        assert np.array_equal(B, np.swapaxes(B, -1, -2))

    def test_is_the_spin_basis_sum_in_cartesian_coordinates(self):
        """W^dagger (the four-term np.kron sum of spin_along) W, W = C (x) C, to 2e-15 (1.3e-15 seen)."""
        directions = random_directions(np.random.default_rng(34), (3000, 4))
        W = CARTESIAN_PAIR
        spin = np.array([spin_kron_bell(quad) for quad in directions])
        worst = np.max(np.abs(W.conj().T @ spin @ W - bell_operator(directions)))
        assert worst <= 2e-15

    def test_matches_the_real_coupling_operator(self):
        """The paper's cross-check: the four-term sum is K(M) through SPIN1_REAL_TENSOR, to 1e-15 (4.4e-16 seen)."""
        directions = random_directions(np.random.default_rng(35), (3000, 4))
        real = coupling_operator(correlation_matrices(directions), SPIN1_REAL_TENSOR)
        assert np.max(np.abs(real - bell_operator(directions))) <= 1e-15

    @given(scenarios())
    def test_hermitian_traceless(self, sc):
        B = bell_operator(sc)
        assert np.linalg.norm(B - B.conj().T) < 1e-12
        assert abs(np.trace(B)) < 1e-12

    @pytest.mark.parametrize("flip", [1.0, -1.0])
    def test_degenerate_directions_accepted(self, flip):
        # b' = +-b makes one rank-one term vanish; every identity still holds
        rng = np.random.default_rng(31)
        a, ap, b = (v / np.linalg.norm(v) for v in rng.standard_normal((3, 3)))
        sc = MeasurementScenario(a, ap, b, flip * b)
        M = correlation_matrices(sc)
        assert np.linalg.svd(M, compute_uv=False)[1] < 1e-12  # rank <= 1
        assert abs(np.sum(M * M) - 4.0) < 1e-10
        assert np.linalg.norm(bell_operator(sc) - coupling_operator(M, SPIN1_REAL_TENSOR)) < 1e-12


class TestRotationalCovariance:
    def test_seeded_sweep(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(300):
            M = rng.standard_normal((3, 3))
            R, Q = qr_rotation(rng), qr_rotation(rng)
            W = np.kron(spin_representation(R), spin_representation(Q))
            lhs = W @ coupling_operator(M) @ W.conj().T
            worst = max(worst, np.linalg.norm(lhs - coupling_operator(R @ M @ Q.T)))
        assert worst < 1e-10

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_property(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3))
        R, Q = qr_rotation(rng), qr_rotation(rng)
        W = np.kron(spin_representation(R), spin_representation(Q))
        lhs = W @ coupling_operator(M) @ W.conj().T
        assert np.linalg.norm(lhs - coupling_operator(R @ M @ Q.T)) < 1e-10


def test_scenario_rejects_non_unit():
    with pytest.raises(NormalizationError):
        MeasurementScenario((0, 0, 0), (0, 0, 1), (0, 0, 1), (0, 0, 1))


@given(unit_vectors())
def test_scenario_directions_roundtrip(u):
    sc = MeasurementScenario(u, u, u, u)
    for v in sc.directions():
        assert np.array_equal(v, u)


@pytest.mark.parametrize(
    "vectors",
    [
        ((0, 0, 1), (0, 1), (0, 0, 1), (0, 0, 1)),
        ((0, 1), (0, 1), (1, 0), (1, 0)),
        # a column or a row of three numbers is not a flat 3-vector
        (((0,), (0,), (1,)), (0, 0, 1), (0, 0, 1), (0, 0, 1)),
        ((0, 0, 1), (0, 0, 1), ((0, 0, 1),), (0, 0, 1)),
    ],
    ids=["ragged", "all-2-vectors", "3x1", "1x3"],
)
def test_scenario_rejects_wrong_shapes(vectors):
    with pytest.raises(NormalizationError):
        MeasurementScenario(*vectors)


def test_scenario_is_its_direction_stack():
    rng = np.random.default_rng(12)
    sc = gaussian_scenario(rng)
    stack = sc.directions()
    assert stack.shape == (4, 3)
    assert np.array_equal(np.asarray(sc), stack)
    assert np.array_equal(stack, np.stack([sc.a, sc.a_prime, sc.b, sc.b_prime]))
    # a scenario and its stack take the same path through every kernel
    assert np.array_equal(bell_operator(sc), bell_operator(stack))
    assert np.array_equal(SPIN1_FAMILY.bell_operator(sc), SPIN1_FAMILY.bell_operator(stack))
    assert np.array_equal(correlation_matrices(sc), correlation_matrices(stack))


def test_scenario_owns_a_read_only_stack():
    rng = np.random.default_rng(13)
    directions = rng.standard_normal((4, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sc = MeasurementScenario(*directions)
    M = correlation_matrices(sc)
    directions[0] = (0.0, 0.0, 5.0)  # the caller's rows are not the scenario's
    assert np.array_equal(correlation_matrices(sc), M)
    for row in (sc.a, sc.a_prime, sc.b, sc.b_prime, sc.directions(), np.asarray(sc)):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 5.0
    assert np.array_equal(correlation_matrices(sc), M)
    # the rows are views of the one stack directions() returns
    assert sc.directions() is sc.directions()
    assert all(np.shares_memory(row, sc.directions()) for row in (sc.a, sc.b_prime))
    copied = np.array(sc, copy=True)
    assert copied.flags.writeable and not np.shares_memory(copied, sc.directions())
    assert np.array_equal(copied, sc.directions())
    # numpy 1.x calls __array__ without a copy argument
    assert sc.__array__() is sc.directions()
    assert sc.__array__(np.float32).dtype == np.float32


def test_scenarios_compare_by_identity():
    z = [0.0, 0.0, 1.0]
    sc, twin = MeasurementScenario(z, z, z, z), MeasurementScenario(z, z, z, z)
    assert sc == sc and sc != twin
    assert hash(sc) == hash(sc) and len({sc, twin}) == 2


class TestObservableFamily:
    def test_coupling_operator_defaults_to_the_spin1_family_tensor(self):
        # one spin-1 tensor in the package, the family's
        default = inspect.signature(coupling_operator).parameters["tensor"].default
        assert default is SPIN1_FAMILY.tensor

    @pytest.mark.parametrize("family", [SPIN1_FAMILY, PAULI_FAMILY], ids=lambda f: f.name)
    def test_arrays_are_read_only_complex(self, family):
        for array in (family.generators, family.tensor):
            assert array.dtype == complex
            assert not array.flags.writeable

    def test_keeps_its_own_copy_of_the_generators(self):
        # a later change to the caller's array must reach neither the generators nor the tensor
        generators = np.array(PAULI_FAMILY.generators)
        family = ObservableFamily("copy", generators, PAULI_FAMILY.known_maximum)
        generators[2] = 0.0
        assert np.array_equal(family.generators, PAULI_FAMILY.generators)
        assert np.array_equal(family.tensor, PAULI_FAMILY.tensor)

    def test_non_hermitian_generators_rejected(self):
        # eigh reads only the lower triangle, so the seesaw would run on these unchecked
        with pytest.raises(HermiticityError):
            ObservableFamily("upper", np.triu(np.ones((3, 2, 2))), 2.0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (4, 2, 2), (3, 0, 0)], ids=str)
    def test_generator_stack_shape_checked(self, shape):
        with pytest.raises(InputError, match=r"expected a \(3, d, d\) stack"):
            ObservableFamily("bad", np.zeros(shape), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generators_rejected(self, bad):
        generators = np.array(PAULI_FAMILY.generators)
        generators[1, 0, 1] = bad
        with pytest.raises(NonFiniteError):
            ObservableFamily("bad", generators, 2.0)

    @pytest.mark.parametrize("maximum", [np.nan, np.inf, -np.inf])
    def test_non_finite_known_maximum_rejected(self, maximum):
        with pytest.raises(InputError, match="known_maximum must be finite"):
            ObservableFamily("bad", PAULI_FAMILY.generators, maximum)

    @pytest.mark.parametrize("family", [SPIN1_FAMILY, PAULI_FAMILY], ids=lambda f: f.name)
    def test_basis_makes_a_read_only_real_solve_tensor(self, family):
        assert family.basis.dtype == complex and not family.basis.flags.writeable
        assert family.solve_tensor.dtype == np.float64 and not family.solve_tensor.flags.writeable
        W, n = family.basis, family.dim**2
        rotated = W.conj().T @ family.tensor.reshape(9, n, n) @ W
        assert np.max(np.abs(rotated.imag)) <= 1e-16
        assert np.max(np.abs(rotated.real.reshape(9, -1) - family.solve_tensor)) <= 1e-15
        # with no basis the family solves its complex tensor in generator coordinates
        plain = ObservableFamily("plain", family.generators, family.known_maximum)
        assert plain.basis is None and plain.solve_tensor is plain.tensor

    def test_spin1_solve_tensor_is_the_cartesian_one(self):
        # SPIN1_REAL_TENSOR keeps the exact integers; the family's is rounded W^dagger G W
        assert np.max(np.abs(SPIN1_FAMILY.solve_tensor - SPIN1_REAL_TENSOR)) <= 4.5e-16

    def test_keeps_its_own_copy_of_the_basis(self):
        basis = np.array(PAULI_FAMILY.basis)
        family = ObservableFamily("copy", PAULI_FAMILY.generators, 2.0, basis)
        basis[0] = 0.0
        assert np.array_equal(family.basis, PAULI_FAMILY.basis)
        assert np.array_equal(family.solve_tensor, PAULI_FAMILY.solve_tensor)

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (4, 5), (9, 9)], ids=str)
    def test_basis_shape_checked(self, shape):
        with pytest.raises(InputError, match=r"expected a \(4, 4\) basis"):
            ObservableFamily("bad", PAULI_FAMILY.generators, 2.0, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = np.array(PAULI_FAMILY.basis)
        basis[1, 2] = bad
        with pytest.raises(NonFiniteError, match="basis must be finite"):
            ObservableFamily("bad", PAULI_FAMILY.generators, 2.0, basis)

    def test_non_unitary_basis_rejected(self):
        # the gate is TOL.rotation on ||W^dagger W - I||: 2e-10 fails it, a few ulps do not
        with pytest.raises(InputError, match="basis is not unitary"):
            ObservableFamily("bad", PAULI_FAMILY.generators, 2.0, PAULI_FAMILY.basis * (1 + 1e-10))
        ObservableFamily("ok", PAULI_FAMILY.generators, 2.0, PAULI_FAMILY.basis * (1 + 1e-15))

    @pytest.mark.parametrize("family", [SPIN1_FAMILY, PAULI_FAMILY], ids=lambda f: f.name)
    def test_basis_that_leaves_products_complex_rejected(self, family):
        # S_y and sigma_y are imaginary in their own bases, so the identity is no real basis
        identity = np.eye(family.dim**2)
        with pytest.raises(InputError, match="imaginary part"):
            ObservableFamily("bad", family.generators, family.known_maximum, identity)
