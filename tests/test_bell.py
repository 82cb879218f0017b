import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gaussian_scenario, qr_rotation, scenarios, unit_vectors
from reference import (
    CARTESIAN_PAIR,
    GENERATORS,
    SPIN_BASIS_TENSOR,
    levi_civita_along,
    spin_basis_canonical,
    spin_generators,
    spin_kron_bell,
    spin_representation,
)
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
    coupling_tensor,
    random_directions,
)


def in_spin_basis(K):
    """An operator of the Cartesian basis, where coupling_operator builds by default, in the spin basis."""
    return CARTESIAN_PAIR @ K @ CARTESIAN_PAIR.conj().T


def brute_force_coupling(M):
    """Triple-loop oracle for sum_ij M_ij S_i (x) S_j in the spin basis."""
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
        assert np.linalg.norm(in_spin_basis(coupling_operator(np.diag([s, 0.0, t]))) - expected) < 1e-15
        assert np.linalg.norm(spin_basis_canonical(s, t) - expected) < 1e-15

    def test_canonical_operator_is_the_cartesian_conjugate(self):
        # (C (x) C) carries the Cartesian canonical form to the spin-basis one
        W = SPIN1_FAMILY.basis
        for s, t in [(1.3, 0.4), (2.0, 0.0)]:
            rebuilt = W @ canonical_operator(s, t) @ W.conj().T
            assert np.linalg.norm(rebuilt - spin_basis_canonical(s, t)) < 1e-15

    def test_identity_matches_triple_loop(self):
        Sx, Sy, Sz = spin_generators()
        K = in_spin_basis(coupling_operator(np.eye(3)))
        assert np.linalg.norm(K - brute_force_coupling(np.eye(3))) < 1e-14
        assert np.linalg.norm(K - (np.kron(Sx, Sx) + np.kron(Sy, Sy) + np.kron(Sz, Sz))) < 1e-14

    def test_arbitrary_matrix_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            assert np.linalg.norm(in_spin_basis(coupling_operator(M)) - brute_force_coupling(M)) < 1e-13

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
        diff = bell_operator(sc) - coupling_operator(correlation_matrices(sc))
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
            coupled = coupling_operator(correlation_matrices(d), SPIN_BASIS_TENSOR)
            diff = (four_term - coupled).reshape(len(d), -1)
            worst = max(worst, np.max(np.linalg.norm(diff, axis=1)))
        assert worst < 1e-12

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(23)
        dirs = rng.standard_normal((20, 4, 3))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        batch = coupling_operator(correlation_matrices(dirs), SPIN_BASIS_TENSOR)
        real = coupling_operator(correlation_matrices(dirs))
        for k in range(20):
            sc = MeasurementScenario(*dirs[k])
            assert np.linalg.norm(real[k] - bell_operator(sc)) < 1e-13
            single = coupling_operator(correlation_matrices(sc), SPIN_BASIS_TENSOR)
            assert np.linalg.norm(batch[k] - single) < 1e-13
            # the family builds in the Cartesian basis, from the same tensor
            assert np.array_equal(real[k], SPIN1_FAMILY.bell_operator(sc))

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
        """The paper's cross-check: the four-term sum is K(M) through SPIN1_FAMILY.tensor, to 1e-15 (4.4e-16 seen)."""
        directions = random_directions(np.random.default_rng(35), (3000, 4))
        real = coupling_operator(correlation_matrices(directions))
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
        assert np.linalg.norm(bell_operator(sc) - coupling_operator(M)) < 1e-12


class TestRotationalCovariance:
    def test_seeded_sweep(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(300):
            M = rng.standard_normal((3, 3))
            R, Q = qr_rotation(rng), qr_rotation(rng)
            W = np.kron(spin_representation(R), spin_representation(Q))
            lhs = W @ coupling_operator(M, SPIN_BASIS_TENSOR) @ W.conj().T
            rhs = coupling_operator(R @ M @ Q.T, SPIN_BASIS_TENSOR)
            worst = max(worst, np.linalg.norm(lhs - rhs))
        assert worst < 1e-10

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_property(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3))
        R, Q = qr_rotation(rng), qr_rotation(rng)
        W = np.kron(spin_representation(R), spin_representation(Q))
        lhs = W @ coupling_operator(M, SPIN_BASIS_TENSOR) @ W.conj().T
        assert np.linalg.norm(lhs - coupling_operator(R @ M @ Q.T, SPIN_BASIS_TENSOR)) < 1e-10

    def test_cartesian_seeded_sweep(self):
        # the certificate's float path: in the Cartesian basis a rotation's
        # spin-1 image is the rotation itself, so R (x) Q conjugates real K(M)
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(300):
            M = rng.standard_normal((3, 3))
            R, Q = qr_rotation(rng), qr_rotation(rng)
            W = np.kron(R, Q)
            lhs = W @ coupling_operator(M) @ W.T
            rhs = coupling_operator(R @ M @ Q.T)
            worst = max(worst, np.linalg.norm(lhs - rhs))
        assert worst < 1e-10


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

    @pytest.mark.parametrize("name", GENERATORS)
    def test_arrays_are_read_only_complex(self, name):
        # a tensor in generator coordinates, with no basis: complex128, solved as it is
        family = ObservableFamily(name, coupling_tensor(GENERATORS[name]), 2.0)
        assert family.tensor.dtype == np.complex128 and not family.tensor.flags.writeable
        assert family.basis is None
        assert family.bell_operator(random_directions(np.random.default_rng(1), (4,))).dtype == complex

    def test_keeps_its_own_copy_of_the_tensor(self):
        # a later change to the caller's array must not reach the tensor
        tensor = np.array(PAULI_FAMILY.tensor)
        family = ObservableFamily("copy", tensor, PAULI_FAMILY.known_maximum)
        tensor[2] = 0.0
        assert np.array_equal(family.tensor, PAULI_FAMILY.tensor)
        assert not np.shares_memory(family.tensor, PAULI_FAMILY.tensor)

    @pytest.mark.parametrize("dtype", [np.int8, np.float32, np.complex64])
    def test_tensor_is_kept_as_float64_or_complex128(self, dtype):
        family = ObservableFamily("cast", SPIN1_FAMILY.tensor.astype(dtype), 2.0)
        assert family.tensor.dtype == (np.complex128 if dtype == np.complex64 else np.float64)
        assert np.array_equal(family.tensor, SPIN1_FAMILY.tensor)

    def test_non_hermitian_generators_rejected(self):
        # eigh reads only the lower triangle, so the seesaw would run on these unchecked
        with pytest.raises(HermiticityError):
            ObservableFamily("upper", coupling_tensor(np.triu(np.ones((3, 2, 2)))), 2.0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (4, 2, 2), (3, 0, 0)], ids=str)
    def test_generator_stack_shape_checked(self, shape):
        with pytest.raises(InputError, match=r"expected a \(3, d, d\) stack"):
            ObservableFamily("bad", coupling_tensor(np.zeros(shape)), 2.0)

    @pytest.mark.parametrize("shape", [(9,), (9, 4, 4), (8, 16), (9, 15), (9, 0), (0, 0)], ids=str)
    def test_tensor_shape_checked(self, shape):
        with pytest.raises(InputError, match=r"expected a \(9, n\^2\) coupling tensor"):
            ObservableFamily("bad", np.zeros(shape), 2.0)

    def test_non_numeric_tensor_rejected(self):
        with pytest.raises(InputError, match="tensor must be real or complex numbers"):
            ObservableFamily("bad", np.full((9, 4), "1"), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generators_rejected(self, bad):
        generators = np.array(GENERATORS["qubit-pauli"])
        generators[1, 0, 1] = bad
        with pytest.raises(NonFiniteError, match="tensor must be finite"):
            ObservableFamily("bad", coupling_tensor(generators), 2.0)

    @pytest.mark.parametrize("maximum", [np.nan, np.inf, -np.inf])
    def test_non_finite_known_maximum_rejected(self, maximum):
        with pytest.raises(InputError, match="known_maximum must be finite"):
            ObservableFamily("bad", PAULI_FAMILY.tensor, maximum)

    @pytest.mark.parametrize("maximum", [[2.0], np.zeros(2), np.full((1, 1), 2.0)], ids=str)
    def test_non_scalar_known_maximum_rejected(self, maximum):
        # numpy used to raise its own TypeError for these, or only warn for [2.0]
        with pytest.raises(InputError, match="known_maximum must be finite and scalar"):
            ObservableFamily("bad", PAULI_FAMILY.tensor, maximum)

    @pytest.mark.parametrize("family", [SPIN1_FAMILY, PAULI_FAMILY], ids=lambda f: f.name)
    def test_basis_makes_a_read_only_real_solve_tensor(self, family):
        assert family.basis.dtype == complex and not family.basis.flags.writeable
        assert family.tensor.dtype == np.float64 and not family.tensor.flags.writeable
        # the tensor is W^dagger (G_i (x) G_j) W of the generators of the reported states
        W, n = family.basis, family.dim
        assert n == GENERATORS[family.name].shape[1] ** 2
        rotated = W.conj().T @ coupling_tensor(GENERATORS[family.name]).reshape(9, n, n) @ W
        assert np.max(np.abs(rotated.imag)) <= 1e-16
        assert np.max(np.abs(rotated.real.reshape(9, -1) - family.tensor)) <= 1e-15

    def test_spin1_solve_tensor_is_the_cartesian_one(self):
        # S_k = -i eps_k in the Cartesian basis, so S_i (x) S_j = -eps_i (x) eps_j exactly
        assert np.array_equal(SPIN1_FAMILY.tensor, -coupling_tensor(cartesian_generators()))

    def test_spin1_bell_operator_is_the_monte_carlo_build(self):
        # each column of the tensor has one nonzero, +-1, so every entry of K(M) is
        # exactly +-M_ij or 0 whatever the summation order: the seesaw's batched
        # vector-matrix build and the Monte Carlo's one matrix product agree bit for bit
        assert np.all(np.count_nonzero(SPIN1_FAMILY.tensor, axis=0) <= 1)
        directions = random_directions(np.random.default_rng(5), (3000, 4))
        family = SPIN1_FAMILY.bell_operator(directions)
        assert np.array_equal(family, coupling_operator(correlation_matrices(directions)))

    def test_keeps_its_own_copy_of_the_basis(self):
        basis = np.array(PAULI_FAMILY.basis)
        family = ObservableFamily("copy", PAULI_FAMILY.tensor, 2.0, basis)
        basis[0] = 0.0
        assert np.array_equal(family.basis, PAULI_FAMILY.basis)
        assert np.array_equal(family.tensor, PAULI_FAMILY.tensor)

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (4, 5), (9, 9)], ids=str)
    def test_basis_shape_checked(self, shape):
        with pytest.raises(InputError, match=r"expected a \(4, 4\) basis"):
            ObservableFamily("bad", PAULI_FAMILY.tensor, 2.0, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = np.array(PAULI_FAMILY.basis)
        basis[1, 2] = bad
        with pytest.raises(NonFiniteError, match="basis must be finite"):
            ObservableFamily("bad", PAULI_FAMILY.tensor, 2.0, basis)

    def test_non_unitary_basis_rejected(self):
        # the gate is TOL.rotation on ||W^dagger W - I||: 2e-10 fails it, a few ulps do not
        with pytest.raises(InputError, match="basis is not unitary"):
            ObservableFamily("bad", PAULI_FAMILY.tensor, 2.0, PAULI_FAMILY.basis * (1 + 1e-10))
        ObservableFamily("ok", PAULI_FAMILY.tensor, 2.0, PAULI_FAMILY.basis * (1 + 1e-15))
