import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qr_rotation, rotations, unit_vectors
from reference import (
    check_rotation,
    check_unit_vector,
    rotation_about,
    spin_along,
    spin_generators,
    spin_representation,
)
from spinchsh import CARTESIAN_BASIS, TOL, InputError, NormalizationError, cartesian_generators
from spinchsh.spin import check_unit_vectors

SQRT2 = np.sqrt(2.0)


class TestGenerators:
    def test_exact_entries(self):
        Sx, Sy, Sz = spin_generators()
        assert np.array_equal(Sz, np.diag([1.0, 0.0, -1.0]).astype(complex))
        assert np.array_equal(Sx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQRT2)
        assert np.array_equal(Sy, np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / SQRT2)
        assert Sx[0, 1] == 1.0 / SQRT2

    def test_hermitian_traceless(self):
        for S in spin_generators():
            assert np.array_equal(S, S.conj().T)
            assert np.trace(S) == 0.0

    def test_commutation_relations(self):
        Sx, Sy, Sz = spin_generators()
        for A, B, C in ((Sx, Sy, Sz), (Sy, Sz, Sx), (Sz, Sx, Sy)):
            assert np.linalg.norm(A @ B - B @ A - 1j * C) < TOL.commutator

    def test_returns_copies(self):
        Sx, _, _ = spin_generators()
        Sx[0, 0] = 99.0
        assert spin_generators()[0][0, 0] == 0.0


class TestSpinAlong:
    def test_basis_directions(self):
        Sx, _, Sz = spin_generators()
        assert np.array_equal(spin_along((0, 0, 1)), Sz)
        assert np.array_equal(spin_along((1, 0, 0)), Sx)

    def test_diagonal_direction(self):
        # oracle: eigensolver on the explicit 3x3 sum
        Sx, _, Sz = spin_generators()
        explicit = (Sx + Sz) / SQRT2
        S = spin_along((1 / SQRT2, 0.0, 1 / SQRT2))
        assert np.allclose(S, explicit, atol=1e-15)
        assert np.allclose(np.linalg.eigvalsh(explicit), [-1.0, 0.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("bad", [(0, 0, 0), (1, 1, 1), (0, 0, 1 + 1e-8)])
    def test_rejects_non_unit(self, bad):
        with pytest.raises(NormalizationError):
            spin_along(bad)

    def test_accepts_tiny_deviation(self):
        spin_along((0.0, 0.0, 1.0 + 1e-10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN deviation compares false against the tolerance; it must still fail
        with pytest.raises(NormalizationError):
            check_unit_vector((bad, 0.0, 1.0))
        stack = np.tile([0.0, 0.0, 1.0], (5, 4, 1))
        stack[3, 1, 0] = bad
        with pytest.raises(NormalizationError):
            check_unit_vectors(stack)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(NormalizationError, match=r"expected a 3-vector, got shape \(2,\)"):
            check_unit_vector((1.0, 0.0))
        with pytest.raises(NormalizationError, match=r"3-vectors, got shape \(2, 2\)"):
            check_unit_vectors(np.eye(2))

    def test_stack_matches_per_direction(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((6, 2, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        assert np.array_equal(check_unit_vectors(u), u)
        stack = spin_along(u)
        assert stack.shape == (6, 2, 3, 3)
        for i in range(6):
            for j in range(2):
                assert np.array_equal(stack[i, j], spin_along(u[i, j]))

    @given(unit_vectors())
    def test_hermitian_traceless_spectrum(self, u):
        S = spin_along(u)
        assert np.linalg.norm(S - S.conj().T) < 1e-12
        assert abs(np.trace(S)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(S), [-1.0, 0.0, 1.0], atol=1e-10)


class TestCartesianBasis:
    def test_generators_are_real_antisymmetric(self):
        eps = cartesian_generators()
        assert eps.dtype == np.float64
        assert np.array_equal(eps, -np.swapaxes(eps, -1, -2))
        # (eps_k)_ab = eps_kab: eps_x maps y to z
        assert eps[0, 1, 2] == 1.0 and eps[0, 2, 1] == -1.0

    def test_unitary_carries_spin_to_cartesian_generators(self):
        C = CARTESIAN_BASIS
        assert np.linalg.norm(C.conj().T @ C - np.eye(3)) < 1e-15
        for S, eps in zip(spin_generators(), cartesian_generators()):
            assert np.linalg.norm(C.conj().T @ S @ C - (-1j) * eps) < 1e-15


def spin_exponential(n, theta):
    """Independent oracle: exp(-i theta n.S) in closed form, using (n.S)^3 = n.S for spin 1."""
    H = spin_along(n)
    return np.eye(3) - 1j * np.sin(theta) * H + (np.cos(theta) - 1.0) * (H @ H)


def rotation_from_spin(U):
    """Read R back from its spin-1 image: U S_k U^dagger = sum_j R_jk S_j, Tr(S_i S_j) = 2 delta_ij."""
    S = spin_generators()
    return np.array(
        [[np.trace(S[j] @ U @ S[k] @ U.conj().T).real / 2.0 for k in range(3)] for j in range(3)]
    )


class TestAxisAngle:
    """``spin_representation`` of the rotation by ``theta`` about ``n`` is exp(-i theta n.S)."""

    def test_identity_convention(self):
        # at angle 0 the axis is irrelevant: every axis gives the identity
        for axis in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]):
            U = spin_representation(rotation_about(np.array(axis), 0.0))
            assert np.linalg.norm(U - np.eye(3)) < 1e-15

    def test_quarter_turn_about_z(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        U = spin_representation(R)
        assert np.linalg.norm(U - spin_exponential([0.0, 0.0, 1.0], np.pi / 2)) < 1e-12
        # a quarter turn about z carries S_x to S_y and S_y to -S_x
        Sx, Sy, _ = spin_generators()
        assert np.linalg.norm(U @ Sx @ U.conj().T - Sy) < 1e-12
        assert np.linalg.norm(U @ Sy @ U.conj().T + Sx) < 1e-12

    @pytest.mark.parametrize(
        "bad",
        [
            np.diag([1.0, 1.0, -1.0]),
            np.diag([2.0, 1.0, 1.0]),
            np.ones((3, 3)),
            # ||R^T R - I|| = 1e-11, ten times the default TOL.rotation
            np.eye(3) + np.diag([5e-12, 0.0, 0.0]),
        ],
    )
    def test_rejects_non_rotations(self, bad):
        with pytest.raises(InputError):
            spin_representation(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError, match=r"expected a 3x3 matrix, got shape \(2, 2\)"):
            check_rotation(np.eye(2))

    @given(unit_vectors(), st.floats(min_value=0.0, max_value=np.pi, allow_nan=False))
    def test_rodrigues_reconstruction(self, n, theta):
        U = spin_representation(rotation_about(n, theta))
        assert np.linalg.norm(U - spin_exponential(n, theta)) < 1e-10

    def test_qr_sampled_reconstruction(self):
        # QR samples carry no axis or angle; the rotation must be readable from its image
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            R = qr_rotation(rng)
            worst = max(worst, np.linalg.norm(rotation_from_spin(spin_representation(R)) - R))
        assert worst < 1e-10

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_half_turn(self, gap):
        axis = np.array([0.3, -0.5, 0.81])
        axis /= np.linalg.norm(axis)
        R = rotation_about(axis, np.pi - gap)
        U = spin_representation(R)
        assert np.linalg.norm(U - spin_exponential(axis, np.pi - gap)) < 1e-10
        for u in np.eye(3):
            residual = np.linalg.norm(U @ spin_along(u) @ U.conj().T - spin_along(R @ u))
            assert residual < TOL.conjugation

    def test_half_turn_sign_convention(self):
        # at exactly pi both axis signs give the same rotation; integer spin has
        # no sign ambiguity, so both give the same unitary, I - 2 (n.S)^2
        for axis in ([0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]):
            n = np.array(axis)
            U = spin_representation(rotation_about(n, np.pi))
            assert np.linalg.norm(U - spin_representation(rotation_about(-n, np.pi))) < 1e-12
            H = spin_along(n)
            assert np.linalg.norm(U - (np.eye(3) - 2.0 * H @ H)) < 1e-12


class TestSpinRepresentation:
    def test_identity(self):
        assert np.allclose(spin_representation(np.eye(3)), np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("theta", [0.3, 1.0, np.pi / 2, 2.5])
    def test_z_rotation_phases(self, theta):
        # oracle: exponentiate the diagonal generator analytically
        U = spin_representation(rotation_about((0, 0, 1), theta))
        expected = np.diag([np.exp(-1j * theta), 1.0, np.exp(1j * theta)])
        assert np.allclose(U, expected, atol=1e-12)

    @given(rotations())
    def test_unitary(self, R):
        U = spin_representation(R)
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-12

    @given(rotations(), unit_vectors())
    def test_conjugation_action(self, R, u):
        U = spin_representation(R)
        assert np.linalg.norm(U @ spin_along(u) @ U.conj().T - spin_along(R @ u)) < 1e-10

    @settings(max_examples=40)
    @given(rotations(), rotations())
    def test_composition_action(self, R1, R2):
        # the group law holds up to a global phase, so compare actions
        U12 = spin_representation(R1 @ R2)
        U = spin_representation(R1) @ spin_representation(R2)
        for S in spin_generators():
            lhs = U12 @ S @ U12.conj().T
            rhs = U @ S @ U.conj().T
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_conjugation_qr_sampled(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            R = qr_rotation(rng)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            U = spin_representation(R)
            worst = max(
                worst, np.linalg.norm(U @ spin_along(u) @ U.conj().T - spin_along(R @ u))
            )
        assert worst < 1e-10


def test_expm_matches_series():
    # brute-force oracle: Taylor series of exp(-i theta u.S), plenty of terms for norm <= pi
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        theta = rng.uniform(0.0, np.pi)
        A = -1j * theta * spin_along(u)
        series = np.zeros((3, 3), dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(1, 60):
            series += term
            term = term @ A / k
        assert np.linalg.norm(spin_representation(rotation_about(u, theta)) - series) < 1e-12
