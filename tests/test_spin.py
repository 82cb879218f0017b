import numpy as np
import pytest
from hypothesis import given, settings

from conftest import qr_rotation, rotations, unit_vectors
from spinchsh import (
    NormalizationError,
    RotationError,
    axis_angle,
    expm_hermitian,
    rotation_about,
    spin_along,
    spin_generators,
    spin_representation,
)
from spinchsh.spin import check_unit_vector, check_unit_vectors

SQRT2 = np.sqrt(2.0)


def rodrigues(n, theta):
    """Independent reconstruction oracle for axis-angle pairs."""
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


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
            assert np.linalg.norm(A @ B - B @ A - 1j * C) < 1e-14

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


class TestAxisAngle:
    def test_identity_convention(self):
        n, theta = axis_angle(np.eye(3))
        assert theta == 0.0
        assert np.array_equal(n, [0.0, 0.0, 1.0])

    def test_quarter_turn_about_z(self):
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        n, theta = axis_angle(R)
        assert abs(theta - np.pi / 2) < 1e-12
        assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [np.diag([1.0, 1.0, -1.0]), np.diag([2.0, 1.0, 1.0]), np.ones((3, 3))],
    )
    def test_rejects_non_rotations(self, bad):
        with pytest.raises(RotationError):
            axis_angle(bad)

    @given(rotations())
    def test_rodrigues_reconstruction(self, R):
        n, theta = axis_angle(R)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert 0.0 <= theta <= np.pi + 1e-15
        assert np.linalg.norm(rodrigues(n, theta) - R) < 1e-10

    def test_qr_sampled_reconstruction(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            R = qr_rotation(rng)
            n, theta = axis_angle(R)
            worst = max(worst, np.linalg.norm(rodrigues(n, theta) - R))
        assert worst < 1e-10

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_half_turn(self, gap):
        axis = np.array([0.3, -0.5, 0.81])
        axis /= np.linalg.norm(axis)
        R = rotation_about(axis, np.pi - gap)
        n, theta = axis_angle(R)
        assert np.linalg.norm(rodrigues(n, theta) - R) < 1e-10

    def test_half_turn_sign_convention(self):
        # at exactly pi both axis signs give the same rotation; the first
        # nonzero component of the reported axis must be positive
        for axis in ([0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]):
            R = rotation_about(np.array(axis), np.pi)
            n, theta = axis_angle(R)
            assert abs(theta - np.pi) < 1e-12
            lead = n[np.nonzero(np.abs(n) > 1e-9)[0][0]]
            assert lead > 0.0


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
    # brute-force oracle: Taylor series, plenty of terms for norm <= pi
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        theta = rng.uniform(0.0, np.pi)
        H = spin_along(u)
        A = -1j * theta * H
        series = np.zeros((3, 3), dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(1, 60):
            series += term
            term = term @ A / k
        assert np.linalg.norm(expm_hermitian(H, scale=-1j * theta) - series) < 1e-12
