import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinchsh
from conftest import gaussian_scenario, scenarios
from reference import (
    SPIN_BASIS_TENSOR,
    reduced_bell,
    spin_basis_canonical,
    spin_generators,
    spin_representation,
)
from spinchsh import (
    TOL,
    CanonicalReduction,
    InputError,
    NonFiniteError,
    RankDeficiencyError,
    SpinChshError,
    bell_operator,
    canonical_parameters,
    canonical_reduction,
    cartesian_generators,
    correlation_matrices,
    coupling_operator,
    random_directions,
    svd3,
)


# row 3 = 2 row 2 - row 1, and a rank-3 neighbour
RANK2 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
RANK3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])
# finite entries whose two largest singular values, sqrt(2) * 1.7e308, overflow
OVERFLOWING = np.array([[1.7e308, 1.7e308, 0.0], [-1.7e308, 1.7e308, 0.0], [0.0, 0.0, 1.7e308]])


def reduction_parameters(M):
    """canonical_reduction's (s, t)."""
    reduction = canonical_reduction(M)
    return reduction.s, reduction.t


# the two entry points of svd3's input rules, the rank gate and the t cut, each giving (s, t)
PARAMETERS = (canonical_parameters, reduction_parameters)


def random_rank2(rng):
    return np.outer(rng.standard_normal(3), rng.standard_normal(3)) + np.outer(
        rng.standard_normal(3), rng.standard_normal(3)
    )


class TestSvd3:
    def test_already_diagonal(self):
        O1, O2, sigma = svd3(np.diag([2.0, 1.0, 0.0]))
        assert np.array_equal(sigma, [2.0, 1.0, 0.0])
        assert np.allclose(O1, np.eye(3), atol=1e-14)
        assert np.allclose(O2, np.eye(3), atol=1e-14)

    def test_zero_matrix(self):
        _, _, sigma = svd3(np.zeros((3, 3)))
        assert np.array_equal(sigma, [0.0, 0.0, 0.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError, match=r"expected a 3x3 matrix, got shape \(2, 2\)"):
            svd3(np.eye(2))

    def test_rejects_overflowing_singular_values(self):
        with pytest.raises(NonFiniteError, match="finite"):
            svd3(OVERFLOWING)
        with pytest.raises(NonFiniteError, match="finite"):
            svd3(np.stack([np.eye(3), OVERFLOWING]))

    def test_overflow_is_not_reduced(self):
        # an infinite first singular value would pass the rank gate and give s = inf, t = 0
        for parameters in PARAMETERS:
            with pytest.raises(NonFiniteError, match="expected finite singular values"):
                parameters(OVERFLOWING)

    def test_wrong_shape_is_a_library_error(self):
        # main prints a library error as one line; any other exception is a traceback
        for parameters in PARAMETERS:
            with pytest.raises(SpinChshError, match=r"expected a 3x3 matrix, got shape \(2, 2\)"):
                parameters(np.eye(2))

    def test_certificate_is_of_one_matrix(self):
        stack = np.stack([np.diag([2.0, 0.0, 0.0])] * 2)
        with pytest.raises(InputError, match=r"one 3x3 matrix, got shape \(2, 3, 3\)"):
            canonical_reduction(stack).certificate(stack)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_reconstruction_and_gram_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3))
        O1, O2, sigma = svd3(M)
        assert sigma[0] >= sigma[1] >= sigma[2] >= 0.0
        assert np.linalg.norm(O1 @ M @ O2.T - np.diag(sigma)) < 1e-11
        assert np.linalg.norm(O1.T @ np.diag(sigma) @ O2 - M) < 1e-10
        for O in (O1, O2):
            assert np.linalg.norm(O.T @ O - np.eye(3)) < 1e-12
            assert abs(abs(np.linalg.det(O)) - 1.0) < 1e-12
        # independent oracle: singular values from the Gram matrix spectrum
        gram = np.sort(np.linalg.eigvalsh(M.T @ M))[::-1]
        assert np.allclose(sigma**2, gram, atol=1e-10)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            M = rng.standard_normal((3, 3))
            O1a, O2a, sa = svd3(M)
            O1b, O2b, sb = svd3(M.copy())
            assert np.array_equal(O1a, O1b) and np.array_equal(O2a, O2b)
            # left singular vectors (rows of O1) lead with a positive entry
            for row in O1a:
                assert row[np.argmax(np.abs(row))] > 0.0


    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_without_hanging(self, bad):
        # LAPACK's SVD never returns on an infinite entry, so the call runs in
        # a child process: a regression then fails on the timeout, not by hanging
        program = (
            "import numpy as np\n"
            "from spinchsh import canonical_parameters, canonical_reduction, svd3\n"
            f"M = np.diag([float('{bad}'), 1.0, 0.0])\n"
            "for call in (svd3, canonical_reduction, canonical_parameters):\n"
            "    try:\n"
            "        call(M)\n"
            "    except ValueError as exc:\n"
            "        print(call.__name__, 'rejected:', exc)\n"
        )
        package_root = os.path.dirname(os.path.dirname(spinchsh.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "svd3 rejected: expected finite matrix entries",
            "canonical_reduction rejected: expected finite matrix entries",
            "canonical_parameters rejected: expected finite matrix entries",
        ]

    def test_rejects_non_finite_in_a_stack(self):
        M = np.zeros((4, 3, 3))
        M[2, 1, 1] = np.nan
        for call in (svd3, *PARAMETERS):
            with pytest.raises(NonFiniteError, match="expected finite matrix entries"):
                call(M)


class TestCanonicalReduction:
    def test_permutes_trailing_diagonal(self):
        M = np.diag([0.0, 0.0, 2.0])
        red = canonical_reduction(M)
        assert (red.s, red.t) == (2.0, 0.0)
        assert np.linalg.norm(red.R @ M @ red.Q.T - np.diag([2.0, 0.0, 0.0])) < 1e-12

    def test_tight_scenario(self, tight_scenario):
        M = correlation_matrices(tight_scenario)
        red = canonical_reduction(M)
        assert (red.s, red.t) == (2.0, 0.0)
        assert red.s**2 + red.t**2 == 4.0

    @given(scenarios())
    def test_certificate_properties(self, sc):
        M = correlation_matrices(sc)
        red = canonical_reduction(M)
        assert red.s >= red.t >= 0.0
        assert abs(np.linalg.det(red.R) - 1.0) < 1e-10
        assert abs(np.linalg.det(red.Q) - 1.0) < 1e-10
        assert np.linalg.norm(red.R @ M @ red.Q.T - red.diagonal_form()) < 1e-10
        assert abs(red.s**2 + red.t**2 - 4.0) < 1e-9
        # the certificate preserves the singular-value multiset
        _, _, sigma = svd3(M)
        assert np.allclose(sorted([red.s, red.t, 0.0], reverse=True), sigma, atol=1e-10)

    def test_bulk_random_rank_two(self):
        rng = np.random.default_rng(101)
        M = np.stack([random_rank2(rng) for _ in range(10_000)])
        red = canonical_reduction(M)
        diagonal = np.zeros_like(M)
        diagonal[:, 0, 0], diagonal[:, 2, 2] = red.s, red.t
        recon = np.linalg.norm(red.R @ M @ red.Q.swapaxes(-1, -2) - diagonal, axis=(1, 2))
        det = np.abs(np.linalg.det(np.concatenate((red.R, red.Q))) - 1.0)
        assert np.max(recon) < 1e-10
        assert np.max(det) < 1e-10

    def test_rank3_rejected_naming_sigma3(self):
        for parameters in PARAMETERS:
            with pytest.raises(RankDeficiencyError) as excinfo:
                parameters(np.eye(3))
            assert abs(excinfo.value.sigma3 - 1.0) < 1e-12
            assert "1.000e+00" in str(excinfo.value)

    def test_rank_tolerance_boundary(self):
        for parameters in PARAMETERS:
            parameters(np.diag([1.0, 1.0, 5e-9]))
            with pytest.raises(RankDeficiencyError):
                parameters(np.diag([1.0, 1.0, 2e-8]))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_rank_verdict_does_not_depend_on_scale(self, scale):
        # at 1e9 the rank-2 matrix's rounding sigma3 is 9.5e-7, far above 1e-8
        M = scale * RANK2
        red = canonical_reduction(M)
        assert np.linalg.norm(red.R @ M @ red.Q.T - red.diagonal_form()) < 1e-14 * red.s
        assert canonical_parameters(M) == (red.s, red.t)
        for M in (scale * RANK3, scale * np.eye(3)):
            for parameters in PARAMETERS:
                with pytest.raises(RankDeficiencyError) as excinfo:
                    parameters(M)
                assert excinfo.value.sigma3 == svd3(M)[2][2]

    def test_stack_names_the_first_offending_sigma3(self):
        stack = np.stack((1e9 * RANK2, 1e-9 * RANK3, 1e-9 * np.eye(3)))
        for parameters in PARAMETERS:
            with pytest.raises(RankDeficiencyError) as excinfo:
                parameters(stack)
            assert excinfo.value.sigma3 == svd3(stack[1])[2][2]
            with pytest.raises(RankDeficiencyError) as excinfo:
                parameters(stack[[0, 2, 1]])
            assert excinfo.value.sigma3 == 1e-9
            assert "1.000e-09" in str(excinfo.value)

    def test_certificate_dict(self, tight_scenario):
        M = correlation_matrices(tight_scenario)
        cert = canonical_reduction(M).certificate(M)
        assert cert["s"] == 2.0 and cert["t"] == 0.0
        assert cert["sum_of_squares"] == 4.0
        for key in (
            "reconstruction_residual",
            "det_R_residual",
            "det_Q_residual",
            "orthogonality_R_residual",
            "orthogonality_Q_residual",
        ):
            assert cert[key] < 1e-10

    def test_small_second_singular_value_is_kept(self):
        # t/s = 1e-12 is far above the SVD's backward error (machine epsilon times s)
        rng = np.random.default_rng(12)
        O1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        O2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        M = O1 @ np.diag([1.0, 1e-12, 0.0]) @ O2.T
        for parameters in PARAMETERS:
            s, t = parameters(M)
            assert s == pytest.approx(1.0, rel=1e-14)
            # relative only: pytest.approx would also accept t = 0 within its 1e-12 default
            assert abs(t / 1e-12 - 1.0) < 1e-3

    def test_second_singular_value_at_most_eps_times_the_first_is_cut(self):
        eps = np.finfo(float).eps
        for parameters in PARAMETERS:
            assert parameters(np.diag([1.0, eps, 0.0])) == (1.0, 0.0)
            assert parameters(np.diag([4.0, 1e-17, 0.0])) == (4.0, 0.0)
            # just above the cut, t is kept as the SVD gives it
            assert parameters(np.diag([1.0, 2.0 * eps, 0.0])) == (1.0, 2.0 * eps)
            s, t = parameters(np.stack([np.diag([1.0, eps, 0.0]), np.diag([1.0, 2.0 * eps, 0.0])]))
            assert s.tolist() == [1.0, 1.0] and t.tolist() == [0.0, 2.0 * eps]

    def test_parameters_are_the_reduction_s_and_t(self):
        rng = np.random.default_rng(102)
        M = np.concatenate(
            [
                np.stack([random_rank2(rng) for _ in range(1000)]),
                correlation_matrices(random_directions(rng, (1000, 4))),
            ]
        )
        red = canonical_reduction(M)
        s, t = canonical_parameters(M)
        # bit for bit, and as floats for one matrix
        assert s.tobytes() == red.s.tobytes() and t.tobytes() == red.t.tobytes()
        for k in range(0, len(M), 97):
            single = canonical_parameters(M[k])
            assert single == (float(s[k]), float(t[k]))
            assert all(type(x) is float for x in single)

    @pytest.mark.parametrize("diagonal", [(1e200, 0.0, 1.0), (1e154, 1e154, 0.0)])
    def test_certificate_rejects_an_overflowing_sum_of_squares(self, diagonal):
        # finite entries whose s^2 + t^2 overflows: a library error, not Python's OverflowError
        M = np.diag(diagonal)
        with pytest.raises(NonFiniteError, match="finite"):
            canonical_reduction(M).certificate(M)

    def test_certificate_conjugation_residual(self, tight_scenario):
        rng = np.random.default_rng(14)
        for sc in [tight_scenario, *(gaussian_scenario(rng) for _ in range(100))]:
            M = correlation_matrices(sc)
            red = canonical_reduction(M)
            assert red.certificate(M)["conjugation_residual"] <= TOL.conjugation
        # with identity rotations the residual is ||K(M) - canonical||, far from 0
        wrong = CanonicalReduction(R=np.eye(3), Q=np.eye(3), s=red.s, t=red.t)
        assert wrong.certificate(M)["conjugation_residual"] > 1.0


class TestReducedBell:
    def test_tight_scenario(self, tight_scenario):
        Sx, _, Sz = spin_generators()
        eps_x = cartesian_generators()[0]
        s, t, H = reduced_bell(tight_scenario)
        assert (s, t) == (2.0, 0.0)
        # 2 S_x S_x, exactly -2 eps_x eps_x in the Cartesian basis
        assert np.array_equal(H, -2.0 * np.kron(eps_x, eps_x))
        assert np.linalg.norm(spin_basis_canonical(s, t) - 2.0 * np.kron(Sx, Sx)) < 1e-14
        # two eigensolver runs: the reduced operator and the original one
        eig_h = np.linalg.eigvalsh(H)
        eig_b = np.linalg.eigvalsh(2.0 * np.kron(Sz, Sz))
        assert np.allclose(eig_h, eig_b, atol=1e-12)

    def test_planar_degenerate_scenario(self):
        from spinchsh import MeasurementScenario

        sc = MeasurementScenario((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1))
        s, t, H = reduced_bell(sc)
        assert abs(s**2 + t**2 - 4.0) < 1e-9
        assert np.allclose(
            np.linalg.eigvalsh(H), np.linalg.eigvalsh(bell_operator(sc)), atol=1e-9
        )

    def test_rank_one_with_rounding_noise(self):
        # a 4e-144 component leaves sigma_2 ~ 6e-160, which LAPACK's Hermitian
        # eigensolver mishandles on the canonical operator; it must come back as 0
        from spinchsh import MeasurementScenario

        a = (0.0, 4.0937112932801327e-144, 1.0)
        b = (0.8944271909999159, 0.4472135954999579, 0.0)
        sc = MeasurementScenario(a, a, b, (1.0, 0.0, 0.0))
        s, t, H = reduced_bell(sc)
        assert t == 0.0
        assert np.allclose(
            np.linalg.eigvalsh(H), np.linalg.eigvalsh(bell_operator(sc)), atol=1e-9
        )

    @given(scenarios())
    def test_spectra_agree(self, sc):
        _, _, H = reduced_bell(sc)
        assert np.allclose(
            np.linalg.eigvalsh(H), np.linalg.eigvalsh(bell_operator(sc)), atol=1e-9
        )

    def test_explicit_unitary_chain(self):
        # the full conjugation chain, end to end, in the spin basis: the spin
        # representations of the certificate rotations map the coupling
        # operator to the spin-basis canonical form
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            sc = gaussian_scenario(rng)
            M = correlation_matrices(sc)
            red = canonical_reduction(M)
            W = np.kron(spin_representation(red.R), spin_representation(red.Q))
            conjugated = W @ coupling_operator(M, SPIN_BASIS_TENSOR) @ W.conj().T
            worst = max(
                worst, np.linalg.norm(conjugated - spin_basis_canonical(red.s, red.t))
            )
        assert worst < 1e-9
