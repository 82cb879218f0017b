import numpy as np
import pytest
from hypothesis import given

from conftest import canonical_params, scenarios
from spinchsh import (
    HermiticityError,
    V4_INDICES,
    V5_INDICES,
    bell_operator,
    canonical_operator,
    closed_form_spectrum,
    eig_hermitian,
    spin_generators,
    subspace_blocks,
    verify_invariance,
)

SQRT2 = np.sqrt(2.0)


def assemble_from_blocks(blocks, s, t):
    """Change-of-basis oracle: embed the blocks back into the 9-dim space."""
    H = np.zeros((9, 9))
    idx = np.asarray(V4_INDICES)
    H[np.ix_(idx, idx)] = blocks.v4_block
    for vector, value in blocks.v5_t_eigenpairs:
        H += value * np.outer(vector, vector)
    e = np.eye(9)
    w_basis = np.column_stack(
        [(e[0] + e[8]) / SQRT2, (e[2] + e[6]) / SQRT2, e[4]]
    )
    H += w_basis @ blocks.w_block @ w_basis.T
    return H


class TestEigHermitian:
    def test_z_generator(self):
        _, _, Sz = spin_generators()
        result = eig_hermitian(Sz)
        assert np.allclose(result.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-14)
        assert result.operator_norm == 1.0

    def test_tight_operator_multiset(self):
        # oracle: the Kronecker product of diagonals has eigenvalues 2*m*n
        _, _, Sz = spin_generators()
        levels = np.array([1.0, 0.0, -1.0])
        expected = np.sort(2.0 * np.outer(levels, levels).reshape(-1))
        result = eig_hermitian(2.0 * np.kron(Sz, Sz))
        assert np.allclose(result.eigenvalues, expected, atol=1e-14)
        assert np.array_equal(expected, [-2, -2, 0, 0, 0, 0, 0, 2, 2])

    def test_matches_closed_form_at_sqrt2(self):
        result = eig_hermitian(canonical_operator(SQRT2, SQRT2))
        closed = closed_form_spectrum(SQRT2, SQRT2)
        assert np.allclose(result.eigenvalues, closed.eigenvalues, atol=1e-10)

    @given(canonical_params())
    def test_reconstruction_residual(self, params):
        s, t = params
        A = canonical_operator(s, t)
        result = eig_hermitian(A)
        V = result.eigenvectors
        assert np.linalg.norm(A @ V - V * result.eigenvalues) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(9, 9), (5, 9, 9)])
    def test_rejects_non_finite(self, bad, shape):
        with pytest.raises(HermiticityError), np.errstate(invalid="ignore"):
            eig_hermitian(np.full(shape, bad))
        # one bad entry on the diagonal of one matrix of a Hermitian stack
        A = np.broadcast_to(canonical_operator(1.0, 1.0), shape).copy()
        A[(0,) * (len(shape) - 2) + (3, 3)] = bad
        with pytest.raises(HermiticityError), np.errstate(invalid="ignore"):
            eig_hermitian(A)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_diagonal_rejected_without_warning(self):
        # inf - inf in the asymmetry is NaN; numpy's warning about it is noise
        with pytest.raises(HermiticityError):
            eig_hermitian(np.diag([np.inf, 1.0]))

    def test_rejects_non_hermitian_with_measurement(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HermiticityError) as excinfo:
            eig_hermitian(A)
        assert abs(excinfo.value.asymmetry - np.sqrt(2.0)) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((2, 3)))


class TestClosedForm:
    def test_zero_parameters(self):
        result = closed_form_spectrum(0.0, 0.0)
        assert np.array_equal(result.eigenvalues, np.zeros(9))
        assert result.operator_norm == 0.0

    def test_sqrt2_pair(self):
        result = closed_form_spectrum(SQRT2, SQRT2)
        expected = [-2.0, -SQRT2, -SQRT2, 0.0, 0.0, 0.0, SQRT2, SQRT2, 2.0]
        assert np.allclose(result.eigenvalues, expected, atol=1e-15)
        assert abs(result.operator_norm - 2.0) < 1e-15

    def test_two_zero(self):
        result = closed_form_spectrum(2.0, 0.0)
        assert np.array_equal(result.eigenvalues, [-2, -2, 0, 0, 0, 0, 0, 2, 2])
        assert result.operator_norm == 2.0

    @pytest.mark.parametrize("s,t", [(-1.0, 0.0), (0.0, -0.5)])
    def test_rejects_negative(self, s, t):
        with pytest.raises(ValueError):
            closed_form_spectrum(s, t)

    @given(canonical_params())
    def test_matches_numeric(self, params):
        s, t = params
        closed = closed_form_spectrum(s, t)
        numeric = eig_hermitian(canonical_operator(s, t))
        assert np.max(np.abs(closed.eigenvalues - numeric.eigenvalues)) < 1e-10

    @given(canonical_params())
    def test_norm_law(self, params):
        s, t = params
        result = closed_form_spectrum(s, t)
        assert abs(result.operator_norm - np.hypot(s, t)) < 1e-10
        assert result.operator_norm >= max(s, t) - 1e-15
        numeric = eig_hermitian(canonical_operator(s, t))
        assert abs(numeric.operator_norm - np.hypot(s, t)) < 1e-10

    @given(canonical_params())
    def test_traceless(self, params):
        assert abs(np.sum(closed_form_spectrum(*params).eigenvalues)) < 1e-12

    @given(scenarios())
    def test_full_chain_norm_is_two(self, sc):
        # every scenario's operator norm is 2, not merely bounded by it
        assert abs(eig_hermitian(bell_operator(sc)).operator_norm - 2.0) < 1e-9


class TestSubspaceBlocks:
    def test_block_displays(self):
        s, t = 1.7, 0.6
        blocks = subspace_blocks(s, t)
        h = s / 2.0
        assert np.array_equal(
            blocks.v4_block,
            [[0, h, h, 0], [h, 0, 0, h], [h, 0, 0, h], [0, h, h, 0]],
        )
        x = s / SQRT2
        assert np.array_equal(blocks.w_block, [[t, 0, x], [0, -t, x], [x, x, 0]])

    def test_v4_eigenvalues_unit_s(self):
        blocks = subspace_blocks(1.0, 0.0)
        assert np.allclose(np.linalg.eigvalsh(blocks.v4_block), [-1, 0, 0, 1], atol=1e-14)

    def test_pair_eigenvectors_unit_t(self):
        blocks = subspace_blocks(0.0, 1.0)
        (u1, lam1), (u2, lam2) = blocks.v5_t_eigenpairs
        assert lam1 == 1.0 and lam2 == -1.0
        H = canonical_operator(0.0, 1.0)
        assert np.linalg.norm(H @ u1 - lam1 * u1) < 1e-14
        assert np.linalg.norm(H @ u2 - lam2 * u2) < 1e-14

    @given(canonical_params())
    def test_pair_eigenvectors_are_eigenvectors(self, params):
        s, t = params
        H = canonical_operator(s, t)
        for vector, value in subspace_blocks(s, t).v5_t_eigenpairs:
            assert abs(np.linalg.norm(vector) - 1.0) < 1e-14
            assert np.linalg.norm(H @ vector - value * vector) < 1e-12

    @given(canonical_params())
    def test_w_block_eigenvalues(self, params):
        s, t = params
        blocks = subspace_blocks(s, t)
        expected = np.sort([-np.hypot(s, t), 0.0, np.hypot(s, t)])
        assert np.allclose(np.linalg.eigvalsh(blocks.w_block), expected, atol=1e-13)

    @given(canonical_params())
    def test_blocks_reassemble_the_operator(self, params):
        s, t = params
        rebuilt = assemble_from_blocks(subspace_blocks(s, t), s, t)
        assert np.linalg.norm(rebuilt - canonical_operator(s, t)) < 1e-12

    def test_block_eigenvalues_union_is_closed_form(self):
        s, t = 1.1, 0.9
        blocks = subspace_blocks(s, t)
        union = np.concatenate(
            [
                np.linalg.eigvalsh(blocks.v4_block),
                [value for _, value in blocks.v5_t_eigenpairs],
                np.linalg.eigvalsh(blocks.w_block),
            ]
        )
        assert np.allclose(
            np.sort(union), closed_form_spectrum(s, t).eigenvalues, atol=1e-13
        )


class TestInvariance:
    def test_sector_indices_partition_the_space(self):
        assert sorted(V4_INDICES + V5_INDICES) == list(range(9))

    def test_zero_parameters(self):
        report = verify_invariance(0.0, 0.0)
        assert report.max_residual == 0.0

    def test_sqrt2_pair(self):
        assert verify_invariance(SQRT2, SQRT2).max_residual < 1e-13

    def test_hundred_points_on_the_circle(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(100):
            angle = rng.uniform(0.0, np.pi / 2.0)
            report = verify_invariance(2.0 * np.cos(angle), 2.0 * np.sin(angle))
            worst = max(worst, report.max_residual)
        assert worst < 1e-13

    @given(canonical_params())
    def test_random_parameters(self, params):
        assert verify_invariance(*params).max_residual < 1e-13
