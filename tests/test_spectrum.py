import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import canonical_params, scenarios
from reference import (
    SPIN_BASIS_TENSOR,
    V4_INDICES,
    V5_INDICES,
    eigvalsh_reference,
    hermitian_asymmetry_reference,
    spin_basis_canonical,
    spin_generators,
    subspace_blocks,
    verify_invariance,
)
from spinchsh import (
    SPIN1_FAMILY,
    TOL,
    HermiticityError,
    InputError,
    SpinChshError,
    bell_operator,
    canonical_operator,
    closed_form_spectrum,
    correlation_matrices,
    coupling_operator,
    eig_hermitian,
)
from spinchsh.search import random_directions
from spinchsh.spectrum import _UNDERFLOW, _check_hermitian, _eigvalsh

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
        # eig_hermitian returns no eigenvectors; eigh's pair them with its eigenvalues
        _, V = np.linalg.eigh(A)
        assert np.linalg.norm(A @ V - V * result.eigenvalues) < 1e-10

    def test_tiny_entries_keep_the_spectrum(self):
        # eigvalsh alone is off by up to 0.2 on this grid, and by 2.5e-6 at
        # the (1.25, 5.5e-160) Hypothesis found; eigh is the reference
        s, t = np.meshgrid(np.linspace(0.1, 2.0, 40), np.geomspace(1e-165, 1e-138, 50))
        s, t = np.append(s, 1.25), np.append(t, 5.540939184423706e-160)
        A = canonical_operator(s, t)
        assert A.dtype == np.float64  # the real solver's path
        result = eig_hermitian(A)
        assert np.abs(result.eigenvalues - np.linalg.eigh(A)[0]).max() < TOL.spectrum
        assert np.abs(result.operator_norm - np.hypot(s, t)).max() < TOL.spectrum
        # a scenario with components near 1e-160, whose norm eigvalsh put 3.9e-8 off 2
        sc = [
            [-1.0, -1.7948568387427578e-150, 1.5071827868730103e-162],
            [-0.9634120899189063, 1.6647928625758795e-154, -0.2680245231281744],
            [-4.9129494056464775e-160, 1.0, -1.4079145068725445e-162],
            [-4.79879270718705e-161, 1.0, 4.196401765237238e-158],
        ]
        assert abs(eig_hermitian(bell_operator(np.array(sc))).operator_norm - 2.0) < TOL.norm_band

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
        # one off-diagonal 1e-9 gives asymmetry sqrt(2) * 1e-9, ten times past the
        # default TOL.hermiticity
        slight = np.diag(np.arange(9.0))
        slight[0, 1] = 1e-9
        for A in (np.array([[0.0, 1.0], [0.0, 0.0]]), slight):
            with pytest.raises(HermiticityError) as excinfo:
                eig_hermitian(A)
            assert abs(excinfo.value.asymmetry - np.sqrt(2.0) * A[0, 1]) < 1e-12

    def test_nan_and_overflowing_asymmetries_fail_without_warning(self):
        nan = canonical_operator(1.0, 1.0)
        nan[2, 5] = np.nan
        with pytest.raises(HermiticityError) as excinfo:
            eig_hermitian(nan)
        assert np.isnan(excinfo.value.asymmetry)
        # the squares of 1e200 overflow to inf
        with pytest.raises(HermiticityError) as excinfo:
            eig_hermitian(np.array([[0.0, 1e200], [0.0, 0.0]]))
        assert excinfo.value.asymmetry == np.inf

    def test_solver_sees_real_input_as_float64(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(A):
            seen.append(A.dtype)
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        sc = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        cases = [
            (canonical_operator([0.5, 1.0], 2.0), np.float64),
            (np.eye(3, dtype=np.float32), np.float64),
            (np.eye(3, dtype=int), np.float64),
            ([[True, False], [False, True]], np.float64),
            (bell_operator(np.array(sc)), np.float64),
            (SPIN1_FAMILY.bell_operator(np.array(sc)), np.float64),
            (coupling_operator(correlation_matrices(np.array(sc)), SPIN_BASIS_TENSOR), np.complex128),
            (np.eye(3, dtype=np.complex64), np.complex128),
        ]
        for A, _ in cases:
            eig_hermitian(A)
        assert seen == [dtype for _, dtype in cases]

    def test_gate_reads_a_real_matrix_as_its_complex_copy(self):
        within = np.diag(np.arange(4.0))
        within[0, 1] = 1e-11
        slight = within.copy()
        slight[0, 1] = 1e-9
        nan = canonical_operator(1.0, 1.0)
        nan[2, 5] = np.nan
        huge = np.array([[0.0, 1e200], [0.0, 0.0]])
        for A in (within, slight, np.array([[0.0, 1.0], [0.0, 0.0]]), nan, huge):
            verdicts = []
            for B in (A, A.astype(complex)):
                try:
                    eig_hermitian(B)
                    verdicts.append(None)
                except HermiticityError as error:
                    verdicts.append(error.asymmetry)
            assert verdicts[0] is verdicts[1] is None or np.array_equal(*verdicts, equal_nan=True)
        assert eig_hermitian(within).operator_norm == 3.0

    def test_asymmetry_is_the_norm_over_the_whole_stack(self):
        rng = np.random.default_rng(5)
        for A in (
            rng.standard_normal((50, 9, 9)),
            rng.standard_normal((50, 9, 9)) + 1j * rng.standard_normal((50, 9, 9)),
        ):
            with pytest.raises(HermiticityError) as excinfo:
                eig_hermitian(A)
            reference = np.linalg.norm(A - A.swapaxes(-1, -2).conj())
            assert abs(excinfo.value.asymmetry - reference) <= 1e-14 * reference
        # a Hermitian matrix with an imaginary part passes
        assert eig_hermitian(np.array([[1.0, 2j], [-2j, 1.0]])).operator_norm == 3.0

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            eig_hermitian(np.zeros((2, 3)))
        # an empty matrix, or a stack of them, has no norm
        for shape in [(0, 0), (2, 0, 0)]:
            with pytest.raises(InputError, match="nonempty"):
                eig_hermitian(np.zeros(shape))


def solver_outcome(solve, A):
    """The bytes of ``solve(A)``, or the type and text of what it raised."""
    try:
        return solve(A).tobytes()
    except np.linalg.LinAlgError as error:
        return type(error), str(error)


@st.composite
def guard_stacks(draw):
    """Symmetric (count, n, n) stacks that put the underflow guard's short-cut to the test.

    Each matrix has its own scale, from 1e-300 to 1e300, so one matrix's
    entries can all lie below the stack-wide threshold and none below its
    own. Some entries are zero, some are planted below ``_UNDERFLOW`` of
    their matrix's largest, and one entry may be NaN or infinite.
    """
    count, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.lists(st.integers(-300, 300), min_size=count, max_size=count))
    A = rng.standard_normal((count, n, n)) * 10.0 ** np.array(exponents, dtype=float)[:, None, None]
    A[rng.random(A.shape) < draw(st.floats(0.0, 0.6))] = 0.0
    A = np.tril(A) + np.tril(A, -1).swapaxes(-1, -2)
    index = st.tuples(st.integers(0, count - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 3))):
        k, i, j = draw(index)
        share = draw(st.floats(1e-30, 1.0, exclude_max=True))
        A[k, i, j] = A[k, j, i] = float(np.abs(A[k]).max()) * _UNDERFLOW * share
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        A[draw(index)] = bad
    return A


def hermiticity_gate_cases() -> dict:
    """Inputs on both sides of the Hermiticity gate and of its exact-symmetry short-cut."""
    stack = canonical_operator(np.linspace(0.1, 2.0, 5), 1.3)
    cases = {"symmetric": stack, "integer": np.arange(9).reshape(3, 3) + np.arange(9).reshape(3, 3).T}
    cases["bell"] = bell_operator(random_directions(np.random.default_rng(8), (20, 4)))
    for name, offset in (("1e-11-off", 1e-11), ("1e-9-off", 1e-9)):
        cases[name] = stack.copy()
        cases[name][2, 0, 1] += offset
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf)):
        diagonal, pair = stack.copy(), stack.copy()
        diagonal[3, 4, 4] = bad
        pair[1, 0, 3] = pair[1, 3, 0] = bad
        cases[f"{name}-diagonal"], cases[f"{name}-pair"] = diagonal, pair
    # -0.0 above the diagonal and +0.0 below: equal, though not the same bits
    upper = np.triu(np.ones((9, 9), dtype=bool), 1)
    cases["signed-zeros"] = np.where(upper & (stack == 0.0), -0.0, stack)
    # symmetric with a sum that overflows
    cases["huge"] = np.full((3, 4, 4), 1e308)
    hermitian = stack + 1j * (np.triu(stack, 1) - np.triu(stack, 1).swapaxes(-1, -2))
    cases["complex"] = hermitian
    cases["complex-1e-9-off"] = hermitian.copy()
    cases["complex-1e-9-off"][0, 2, 5] += 1e-9j
    return cases


class TestGuardShortCuts:
    """The exact short-cuts of the underflow guard and the Hermiticity gate change no result."""

    @given(guard_stacks())
    def test_eigvalsh_matches_the_per_matrix_rule(self, A):
        assert solver_outcome(_eigvalsh, A) == solver_outcome(eigvalsh_reference, A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_beside_a_tiny_entry(self, bad, monkeypatch):
        A = np.stack([canonical_operator(1.0, 1e-150), canonical_operator(1.0, 1.0)])
        A[1, 4, 4] = bad
        tiny = (A[0] != 0.0) & (np.abs(A[0]) < _UNDERFLOW)
        assert tiny.any()
        assert solver_outcome(_eigvalsh, A) == solver_outcome(eigvalsh_reference, A)
        # the stack's largest is not finite, yet the finite matrix's tiny entries are zeroed
        solved, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: solved.append(M) or eigvalsh(M[:1]))
        _eigvalsh(A)
        assert np.array_equal(solved[0][0], np.where(tiny, 0.0, A[0]))

    def test_eigvalsh_of_bell_operators_and_complex_input(self):
        B = bell_operator(random_directions(np.random.default_rng(3), (50, 4)))
        M = correlation_matrices(random_directions(np.random.default_rng(4), (5, 4)))
        H = coupling_operator(M, SPIN_BASIS_TENSOR)
        for A in (B, H, np.zeros((2, 9, 9)), np.zeros((0, 9, 9))):
            assert solver_outcome(_eigvalsh, A) == solver_outcome(eigvalsh_reference, A)

    @pytest.mark.parametrize("name", list(hermiticity_gate_cases()))
    def test_gate_gives_the_full_asymmetrys_verdict(self, name):
        A = hermiticity_gate_cases()[name]
        converted = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
        asymmetry = hermitian_asymmetry_reference(converted)
        if asymmetry <= TOL.hermiticity:
            assert _check_hermitian(A).tobytes() == converted.tobytes()
        else:
            with pytest.raises(HermiticityError) as excinfo:
                _check_hermitian(A)
            assert np.array_equal(excinfo.value.asymmetry, asymmetry, equal_nan=True)
        expected = {"1e-9-off", "complex-1e-9-off"} | {
            f"{bad}-{where}" for bad in ("nan", "inf", "minus-inf") for where in ("diagonal", "pair")
        }
        assert (not asymmetry <= TOL.hermiticity) == (name in expected)


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
        with pytest.raises(InputError):
            closed_form_spectrum(s, t)

    def test_negative_is_a_library_error(self):
        # main prints a library error as one line; any other exception is a traceback
        with pytest.raises(SpinChshError, match=r"nonnegative, got s=-1\.0, t=0\.0"):
            closed_form_spectrum(-1.0, 0.0)

    # 1.3e308 is finite, but the closed-form norm sqrt(s^2 + t^2) overflows
    @pytest.mark.parametrize(
        "s, t", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0), (1.3e308, 1.3e308), (-1.0, np.nan)]
    )
    @pytest.mark.parametrize("function", [closed_form_spectrum, subspace_blocks])
    def test_rejects_non_finite(self, function, s, t):
        # checked before the sign, so a NaN never passes as nonnegative
        with pytest.raises(InputError, match="must be finite"):
            function(s, t)

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
        H = spin_basis_canonical(0.0, 1.0)
        assert np.linalg.norm(H @ u1 - lam1 * u1) < 1e-14
        assert np.linalg.norm(H @ u2 - lam2 * u2) < 1e-14

    @given(canonical_params())
    def test_pair_eigenvectors_are_eigenvectors(self, params):
        s, t = params
        H = spin_basis_canonical(s, t)
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
        assert np.linalg.norm(rebuilt - spin_basis_canonical(s, t)) < 1e-12

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
        assert verify_invariance(SQRT2, SQRT2).max_residual < TOL.invariance

    def test_hundred_points_on_the_circle(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(100):
            angle = rng.uniform(0.0, np.pi / 2.0)
            report = verify_invariance(2.0 * np.cos(angle), 2.0 * np.sin(angle))
            worst = max(worst, report.max_residual)
        assert worst < TOL.invariance

    @given(canonical_params())
    def test_random_parameters(self, params):
        assert verify_invariance(*params).max_residual < TOL.invariance
