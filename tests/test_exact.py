"""Exact and high-precision checks behind floating-point facts the package relies on."""

import csv
import itertools

import numpy as np
import pytest

from reference import GENERATORS, spin_generators
from spinchsh import (
    PAULI_FAMILY,
    SPIN1_FAMILY,
    TOL,
    canonical_operator,
    canonical_reduction,
    cartesian_generators,
    monte_carlo_certify,
)

sympy = pytest.importorskip("sympy")


def spin1_x_and_z():
    sx = sympy.Matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / sympy.sqrt(2)
    return sx, sympy.diag(1, 0, -1)


def test_canonical_characteristic_polynomial_factors():
    # the closed-form spectrum {0, 0, 0, +-s, +-t, +-sqrt(s^2 + t^2)}, of the
    # spin-basis form and of the integer-tensor Cartesian one canonical_operator builds
    s, t = sympy.symbols("s t", real=True)
    lam = sympy.Symbol("lambda")
    sx, sz = spin1_x_and_z()
    Sx, _, Sz = spin_generators()
    assert np.allclose(np.array(sx.evalf(), dtype=complex), Sx, atol=1e-15)
    assert np.array_equal(np.array(sz, dtype=complex), Sz)
    spin_basis = s * sympy.kronecker_product(sx, sx) + t * sympy.kronecker_product(sz, sz)
    expected = lam**3 * (lam**2 - s**2) * (lam**2 - t**2) * (lam**2 - s**2 - t**2)
    for H in (spin_basis, symbolic_coupling(sympy.diag(s, 0, t))):
        charpoly = H.charpoly(lam).as_expr()
        assert sympy.expand(charpoly - expected) == 0
        assert sympy.factor(charpoly) == sympy.factor(expected)


def bracket(v):
    """[v] = sum_k v_k eps_k, the Cartesian spin-1 observable of v times i."""
    eps = [sympy.Matrix(e.astype(int).tolist()) for e in cartesian_generators()]
    return sum((v[k] * eps[k] for k in range(3)), sympy.zeros(3, 3))


def symbolic_coupling(M):
    """K(M) in the Cartesian basis for a sympy 3x3 M, through SPIN1_FAMILY.tensor's integers."""
    tensor = sympy.Matrix(SPIN1_FAMILY.tensor.astype(int).tolist())
    return (sympy.Matrix(1, 9, list(M)) * tensor).reshape(9, 9)


@pytest.mark.parametrize(
    "s, t", [(1.5, 0.25), (2.0, 0.0), (0.0, 2.0), (0.375, 1.75), (2.0**-40, 3.0 * 2.0**20)]
)
def test_canonical_operator_is_the_integer_tensor_form(s, t):
    # canonical_operator(s, t) is K(diag(s, 0, t)) through SPIN1_FAMILY.tensor's
    # integers, bit for bit: for dyadic s and t every entry is exactly 0, +-s or +-t
    exact = symbolic_coupling(sympy.diag(sympy.Rational(s), 0, sympy.Rational(t)))
    H = canonical_operator(s, t)
    assert H.tobytes() == np.array(exact.tolist(), dtype=float).tobytes()
    # 8 nonzero entries when s and t are both nonzero
    assert np.count_nonzero(H) == 4 * (s != 0.0) + 4 * (t != 0.0)
    assert set(np.abs(H[H != 0.0])) == {s, t} - {0.0}


def symbolic_scenario():
    """Four symbolic 3-vectors a, a', b, b' and their correlation matrix M."""
    vectors = [
        sympy.Matrix(sympy.symbols(f"{name}x {name}y {name}z", real=True))
        for name in ("a", "ap", "b", "bp")
    ]
    a, ap, b, bp = vectors
    return vectors, a * (b + bp).T + ap * (b - bp).T


def test_correlation_matrix_frobenius_norm_is_two_for_unit_directions():
    # ||M||_F^2 with M = a (b + b')^T + a' (b - b')^T reduces to 4 modulo |u|^2 = 1
    vectors, M = symbolic_scenario()
    squared_norm = sum(entry**2 for entry in M)
    constraints = [u.dot(u) - 1 for u in vectors]
    gens = [x for u in vectors for x in u]
    _, remainder = sympy.reduced(sympy.expand(squared_norm - 4), constraints, *gens)
    assert remainder == 0


def test_correlation_matrix_has_rank_at_most_two():
    # a sum of two rank-one terms, for any four vectors, unit or not
    _, M = symbolic_scenario()
    assert sympy.expand(M.det()) == 0


def test_four_term_sum_is_the_coupling_operator():
    # the paper's cross-check, exactly: in the Cartesian basis S(u) = -i eps(u),
    # so the four-term sum is -(eps(a) eps(b) + eps(a) eps(b') + eps(a') eps(b)
    # - eps(a') eps(b')), and it is K(M) through SPIN1_FAMILY.tensor, by bilinearity
    (a, ap, b, bp), M = symbolic_scenario()

    def kron(x, y):
        return sympy.kronecker_product(bracket(x), bracket(y))

    four_term = -(kron(a, b) + kron(a, bp) + kron(ap, b) - kron(ap, bp))
    K = symbolic_coupling(M)
    assert (four_term - K).expand() == sympy.zeros(9, 9)


def quaternion_rotation(w, x, y, z):
    """The rotation of the quaternion (w, x, y, z) times its squared norm: no square root."""
    return sympy.Matrix(
        [
            [w**2 + x**2 - y**2 - z**2, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w**2 - x**2 + y**2 - z**2, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w**2 - x**2 - y**2 + z**2],
        ]
    )


def test_rotations_act_on_generators_by_adjoint_covariance():
    # Q is the rotation of q = (w, x, y, z) scaled by |q|^2; the first two
    # identities make R = Q / |q|^2 a rotation, every rotation is one, and the
    # third is then R [v] R^T = [R v] for [v] = sum_k v_k eps_k
    w, x, y, z = sympy.symbols("w x y z", real=True)
    n = w**2 + x**2 + y**2 + z**2
    Q = quaternion_rotation(w, x, y, z)
    v = sympy.Matrix(sympy.symbols("v1 v2 v3", real=True))
    assert (Q.T * Q - n**2 * sympy.eye(3)).expand() == sympy.zeros(3, 3)
    assert sympy.expand(Q.det() - n**3) == 0
    assert (Q * bracket(v) * Q.T - n * bracket(Q * v)).expand() == sympy.zeros(3, 3)


def test_coupling_operator_is_rotation_covariant_in_the_cartesian_basis():
    # (R (x) Q) K(M) (R (x) Q)^T = K(R M Q^T) for rotations R, Q and every 3x3 M,
    # K through SPIN1_FAMILY.tensor. R (x) Q = (R (x) I)(I (x) Q), so it is the
    # two one-sided identities, proved here for the scaled rotation P of the
    # quaternion q, |q|^2 times a rotation, which is every rotation
    # (test_rotations_act_on_generators_by_adjoint_covariance):
    # (P (x) I) K(M) (P (x) I)^T = |q|^2 K(P M) and
    # (I (x) P) K(M) (I (x) P)^T = |q|^2 K(M P^T).
    from sympy.polys.matrices import DomainMatrix

    q = sympy.symbols("w x y z")
    m = sympy.symbols("m0:9")
    P, M, I = quaternion_rotation(*q), sympy.Matrix(3, 3, m), sympy.eye(3)
    tensor = sympy.Matrix(SPIN1_FAMILY.tensor.astype(int).tolist())
    assert np.array_equal(np.array(tensor.tolist(), dtype=float), SPIN1_FAMILY.tensor)
    # polynomial matrices over Z[q, m], far faster to multiply than sympy.Matrix
    ring = sympy.ZZ[(*q, *m)]

    def polynomial(A):
        return DomainMatrix.from_Matrix(A.expand()).convert_to(ring)

    def coupling(A):
        return polynomial((sympy.Matrix(1, 9, list(A)) * tensor).reshape(9, 9))

    squared_norm = ring.convert(sum(v**2 for v in q))
    sides = ((sympy.kronecker_product(P, I), P * M), (sympy.kronecker_product(I, P), M * P.T))
    for left, carried in sides:
        W = polynomial(left)
        assert W * coupling(M) * W.transpose() == coupling(carried) * squared_norm


def test_route_a_rotations_are_exact_on_rational_inputs():
    # route A: proper rotations R, Q with R M Q^T = diag(s, 0, t), derived as
    # reduction.py derives them, in exact arithmetic. M = R0^T diag(s, 0, t) Q0
    # with R0, Q0 the rotations of rational quaternions and s^2 + t^2 = 4, so
    # M has rank 2 and every eigenvector below is rational
    s, t = sympy.Rational(8, 5), sympy.Rational(6, 5)
    R0, Q0 = (quaternion_rotation(*q) / sum(x**2 for x in q) for q in ((1, 2, 3, 4), (2, -1, 1, 3)))
    M = R0.T * sympy.diag(s, 0, t) * Q0

    def unit_eigenvectors(A):
        """The unit eigenvectors of a symmetric A with simple eigenvalues, by eigenvalue descending."""
        pairs = sorted(A.eigenvects(), key=lambda pair: -pair[0])
        assert [value for value, _, _ in pairs] == [s**2, t**2, 0]
        return [v / v.norm() for _, _, (v,) in pairs]

    def largest_entry_positive(u):
        # svd3's sign rule for a left singular vector, the first entry on ties
        lead = max(range(3), key=lambda k: (abs(u[k]), -k))
        return u if u[lead] > 0 else -u

    left = [largest_entry_positive(u) for u in unit_eigenvectors(M * M.T)]
    right = unit_eigenvectors(M.T * M)
    # each right vector of a nonzero singular value is signed so that u^T M v > 0
    right[:2] = [v if (u.T * M * v)[0] > 0 else -v for u, v in zip(left[:2], right)]
    O1, O2 = (sympy.Matrix.vstack(*(u.T for u in vectors)) for vectors in (left, right))
    assert O1 * M * O2.T == sympy.diag(s, t, 0)
    # the zero singular value absorbs a sign flip of the third row, which makes
    # each determinant +1; the rotation P then moves the zero to the middle
    J, P = sympy.diag(1, 1, -1), sympy.Matrix([[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    R, Q = (P * (J * O if O.det() < 0 else O) for O in (O1, O2))
    assert R * M * Q.T == sympy.diag(s, 0, t)
    assert R.det() == Q.det() == 1
    assert R * R.T == Q * Q.T == sympy.eye(3)
    # and the float reduction, under the same rules, rounds these rotations
    reduction = canonical_reduction(np.array(M, dtype=float))
    for exact, rounded in ((R, reduction.R), (Q, reduction.Q), (s, reduction.s), (t, reduction.t)):
        assert np.max(np.abs(np.array(exact, dtype=float) - rounded)) <= 1e-14


def test_rank_two_characteristic_polynomial_factors():
    # proper rotations carry any rank <= 2 M to one with a zero third row and
    # column (third rows of R and Q orthogonal to its column and row spaces),
    # and (R (x) Q) K(M) (R (x) Q)^T = K(R M Q^T) keeps the spectrum, so this
    # 4-symbol M covers every rank <= 2 correlation matrix: with F = ||M||_F^2
    # and G = det of its 2x2 block squared, det(lambda I - K(M)) is
    # lambda^3 (lambda^2 - F)(lambda^4 - F lambda^2 + G), so det(K - lambda I)
    # is minus that, and |lambda| <= sqrt(F) with equality attained
    m11, m12, m21, m22 = sympy.symbols("m11 m12 m21 m22", real=True)
    lam = sympy.Symbol("lambda")
    M = sympy.Matrix([[m11, m12, 0], [m21, m22, 0], [0, 0, 0]])
    K = symbolic_coupling(M)
    F = m11**2 + m12**2 + m21**2 + m22**2
    G = (m11 * m22 - m12 * m21) ** 2
    expected = -(lam**3) * (lam**2 - F) * (lam**4 - F * lam**2 + G)
    charpoly = K.charpoly(lam).as_expr()
    assert sympy.expand(-charpoly - expected) == 0
    assert sympy.factor(-charpoly) == sympy.factor(expected)


def exact_solve_bases():
    """The spin-1 family's C (x) C and the Pauli family's magic basis, exactly."""
    r = 1 / sympy.sqrt(2)
    C = sympy.Matrix([[-r, sympy.I * r, 0], [0, 0, 1], [r, sympy.I * r, 0]])
    magic = sympy.Matrix([[1, 0, 0, sympy.I], [0, sympy.I, 1, 0], [0, sympy.I, -1, 0], [1, 0, 0, -sympy.I]])
    return {SPIN1_FAMILY.name: sympy.kronecker_product(C, C), PAULI_FAMILY.name: magic * r}


def exact_generators(family):
    """A family's generators as exact sympy matrices, checked against the float ones of its reported states."""
    I = sympy.I
    if family is SPIN1_FAMILY:
        sx, sz = spin1_x_and_z()
        sy = sympy.Matrix([[0, -I, 0], [I, 0, -I], [0, I, 0]]) / sympy.sqrt(2)
        generators = [sx, sy, sz]
    else:
        generators = [sympy.Matrix(G) for G in ([[0, 1], [1, 0]], [[0, -I], [I, 0]], [[1, 0], [0, -1]])]
    for G, float_G in zip(generators, GENERATORS[family.name]):
        assert np.max(np.abs(np.array(G.evalf(), dtype=complex) - float_G)) < 1e-15
    return generators


@pytest.mark.parametrize("family", [SPIN1_FAMILY, PAULI_FAMILY], ids=lambda f: f.name)
def test_solve_bases_are_unitary_and_make_the_generator_products_integers(family):
    # the seesaw solves the family's tensor, W^dagger (G_i (x) G_j) W, in float64:
    # exactly, W is unitary and all nine products are real with entries 0 and +-1
    W = exact_solve_bases()[family.name]
    n = W.shape[0]
    assert np.max(np.abs(np.array(W.evalf(), dtype=complex) - family.basis)) < 1e-15
    assert (W.H * W).expand() == sympy.eye(n)
    generators = exact_generators(family)
    for i, j in itertools.product(range(3), repeat=2):
        product = (W.H * sympy.kronecker_product(generators[i], generators[j]) * W).expand()
        assert all(sympy.im(x) == 0 for x in product), (i, j)
        assert set(product) <= {-1, 0, 1}, (i, j)
        exact = np.array(product.tolist(), dtype=float)
        solved = family.tensor[3 * i + j].reshape(n, n)
        if family is SPIN1_FAMILY:
            # the spin-1 tensor is the Cartesian one, exact
            assert np.array_equal(exact, solved), (i, j)
        else:
            # the Pauli one is rounded through 1/sqrt(2), by at most an ulp
            assert np.max(np.abs(exact - solved)) <= 4.5e-16, (i, j)


def integer_coupling(M: np.ndarray) -> np.ndarray:
    """K(M) in the Cartesian basis for an integer 3x3 M, as a 9x9 array of Python integers."""
    tensor = SPIN1_FAMILY.tensor.astype(int)
    assert np.array_equal(tensor, SPIN1_FAMILY.tensor)
    return (M.reshape(9) @ tensor.astype(object)).reshape(9, 9)


def minimal_polynomial_residual(M: np.ndarray) -> np.ndarray:
    """B (B^4 - F B^2 + G)(B^2 - F) for B = K(M), in Python integers.

    F = ||M||_F^2 and G is the sum of the squared 2x2 minors of M.
    """
    B = integer_coupling(M)
    F = sum(x * x for x in M.flat)
    G = sum(
        (M[i, k] * M[j, l] - M[i, l] * M[j, k]) ** 2
        for i, j in itertools.combinations(range(3), 2)
        for k, l in itertools.combinations(range(3), 2)
    )
    identity = np.identity(9, dtype=object)
    B2 = B @ B
    return B @ (B2 @ B2 - F * B2 + G * identity) @ (B2 - F * identity)


def test_rank_two_coupling_operators_satisfy_the_minimal_polynomial():
    # P(B) = B (B^4 - F B^2 + G)(B^2 - F) = 0 for M = u p^T + v q^T, checked
    # exactly at random points with signed 64-bit integer u, p, v, q. Each
    # entry of P(B) is a polynomial of degree 14 in those 12 integers (M and B
    # have degree 2, F degree 4, G degree 8). By Schwartz-Zippel a nonzero one
    # vanishes at a uniform random point of S^12, |S| = 2^64, with probability
    # at most 14 / 2^64, so each zero residual below leaves a false identity
    # at most that chance.
    rng = np.random.default_rng(2026)
    for _ in range(40):
        u, p, v, q = (
            np.array(row, dtype=object)
            for row in rng.integers(-(2**63), 2**63, size=(4, 3), dtype=np.int64).tolist()
        )
        M = np.outer(u, p) + np.outer(v, q)
        assert not np.any(minimal_polynomial_residual(M))


def test_a_rank_three_matrix_breaks_the_minimal_polynomial():
    # the control: the identity holds for rank <= 2 only, so a test that
    # cannot tell would pass this matrix too
    rng = np.random.default_rng(2026)
    M = np.array(rng.integers(-1000, 1000, size=(3, 3)).tolist(), dtype=object)
    assert sympy.Matrix(M.tolist()).det() != 0
    assert np.any(minimal_polynomial_residual(M))


def test_worst_monte_carlo_norm_deviation_is_rounding(tmp_path):
    # the float norm of every sample is 2 only to rounding; at 50 digits the
    # worst sample's Bell operator, on its directions normalised at that
    # precision, has norm 2 far below anything float arithmetic can resolve
    mpmath = pytest.importorskip("mpmath")
    path = tmp_path / "norms.csv"
    max_norm = monte_carlo_certify(500, seed=3, csv_path=str(path))
    with open(path, newline="") as handle:
        rows = [[float(x) for x in row] for row in list(csv.reader(handle))[1:]]
    assert max(row[-1] for row in rows) == max_norm
    worst = max(rows, key=lambda row: abs(row[-1] - 2.0))
    float_deviation = abs(worst[-1] - 2.0)
    assert 0.0 < float_deviation <= TOL.norm_band

    with mpmath.workdps(50):
        i, r = mpmath.mpc(0, 1), 1 / mpmath.sqrt(2)
        sx = mpmath.matrix([[0, r, 0], [r, 0, r], [0, r, 0]])
        sy = mpmath.matrix([[0, -i * r, 0], [i * r, 0, -i * r], [0, i * r, 0]])
        sz = mpmath.diag([1, 0, -1])

        def spin(u):
            u = u / mpmath.norm(u)
            return u[0] * sx + u[1] * sy + u[2] * sz

        def kron(x, y):
            return mpmath.matrix(
                [[x[m // 3, n // 3] * y[m % 3, n % 3] for n in range(9)] for m in range(9)]
            )

        a, a_prime, b, b_prime = (
            spin(mpmath.matrix(worst[1 + 3 * k : 4 + 3 * k])) for k in range(4)
        )
        B = kron(a, b + b_prime) + kron(a_prime, b - b_prime)
        eigenvalues = mpmath.eighe(B, eigvals_only=True)
        exact_deviation = abs(max(abs(x) for x in eigenvalues) - 2)
    assert exact_deviation < mpmath.mpf("1e-40")
    # so the float deviation is rounding: a few ulps of 2
    assert float_deviation <= 16 * np.spacing(2.0)
