"""Exact and high-precision checks behind floating-point facts the package relies on."""

import csv

import numpy as np
import pytest

from spinchsh import TOL, monte_carlo_certify, spin_generators

sympy = pytest.importorskip("sympy")


def spin1_x_and_z():
    sx = sympy.Matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / sympy.sqrt(2)
    return sx, sympy.diag(1, 0, -1)


def test_canonical_characteristic_polynomial_factors():
    # the closed-form spectrum {0, 0, 0, +-s, +-t, +-sqrt(s^2 + t^2)}
    s, t = sympy.symbols("s t", real=True)
    lam = sympy.Symbol("lambda")
    sx, sz = spin1_x_and_z()
    Sx, _, Sz = spin_generators()
    assert np.allclose(np.array(sx.evalf(), dtype=complex), Sx, atol=1e-15)
    assert np.array_equal(np.array(sz, dtype=complex), Sz)
    H = s * sympy.kronecker_product(sx, sx) + t * sympy.kronecker_product(sz, sz)
    expected = lam**3 * (lam**2 - s**2) * (lam**2 - t**2) * (lam**2 - s**2 - t**2)
    charpoly = H.charpoly(lam).as_expr()
    assert sympy.expand(charpoly - expected) == 0
    assert sympy.factor(charpoly) == sympy.factor(expected)


def test_correlation_matrix_frobenius_norm_is_two_for_unit_directions():
    # ||M||_F^2 with M = a (b + b')^T + a' (b - b')^T reduces to 4 modulo |u|^2 = 1
    vectors = [
        sympy.Matrix(sympy.symbols(f"{name}x {name}y {name}z", real=True))
        for name in ("a", "ap", "b", "bp")
    ]
    a, ap, b, bp = vectors
    M = a * (b + bp).T + ap * (b - bp).T
    squared_norm = sum(entry**2 for entry in M)
    constraints = [u.dot(u) - 1 for u in vectors]
    gens = [x for u in vectors for x in u]
    _, remainder = sympy.reduced(sympy.expand(squared_norm - 4), constraints, *gens)
    assert remainder == 0


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
