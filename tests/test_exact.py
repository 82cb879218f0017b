"""Exact symbolic checks behind two floating-point facts the package relies on."""

import numpy as np
import pytest

from spinchsh import spin_generators

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
