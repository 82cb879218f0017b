"""Non-finite input: every checked entry point raises the library's own error, silently.

Each example is an array of arbitrary floats (NaN and infinities included)
with one NaN or infinite entry planted at a drawn position, so every example
holds at least one. RuntimeWarnings are errors here: one that numpy prints
on the way to the rejection fails the test.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spinchsh import (
    HermiticityError,
    NonFiniteError,
    NormalizationError,
    QuantumState,
    StateError,
    canonical_reduction,
    eig_hermitian,
    svd3,
)
from spinchsh.spin import check_unit_vector, check_unit_vectors

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_any_float = st.floats(allow_nan=True, allow_infinity=True)
_non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def real_with_non_finite(draw, shape):
    a = draw(arrays(float, shape, elements=_any_float))
    a[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(_non_finite)
    return a


@st.composite
def complex_with_non_finite(draw, shape):
    # parts are assigned, not combined arithmetically, so drawing warns about nothing
    z = np.empty(shape, dtype=complex)
    z.real = draw(arrays(float, shape, elements=_any_float))
    z.imag = draw(arrays(float, shape, elements=_any_float))
    part = z.real if draw(st.booleans()) else z.imag
    part[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(_non_finite)
    return z


def square(n: st.SearchStrategy, stack: tuple = ()) -> st.SearchStrategy:
    return n.map(lambda k: stack + (k, k))


matrices = st.one_of(
    square(st.integers(1, 9)).flatmap(real_with_non_finite),
    square(st.integers(1, 9)).flatmap(complex_with_non_finite),
)
matrix_stacks = st.tuples(array_shapes(max_dims=2, max_side=4), st.integers(1, 9)).flatmap(
    lambda shape: complex_with_non_finite(shape[0] + (shape[1], shape[1]))
)
matrices_3x3 = st.one_of(
    real_with_non_finite((3, 3)),
    array_shapes(max_dims=2, max_side=4).flatmap(lambda stack: real_with_non_finite(stack + (3, 3))),
)


@given(matrices)
def test_eig_hermitian_single(A):
    with pytest.raises(HermiticityError):
        eig_hermitian(A)


@given(matrix_stacks)
def test_eig_hermitian_stacked(A):
    with pytest.raises(HermiticityError):
        eig_hermitian(A)


@given(matrices_3x3)
def test_svd3(M):
    with pytest.raises(NonFiniteError):
        svd3(M)


@given(matrices_3x3)
def test_canonical_reduction(M):
    with pytest.raises(NonFiniteError):
        canonical_reduction(M)


@given(real_with_non_finite((3,)))
def test_check_unit_vector(u):
    with pytest.raises(NormalizationError):
        check_unit_vector(u)


@given(array_shapes(max_dims=2, max_side=5).flatmap(lambda stack: real_with_non_finite(stack + (3,))))
def test_check_unit_vectors(directions):
    with pytest.raises(NormalizationError):
        check_unit_vectors(directions)


@given(st.integers(1, 9).flatmap(lambda n: complex_with_non_finite((n,))))
def test_pure_state(vector):
    with pytest.raises(StateError):
        QuantumState.pure(vector)


@given(square(st.integers(1, 9)).flatmap(complex_with_non_finite))
def test_mixed_state(matrix):
    with pytest.raises(StateError):
        QuantumState.mixed(matrix)
