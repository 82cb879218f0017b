"""Non-finite and complex input: every checked entry point raises the library's own error, silently.

Each example is an array of arbitrary floats (NaN and infinities included)
with one NaN or infinite entry planted at a drawn position, so every example
holds at least one. RuntimeWarnings are errors here: one that numpy prints
on the way to the rejection fails the test.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from reference import check_unit_vector, rotation_about, spin_along
from spinchsh import (
    HermiticityError,
    InputError,
    MeasurementScenario,
    NonFiniteError,
    NormalizationError,
    ObservableFamily,
    PAULI_FAMILY,
    QuantumState,
    RotationError,
    StateError,
    bell_operator,
    canonical_operator,
    canonical_parameters,
    canonical_reduction,
    closed_form_spectrum,
    correlation_matrices,
    coupling_operator,
    coupling_tensor,
    eig_hermitian,
    spin_representation,
    svd3,
)
from spinchsh.spin import check_rotation, check_unit_vectors

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


@given(matrices_3x3)
def test_canonical_parameters(M):
    with pytest.raises(NonFiniteError):
        canonical_parameters(M)


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


@pytest.mark.parametrize("check", [check_rotation, spin_representation])
@given(R=real_with_non_finite((3, 3)))
def test_rotation_checks(check, R):
    with pytest.raises(RotationError):
        check(R)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_rotation_about_non_finite_angle(angle):
    with pytest.raises(RotationError, match="not finite"):
        rotation_about((0.0, 0.0, 1.0), angle)


_TIGHT = np.diag([np.sqrt(2.0), 0.0, np.sqrt(2.0)])
_Z = np.array([0.0, 0.0, 1.0])


# each real-only kernel with a complex input whose real part it would accept: a
# cast to float drops the imaginary part with only a ComplexWarning, so the kernel
# raises the error that owns its input rule, with no warning on the way
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: MeasurementScenario([1j, 0, 1], _Z, _Z, _Z), NormalizationError),
        (lambda: check_unit_vectors([1j, 0, 1]), NormalizationError),
        (lambda: spin_along(_Z + 1j), NormalizationError),
        (lambda: correlation_matrices(np.tile(_Z, (4, 1)) + 1j), InputError),
        (lambda: bell_operator(np.tile(_Z, (4, 1)) + 1j), InputError),
        (lambda: coupling_operator(_TIGHT + 1j), InputError),
        (lambda: canonical_operator(1.0 + 1j, 1.0), InputError),
        (lambda: check_rotation(np.eye(3) + 1j), RotationError),
        (lambda: spin_representation(np.eye(3) + 1j), RotationError),
        (lambda: svd3(_TIGHT + 1j), InputError),
        (lambda: canonical_parameters(_TIGHT + 1j), InputError),
        (lambda: canonical_reduction(_TIGHT + 1j), InputError),
        (lambda: canonical_reduction(_TIGHT).certificate(_TIGHT + 1j), InputError),
        (lambda: closed_form_spectrum(1j, 1), InputError),
        (lambda: closed_form_spectrum(1.0, np.complex128(1.0)), InputError),
    ],
    ids=[
        "MeasurementScenario",
        "check_unit_vectors",
        "spin_along",
        "correlation_matrices",
        "bell_operator",
        "coupling_operator",
        "canonical_operator",
        "check_rotation",
        "spin_representation",
        "svd3",
        "canonical_parameters",
        "canonical_reduction",
        "certificate",
        "closed_form_spectrum",
        "closed_form_spectrum-numpy-scalar",
    ],
)
def test_complex_input_rejected(call, error):
    with pytest.raises(error, match="must be real"):
        call()


_DIGITS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


# numpy reads a list holding a string as a string array, whose float cast
# parses digits and raises a builtin ValueError on anything else; a generator
# stack of the wrong shape used to reach einsum
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: MeasurementScenario(["x", 0, 1], _Z, _Z, _Z), NormalizationError),
        (lambda: check_unit_vectors(["0", "0", "1"]), NormalizationError),
        (lambda: ObservableFamily("a", PAULI_FAMILY.generators, "x"), InputError),
        (lambda: ObservableFamily("a", PAULI_FAMILY.generators, "2"), InputError),
        (lambda: coupling_tensor(np.zeros((2, 2))), InputError),
        (lambda: coupling_tensor(np.zeros((3, 2, 3))), InputError),
        (lambda: svd3(_DIGITS), InputError),
        (lambda: coupling_operator(_DIGITS), InputError),
        (lambda: check_rotation(_DIGITS), RotationError),
        (lambda: closed_form_spectrum("1", 1), InputError),
    ],
    ids=[
        "MeasurementScenario",
        "check_unit_vectors",
        "known_maximum-word",
        "known_maximum-digits",
        "coupling_tensor-2d",
        "coupling_tensor-not-square",
        "svd3",
        "coupling_operator",
        "check_rotation",
        "closed_form_spectrum",
    ],
)
def test_non_numeric_input_rejected(call, error):
    with pytest.raises(error):
        call()
