"""CHSH Bell operators, their observable families, and their correlation-matrix form.

A measurement scenario is four unit directions (a, a', b, b'). Its Bell
operator is the four-term CHSH combination of spin observables on the
9-dimensional product space, equivalently the coupling operator of the
correlation matrix M = a (b + b')^T + a' (b - b')^T. ``bell_operator``
builds the four-term sum, the independent reference, in the Cartesian basis
where it is real; every other build is the coupling operator, one matrix
product of M against a precomputed tensor of generator products.

An ObservableFamily is three Hermitian generators with their coupling
tensor, and optionally a basis in which every generator product is real.
``SPIN1_FAMILY``, the spin-1 qutrit family the bound 2 is about, holds the
one spin-1 tensor, which ``coupling_operator`` uses by default, and the
Cartesian basis; ``PAULI_FAMILY`` is the qubit control, whose known maximum
2*sqrt(2) exceeds 2, with the magic basis. ``SPIN1_REAL_TENSOR`` is the
spin-1 tensor in the Cartesian basis, with exact entries 0 and +-1, and
``canonical_operator`` builds s S_x S_x + t S_z S_z, real in the spin basis
itself, from the real part of two rows of the spin-1 tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NonFiniteError, NormalizationError
from .spectrum import _check_hermitian
from .spin import (
    CARTESIAN_BASIS,
    _as_real,
    cartesian_generators,
    check_unit_vectors,
    spin_generators,
)
from .tolerances import TOL

# the four directions in the order of every (..., 4, 3) direction stack
DIRECTION_NAMES = ("a", "a_prime", "b", "b_prime")


def _check_generator_shape(shape: tuple) -> None:
    if len(shape) != 3 or shape[0] != 3 or shape[1] != shape[2] or shape[1] == 0:
        raise InputError(f"expected a (3, d, d) stack of generators, got shape {shape}")


def coupling_tensor(generators) -> np.ndarray:
    """The (9, d^4) matrix whose row 3i + j is G_i (x) G_j flattened, for a (3, d, d) stack, d >= 1."""
    generators = np.asarray(generators)
    _check_generator_shape(generators.shape)
    return np.einsum("iab,jcd->ijacbd", generators, generators).reshape(9, generators.shape[1] ** 4)


@dataclass(frozen=True, eq=False)
class ObservableFamily:
    """Three Hermitian generators defining the observable u . generators; equal only to itself.

    The family owns read-only complex copies of ``generators`` and of
    ``tensor``, their coupling tensor. ``known_maximum`` is the largest
    CHSH expectation the family can reach, the target a search must hit.

    ``basis``, optional, is a (d^2, d^2) unitary W in which every
    W^dagger (G_i (x) G_j) W is real. ``solve_tensor`` is the coupling tensor
    of those products, float64, and ``bell_operator`` builds from it, so its
    operators are real symmetric and the seesaw solves them in float64. With
    no basis ``solve_tensor`` is ``tensor`` itself, complex, in generator
    coordinates. ``tensor`` stays in generator coordinates either way, and
    the family keeps a read-only complex copy of the basis.

    A stack of other than (3, d, d) raises InputError, a non-finite entry
    NonFiniteError, an asymmetry above TOL.hermiticity HermiticityError, and
    a non-finite ``known_maximum`` InputError. A basis of other than
    (d^2, d^2) raises InputError, a non-finite basis NonFiniteError, one
    with ||W^dagger W - I|| above TOL.rotation InputError, and one that
    leaves the nine W^dagger (G_i (x) G_j) W an imaginary part of Frobenius
    norm above TOL.hermiticity InputError.
    """

    name: str
    generators: np.ndarray
    known_maximum: float
    basis: np.ndarray | None = None
    tensor: np.ndarray = field(init=False, repr=False)
    solve_tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        generators = np.array(self.generators, dtype=complex)  # a copy no caller holds
        _check_generator_shape(generators.shape)
        if not np.isfinite(generators).all():
            raise NonFiniteError("generators must be finite")
        _check_hermitian(generators)
        maximum = float(_as_real(self.known_maximum, InputError, "known_maximum"))
        if not math.isfinite(maximum):
            raise InputError(f"known_maximum must be finite, got {self.known_maximum!r}")
        tensor = coupling_tensor(generators)
        basis, solve_tensor = self.basis, tensor
        if basis is not None:
            basis = np.array(basis, dtype=complex)
            solve_tensor = _real_products(tensor, basis)
            basis.setflags(write=False)
            solve_tensor.setflags(write=False)
        generators.setflags(write=False)
        tensor.setflags(write=False)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "known_maximum", maximum)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "solve_tensor", solve_tensor)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def bell_operator(self, sc) -> np.ndarray:
        """The Bell operator of a MeasurementScenario, or of each quadruple of a (..., 4, 3) stack.

        It is built from ``solve_tensor``: W^dagger K(M) W, float64, for a
        family with a basis W, and K(M) in generator coordinates for one
        without. Every direction is checked for unit norm. Each operator of a
        stack is built bit for bit as it would be alone, so a seesaw restart
        follows the same path in any batch.
        """
        M = correlation_matrices(check_unit_vectors(sc))
        # the unit axis makes every build one vector-matrix product, as for a single M
        return coupling_operator(M[..., None, :, :], self.solve_tensor)[..., 0, :, :]


def _real_products(tensor: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (9, n^2) float64 tensor of W^dagger (G_i (x) G_j) W for the (n, n) unitary W = ``basis``.

    ``tensor`` is the complex coupling tensor of the G, n = d^2; the basis is
    checked as ObservableFamily documents.
    """
    n = math.isqrt(tensor.shape[1])
    if basis.shape != (n, n):
        raise InputError(f"expected a ({n}, {n}) basis, got shape {basis.shape}")
    if not np.isfinite(basis).all():
        raise NonFiniteError("basis must be finite")
    # einsum and sums of squares, not matmul, np.linalg.norm or a complex
    # np.abs: run at import, their first calls grow every process's resident
    # set (OpenBLAS's buffers, about 0.4 MB). Both gates are written so that a
    # NaN residual fails them.
    excess = np.einsum("ki,kj->ij", basis.conj(), basis) - np.eye(n)
    residual = math.sqrt(np.sum(excess.real**2 + excess.imag**2))
    if not residual <= TOL.rotation:
        raise InputError(f"basis is not unitary: ||W^dagger W - I|| = {residual:.3e}")
    products = np.einsum("ai,kab,bj->kij", basis.conj(), tensor.reshape(9, n, n), basis)
    imaginary = math.sqrt(np.sum(products.imag**2))
    if not imaginary <= TOL.hermiticity:
        raise InputError(f"basis leaves the generator products an imaginary part {imaginary:.3e}")
    return np.ascontiguousarray(products.real).reshape(9, n * n)


# spin-1 observables cannot beat the classical bound; qubits reach Tsirelson's.
# Each family's basis makes its generator products real with entries 0 and
# +-1: the Cartesian one, where S_k = -i eps_k, and for the Pauli matrices
# the magic basis of Hill and Wootters (PRL 78, 5022 (1997)).
SPIN1_FAMILY = ObservableFamily(
    "qutrit-spin1", spin_generators(), 2.0, np.kron(CARTESIAN_BASIS, CARTESIAN_BASIS)
)
PAULI_FAMILY = ObservableFamily(
    "qubit-pauli",
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    2.0 * math.sqrt(2.0),
    np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / math.sqrt(2.0),
)

# The spin-1 tensor in the Cartesian basis, where S_k = -i eps_k makes every
# S(u) (x) S(v) = -eps(u) (x) eps(v) real: its coupling operators are the
# float64, exactly symmetric (C (x) C)^dagger K(M) (C (x) C), same spectrum.
SPIN1_REAL_TENSOR = -coupling_tensor(cartesian_generators())
SPIN1_REAL_TENSOR.setflags(write=False)
# rows 0 and 8 of the spin-1 tensor, S_x (x) S_x and S_z (x) S_z, whose
# imaginary parts are zero: the real (2, 81) tensor of the canonical form
_CANONICAL_TENSOR = np.ascontiguousarray(SPIN1_FAMILY.tensor[[0, 8]].real)


@dataclass(frozen=True, eq=False)
class MeasurementScenario:
    """Four unit measurement directions, two per party, validated as one (4, 3) stack.

    The scenario owns that read-only stack, whose rows are ``a`` ... ``b_prime``;
    ``np.asarray(sc)`` is ``sc.directions()``, so every function that takes an
    (..., 4, 3) direction stack takes a scenario too. Equal only to itself.
    """

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vectors = [getattr(self, name) for name in DIRECTION_NAMES]
        shapes = [np.shape(v) for v in vectors]
        if any(shape != (3,) for shape in shapes):
            raise NormalizationError(f"expected four flat 3-vectors, got shapes {shapes}")
        stack = check_unit_vectors(vectors)  # a fresh array: no caller holds a view of it
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        for name, row in zip(DIRECTION_NAMES, stack):
            object.__setattr__(self, name, row)

    def directions(self) -> np.ndarray:
        """The read-only (4, 3) stack of a, a', b, b'."""
        return self._stack

    def __array__(self, dtype=None, copy=None):
        stack = np.asarray(self._stack, dtype=dtype)  # numpy 1.x rejects np.array(copy=None)
        return stack.copy() if copy else stack


def _direction_stack(directions) -> np.ndarray:
    """``directions`` as a float array, raising InputError unless its shape is (..., 4, 3)."""
    d = _as_real(directions, InputError, "a direction stack")
    if d.shape[-2:] != (4, 3):
        raise InputError(f"expected an (..., 4, 3) direction stack, got shape {d.shape}")
    return d


def correlation_matrices(directions) -> np.ndarray:
    """M = a (b + b')^T + a' (b - b')^T for a scenario or each quadruple of an (..., 4, 3) stack.

    A sum of two rank-one terms, so rank at most 2; its squared Frobenius
    norm is 4 for any scenario because b + b' and b - b' are orthogonal.
    Only the stack's shape is checked here, not its unit norms.
    """
    d = _direction_stack(directions)
    a, a_prime, b, b_prime = d[..., 0, :], d[..., 1, :], d[..., 2, :], d[..., 3, :]
    return (
        a[..., :, None] * (b + b_prime)[..., None, :]
        + a_prime[..., :, None] * (b - b_prime)[..., None, :]
    )


def coupling_operator(M, tensor: np.ndarray = SPIN1_FAMILY.tensor) -> np.ndarray:
    """sum_ij M_ij G_i (x) G_j for a real 3x3 M or an (..., 3, 3) stack of them.

    ``tensor`` is the ``coupling_tensor`` of the generators G, the spin-1
    family's by default. The Kronecker factors are ordered with party A
    first, so the composite basis index is d*m + n for A level m and B
    level n.
    """
    M = _as_real(M, InputError, "a correlation matrix")
    if M.shape[-2:] != (3, 3):
        raise InputError(f"expected a 3x3 matrix, got shape {M.shape}")
    batch = M.shape[:-2]
    side = math.isqrt(tensor.shape[1])
    return (M.reshape(batch + (9,)) @ tensor).reshape(batch + (side, side))


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of two (3, 3, ...) stacks of matrices, as (3, 3, 3, 3, ...) with the stack innermost.

    Entry (i, k, j, l) is x[i, j] y[k, l], entry (3i + k, 3j + l) of the 9x9 np.kron.
    """
    return x[:, None, :, None] * y[None, :, None, :]


def bell_operator(sc) -> np.ndarray:
    """The CHSH Bell operator S(a)S(b) + S(a)S(b') + S(a')S(b) - S(a')S(b') in the Cartesian basis.

    ``sc`` is a MeasurementScenario, giving one 9x9 operator, or an
    (..., 4, 3) stack of quadruples (a, a', b, b'), giving their (..., 9, 9)
    stack; every direction is checked for unit norm. There S(u) = -i eps(u),
    so the operator is the float64, exactly symmetric -sum +-eps(u) (x) eps(v):
    the spin-basis one conjugated by C (x) C, C = ``CARTESIAN_BASIS``. Each
    entry is the same sum of the same products as np.kron's, bit for bit.
    """
    directions = check_unit_vectors(_direction_stack(sc))
    x, y, z = np.moveaxis(directions, -1, 0)
    zero = np.zeros_like(x)
    # eps(u)_ab = eps_kab u_k, the stack's axes innermost
    ea, eap, eb, ebp = np.moveaxis(np.array([[zero, z, -y], [-z, zero, x], [y, -x, zero]]), -1, 0)
    total = _kron(ea, eb)
    total += _kron(ea, ebp)
    total += _kron(eap, eb)
    total -= _kron(eap, ebp)
    operators = np.negative(total, out=total).reshape((9, 9) + directions.shape[:-2])
    return np.ascontiguousarray(np.moveaxis(operators, (0, 1), (-2, -1)))


def canonical_operator(s, t) -> np.ndarray:
    """The two-parameter canonical form s S_x (x) S_x + t S_z (x) S_z, as float64.

    ``s`` and ``t`` are scalars, giving one 9x9 operator, or arrays that
    broadcast together, giving the (..., 9, 9) stack over their common shape.
    Both terms are real in the |+1>, |0>, |-1> basis, so the operator is real
    and exactly symmetric; each entry is that of ``coupling_operator`` of
    diag(s, 0, t), whose imaginary part is zero.
    """
    s, t = np.broadcast_arrays(*(_as_real(x, InputError, "canonical parameters") for x in (s, t)))
    return (np.stack((s, t), axis=-1) @ _CANONICAL_TENSOR).reshape(s.shape + (9, 9))
