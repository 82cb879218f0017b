"""CHSH Bell operators, their observable families, and their correlation-matrix form.

A measurement scenario is four unit directions (a, a', b, b'). Its Bell
operator is the four-term CHSH combination of spin observables on the
9-dimensional product space, equivalently the coupling operator of the
correlation matrix M = a (b + b')^T + a' (b - b')^T. ``bell_operator``
builds the four-term sum, the independent reference, in the Cartesian basis
where it is real; every other build is the coupling operator, one matrix
product of M against a precomputed tensor of generator products.

An ObservableFamily is the coupling tensor the seesaw solves with, the
maximum the family reaches, and optionally a basis that carries a winning
state out of solve coordinates. ``SPIN1_FAMILY``, the spin-1 qutrit family
the bound 2 is about, holds the one spin-1 tensor, in the Cartesian basis
where S_k = -i eps_k: -coupling_tensor(eps), with exact entries 0 and +-1.
It is ``coupling_operator``'s default, and ``canonical_operator`` builds
s S_x S_x + t S_z S_z from two of its rows, so its entries are exactly 0,
+-s and +-t. ``PAULI_FAMILY`` is the qubit control, whose known maximum
2*sqrt(2) exceeds 2, in the magic basis.
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
)
from .tolerances import TOL

# the four directions in the order of every (..., 4, 3) direction stack
DIRECTION_NAMES = ("a", "a_prime", "b", "b_prime")


def coupling_tensor(generators) -> np.ndarray:
    """The (9, d^4) matrix whose row 3i + j is G_i (x) G_j flattened, for a (3, d, d) stack, d >= 1."""
    generators = np.asarray(generators)
    shape = generators.shape
    if len(shape) != 3 or shape[0] != 3 or shape[1] != shape[2] or shape[1] == 0:
        raise InputError(f"expected a (3, d, d) stack of generators, got shape {shape}")
    return np.einsum("iab,jcd->ijacbd", generators, generators).reshape(9, shape[1] ** 4)


@dataclass(frozen=True, eq=False)
class ObservableFamily:
    """A coupling tensor to solve with, the CHSH maximum it reaches, and a basis to report in.

    ``tensor`` is the (9, n^2) matrix whose row 3i + j is the n x n product
    G_i (x) G_j of three Hermitian generators, flattened, in the coordinates
    the seesaw solves in: ``coupling_tensor`` of the generators, or its
    conjugate by a basis. The family keeps a read-only float64 copy of
    a real tensor and a complex128 copy of any other, and builds its Bell
    operators, and so runs the seesaw, in that dtype. ``known_maximum`` is
    the largest CHSH expectation the family can reach, the target a search
    must hit. ``basis``, optional, is an (n, n) unitary W whose only job is
    to carry a winning state v out of solve coordinates, as W v; the family
    keeps a read-only complex copy of it. Equal only to itself.

    A tensor of other than real or complex numbers, or of other than
    (9, n^2) with n >= 1, raises InputError, and a non-finite entry
    NonFiniteError. A slice whose asymmetry exceeds TOL.hermiticity raises
    HermiticityError: ``eigh`` reads only one triangle, so the seesaw would
    solve it unchecked. A ``known_maximum`` other than one finite number,
    or a bool, raises InputError. A basis of other than (n, n) raises
    InputError, a non-finite basis NonFiniteError, and one with
    ||W^dagger W - I|| above TOL.rotation InputError.
    """

    name: str
    tensor: np.ndarray
    known_maximum: float
    basis: np.ndarray | None = None

    def __post_init__(self):
        tensor = np.asarray(self.tensor)
        if tensor.dtype.kind not in "biufc":
            raise InputError(f"tensor must be real or complex numbers, got a {tensor.dtype} array")
        n = math.isqrt(tensor.shape[1]) if tensor.ndim == 2 else 0
        if tensor.shape != (9, n * n) or n == 0:
            raise InputError(f"expected a (9, n^2) coupling tensor, n >= 1, got shape {tensor.shape}")
        if not np.isfinite(tensor).all():
            raise NonFiniteError("tensor must be finite")
        # float64 or complex128, copied so that no caller holds it
        tensor = np.array(_check_hermitian(tensor.reshape(9, n, n)).reshape(9, n * n))
        # a bool would pass as 0.0 or 1.0, which as a target is a slip
        if isinstance(self.known_maximum, (bool, np.bool_)):
            raise InputError(f"known_maximum must be a number, not a bool, got {self.known_maximum!r}")
        maximum = _as_real(self.known_maximum, InputError, "known_maximum")
        if maximum.ndim or not math.isfinite(maximum):
            raise InputError(f"known_maximum must be finite and scalar, got {self.known_maximum!r}")
        basis = self.basis
        if basis is not None:
            basis = np.array(basis, dtype=complex)
            if basis.shape != (n, n):
                raise InputError(f"expected a ({n}, {n}) basis, got shape {basis.shape}")
            if not np.isfinite(basis).all():
                raise NonFiniteError("basis must be finite")
            # einsum and sums of squares, not matmul or np.linalg.norm: run at
            # import, their first calls grow every process's resident set
            # (OpenBLAS's buffers, about 0.4 MB). Written so that NaN fails.
            excess = np.einsum("ki,kj->ij", basis.conj(), basis) - np.eye(n)
            residual = math.sqrt(np.sum(excess.real**2 + excess.imag**2))
            if not residual <= TOL.rotation:
                raise InputError(f"basis is not unitary: ||W^dagger W - I|| = {residual:.3e}")
            basis.setflags(write=False)
        tensor.setflags(write=False)
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "known_maximum", float(maximum))
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        """n, the length of the family's states."""
        return math.isqrt(self.tensor.shape[1])

    def bell_operator(self, sc) -> np.ndarray:
        """The Bell operator of a MeasurementScenario, or of each quadruple of a (..., 4, 3) stack.

        It is K(M) through ``tensor``, in solve coordinates and of the
        tensor's dtype. Every direction is checked for unit norm. Each
        operator of a stack is built bit for bit as it would be alone, so a
        seesaw restart follows the same path in any batch.
        """
        M = correlation_matrices(check_unit_vectors(sc))
        # the unit axis makes every build one vector-matrix product, as for a single M
        return coupling_operator(M[..., None, :, :], self.tensor)[..., 0, :, :]


# spin-1 observables cannot beat the classical bound; qubits reach Tsirelson's.
# Each family solves in a basis where every generator product is real with
# entries 0 and +-1. For spin-1 that is the Cartesian one, where S_k = -i eps_k
# makes every S(u) (x) S(v) = -eps(u) (x) eps(v): the tensor is exact, and its
# Bell operators are the float64, exactly symmetric (C (x) C)^dagger K(M) (C (x) C).
# For the Pauli matrices it is the magic basis of Hill and Wootters (PRL 78,
# 5022 (1997)), whose products are taken from the complex ones by einsum, which
# at import, unlike matmul, leaves OpenBLAS's buffers unallocated.
SPIN1_FAMILY = ObservableFamily(
    "qutrit-spin1",
    -coupling_tensor(cartesian_generators()),
    2.0,
    np.kron(CARTESIAN_BASIS, CARTESIAN_BASIS),
)
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / math.sqrt(2.0)
_PAULI_PRODUCTS = coupling_tensor(
    np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
).reshape(9, 4, 4)
PAULI_FAMILY = ObservableFamily(
    "qubit-pauli",
    np.einsum("ai,kab,bj->kij", _MAGIC.conj(), _PAULI_PRODUCTS, _MAGIC).real.reshape(9, 16),
    2.0 * math.sqrt(2.0),
    _MAGIC,
)


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

    ``tensor`` is a ``coupling_tensor`` of generators G. The default is the
    spin-1 family's, in the Cartesian basis, so K(M) is float64 and each of
    its entries is exactly +-M_ij or 0. The Kronecker factors are ordered
    with party A first, so the composite basis index is d*m + n for A level
    m and B level n.
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
    """The canonical form s S_x (x) S_x + t S_z (x) S_z in the Cartesian basis, as float64.

    ``s`` and ``t`` are scalars, giving one 9x9 operator, or arrays that
    broadcast together, giving the (..., 9, 9) stack over their common shape.
    Each operator is K(diag(s, 0, t)) = -(s eps_x (x) eps_x + t eps_z (x) eps_z),
    the spin-basis form conjugated by C (x) C, C = ``CARTESIAN_BASIS``, so it
    has the same spectrum; its 8 nonzero entries are exactly +-s and +-t.
    """
    s, t = np.broadcast_arrays(*(_as_real(x, InputError, "canonical parameters") for x in (s, t)))
    return (np.stack((s, t), axis=-1) @ SPIN1_FAMILY.tensor[[0, 8]]).reshape(s.shape + (9, 9))
