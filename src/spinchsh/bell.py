"""CHSH Bell operators for two qutrits and their correlation-matrix form.

A measurement scenario is four unit directions (a, a', b, b'). Its Bell
operator is the four-term CHSH combination of spin observables on the
9-dimensional product space; equivalently it is the coupling operator of
the 3x3 correlation matrix M = a (b + b')^T + a' (b - b')^T. The four-term
``bell_operator`` is kept as the independent reference; every other build
is the coupling operator, one matrix product of M against a precomputed
tensor of generator products; ``SPIN1_REAL_TENSOR`` gives the same operator
in the real Cartesian basis. The canonical form s S_x S_x + t S_z S_z is
real in the spin basis itself, so ``canonical_operator`` builds it as
float64 from its two real Kronecker terms. ``bell_operator`` builds a stack of scenarios
with the stack's axes innermost, as ``spin_along`` gives the observables,
and copies the result into the (..., 9, 9) layout once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NormalizationError
from .spin import cartesian_generators, check_unit_vectors, spin_along, spin_generators

# the four directions in the order of every (..., 4, 3) direction stack
DIRECTION_NAMES = ("a", "a_prime", "b", "b_prime")


def coupling_tensor(generators) -> np.ndarray:
    """The (9, d^4) matrix whose row 3i + j is G_i (x) G_j flattened, for d x d generators."""
    generators = np.asarray(generators)
    d = generators.shape[-1]
    return np.einsum("iab,jcd->ijacbd", generators, generators).reshape(9, d**4)


_SPIN1_TENSOR = coupling_tensor(spin_generators())
# The spin-1 tensor in the Cartesian basis, where S_k = -i eps_k makes every
# S(u) (x) S(v) = -eps(u) (x) eps(v) real: its coupling operators are the
# float64, exactly symmetric (C (x) C)^dagger K(M) (C (x) C), same spectrum.
SPIN1_REAL_TENSOR = -coupling_tensor(cartesian_generators())
SPIN1_REAL_TENSOR.setflags(write=False)
# rows 0 and 8 of the spin-1 tensor, S_x (x) S_x and S_z (x) S_z, whose
# imaginary parts are zero: the real (2, 81) tensor of the canonical form
_CANONICAL_TENSOR = np.ascontiguousarray(_SPIN1_TENSOR[[0, 8]].real)


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
    d = np.asarray(directions, dtype=float)
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


def coupling_operator(M, tensor: np.ndarray = _SPIN1_TENSOR) -> np.ndarray:
    """sum_ij M_ij G_i (x) G_j for a real 3x3 M or an (..., 3, 3) stack of them.

    ``tensor`` is the ``coupling_tensor`` of the generators G, the spin-1
    matrices by default. The Kronecker factors are ordered with party A
    first, so the composite basis index is d*m + n for A level m and B
    level n.
    """
    M = np.asarray(M, dtype=float)
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
    """The CHSH Bell operator S(a)S(b) + S(a)S(b') + S(a')S(b) - S(a')S(b').

    ``sc`` is a MeasurementScenario, giving one 9x9 operator, or an
    (..., 4, 3) stack of direction quadruples (a, a', b, b'), giving the
    (..., 9, 9) stack of their operators; every direction is checked for
    unit norm. The four products and their sum are computed with the stack
    innermost, as ``spin_along`` computes the observables, and copied into
    the (..., 9, 9) layout once at the end; each entry is the same sum of
    the same products as np.kron's, bit for bit.
    """
    directions = _direction_stack(sc)
    observables = spin_along(np.moveaxis(directions, -2, 0))
    sa, sap, sb, sbp = np.moveaxis(observables, (-2, -1), (1, 2))
    total = _kron(sa, sb) + _kron(sa, sbp) + _kron(sap, sb) - _kron(sap, sbp)
    operators = total.reshape((9, 9) + directions.shape[:-2])
    return np.ascontiguousarray(np.moveaxis(operators, (0, 1), (-2, -1)))


def canonical_operator(s, t) -> np.ndarray:
    """The two-parameter canonical form s S_x (x) S_x + t S_z (x) S_z, as float64.

    ``s`` and ``t`` are scalars, giving one 9x9 operator, or arrays that
    broadcast together, giving the (..., 9, 9) stack over their common shape.
    Both terms are real in the |+1>, |0>, |-1> basis, so the operator is real
    and exactly symmetric; each entry is that of ``coupling_operator`` of
    diag(s, 0, t), whose imaginary part is zero.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    return (np.stack((s, t), axis=-1) @ _CANONICAL_TENSOR).reshape(s.shape + (9, 9))
