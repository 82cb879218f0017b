"""Spin-1 matrices in the spin and Cartesian bases, and the spin-1 action of SO(3).

The three generators act on a three-level system in the basis ordered
|+1>, |0>, |-1>, so the z generator is diag(1, 0, -1). A unit direction u
gives the observable u_x S_x + u_y S_y + u_z S_z with spectrum {-1, 0, 1},
and every rotation R acts by a 3x3 unitary that conjugates observables the
same way R rotates directions.

The same generators in the Cartesian basis x, y, z are -i eps_k, built from
the Levi-Civita symbol. There a rotation acts by R itself, and a product of
two observables is real, which the Bell operator and the Monte Carlo
certificate use.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError, RotationError
from .tolerances import TOL

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_S_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _SQRT2_INV
_S_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _SQRT2_INV
_S_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)

# The unitary from Cartesian x, y, z coordinates (columns) to |+1>, |0>, |-1>
# coordinates (rows): C^dagger S_k C = -i eps_k, with (eps_k)_ab the
# Levi-Civita symbol eps_kab.
CARTESIAN_BASIS = np.array(
    [[-_SQRT2_INV, 1j * _SQRT2_INV, 0], [0, 0, 1], [_SQRT2_INV, 1j * _SQRT2_INV, 0]]
)
CARTESIAN_BASIS.setflags(write=False)

_EPSILON = np.zeros((3, 3, 3))
_EPSILON[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPSILON[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0


def spin_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return copies of the spin-1 matrices (S_x, S_y, S_z)."""
    return _S_X.copy(), _S_Y.copy(), _S_Z.copy()


def cartesian_generators() -> np.ndarray:
    """The real antisymmetric (eps_x, eps_y, eps_z), (eps_k)_ab = eps_kab, as a (3, 3, 3) copy.

    The spin-1 matrices in the Cartesian basis are -i eps_k.
    """
    return _EPSILON.copy()


def _as_real(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as a float array; ``error`` unless they are bools, integers or floats, which a cast keeps."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise error(f"{what} must be real numbers, got a {values.dtype} array")
    return np.asarray(values, dtype=float)


def check_unit_vectors(directions) -> np.ndarray:
    """Validate every 3-vector along the last axis of a stack to TOL.unit_norm_reject; return it."""
    directions = _as_real(directions, NormalizationError, "directions")
    if directions.shape[-1:] != (3,):
        raise NormalizationError(f"expected a stack of 3-vectors, got shape {directions.shape}")
    # an overflowed or NaN norm is rejected below, so numpy need not warn about it
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(np.linalg.norm(directions, axis=-1) - 1.0)
    # written so that a NaN deviation fails too
    bad = ~(deviation <= TOL.unit_norm_reject)
    if np.any(bad):
        raise NormalizationError(
            f"direction norm deviates from 1 by {deviation[bad][0]:.3e} "
            f"(tolerance {TOL.unit_norm_reject:.1e})"
        )
    return directions


def check_rotation(R) -> np.ndarray:
    """Validate the SO(3) invariants of ``R`` to TOL.rotation and return it as a float array."""
    R = _as_real(R, RotationError, "a rotation")
    if R.shape != (3, 3):
        raise RotationError(f"expected a 3x3 matrix, got shape {R.shape}")
    # a NaN or overflowed residual is rejected below, so numpy need not warn about it
    with np.errstate(invalid="ignore", over="ignore"):
        ortho = np.linalg.norm(R.T @ R - np.eye(3))
    # both gates are written so that a NaN residual fails them
    if not ortho <= TOL.rotation:
        raise RotationError(f"not orthogonal: ||R^T R - I|| = {ortho:.3e}")
    det = float(np.linalg.det(R))
    if not abs(det - 1.0) <= TOL.rotation:
        raise RotationError(f"determinant {det!r} is not 1")
    return R


def spin_representation(R) -> np.ndarray:
    """The 3x3 unitary that conjugates spin-1 observables the way ``R`` rotates directions.

    In the Cartesian basis the spin-1 representation of ``R`` is ``R``
    itself, so this is ``R`` carried to |+1>, |0>, |-1> coordinates by
    ``CARTESIAN_BASIS``. It is a homomorphism, with no phase convention.
    """
    return CARTESIAN_BASIS @ check_rotation(R) @ CARTESIAN_BASIS.conj().T
