"""Spin-1 matrices, directional observables, and the spin-1 action of SO(3).

The three generators act on a three-level system in the basis ordered
|+1>, |0>, |-1>, so the z generator is diag(1, 0, -1). A unit direction u
gives the observable u_x S_x + u_y S_y + u_z S_z with spectrum {-1, 0, 1},
and every rotation R acts by a 3x3 unitary that conjugates observables the
same way R rotates directions.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError, RotationError
from .tolerances import TOL

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_S_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _SQRT2_INV
_S_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _SQRT2_INV
_S_Z = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)


def spin_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return copies of the spin-1 matrices (S_x, S_y, S_z)."""
    return _S_X.copy(), _S_Y.copy(), _S_Z.copy()


def check_unit_vector(u, tol: float = TOL.unit_norm_reject) -> np.ndarray:
    """Validate that ``u`` is a real 3-vector of unit norm; return it as an array."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape != (3,):
        raise NormalizationError(f"expected a 3-vector, got shape {u.shape}")
    # an overflowed or NaN norm is rejected below, so numpy need not warn about it
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = abs(np.linalg.norm(u) - 1.0)
    # written so that a NaN deviation fails too
    if not deviation <= tol:
        raise NormalizationError(
            f"direction norm deviates from 1 by {deviation:.3e} (tolerance {tol:.1e})"
        )
    return u


def check_unit_vectors(directions, tol: float = TOL.unit_norm_reject) -> np.ndarray:
    """``check_unit_vector`` for every 3-vector along the last axis of a stack."""
    directions = np.asarray(directions, dtype=float)
    if directions.shape[-1:] != (3,):
        raise NormalizationError(f"expected a stack of 3-vectors, got shape {directions.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(np.linalg.norm(directions, axis=-1) - 1.0)
    bad = ~(deviation <= tol)
    if np.any(bad):
        raise NormalizationError(
            f"direction norm deviates from 1 by {deviation[bad][0]:.3e} "
            f"(tolerance {tol:.1e})"
        )
    return directions


def spin_along(u) -> np.ndarray:
    """Observable measuring spin along the unit direction ``u``.

    Hermitian, traceless, spectrum {-1, 0, 1}. Rejects inputs whose norm
    deviates from 1 beyond the rejection tolerance. An (..., 3) stack of
    directions gives the (..., 3, 3) stack of their observables.
    """
    u = np.asarray(u, dtype=float)
    u = check_unit_vector(u) if u.ndim <= 1 else check_unit_vectors(u)
    x, y, z = u[..., 0, None, None], u[..., 1, None, None], u[..., 2, None, None]
    return x * _S_X + y * _S_Y + z * _S_Z


def check_rotation(R, tol: float = TOL.rotation) -> np.ndarray:
    """Validate the SO(3) invariants of ``R`` and return it as a float array."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise RotationError(f"expected a 3x3 matrix, got shape {R.shape}")
    ortho = np.linalg.norm(R.T @ R - np.eye(3))
    if ortho > tol:
        raise RotationError(f"not orthogonal: ||R^T R - I|| = {ortho:.3e}")
    det = np.linalg.det(R)
    if abs(det - 1.0) > tol:
        raise RotationError(f"determinant {det!r} is not 1")
    return R


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a counterclockwise turn by ``angle`` about ``axis``."""
    n = check_unit_vector(axis)
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def axis_angle(R) -> tuple[np.ndarray, float]:
    """Extract (axis, angle) with angle in [0, pi] from a rotation matrix.

    Conventions: the null rotation returns axis (0, 0, 1). Close to a half
    turn the axis comes from the symmetric part of R, where the extraction
    stays well conditioned; at an exact half turn the sign ambiguity is
    broken by making the first nonzero axis component positive.
    """
    R = check_rotation(R)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    # w = sin(theta) * axis
    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    sin_theta = np.linalg.norm(w)
    theta = float(np.arctan2(sin_theta, cos_theta))

    if theta < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0

    if theta < 3.0 * np.pi / 4.0:
        return w / sin_theta, theta

    # Near a half turn w/sin(theta) is ill conditioned; nn^T is not:
    # (R + R^T)/2 = cos(theta) I + (1 - cos(theta)) nn^T.
    outer = ((R + R.T) / 2.0 - cos_theta * np.eye(3)) / (1.0 - cos_theta)
    k = int(np.argmax(np.diagonal(outer)))
    n = outer[:, k] / np.sqrt(outer[k, k])
    n /= np.linalg.norm(n)
    if sin_theta > 1e-13:
        if np.dot(n, w) < 0.0:
            n = -n
    else:
        # exact half turn: both signs give the same rotation, pick one
        nonzero = np.nonzero(np.abs(n) > 1e-9)[0]
        if nonzero.size and n[nonzero[0]] < 0.0:
            n = -n
    return n, theta


def expm_hermitian(H, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * H) for Hermitian H, via eigendecomposition (exact for small dims)."""
    eigenvalues, V = np.linalg.eigh(H)
    return (V * np.exp(scale * eigenvalues)) @ V.conj().T


def spin_representation(R) -> np.ndarray:
    """The 3x3 unitary that conjugates spin-1 observables the way ``R`` rotates directions.

    Built as exp(-i * theta * S(axis)) from the axis-angle form of R. Only the
    conjugation action is contractual; the overall phase is a convention.
    """
    n, theta = axis_angle(R)
    return expm_hermitian(spin_along(n), scale=-1j * theta)
