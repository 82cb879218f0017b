"""Spin-1 observables in the Cartesian basis, and the unit-vector check of their directions.

The spin-1 generators in the Cartesian basis x, y, z are -i eps_k, built
from the Levi-Civita symbol; a unit direction u gives the observable
-i eps(u), eps(u) = u_x eps_x + u_y eps_y + u_z eps_z, with spectrum
{-1, 0, 1}. There a rotation R acts by R itself, and a product of two
observables is real, so the library does all its spin-1 arithmetic there:
the four-term Bell operator, and the one spin-1 coupling tensor that the
Monte Carlo certificate, the canonical form, the reduction certificate and
the seesaw build from. ``CARTESIAN_BASIS`` carries these coordinates to the
spin basis |+1>, |0>, |-1>, where the z generator is diag(1, 0, -1); the
spin basis stays at the input and output: a scenario file's state and the
seesaw's reported state.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError
from .tolerances import TOL

_SQRT2_INV = 1.0 / np.sqrt(2.0)

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
