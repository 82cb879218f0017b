"""Exact and numerical spectra of the canonical operator s S_x S_x + t S_z S_z.

In the product basis |m, n> (levels ordered +1, 0, -1, party A major) the
canonical operator splits over two invariant subspaces: the four states
with exactly one party in the zero level, and the five remaining states.
The four-state block contributes eigenvalues {0, 0, +s, -s}; the five-state
block contributes {+t, -t} on two antisymmetric combinations plus
{0, +sqrt(s^2+t^2), -sqrt(s^2+t^2)} on the rest. The operator norm is
therefore sqrt(s^2 + t^2) for all s, t >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, InputError
from .spin import _as_real
from .tolerances import TOL

# below this fraction of a matrix's largest entry, LAPACK's eigenvalue-only
# solver (dsterf) underflows in its eps^2 deflation test and returns wrong
# eigenvalues, off by up to 0.2 for s S_x S_x + t S_z S_z with t/s near 1e-150
_UNDERFLOW = float(np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted ascending and the operator norm.

    For a stack of matrices each field carries the stack's leading axes, and
    ``operator_norm`` is an array of norms instead of a float.
    """

    eigenvalues: np.ndarray
    operator_norm: float


def _eigvalsh(A: np.ndarray) -> np.ndarray:
    """``eigvalsh`` after zeroing each nonzero entry below ``_UNDERFLOW`` of its matrix's largest.

    No eigenvalue of an n x n matrix moves by more than n * _UNDERFLOW times
    its largest entry (Weyl's bound through the Frobenius norm).
    """
    magnitude = np.abs(A)
    scale = magnitude.max(axis=(-2, -1), keepdims=True)
    negligible = (magnitude < _UNDERFLOW * scale) & (magnitude > 0.0)
    if negligible.any():
        A = np.where(negligible, 0.0, A)
    return np.linalg.eigvalsh(A)


def _check_hermitian(A) -> np.ndarray:
    """``A`` as a (..., n, n) array with n >= 1, raising HermiticityError unless it is Hermitian.

    A real input (bool, integer or float) comes back as float64 and any other
    as complex128. The gate is the Frobenius norm of A - A^dagger over the
    whole input. It bounds each matrix's own asymmetry, so a stack passes
    only if every matrix in it would pass alone. A NaN or infinite entry
    makes the norm NaN or infinite, which fails the gate too, without a
    warning.
    """
    A = np.asarray(A)
    A = np.asarray(A, dtype=float if A.dtype.kind in "biuf" else complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise InputError(f"expected a nonempty square matrix, got shape {A.shape}")
    # inf - inf gives NaN and a huge difference overflows to inf; either
    # fails the gate below, so numpy's warnings about them are noise
    with np.errstate(invalid="ignore", over="ignore"):
        if np.iscomplexobj(A):
            # the real and imaginary parts of A - A^dagger, with no complex temporary
            parts = (A.real - A.real.swapaxes(-1, -2), A.imag + A.imag.swapaxes(-1, -2))
        else:
            parts = (A - A.swapaxes(-1, -2),)
        # einsum sums in numpy's own loop: np.linalg.norm's BLAS dot runs on a
        # second, spinning thread for a large stack
        asymmetry = math.sqrt(sum(float(np.einsum("i,i->", p.ravel(), p.ravel())) for p in parts))
    if not asymmetry <= TOL.hermiticity:
        raise HermiticityError(asymmetry)
    return A


def eig_hermitian(A) -> SpectrumResult:
    """Eigenvalues and operator norm of a Hermitian matrix, or of an (..., n, n) stack of them.

    After ``_check_hermitian``, one eigenvalue-only solve (``_eigvalsh``) over the whole input:
    the real solver for a real input, the complex one otherwise.
    """
    eigenvalues = _eigvalsh(_check_hermitian(A))
    norms = np.abs(eigenvalues).max(axis=-1)
    return SpectrumResult(
        eigenvalues=eigenvalues,
        operator_norm=norms if norms.ndim else float(norms),
    )


def _check_parameters(s: float, t: float) -> tuple[float, float]:
    s, t = (float(_as_real(x, InputError, "canonical parameters")) for x in (s, t))
    # hypot is NaN or infinite when s or t is, and infinite when it overflows
    with np.errstate(over="ignore"):
        norm = np.hypot(s, t)
    if not np.isfinite(norm):
        raise InputError(
            f"canonical parameters and sqrt(s^2 + t^2) must be finite, got s={s!r}, t={t!r}"
        )
    if s < 0.0 or t < 0.0:
        raise InputError(f"canonical parameters must be nonnegative, got s={s!r}, t={t!r}")
    return s, t


def closed_form_spectrum(s: float, t: float) -> SpectrumResult:
    """The exact nine eigenvalues {0, 0, 0, +-s, +-t, +-sqrt(s^2+t^2)}, sorted."""
    s, t = _check_parameters(s, t)
    hypot = float(np.hypot(s, t))
    eigenvalues = np.sort(np.array([0.0, 0.0, 0.0, s, -s, t, -t, hypot, -hypot]))
    return SpectrumResult(eigenvalues=eigenvalues, operator_norm=hypot)
