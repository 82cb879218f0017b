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

from dataclasses import dataclass, field

import numpy as np

from .bell import canonical_operator
from .errors import HermiticityError
from .tolerances import TOL

# composite index 3*m + n over levels (+1, 0, -1); parity of the level pair
# splits the space into the two invariant sectors
V4_INDICES = (1, 3, 5, 7)
V5_INDICES = (0, 2, 4, 6, 8)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted ascending, the operator norm, and (optionally) eigenvectors.

    For a stack of matrices each field carries the stack's leading axes, and
    ``operator_norm`` is an array of norms instead of a float.
    """

    eigenvalues: np.ndarray
    operator_norm: float
    eigenvectors: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SubspaceBlocks:
    """The canonical operator restricted to its invariant subspaces.

    ``v4_block`` acts on (|1,0>, |0,1>, |0,-1>, |-1,0>); ``v5_t_eigenpairs``
    are the two explicit eigenvectors inside the five-state sector with
    eigenvalues +t and -t; ``w_block`` acts on the remaining orthonormal
    triple (|1,1>+|-1,-1>)/sqrt2, (|1,-1>+|-1,1>)/sqrt2, |0,0>.
    """

    v4_block: np.ndarray
    v5_t_eigenpairs: tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]
    w_block: np.ndarray


def eig_hermitian(A, hermiticity_tol: float = TOL.hermiticity) -> SpectrumResult:
    """Eigendecomposition of a Hermitian matrix, or of an (..., n, n) stack of them.

    The Hermiticity gate is the Frobenius norm of A - A^dagger over the whole
    input. It bounds each matrix's own asymmetry, so a stack passes only if
    every matrix in it would pass alone. A NaN or infinite entry makes the
    norm NaN or infinite, which fails the gate too, without a warning.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    # inf - inf gives NaN and a huge difference overflows to inf; either
    # fails the gate below, so numpy's warnings about them are noise
    with np.errstate(invalid="ignore", over="ignore"):
        asymmetry = float(np.linalg.norm(A - A.swapaxes(-1, -2).conj()))
    if not asymmetry <= hermiticity_tol:
        raise HermiticityError(asymmetry)
    eigenvalues, eigenvectors = np.linalg.eigh(A)
    norms = np.abs(eigenvalues).max(axis=-1)
    return SpectrumResult(
        eigenvalues=eigenvalues,
        operator_norm=norms if norms.ndim else float(norms),
        eigenvectors=eigenvectors,
    )


def _check_parameters(s: float, t: float) -> tuple[float, float]:
    s, t = float(s), float(t)
    if s < 0.0 or t < 0.0:
        raise ValueError(f"canonical parameters must be nonnegative, got s={s!r}, t={t!r}")
    return s, t


def closed_form_spectrum(s: float, t: float) -> SpectrumResult:
    """The exact nine eigenvalues {0, 0, 0, +-s, +-t, +-sqrt(s^2+t^2)}, sorted."""
    s, t = _check_parameters(s, t)
    hypot = float(np.hypot(s, t))
    eigenvalues = np.sort(np.array([0.0, 0.0, 0.0, s, -s, t, -t, hypot, -hypot]))
    return SpectrumResult(eigenvalues=eigenvalues, operator_norm=hypot)


def _basis_vector(index: int) -> np.ndarray:
    e = np.zeros(9)
    e[index] = 1.0
    return e


def subspace_blocks(s: float, t: float) -> SubspaceBlocks:
    """Assemble the invariant-subspace blocks of the canonical operator."""
    s, t = _check_parameters(s, t)
    half = s / 2.0
    v4_block = np.array(
        [
            [0.0, half, half, 0.0],
            [half, 0.0, 0.0, half],
            [half, 0.0, 0.0, half],
            [0.0, half, half, 0.0],
        ]
    )
    u1 = (_basis_vector(0) - _basis_vector(8)) / np.sqrt(2.0)
    u2 = (_basis_vector(2) - _basis_vector(6)) / np.sqrt(2.0)
    over_sqrt2 = s / np.sqrt(2.0)
    w_block = np.array(
        [
            [t, 0.0, over_sqrt2],
            [0.0, -t, over_sqrt2],
            [over_sqrt2, over_sqrt2, 0.0],
        ]
    )
    return SubspaceBlocks(
        v4_block=v4_block,
        v5_t_eigenpairs=((u1, t), (u2, -t)),
        w_block=w_block,
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Frobenius norms of the cross-sector blocks of the canonical operator."""

    off_block_upper: float  # rows in the five-state sector, columns in the four-state one
    off_block_lower: float  # the transpose block

    @property
    def max_residual(self) -> float:
        return max(self.off_block_upper, self.off_block_lower)


def verify_invariance(s: float, t: float) -> InvarianceReport:
    """Measure how much the canonical operator leaks across the invariant split."""
    s, t = _check_parameters(s, t)
    H = canonical_operator(s, t)
    v4, v5 = list(V4_INDICES), list(V5_INDICES)
    return InvarianceReport(
        off_block_upper=float(np.linalg.norm(H[np.ix_(v5, v4)])),
        off_block_lower=float(np.linalg.norm(H[np.ix_(v4, v5)])),
    )
