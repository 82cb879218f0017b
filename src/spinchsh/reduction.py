"""Special-orthogonal reduction of rank <= 2 correlation matrices.

Any such 3x3 matrix M admits R M Q^T = diag(s, 0, t) with R and Q proper
rotations. An ordinary SVD delivers orthogonal factors; because the third
singular value is zero, flipping the sign of their last row costs nothing,
which lets us force both determinants to +1, and a fixed permutation then
moves the zero into the middle slot. The rotations double as certificates:
in the Cartesian basis, where the spin-1 image of a rotation is the rotation
itself, conjugating the coupling operator by R (x) Q maps it to the
two-parameter canonical form, all in real arithmetic.

There are two entry points. ``canonical_reduction`` returns the rotations
with s and t, as a certificate needs; ``canonical_parameters`` returns s
and t alone, from the same SVD call under the same rules, for callers that
report only those. Both take one matrix or an (..., 3, 3) stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import canonical_operator, coupling_operator
from .errors import InputError, NonFiniteError, RankDeficiencyError
from .spin import _as_real
from .tolerances import TOL

# sign flip on the third coordinate; absorbed by a zero third singular value
_J = np.diag([1.0, 1.0, -1.0])
# proper rotation with P diag(s, t, 0) P^T = diag(s, 0, t)
_P = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
# relative size below which a second singular value is indistinguishable from zero
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CanonicalReduction:
    """Certificate that R M Q^T = diag(s, 0, t) with det R = det Q = 1 and s >= t >= 0.

    The reduction of an (..., 3, 3) stack holds (..., 3, 3) rotations and
    (...) arrays of s and t; ``diagonal_form`` and ``certificate`` are for a
    single matrix.
    """

    R: np.ndarray
    Q: np.ndarray
    s: float
    t: float

    def diagonal_form(self) -> np.ndarray:
        return np.diag([self.s, 0.0, self.t])

    def certificate(self, M) -> dict:
        """JSON-ready certificate with the residuals a verifier needs.

        ``conjugation_residual`` is the paper's key step: the spin
        representations of R and Q carry K(M) to the canonical form. It is
        measured in the Cartesian basis, where those representations are R
        and Q themselves, so W = R (x) Q carries the real K(M) to the real
        ``canonical_operator(s, t)`` with no complex arithmetic.
        """
        M = _as_real(M, InputError, "a correlation matrix")
        if M.shape != (3, 3):
            raise InputError(f"a certificate is of one 3x3 matrix, got shape {M.shape}")
        # the report's s^2 + t^2; Python's ** would raise OverflowError where * gives inf
        if not np.isfinite(self.s * self.s + self.t * self.t):
            raise NonFiniteError(f"s^2 + t^2 must be finite, got s={self.s!r}, t={self.t!r}")
        W = np.kron(self.R, self.Q)
        conjugated = W @ coupling_operator(M) @ W.T
        return {
            "R": self.R,
            "Q": self.Q,
            "s": self.s,
            "t": self.t,
            "sum_of_squares": self.s**2 + self.t**2,
            "reconstruction_residual": float(
                np.linalg.norm(self.R @ M @ self.Q.T - self.diagonal_form())
            ),
            "det_R_residual": float(abs(np.linalg.det(self.R) - 1.0)),
            "det_Q_residual": float(abs(np.linalg.det(self.Q) - 1.0)),
            "orthogonality_R_residual": float(np.linalg.norm(self.R.T @ self.R - np.eye(3))),
            "orthogonality_Q_residual": float(np.linalg.norm(self.Q.T @ self.Q - np.eye(3))),
            "conjugation_residual": float(
                np.linalg.norm(conjugated - canonical_operator(self.s, self.t))
            ),
        }


def _svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd of a 3x3 matrix or an (..., 3, 3) stack, under svd3's input rules."""
    M = _as_real(M, InputError, "a correlation matrix")
    if M.shape[-2:] != (3, 3):
        raise InputError(f"expected a 3x3 matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteError("expected finite matrix entries")
    U, sigma, Vt = np.linalg.svd(M)
    if not np.isfinite(sigma).all():
        raise NonFiniteError("expected finite singular values, got an overflow")
    return U, sigma, Vt


def svd3(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition of a real 3x3 matrix as O1 M O2^T = diag(sigma).

    Returns (O1, O2, sigma) with sigma sorted descending and O1, O2 orthogonal
    (determinants not fixed). Signs are made deterministic by pointing the
    largest-magnitude entry of each left singular vector in the positive
    direction. An (..., 3, 3) stack is decomposed matrix by matrix in one
    call, with the results stacked the same way. Non-finite entries raise
    NonFiniteError: LAPACK's SVD does not return on an infinite one. So do
    finite entries whose singular values overflow.
    """
    U, sigma, Vt = _svd(M)
    # row of the largest-magnitude entry in each column of U (first one on ties)
    lead = np.argmax(np.abs(U), axis=-2)
    flip = np.take_along_axis(U, lead[..., None, :], axis=-2)[..., 0, :] < 0.0
    sign = np.where(flip, -1.0, 1.0)
    return np.swapaxes(U * sign[..., None, :], -1, -2), Vt * sign[..., :, None], sigma


def _parameters(sigma: np.ndarray) -> tuple:
    """(s, t) of singular values sorted descending, under the rank gate and the t cut."""
    rank3 = sigma[..., 2] > TOL.rank * sigma[..., 0] / 2.0
    if np.any(rank3):
        raise RankDeficiencyError(float(sigma[..., 2][rank3][0]))
    s, t = sigma[..., 0], sigma[..., 1]
    # below the SVD's backward error, so numerically zero; left in place,
    # tiny values (around 1e-150) derail LAPACK's Hermitian eigensolver
    # on the canonical operator
    t = np.where(t <= _EPS * s, 0.0, t)
    if sigma.ndim == 1:
        return float(s), float(t)
    return s, t


def canonical_parameters(M) -> tuple:
    """The (s, t) of ``canonical_reduction(M)``, without its rotations.

    The same singular values from the same SVD call, under the same rules:
    svd3's input rules, the rank gate and the cut of t to 0. A 3x3 matrix
    gives two floats, an (..., 3, 3) stack two (...) arrays.
    """
    return _parameters(_svd(M)[1])


def canonical_reduction(M) -> CanonicalReduction:
    """Reduce a rank <= 2 matrix, or each of an (..., 3, 3) stack, to diag(s, 0, t).

    Raises RankDeficiencyError, naming the first offending matrix's value,
    when a third singular value exceeds ``TOL.rank`` times half the first:
    a genuinely rank-3 matrix cannot absorb the determinant fix. The gate
    is relative, so a matrix and its multiples get the same verdict; half
    the first is at most 1 for a scenario's M, whose Frobenius norm is 2.
    A second singular value at most machine epsilon times the first is
    returned as t = 0. ``canonical_parameters`` gives the same s and t
    alone, for callers that do not need R and Q.
    """
    O1, O2, sigma = svd3(M)
    s, t = _parameters(sigma)
    O1 = np.where(np.linalg.det(O1)[..., None, None] < 0.0, _J @ O1, O1)
    O2 = np.where(np.linalg.det(O2)[..., None, None] < 0.0, _J @ O2, O2)
    return CanonicalReduction(R=_P @ O1, Q=_P @ O2, s=s, t=t)
