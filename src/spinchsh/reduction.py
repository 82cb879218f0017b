"""Special-orthogonal reduction of rank <= 2 correlation matrices.

Any such 3x3 matrix M admits R M Q^T = diag(s, 0, t) with R and Q proper
rotations. An ordinary SVD delivers orthogonal factors; because the third
singular value is zero, flipping the sign of their last row costs nothing,
which lets us force both determinants to +1, and a fixed permutation then
moves the zero into the middle slot. The rotations double as certificates:
conjugating the coupling operator by their spin representations maps it to
the two-parameter canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import MeasurementScenario, canonical_operator, correlation_matrix
from .errors import NonFiniteError, RankDeficiencyError
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
        """JSON-ready certificate with the residuals a verifier needs."""
        M = np.asarray(M, dtype=float)
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
        }


def svd3(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition of a real 3x3 matrix as O1 M O2^T = diag(sigma).

    Returns (O1, O2, sigma) with sigma sorted descending and O1, O2 orthogonal
    (determinants not fixed). Signs are made deterministic by pointing the
    largest-magnitude entry of each left singular vector in the positive
    direction. An (..., 3, 3) stack is decomposed matrix by matrix in one
    call, with the results stacked the same way. Non-finite entries raise
    NonFiniteError: LAPACK's SVD does not return on an infinite one.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteError("expected finite matrix entries")
    U, sigma, Vt = np.linalg.svd(M)
    # row of the largest-magnitude entry in each column of U (first one on ties)
    lead = np.argmax(np.abs(U), axis=-2)
    flip = np.take_along_axis(U, lead[..., None, :], axis=-2)[..., 0, :] < 0.0
    sign = np.where(flip, -1.0, 1.0)
    return np.swapaxes(U * sign[..., None, :], -1, -2), Vt * sign[..., :, None], sigma


def canonical_reduction(M, rank_tol: float = TOL.rank) -> CanonicalReduction:
    """Reduce a rank <= 2 matrix, or each of an (..., 3, 3) stack, to diag(s, 0, t).

    Raises RankDeficiencyError, naming the first offending matrix's value,
    when a third singular value exceeds ``rank_tol``: a genuinely rank-3
    matrix cannot absorb the determinant fix. A second singular value at
    most machine epsilon times the first is returned as t = 0.
    """
    M = np.asarray(M, dtype=float)
    O1, O2, sigma = svd3(M)
    rank3 = sigma[..., 2] >= rank_tol
    if np.any(rank3):
        raise RankDeficiencyError(float(sigma[..., 2][rank3][0]))
    s, t = sigma[..., 0], sigma[..., 1]
    # below the SVD's backward error, so numerically zero; left in place,
    # tiny values (around 1e-150) derail LAPACK's Hermitian eigensolver
    # on the canonical operator
    t = np.where(t <= _EPS * s, 0.0, t)
    O1 = np.where(np.linalg.det(O1)[..., None, None] < 0.0, _J @ O1, O1)
    O2 = np.where(np.linalg.det(O2)[..., None, None] < 0.0, _J @ O2, O2)
    if M.ndim == 2:
        s, t = float(s), float(t)
    return CanonicalReduction(R=_P @ O1, Q=_P @ O2, s=s, t=t)


def reduced_bell(sc: MeasurementScenario) -> tuple[float, float, np.ndarray]:
    """The canonical parameters of a scenario and its reduced Bell operator.

    The returned operator s S_x (x) S_x + t S_z (x) S_z is unitarily
    equivalent to the scenario's Bell operator, so their spectra agree.
    """
    reduction = canonical_reduction(correlation_matrix(sc))
    return reduction.s, reduction.t, canonical_operator(reduction.s, reduction.t)
