"""Reference helpers that only the tests call.

Axis-angle rotations, random states, the reduced Bell operator of a
scenario, the invariant-split leakage check and the one-``%`` table
formatter. The certifier's own paths (closed-form spectrum, rotation
reduction, Monte Carlo and seesaw) use none of them; the tests use them to
build inputs and to check those paths from another side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spinchsh.bell import MeasurementScenario, canonical_operator, correlation_matrices
from spinchsh.errors import NormalizationError, RotationError
from spinchsh.reduction import canonical_reduction
from spinchsh.search import QuantumState
from spinchsh.spectrum import _check_parameters
from spinchsh.spin import check_unit_vectors


def check_unit_vector(u) -> np.ndarray:
    """Validate that ``u`` is a real 3-vector of unit norm to TOL.unit_norm_reject; return it."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape != (3,):
        raise NormalizationError(f"expected a 3-vector, got shape {u.shape}")
    return check_unit_vectors(u)


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a counterclockwise turn by ``angle`` about ``axis``."""
    n = check_unit_vector(axis)
    if not np.isfinite(angle):
        raise RotationError(f"rotation angle {angle} is not finite")
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_pure_state(dim: int, rng: np.random.Generator) -> QuantumState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuantumState.pure(v / np.linalg.norm(v))


def random_density_matrix(dim: int, rng: np.random.Generator) -> QuantumState:
    """Hilbert-Schmidt sample: G G^dagger normalized to unit trace."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return QuantumState.mixed(rho / np.trace(rho).real)


def reduced_bell(sc: MeasurementScenario) -> tuple[float, float, np.ndarray]:
    """The canonical parameters of a scenario and its reduced Bell operator.

    The returned operator s S_x (x) S_x + t S_z (x) S_z is unitarily
    equivalent to the scenario's Bell operator, so their spectra agree.
    """
    reduction = canonical_reduction(correlation_matrices(sc))
    return reduction.s, reduction.t, canonical_operator(reduction.s, reduction.t)


# composite index 3*m + n over levels (+1, 0, -1); parity of the level pair
# splits the space into the two invariant sectors
V4_INDICES = (1, 3, 5, 7)
V5_INDICES = (0, 2, 4, 6, 8)


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


def format_rows_reference(table, separator: str = ",") -> str:
    """``serialize.format_rows`` as one ``%``: every number ``%.17g``, each row a line."""
    table = np.asarray(table, dtype=float)
    template = (separator.join(["%.17g"] * table.shape[-1]) + "\n") * len(table)
    return template % tuple(table.ravel().tolist())
