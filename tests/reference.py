"""Reference helpers that only the tests call.

Axis-angle rotations, spin observables in the |+1>, |0>, |-1> basis,
random states, the best state of an operator, the reduced Bell operator of
a scenario, a rank-3 corruption of the correlation matrices, the canonical
operator in the spin basis with its invariant-subspace blocks, the
invariant-split leakage check, the one-``%`` table formatter, and the
per-matrix underflow guard and Hermiticity asymmetry with no short-cut. The certifier's own paths (closed-form spectrum, rotation
reduction, Monte Carlo and seesaw) use none of them; the tests use them to
build inputs and to check those paths from another side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spinchsh.bell import (
    MeasurementScenario,
    canonical_operator,
    correlation_matrices,
    coupling_operator,
)
from spinchsh.errors import NormalizationError, RotationError
from spinchsh.reduction import canonical_reduction
from spinchsh.search import QuantumState
from spinchsh.spectrum import _UNDERFLOW, _check_hermitian, _check_parameters
from spinchsh.spin import CARTESIAN_BASIS, check_unit_vectors, spin_generators


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


def spin_along(u) -> np.ndarray:
    """Observable measuring spin along the unit direction ``u``, in the |+1>, |0>, |-1> basis.

    Hermitian, traceless, spectrum {-1, 0, 1}. Rejects inputs whose norm
    deviates from 1 beyond the rejection tolerance. An (..., 3) stack of
    directions gives the (..., 3, 3) stack of their observables, computed
    with the stack's axes innermost and returned as a view with the 3x3
    axes last.
    """
    u = check_unit_vectors(u)
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    trailing = (1,) * x.ndim
    S_X, S_Y, S_Z = (S.reshape((3, 3) + trailing) for S in spin_generators())
    return np.moveaxis(x * S_X + y * S_Y + z * S_Z, (0, 1), (-2, -1))


# C (x) C: Cartesian coordinates of both parties to |+1>, |0>, |-1> ones, so
# an operator B of bell_operator is W B W^dagger in the spin basis
CARTESIAN_PAIR = np.kron(CARTESIAN_BASIS, CARTESIAN_BASIS)


def levi_civita_along(u) -> np.ndarray:
    """eps(u) = sum_k u_k eps_k of one 3-vector, written out entry by entry: i S(u) in the Cartesian basis."""
    x, y, z = u
    return np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])


def spin_kron_bell(quad) -> np.ndarray:
    """One scenario's Bell operator in the spin basis: the sum of np.kron of ``spin_along`` observables."""
    sa, sap, sb, sbp = (spin_along(u) for u in quad)
    return np.kron(sa, sb) + np.kron(sa, sbp) + np.kron(sap, sb) - np.kron(sap, sbp)


def cartesian_kron_bell(quad) -> np.ndarray:
    """One scenario's Bell operator in the Cartesian basis, as -sum +-np.kron(eps(u), eps(v))."""
    ea, eap, eb, ebp = (levi_civita_along(u) for u in quad)
    return -(np.kron(ea, eb) + np.kron(ea, ebp) + np.kron(eap, eb) - np.kron(eap, ebp))


def random_pure_state(dim: int, rng: np.random.Generator) -> QuantumState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuantumState.pure(v / np.linalg.norm(v))


def random_density_matrix(dim: int, rng: np.random.Generator) -> QuantumState:
    """Hilbert-Schmidt sample: G G^dagger normalized to unit trace."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return QuantumState.mixed(rho / np.trace(rho).real)


def best_state_value(B) -> tuple[float, QuantumState]:
    """The largest |eigenvalue| of B and an extremal eigenvector as a pure state.

    No state can beat this: |tr(rho B)| is bounded by the operator norm. B
    passes the Hermiticity gate of ``eig_hermitian`` first.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(_check_hermitian(B))
    k = 0 if abs(eigenvalues[0]) > abs(eigenvalues[-1]) else len(eigenvalues) - 1
    return float(abs(eigenvalues[k])), QuantumState.pure(eigenvectors[:, k])


def reduced_bell(sc: MeasurementScenario) -> tuple[float, float, np.ndarray]:
    """The canonical parameters of a scenario and its reduced Bell operator.

    The returned operator s S_x (x) S_x + t S_z (x) S_z, in the Cartesian
    basis, is unitarily equivalent to the scenario's Bell operator, so their
    spectra agree.
    """
    reduction = canonical_reduction(correlation_matrices(sc))
    return reduction.s, reduction.t, canonical_operator(reduction.s, reduction.t)


def spin_basis_canonical(s: float, t: float) -> np.ndarray:
    """s S_x (x) S_x + t S_z (x) S_z in the |+1>, |0>, |-1> basis, as float64.

    The real part of the coupling operator of diag(s, 0, t) through the
    complex spin-1 tensor, whose imaginary part is zero: the form whose
    invariant split the paper reads off. ``canonical_operator`` is this
    operator conjugated into the Cartesian basis.
    """
    return coupling_operator(np.diag([float(s), 0.0, float(t)])).real


# composite index 3*m + n over levels (+1, 0, -1); parity of the level pair
# splits the space into the two invariant sectors
V4_INDICES = (1, 3, 5, 7)
V5_INDICES = (0, 2, 4, 6, 8)


def rank_three_correlations(directions) -> np.ndarray:
    """correlation_matrices plus a third rank-one term (a x a')(b x b')^T, a rank-3 control.

    a x a' is orthogonal to M's column space span(a, a') and b x b' to its row
    space span(b, b'), so every scenario with a != +-a' and b != +-b' gets a
    third singular value |a x a'| |b x b'|, and its norm leaves the band.
    """
    a, a_prime, b, b_prime = np.moveaxis(np.asarray(directions, dtype=float), -2, 0)
    third = np.cross(a, a_prime)[..., :, None] * np.cross(b, b_prime)[..., None, :]
    return correlation_matrices(directions) + third


@dataclass(frozen=True)
class SubspaceBlocks:
    """The spin-basis canonical operator restricted to its invariant subspaces.

    ``v4_block`` acts on (|1,0>, |0,1>, |0,-1>, |-1,0>); ``v5_t_eigenpairs``
    are the two explicit eigenvectors inside the five-state sector with
    eigenvalues +t and -t; ``w_block`` acts on the remaining orthonormal
    triple (|1,1>+|-1,-1>)/sqrt2, (|1,-1>+|-1,1>)/sqrt2, |0,0>.
    """

    v4_block: np.ndarray
    v5_t_eigenpairs: tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]
    w_block: np.ndarray


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
    e = np.eye(9)
    u1 = (e[0] - e[8]) / np.sqrt(2.0)
    u2 = (e[2] - e[6]) / np.sqrt(2.0)
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
    """Frobenius norms of the cross-sector blocks of the spin-basis canonical operator."""

    off_block_upper: float  # rows in the five-state sector, columns in the four-state one
    off_block_lower: float  # the transpose block

    @property
    def max_residual(self) -> float:
        return max(self.off_block_upper, self.off_block_lower)


def verify_invariance(s: float, t: float) -> InvarianceReport:
    """Measure how much the spin-basis canonical operator leaks across the invariant split."""
    s, t = _check_parameters(s, t)
    H = spin_basis_canonical(s, t)
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


def eigvalsh_reference(A: np.ndarray) -> np.ndarray:
    """``eigvalsh`` after the underflow guard's per-matrix rule, run on every input.

    Each nonzero entry below ``_UNDERFLOW`` of its own matrix's largest
    is zeroed; ``spectrum._eigvalsh`` must give these eigenvalues bit for bit.
    """
    magnitude = np.abs(A)
    scale = magnitude.max(axis=(-2, -1), keepdims=True)
    negligible = (magnitude < _UNDERFLOW * scale) & (magnitude > 0.0)
    return np.linalg.eigvalsh(np.where(negligible, 0.0, A))


def hermitian_asymmetry_reference(A: np.ndarray) -> float:
    """The Frobenius norm of A - A^dagger over a whole float or complex stack, always formed.

    ``spectrum._check_hermitian`` must raise HermiticityError carrying
    exactly this number when it is above TOL.hermiticity or NaN, and
    pass otherwise.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if np.iscomplexobj(A):
            parts = (A.real - A.real.swapaxes(-1, -2), A.imag + A.imag.swapaxes(-1, -2))
        else:
            parts = (A - A.swapaxes(-1, -2),)
        return math.sqrt(sum(float(np.einsum("i,i->", p.ravel(), p.ravel())) for p in parts))
