"""Numerical tolerances used across the package, collected in one record."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every tolerance the library enforces, with its default strictness.

    Library code reads the fields of the module-level ``TOL`` when it runs.
    The only tolerance a caller sets is ``SearchConfig.tol``, which defaults
    to ``seesaw_improvement``.
    """

    # direction vectors
    unit_norm_reject: float = 1e-9    # inputs further than this from unit norm are rejected
    unit_norm_input: float = 1e-6     # scenario-file directions further than this are rejected
    unit_norm: float = 1e-12          # unit-norm residual of constructed vectors

    # rotations
    rotation: float = 1e-12           # orthogonality and determinant residuals of SO(3) inputs

    # operators
    hermiticity: float = 1e-10        # asymmetry allowed by the Hermitian eigensolver
    commutator: float = 1e-14         # spin commutation-relation residual
    spectrum: float = 1e-10           # eigenvalue comparisons (closed form vs numeric)
    conjugation: float = 1e-10        # rotation-covariance residuals
    invariance: float = 1e-13         # off-block leakage across the invariant split

    # reduction
    rank: float = 1e-8                # third singular value above this means rank 3
    reconstruction: float = 1e-10     # SVD / reduction reconstruction residuals
    sum_squares: float = 1e-9         # residual of s^2 + t^2 = 4 for Bell-derived matrices

    # certification and search
    norm_band: float = 1e-9           # half-width of the accepted band around norm 2
    trace_imag: float = 1e-10         # imaginary part allowed in an expectation value
    state_norm: float = 1e-12         # normalization / trace residual of quantum states
    psd_floor: float = -1e-10         # most negative eigenvalue tolerated in a density matrix
    seesaw_improvement: float = 1e-9  # convergence threshold on the seesaw objective
    search_target: float = 1e-6       # distance from the known optimum the search must reach


TOL = Tolerances()
