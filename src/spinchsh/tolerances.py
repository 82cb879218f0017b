"""Numerical tolerances used across the package, collected in one record."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every tolerance of the project, with its default strictness.

    Library code reads the fields of the module-level ``TOL`` when it runs;
    no function or config takes a tolerance from its caller. Not every field
    is enforced by the library: only the tests read ``unit_norm``,
    ``commutator``, ``conjugation``, ``invariance`` and ``reconstruction``,
    and only the benchmark's workloads (``bench/workloads.py``) read
    ``sum_squares``.
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
    rank: float = 1e-8                # third singular value above this times half the first means rank 3
    reconstruction: float = 1e-10     # SVD / reduction reconstruction residuals
    sum_squares: float = 1e-9         # residual of s^2 + t^2 = 4 for Bell-derived matrices

    # certification and search
    norm_band: float = 1e-9           # half-width of the accepted band around norm 2
    trace_imag: float = 1e-10         # imaginary part allowed in an expectation value
    state_norm: float = 1e-12         # normalization / trace residual of quantum states
    psd_floor: float = -1e-10         # most negative eigenvalue tolerated in a density matrix
    seesaw_improvement: float = 1e-9  # convergence threshold on the seesaw objective
    seesaw_monotonicity: float = 1e-12  # relative drop of the seesaw objective taken as rounding
    zero_gradient: float = 1e-14      # seesaw gradient norm below which a direction stays put
    short_draw: float = 1e-12         # Gaussian draws shorter than this are redrawn, not normalised
    search_target: float = 1e-6       # distance from the known optimum the search must reach


TOL = Tolerances()
