"""CHSH Bell operators for two qutrits under spin-1 measurements.

Constructs the operators, reduces them to a two-parameter canonical form by
proper rotations, computes exact and numerical spectra, and certifies both
by closed form and by global numerical search that the CHSH expectation
never exceeds 2 on the two-qutrit space.
"""

from .bell import (
    MeasurementScenario,
    bell_operator,
    canonical_operator,
    correlation_matrices,
    correlation_matrix,
    coupling_operator,
    coupling_tensor,
)
from .errors import (
    CertificationError,
    HermiticityError,
    MonotonicityError,
    NonFiniteError,
    NormalizationError,
    RankDeficiencyError,
    RotationError,
    SpinChshError,
    StateError,
)
from .reduction import CanonicalReduction, canonical_reduction, reduced_bell, svd3
from .search import (
    PAULI_FAMILY,
    SPIN1_FAMILY,
    ObservableFamily,
    QuantumState,
    SearchConfig,
    SearchReport,
    best_state_value,
    expectation,
    family_by_name,
    maximize_violation,
    monte_carlo_certify,
    random_density_matrix,
    random_directions,
    random_pure_state,
    random_scenario,
    random_unit_vector,
)
from .spectrum import (
    SpectrumResult,
    SubspaceBlocks,
    V4_INDICES,
    V5_INDICES,
    closed_form_spectrum,
    eig_hermitian,
    subspace_blocks,
    verify_invariance,
)
from .spin import (
    axis_angle,
    expm_hermitian,
    rotation_about,
    spin_along,
    spin_generators,
    spin_representation,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "MeasurementScenario",
    "bell_operator",
    "canonical_operator",
    "correlation_matrices",
    "correlation_matrix",
    "coupling_operator",
    "coupling_tensor",
    "CertificationError",
    "HermiticityError",
    "MonotonicityError",
    "NonFiniteError",
    "NormalizationError",
    "RankDeficiencyError",
    "RotationError",
    "SpinChshError",
    "StateError",
    "CanonicalReduction",
    "canonical_reduction",
    "reduced_bell",
    "svd3",
    "PAULI_FAMILY",
    "SPIN1_FAMILY",
    "ObservableFamily",
    "QuantumState",
    "SearchConfig",
    "SearchReport",
    "best_state_value",
    "expectation",
    "family_by_name",
    "maximize_violation",
    "monte_carlo_certify",
    "random_density_matrix",
    "random_directions",
    "random_pure_state",
    "random_scenario",
    "random_unit_vector",
    "SpectrumResult",
    "SubspaceBlocks",
    "V4_INDICES",
    "V5_INDICES",
    "closed_form_spectrum",
    "eig_hermitian",
    "subspace_blocks",
    "verify_invariance",
    "axis_angle",
    "expm_hermitian",
    "rotation_about",
    "spin_along",
    "spin_generators",
    "spin_representation",
    "TOL",
    "Tolerances",
    "__version__",
]
