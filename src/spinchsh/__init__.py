"""CHSH Bell operators for two qutrits under spin-1 measurements.

Constructs the operators, reduces them to a two-parameter canonical form by
proper rotations, computes exact and numerical spectra, and certifies both
by closed form and by global numerical search that the CHSH expectation
never exceeds 2 on the two-qutrit space.
"""

from types import ModuleType as _ModuleType

from .bell import (
    PAULI_FAMILY,
    SPIN1_FAMILY,
    MeasurementScenario,
    ObservableFamily,
    bell_operator,
    canonical_operator,
    correlation_matrices,
    coupling_operator,
    coupling_tensor,
)
from .errors import (
    CertificationError,
    HermiticityError,
    InputError,
    MonotonicityError,
    NonFiniteError,
    NormalizationError,
    RankDeficiencyError,
    SpinChshError,
    StateError,
)
from .reduction import CanonicalReduction, canonical_parameters, canonical_reduction, svd3
from .search import (
    QuantumState,
    SearchReport,
    expectation,
    maximize_violation,
    monte_carlo_certify,
    random_directions,
)
from .spectrum import SpectrumResult, closed_form_spectrum, eig_hermitian
from .spin import CARTESIAN_BASIS, cartesian_generators
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"

# every name imported above, in import order, and the version; the
# submodules that those imports bind as attributes are not exports
__all__ = [
    name
    for name, value in tuple(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
