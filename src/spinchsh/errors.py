"""Exception types raised by the library."""


class SpinChshError(Exception):
    """Base class for all library errors."""


class InputError(SpinChshError, ValueError):
    """An argument has the wrong shape or lies outside its function's domain."""


class NonFiniteError(SpinChshError, ValueError):
    """A matrix that must be finite holds a NaN or infinite entry."""


class NormalizationError(SpinChshError, ValueError):
    """A direction vector is too far from unit norm."""


class HermiticityError(SpinChshError, ValueError):
    """An operator that must be Hermitian is not; carries the asymmetry."""

    def __init__(self, asymmetry: float, message: str | None = None):
        self.asymmetry = asymmetry
        super().__init__(message or f"operator is not Hermitian: asymmetry {asymmetry:.3e}")


class RankDeficiencyError(SpinChshError, ValueError):
    """A correlation matrix has numerical rank 3; carries sigma_3."""

    def __init__(self, sigma3: float):
        self.sigma3 = sigma3
        super().__init__(
            f"matrix has rank 3: third singular value {sigma3:.3e} exceeds the rank tolerance"
        )


class StateError(SpinChshError, ValueError):
    """A quantum state violates its invariants (norm, trace, positivity)."""


class MonotonicityError(SpinChshError, RuntimeError):
    """The seesaw objective decreased within a restart: an optimizer bug."""


class CertificationError(SpinChshError, RuntimeError):
    """An operator norm fell outside the certification band; carries the scenario by name."""

    def __init__(self, norm: float, scenario: dict):
        self.norm = norm
        self.scenario = scenario
        super().__init__(
            f"operator norm {norm!r} outside the certification band; scenario: {scenario}"
        )
