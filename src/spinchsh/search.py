"""Global numerical search for CHSH violations over states and directions.

The seesaw alternates two exact steps: for fixed directions the best state
is the top eigenvector of the Bell operator, and for a fixed pure state the
expectation is linear in each direction separately, so each direction moves
to its normalized gradient. Both steps can only raise the objective, which
the code asserts on every iteration.

The same optimizer runs on two measurement families: the spin-1 qutrit
family the bound-2 certification is about, and a qubit Pauli family that
serves as a positive control because its known maximum 2*sqrt(2) exceeds 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bell import (
    MeasurementScenario,
    correlation_matrices,
    correlation_matrix,
    coupling_operator,
    coupling_tensor,
)
from .errors import CertificationError, HermiticityError, MonotonicityError, StateError
from .serialize import DIRECTION_COLUMNS, write_csv
from .spin import check_unit_vector, spin_generators
from .tolerances import TOL

_PAULI = np.stack(
    [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
)


@dataclass(frozen=True)
class ObservableFamily:
    """Three Hermitian generators defining the observable u . generators.

    ``known_maximum`` is the largest CHSH expectation the family can reach,
    the target a search must hit; ``tensor`` is the family's coupling tensor.
    """

    name: str
    generators: np.ndarray
    known_maximum: float
    tensor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tensor", coupling_tensor(self.generators))

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def observable(self, u) -> np.ndarray:
        u = check_unit_vector(u)
        return np.einsum("i,iab->ab", u, self.generators)

    def bell_operator(self, sc: MeasurementScenario) -> np.ndarray:
        return coupling_operator(correlation_matrix(sc), self.tensor)


# spin-1 observables cannot beat the classical bound; qubits reach Tsirelson's
SPIN1_FAMILY = ObservableFamily("qutrit-spin1", np.stack(spin_generators()), 2.0)
PAULI_FAMILY = ObservableFamily("qubit-pauli", _PAULI, float(2.0 * np.sqrt(2.0)))

_FAMILIES = {f.name: f for f in (SPIN1_FAMILY, PAULI_FAMILY)}


def family_by_name(name: str) -> ObservableFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown measurement family {name!r}; known families: {known}") from None


@dataclass(frozen=True)
class QuantumState:
    """A pure state vector or a density matrix, validated on construction."""

    kind: str
    data: np.ndarray

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        deviation = abs(np.linalg.norm(vector) - 1.0)
        if deviation > TOL.state_norm:
            raise StateError(f"pure state norm deviates from 1 by {deviation:.3e}")
        return cls(kind="pure", data=vector)

    @classmethod
    def mixed(cls, matrix) -> "QuantumState":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise StateError(f"density matrix must be square, got shape {matrix.shape}")
        asymmetry = np.linalg.norm(matrix - matrix.conj().T)
        if asymmetry > TOL.state_norm:
            raise StateError(f"density matrix is not Hermitian: asymmetry {asymmetry:.3e}")
        trace_error = abs(np.trace(matrix) - 1.0)
        if trace_error > TOL.state_norm:
            raise StateError(f"density matrix trace deviates from 1 by {trace_error:.3e}")
        smallest = float(np.min(np.linalg.eigvalsh(matrix)))
        if smallest < TOL.psd_floor:
            raise StateError(f"density matrix has negative eigenvalue {smallest:.3e}")
        return cls(kind="mixed", data=matrix)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data


def expectation(state: QuantumState, B) -> float:
    """tr(rho B), guaranteed real; a large imaginary part means corrupt inputs."""
    B = np.asarray(B, dtype=complex)
    if state.kind == "pure":
        value = complex(state.data.conj() @ B @ state.data)
    else:
        value = complex(np.trace(state.data @ B))
    if abs(value.imag) > TOL.trace_imag:
        raise HermiticityError(
            abs(value.imag), f"expectation has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def best_state_value(B) -> tuple[float, QuantumState]:
    """The largest |eigenvalue| of B and an extremal eigenvector as a pure state.

    No state can beat this: |tr(rho B)| is bounded by the operator norm.
    """
    B = np.asarray(B, dtype=complex)
    eigenvalues, eigenvectors = np.linalg.eigh(B)
    k = 0 if abs(eigenvalues[0]) > abs(eigenvalues[-1]) else len(eigenvalues) - 1
    return float(abs(eigenvalues[k])), QuantumState.pure(eigenvectors[:, k])


# --------------------------------------------------------------------------
# random sampling


def random_directions(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform random unit 3-vectors, shape ``shape + (3,)``.

    Gaussian draws normalised along the last axis; a draw too short to
    normalise is replaced by a fresh one.
    """
    v = rng.standard_normal(tuple(shape) + (3,))
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    while np.any(norms < 1e-12):
        short = norms[..., 0] < 1e-12
        v[short] = rng.standard_normal((int(short.sum()), 3))
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / norms


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    return random_directions(rng, ())


def random_scenario(rng: np.random.Generator) -> MeasurementScenario:
    return MeasurementScenario(*random_directions(rng, (4,)))


def random_pure_state(dim: int, rng: np.random.Generator) -> QuantumState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuantumState.pure(v / np.linalg.norm(v))


def random_density_matrix(dim: int, rng: np.random.Generator) -> QuantumState:
    """Hilbert-Schmidt sample: G G^dagger normalized to unit trace."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = G @ G.conj().T
    return QuantumState.mixed(rho / np.trace(rho).real)


# --------------------------------------------------------------------------
# seesaw optimization


@dataclass(frozen=True)
class SearchConfig:
    family: str = "qutrit-spin1"
    restarts: int = 200
    max_iterations: int = 500
    tol: float = TOL.seesaw_improvement
    seed: int = 0
    initial_scenario: MeasurementScenario | None = None
    initial_state: QuantumState | None = None


@dataclass(frozen=True)
class SearchReport:
    best_value: float
    best_scenario: MeasurementScenario
    best_state: QuantumState
    iterations: int
    restarts: int
    converged: bool
    history: tuple[float, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class _RestartOutcome:
    value: float
    scenario: MeasurementScenario
    state: QuantumState
    iterations: int
    converged: bool
    history: tuple[float, ...]


def _seesaw_restart(
    family: ObservableFamily,
    seed_seq: np.random.SeedSequence,
    config: SearchConfig,
    initial_scenario: MeasurementScenario | None,
    initial_state: QuantumState | None,
) -> _RestartOutcome:
    if initial_scenario is not None:
        scenario = initial_scenario
    else:
        scenario = random_scenario(np.random.default_rng(seed_seq))

    gens = family.generators
    previous = -np.inf
    if initial_state is not None:
        previous = expectation(initial_state, family.bell_operator(scenario))

    history: list[float] = []
    state = initial_state
    value = previous
    converged = False
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        B = family.bell_operator(scenario)
        eigenvalues, eigenvectors = np.linalg.eigh(B)
        top = float(eigenvalues[-1])
        slack = 1e-12 * max(1.0, abs(previous))
        if top < previous - slack:
            raise MonotonicityError(
                f"state step lowered the objective: {previous!r} -> {top!r}"
            )
        v = eigenvectors[:, -1]
        state = QuantumState.pure(v)

        # each direction enters the expectation linearly, so its exact
        # optimum is the normalized gradient; zero gradient keeps the old one
        W = v.reshape(family.dim, family.dim)
        a, a_prime, b, b_prime = scenario.directions()
        plus = family.observable(b) + family.observable(b_prime)
        minus = family.observable(b) - family.observable(b_prime)
        a = _renormalized(_party_a_gradient(W, gens, plus), a)
        a_prime = _renormalized(_party_a_gradient(W, gens, minus), a_prime)
        sum_a = family.observable(a) + family.observable(a_prime)
        diff_a = family.observable(a) - family.observable(a_prime)
        b = _renormalized(_party_b_gradient(W, gens, sum_a), b)
        b_prime = _renormalized(_party_b_gradient(W, gens, diff_a), b_prime)
        scenario = MeasurementScenario(a, a_prime, b, b_prime)

        value = expectation(state, family.bell_operator(scenario))
        if value < top - 1e-12 * max(1.0, abs(top)):
            raise MonotonicityError(
                f"direction step lowered the objective: {top!r} -> {value!r}"
            )
        history.append(value)
        if value - previous < config.tol:
            converged = True
            break
        previous = value

    assert state is not None
    return _RestartOutcome(
        value=value,
        scenario=scenario,
        state=state,
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )


def _party_a_gradient(W: np.ndarray, gens: np.ndarray, right: np.ndarray) -> np.ndarray:
    """d/du of Re <v| u.gens (x) right |v> at each component, W = v reshaped (d, d)."""
    # <v| (A (x) C) |v> = tr(W^H A W C^T)
    WC = W @ right.T
    return np.real(np.einsum("iab,ba->i", gens, WC @ W.conj().T))


def _party_b_gradient(W: np.ndarray, gens: np.ndarray, left: np.ndarray) -> np.ndarray:
    """d/du of Re <v| left (x) u.gens |v> at each component."""
    # coefficient of u_j is tr(W^H left W G_j^T): elementwise against G_j, not tr(G_j Y)
    AW = left @ W
    return np.real(np.einsum("jcd,cd->j", gens, W.conj().T @ AW))


def _renormalized(gradient: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(gradient)
    if norm < 1e-14:
        return fallback
    return gradient / norm


def maximize_violation(config: SearchConfig = SearchConfig()) -> SearchReport:
    """Run the multi-restart seesaw and report the best expectation found.

    Deterministic for a fixed seed: every restart draws from its own spawned
    stream, and ties between restarts resolve to the lowest restart index.
    """
    if config.restarts < 1:
        raise ValueError("need at least one restart")
    if config.max_iterations < 1:
        raise ValueError("need at least one iteration")
    if config.tol <= 0.0:
        raise ValueError("convergence tolerance must be positive")
    family = family_by_name(config.family)
    if config.initial_state is not None and config.initial_state.dim != family.dim**2:
        raise StateError(
            f"initial state dimension {config.initial_state.dim} does not match "
            f"the family's product dimension {family.dim ** 2}"
        )

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    outcomes = [
        _seesaw_restart(
            family,
            seed_seq,
            config,
            config.initial_scenario if index == 0 else None,
            config.initial_state if index == 0 else None,
        )
        for index, seed_seq in enumerate(seeds)
    ]

    best = outcomes[0]
    for outcome in outcomes[1:]:
        if outcome.value > best.value:
            best = outcome

    final_value = expectation(best.state, family.bell_operator(best.scenario))
    return SearchReport(
        best_value=final_value,
        best_scenario=best.scenario,
        best_state=best.state,
        iterations=best.iterations,
        restarts=config.restarts,
        converged=best.converged,
        history=best.history,
    )


# --------------------------------------------------------------------------
# Monte Carlo certification


def _scenario_json(directions: np.ndarray) -> str:
    labels = ("a", "a_prime", "b", "b_prime")
    return json.dumps({k: list(map(float, directions[i])) for i, k in enumerate(labels)})


def monte_carlo_certify(
    n: int,
    seed: int = 0,
    inject: tuple[MeasurementScenario, ...] = (),
    band_tol: float = TOL.norm_band,
    csv_path: str | None = None,
    chunk: int = 4096,
) -> float:
    """Sample n random scenarios and certify every Bell operator norm is 2.

    The norm is not merely bounded by 2: it equals 2 for every scenario, so
    any sample falling outside [2 - band_tol, 2 + band_tol] raises a
    CertificationError carrying the offending scenario. Returns the largest
    norm observed. Scenarios in ``inject`` replace the first samples.
    """
    if n < 1:
        raise ValueError("empty sample: n must be at least 1")
    directions = random_directions(np.random.default_rng(seed), (n, 4))
    for i, sc in enumerate(inject[:n]):
        directions[i] = np.stack(sc.directions())

    norms = np.empty(n)
    for start in range(0, n, chunk):
        B = coupling_operator(correlation_matrices(directions[start : start + chunk]))
        norms[start : start + chunk] = np.max(np.abs(np.linalg.eigvalsh(B)), axis=1)
    if csv_path is not None:
        write_csv(
            csv_path,
            ["index", *DIRECTION_COLUMNS, "norm"],
            ([i, *quad.reshape(-1), norm] for i, (quad, norm) in enumerate(zip(directions, norms))),
        )
    off_band = np.abs(norms - 2.0) > band_tol
    if np.any(off_band):
        k = int(np.argmax(off_band))
        raise CertificationError(float(norms[k]), _scenario_json(directions[k]))
    return float(np.max(norms))
