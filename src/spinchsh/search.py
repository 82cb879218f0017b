"""Global numerical search for CHSH violations over states and directions.

The seesaw alternates two exact steps: for fixed directions the best state
is the top eigenvector of the Bell operator, and for a fixed pure state v the
expectation is sum_ij M_ij T_ij with T_ij = Re <v| G_i (x) G_j |v> and
M = a (b + b')^T + a' (b - b')^T. That is linear in each party's pair of
directions, so each pair moves to its normalized product with the 3x3 matrix
T, which the family's coupling tensor gives in one product. Both steps can
only raise the objective, which the code asserts on every iteration.

The same optimizer runs on two measurement families: the spin-1 qutrit
family the bound-2 certification is about, and a qubit Pauli family that
serves as a positive control because its known maximum 2*sqrt(2) exceeds 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bell import (
    DIRECTION_NAMES,
    SPIN1_REAL_TENSOR,
    MeasurementScenario,
    correlation_matrices,
    coupling_operator,
    coupling_tensor,
)
from .errors import CertificationError, HermiticityError, MonotonicityError, StateError
from .serialize import DIRECTION_COLUMNS, write_csv
from .spin import check_unit_vectors, spin_generators
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

    def bell_operator(self, sc) -> np.ndarray:
        """The Bell operator of a MeasurementScenario, or of each quadruple of a (..., 4, 3) stack.

        Each operator of a stack is built bit for bit as it would be alone,
        so a seesaw restart follows the same path in any batch.
        """
        M = correlation_matrices(sc)
        # the unit axis makes every build one vector-matrix product, as for a single M
        return coupling_operator(M[..., None, :, :], self.tensor)[..., 0, :, :]


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
        _check_state_norms(vector)
        return cls(kind="pure", data=vector)

    @classmethod
    def mixed(cls, matrix) -> "QuantumState":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise StateError(f"density matrix must be square, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise StateError("density matrix has non-finite entries")
        # every comparison below is written so that NaN fails it
        asymmetry = np.linalg.norm(matrix - matrix.conj().T)
        if not asymmetry <= TOL.state_norm:
            raise StateError(f"density matrix is not Hermitian: asymmetry {asymmetry:.3e}")
        trace_error = abs(np.trace(matrix) - 1.0)
        if not trace_error <= TOL.state_norm:
            raise StateError(f"density matrix trace deviates from 1 by {trace_error:.3e}")
        smallest = float(np.min(np.linalg.eigvalsh(matrix)))
        if not smallest >= TOL.psd_floor:
            raise StateError(f"density matrix has negative eigenvalue {smallest:.3e}")
        return cls(kind="mixed", data=matrix)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data


def _check_state_norms(vectors: np.ndarray) -> None:
    """Reject state vectors (along the last axis) whose norm is off 1 by more than TOL.state_norm.

    Written so that a NaN norm fails; the first offending vector is named.
    """
    # an infinite entry gives a NaN norm and a huge one overflows; both are
    # rejected below, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        norms = np.linalg.norm(vectors.reshape(-1, vectors.shape[-1]), axis=-1)
    deviation = np.abs(norms - 1.0)
    bad = ~(deviation <= TOL.state_norm)
    if np.any(bad):
        raise StateError(f"pure state norm deviates from 1 by {deviation[bad][0]:.3e}")


def _checked_real(value: np.ndarray) -> np.ndarray:
    """The real part of expectation values; a large imaginary part means corrupt inputs."""
    bad = ~(np.abs(value.imag) <= TOL.trace_imag)
    if np.any(bad):
        first = value.imag[bad][0]
        raise HermiticityError(float(abs(first)), f"expectation has imaginary part {first:.3e}")
    return value.real


def _real_expectations(vectors: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<v|B|v> for each pure state of an (R, n) stack against its (R, n, n) operator.

    Evaluated per state in the same order as ``expectation``.
    """
    return _checked_real((vectors.conj()[:, None, :] @ B @ vectors[:, :, None])[:, 0, 0])


def expectation(state: QuantumState, B) -> float:
    """tr(rho B), guaranteed real; a large imaginary part means corrupt inputs.

    Raises StateError when B is not an operator on the state's space.
    """
    B = np.asarray(B, dtype=complex)
    if B.shape != (state.dim, state.dim):
        raise StateError(f"state dimension {state.dim} does not match operator shape {B.shape}")
    if state.kind == "pure":
        value = state.data.conj() @ B @ state.data
    else:
        value = np.trace(state.data @ B)
    return float(_checked_real(np.asarray(value)))


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


# restarts per batched seesaw: bounds the (block, d^2, d^2) operator and
# eigenvector stacks a large --restarts run holds at once
SEESAW_BLOCK = 1024
# scenarios per Monte Carlo build and eigensolve: bounds the (block, 9, 9)
# operator stack a large --samples run holds at once
MONTE_CARLO_BLOCK = 4096


@dataclass(frozen=True)
class _SeesawBatch:
    """Per-restart outcome of one batched seesaw run, indexed by restart."""

    values: np.ndarray  # (R,) final objective
    directions: np.ndarray  # (R, 4, 3) final a, a', b, b'
    states: np.ndarray  # (R, d^2) final top eigenvectors
    iterations: np.ndarray  # (R,) iterations run
    converged: np.ndarray  # (R,) whether the improvement fell below tol
    history: np.ndarray  # (iterations, R) objective per iteration, NaN once a restart stopped

    def restart_history(self, k: int) -> tuple[float, ...]:
        return tuple(self.history[: self.iterations[k], k].tolist())


def _start_directions(
    seeds: list[np.random.SeedSequence], initial_scenario: MeasurementScenario | None = None
) -> np.ndarray:
    """The (R, 4, 3) stack of start directions; restart k draws from its own stream."""
    starts = [random_directions(np.random.default_rng(seed), (4,)) for seed in seeds]
    if initial_scenario is not None:
        starts[0] = np.asarray(initial_scenario)
    return check_unit_vectors(np.stack(starts))


def _check_monotone(before: np.ndarray, after: np.ndarray, step: str) -> None:
    """Raise for the first restart whose objective fell by more than rounding."""
    lowered = after < before - 1e-12 * np.maximum(1.0, np.abs(before))
    if np.any(lowered):
        k = int(np.argmax(lowered))
        raise MonotonicityError(
            f"{step} lowered the objective: {float(before[k])!r} -> {float(after[k])!r}"
        )


def _sum_and_difference(pair: np.ndarray) -> np.ndarray:
    """(x + y, x - y) stacked on axis 1 for the (R, 2, 3) direction pair (x, y)."""
    return np.stack((pair[:, 0] + pair[:, 1], pair[:, 0] - pair[:, 1]), axis=1)


def _correlations(family: ObservableFamily, states: np.ndarray) -> np.ndarray:
    """T_ij = Re <v| G_i (x) G_j |v> for each state v of an (R, d^2) stack, as (R, 3, 3).

    The unit axis makes each T one vector-matrix product against the
    family's coupling tensor, bit for bit as for a single state.
    """
    outer = states.conj()[:, :, None] * states[:, None, :]
    T = outer.reshape(len(states), 1, -1) @ family.tensor.T
    return T[:, 0].real.reshape(-1, 3, 3)


def _seesaw(
    family: ObservableFamily, directions: np.ndarray, previous: np.ndarray, config: SearchConfig
) -> _SeesawBatch:
    """Run the seesaw on every restart of an (R, 4, 3) start stack at once.

    ``previous`` holds each restart's objective before the first iteration
    (-inf without an initial state). Each iteration is one Bell build, one
    eigensolve and one direction update over the restarts still active; a
    restart leaves the active set once its improvement falls below tol.
    """
    count, d = len(directions), family.dim
    directions = directions.copy()
    previous = previous.copy()
    values = np.empty(count)
    states = np.empty((count, d * d), dtype=complex)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    history = []
    active = np.arange(count)
    for iteration in range(1, config.max_iterations + 1):
        iterations[active] = iteration
        current, before = directions[active], previous[active]
        eigenvalues, eigenvectors = np.linalg.eigh(family.bell_operator(current))
        top = eigenvalues[:, -1]
        _check_monotone(before, top, "state step")
        v = eigenvectors[:, :, -1]
        _check_state_norms(v)

        # the value sum_ij M_ij T_ij is linear in each direction, so a, a' move to
        # T (b + b'), T (b - b') normalized, then b, b' to T^T (a + a'), T^T (a - a');
        # a zero gradient keeps the old direction
        T = _correlations(family, v)
        a_pair = _sum_and_difference(current[:, 2:]) @ T.swapaxes(-1, -2)
        a_pair = _renormalized(a_pair, current[:, :2])
        b_pair = _renormalized(_sum_and_difference(a_pair) @ T, current[:, 2:])
        updated = check_unit_vectors(np.concatenate((a_pair, b_pair), axis=1))

        value = _real_expectations(v, family.bell_operator(updated))
        _check_monotone(top, value, "direction step")
        directions[active], states[active], values[active] = updated, v, value
        row = np.full(count, np.nan)
        row[active] = value
        history.append(row)
        done = value - before < config.tol
        converged[active[done]] = True
        previous[active] = value
        active = active[~done]
        if not active.size:
            break
    return _SeesawBatch(values, directions, states, iterations, converged, np.stack(history))


def _renormalized(gradient: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Each 3-vector along the last axis scaled to unit norm; a zero one gives its fallback."""
    # one dot product per vector, the sum np.linalg.norm forms for a single vector
    norm = np.sqrt(gradient[..., None, :] @ gradient[..., :, None])[..., 0]
    zero = norm < 1e-14
    return np.where(zero, fallback, gradient / np.where(zero, 1.0, norm))


def maximize_violation(config: SearchConfig = SearchConfig()) -> SearchReport:
    """Run the multi-restart seesaw and report the best expectation found.

    Restarts run as one batch per block of SEESAW_BLOCK. Deterministic for a
    fixed seed: every restart draws from its own spawned stream, and ties
    between restarts resolve to the lowest restart index.
    """
    if config.restarts < 1:
        raise ValueError("need at least one restart")
    if config.max_iterations < 1:
        raise ValueError("need at least one iteration")
    if config.tol <= 0.0:
        raise ValueError("convergence tolerance must be positive")
    family = family_by_name(config.family)

    root = np.random.SeedSequence(config.seed)
    best, best_index = None, 0
    for start in range(0, config.restarts, SEESAW_BLOCK):
        # spawning block by block yields the same children as one spawn
        seeds = root.spawn(min(SEESAW_BLOCK, config.restarts - start))
        first = start == 0
        directions = _start_directions(seeds, config.initial_scenario if first else None)
        previous = np.full(len(seeds), -np.inf)
        if first and config.initial_state is not None:
            previous[0] = expectation(config.initial_state, family.bell_operator(directions[0]))
        batch = _seesaw(family, directions, previous, config)
        k = int(np.argmax(batch.values))
        if best is None or batch.values[k] > best.values[best_index]:
            best, best_index = batch, k

    best_scenario = MeasurementScenario(*best.directions[best_index])
    best_state = QuantumState.pure(best.states[best_index])
    return SearchReport(
        best_value=expectation(best_state, family.bell_operator(best_scenario)),
        best_scenario=best_scenario,
        best_state=best_state,
        iterations=int(best.iterations[best_index]),
        restarts=config.restarts,
        converged=bool(best.converged[best_index]),
        history=best.restart_history(best_index),
    )


# --------------------------------------------------------------------------
# Monte Carlo certification


def monte_carlo_certify(
    n: int,
    seed: int = 0,
    inject: tuple[MeasurementScenario, ...] = (),
    csv_path: str | None = None,
) -> float:
    """Sample n random scenarios and certify every Bell operator norm is 2.

    The norm is not merely bounded by 2: it equals 2 for every scenario, so
    any sample further than TOL.norm_band from 2 raises a
    CertificationError carrying the offending scenario. Returns the largest
    norm observed. Scenarios in ``inject`` replace the first samples.

    Each norm comes from a dense eigensolve of the scenario's Bell operator
    in the Cartesian basis, where it is real symmetric.
    """
    if n < 1:
        raise ValueError("empty sample: n must be at least 1")
    directions = random_directions(np.random.default_rng(seed), (n, 4))
    for i, sc in enumerate(inject[:n]):
        directions[i] = sc

    norms = np.empty(n)
    for start in range(0, n, MONTE_CARLO_BLOCK):
        block = slice(start, start + MONTE_CARLO_BLOCK)
        B = coupling_operator(correlation_matrices(directions[block]), SPIN1_REAL_TENSOR)
        norms[block] = np.max(np.abs(np.linalg.eigvalsh(B)), axis=1)
    if csv_path is not None:
        write_csv(
            csv_path,
            ["index", *DIRECTION_COLUMNS, "norm"],
            ([i, *quad.reshape(-1), norm] for i, (quad, norm) in enumerate(zip(directions, norms))),
        )
    off_band = np.abs(norms - 2.0) > TOL.norm_band
    if np.any(off_band):
        k = int(np.argmax(off_band))
        scenario = dict(zip(DIRECTION_NAMES, directions[k].tolist()))
        raise CertificationError(float(norms[k]), scenario)
    return float(np.max(norms))
