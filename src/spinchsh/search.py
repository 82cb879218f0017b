"""Global numerical search for CHSH violations over states and directions.

The seesaw alternates two exact steps: for fixed directions the best state
is the top eigenvector of the Bell operator, and for a fixed pure state v the
expectation is sum_ij M_ij T_ij with T_ij = Re <v| G_i (x) G_j |v> and
M = a (b + b')^T + a' (b - b')^T. That is linear in each party's pair of
directions, so each pair moves to its normalized product with the 3x3 matrix
T, which the family's coupling tensor gives in one product. Both steps can
only raise the objective, which the code asserts on every iteration.
Restarts start from the seed's ``random_directions`` draw, as ``verify`` does.

The same optimizer runs on any ObservableFamily of ``bell``: the spin-1
qutrit family the bound-2 certification is about, the qubit Pauli family
that serves as a positive control because its known maximum 2*sqrt(2)
exceeds 2, or one of the caller's own. It runs in the family's solve basis:
in float64 for a family with a real basis, as both built-in ones have, and
in complex arithmetic in generator coordinates for one without.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .bell import (
    DIRECTION_NAMES,
    SPIN1_REAL_TENSOR,
    MeasurementScenario,
    ObservableFamily,
    correlation_matrices,
    coupling_operator,
)
from .errors import CertificationError, HermiticityError, InputError, MonotonicityError, StateError
from .serialize import DIRECTION_COLUMNS, format_rows, open_csv
from .spectrum import _eigvalsh
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A validated pure state vector or density matrix, read-only; equal only to itself."""

    kind: str
    data: np.ndarray

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        vector = np.array(vector, dtype=complex)
        if vector.ndim != 1 or vector.size == 0:
            raise StateError(f"pure state must be a nonempty vector, got shape {vector.shape}")
        _check_state_norms(vector)
        vector.setflags(write=False)
        return cls(kind="pure", data=vector)

    @classmethod
    def mixed(cls, matrix) -> "QuantumState":
        matrix = np.array(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise StateError(f"mixed state must be a square matrix, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise StateError("mixed state has non-finite entries")
        # every comparison below is written so that NaN fails it
        asymmetry = np.linalg.norm(matrix - matrix.conj().T)
        if not asymmetry <= TOL.state_norm:
            raise StateError(f"mixed state is not Hermitian: asymmetry {asymmetry:.3e}")
        trace_error = abs(np.trace(matrix) - 1.0)
        if not trace_error <= TOL.state_norm:
            raise StateError(f"mixed state trace deviates from 1 by {trace_error:.3e}")
        smallest = float(np.min(_eigvalsh(matrix)))
        if not smallest >= TOL.psd_floor:
            raise StateError(f"mixed state has negative eigenvalue {smallest:.3e}")
        matrix.setflags(write=False)
        return cls(kind="mixed", data=matrix)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


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
    if not np.iscomplexobj(value):
        return value
    bad = ~(np.abs(value.imag) <= TOL.trace_imag)
    if np.any(bad):
        first = value.imag[bad][0]
        raise HermiticityError(float(abs(first)), f"expectation has imaginary part {first:.3e}")
    return value.real


def _real_expectations(vectors: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<v|B|v> for each pure state of an (R, n) stack against its (R, n, n) operator, real or complex."""
    return _checked_real((vectors.conj()[:, None, :] @ B @ vectors[:, :, None])[:, 0, 0])


def expectation(state: QuantumState, B) -> float:
    """tr(rho B), guaranteed real; a large imaginary part means corrupt inputs.

    Raises StateError when B is not an operator on the state's space.
    """
    B = np.asarray(B, dtype=complex)
    if B.shape != (state.dim, state.dim):
        raise StateError(f"state dimension {state.dim} does not match operator shape {B.shape}")
    if state.kind == "pure":
        return float(_real_expectations(state.data[None], B[None])[0])
    return float(_checked_real(np.asarray(np.trace(state.data @ B))))


# --------------------------------------------------------------------------
# random sampling


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, float, string or other non-integer raises InputError."""
    # operator.index would take a bool as 0 or 1, which as a count or seed is a slip
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{name} must be an integer, got {value!r}")


def _seeded_rng(seed) -> np.random.Generator:
    """The generator of a seed, which must be an integer of at least 0."""
    if _integer(seed, "seed") < 0:
        raise InputError(f"seed must be at least 0, got {seed}")
    return np.random.default_rng(seed)


# the one block size of every batched loop over a random_directions draw: the
# vectors per norm computation of the draw, the scenarios per Bell build and
# eigensolve of verify --random and the Monte Carlo certificate, and the
# restarts per batched seesaw; it bounds the stacks a large run holds at once
SWEEP_BLOCK = 1024


def random_directions(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform random unit 3-vectors, shape ``shape + (3,)``.

    Gaussian draws normalised along the last axis; a draw too short to
    normalise is replaced by a fresh one. The norms are taken per block of
    SWEEP_BLOCK vectors and the draw is divided in place, so a large draw is
    held once, with no full-size temporaries.
    """
    v = rng.standard_normal(tuple(shape) + (3,))
    vectors = v.reshape(-1, 3)
    norms = np.empty(len(vectors))
    for start in range(0, len(vectors), SWEEP_BLOCK):
        block = slice(start, start + SWEEP_BLOCK)
        norms[block] = np.linalg.norm(vectors[block], axis=-1)
    short = norms < TOL.short_draw
    while short.any():
        vectors[short] = rng.standard_normal((int(short.sum()), 3))
        norms[short] = np.linalg.norm(vectors[short], axis=-1)
        short = norms < TOL.short_draw
    vectors /= norms[:, None]
    return vectors.reshape(v.shape)


# --------------------------------------------------------------------------
# seesaw optimization


# a fixed cap, not an option: every restart of the two built-in families,
# solved in their real bases, converges at iteration 2 (32768 restarts each,
# seeds 0-7), so for them the cap never binds; another family may climb longer
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class SearchReport:
    best_value: float
    best_scenario: MeasurementScenario
    best_state: QuantumState
    iterations: int
    converged: bool
    history: tuple[float, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class _SeesawBatch:
    """Per-restart outcome of one batched seesaw run, indexed by restart."""

    values: np.ndarray  # (R,) final objective
    directions: np.ndarray  # (R, 4, 3) final a, a', b, b'
    states: np.ndarray  # (R, d^2) final top eigenvectors, in the family's solve basis
    iterations: np.ndarray  # (R,) iterations run
    converged: np.ndarray  # (R,) whether the improvement fell below TOL.seesaw_improvement
    history: np.ndarray  # (iterations, R) objective per iteration, NaN once a restart stopped

    def restart_history(self, k: int) -> tuple[float, ...]:
        return tuple(self.history[: self.iterations[k], k].tolist())


def _check_monotone(before: np.ndarray, after: np.ndarray, step: str) -> None:
    """Raise for the first restart whose objective fell by more than rounding."""
    lowered = after < before - TOL.seesaw_monotonicity * np.maximum(1.0, np.abs(before))
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

    The states are in the family's solve basis W, so G_i (x) G_j is read as
    W^dagger (G_i (x) G_j) W, the family's ``solve_tensor``. The unit axis
    makes each T one vector-matrix product against it, bit for bit as for a
    single state.
    """
    outer = states.conj()[:, :, None] * states[:, None, :]
    T = outer.reshape(len(states), 1, -1) @ family.solve_tensor.T
    return T[:, 0].real.reshape(-1, 3, 3)


def _seesaw(family: ObservableFamily, directions: np.ndarray) -> _SeesawBatch:
    """Run the seesaw on every restart of an (R, 4, 3) start stack at once.

    Each iteration is one eigensolve, one direction update and one Bell
    build of the updated directions over the restarts still active, whose
    operators the next iteration solves; a restart leaves once its
    improvement falls below TOL.seesaw_improvement. The starts are only read.
    Every step runs in the dtype of the family's Bell operators, float64 for
    a family with a basis, and the states are in that basis's coordinates.
    """
    count, d = len(directions), family.dim
    # the active restarts' directions, objectives and operators; they shrink together
    current, before, B = directions, np.full(count, -np.inf), family.bell_operator(directions)
    directions = directions.copy()  # the final directions; the caller's starts stay as drawn
    values = np.empty(count)
    states = np.empty((count, d * d), dtype=B.dtype)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    history = []
    active = np.arange(count)
    for iteration in range(1, MAX_ITERATIONS + 1):
        iterations[active] = iteration
        eigenvalues, eigenvectors = np.linalg.eigh(B)
        top = eigenvalues[:, -1]
        _check_monotone(before, top, "state step")
        v = np.ascontiguousarray(eigenvectors[:, :, -1])  # <v|B|v> rounds as in expectation
        _check_state_norms(v)

        # the value sum_ij M_ij T_ij is linear in each direction, so a, a' move to
        # T (b + b'), T (b - b') normalized, then b, b' to T^T (a + a'), T^T (a - a');
        # a zero gradient keeps the old direction
        T = _correlations(family, v)
        a_pair = _sum_and_difference(current[:, 2:]) @ T.swapaxes(-1, -2)
        a_pair = _renormalized(a_pair, current[:, :2])
        b_pair = _renormalized(_sum_and_difference(a_pair) @ T, current[:, 2:])
        updated = np.concatenate((a_pair, b_pair), axis=1)

        # the next iteration's operators, built once; the build checks the unit norms
        B = family.bell_operator(updated)
        value = _real_expectations(v, B)
        _check_monotone(top, value, "direction step")
        directions[active], states[active], values[active] = updated, v, value
        row = np.full(count, np.nan)
        row[active] = value
        history.append(row)
        done = value - before < TOL.seesaw_improvement
        converged[active[done]] = True
        active, B, current, before = active[~done], B[~done], updated[~done], value[~done]
        if not active.size:
            break
    return _SeesawBatch(values, directions, states, iterations, converged, np.stack(history))


def _renormalized(gradient: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Each 3-vector along the last axis scaled to unit norm; a zero one gives its fallback."""
    # one dot product per vector, the sum np.linalg.norm forms for a single vector
    norm = np.sqrt(gradient[..., None, :] @ gradient[..., :, None])[..., 0]
    zero = norm < TOL.zero_gradient
    return np.where(zero, fallback, gradient / np.where(zero, 1.0, norm))


def maximize_violation(family: ObservableFamily, restarts: int, seed: int = 0) -> SearchReport:
    """Run the multi-restart seesaw on ``family`` and report the best expectation found.

    Restarts run as one batch per block of SWEEP_BLOCK, and of earlier blocks
    only each restart's final value is kept; a winner outside the last block
    runs again alone, which repeats its batched run bit for bit.
    Deterministic for a fixed seed: restart k starts from row k of one
    ``random_directions`` draw, scenario k of ``verify --random``, and the
    winner is the lowest restart index whose value is within
    TOL.seesaw_monotonicity (relative) of the best value over all restarts.
    Only the winner's state is carried from the family's basis W back to
    generator coordinates, as W v.
    """
    if not isinstance(family, ObservableFamily):
        raise InputError(f"family must be an ObservableFamily, got {family!r}")
    if _integer(restarts, "restarts") < 1:
        raise InputError("need at least one restart")

    starts = random_directions(_seeded_rng(seed), (restarts, 4))
    values = np.empty(restarts)
    firsts = range(0, restarts, SWEEP_BLOCK)
    for first in firsts:
        block = slice(first, first + SWEEP_BLOCK)
        best = _seesaw(family, starts[block])
        values[block] = best.values

    # many restarts reach the optimum to within a few ulps; the lowest index
    # among them wins, so a last-bit change elsewhere keeps the reported one
    top = float(values.max())
    winner = int(np.argmax(values >= top - TOL.seesaw_monotonicity * max(1.0, abs(top))))
    # only the last block's batch is kept, so a winner outside it runs again alone
    offset = firsts[-1]  # the restart index of best's row 0
    if winner < offset:
        best, offset = _seesaw(family, starts[winner : winner + 1]), winner
    k = winner - offset
    state = best.states[k]
    if family.basis is not None:
        state = family.basis @ state
    return SearchReport(
        best_value=float(values[winner]),
        best_scenario=MeasurementScenario(*best.directions[k]),
        best_state=QuantumState.pure(state),
        iterations=int(best.iterations[k]),
        converged=bool(best.converged[k]),
        history=best.restart_history(k),
    )


# --------------------------------------------------------------------------
# Monte Carlo certification


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(solve, starts: range) -> None:
    """Call ``solve(start)`` for every start, on up to one thread per usable CPU.

    Each call must write only its own block's outputs. numpy's batched
    eigensolver releases the GIL, so the blocks' solves overlap. An
    exception reaches the caller as the serial loop's would: the lowest
    failing start's, once every earlier start has run; the starts not yet
    begun are cancelled and every worker is joined before it propagates.
    With one worker the loop runs inline, with no thread.
    """
    workers = min(_usable_cpus(), len(starts))
    if workers <= 1:
        for start in starts:
            solve(start)
        return
    # imported here: it loads logging, which would lengthen every start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        # map yields in start order and cancels what is pending when a call
        # raises; leaving the pool joins the workers
        for _ in pool.map(solve, starts):
            pass


def monte_carlo_certify(n: int, seed: int = 0, csv_path: str | None = None) -> float:
    """Sample n random scenarios and certify every Bell operator norm is 2.

    The norm is not merely bounded by 2: it equals 2 for every scenario, so
    any sample further than TOL.norm_band from 2 raises a
    CertificationError carrying the offending scenario. Returns the largest
    norm observed.

    Each norm comes from a dense eigensolve of the scenario's Bell operator
    in the Cartesian basis, where it is real symmetric. The blocks of
    SWEEP_BLOCK scenarios are solved on up to one thread per usable CPU
    (``_run_blocks``); no output depends on how many.
    """
    if _integer(n, "n") < 1:
        raise InputError("empty sample: n must be at least 1")
    directions = random_directions(_seeded_rng(seed), (n, 4))

    norms = np.empty(n)

    def solve_block(start: int) -> None:
        block = slice(start, start + SWEEP_BLOCK)
        B = coupling_operator(correlation_matrices(directions[block]), SPIN1_REAL_TENSOR)
        norms[block] = np.max(np.abs(_eigvalsh(B)), axis=1)

    _run_blocks(solve_block, range(0, n, SWEEP_BLOCK))
    if csv_path is not None:
        columns = (np.arange(n), directions.reshape(n, 12), norms)
        blocks = (slice(k, k + SWEEP_BLOCK) for k in range(0, n, SWEEP_BLOCK))
        rows = (np.column_stack([column[b] for column in columns]) for b in blocks)
        with open_csv(csv_path, ["index", *DIRECTION_COLUMNS, "norm"]) as handle:
            handle.writelines(map(format_rows, rows))
    # written so that a NaN norm fails too
    off_band = ~(np.abs(norms - 2.0) <= TOL.norm_band)
    if np.any(off_band):
        k = int(np.argmax(off_band))
        scenario = dict(zip(DIRECTION_NAMES, directions[k].tolist()))
        raise CertificationError(float(norms[k]), scenario)
    return float(np.max(norms))
