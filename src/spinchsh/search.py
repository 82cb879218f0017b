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
exceeds 2, or one of the caller's own. It runs in the coordinates of the
family's tensor, and in its dtype: float64 for a real tensor, as both
built-in ones are, and complex arithmetic for any other.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .bell import (
    DIRECTION_NAMES,
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


# the one block size of every batched sweep: the vectors per norm computation
# of a random_directions draw, the scenarios per Bell build and eigensolve of
# verify --random and the Monte Carlo certificate, the restarts per batched
# seesaw, and the grid points per canonical build and eigensolve of
# spectrum --grid; it bounds the stacks a large run holds at once
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
    states: np.ndarray  # (R, n) final top eigenvectors, in the family's solve coordinates
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
    """T_ij = Re <v| G_i (x) G_j |v> for each state v of an (R, n) stack, as (R, 3, 3).

    The states and the products are both in the coordinates of the family's
    ``tensor``. The unit axis makes each T one vector-matrix product against
    it, bit for bit as for a single state.
    """
    outer = states.conj()[:, :, None] * states[:, None, :]
    T = outer.reshape(len(states), 1, -1) @ family.tensor.T
    return T[:, 0].real.reshape(-1, 3, 3)


def _seesaw(family: ObservableFamily, directions: np.ndarray) -> _SeesawBatch:
    """Run the seesaw on every restart of an (R, 4, 3) start stack at once.

    Each iteration is one eigensolve, one direction update and one Bell
    build of the updated directions over the restarts still active, whose
    operators the next iteration solves; a restart leaves once its
    improvement falls below TOL.seesaw_improvement. The starts are only read.
    Every step runs in the dtype of the family's tensor, and the states are
    in its coordinates.
    """
    count = len(directions)
    # the active restarts' directions, objectives and operators; they shrink together
    current, before, B = directions, np.full(count, -np.inf), family.bell_operator(directions)
    directions = directions.copy()  # the final directions; the caller's starts stay as drawn
    values = np.empty(count)
    states = np.empty((count, family.dim), dtype=B.dtype)
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
    Only the winner's state is carried out of solve coordinates, as W v
    for a family with a basis W.
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


def _map_blocks(solve, starts: range, keep: int):
    """Iterate ``solve(start)`` for every start, in start order, solving ahead on background threads.

    ``keep`` is the number of CPUs the caller's own loop keeps busy between
    results, so the solves run on ``_usable_cpus() - keep`` threads, never
    more than there are starts. numpy's batched linear algebra releases the
    GIL, so the solves overlap each other and the caller. The first starts
    are submitted when ``_map_blocks`` is called, so they run while the
    caller does its own work before it takes the first result; later starts
    are submitted as results are taken. Besides the result the caller waits
    for or holds, at most one per thread is pending, so a long sweep queues
    a fixed number of blocks, not all of them. An exception reaches the
    caller as the serial loop's would: the lowest failing start's, after
    every earlier result. When it does, or the caller closes the iterator
    early, the starts not yet begun are cancelled and every thread is
    joined. Close it explicitly (``contextlib.closing``) rather than by
    dropping it. The solves run inline, with no thread, with one usable
    CPU, or with one start and ``keep`` 0, where the caller only waits; with
    ``keep`` 1 a single start gets a thread, beside the caller's own work.
    """
    cpus = _usable_cpus()
    if cpus <= 1 or len(starts) + keep <= 1:
        return (solve(start) for start in starts)
    workers = min(cpus - keep, len(starts))
    # imported here: it loads logging, which would lengthen every start-up
    from concurrent.futures import ThreadPoolExecutor

    def solved_ahead():
        pool, pending, rest = ThreadPoolExecutor(workers), collections.deque(), iter(starts)
        try:
            # the result the caller will take first, and one pending per thread
            pending.extend(pool.submit(solve, start) for start in itertools.islice(rest, workers + 1))
            yield
            for start in rest:
                yield pending.popleft().result()
                pending.append(pool.submit(solve, start))
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)

    # primed: run to the first yield, so the first starts are submitted now
    # and close() runs the finally clause even before the first result
    results = solved_ahead()
    next(results)
    return results


def monte_carlo_certify(n: int, seed: int = 0, csv_path: str | None = None) -> float:
    """Sample n random scenarios and certify every Bell operator norm is 2.

    The norm is not merely bounded by 2: it equals 2 for every scenario, so
    any sample further than TOL.norm_band from 2 raises a
    CertificationError carrying the offending scenario. Returns the largest
    norm observed.

    Each norm comes from a dense eigensolve of B @ B, where B is the
    scenario's Bell operator in the Cartesian basis, real symmetric there.
    B @ B is symmetric with the squares of B's eigenvalues, so
    sqrt(max |eigenvalue of B @ B|) is ||B||, B's largest |eigenvalue| at
    either end of its spectrum. B's eigenvalues come in +- pairs, so those
    of B @ B are doubled, and LAPACK's solver takes about a quarter less
    time on them; no result depends on the pairing. ``_eigvalsh``'s bound
    carries over: an eigenvalue of B @ B moved by d moves the norm by at
    most d / ||B||. The blocks of SWEEP_BLOCK scenarios are solved on up to
    one thread per usable CPU (``_map_blocks``); no output depends on how
    many.
    """
    if _integer(n, "n") < 1:
        raise InputError("empty sample: n must be at least 1")
    directions = random_directions(_seeded_rng(seed), (n, 4))

    norms = np.empty(n)

    def solve_block(start: int) -> np.ndarray:
        block = slice(start, start + SWEEP_BLOCK)
        B = coupling_operator(correlation_matrices(directions[block]))
        return np.sqrt(np.max(np.abs(_eigvalsh(B @ B)), axis=1))

    starts = range(0, n, SWEEP_BLOCK)
    # this loop only stores norms, so it keeps no CPU from the solves
    with contextlib.closing(_map_blocks(solve_block, starts, keep=0)) as solved:
        for start, block_norms in zip(starts, solved):
            norms[start : start + SWEEP_BLOCK] = block_norms
    if csv_path is not None:
        blocks = (np.arange(k, min(k + SWEEP_BLOCK, n)) for k in range(0, n, SWEEP_BLOCK))
        rows = (np.column_stack((p, directions[p].reshape(-1, 12), norms[p])) for p in blocks)
        with open_csv(csv_path, ["index", *DIRECTION_COLUMNS, "norm"]) as handle:
            handle.writelines(map(format_rows, rows))
    # written so that a NaN norm fails too
    off_band = ~(np.abs(norms - 2.0) <= TOL.norm_band)
    if np.any(off_band):
        k = int(np.argmax(off_band))
        scenario = dict(zip(DIRECTION_NAMES, directions[k].tolist()))
        raise CertificationError(float(norms[k]), scenario)
    return float(np.max(norms))
