"""The batched seesaw against a per-restart reference, and its checks.

``maximize_violation`` runs every restart of a block as one batch per
iteration. ``reference_restart`` below is the per-restart algorithm kept in
the test: one Bell build, one eigensolve and one direction update per
iteration for a single restart, each direction pair moved along its product
with the restart's own T_ij = Re <v| G_i (x) G_j |v>. Like the seesaw, it
works in the coordinates and the dtype of the family's tensor: float64 for
the built-in families, complex for the coupling tensor of their generators.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from reference import GENERATORS
from spinchsh import (
    PAULI_FAMILY,
    SPIN1_FAMILY,
    MeasurementScenario,
    MonotonicityError,
    ObservableFamily,
    StateError,
    correlation_matrices,
    coupling_operator,
    coupling_tensor,
    maximize_violation,
)
from spinchsh import cli, search

FAMILIES = (SPIN1_FAMILY, PAULI_FAMILY)


def without_basis(family):
    """The coupling tensor of the family's generators, with no basis: the complex seesaw in generator coordinates."""
    tensor = coupling_tensor(GENERATORS[family.name])
    return ObservableFamily(f"{family.name}-complex", tensor, family.known_maximum)


COMPLEX_FAMILIES = tuple(without_basis(family) for family in FAMILIES)


def _correlations(family, v):
    """T_ij = Re <v| G_i (x) G_j |v> for one state in the coordinates of the family's tensor."""
    return np.real(np.outer(v.conj(), v).reshape(-1) @ family.tensor.T).reshape(3, 3)


def _renormalized(gradient, fallback):
    norm = np.linalg.norm(gradient)
    return fallback if norm < 1e-14 else gradient / norm


def reference_restart(family, scenario):
    """One restart of the seesaw, one scenario at a time.

    Returns (value, scenario, iterations, converged, history).
    """
    previous = -np.inf
    history = []
    value, converged, iterations = previous, False, 0
    for iteration in range(1, search.MAX_ITERATIONS + 1):
        iterations = iteration
        eigenvalues, eigenvectors = np.linalg.eigh(family.bell_operator(scenario))
        top = float(eigenvalues[-1])
        assert not top < previous - 1e-12 * max(1.0, abs(previous))
        v = np.ascontiguousarray(eigenvectors[:, -1])  # a product's rounding follows the layout
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        T = _correlations(family, v)
        a, a_prime, b, b_prime = scenario.directions()
        grad_a = np.stack((b + b_prime, b - b_prime)) @ T.T
        a, a_prime = _renormalized(grad_a[0], a), _renormalized(grad_a[1], a_prime)
        grad_b = np.stack((a + a_prime, a - a_prime)) @ T
        b, b_prime = _renormalized(grad_b[0], b), _renormalized(grad_b[1], b_prime)
        scenario = MeasurementScenario(a, a_prime, b, b_prime)
        # expectation's arithmetic for a pure state, in the operator's own dtype
        value = float(search._real_expectations(v[None], family.bell_operator(scenario)[None])[0])
        assert not value < top - 1e-12 * max(1.0, abs(top))
        history.append(value)
        if value - previous < search.TOL.seesaw_improvement:
            converged = True
            break
        previous = value
    return value, scenario, iterations, converged, history


def run_batch(family, restarts, seed):
    """The batched seesaw on the starts maximize_violation draws for ``restarts`` and ``seed``."""
    starts = search.random_directions(np.random.default_rng(seed), (restarts, 4))
    return starts, search._seesaw(family, starts)


def assert_matches_reference(family, restarts, seed):
    starts, batch = run_batch(family, restarts, seed)
    for k, quad in enumerate(starts):
        # restart k starts from row k of the seed's draw, bit for bit
        start = MeasurementScenario(*quad)
        value, scenario, iterations, converged, history = reference_restart(family, start)
        assert abs(batch.values[k] - value) <= 1e-12, k
        assert batch.iterations[k] == iterations, k
        assert batch.converged[k] == converged, k
        # the batch does each restart's arithmetic in the reference's order
        assert batch.restart_history(k) == tuple(history), k
        assert np.array_equal(batch.directions[k], np.stack(scenario.directions())), k
    return batch


def record_seesaw(monkeypatch, starts, planted=None):
    """Record every ``_seesaw`` call as (first restart, directions, batch).

    A call's first restart is the row of ``starts`` its first start equals,
    so a lone re-run of the winner is told apart from a block. With
    ``planted``, each batch's values become the planted values of its restarts.
    """
    original = search._seesaw
    calls = []

    def recording_seesaw(family, directions):
        batch = original(family, directions)
        first = int(np.flatnonzero((starts == directions[0]).all(axis=(1, 2)))[0])
        if planted is not None:
            batch.values[:] = planted[first : first + len(batch.values)]
        calls.append((first, directions.copy(), batch))
        return batch

    monkeypatch.setattr(search, "_seesaw", recording_seesaw)
    return calls


def split_blocks(calls, report, restarts, block):
    """The block calls and the reported restart; assert the winner reruns alone iff it must.

    The winner is the first restart whose final directions are the report's.
    It runs again alone, after every block, exactly when it is not in the last block.
    """
    count = -(-restarts // block)
    blocks, rerun = calls[:count], calls[count:]
    assert [first for first, *_ in blocks] == list(range(0, restarts, block))
    final = np.concatenate([batch.directions for *_, batch in blocks])
    reported = np.stack(report.best_scenario.directions())
    winner = int(np.flatnonzero((final == reported).all(axis=(1, 2)))[0])
    expected = [(winner, 1)] if winner < blocks[-1][0] else []
    assert [(first, len(directions)) for first, directions, *_ in rerun] == expected
    return blocks, winner


def search_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("family", FAMILIES + COMPLEX_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("seed", [0, 5, 301])
def test_matches_per_restart_reference(family, seed):
    assert_matches_reference(family, 25, seed)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("seed", [0, 5, 301])
def test_real_seesaw_matches_the_complex_one(family, seed):
    # the basis changes the arithmetic, not the algorithm: each restart takes
    # the same steps to the same value as the complex run in generator coordinates
    starts = search.random_directions(np.random.default_rng(seed), (64, 4))
    real, complex_ = (search._seesaw(f, starts) for f in (family, without_basis(family)))
    assert real.states.dtype == np.float64 and complex_.states.dtype == complex
    assert np.array_equal(real.iterations, complex_.iterations)
    assert np.array_equal(real.converged, complex_.converged)
    assert np.max(np.abs(real.values - complex_.values)) <= 1e-12
    assert np.nanmax(np.abs(real.history - complex_.history)) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("seed", [0, 5, 301])
def test_reported_state_is_a_top_eigenvector_in_generator_coordinates(family, seed):
    report = maximize_violation(family, 30, seed=seed)
    tensor = coupling_tensor(GENERATORS[family.name])
    B = coupling_operator(correlation_matrices(report.best_scenario), tensor)
    psi = report.best_state.data
    assert np.linalg.norm(B @ psi - report.best_value * psi) <= 1e-12
    assert abs(report.best_value - np.linalg.eigvalsh(B)[-1]) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_active_set_with_staggered_convergence(monkeypatch, family):
    monkeypatch.setattr(search, "TOL", dataclasses.replace(search.TOL, seesaw_improvement=1e-15))
    monkeypatch.setattr(search, "MAX_ITERATIONS", 8)
    batch = assert_matches_reference(family, 60, 7)
    assert len(set(batch.iterations.tolist())) > 1
    # a restart's history stops when it leaves the active set
    for k in range(60):
        assert np.all(np.isnan(batch.history[batch.iterations[k] :, k]))


def test_restarts_stop_at_the_first_improvement_below_the_threshold():
    # random Hermitian generators converge slowly: every restart improves by at
    # least 1e-9 for a dozen iterations or more and makes a step in [1e-9, 1e-6)
    # before its first step below 1e-9, the default TOL.seesaw_improvement
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    # the seesaw never reads known_maximum: 0.0 stands in for this family's unknown one
    tensor = coupling_tensor((A + A.conj().swapaxes(-1, -2)) / 2.0)
    family = ObservableFamily("random-hermitian", tensor, 0.0)
    batch = search._seesaw(family, search.random_directions(np.random.default_rng(0), (40, 4)))
    assert len(set(batch.iterations.tolist())) > 1
    for k in range(40):
        improvements = np.diff(batch.restart_history(k))
        assert np.any((improvements >= 1e-9) & (improvements < 1e-6)), k
        assert np.all(improvements[:-1] >= 1e-9), k
        assert improvements[-1] < 1e-9 or batch.iterations[k] == search.MAX_ITERATIONS, k
        assert np.all(np.isnan(batch.history[batch.iterations[k] :, k])), k


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_restart_converges_at_iteration_two(family, seed):
    """So search.MAX_ITERATIONS never binds."""
    starts = search.random_directions(np.random.default_rng(seed), (2048, 4))
    batch = search._seesaw(family, starts)
    assert np.all(batch.iterations == 2)
    assert np.all(batch.converged)


def test_state_step_failure_names_first_offending_restart(monkeypatch):
    _, clean = run_batch(SPIN1_FAMILY, 10, 3)
    # every restart is active in iteration 2: no restart converges from -inf
    original = np.linalg.eigh
    calls, lowered = [], {}

    def lowering_eigh(B):
        eigenvalues, eigenvectors = original(B)
        calls.append(len(B))
        if len(calls) == 2:
            for k, drop in ((6, 0.5), (8, 1.0)):
                eigenvalues[k, -1] -= drop
                lowered[k] = float(eigenvalues[k, -1])
        return eigenvalues, eigenvectors

    monkeypatch.setattr(np.linalg, "eigh", lowering_eigh)
    with pytest.raises(MonotonicityError) as excinfo:
        maximize_violation(SPIN1_FAMILY, 10, seed=3)
    before = float(clean.history[0, 6])
    assert str(excinfo.value) == (
        f"state step lowered the objective: {before!r} -> {lowered[6]!r}"
    )


def test_direction_step_failure_names_first_offending_restart(monkeypatch):
    original = ObservableFamily.bell_operator
    built = []

    def shrinking_bell_operator(self, sc):
        B = original(self, sc)
        built.append(B)
        if len(built) == 2:  # the rebuild after the first direction update
            B[[4, 7]] *= 0.5
        return B

    monkeypatch.setattr(ObservableFamily, "bell_operator", shrinking_bell_operator)
    with pytest.raises(MonotonicityError) as excinfo:
        maximize_violation(PAULI_FAMILY, 10, seed=4)
    eigenvalues, eigenvectors = np.linalg.eigh(built[0])
    top = float(eigenvalues[4, -1])
    # contiguous, as the seesaw takes them: a real product's rounding follows the layout
    states = np.ascontiguousarray(eigenvectors[:, :, -1])
    value = float(search._real_expectations(states, built[1])[4])
    assert value < top
    assert str(excinfo.value) == f"direction step lowered the objective: {top!r} -> {value!r}"


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_each_operator_is_built_once(monkeypatch, family):
    """One Bell build of the starts, then one per iteration of the updated directions."""
    original = ObservableFamily.bell_operator
    built = []

    def counting_bell_operator(self, sc):
        built.append(len(sc))
        return original(self, sc)

    monkeypatch.setattr(ObservableFamily, "bell_operator", counting_bell_operator)
    _, batch = run_batch(family, 20, 2)
    assert len(batch.history) > 1
    assert len(built) == 1 + len(batch.history)
    assert built[0] == 20


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_small_blocks_match_one_block(monkeypatch, family):
    whole = maximize_violation(family, 30, seed=11)
    monkeypatch.setattr(search, "SWEEP_BLOCK", 7)
    blocked = maximize_violation(family, 30, seed=11)
    assert abs(blocked.best_value - whole.best_value) <= 1e-14
    # every restart computes as it would alone, so even the tie break agrees
    assert blocked.best_value == whole.best_value
    assert blocked.history == whole.history
    assert np.array_equal(blocked.best_state.data, whole.best_state.data)
    # the reported value is the winner's own last seesaw value
    assert whole.best_value == whole.history[-1]


def test_restarts_tied_within_rounding_go_to_the_lowest_index(monkeypatch):
    # restart 9 has the largest value and restart 6, in an earlier block,
    # ties with it to within rounding; restart 3 falls short by more than that
    values = np.ones(12)
    values[3] = 2.0 - 1e-9
    values[6] = 2.0
    values[9] = np.nextafter(np.nextafter(2.0, 3.0), 3.0)
    starts = search.random_directions(np.random.default_rng(19), (12, 4))
    calls = record_seesaw(monkeypatch, starts, planted=values)
    monkeypatch.setattr(search, "SWEEP_BLOCK", 5)
    report = maximize_violation(SPIN1_FAMILY, 12, seed=19)
    blocks, reported = split_blocks(calls, report, 12, 5)
    assert len(blocks) == 3 and int(np.argmax(values)) == 9
    # restart 6 is row 1 of the second block, so it runs again alone
    assert reported == 6 and len(calls) == 4
    winner = blocks[1][-1]
    # the batch keeps states in the family's basis; only the report carries one back
    assert np.array_equal(report.best_state.data, SPIN1_FAMILY.basis @ winner.states[1])
    assert np.array_equal(report.best_scenario.directions(), winner.directions[1])
    assert report.history == winner.restart_history(1)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_stack_kernels_match_single_items_bit_for_bit(family):
    rng = np.random.default_rng(23)
    directions = search.random_directions(rng, (6, 4))
    B = family.bell_operator(directions)
    # states in the solve coordinates, where they are real
    v = rng.standard_normal((6, family.dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    T = search._correlations(family, v)
    pairs = search._sum_and_difference(directions[:, 2:])
    grad_a, grad_b = pairs @ T.swapaxes(-1, -2), pairs @ T
    unit = search._renormalized(grad_a, directions[:, :2])
    for k in range(6):
        assert np.array_equal(B[k], family.bell_operator(MeasurementScenario(*directions[k])))
        assert np.array_equal(T[k], search._correlations(family, v[k : k + 1])[0])
        assert np.array_equal(T[k], _correlations(family, v[k]))
        single_a, single_b = pairs[k] @ T[k].T, pairs[k] @ T[k]
        assert np.array_equal(grad_a[k], single_a)
        assert np.array_equal(grad_b[k], single_b)
        for j in range(2):
            assert np.array_equal(unit[k, j], single_a[j] / np.linalg.norm(single_a[j]))


def test_only_a_gradient_below_the_floor_keeps_its_fallback():
    fallback = np.array([[0.0, 0.0, 1.0]])
    assert np.array_equal(search._renormalized(np.zeros((1, 3)), fallback), fallback)
    # 1e-12 is above the default TOL.zero_gradient: it is normalised, not replaced
    short = search._renormalized(np.array([[1e-12, 0.0, 0.0]]), fallback)
    assert np.array_equal(short, [[1.0, 0.0, 0.0]])


def test_gradients_match_kron_expectations():
    # T_ij = Re <v| G_i (x) G_j |v> and the CHSH value is sum_ij M_ij T_ij, so
    # the direction steps' products with T are the exact gradients
    # the state is in solve coordinates, so the kron products act on W v
    rng = np.random.default_rng(29)
    for family in FAMILIES + COMPLEX_FAMILIES:
        gens, n = GENERATORS[family.name.removesuffix("-complex")], family.dim
        v = rng.standard_normal(n)
        if family.basis is None:
            v = v + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        psi = v if family.basis is None else family.basis @ v
        T = search._correlations(family, v[None])[0]
        expected = [[np.real(psi.conj() @ np.kron(Gi, Gj) @ psi) for Gj in gens] for Gi in gens]
        assert np.max(np.abs(T - expected)) < 1e-13, family.name
        scenario = MeasurementScenario(*search.random_directions(rng, (4,)))
        value = np.real(v.conj() @ family.bell_operator(scenario) @ v)
        assert abs(np.sum(correlation_matrices(scenario) * T) - value) < 1e-13, family.name


def test_seesaw_only_reads_its_inputs():
    starts = search.random_directions(np.random.default_rng(6), (12, 4))
    kept = starts.copy()
    starts.setflags(write=False)
    batch = search._seesaw(SPIN1_FAMILY, starts)
    assert np.array_equal(starts, kept)
    assert not np.array_equal(batch.directions, starts)


@pytest.mark.parametrize("block", [search.SWEEP_BLOCK, 7])
def test_restarts_start_from_the_verify_draw(monkeypatch, block):
    restarts, seed = 30, 17
    draw = search.random_directions(np.random.default_rng(seed), (restarts, 4))
    calls = record_seesaw(monkeypatch, draw)
    monkeypatch.setattr(search, "SWEEP_BLOCK", block)
    report = maximize_violation(SPIN1_FAMILY, restarts, seed=seed)
    blocks, _ = split_blocks(calls, report, restarts, block)
    assert len(blocks) == -(-restarts // block)
    starts = np.concatenate([directions for _, directions, *_ in blocks])
    assert np.array_equal(starts, draw)
    # restart k starts from scenario k of `verify --random N --seed S`
    code, out = search_stdout(["verify", "--random", str(restarts), "--seed", str(seed)])
    assert code == 0
    rows = json.loads(out)["scenarios"]
    verified = np.array([[row[name] for name in ("a", "a_prime", "b", "b_prime")] for row in rows])
    assert np.array_equal(starts, verified)


@pytest.mark.parametrize("family", ["qutrit-spin1", "qubit-pauli"])
def test_search_stdout_byte_identical(family):
    argv = ["search", "--family", family, "--restarts", "40", "--seed", "13"]
    first, second = search_stdout(argv), search_stdout(argv)
    assert first[0] == 0
    assert first == second


def test_batched_state_norm_check_rejects_nan():
    states = np.zeros((4, 9), dtype=complex)
    states[:, 0] = 1.0
    search._check_state_norms(states)
    states[2, 3] = np.nan
    with pytest.raises(StateError, match="nan"):
        search._check_state_norms(states)
    with pytest.raises(StateError):
        search._check_state_norms(np.full((3, 9), np.nan, dtype=complex))
