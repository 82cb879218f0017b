import contextlib
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gaussian_scenario, scenarios
from reference import (
    CARTESIAN_PAIR,
    PAULI_GENERATORS,
    SPIN_BASIS_TENSOR,
    best_state_value,
    random_density_matrix,
    random_pure_state,
    rank_three_correlations,
    spin_generators,
)
from spinchsh import (
    CertificationError,
    HermiticityError,
    InputError,
    MeasurementScenario,
    MonotonicityError,
    NormalizationError,
    ObservableFamily,
    PAULI_FAMILY,
    QuantumState,
    SPIN1_FAMILY,
    TOL,
    StateError,
    bell_operator,
    correlation_matrices,
    coupling_operator,
    coupling_tensor,
    expectation,
    maximize_violation,
    monte_carlo_certify,
    random_directions,
)
import spinchsh
from spinchsh import search

TSIRELSON = 2.0 * np.sqrt(2.0)


def spin_basis_operator(sc):
    """K(M) of a scenario in the |+1>, |0>, |-1> basis, where ``ket`` states are written."""
    return coupling_operator(correlation_matrices(sc), SPIN_BASIS_TENSOR)


def ket(index: int, dim: int = 9) -> QuantumState:
    v = np.zeros(dim)
    v[index] = 1.0
    return QuantumState.pure(v)


def planar_qubit_grid_max(steps: int = 16) -> float:
    """Dense angle-grid brute force over planar qubit observables.

    With step pi/8 the grid contains the configuration known to attain the
    quantum maximum, so the returned value is an independent oracle for it.
    """
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    angles = np.arange(steps) * (2.0 * np.pi / steps)
    obs = np.einsum("k,ab->kab", np.cos(angles), sz) + np.einsum(
        "k,ab->kab", np.sin(angles), sx
    )
    plus = obs[:, None] + obs[None, :]
    minus = obs[:, None] - obs[None, :]
    best = -np.inf
    for i, j in itertools.product(range(steps), repeat=2):
        B = (
            np.einsum("ab,klcd->klacbd", obs[i], plus)
            + np.einsum("ab,klcd->klacbd", obs[j], minus)
        ).reshape(steps * steps, 4, 4)
        best = max(best, float(np.linalg.eigvalsh(B).max()))
    return best


class TestQuantumState:
    def test_pure_rejects_bad_norm(self):
        with pytest.raises(StateError):
            QuantumState.pure(np.ones(9))
        # ten times past the default TOL.state_norm
        with pytest.raises(StateError, match="deviates from 1 by 1.000e-11"):
            QuantumState.pure([1.0 + 1e-11] + [0.0] * 8)

    @pytest.mark.parametrize(
        "data",
        [np.eye(3) / np.sqrt(3.0), np.ones((1, 9)) / 3.0, np.array(1.0), np.zeros(0)],
        ids=["3x3", "1x9", "scalar", "empty"],
    )
    def test_pure_rejects_a_non_vector(self, data):
        # a unit-norm matrix used to be flattened into a state vector
        with pytest.raises(StateError, match="vector"):
            QuantumState.pure(data)

    def test_mixed_validation(self):
        with pytest.raises(StateError):
            QuantumState.mixed(np.eye(9))  # trace 9
        with pytest.raises(StateError, match="trace deviates from 1 by 1.000e-11"):
            QuantumState.mixed(np.diag([1.0 + 1e-11] + [0.0] * 8))
        with pytest.raises(StateError):
            QuantumState.mixed(np.triu(np.ones((9, 9))) / 9.0)  # not Hermitian
        bad = np.diag([1.5, -0.5] + [0.0] * 7)
        with pytest.raises(StateError):
            QuantumState.mixed(bad)  # negative eigenvalue

    def test_mixed_rejects_a_slightly_negative_eigenvalue(self):
        # unit trace and Hermitian, but its smallest eigenvalue is negative;
        # -1e-9 is ten times past the default TOL.psd_floor
        rng = np.random.default_rng(8)
        U, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        for smallest in (-1e-6, -1e-9):
            eigenvalues = np.array([smallest] + [(1.0 - smallest) / 8.0] * 8)
            rho = (U * eigenvalues) @ U.conj().T
            rho = (rho + rho.conj().T) / 2.0
            with pytest.raises(StateError, match=f"negative eigenvalue {smallest:.3e}"):
                QuantumState.mixed(rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pure_rejects_non_finite(self, bad):
        v = np.zeros(9, dtype=complex)
        v[0] = 1.0
        v[4] = bad
        with pytest.raises(StateError):
            QuantumState.pure(v)
        with pytest.raises(StateError):
            QuantumState.pure(np.full(9, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mixed_rejects_non_finite(self, bad):
        with pytest.raises(StateError):
            QuantumState.mixed(np.full((9, 9), bad))
        rho = np.eye(9, dtype=complex) / 9.0
        rho[2, 2] = bad
        with pytest.raises(StateError):
            QuantumState.mixed(rho)

    def test_pure_owns_a_read_only_copy(self, tight_scenario):
        v = np.zeros(9, dtype=complex)
        v[0] = 1.0
        state = QuantumState.pure(v)
        v[0] = 3.0  # a complex vector used to be kept as a view
        B = spin_basis_operator(tight_scenario)
        assert expectation(state, B) == 2.0
        with pytest.raises(ValueError):
            state.data[0] = 3.0
        assert expectation(state, B) == 2.0

    def test_mixed_owns_a_read_only_copy(self, tight_scenario):
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.0
        state = QuantumState.mixed(rho)
        rho[0, 0] = 3.0
        B = spin_basis_operator(tight_scenario)
        assert expectation(state, B) == 2.0
        with pytest.raises(ValueError):
            state.data[0, 0] = 3.0
        assert expectation(state, B) == 2.0

    def test_states_compare_by_identity(self):
        state, twin = ket(0), ket(0)
        assert state == state and state != twin
        assert len({state, twin}) == 2

    def test_mixed_accepts_maximally_mixed(self):
        state = QuantumState.mixed(np.eye(9) / 9.0)
        assert state.dim == 9

    def test_sampled_states_are_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = random_density_matrix(9, rng).data
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
            psi = random_pure_state(9, rng).data
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


class TestExpectation:
    def test_tight_product_state(self, tight_scenario):
        B = spin_basis_operator(tight_scenario)
        assert abs(expectation(ket(0), B) - 2.0) < 1e-12

    def test_maximally_mixed_gives_zero(self, tight_scenario):
        state = QuantumState.mixed(np.eye(9) / 9.0)
        assert abs(expectation(state, bell_operator(tight_scenario))) < 1e-12

    def test_random_states_within_the_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            B = bell_operator(gaussian_scenario(rng))
            state = random_density_matrix(9, rng)
            assert abs(expectation(state, B)) <= 2.0 + 1e-9

    def test_random_pure_states_within_the_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            B = bell_operator(gaussian_scenario(rng))
            assert abs(expectation(random_pure_state(9, rng), B)) <= 2.0 + 1e-9

    def test_imaginary_part_guard(self):
        corrupted = np.zeros((9, 9), dtype=complex)
        corrupted[0, 1] = 1.0  # not Hermitian
        state = QuantumState.mixed(np.diag([0.5, 0.5] + [0.0] * 7) + 0j)
        rho = state.data.copy()
        rho[0, 1] = 0.5j
        rho[1, 0] = -0.5j
        with pytest.raises(HermiticityError):
            expectation(QuantumState.mixed(rho), corrupted)
        # an imaginary part ten times past the default TOL.trace_imag
        with pytest.raises(HermiticityError, match="imaginary part 1.000e-09"):
            expectation(ket(0), np.eye(9) * (1.0 + 1e-9j))

    @pytest.mark.parametrize(
        "state",
        [ket(0, dim=4), ket(0, dim=27), QuantumState.mixed(np.eye(2) / 2.0)],
        ids=["pure-4", "pure-27", "mixed-2x2"],
    )
    def test_dimension_mismatch_rejected(self, tight_scenario, state):
        with pytest.raises(StateError, match="dimension"):
            expectation(state, bell_operator(tight_scenario))


class TestBestStateValue:
    def test_tight_operator(self, tight_scenario):
        B = bell_operator(tight_scenario)
        value, state = best_state_value(B)
        assert abs(value - 2.0) < 1e-12
        assert abs(expectation(state, B) - 2.0) < 1e-10

    def test_zero_operator(self):
        value, state = best_state_value(np.zeros((9, 9)))
        assert value == 0.0
        assert abs(np.linalg.norm(state.data) - 1.0) < 1e-12

    def test_negative_extreme(self):
        value, state = best_state_value(np.diag([-3.0, 1.0, 2.0]))
        assert value == 3.0
        assert abs(expectation(state, np.diag([-3.0, 1.0, 2.0])) + 3.0) < 1e-12

    def test_empty_matrix_rejected(self):
        # the gate of eig_hermitian rejects it before eigh
        with pytest.raises(InputError, match="nonempty"):
            best_state_value(np.zeros((0, 0)))

    def test_non_hermitian_rejected(self):
        # eigh reads only the lower triangle, here the identity; the gate reads the whole matrix
        with pytest.raises(HermiticityError):
            best_state_value(np.triu(np.ones((3, 3))))

    @given(scenarios())
    def test_norm_is_always_two(self, sc):
        value, _ = best_state_value(bell_operator(sc))
        assert abs(value - 2.0) < 1e-9

    def test_bounds_all_expectations(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            B = bell_operator(gaussian_scenario(rng))
            value, _ = best_state_value(B)
            state = (
                random_density_matrix(9, rng) if rng.random() < 0.5 else random_pure_state(9, rng)
            )
            assert abs(expectation(state, B)) <= value + 1e-10


class TestFamilies:
    def test_search_takes_any_family(self):
        # a family the CLI does not name searches exactly as the one it copies
        tensor, maximum = PAULI_FAMILY.tensor, PAULI_FAMILY.known_maximum
        copy = ObservableFamily("qubit-pauli-copy", tensor, maximum, PAULI_FAMILY.basis)
        mine, theirs = (maximize_violation(f, 30, seed=2) for f in (copy, PAULI_FAMILY))
        assert mine.best_value == theirs.best_value
        assert np.array_equal(mine.best_scenario.directions(), theirs.best_scenario.directions())
        assert np.array_equal(mine.best_state.data, theirs.best_state.data)
        assert (mine.iterations, mine.history) == (theirs.iterations, theirs.history)
        with pytest.raises(InputError, match="must be an ObservableFamily, got 'qubit-pauli'"):
            maximize_violation("qubit-pauli", 30)

    def test_families_compare_and_hash_by_identity(self):
        copy = ObservableFamily("qutrit-spin1", SPIN1_FAMILY.tensor, 2.0)
        assert copy != SPIN1_FAMILY and SPIN1_FAMILY == SPIN1_FAMILY
        assert len({SPIN1_FAMILY, PAULI_FAMILY, copy, SPIN1_FAMILY}) == 3

    def test_spin1_family_matches_bell_operator(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sc = gaussian_scenario(rng)
            # the family builds in the Cartesian basis of the four-term build; the
            # spin-basis K(M) is its conjugate by C (x) C
            assert SPIN1_FAMILY.bell_operator(sc).dtype == np.float64
            assert np.linalg.norm(SPIN1_FAMILY.bell_operator(sc) - bell_operator(sc)) < 1e-13
            four_term = CARTESIAN_PAIR @ bell_operator(sc) @ CARTESIAN_PAIR.conj().T
            assert np.linalg.norm(spin_basis_operator(sc) - four_term) < 1e-13

    def test_pauli_observables_square_to_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = random_directions(rng, ())
            sigma = np.einsum("i,iab->ab", u, PAULI_GENERATORS)
            assert np.linalg.norm(sigma @ sigma - np.eye(2)) < 1e-12

    def test_spin1_generators_match(self):
        # the family's basis carries its tensor to the coupling tensor of the spin-1 matrices
        W = SPIN1_FAMILY.basis
        carried = W @ SPIN1_FAMILY.tensor.reshape(9, 9, 9) @ W.conj().T
        spin = coupling_tensor(spin_generators()).reshape(9, 9, 9)
        assert np.max(np.abs(carried - spin)) <= 1e-15

    def test_pauli_family_matches_four_term_kron(self):
        rng = np.random.default_rng(10)
        pauli = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for _ in range(20):
            sc = gaussian_scenario(rng)
            sa, sap, sb, sbp = (sum(u[i] * pauli[i] for i in range(3)) for u in sc.directions())
            direct = np.kron(sa, sb) + np.kron(sa, sbp) + np.kron(sap, sb) - np.kron(sap, sbp)
            # the family builds in the magic basis W: W B W^dagger in the computational one
            W = PAULI_FAMILY.basis
            B = PAULI_FAMILY.bell_operator(sc)
            assert B.dtype == np.float64
            assert np.linalg.norm(W @ B @ W.conj().T - direct) < 1e-13

    @pytest.mark.parametrize("family", [SPIN1_FAMILY, PAULI_FAMILY], ids=lambda f: f.name)
    def test_bell_operator_checks_its_directions(self, family):
        # an all-ones stack used to give the spin-1 family an operator of norm 6
        for bad in (np.ones((4, 3)), np.full((2, 4, 3), np.nan)):
            with pytest.raises(NormalizationError):
                family.bell_operator(bad)
        with pytest.raises(InputError, match=r"\(\.\.\., 4, 3\)"):
            family.bell_operator(np.tile([0.0, 0.0, 1.0], (5, 1)))

    def test_known_maxima(self):
        assert SPIN1_FAMILY.known_maximum == 2.0
        assert abs(PAULI_FAMILY.known_maximum - TSIRELSON) < 1e-15


class TestSeesaw:
    def test_qubit_control_reaches_tsirelson(self):
        grid_max = planar_qubit_grid_max()
        assert abs(grid_max - TSIRELSON) < 1e-9
        report = maximize_violation(PAULI_FAMILY, 50, seed=2)
        assert report.best_value >= grid_max - 1e-6
        assert abs(report.best_value - TSIRELSON) < 1e-6

    def test_qutrit_capped_at_two(self):
        report = maximize_violation(SPIN1_FAMILY, 50, seed=3)
        assert report.best_value <= 2.0 + 1e-9
        assert abs(report.best_value - 2.0) < 1e-6

    def test_tight_start_converges_immediately(self, tight_scenario):
        batch = search._seesaw(SPIN1_FAMILY, tight_scenario.directions()[None])
        assert batch.iterations[0] <= 2
        assert abs(batch.values[0] - 2.0) < 1e-9

    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1))
    def test_history_is_monotone(self, seed):
        report = maximize_violation(PAULI_FAMILY, 2, seed=seed)
        history = np.asarray(report.history)
        assert np.all(np.diff(history) >= -1e-12)

    def test_deterministic_across_runs_and_jobs(self):
        first = maximize_violation(PAULI_FAMILY, 12, seed=9)
        second = maximize_violation(PAULI_FAMILY, 12, seed=9)
        assert first.best_value == second.best_value
        for u, v in zip(first.best_scenario.directions(), second.best_scenario.directions()):
            assert np.array_equal(u, v)

    def test_report_value_recomputed_independently(self):
        report = maximize_violation(SPIN1_FAMILY, 5, seed=7)
        W = CARTESIAN_PAIR  # the state is in the spin basis, the four-term build in the Cartesian one
        recomputed = expectation(report.best_state, W @ bell_operator(report.best_scenario) @ W.conj().T)
        assert abs(report.best_value - recomputed) < 1e-10

    def test_config_validation(self):
        with pytest.raises(InputError):
            maximize_violation(SPIN1_FAMILY, 0)

    @pytest.mark.parametrize(
        "config",
        [
            {"restarts": 2.5},
            {"seed": -1},
            {"seed": 1.5},
            {"restarts": True},
            {"seed": True},
            {"seed": False},
        ],
    )
    def test_count_and_seed_rules_are_the_library_s(self, config):
        with pytest.raises(InputError):
            maximize_violation(SPIN1_FAMILY, **{"restarts": 2, **config})


def record_threads(monkeypatch) -> set:
    """The idents of the threads that run the Monte Carlo eigensolves from now on."""
    threads, solve = set(), search._eigvalsh

    def recording(B):
        threads.add(threading.get_ident())
        return solve(B)

    monkeypatch.setattr(search, "_eigvalsh", recording)
    return threads


def plant_draw(monkeypatch, scenario):
    """Make the next ``random_directions`` draw the one planted (4, 3) scenario."""
    monkeypatch.setattr(search, "random_directions", lambda rng, shape: np.array(scenario)[None])


class TestMonteCarlo:
    def test_tight_scenario_injected(self, monkeypatch, tight_scenario):
        plant_draw(monkeypatch, tight_scenario)
        value = monte_carlo_certify(1, seed=0)
        assert abs(value - 2.0) < 1e-9

    def test_random_sample_stays_in_band(self):
        value = monte_carlo_certify(5000, seed=12)
        assert abs(value - 2.0) < 1e-9

    def test_tiny_components_stay_in_band(self, monkeypatch):
        # components near 1e-160 underflow LAPACK's eigenvalue-only solver,
        # which put this scenario's norm at 2.0009 and raised CertificationError
        sc = [
            [-9.136518948409038e-163, 1.0, -7.744881766749292e-164],
            [-9.351450068663418e-175, -1.0, -1.19105282076901e-161],
            [0.9522461412912218, 8.750611558973732e-158, 0.30533143695986925],
            [2.062136162875216e-150, -1.0, -5.069339989282051e-164],
        ]
        plant_draw(monkeypatch, sc)
        value = monte_carlo_certify(1, seed=0)
        assert abs(value - 2.0) < TOL.norm_band

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError):
            monte_carlo_certify(0)

    @pytest.mark.parametrize(
        "n, seed",
        [(2.5, 0), ("10", 0), (10, -1), (10, 1.5), (10, None), (True, 0), (10, True), (10, False)],
    )
    def test_count_and_seed_rules_are_the_library_s(self, n, seed):
        with pytest.raises(InputError):
            monte_carlo_certify(n, seed=seed)

    def test_numpy_integers_are_counts_and_seeds(self):
        assert monte_carlo_certify(np.int64(30), seed=np.uint8(3)) == monte_carlo_certify(30, seed=3)

    def test_band_failure_carries_scenario(self, monkeypatch):
        # an impossibly tight band makes honest float noise fail the check
        monkeypatch.setattr(search, "TOL", dataclasses.replace(TOL, norm_band=1e-17))
        with pytest.raises(CertificationError) as excinfo:
            monte_carlo_certify(50, seed=1)
        payload = excinfo.value.scenario
        assert set(payload) == {"a", "a_prime", "b", "b_prime"}
        assert abs(excinfo.value.norm - 2.0) < 1e-9

    def test_a_rank_three_term_fails_the_band(self, monkeypatch):
        # the rank-3 control: a third rank-one term in every M moves the norms
        # off 2, so the first sample fails and is named
        monkeypatch.setattr(search, "correlation_matrices", rank_three_correlations)
        with pytest.raises(CertificationError) as excinfo:
            monte_carlo_certify(50, seed=1)
        first = random_directions(np.random.default_rng(1), (1, 4))[0]
        assert excinfo.value.scenario == dict(zip(("a", "a_prime", "b", "b_prime"), first.tolist()))
        assert abs(excinfo.value.norm - 2.0) > 1e3 * TOL.norm_band

    @pytest.mark.parametrize("top, bottom", [(2.0, -(2.0 + 1e-8)), (2.0 + 1e-8, -2.0)])
    def test_norm_reads_both_ends_of_the_spectrum(self, monkeypatch, top, bottom):
        # every scenario gets one fixed symmetric operator whose largest |eigenvalue|
        # is 2 + 1e-8, at the bottom of the spectrum or at the top
        Q, _ = np.linalg.qr(np.random.default_rng(37).standard_normal((9, 9)))
        fixed = Q @ np.diag([top, 1.0, 0.5, 0.0, 0.0, 0.0, -0.5, -1.0, bottom]) @ Q.T
        monkeypatch.setattr(search, "coupling_operator", lambda M: np.repeat(fixed[None], len(M), 0))
        with pytest.raises(CertificationError) as excinfo:
            monte_carlo_certify(10, seed=0)
        assert abs(excinfo.value.norm - (2.0 + 1e-8)) < 1e-14

    def test_csv_norms_lie_within_six_spacings_of_two(self, tmp_path):
        path = tmp_path / "norms.csv"
        monte_carlo_certify(20000, seed=3, csv_path=str(path))
        norms = np.loadtxt(path, delimiter=",", skiprows=1)[:, -1]
        assert np.max(np.abs(norms - 2.0)) <= 6 * np.spacing(2.0)

    def test_near_degenerate_norms_lie_within_six_spacings_of_two(self, monkeypatch, tmp_path):
        # a seeded sweep of hard scenarios: a third of the components scaled by
        # 1e-40 to 1e-165 (never all three of a direction, whose norm would then
        # underflow), and a' a step of 1e-1 to 1e-12 from a in even rows, b' from b in odd ones
        n, rng = 5200, np.random.default_rng(23)
        draw = rng.standard_normal((n, 4, 3))
        tiny = rng.random((n, 4, 3)) < 0.5
        tiny[np.arange(n)[:, None], np.arange(4), rng.integers(0, 3, (n, 4))] = False
        draw[tiny] *= 10.0 ** -rng.integers(40, 166, tiny.sum()).astype(float)
        rows, first = np.arange(n), 2 * (np.arange(n) % 2)
        gap = 10.0 ** -rng.uniform(1, 12, (n, 1))
        draw[rows, first + 1] = draw[rows, first] + gap * rng.standard_normal((n, 3))
        draw /= np.linalg.norm(draw, axis=-1, keepdims=True)
        monkeypatch.setattr(search, "random_directions", lambda rng, shape: draw)
        path = tmp_path / "norms.csv"
        monte_carlo_certify(n, seed=0, csv_path=str(path))
        norms = np.loadtxt(path, delimiter=",", skiprows=1)[:, -1]
        assert np.max(np.abs(norms - 2.0)) <= 6 * np.spacing(2.0)

    def test_nan_norm_fails_the_band(self, monkeypatch):
        monkeypatch.setattr(search, "_eigvalsh", lambda B: np.full(B.shape[:-1], np.nan))
        with pytest.raises(CertificationError) as excinfo:
            monte_carlo_certify(10, seed=0)
        assert np.isnan(excinfo.value.norm)

    @pytest.mark.parametrize("block", [7, 1024, 4096])
    def test_result_and_csv_do_not_depend_on_the_block(self, monkeypatch, tmp_path, block):
        expected = monte_carlo_certify(2500, seed=5, csv_path=str(tmp_path / "default.csv"))
        monkeypatch.setattr(search, "SWEEP_BLOCK", block)
        value = monte_carlo_certify(2500, seed=5, csv_path=str(tmp_path / "blocked.csv"))
        assert value == expected
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    @pytest.mark.parametrize("block, n", [(7, 100), (search.SWEEP_BLOCK, 3 * 1024 + 5)])
    def test_result_and_csv_do_not_depend_on_the_workers(self, monkeypatch, tmp_path, block, n):
        monkeypatch.setattr(search, "SWEEP_BLOCK", block)
        threads, outputs = record_threads(monkeypatch), []
        for workers in (1, 2, 3):
            threads.clear()
            monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
            path = tmp_path / f"{workers}.csv"
            outputs.append((monte_carlo_certify(n, seed=9, csv_path=str(path)), path.read_bytes()))
            assert len(threads) <= workers
            if workers == 1:
                assert threads == {threading.get_ident()}
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocks_overlap_on_two_or_more_workers(self, monkeypatch, workers):
        monkeypatch.setattr(search, "SWEEP_BLOCK", 7)
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        threads = record_threads(monkeypatch)
        # the first two solves wait for each other, which only two threads can do
        meeting, lock, calls, solve = threading.Barrier(2, timeout=10), threading.Lock(), [], search._eigvalsh

        def meeting_solve(B):
            with lock:
                calls.append(None)
                first_two = len(calls) <= 2
            if first_two:
                meeting.wait()
            return solve(B)

        monkeypatch.setattr(search, "_eigvalsh", meeting_solve)
        monte_carlo_certify(100, seed=9)
        assert 2 <= len(threads) <= workers

    def test_one_block_runs_inline(self, monkeypatch):
        threads = record_threads(monkeypatch)
        monkeypatch.setattr(search, "_usable_cpus", lambda: 3)
        monte_carlo_certify(search.SWEEP_BLOCK, seed=0)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_off_band_index_is_named_for_any_workers(self, monkeypatch, workers):
        monkeypatch.setattr(search, "SWEEP_BLOCK", 7)
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        draw = random_directions(np.random.default_rng(0), (100, 4))
        # directions scaled by c scale the bilinear operator, and its norm, by c**2
        draw[30] *= 1.1
        draw[80] *= 1.3
        monkeypatch.setattr(search, "random_directions", lambda rng, shape: draw)
        with pytest.raises(CertificationError) as excinfo:
            monte_carlo_certify(100, seed=0)
        assert abs(excinfo.value.norm - 2.0 * 1.1**2) < 1e-9
        assert excinfo.value.scenario == dict(zip(("a", "a_prime", "b", "b_prime"), draw[30].tolist()))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_block_exception_reaches_the_caller(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(search, "SWEEP_BLOCK", 7)
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        draw = random_directions(np.random.default_rng(0), (28, 4))
        second, fourth = np.linalg.LinAlgError("second block"), np.linalg.LinAlgError("fourth block")
        # the second and the fourth of four blocks fail, each marked by a first
        # component that no unit direction has
        draw[7, 0, 0], draw[21, 0, 0] = 5.0, 6.0
        monkeypatch.setattr(search, "random_directions", lambda rng, shape: draw)
        build = search.correlation_matrices
        main, fourth_raised = threading.get_ident(), threading.Event()

        def failing(directions):
            if directions[0, 0, 0] == 5.0:
                if threading.get_ident() != main:
                    # on a worker the second block raises last, after the fourth has
                    fourth_raised.wait(timeout=10)
                    time.sleep(0.05)
                raise second
            if directions[0, 0, 0] == 6.0:
                fourth_raised.set()
                raise fourth
            return build(directions)

        monkeypatch.setattr(search, "correlation_matrices", failing)
        baseline = threading.active_count()
        path = tmp_path / "norms.csv"
        with pytest.raises(np.linalg.LinAlgError) as excinfo:
            monte_carlo_certify(28, seed=0, csv_path=str(path))
        assert excinfo.value is second
        assert not path.exists()
        assert threading.active_count() == baseline

    def test_import_does_not_load_the_thread_pool(self):
        program = "import sys, spinchsh, spinchsh.cli; print('concurrent.futures' in sys.modules)"
        package_root = os.path.dirname(os.path.dirname(spinchsh.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_csv_emission(self, tmp_path):
        import csv

        path = tmp_path / "norms.csv"
        monte_carlo_certify(25, seed=4, csv_path=str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-1] == "norm"
        assert len(rows) == 26
        for row in rows[1:]:
            assert abs(float(row[-1]) - 2.0) < 1e-9


class TestMapBlocks:
    """``search._map_blocks``, the one thread helper of the Monte Carlo, grid and verify sweeps."""

    @pytest.mark.parametrize("cpus, keep", [(2, 0), (3, 0), (2, 1), (3, 1)])
    def test_solves_run_at_most_one_result_per_thread_ahead(self, monkeypatch, cpus, keep):
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        # the starts of blocks of 7 over 100 items
        starts, lock, started, taken = range(0, 100, 7), threading.Lock(), [], []

        def solve(start):
            with lock:
                started.append(start)
            return start * start

        with contextlib.closing(search._map_blocks(solve, starts, keep)) as blocks:
            for result in blocks:
                taken.append(result)
                # a slow caller; a pool that took every start at once would have started them all
                time.sleep(0.005)
                with lock:
                    assert len(started) <= len(taken) + cpus - keep
        assert taken == [start * start for start in starts]
        assert sorted(started) == list(starts)

    def test_closing_after_the_first_result_stops_the_sweep(self, monkeypatch):
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        starts, lock, solved = range(0, 100, 7), threading.Lock(), []

        def solve(start):
            time.sleep(0.01)
            with lock:
                solved.append(start)
            return start

        baseline = threading.active_count()
        blocks = search._map_blocks(solve, starts, keep=0)
        assert next(blocks) == 0
        blocks.close()
        assert threading.active_count() == baseline
        # the first result and at most one start per thread behind it ran; the rest never start
        assert len(solved) <= 3 < len(starts)


    @pytest.mark.parametrize("cpus, keep", [(2, 0), (3, 0), (2, 1), (3, 1)])
    def test_first_starts_run_before_the_first_result_is_asked_for(self, monkeypatch, cpus, keep):
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        started, baseline = threading.Event(), threading.active_count()

        def solve(start):
            started.set()
            return start

        blocks = search._map_blocks(solve, range(0, 100, 7), keep)
        assert started.wait(timeout=10)
        # closed before any result is taken, it still joins its threads
        blocks.close()
        assert threading.active_count() == baseline

    @pytest.mark.parametrize(
        "cpus, keep, on_a_worker", [(1, 0, False), (1, 1, False), (2, 0, False), (2, 1, True), (3, 1, True)]
    )
    def test_a_single_start_gets_a_worker_only_beside_the_callers_work(
        self, monkeypatch, cpus, keep, on_a_worker
    ):
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        baseline = threading.active_count()
        with contextlib.closing(search._map_blocks(lambda _: threading.get_ident(), range(1), keep)) as blocks:
            assert (list(blocks) != [threading.get_ident()]) == on_a_worker
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus, keep", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_no_starts_give_nothing(self, monkeypatch, cpus, keep):
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        with contextlib.closing(search._map_blocks(lambda start: start, range(0), keep)) as blocks:
            assert list(blocks) == []


@pytest.mark.parametrize("seed", [0, 7, 301])
def test_random_directions_match_per_scenario_draws(seed):
    # the reference draws each scenario as its own (4, 3) block, normalised per row
    n = 200
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(n):
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        expected.append(vs)
    assert np.array_equal(random_directions(np.random.default_rng(seed), (n, 4)), np.stack(expected))


def test_random_directions_are_unit():
    directions = random_directions(np.random.default_rng(3), (2000, 4))
    assert np.max(np.abs(np.linalg.norm(directions, axis=-1) - 1.0)) <= TOL.unit_norm


def test_random_directions_shapes():
    rng = np.random.default_rng(3)
    assert random_directions(rng, ()).shape == (3,)
    v = random_directions(rng, (2, 5, 4))
    assert v.shape == (2, 5, 4, 3)
    assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) < 1e-15


def test_random_directions_redraws_zero_draws():
    class ZeroFirst:
        calls = 0

        def standard_normal(self, shape):
            self.calls += 1
            return np.zeros(shape) if self.calls == 1 else np.ones(shape)

    v = random_directions(ZeroFirst(), (2,))
    assert np.allclose(v, np.ones((2, 3)) / np.sqrt(3.0), atol=1e-15)


def one_shot_random_directions(rng, shape):
    """random_directions as one expression over the whole draw, the reference."""
    v = rng.standard_normal(tuple(shape) + (3,))
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    while np.any(norms < TOL.short_draw):
        short = norms[..., 0] < TOL.short_draw
        v[short] = rng.standard_normal((int(short.sum()), 3))
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / norms


class PlantedShortDraw:
    """A seeded generator; its first draw is zero at ``rows[0]``, times ``scale`` at the rest."""

    def __init__(self, seed, rows, scale=1e-20):
        self.rng = np.random.default_rng(seed)
        self.rows = rows
        self.scale = scale
        self.calls = 0

    def standard_normal(self, shape):
        self.calls += 1
        v = self.rng.standard_normal(shape)
        if self.calls == 1:
            flat = v.reshape(-1, 3)
            flat[self.rows[0]] = 0.0
            flat[self.rows[1:]] *= self.scale
        return v


@pytest.mark.parametrize("shape", [(), (5, 4), (2, 3, 4), (search.SWEEP_BLOCK // 4 + 7, 4)])
def test_random_directions_match_the_one_shot_draw_bit_for_bit(shape):
    """Blocked norms and the in-place division change no bit, a redrawn short vector included."""
    for seed in (0, 11):
        expected = one_shot_random_directions(np.random.default_rng(seed), shape)
        got = random_directions(np.random.default_rng(seed), shape)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    n = math.prod(shape)
    rows = [0] if n == 1 else [0, n - 1, n // 2]
    planted = PlantedShortDraw(5, rows)
    expected = one_shot_random_directions(PlantedShortDraw(5, rows), shape)
    got = random_directions(planted, shape)
    assert planted.calls == 2  # the short vectors were drawn again
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_random_directions_normalise_a_short_draw_above_the_floor():
    # a draw of norm near 1e-10 is above the default TOL.short_draw: it is
    # normalised, while the zero draw beside it is drawn again
    planted = PlantedShortDraw(5, [0, 1], scale=1e-10)
    got = random_directions(planted, (2,))
    drawn = np.random.default_rng(5).standard_normal((2, 3))[1]
    assert 1e-11 < 1e-10 * np.linalg.norm(drawn) < 1e-9
    assert planted.calls == 2
    assert np.allclose(got[1], drawn / np.linalg.norm(drawn), rtol=0.0, atol=1e-15)


def test_random_scenario_is_normalized():
    rng = np.random.default_rng(8)
    sc = MeasurementScenario(*random_directions(rng, (4,)))
    for v in sc.directions():
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_monotonicity_error_is_reachable():
    # sanity: the guard class exists and derives from the package error
    from spinchsh import SpinChshError

    assert issubclass(MonotonicityError, SpinChshError)
