"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from conftest import gaussian_scenario, qr_rotation
from reference import SPIN_BASIS_TENSOR, spin_representation, verify_invariance
from spinchsh import (
    PAULI_FAMILY,
    SPIN1_FAMILY,
    TOL,
    MeasurementScenario,
    QuantumState,
    canonical_operator,
    canonical_reduction,
    closed_form_spectrum,
    correlation_matrices,
    coupling_operator,
    eig_hermitian,
    expectation,
    maximize_violation,
    monte_carlo_certify,
)
from spinchsh import search
from spinchsh.cli import main
from test_search import planar_qubit_grid_max

TSIRELSON = float(2.0 * np.sqrt(2.0))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_norm_constancy():
    """10^5 seeded random scenarios all have operator norm 2 within 1e-9."""
    start = time.perf_counter()
    # raises CertificationError on the first norm outside [2 - 1e-9, 2 + 1e-9]
    worst = monte_carlo_certify(100_000, seed=2024)
    elapsed = time.perf_counter() - start
    ok = abs(worst - 2.0) <= 1e-9 and elapsed < 60.0
    report(
        "criterion 1 (norm constancy over 1e5 scenarios)",
        ok,
        f"max norm {worst!r}, elapsed {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_grid():
    """Sorted numerical eigenvalues match the closed form on a 50x50 grid."""
    values = np.linspace(0.0, 2.0, 50)
    worst = 0.0
    for s in values:
        for t in values:
            numeric = eig_hermitian(canonical_operator(s, t)).eigenvalues
            closed = closed_form_spectrum(s, t).eigenvalues
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
    report(
        "criterion 2 (closed-form spectrum on 50x50 grid)",
        worst < 1e-10,
        f"max elementwise discrepancy {worst:.3e}",
    )


def test_criterion_3_rotational_covariance():
    """Conjugation by the product representation maps K(M) to K(R M Q^T)."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        M = rng.standard_normal((3, 3))
        R, Q = qr_rotation(rng), qr_rotation(rng)
        W = np.kron(spin_representation(R), spin_representation(Q))
        lhs = W @ coupling_operator(M, SPIN_BASIS_TENSOR) @ W.conj().T
        rhs = coupling_operator(R @ M @ Q.T, SPIN_BASIS_TENSOR)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    report(
        "criterion 3 (rotational covariance, 1e3 samples)",
        worst < TOL.conjugation,
        f"max Frobenius residual {worst:.3e}",
    )


def test_criterion_4_reduction_certificates():
    """10^4 random scenarios: proper rotations, exact reconstruction, s^2+t^2=4."""
    rng = np.random.default_rng(7)
    M = np.stack([correlation_matrices(gaussian_scenario(rng)) for _ in range(10_000)])
    red = canonical_reduction(M)
    worst_det = float(np.max(np.abs(np.linalg.det(np.stack([red.R, red.Q])) - 1.0)))
    diagonal = np.zeros_like(M)
    diagonal[:, 0, 0], diagonal[:, 2, 2] = red.s, red.t
    residual = red.R @ M @ np.swapaxes(red.Q, -1, -2) - diagonal
    worst_recon = float(np.max(np.linalg.norm(residual, axis=(-2, -1))))
    worst_sumsq = float(np.max(np.abs(red.s**2 + red.t**2 - 4.0)))
    ok = worst_det < 1e-10 and worst_recon < TOL.reconstruction and worst_sumsq < 1e-9
    report(
        "criterion 4 (reduction certificates, 1e4 scenarios)",
        ok,
        f"det {worst_det:.3e}, reconstruction {worst_recon:.3e}, sum-sq {worst_sumsq:.3e}",
    )


def test_criterion_5_tightness():
    """The aligned-z scenario with the top product state attains exactly 2."""
    z = (0.0, 0.0, 1.0)
    tight = MeasurementScenario(z, z, z, z)
    top = np.zeros(9)
    top[0] = 1.0
    state = QuantumState.pure(top)
    value = expectation(state, coupling_operator(correlation_matrices(tight), SPIN_BASIS_TENSOR))
    seesaw = search._seesaw(SPIN1_FAMILY, tight.directions()[None])
    best, iterations = float(seesaw.values[0]), int(seesaw.iterations[0])
    ok = abs(value - 2.0) < 1e-12 and iterations <= 2 and abs(best - 2.0) < 1e-9
    report(
        "criterion 5 (tightness and immediate convergence)",
        ok,
        f"expectation {value!r}, seesaw {best!r} in {iterations} iteration(s)",
    )


def test_criterion_6_optimizer_positive_control():
    """The identical search on the qubit Pauli family attains 2*sqrt(2)."""
    grid_max = planar_qubit_grid_max()
    seesaw = maximize_violation(PAULI_FAMILY, 200, seed=1)
    ok = abs(grid_max - TSIRELSON) < 1e-9 and abs(seesaw.best_value - TSIRELSON) < 1e-6
    report(
        "criterion 6 (qubit positive control)",
        ok,
        f"grid oracle {grid_max!r}, seesaw {seesaw.best_value!r}, target {TSIRELSON!r}",
    )


def test_criterion_7_subspace_invariance():
    """Off-block leakage across the invariant split stays below 1e-13."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        s, t = rng.uniform(0.0, 2.0, size=2)
        worst = max(worst, verify_invariance(s, t).max_residual)
    report(
        "criterion 7 (subspace invariance, 100 random parameter pairs)",
        worst < TOL.invariance,
        f"max off-block Frobenius norm {worst:.3e}",
    )


def test_criterion_8_determinism(capsys):
    """Two verify runs with the same seed emit byte-identical output."""
    argv = ["verify", "--random", "1000", "--seed", "7"]
    code_first = main(list(argv))
    first = capsys.readouterr().out
    code_second = main(list(argv))
    second = capsys.readouterr().out
    ok = first == second and code_first == code_second == 0
    with capsys.disabled():
        report(
            "criterion 8 (byte-identical verify runs)",
            ok,
            f"{len(first)} bytes, exit {code_first}",
        )
