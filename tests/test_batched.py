"""The stack forms of the Bell build, the eigensolve and the reduction against their scalar forms.

``verify`` reports every scenario from one batched pass and ``spectrum
--grid`` every grid row from one; each test here pins a batched result to
the per-item computation bit for bit.
"""

import csv
import io
import itertools
import json
import os
import sys
import threading

import numpy as np
import pytest

from reference import CARTESIAN_PAIR, cartesian_kron_bell, spin_along, spin_kron_bell
from spinchsh import (
    CARTESIAN_BASIS,
    CertificationError,
    HermiticityError,
    InputError,
    MeasurementScenario,
    NormalizationError,
    QuantumState,
    RankDeficiencyError,
    bell_operator,
    canonical_operator,
    canonical_reduction,
    correlation_matrices,
    coupling_operator,
    eig_hermitian,
    expectation,
    monte_carlo_certify,
    random_directions,
    svd3,
)
from spinchsh import cli, search, serialize
from spinchsh.bell import SPIN1_REAL_TENSOR
from spinchsh.serialize import Table, complex_pairs, format_rows, json_dumps, open_csv

# a 4e-144 component leaves a rounding-noise second singular value (see
# test_reduction.py::TestReducedBell::test_rank_one_with_rounding_noise)
_NOISE_A = (0.0, 4.0937112932801327e-144, 1.0)
_NOISE_B = (0.8944271909999159, 0.4472135954999579, 0.0)


def loop_svd3(M):
    """Per-matrix reference for svd3: the sign rule applied column by column."""
    U, sigma, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    for k in range(3):
        lead = int(np.argmax(np.abs(U[:, k])))
        if U[lead, k] < 0.0:
            U[:, k] = -U[:, k]
            Vt[k, :] = -Vt[k, :]
    return U.T, Vt, sigma


_J = np.diag([1.0, 1.0, -1.0])
_P = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def loop_reduction(M):
    """Per-matrix reference for canonical_reduction: (R, Q, s, t) with scalar rules."""
    O1, O2, sigma = loop_svd3(M)
    s, t = float(sigma[0]), float(sigma[1])
    if t <= np.finfo(float).eps * s:
        t = 0.0
    if np.linalg.det(O1) < 0.0:
        O1 = _J @ O1
    if np.linalg.det(O2) < 0.0:
        O2 = _J @ O2
    return _P @ O1, _P @ O2, s, t


def reference_row(index: int, sc: MeasurementScenario) -> dict:
    """One verify row computed per scenario: Cartesian np.kron build, 2-D eigvalsh, per-matrix reduction."""
    B = cartesian_kron_bell(sc.directions())
    assert B.dtype == np.float64 and np.array_equal(B, B.T)
    # nonzero entries below sqrt(tiny)/eps of the largest underflow LAPACK's
    # eigenvalue-only solver; verify zeroes them, _NOISE_A has some at 4e-144.
    # A -0.0 stays: the real solver's result can depend on a zero's sign
    cut = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps * np.abs(B).max()
    B = np.where((np.abs(B) < cut) & (B != 0.0), 0.0, B)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(B))))
    _, _, s, t = loop_reduction(correlation_matrices(sc))
    return {
        "index": index,
        "a": sc.a,
        "a_prime": sc.a_prime,
        "b": sc.b,
        "b_prime": sc.b_prime,
        "operator_norm": norm,
        "s": s,
        "t": t,
        "sum_sq_residual": abs(s**2 + t**2 - 4.0),
        "band_deviation": abs(norm - 2.0),
    }


def edge_directions() -> np.ndarray:
    rng = np.random.default_rng(17)
    a, a_prime, b, b_prime = random_directions(rng, (4,))
    quads = [
        (a, a_prime, b, b),  # b = b': M has rank one, t = 0
        (a, a, b, b_prime),  # a = a'
        (a, -a, b, b),  # antiparallel a'
        (_NOISE_A, _NOISE_A, _NOISE_B, (1.0, 0.0, 0.0)),
        ((0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1)),  # the tight scenario
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),  # planar degenerate
    ]
    return np.array(quads, dtype=float)


# the key of each column of a verify block
_COLUMN_KEYS = [key for key, width in cli._VERIFY_FIELDS for _ in range(width or 1)]


def verify_rows(directions: np.ndarray) -> Table:
    """The verify rows of a direction stack, as cmd_verify declares them."""
    return Table(cli._VERIFY_FIELDS, cli._verify_rows(directions))


def column(rows: Table, key: str) -> list:
    return rows.rows[:, _COLUMN_KEYS.index(key)].tolist()


def assert_rows_match_reference(directions: np.ndarray) -> None:
    rows = verify_rows(directions)
    reference = [
        reference_row(i, MeasurementScenario(*quad)) for i, quad in enumerate(directions)
    ]
    for key in ("operator_norm", "s", "t", "sum_sq_residual", "band_deviation"):
        for index, value, ref in zip(column(rows, "index"), column(rows, key), reference):
            assert value == ref[key], (index, key)
    # and the rendered report text is the same byte for byte
    assert json_dumps(rows) == json_dumps(reference)


class TestVerifyRows:
    def test_random_scenarios_match_per_scenario_path(self):
        directions = random_directions(np.random.default_rng(301), (300, 4))
        assert_rows_match_reference(directions)

    def test_edge_cases_match_per_scenario_path(self):
        directions = edge_directions()
        t = column(verify_rows(directions), "t")
        assert t[0] == 0.0 and t[3] == 0.0
        assert_rows_match_reference(directions)

    def test_blocks_join_seamlessly(self, monkeypatch):
        directions = random_directions(np.random.default_rng(5), (23, 4))
        text = json_dumps(verify_rows(directions))
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 5)
        blocked = verify_rows(directions)
        assert json_dumps(blocked) == text
        assert column(blocked, "index") == list(range(23))
        # and the renderer's chunks, which need not divide a block
        monkeypatch.setattr(serialize, "_CHUNK", 3)
        assert json_dumps(blocked) == text

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_file_expectation_matches_per_scenario_path(self, capsys, tmp_path, kind):
        rng = np.random.default_rng(23)
        quad = random_directions(rng, (4,))
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v /= np.linalg.norm(v)
        if kind == "pure":
            state = QuantumState.pure(v)
        else:
            state = QuantumState.mixed(np.outer(v, v.conj()))
        pairs = complex_pairs(state.data)
        names = ("a", "a_prime", "b", "b_prime")
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps({**dict(zip(names, quad.tolist())), "state": {"kind": kind, "data": pairs}})
        )
        assert cli.main(["verify", str(path)]) == 0
        row = json.loads(capsys.readouterr().out)["scenarios"][0]
        # the per-scenario computation on the file as loaded (directions renormalised)
        sc, loaded = cli.load_scenario_file(str(path))
        assert np.array_equal(loaded.data, state.data)
        # the state carried to the Cartesian basis of the four-term build
        W = CARTESIAN_PAIR
        if kind == "pure":
            carried = QuantumState.pure(W.conj().T @ loaded.data)
        else:
            carried = QuantumState.mixed(W.conj().T @ loaded.data @ W)
        assert row["expectation"] == expectation(carried, cartesian_kron_bell(sc.directions()))
        # which is the spin-basis value, to within rounding
        assert abs(row["expectation"] - expectation(loaded, spin_kron_bell(sc.directions()))) <= 1e-15


class TestVerifyThreads:
    """verify's reduction runs on a worker beside the norm solve; no output depends on it."""

    def run(self, capsys, path, argv=("--random", "23", "--seed", "3")):
        code = cli.main(["verify", *argv, "--csv", str(path)])
        out, err = capsys.readouterr()
        return code, out, err, path.read_bytes() if path.exists() else None

    def test_output_does_not_depend_on_the_cpus_or_the_block(self, capsys, tmp_path, monkeypatch):
        expected = self.run(capsys, tmp_path / "default.csv")
        assert expected[0] == 0 and expected[3]
        # 23 scenarios are one block by default and five of 5
        for block, cpus in itertools.product((cli.SWEEP_BLOCK, 5), (1, 2, 3)):
            monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
            monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
            assert self.run(capsys, tmp_path / f"{block}-{cpus}.csv") == expected

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_reduction_and_norm_solve_meet(self, capsys, tmp_path, monkeypatch, cpus):
        # the first block's norm solve and its reduction wait for each other,
        # which they can do only if the reduction runs beside the solve
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        meeting, solvers, reducers = threading.Barrier(2, timeout=10), [], []
        solve, reduce = cli.eig_hermitian, cli.canonical_parameters
        first = correlation_matrices(random_directions(np.random.default_rng(3), (23, 4))[:7])

        def meeting_solve(stack):
            if not solvers:
                solvers.append(threading.get_ident())
                meeting.wait()
            return solve(stack)

        def meeting_reduce(M):
            if np.array_equal(M, first):
                reducers.append(threading.get_ident())
                meeting.wait()
            return reduce(M)

        expected = self.run(capsys, tmp_path / "serial.csv")
        monkeypatch.setattr(cli, "eig_hermitian", meeting_solve)
        monkeypatch.setattr(cli, "canonical_parameters", meeting_reduce)
        assert self.run(capsys, tmp_path / "overlapped.csv") == expected
        assert solvers == [threading.get_ident()] and len(reducers) == 1
        assert reducers != solvers

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "stage, code, message",
        [
            ("reduction", cli.EXIT_RANK, str(RankDeficiencyError(1.0))),
            ("norms", cli.EXIT_USAGE, "second block norms"),
            ("both", cli.EXIT_USAGE, "second block norms"),
        ],
        ids=["reduction", "norms", "both"],
    )
    def test_failing_second_block(self, capsys, tmp_path, monkeypatch, cpus, stage, code, message):
        # the serial loop's error: a block's norm solve fails before its reduction
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        draw = random_directions(np.random.default_rng(3), (23, 4))
        second = correlation_matrices(draw[7:14])
        build, reduce = cli.bell_operator, cli.canonical_parameters

        def failing_build(directions):
            if stage != "reduction" and np.array_equal(directions, draw[7:14]):
                raise np.linalg.LinAlgError("second block norms")
            return build(directions)

        def failing_reduce(M):
            if stage != "norms" and np.array_equal(M, second):
                raise RankDeficiencyError(1.0)
            return reduce(M)

        monkeypatch.setattr(cli, "bell_operator", failing_build)
        monkeypatch.setattr(cli, "canonical_parameters", failing_reduce)
        baseline = threading.active_count()
        assert self.run(capsys, tmp_path / "verify.csv") == (code, "", f"error: {message}\n", None)
        assert threading.active_count() == baseline


def signed_zero_directions() -> np.ndarray:
    """edge_directions() with every zero component made -0.0."""
    edges = edge_directions()
    return np.where(edges == 0.0, -0.0, edges)


class TestBellStack:
    """The stack build bit for bit (tobytes, so -0.0 is not 0.0) against per-scenario builds."""

    def test_stack_matches_kron_per_scenario(self):
        directions = np.concatenate(
            [
                random_directions(np.random.default_rng(8), (50, 4)),
                edge_directions(),
                signed_zero_directions(),
            ]
        )
        assert np.signbit(directions[directions == 0.0]).any()
        stack = bell_operator(directions)
        assert stack.shape == (len(directions), 9, 9)
        for quad, B in zip(directions, stack):
            assert bits_equal(B, cartesian_kron_bell(quad))
            assert bits_equal(B, bell_operator(MeasurementScenario(*quad)))

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(9)
        for shape in [(), (1,), (2, 3), (1025,)]:
            directions = random_directions(rng, shape + (4,))
            stack = bell_operator(directions)
            assert stack.shape == shape + (9, 9) and stack.flags.c_contiguous
            for index in np.ndindex(shape):
                assert bits_equal(stack[index], cartesian_kron_bell(directions[index])), (shape, index)
                assert bits_equal(stack[index], bell_operator(directions[index])), (shape, index)

    def test_spin_along_stack_matches_each_vector(self):
        vectors = np.concatenate(
            [
                random_directions(np.random.default_rng(24), (60,)),
                edge_directions().reshape(-1, 3),
                signed_zero_directions().reshape(-1, 3),
            ]
        ).reshape(-1, 2, 3)
        stack = spin_along(vectors)
        assert stack.shape == vectors.shape[:-1] + (3, 3)
        for index in np.ndindex(vectors.shape[:-1]):
            assert bits_equal(stack[index], spin_along(vectors[index])), index

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.01])
    def test_stack_rejects_non_unit_direction(self, bad):
        directions = random_directions(np.random.default_rng(10), (6, 4))
        directions[4, 2, 1] = bad
        with pytest.raises(NormalizationError):
            bell_operator(directions)

    def test_rejects_wrong_stack_shape(self):
        with pytest.raises(InputError):
            bell_operator(np.zeros((5, 3, 3)))


class TestRealPath:
    """The Monte Carlo certificate's real Cartesian-basis build against the complex builds."""

    def test_operator_is_the_cartesian_conjugate(self):
        M = np.random.default_rng(21).standard_normal((40, 3, 3))
        W = np.kron(CARTESIAN_BASIS, CARTESIAN_BASIS)
        real = coupling_operator(M, SPIN1_REAL_TENSOR)
        assert real.dtype == np.float64
        assert np.array_equal(real, np.swapaxes(real, -1, -2))
        conjugated = W.conj().T @ coupling_operator(M) @ W
        assert np.max(np.abs(conjugated - real)) < 1e-14

    def test_norms_match_four_term_build(self, tmp_path):
        path = tmp_path / "norms.csv"
        monte_carlo_certify(3000, seed=22, csv_path=str(path))
        with open(path, newline="") as handle:
            rows = np.array([[float(x) for x in row] for row in list(csv.reader(handle))[1:]])
        reference = eig_hermitian(bell_operator(rows[:, 1:13].reshape(-1, 4, 3))).operator_norm
        assert np.max(np.abs(rows[:, -1] - reference)) <= 16 * np.spacing(2.0)

    def test_band_gate_reads_the_real_build(self, monkeypatch):
        monkeypatch.setattr(search, "SPIN1_REAL_TENSOR", SPIN1_REAL_TENSOR * (1.0 + 1e-8))
        with pytest.raises(CertificationError):
            monte_carlo_certify(100, seed=23)


class TestEigStack:
    def test_stack_matches_per_matrix(self):
        stack = bell_operator(random_directions(np.random.default_rng(11), (40, 4)))
        batched = eig_hermitian(stack)
        assert batched.operator_norm.shape == (40,)
        for k, B in enumerate(stack):
            single = eig_hermitian(B)
            assert np.array_equal(batched.eigenvalues[k], single.eigenvalues)
            assert batched.operator_norm[k] == single.operator_norm
            assert type(single.operator_norm) is float

    def test_real_stack_matches_per_matrix(self):
        s, t = np.meshgrid(np.linspace(0.0, 2.0, 6), np.append(np.linspace(0.0, 2.0, 6), 1e-160))
        stack = canonical_operator(s, t)
        batched = eig_hermitian(stack)
        assert batched.eigenvalues.dtype == np.float64
        for index in np.ndindex(stack.shape[:-2]):
            single = eig_hermitian(stack[index])
            assert bits_equal(batched.eigenvalues[index], single.eigenvalues)
            assert batched.operator_norm[index] == single.operator_norm

    def test_one_non_hermitian_matrix_fails_the_stack(self):
        stack = bell_operator(random_directions(np.random.default_rng(12), (5, 4)))
        stack[3, 0, 1] += 1e-3
        with pytest.raises(HermiticityError) as excinfo:
            eig_hermitian(stack)
        # the entry and its mirror image both count
        assert abs(excinfo.value.asymmetry - np.sqrt(2.0) * 1e-3) < 1e-12


class TestSvdStack:
    @staticmethod
    def rank_two_matrices() -> np.ndarray:
        rng = np.random.default_rng(14)
        left, right = rng.standard_normal((2, 60, 3, 2))
        special = np.array(
            [
                np.zeros((3, 3)),
                np.diag([2.0, 1.0, 0.0]),
                np.diag([0.0, 0.0, 2.0]),
                # U has columns with equal-magnitude entries: the sign rule's tie break
                np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]) / np.sqrt(2.0),
            ]
        )
        bell = correlation_matrices(
            np.concatenate([random_directions(rng, (60, 4)), edge_directions()])
        )
        M = np.concatenate([left @ np.swapaxes(right, -1, -2), special, bell])
        # reversed rows flip the determinant of the left factor
        return np.concatenate([M, M[:, ::-1]])

    def test_svd3_stack_matches_per_matrix(self):
        generic = np.random.default_rng(15).standard_normal((60, 3, 3))
        M = np.concatenate([generic, -np.eye(3)[None], self.rank_two_matrices()])
        O1, O2, sigma = svd3(M)
        for k in range(len(M)):
            for o1, o2, s in (svd3(M[k]), loop_svd3(M[k])):
                assert np.array_equal(O1[k], o1) and np.array_equal(O2[k], o2)
                assert np.array_equal(sigma[k], s)

    def test_reduction_stack_matches_per_matrix(self):
        M = self.rank_two_matrices()
        batched = canonical_reduction(M)
        fixes = set()
        for k in range(len(M)):
            single = canonical_reduction(M[k])
            assert type(single.s) is float and type(single.t) is float
            for R, Q, s, t in ((single.R, single.Q, single.s, single.t), loop_reduction(M[k])):
                assert np.array_equal(batched.R[k], R) and np.array_equal(batched.Q[k], Q)
                assert batched.s[k] == s and batched.t[k] == t
            O1, O2, _ = loop_svd3(M[k])
            fixes.add((bool(np.linalg.det(O1) < 0.0), bool(np.linalg.det(O2) < 0.0)))
        # both determinant fixes were exercised, alone and together
        assert len(fixes) == 4

    def test_rank_error_names_first_offending_matrix(self):
        M = np.stack([np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.5]), np.eye(3)])
        with pytest.raises(RankDeficiencyError) as excinfo:
            canonical_reduction(M)
        assert excinfo.value.sigma3 == 0.5


def bits_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike array_equal, tells -0.0 from 0.0."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def csv_writer_text(header, rows) -> str:
    """Reference CSV text as csv.writer gives it: ints as-is, other numbers at .17g."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([x if isinstance(x, int) else format(x, ".17g") for x in row] for row in rows)
    return out.getvalue()


def grid_reference_text(n: int) -> str:
    """``spectrum --grid n``'s CSV as the csv module writes it, one eigensolve per point."""
    values = np.linspace(0.0, 2.0, n)
    rows = []
    for s in values:
        for t in values:
            numeric = eig_hermitian(canonical_operator(s, t))
            rows.append([s, t, *numeric.eigenvalues, numeric.operator_norm])
    return csv_writer_text(["s", "t", *(f"eig{k}" for k in range(1, 10)), "norm"], rows)


class TestSpectrumGrid:
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_csv_matches_per_point_reference(self, tmp_path, n):
        path = tmp_path / "grid.csv"
        assert cli.main(["spectrum", "--grid", str(n), "--csv", str(path)]) == 0
        # 17 significant digits round-trip every float, so equal text is equal bits
        assert path.read_bytes() == grid_reference_text(n).encode()

    @pytest.mark.parametrize(
        "block, solves",
        [(21, [21, 21, 7]), (5, [5] * 9 + [4])],
        ids=["block-does-not-divide-n-squared", "no-solve-exceeds-the-block"],
    )
    def test_blocks_of_rows_match_per_point_reference(self, tmp_path, monkeypatch, block, solves):
        """SWEEP_BLOCK grid points a block in row order, one eigensolve each, the same bytes."""
        sizes = []

        def solve(stack):
            sizes.append(stack.size // 81)  # operators in the solve
            return eig_hermitian(stack)

        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        monkeypatch.setattr(cli, "eig_hermitian", solve)
        # one solver thread, so the sizes come in block order
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        path = tmp_path / "grid.csv"
        assert cli.main(["spectrum", "--grid", "7", "--csv", str(path)]) == 0
        assert sizes == solves
        assert path.read_bytes() == grid_reference_text(7).encode()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_csv_does_not_depend_on_the_cpus(self, tmp_path, monkeypatch, cpus):
        """One CPU solves inline; more solve on background threads, one fewer than the CPUs."""
        threads, solve = set(), cli.eig_hermitian

        def recording(stack):
            threads.add(threading.get_ident())
            return solve(stack)

        monkeypatch.setattr(cli, "SWEEP_BLOCK", 5)
        monkeypatch.setattr(cli, "eig_hermitian", recording)
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        path = tmp_path / "grid.csv"
        assert cli.main(["spectrum", "--grid", "7", "--csv", str(path)]) == 0
        assert path.read_bytes() == grid_reference_text(7).encode()
        if cpus == 1:
            assert threads == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads and len(threads) <= cpus - 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_next_block_is_solved_while_this_one_is_written(self, tmp_path, monkeypatch, cpus):
        # with blocks of 7 each block of --grid 7 is one row; the second row's
        # build and the first row's format_rows wait for each other, which only
        # a solve on a background thread can do
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 7)
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        meeting, second_row = threading.Barrier(2, timeout=10), np.linspace(0.0, 2.0, 7)[1]
        build, format_block, formatted = cli.canonical_operator, cli.format_rows, []

        def meeting_build(s, t):
            if s[0] == second_row:
                meeting.wait()
            return build(s, t)

        def meeting_format(table):
            if not formatted:
                meeting.wait()
            formatted.append(len(table))
            return format_block(table)

        monkeypatch.setattr(cli, "canonical_operator", meeting_build)
        monkeypatch.setattr(cli, "format_rows", meeting_format)
        path = tmp_path / "grid.csv"
        assert cli.main(["spectrum", "--grid", "7", "--csv", str(path)]) == 0
        assert formatted == [7] * 7
        assert path.read_bytes() == grid_reference_text(7).encode()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_solve_leaves_no_csv_and_no_thread(self, tmp_path, monkeypatch, capsys, cpus):
        # with blocks of 21 --grid 7 has three, and only the second starts at s = 1
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 21)
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        build = cli.canonical_operator

        def failing(s, t):
            if s[0] == 1.0:
                raise np.linalg.LinAlgError("second block")
            return build(s, t)

        monkeypatch.setattr(cli, "canonical_operator", failing)
        baseline, path = threading.active_count(), tmp_path / "grid.csv"
        assert cli.main(["spectrum", "--grid", "7", "--csv", str(path)]) == 1
        assert capsys.readouterr().err == "error: second block\n"
        assert not path.exists()
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_unwritable_csv_leaves_no_thread(self, tmp_path, monkeypatch, cpus):
        # the first blocks are submitted before the CSV is opened; the threads
        # are joined on the way out, not when the traceback, which holds the
        # block iterator, is dropped
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        baseline, path = threading.active_count(), tmp_path / "missing" / "grid.csv"
        args = cli.build_parser().parse_args(["spectrum", "--grid", "50", "--csv", str(path)])
        with pytest.raises(FileNotFoundError) as excinfo:
            args.handler(args)
        # excinfo still holds the traceback here
        assert excinfo.value.filename == str(path)
        assert threading.active_count() == baseline

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_full_device_exits_1_and_leaves_no_thread(self, monkeypatch, capsys, cpus):
        # --grid 50 has three blocks, so the first write fails while the next is solved
        monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
        baseline = threading.active_count()
        assert cli.main(["spectrum", "--grid", "50", "--csv", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert threading.active_count() == baseline


class TestCanonicalStack:
    S = np.array([0.0, 2.0, 1e-300, 5e-324, 0.3, 1.9999999999999998, 1.25])
    T = np.array([0.0, 0.0, 2.0, 1e-160, 1.7, 0.5, 1.25])

    def test_scalar_call_is_the_coupling_operator_of_diag(self):
        for s, t in zip(self.S, self.T):
            H = canonical_operator(s, t)
            assert H.shape == (9, 9) and H.dtype == np.float64
            K = coupling_operator(np.diag([float(s), 0.0, float(t)]), SPIN1_REAL_TENSOR)
            # the Cartesian coupling operator of diag(s, 0, t), bit for bit
            assert bits_equal(H, K)
            # four entries +-s from S_x S_x and four +-t from S_z S_z
            assert np.count_nonzero(H) == 4 * (s != 0.0) + 4 * (t != 0.0)

    def test_array_matches_scalar_calls(self):
        stack = canonical_operator(self.S, self.T)
        assert stack.shape == (len(self.S), 9, 9)
        for k in range(len(self.S)):
            assert bits_equal(stack[k], canonical_operator(self.S[k], self.T[k]))

    def test_broadcast_shapes(self):
        grid = canonical_operator(self.S[:, None], self.T[None, :4])
        assert grid.shape == (len(self.S), 4, 9, 9)
        row = canonical_operator(1.5, self.T)
        assert row.shape == (len(self.T), 9, 9)
        column = canonical_operator(self.S.tolist(), 0.5)
        assert column.shape == (len(self.S), 9, 9)
        for i in range(len(self.S)):
            assert bits_equal(column[i], canonical_operator(self.S[i], 0.5))
            for j in range(4):
                assert bits_equal(grid[i, j], canonical_operator(self.S[i], self.T[j]))
        for j in range(len(self.T)):
            assert bits_equal(row[j], canonical_operator(1.5, self.T[j]))

    def test_float64_and_exactly_symmetric(self):
        for H in (
            canonical_operator(0.3, 1.7),
            canonical_operator(1.5, self.T),
            canonical_operator(self.S[:, None], self.T[None, :]),
        ):
            assert H.dtype == np.float64
            assert bits_equal(H, H.swapaxes(-1, -2))


class TestWriteCsv:
    HEADER = ["index", "x", "y"]

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1.5, 0.1], [7, np.float64(1.0 / 3.0), np.float32(0.1)]],
            [[np.int64(3), np.int32(-4), np.float64(2.0)], [-1, 2.0, 1e-300]],
            [[1, -0.0, np.float64(-0.0)], [2, 0.0, -1e-320]],
            [[10**15, 2**53, -(10**15)], [999_999_999_999_999, 123456789, 5e-324]],
            [[4, 1.7976931348623157e308, float("inf")], [5, float("nan"), -np.inf]],
            [],
        ],
        ids=["python-and-numpy", "numpy-ints", "negative-zero", "large-ints", "extremes", "empty"],
    )
    def test_matches_csv_writer(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        with open_csv(str(path), self.HEADER) as handle:
            handle.write(format_rows(rows))
        assert path.read_bytes() == csv_writer_text(self.HEADER, rows).encode()

    def test_consumes_a_generator_lazily(self, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)

        def rows():
            for k in range(5):
                # the header and every earlier row are written before row k is drawn
                assert out.getvalue().count("\n") == 1 + k
                yield (k, k / 2.0, -k)

        with open_csv(None, self.HEADER) as handle:
            handle.writelines(format_rows([row]) for row in rows())
        assert out.getvalue() == csv_writer_text(
            self.HEADER, [(k, k / 2.0, -k) for k in range(5)]
        )

    def test_failure_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("an earlier file\n")
        with pytest.raises(MemoryError):
            with open_csv(str(path), self.HEADER) as handle:
                handle.write(format_rows([[0, 1.0, 2.0]]))
                raise MemoryError
        assert not path.exists()

    def test_failure_keeps_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        with pytest.raises(MemoryError):
            with open_csv(str(link), self.HEADER):
                raise MemoryError
        assert link.is_symlink() and target.read_text() == "index,x,y\n"
