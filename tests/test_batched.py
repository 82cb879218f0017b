"""The stack forms of the Bell build, the eigensolve and the reduction against their scalar forms.

``verify`` reports every scenario from one batched pass and ``spectrum
--grid`` every grid row from one; each test here pins a batched result to
the per-item computation bit for bit.
"""

import csv
import io
import json
import sys

import numpy as np
import pytest

from spinchsh import (
    HermiticityError,
    MeasurementScenario,
    NormalizationError,
    QuantumState,
    RankDeficiencyError,
    bell_operator,
    canonical_operator,
    canonical_reduction,
    correlation_matrices,
    correlation_matrix,
    coupling_operator,
    eig_hermitian,
    expectation,
    random_directions,
    spin_along,
    svd3,
)
from spinchsh import cli
from spinchsh.serialize import complex_pairs, json_dumps, write_csv

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
    """One verify row computed per scenario: np.kron build, 2-D eigh, per-matrix reduction."""
    sa, sap, sb, sbp = (spin_along(u) for u in sc.directions())
    B = np.kron(sa, sb) + np.kron(sa, sbp) + np.kron(sap, sb) - np.kron(sap, sbp)
    assert np.array_equal(B, B.conj().T)
    norm = float(np.max(np.abs(np.linalg.eigh(B)[0])))
    _, _, s, t = loop_reduction(correlation_matrix(sc))
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


def assert_rows_match_reference(directions: np.ndarray) -> None:
    rows, _ = cli._verify_rows(directions)
    reference = [
        reference_row(i, MeasurementScenario(*quad)) for i, quad in enumerate(directions)
    ]
    for row, ref in zip(rows, reference):
        for key in ("operator_norm", "s", "t", "sum_sq_residual", "band_deviation"):
            assert row[key] == ref[key], (row["index"], key)
    # and the rendered report text is the same byte for byte
    assert json_dumps(rows) == json_dumps(reference)


class TestVerifyRows:
    def test_random_scenarios_match_per_scenario_path(self):
        directions = random_directions(np.random.default_rng(301), (300, 4))
        assert_rows_match_reference(directions)

    def test_edge_cases_match_per_scenario_path(self):
        directions = edge_directions()
        rows, _ = cli._verify_rows(directions)
        assert rows[0]["t"] == 0.0 and rows[3]["t"] == 0.0
        assert_rows_match_reference(directions)

    def test_blocks_join_seamlessly(self, monkeypatch):
        directions = random_directions(np.random.default_rng(5), (23, 4))
        whole, _ = cli._verify_rows(directions)
        monkeypatch.setattr(cli, "VERIFY_BLOCK", 5)
        blocked, last = cli._verify_rows(directions)
        assert json_dumps(blocked) == json_dumps(whole)
        assert [row["index"] for row in blocked] == list(range(23))
        assert last.shape == (3, 9, 9)

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
        assert row["expectation"] == expectation(loaded, bell_operator(sc))


class TestBellStack:
    def test_stack_matches_kron_per_scenario(self):
        directions = np.concatenate(
            [random_directions(np.random.default_rng(8), (50, 4)), edge_directions()]
        )
        stack = bell_operator(directions)
        assert stack.shape == (len(directions), 9, 9)
        for quad, B in zip(directions, stack):
            sa, sap, sb, sbp = (spin_along(u) for u in quad)
            kron = np.kron(sa, sb) + np.kron(sa, sbp) + np.kron(sap, sb) - np.kron(sap, sbp)
            assert np.array_equal(B, kron)
            assert np.array_equal(B, bell_operator(MeasurementScenario(*quad)))

    def test_leading_axes_are_kept(self):
        directions = random_directions(np.random.default_rng(9), (2, 3, 4))
        stack = bell_operator(directions)
        assert stack.shape == (2, 3, 9, 9)
        assert np.array_equal(stack[1, 2], bell_operator(directions[1, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.01])
    def test_stack_rejects_non_unit_direction(self, bad):
        directions = random_directions(np.random.default_rng(10), (6, 4))
        directions[4, 2, 1] = bad
        with pytest.raises(NormalizationError):
            bell_operator(directions)

    def test_rejects_wrong_stack_shape(self):
        with pytest.raises(ValueError):
            bell_operator(np.zeros((5, 3, 3)))


class TestEigStack:
    def test_stack_matches_per_matrix(self):
        stack = bell_operator(random_directions(np.random.default_rng(11), (40, 4)))
        batched = eig_hermitian(stack)
        assert batched.operator_norm.shape == (40,)
        for k, B in enumerate(stack):
            single = eig_hermitian(B)
            assert np.array_equal(batched.eigenvalues[k], single.eigenvalues)
            assert np.array_equal(batched.eigenvectors[k], single.eigenvectors)
            assert batched.operator_norm[k] == single.operator_norm
            assert type(single.operator_norm) is float

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


class TestSpectrumGrid:
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_csv_matches_per_point_reference(self, tmp_path, n):
        path = tmp_path / "grid.csv"
        assert cli.main(["spectrum", "--grid", str(n), "--csv", str(path)]) == 0
        values = np.linspace(0.0, 2.0, n)
        rows = []
        for s in values:
            for t in values:
                numeric = eig_hermitian(coupling_operator(np.diag([s, 0, t])))
                rows.append([s, t, *numeric.eigenvalues, numeric.operator_norm])
        header = ["s", "t", *(f"eig{k}" for k in range(1, 10)), "norm"]
        # 17 significant digits round-trip every float, so equal text is equal bits
        assert path.read_bytes() == csv_writer_text(header, rows).encode()


class TestCanonicalStack:
    S = np.array([0.0, 2.0, 1e-300, 5e-324, 0.3, 1.9999999999999998, 1.25])
    T = np.array([0.0, 0.0, 2.0, 1e-160, 1.7, 0.5, 1.25])

    def test_scalar_call_is_the_coupling_operator_of_diag(self):
        for s, t in zip(self.S, self.T):
            H = canonical_operator(s, t)
            assert H.shape == (9, 9)
            assert bits_equal(H, coupling_operator(np.diag([float(s), 0.0, float(t)])))

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
        write_csv(str(path), self.HEADER, rows)
        assert path.read_bytes() == csv_writer_text(self.HEADER, rows).encode()

    def test_consumes_a_generator_lazily(self, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)

        def rows():
            for k in range(5):
                # the header and every earlier row are written before row k is drawn
                assert out.getvalue().count("\n") == 1 + k
                yield (k, k / 2.0, -k)

        write_csv(None, self.HEADER, rows())
        assert out.getvalue() == csv_writer_text(
            self.HEADER, [(k, k / 2.0, -k) for k in range(5)]
        )
