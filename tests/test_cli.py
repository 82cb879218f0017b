import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinchsh import (
    TOL,
    MeasurementScenario,
    bell_operator,
    canonical_reduction,
    closed_form_spectrum,
    correlation_matrices,
    eig_hermitian,
)
from spinchsh import cli, search
from spinchsh.cli import main

# a numpy warning on the way to a report or a rejection is a defect of its own
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TIGHT = {
    "a": [0.0, 0.0, 1.0],
    "a_prime": [0.0, 0.0, 1.0],
    "b": [0.0, 0.0, 1.0],
    "b_prime": [0.0, 0.0, 1.0],
}


@pytest.fixture
def tight_file(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(TIGHT))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_tight_file(self, capsys, tight_file):
        code, out, _ = run(capsys, "verify", tight_file)
        assert code == 0
        report = json.loads(out)
        row = report["scenarios"][0]
        assert row["operator_norm"] == 2.0
        assert (row["s"], row["t"]) == (2.0, 0.0)
        assert row["sum_sq_residual"] == 0.0
        assert report["all_within_band"] is True

    def test_random_sample(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "50", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 50
        assert len(report["scenarios"]) == 50
        assert report["max_band_deviation"] <= 1e-9

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "verify", "--random", "100", "--seed", "7")
        _, second, _ = run(capsys, "verify", "--random", "100", "--seed", "7")
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "verify", "--random", "30", "--seed", "3")
        _, threaded, _ = run(capsys, "verify", "--random", "30", "--seed", "3", "--jobs", "4")
        assert serial == threaded

    @pytest.mark.parametrize("command", [["verify", "--random", "3"], ["search", "--restarts", "1"]])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_rejected(self, capsys, command, jobs):
        code, out, err = run(capsys, *command, "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--jobs" in err

    def test_round_trip_fidelity(self, capsys):
        # everything the report serializes must recompute to the same values
        _, out, _ = run(capsys, "verify", "--random", "20", "--seed", "11")
        for row in json.loads(out)["scenarios"]:
            sc = MeasurementScenario(row["a"], row["a_prime"], row["b"], row["b_prime"])
            norm = eig_hermitian(bell_operator(sc)).operator_norm
            red = canonical_reduction(correlation_matrices(sc))
            assert abs(norm - row["operator_norm"]) < 1e-10
            assert abs(red.s - row["s"]) < 1e-10
            assert abs(red.t - row["t"]) < 1e-10

    def test_csv_sweep(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "verify", "--random", "10", "--seed", "2", "--csv", str(path))
        assert code == 0
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "index", "ax", "ay", "az", "apx", "apy", "apz",
            "bx", "by", "bz", "bpx", "bpy", "bpz", "s", "t", "norm",
        ]
        assert len(rows) == 11
        s, t = float(rows[1][13]), float(rows[1][14])
        assert abs(s * s + t * t - 4.0) < 1e-9

    def test_zero_vector_rejected(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({**TIGHT, "a": [0.0, 0.0, 0.0]}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "norm" in err

    def test_malformed_json_reports_location(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": [0, 0, 1],,}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "line 1" in err

    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"a": [0, 0, 1]}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "a_prime" in err

    def test_autonormalization_warns(self, capsys, tmp_path):
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({**TIGHT, "a": [0.0, 0.0, 1.0 + 1e-8]}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0
        assert "normalizing" in err
        assert json.loads(out)["scenarios"][0]["operator_norm"] == 2.0

    def test_far_from_unit_rejected(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({**TIGHT, "a": [0.0, 0.0, 1.01]}))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 1

    def test_needs_some_input(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 1

    def test_rejects_zero_samples(self, capsys):
        code, _, _ = run(capsys, "verify", "--random", "0")
        assert code == 1

    def test_rejects_counts_above_two_to_the_53(self, capsys):
        # the CSV's %.17g writes every index up to 2**53 exactly
        code, out, err = run(capsys, "verify", "--random", "9007199254740993")
        assert code == 1 and out == ""
        assert err == (
            "error: argument --random: must be at most 9007199254740992, got 9007199254740993\n"
        )

    @pytest.mark.parametrize(
        "message, line",
        [("Unable to allocate 768. PiB", "Unable to allocate 768. PiB"), ("", "MemoryError")],
    )
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, message, line):
        def no_memory(rng, shape):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "random_directions", no_memory)
        code, out, err = run(capsys, "verify", "--random", "5")
        assert code == 1 and out == ""
        assert err == f"error: {line}\n"

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e200"])
    def test_non_finite_direction_rejected(self, capsys, tmp_path, bad):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(TIGHT).replace("0.0", bad, 1))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "field 'a'" in err

    def test_input_tolerances_come_from_tol(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({**TIGHT, "a": [0.0, 0.0, 1.001]}))
        assert run(capsys, "verify", str(path))[0] == 1
        monkeypatch.setattr(cli, "TOL", dataclasses.replace(TOL, unit_norm_input=1e-2))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 0 and "normalizing" in err
        monkeypatch.setattr(
            cli, "TOL", dataclasses.replace(TOL, unit_norm_input=1e-2, unit_norm_reject=1e-2)
        )
        code, _, err = run(capsys, "verify", str(path))
        assert code == 0 and err == ""

    def test_unwritable_csv_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "verify", "--random", "3", "--csv", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_state_expectation_reported(self, capsys, tmp_path):
        state = {"kind": "pure", "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 8}
        path = tmp_path / "with_state.json"
        path.write_text(json.dumps({**TIGHT, "state": state}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert abs(json.loads(out)["scenarios"][0]["expectation"] - 2.0) < 1e-12


    @pytest.mark.parametrize(
        "state",
        [
            {"kind": "pure", "data": [[float("nan"), 0.0]] * 9},
            {"kind": "pure", "data": [[1.0, 0.0]] + [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7},
            {"kind": "mixed", "data": [[[float("nan"), 0.0]] * 9] * 9},
        ],
        ids=["pure-all-nan", "pure-one-nan", "mixed-nan"],
    )
    def test_non_finite_state_rejected(self, capsys, tmp_path, state):
        path = tmp_path / "nan_state.json"
        path.write_text(json.dumps({**TIGHT, "state": state}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid state") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "state",
        [
            {"kind": "pure", "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 3},
            {"kind": "mixed", "data": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        ],
        ids=["pure-4", "mixed-2x2"],
    )
    def test_state_dimension_mismatch_rejected(self, capsys, tmp_path, state):
        path = tmp_path / "qubit_state.json"
        path.write_text(json.dumps({**TIGHT, "state": state}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dimension" in err


class TestSpectrum:
    def test_near_sqrt2_parameters(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--s", "1.4142135", "--t", "1.4142135")
        assert code == 0
        report = json.loads(out)
        assert report["max_discrepancy"] < 1e-10
        assert abs(report["operator_norm_numerical"] - 2.0) < 1e-6
        assert abs(max(report["numerical"]) - 2.0) < 1e-6

    def test_zero_parameters(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--s", "0", "--t", "0")
        assert code == 0
        assert json.loads(out)["numerical"] == [0.0] * 9

    def test_tiny_t_passes_the_discrepancy_gate(self, capsys):
        # eigvalsh alone put the norm 2.5e-6 off sqrt(s^2 + t^2) here
        code, out, _ = run(capsys, "spectrum", "--s", "1.25", "--t", "5.540939184423706e-160")
        assert code == 0
        assert json.loads(out)["operator_norm_numerical"] == 1.25

    def test_negative_rejected(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--s", "-1", "--t", "0")
        assert code == 1

    # the last two are finite, but the closed-form norm sqrt(s^2 + t^2) overflows
    @pytest.mark.parametrize(
        "s, t",
        [
            ("nan", "1"), ("1", "nan"), ("inf", "0"), ("0", "-inf"),
            ("1.7e308", "1.7e308"), ("1.3e308", "1.3e308"),
        ],
    )
    def test_non_finite_rejected(self, capsys, s, t):
        code, out, err = run(capsys, "spectrum", f"--s={s}", f"--t={t}")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    def test_huge_representable_keeps_its_exit_code(self, capsys):
        # s^2 + t^2 overflows but sqrt(s^2 + t^2) does not: the report is finite,
        # and the discrepancy gate scales with the norm
        code, out, _ = run(capsys, "spectrum", "--s", "1e154", "--t", "1e154")
        assert code == 0
        report = json.loads(out)
        assert report["operator_norm_closed_form"] == float(np.hypot(1e154, 1e154))

    @pytest.mark.parametrize(
        "s, t", [("1e6", "1e6"), ("1e8", "1e8"), ("1e154", "1e154"), ("1e300", "1e-300")]
    )
    def test_discrepancy_gate_scales_with_the_norm(self, capsys, s, t):
        # each discrepancy is below 1e-15 of sqrt(s^2 + t^2), but above 1e-10 absolute
        code, out, _ = run(capsys, "spectrum", "--s", s, "--t", t)
        assert code == 0
        report = json.loads(out)
        assert report["max_discrepancy"] > TOL.spectrum
        assert report["max_discrepancy"] <= 1e-15 * report["operator_norm_closed_form"]

    def test_discrepancy_gate_exits_2(self, capsys, monkeypatch):
        # a tolerance no discrepancy can meet: the report is still printed
        monkeypatch.setattr(cli, "TOL", dataclasses.replace(TOL, spectrum=-1.0))
        code, out, _ = run(capsys, "spectrum", "--s", "1.3", "--t", "0.7")
        assert code == 2
        assert json.loads(out)["max_discrepancy"] >= 0.0
        monkeypatch.setattr(cli, "TOL", TOL)
        assert run(capsys, "spectrum", "--s", "1.3", "--t", "0.7")[0] == 0

    def test_unwritable_grid_csv_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "spectrum", "--grid", "2", "--csv", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_scenario_file(self, capsys, tight_file):
        code, out, _ = run(capsys, "spectrum", tight_file)
        assert code == 0
        report = json.loads(out)
        assert (report["s"], report["t"]) == (2.0, 0.0)
        expected = closed_form_spectrum(2.0, 0.0).eigenvalues
        assert np.allclose(report["closed_form"], expected, atol=1e-15)
        assert report["max_discrepancy"] < 1e-10

    def test_grid_csv(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "spectrum", "--grid", "5", "--csv", str(path))
        assert code == 0
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 26
        assert rows[0][:2] == ["s", "t"]
        for row in rows[1:]:
            s, t = float(row[0]), float(row[1])
            numeric = np.array([float(x) for x in row[2:11]])
            expected = closed_form_spectrum(s, t).eigenvalues
            assert np.max(np.abs(numeric - expected)) < 1e-10


# each gives two inputs a subcommand takes only one of, or one it does not take alone;
# P stands for a CSV path that must not be written
CONFLICTS = [
    ("spectrum", "FILE", "--s", "1", "--t", "1"),
    ("spectrum", "--grid", "2", "--s", "1", "--t", "1"),
    ("spectrum", "FILE", "--grid", "2"),
    ("spectrum", "--t", "1", "--grid", "2"),
    ("spectrum", "--s", "1", "--t", "1", "--csv", "P"),
    ("spectrum", "FILE", "--csv", "P"),
    ("spectrum", "--s", "1"),
    ("verify", "FILE", "--random", "3"),
    ("reduce", "FILE", "--matrix", "[[1,0,0],[0,0,0],[0,0,1]]"),
]


@pytest.mark.parametrize("argv", CONFLICTS, ids=" ".join)
def test_conflicting_inputs_rejected(capsys, tmp_path, tight_file, argv):
    path = tmp_path / "out.csv"
    argv = [{"FILE": tight_file, "P": str(path)}.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not path.exists()


# inputs the JSON decoder cannot take: a FILE holding bytes that are not UTF-8, and
# nesting deeper than the decoder's recursion limit; then a FILE that is never
# written, and one whose top level is not an object
NOT_UTF8 = b'\xff\xfe{"a": [0,0,1]}'
MALFORMED = [
    pytest.param(("verify", "FILE"), NOT_UTF8, id="verify-not-utf8"),
    pytest.param(("spectrum", "FILE"), NOT_UTF8, id="spectrum-not-utf8"),
    pytest.param(("reduce", "FILE"), NOT_UTF8, id="reduce-not-utf8"),
    pytest.param(("verify", "FILE"), b"[" * 100_000, id="verify-deeply-nested"),
    pytest.param(("reduce", "--matrix", "[" * 3000 + "]" * 3000), None, id="matrix-deeply-nested"),
    pytest.param(("verify", "FILE"), None, id="verify-unreadable"),
    pytest.param(("verify", "FILE"), b"[[0, 0, 1]]", id="verify-top-level-list"),
]


@pytest.mark.parametrize("argv, content", MALFORMED)
def test_malformed_input_is_one_error_line(capsys, tmp_path, argv, content):
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    named = str(path) if "FILE" in argv else "--matrix"
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert named in err


PURE_MATRIX = [[[3**-0.5 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]

# a scenario FILE with one bad field, and the field or key the error must name
BAD_FIELDS = [
    pytest.param({"a": "abc"}, "'a'", id="non-numeric"),
    pytest.param({"b": [1.0, 0.0]}, "'b'", id="two-components"),
    pytest.param({"state": [1.0, 0.0]}, "state", id="state-not-an-object"),
    pytest.param({"state": {"kind": "pure", "data": [[1, 0, 0]] * 9}}, "state", id="state-not-pairs"),
    pytest.param({"state": {"kind": "bra", "data": [[1, 0]] * 9}}, "state", id="unknown-state-kind"),
    pytest.param({"state": {"kind": "mixed", "data": [[1, 0]] * 9}}, "state", id="mixed-not-square"),
    # nine pairs as a 3x3 matrix (the identity over sqrt(3)) used to be flattened and accepted
    pytest.param({"state": {"kind": "pure", "data": PURE_MATRIX}}, "vector", id="pure-not-a-vector"),
    # numpy's float cast reads a numeric string or a boolean as a number,
    # and cannot take an integer beyond the float range
    pytest.param({"a": [0, 0, "1"]}, "'a'", id="string-component"),
    pytest.param({"a_prime": [True, False, False]}, "'a_prime'", id="boolean-component"),
    pytest.param({"b": [0, 0, 10**400]}, "'b'", id="component-beyond-float-range"),
    pytest.param({"state": {"kind": "pure", "data": [["1", 0]] + [[0, 0]] * 8}}, "state", id="state-string-entry"),
    pytest.param({"state": {"kind": "pure", "data": [[True, 0]] + [[0, 0]] * 8}}, "state", id="state-boolean-entry"),
    pytest.param({"state": {"kind": "pure", "data": [[{}, 0]] + [[0, 0]] * 8}}, "state", id="state-object-entry"),
]


@pytest.mark.parametrize("field, named", BAD_FIELDS)
def test_bad_scenario_field_is_one_error_line(capsys, tmp_path, field, named):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**TIGHT, **field}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert named in err


class TestReduce:
    def test_tight_certificate(self, capsys, tight_file):
        code, out, _ = run(capsys, "reduce", tight_file)
        assert code == 0
        report = json.loads(out)
        assert (report["s"], report["t"]) == (2.0, 0.0)
        assert report["reconstruction_residual"] < 1e-10
        assert report["det_R_residual"] < 1e-10
        assert report["det_Q_residual"] < 1e-10
        assert report["conjugation_residual"] <= TOL.conjugation
        # certificate is self-verifying: rebuild the reduction from R, Q
        R, Q = np.array(report["R"]), np.array(report["Q"])
        M = np.array(report["matrix"])
        assert np.linalg.norm(R @ M @ Q.T - np.diag([report["s"], 0.0, report["t"]])) < 1e-10

    def test_random_scenario_sum_of_squares(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        path = tmp_path / "random.json"
        path.write_text(
            json.dumps(
                {
                    "a": vs[0].tolist(),
                    "a_prime": vs[1].tolist(),
                    "b": vs[2].tolist(),
                    "b_prime": vs[3].tolist(),
                }
            )
        )
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert abs(json.loads(out)["sum_of_squares"] - 4.0) < 1e-9

    def test_rank3_matrix_exits_3(self, capsys):
        code, _, err = run(capsys, "reduce", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]")
        assert code == 3
        assert "singular value" in err

    def test_rank2_matrix_accepted(self, capsys):
        code, out, _ = run(capsys, "reduce", "--matrix", "[[1,0,0],[0,2,0],[0,0,0]]")
        assert code == 0
        report = json.loads(out)
        assert (report["s"], report["t"]) == (2.0, 1.0)

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            ("[[1e9,2e9,3e9],[4e9,5e9,6e9],[7e9,8e9,9e9]]", 0),  # rank 2, sigma3 9.5e-7
            ("[[1,2,3],[4,5,6],[7,8,9]]", 0),
            ("[[0,0,0],[0,0,0],[0,0,0]]", 0),
            ("[[1e-9,0,0],[0,1e-9,0],[0,0,1e-9]]", 3),
            ("[[1e-9,2e-9,3e-9],[4e-9,5e-9,6e-9],[7e-9,8e-9,10e-9]]", 3),
        ],
    )
    def test_rank_gate_scales_with_the_matrix(self, capsys, matrix, expected):
        code, out, err = run(capsys, "reduce", "--matrix", matrix)
        assert code == expected
        if expected == 0:
            assert np.isfinite(json.loads(out)["s"]) and err == ""
        else:
            assert out == "" and err.count("\n") == 1 and "singular value" in err

    def test_bad_matrix_json(self, capsys):
        code, _, _ = run(capsys, "reduce", "--matrix", "[[1,2],[3,4]]")
        assert code == 1
        code, _, _ = run(capsys, "reduce", "--matrix", "not json")
        assert code == 1
        # numpy's float cast reads a numeric string or a boolean as a number,
        # and cannot take an integer beyond the float range
        for matrix in (
            '[["1",0,0],[0,0,0],[0,0,1]]',
            "[[1,0,0],[0,0,0],[0,0,true]]",
            "[[1" + "0" * 400 + ",0,0],[0,0,0],[0,0,0]]",
        ):
            code, out, err = run(capsys, "reduce", "--matrix", matrix)
            assert code == 1
            assert out == ""
            assert err.startswith("error: --matrix") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_matrix_rejected(self, capsys, bad):
        code, out, err = run(capsys, "reduce", "--matrix", f"[[{bad},0,0],[0,1,0],[0,0,0]]")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("big", ["1e200", "1e154", "1.79e308"])
    def test_huge_matrix_rejected(self, capsys, big):
        # finite entries whose sum of squares, the report's s^2 + t^2, overflows
        code, out, err = run(capsys, "reduce", "--matrix", f"[[{big},0,0],[0,{big},0],[0,0,0]]")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    def test_huge_representable_matrix_accepted(self, capsys):
        code, out, _ = run(capsys, "reduce", "--matrix", "[[9e153,0,0],[0,9e153,0],[0,0,0]]")
        assert code == 0
        report = json.loads(out)
        assert report["s"] == pytest.approx(9e153, rel=1e-12)
        assert report["sum_of_squares"] == pytest.approx(2 * 9e153**2, rel=1e-12)

    def test_needs_exactly_one_input(self, capsys, tight_file):
        code, _, _ = run(capsys, "reduce")
        assert code == 1
        code, _, _ = run(capsys, "reduce", tight_file, "--matrix", "[[0,0,0],[0,0,0],[0,0,0]]")
        assert code == 1


class TestSearch:
    def test_qubit_control(self, capsys):
        code, out, _ = run(
            capsys, "search", "--family", "qubit-pauli", "--restarts", "40", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["best_value"] - 2.0 * np.sqrt(2.0)) < 1e-6
        assert report["within_tolerance"] is True

    def test_qutrit_family(self, capsys):
        code, out, _ = run(
            capsys, "search", "--family", "qutrit-spin1", "--restarts", "20", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["best_value"] - 2.0) < 1e-6

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "search", "--family", "qudit-spin2")
        assert code == 1
        assert "unknown measurement family" in err

    def test_zero_restarts(self, capsys):
        code, _, _ = run(capsys, "search", "--restarts", "0")
        assert code == 1

    def test_report_is_deterministic(self, capsys):
        args = ("search", "--family", "qubit-pauli", "--restarts", "8", "--seed", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCertify:
    ARGS = ("certify", "--samples", "300", "--restarts", "20", "--seed", "1")

    def test_passes(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert abs(report["monte_carlo"]["max_norm"] - 2.0) <= 1e-9
        targets = {s["family"]: s["best_value"] for s in report["search"]}
        assert abs(targets["qutrit-spin1"] - 2.0) < 1e-6
        assert abs(targets["qubit-pauli"] - 2.0 * np.sqrt(2.0)) < 1e-6

    def test_impossible_band_exits_2_with_scenario(self, capsys, monkeypatch):
        tight = dataclasses.replace(TOL, norm_band=1e-17)
        monkeypatch.setattr(cli, "TOL", tight)
        monkeypatch.setattr(search, "TOL", tight)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 2
        report = json.loads(out)
        assert report["passed"] is False
        monte_carlo = report["monte_carlo"]
        assert monte_carlo["within_band"] is False
        assert set(monte_carlo["offending_scenario"]) == {"a", "a_prime", "b", "b_prime"}
        assert abs(monte_carlo["offending_norm"] - 2.0) < 1e-9

    def test_csv_row_count(self, capsys, tmp_path):
        path = tmp_path / "norms.csv"
        code, _, _ = run(capsys, *self.ARGS, "--csv", str(path))
        assert code == 0
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "index" and rows[0][-1] == "norm"
        assert len(rows) == 301

    @pytest.mark.parametrize("flag", ["--samples", "--restarts"])
    def test_rejects_zero_counts(self, capsys, flag):
        assert run(capsys, "certify", flag, "0")[0] == 1


# the subcommands that draw from a seed, at a small size
SEEDED = [
    ("verify", "--random", "2"),
    ("search", "--restarts", "2"),
    ("certify", "--samples", "10", "--restarts", "2"),
]


class TestSeedEnvironment:
    def test_env_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINCHSH_SEED", "99")
        _, out, _ = run(capsys, "verify", "--random", "5", "--seed", "7")
        assert json.loads(out)["seed"] == 99

    def test_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINCHSH_SEED", "not-a-number")
        code, _, err = run(capsys, "verify", "--random", "5")
        assert code == 1
        assert "SPINCHSH_SEED" in err

    def test_env_applies_to_search(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINCHSH_SEED", "4")
        _, out, _ = run(capsys, "search", "--family", "qubit-pauli", "--restarts", "3")
        assert json.loads(out)["seed"] == 4

    @pytest.mark.parametrize("argv", SEEDED, ids=lambda argv: argv[0])
    def test_negative_seed_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: argument --seed: must be at least 0, got -1\n"

    @pytest.mark.parametrize("argv", SEEDED, ids=lambda argv: argv[0])
    def test_negative_env_seed_rejected(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("SPINCHSH_SEED", "-3")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: SPINCHSH_SEED: must be at least 0, got -3\n"

    def test_env_checked_without_random(self, capsys, monkeypatch, tight_file):
        # every subcommand with --seed checks the variable, whether or not it draws
        monkeypatch.setenv("SPINCHSH_SEED", "abc")
        code, out, err = run(capsys, "verify", tight_file)
        assert code == 1 and out == ""
        assert err == "error: SPINCHSH_SEED: expected an integer, got 'abc'\n"

    def test_zero_seed_accepted(self, capsys, monkeypatch):
        _, out, _ = run(capsys, "verify", "--random", "2", "--seed", "0")
        assert json.loads(out)["seed"] == 0
        monkeypatch.setenv("SPINCHSH_SEED", "0")
        _, out, _ = run(capsys, "verify", "--random", "2", "--seed", "5")
        assert json.loads(out)["seed"] == 0


_huge_finite = st.floats(min_value=-1.79e308, max_value=1.79e308)


@settings(max_examples=150)
@given(
    command=st.sampled_from(["reduce", "spectrum", "verify"]),
    values=st.lists(_huge_finite, min_size=12, max_size=12),
)
def test_finite_inputs_end_in_a_documented_exit(tmp_path_factory, command, values):
    """Any finite --matrix entries, --s/--t or scenario-file directions: an exit code, never a trace.

    The values run up to the largest doubles, so squares and norms overflow.
    """
    if command == "reduce":
        argv = ["reduce", "--matrix", json.dumps([values[0:3], values[3:6], values[6:9]])]
    elif command == "spectrum":
        argv = ["spectrum", f"--s={abs(values[0])!r}", f"--t={abs(values[1])!r}"]
    else:
        path = tmp_path_factory.mktemp("scenario") / "huge.json"
        quads = [values[0:3], values[3:6], values[6:9], values[9:12]]
        path.write_text(json.dumps(dict(zip(("a", "a_prime", "b", "b_prime"), quads))))
        argv = ["verify", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spinchsh", "spectrum", "--s", "1", "--t", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["max_discrepancy"] < 1e-10


class TestRepeatedCalls:
    """``main`` runs many times in one process on one shared parser."""

    def test_parser_built_once(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        run(capsys, "spectrum", "--s", "1", "--t", "1")
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for _ in range(2):
            assert run(capsys, "spectrum", "--s", "1", "--t", "1")[0] == 0
        assert built == []

    def test_nothing_carries_over_between_calls(self, capsys, monkeypatch, tight_file):
        searches = [
            ("search", "--family", family, "--restarts", "20", "--seed", "3")
            for family in ("qutrit-spin1", "qubit-pauli")
        ]
        verify = ("verify", "--random", "5", "--seed", "2")
        calls = [(argv, None) for argv in searches] + [
            (("verify", tight_file, "--random", "5"), None),
            (("search", "--restarts", "0"), None),
            (verify, "9"),
            (verify, None),
        ] + [(argv, None) for argv in searches]

        in_process = []
        for argv, seed_env in calls:
            if seed_env is None:
                monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(cli.SEED_ENV_VAR, seed_env)
            in_process.append(run(capsys, *argv))

        src = str(Path(cli.__file__).resolve().parents[1])
        alone = {}
        for argv, seed_env in calls:
            if (argv, seed_env) in alone:
                continue
            env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV_VAR}
            if seed_env is not None:
                env[cli.SEED_ENV_VAR] = seed_env
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "spinchsh", *argv], capture_output=True, text=True, env=env
            )
            alone[argv, seed_env] = (proc.returncode, proc.stdout, proc.stderr)

        for call, result in zip(calls, in_process):
            assert result == alone[call], call
        assert in_process[-2:] == in_process[:2]
        assert [code for code, _, _ in in_process] == [0, 0, 1, 1, 0, 0, 0, 0]
        assert json.loads(in_process[4][1])["seed"] == 9
        assert json.loads(in_process[5][1])["seed"] == 2
