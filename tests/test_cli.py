import contextlib
import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinchsh import (
    TOL,
    MeasurementScenario,
    bell_operator,
    canonical_reduction,
    closed_form_spectrum,
    correlation_matrix,
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
            red = canonical_reduction(correlation_matrix(sc))
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
        # and the absolute discrepancy at this scale fails the gate
        code, out, _ = run(capsys, "spectrum", "--s", "1e154", "--t", "1e154")
        assert code == 2
        report = json.loads(out)
        assert report["operator_norm_closed_form"] == float(np.hypot(1e154, 1e154))

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

    def test_bad_matrix_json(self, capsys):
        code, _, _ = run(capsys, "reduce", "--matrix", "[[1,2],[3,4]]")
        assert code == 1
        code, _, _ = run(capsys, "reduce", "--matrix", "not json")
        assert code == 1

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
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "spinchsh", "spectrum", "--s", "1", "--t", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["max_discrepancy"] < 1e-10
