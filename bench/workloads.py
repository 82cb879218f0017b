"""The four benchmark workloads: one operation each, its size, and its output check.

Every operation goes through a public entry point of the package, looked up
on its module at call time so that an installed tracer sees it:
``spinchsh.search.monte_carlo_certify`` or ``spinchsh.cli.main``. Checks run
outside the timed region and return a list of problems; an empty list means
the operation's output is correct.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import spinchsh
from spinchsh import cli, search
from spinchsh.tolerances import TOL


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return _sha256(handle.read())


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One operation repeated in a closed loop; subclasses fill in the four hooks."""

    name: str
    item: str  # what one unit of work is, for the named throughput
    full_size: int
    smoke_size: int
    calibration = "per_item"  # the reference kernel its work resembles

    def __init__(self, seed: int, size: int, tmpdir: str):
        self.seed = seed
        self.size = size
        self.csv_path = os.path.join(tmpdir, f"{self.name}-{size}.csv")

    @property
    def items(self) -> int:
        """Units of work in one operation."""
        return self.size

    def run(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def digests(self, result) -> dict[str, str]:
        """sha256 of each output the operation wrote (informational, not gated)."""
        return {}

    def csv_bytes(self) -> int:
        return os.path.getsize(self.csv_path) if os.path.exists(self.csv_path) else 0


class McCertify(Workload):
    name = "mc-certify"
    item = "scenarios"
    full_size = 25_000
    smoke_size = 2_000
    calibration = "batched"

    def run(self):
        return search.monte_carlo_certify(self.size, seed=self.seed)

    def check(self, worst) -> list[str]:
        if not abs(worst - 2.0) <= TOL.norm_band:
            return [f"worst norm {worst!r} is outside 2 +- {TOL.norm_band}"]
        return []


class VerifySweep(Workload):
    name = "verify-sweep"
    item = "scenarios"
    full_size = 500
    smoke_size = 50

    def run(self):
        return _run_cli(
            ["verify", "--random", str(self.size), "--seed", str(self.seed),
             "--jobs", "1", "--csv", self.csv_path]
        )

    def check(self, result) -> list[str]:
        code, stdout = result
        if code != cli.EXIT_OK:
            return [f"verify exited {code}"]
        report = json.loads(stdout)
        problems = []
        if report["all_within_band"] is not True:
            problems.append("all_within_band is not true")
        if report["count"] != self.size or len(report["scenarios"]) != self.size:
            problems.append(f"expected {self.size} rows, got {report['count']}")
        bad = [row["index"] for row in report["scenarios"]
               if not row["sum_sq_residual"] <= TOL.sum_squares]
        if bad:
            problems.append(f"{len(bad)} rows with sum_sq_residual above {TOL.sum_squares}")
        with open(self.csv_path, newline="") as handle:
            csv_rows = sum(1 for _ in handle) - 1
        if csv_rows != self.size:
            problems.append(f"CSV has {csv_rows} data rows, expected {self.size}")
        return problems

    def digests(self, result) -> dict[str, str]:
        return {"stdout": _sha256(result[1].encode()), "csv": _file_sha256(self.csv_path)}


class Seesaw(Workload):
    name = "seesaw"
    item = "restarts"
    full_size = 125  # restarts per family
    smoke_size = 20
    targets = {"qutrit-spin1": 2.0, "qubit-pauli": 2.0 * math.sqrt(2.0)}

    @property
    def items(self) -> int:
        return self.size * len(self.targets)

    def run(self):
        return {
            family: _run_cli(
                ["search", "--family", family, "--restarts", str(self.size),
                 "--seed", str(self.seed), "--jobs", "1"]
            )
            for family in self.targets
        }

    def check(self, result) -> list[str]:
        problems = []
        for family, (code, stdout) in result.items():
            if code != cli.EXIT_OK:
                problems.append(f"search --family {family} exited {code}")
                continue
            best = json.loads(stdout)["best_value"]
            if not abs(best - self.targets[family]) <= TOL.search_target:
                problems.append(
                    f"{family}: best_value {best!r} misses {self.targets[family]!r} "
                    f"by more than {TOL.search_target}"
                )
        return problems

    def digests(self, result) -> dict[str, str]:
        return {f"stdout.{family}": _sha256(out.encode()) for family, (_, out) in result.items()}


class SpectrumGrid(Workload):
    name = "spectrum-grid"
    item = "grid_points"
    full_size = 50  # points per axis
    smoke_size = 8

    @property
    def items(self) -> int:
        return self.size * self.size

    def run(self):
        return _run_cli(["spectrum", "--grid", str(self.size), "--csv", self.csv_path])

    def check(self, result) -> list[str]:
        code, _ = result
        if code != cli.EXIT_OK:
            return [f"spectrum exited {code}"]
        with open(self.csv_path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        problems = []
        if len(rows) != self.items:
            problems.append(f"CSV has {len(rows)} data rows, expected {self.items}")
        worst = 0.0
        for row in rows:
            s, t = float(row[0]), float(row[1])
            closed = spinchsh.closed_form_spectrum(s, t).eigenvalues
            worst = max(worst, max(abs(float(x) - c) for x, c in zip(row[2:11], closed)))
        if not worst <= TOL.spectrum:
            problems.append(f"eigenvalues differ from the closed form by {worst:.3e}")
        return problems

    def digests(self, result) -> dict[str, str]:
        return {"csv": _file_sha256(self.csv_path)}


WORKLOADS = {w.name: w for w in (McCertify, VerifySweep, Seesaw, SpectrumGrid)}
