#!/usr/bin/env python3
"""Benchmark of the spinchsh certifier: four closed-loop workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc-certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke        # every workload at tiny size, a few seconds

One client in this process issues one operation after another (``--jobs 1``)
until ``--seconds`` have passed. Each operation's output is checked outside
the timed region; a failed check or an exception counts as a failed
operation. Operation times are calibrated against a reference kernel run
between operations (see calibration.py), set-up times against a reference
interpreter spawn. The package is imported from ``src/`` of the checkout,
never from an installed copy.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, taken
with no tracing installed. With ``--trace 1`` operations alternate between
untraced and traced, and the last line holds the per-layer metrics of the
traced ones (averaged per operation) and ``trace.overhead_ratio``, the median
traced over the median untraced operation time. The line before the last is a
report with provenance, timing quartiles, sample counts and output digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_OPS = 3
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# the CLI lets this variable override --seed; the program must see only
# the seed the benchmark derives
SEED_ENV_VAR = "SPINCHSH_SEED"
_SETUP_CODE = (
    "import sys, spinchsh, spinchsh.cli; spinchsh.cli.build_parser(); "
    "sys.stdout.write('1'); sys.stdout.flush()"
)
# set-up is process start and imports, which the calibration kernel does
# not resemble; it is calibrated instead against a fresh interpreter that
# imports only numpy, spawned between the set-up spawns
_REFERENCE_CODE = "import sys, numpy; sys.stdout.write('1'); sys.stdout.flush()"
# a fixed scale, near the reference spawn's time on a 2-core x86-64 machine
REFERENCE_SPAWN_NOMINAL_S = 0.15


def _spawn_seconds(code: str) -> float:
    """Seconds from spawning ``python -c code`` until it writes its first byte."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT
    ) as child:
        ready = child.stdout.read(1)
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or ready != b"1":
        raise RuntimeError(f"interpreter for set-up timing exited with {child.returncode}")
    return elapsed


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall and calibrated seconds from spawning a fresh interpreter until it
    has imported spinchsh and built the CLI parser. One untimed spawn first
    fills the bytecode cache; each timed spawn lies between two reference
    spawns and is divided by their mean time over the nominal one."""
    _spawn_seconds(_SETUP_CODE)
    wall, calibrated = [], []
    reference = _spawn_seconds(_REFERENCE_CODE)
    for _ in range(repeats):
        elapsed = _spawn_seconds(_SETUP_CODE)
        reference_after = _spawn_seconds(_REFERENCE_CODE)
        wall.append(elapsed)
        calibrated.append(
            elapsed * REFERENCE_SPAWN_NOMINAL_S / ((reference + reference_after) / 2.0)
        )
        reference = reference_after
    return wall, calibrated


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def source_sha256() -> str:
    """Digest of every file under src/ (path and content), so a result names
    the exact code it measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def blas_config(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        text = io.StringIO()
        with redirect_stdout(text):
            numpy.show_config()
        return {"text": text.getvalue()}


def provenance(numpy, spinchsh, seed: int, program_seed: int, sizes: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "spinchsh_version": spinchsh.__version__,
        "seed": seed,
        "program_seed": program_seed,
        "sizes": sizes,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_config(numpy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        only = values[0] if values else None
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Loop:
    """Runs one workload's operations in a closed loop and checks each output.

    Every operation is followed by one run of the calibration kernel, so
    each operation lies between two speed factors; its calibrated time is its
    wall time over their mean.
    """

    def __init__(self, workload, calibration, tracer=None):
        self.workload = workload
        self.calibration = calibration
        self.tracer = tracer
        self.attempted = 0
        self.traced_attempted = 0
        self.failures: list[str] = []
        self.wall = {False: [], True: []}  # keyed by traced
        self.calibrated = {False: [], True: []}
        self.factors: list[float] = []
        self.layers: Counter = Counter()
        self.digests: dict[str, set] = {}
        self.first_op_rss_mb = None

    def op(self, traced: bool, factor_before: float) -> float:
        """One operation and its check; returns the speed factor after it."""
        self.attempted += 1
        self.traced_attempted += traced
        gc.collect()
        result, error = None, None
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            result = self.workload.run()
        except Exception as exc:  # a failed operation, counted; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        factor_after = self.calibration.factor()
        factor = (factor_before + factor_after) / 2.0
        self.factors.append(factor)
        if traced:
            for key, value in self.tracer.take().items():
                self.layers[key] += value / factor if key.endswith("_s") else value
        if self.first_op_rss_mb is None:
            # taken before any full-size check runs, so the checks' own
            # memory does not count
            self.first_op_rss_mb = peak_rss_mb()
        if error is None:
            try:
                problems = self.workload.check(result)
                for key, value in self.workload.digests(result).items():
                    self.digests.setdefault(key, set()).add(value)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error is not None:
            self.failures.append(error[:500])
        else:
            self.wall[traced].append(elapsed)
            self.calibrated[traced].append(elapsed / factor)
        return factor_after

    def run(self, seconds: float, trace: bool) -> None:
        """Operations until ``seconds`` have passed and at least MIN_OPS ran;
        a traced run alternates untraced and traced and ends on a pair."""
        deadline = time.perf_counter() + seconds
        factor = self.calibration.factor()
        while (
            self.attempted < MIN_OPS
            or time.perf_counter() < deadline
            or (trace and self.attempted % 2)
        ):
            factor = self.op(trace and self.attempted % 2 == 1, factor)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/op"
    if metric.endswith("bytes"):
        return "B/op"
    return "count/op"


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    smoke: bool = False, setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Measure one workload and return the object for the last line of output."""
    import numpy
    import spinchsh
    from tracing import METRICS, Tracer
    from workloads import WORKLOADS

    setup_wall, setup = ([], []) if trace else measure_setup(setup_repeats)
    program_seed = seed % 2**32
    cls = WORKLOADS[name]
    size = cls.smoke_size if smoke else cls.full_size
    calibration = Calibration(cls.calibration)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp:
        # tiny untimed operation first, so lazy imports and LAPACK start-up
        # are done before anything is timed
        try:
            cls(program_seed, cls.smoke_size, tmp).run()
        except Exception:
            pass  # the timed operations record the failure

        workload = cls(program_seed, size, tmp)
        loop = Loop(workload, calibration, Tracer() if trace else None)
        loop.run(seconds, trace)
        csv_bytes = workload.csv_bytes()

    untraced = quartiles(loop.calibrated[False])
    item_rate = workload.items / untraced["median"] if untraced["n"] else 0.0
    wall = quartiles(loop.wall[False])
    report = {
        "workload": name,
        "item": workload.item,
        "items_per_op": workload.items,
        f"{workload.item}_per_s": item_rate,
        f"{workload.item}_per_wall_s": workload.items / wall["median"] if wall["n"] else 0.0,
        "op_calibrated_s": untraced,
        "op_wall_s": wall,
        "speed_factor": quartiles(loop.factors),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:10],
        "sha256": {k: sorted(v) for k, v in loop.digests.items()},
        "provenance": provenance(numpy, spinchsh, seed, program_seed, {name: size}),
    }
    if trace:
        traced = quartiles(loop.calibrated[True])
        report["op_calibrated_s_traced"] = traced
        report["op_wall_s_traced"] = quartiles(loop.wall[True])
        ops = max(loop.traced_attempted, 1)
        metrics = {m: _metric(loop.layers[m] / ops, _layer_unit(m)) for m in METRICS}
        metrics["output.csv_bytes"] = _metric(csv_bytes, "B/op")
        overhead = traced["median"] / untraced["median"] if traced["n"] and untraced["n"] else 0.0
        metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    else:
        report["setup_calibrated_s"] = setup
        report["setup_wall_s"] = setup_wall
        metrics = {
            "items_per_s": _metric(item_rate, "1/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(loop.first_op_rss_mb, "MB"),
            "pass_ratio": _metric(1.0 - len(loop.failures) / loop.attempted, "ratio"),
        }
    print(json.dumps({"report": report}))
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }


def smoke(names) -> int:
    """Every workload at tiny size, untraced and traced, with all checks."""
    ok = True
    for name in names:
        for trace in (False, True):
            result = run_workload(name, 0, 0.0, trace, smoke=True, setup_repeats=1)
            ok &= result["correct"]
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
    print(json.dumps({"smoke": "pass" if ok else "FAIL"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (SRC / "spinchsh" / "__init__.py").is_file():
        print(f"error: no spinchsh sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import spinchsh

    if Path(spinchsh.__file__).resolve().parent != (SRC / "spinchsh").resolve():
        print(f"error: spinchsh imported from {spinchsh.__file__}, not from {SRC}",
              file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (inputs derive from it)")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check its output")
    args = parser.parse_args(argv)
    os.environ.pop(SEED_ENV_VAR, None)
    if args.smoke:
        return smoke(WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
