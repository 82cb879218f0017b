"""Command-line front end: verify, spectrum, reduce, search, and certify workflows.

All structured output is JSON on stdout (floats carry 17 significant digits
so identical runs are byte-identical); sweeps can additionally stream CSV.
Exit codes: 0 success, 1 usage or input error, 2 certification-band failure,
3 rank-precondition failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bell import (
    DIRECTION_NAMES,
    MeasurementScenario,
    bell_operator,
    canonical_operator,
    correlation_matrices,
    correlation_matrix,
)
from .errors import CertificationError, RankDeficiencyError, SpinChshError
from .reduction import canonical_reduction
from .search import (
    PAULI_FAMILY,
    SPIN1_FAMILY,
    ObservableFamily,
    QuantumState,
    SearchConfig,
    expectation,
    family_by_name,
    maximize_violation,
    monte_carlo_certify,
    random_directions,
)
from .serialize import DIRECTION_COLUMNS, complex_pairs, json_dumps, parse_complex_pairs, write_csv
from .spectrum import closed_form_spectrum, eig_hermitian
from .tolerances import TOL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAND = 2
EXIT_RANK = 3

SEED_ENV_VAR = "SPINCHSH_SEED"

# scenarios per batched build in verify: bounds the (block, 9, 9) complex
# temporaries a large --random sweep holds at once
VERIFY_BLOCK = 4096


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; our exit-code scheme
    # reserves 2 for certification failures, so route errors through main()
    def error(self, message):
        raise UsageError(message)


def _scenario_vector(raw, name: str) -> np.ndarray:
    try:
        v = np.asarray(raw, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise UsageError(f"field {name!r} is not a numeric 3-vector") from None
    if v.shape != (3,):
        raise UsageError(f"field {name!r} must have exactly 3 components")
    # an overflowed or NaN norm is rejected below, so numpy need not warn about it
    with np.errstate(invalid="ignore", over="ignore"):
        norm = float(np.linalg.norm(v))
    deviation = abs(norm - 1.0)
    # written so that a NaN deviation is rejected too
    if not deviation <= TOL.unit_norm_input:
        raise UsageError(
            f"field {name!r} has norm {norm!r}, further than "
            f"{TOL.unit_norm_input:g} from unit length"
        )
    if deviation > TOL.unit_norm_reject:
        print(
            f"warning: normalizing {name} (norm deviated from 1 by {deviation:.3e})",
            file=sys.stderr,
        )
    return v / norm


def _load_state(raw) -> QuantumState:
    if not isinstance(raw, dict) or "kind" not in raw or "data" not in raw:
        raise UsageError("state must be an object with 'kind' and 'data'")
    try:
        data = parse_complex_pairs(raw["data"])
    except ValueError as exc:
        raise UsageError(f"state data: {exc}") from None
    try:
        if raw["kind"] == "pure":
            return QuantumState.pure(data)
        if raw["kind"] == "mixed":
            return QuantumState.mixed(data)
    except SpinChshError as exc:
        raise UsageError(f"invalid state: {exc}") from None
    raise UsageError(f"unknown state kind {raw['kind']!r}")


def load_scenario_file(path: str) -> tuple[MeasurementScenario, QuantumState | None]:
    """Parse a scenario JSON file; auto-normalizes near-unit vectors."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    vectors = {}
    for name in DIRECTION_NAMES:
        if name not in raw:
            raise UsageError(f"{path}: missing field {name!r}")
        vectors[name] = _scenario_vector(raw[name], name)
    state = _load_state(raw["state"]) if "state" in raw else None
    return MeasurementScenario(**vectors), state


def _resolve_seed(args) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return args.seed


def _verify_rows(directions: np.ndarray) -> tuple[list[dict], np.ndarray]:
    """One report row per quadruple of an (N, 4, 3) stack, and the last block's operators.

    Each block of VERIFY_BLOCK scenarios is one four-term Bell build, one
    Hermitian eigensolve and one SVD reduction.
    """
    rows = []
    for start in range(0, len(directions), VERIFY_BLOCK):
        block = directions[start : start + VERIFY_BLOCK]
        B = bell_operator(block)
        norms = eig_hermitian(B).operator_norm
        reduction = canonical_reduction(correlation_matrices(block))
        columns = zip(block.tolist(), norms.tolist(), reduction.s.tolist(), reduction.t.tolist())
        for index, (quad, norm, s, t) in enumerate(columns, start):
            rows.append(
                {
                    "index": index,
                    **dict(zip(DIRECTION_NAMES, quad)),
                    "operator_norm": norm,
                    "s": s,
                    "t": t,
                    "sum_sq_residual": abs(s**2 + t**2 - 4.0),
                    "band_deviation": abs(norm - 2.0),
                }
            )
    return rows, B


def cmd_verify(args) -> int:
    if args.scenario is None and args.random is None:
        raise UsageError("verify needs a scenario file or --random N")
    if args.scenario is not None and args.random is not None:
        raise UsageError("give either a scenario file or --random, not both")

    report = {"command": "verify", "band_halfwidth": TOL.norm_band}
    if args.random is not None:
        seed = _resolve_seed(args)
        report["seed"] = seed
        directions = random_directions(np.random.default_rng(seed), (args.random, 4))
        state = None
    else:
        sc, state = load_scenario_file(args.scenario)
        directions = np.asarray(sc)[None]
    rows, B = _verify_rows(directions)
    if state is not None:
        rows[0]["expectation"] = expectation(state, B[0])

    report["count"] = len(rows)
    report["scenarios"] = rows
    deviations = [row["band_deviation"] for row in rows]
    report["max_band_deviation"] = max(deviations)
    within = max(deviations) <= TOL.norm_band
    report["all_within_band"] = within

    if args.csv is not None:
        write_csv(
            args.csv,
            ["index", *DIRECTION_COLUMNS, "s", "t", "norm"],
            (
                [row["index"], *quad, row["s"], row["t"], row["operator_norm"]]
                for row, quad in zip(rows, directions.reshape(-1, 12).tolist())
            ),
        )
    print(json_dumps(report))
    return EXIT_OK if within else EXIT_BAND


def cmd_spectrum(args) -> int:
    if args.grid is not None:
        return _spectrum_grid(args)

    if args.scenario is not None:
        sc, _ = load_scenario_file(args.scenario)
        reduction = canonical_reduction(correlation_matrix(sc))
        s, t = reduction.s, reduction.t
        source = "scenario-file"
    elif args.s is not None and args.t is not None:
        s, t = args.s, args.t
        # the closed-form norm sqrt(s^2 + t^2) is finite only if the whole report is
        with np.errstate(over="ignore"):
            closed_norm = np.hypot(s, t)
        if not np.isfinite(closed_norm):
            raise UsageError("--s and --t must be finite, and so must sqrt(s^2 + t^2)")
        if s < 0.0 or t < 0.0:
            raise UsageError("--s and --t must be nonnegative")
        source = "parameters"
    else:
        raise UsageError("spectrum needs --s and --t, a scenario file, or --grid N")

    closed = closed_form_spectrum(s, t)
    numeric = eig_hermitian(canonical_operator(s, t))
    discrepancy = float(np.max(np.abs(closed.eigenvalues - numeric.eigenvalues)))
    report = {
        "command": "spectrum",
        "source": source,
        "s": float(s),
        "t": float(t),
        "closed_form": closed.eigenvalues,
        "numerical": numeric.eigenvalues,
        "max_discrepancy": discrepancy,
        "operator_norm_closed_form": closed.operator_norm,
        "operator_norm_numerical": numeric.operator_norm,
    }
    print(json_dumps(report))
    return EXIT_OK if discrepancy <= TOL.spectrum else EXIT_BAND


def _spectrum_grid(args) -> int:
    values = np.linspace(0.0, 2.0, args.grid)

    def rows():
        # one build and one eigensolve per grid row of fixed s; a stack of the
        # whole grid would hold N^2 operators and their eigenvectors at once
        points = values.tolist()
        for s in points:
            numeric = eig_hermitian(canonical_operator(s, values))
            columns = zip(points, numeric.eigenvalues.tolist(), numeric.operator_norm.tolist())
            for t, eigenvalues, norm in columns:
                yield (s, t, *eigenvalues, norm)

    write_csv(args.csv, ["s", "t", *(f"eig{k}" for k in range(1, 10)), "norm"], rows())
    return EXIT_OK


def cmd_reduce(args) -> int:
    if (args.scenario is None) == (args.matrix is None):
        raise UsageError("reduce needs a scenario file or --matrix, not both")
    if args.matrix is not None:
        try:
            M = np.asarray(json.loads(args.matrix), dtype=float)
        except (json.JSONDecodeError, TypeError, ValueError):
            raise UsageError("--matrix must be a JSON 3x3 array of numbers") from None
        if M.shape != (3, 3):
            raise UsageError(f"--matrix must be 3x3, got shape {M.shape}")
        # the sum of squares, the report's s^2 + t^2, is finite only if the whole report is
        with np.errstate(over="ignore"):
            sum_of_squares = np.sum(np.square(M))
        if not np.isfinite(sum_of_squares):
            raise UsageError("--matrix entries must be finite, and so must their sum of squares")
    else:
        sc, _ = load_scenario_file(args.scenario)
        M = correlation_matrix(sc)

    reduction = canonical_reduction(M)
    report = {"command": "reduce", "matrix": M}
    report.update(reduction.certificate(M))
    print(json_dumps(report))
    return EXIT_OK


def _search_payload(family: ObservableFamily, seed: int, **config) -> dict:
    """Run the seesaw on ``family`` and report it against the family's known maximum."""
    report = maximize_violation(SearchConfig(family=family.name, seed=seed, **config))
    within = abs(report.best_value - family.known_maximum) <= TOL.search_target
    return {
        "command": "search",
        "family": family.name,
        "seed": seed,
        "restarts": report.restarts,
        "expected_value": family.known_maximum,
        "tolerance": TOL.search_target,
        "best_value": report.best_value,
        "within_tolerance": within,
        "iterations": report.iterations,
        "converged": report.converged,
        "best_scenario": dict(zip(DIRECTION_NAMES, report.best_scenario.directions())),
        "best_state": {
            "kind": report.best_state.kind,
            "data": complex_pairs(report.best_state.data),
        },
        "history": list(report.history),
    }


def cmd_search(args) -> int:
    try:
        family = family_by_name(args.family)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = _search_payload(
        family, _resolve_seed(args), restarts=args.restarts, max_iterations=args.iterations
    )
    print(json_dumps(payload))
    return EXIT_OK if payload["within_tolerance"] else EXIT_BAND


def cmd_certify(args) -> int:
    seed = _resolve_seed(args)
    monte_carlo = {"samples": args.samples, "band_halfwidth": TOL.norm_band}
    try:
        monte_carlo["max_norm"] = monte_carlo_certify(args.samples, seed=seed, csv_path=args.csv)
        monte_carlo["within_band"] = True
    except CertificationError as exc:
        monte_carlo["offending_norm"] = exc.norm
        monte_carlo["offending_scenario"] = exc.scenario
        monte_carlo["within_band"] = False
    searches = [
        _search_payload(family, seed, restarts=args.restarts)
        for family in (SPIN1_FAMILY, PAULI_FAMILY)
    ]
    passed = monte_carlo["within_band"] and all(p["within_tolerance"] for p in searches)
    report = {
        "command": "certify",
        "seed": seed,
        "monte_carlo": monte_carlo,
        "search": searches,
        "passed": passed,
    }
    print(json_dumps(report))
    return EXIT_OK if passed else EXIT_BAND


_JOBS_HELP = "accepted for compatibility; must be at least 1, and work always runs serially"


def _count(text: str) -> int:
    """argparse type of every count option: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spinchsh",
        description=(
            "CHSH Bell operators for two qutrits under spin-1 measurements: "
            "certification, canonical reduction, spectra, and optimization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="certify operator norms are 2 for scenarios or random samples"
    )
    p_verify.add_argument("scenario", nargs="?", help="scenario JSON file")
    p_verify.add_argument("--random", type=_count, metavar="N", help="sample N random scenarios")
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed for --random")
    p_verify.add_argument("--jobs", type=_count, default=1, help=_JOBS_HELP)
    p_verify.add_argument("--csv", metavar="PATH", help="also write sweep rows as CSV")
    p_verify.set_defaults(handler=cmd_verify)

    p_spec = sub.add_parser(
        "spectrum", help="closed-form vs numerical spectrum of the canonical operator"
    )
    p_spec.add_argument("scenario", nargs="?", help="scenario JSON file")
    p_spec.add_argument("--s", type=float, help="first canonical parameter")
    p_spec.add_argument("--t", type=float, help="second canonical parameter")
    p_spec.add_argument(
        "--grid", type=_count, metavar="N", help="emit an NxN sweep over [0,2]^2 as CSV"
    )
    p_spec.add_argument("--csv", metavar="PATH", help="CSV output path for --grid (default stdout)")
    p_spec.set_defaults(handler=cmd_spectrum)

    p_reduce = sub.add_parser("reduce", help="canonical-reduction certificate for a scenario")
    p_reduce.add_argument("scenario", nargs="?", help="scenario JSON file")
    p_reduce.add_argument("--matrix", metavar="JSON", help="reduce a raw 3x3 matrix instead")
    p_reduce.set_defaults(handler=cmd_reduce)

    p_search = sub.add_parser("search", help="seesaw search for the maximal expectation")
    p_search.add_argument(
        "--family",
        default="qutrit-spin1",
        help="measurement family: qutrit-spin1 or qubit-pauli",
    )
    p_search.add_argument("--restarts", type=_count, default=200)
    p_search.add_argument("--iterations", type=_count, default=500, help="seesaw iteration cap")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--jobs", type=_count, default=1, help=_JOBS_HELP)
    p_search.set_defaults(handler=cmd_search)

    p_certify = sub.add_parser(
        "certify", help="Monte Carlo norm sweep plus the seesaw search on both families"
    )
    p_certify.add_argument(
        "--samples", type=_count, default=100_000, help="Monte Carlo sample count"
    )
    p_certify.add_argument(
        "--restarts", type=_count, default=200, help="seesaw restarts per family"
    )
    p_certify.add_argument("--seed", type=int, default=0)
    p_certify.add_argument("--csv", metavar="PATH", help="also write the Monte Carlo norms as CSV")
    p_certify.set_defaults(handler=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RankDeficiencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK
    except (SpinChshError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
