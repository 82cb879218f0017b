"""Command-line front end: verify, spectrum, reduce, search, and certify workflows.

All structured output is JSON on stdout (floats carry 17 significant digits
so identical runs are byte-identical); sweeps can additionally stream CSV.
Exit codes: 0 success, 1 usage or input error, 2 certification-band failure,
3 rank-precondition failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from .bell import (
    DIRECTION_NAMES,
    PAULI_FAMILY,
    SPIN1_FAMILY,
    MeasurementScenario,
    ObservableFamily,
    bell_operator,
    canonical_operator,
    correlation_matrices,
)
from .errors import CertificationError, InputError, RankDeficiencyError, SpinChshError
from .reduction import canonical_parameters, canonical_reduction
from .search import (
    SWEEP_BLOCK,
    QuantumState,
    _map_blocks,
    expectation,
    maximize_violation,
    monte_carlo_certify,
    random_directions,
)
from .serialize import (
    DIRECTION_COLUMNS,
    Table,
    complex_pairs,
    format_rows,
    json_dumps,
    open_csv,
    parse_complex_pairs,
    write_report,
)
from .spectrum import closed_form_spectrum, eig_hermitian
from .tolerances import TOL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAND = 2
EXIT_RANK = 3

# the largest count whose every index the CSV's %.17g writes exactly
MAX_COUNT = 2**53

# the families search --family offers; certify runs each of them
FAMILIES = {family.name: family for family in (SPIN1_FAMILY, PAULI_FAMILY)}
# the seesaw restarts per family of search and certify without --restarts
DEFAULT_RESTARTS = 200


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; our exit-code scheme
    # reserves 2 for certification failures, so route errors through main()
    def error(self, message):
        raise InputError(message)


def _json_floats(raw) -> np.ndarray:
    """Decoded JSON numbers, nested in lists, as a float array.

    numpy's float cast would also read a numeric string or a boolean as a
    number; here any leaf that is not a JSON number raises ValueError, and
    so does an integer too large for a float.
    """
    pending = [raw]
    while pending:
        item = pending.pop()
        if type(item) is list:
            pending.extend(item)
        elif type(item) not in (int, float):
            raise ValueError("expected only JSON numbers in nested arrays")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError:
        raise ValueError("expected numbers within the float range") from None


def _scenario_vector(raw, name: str) -> tuple[np.ndarray, float]:
    """A scenario file's direction, normalized, and how far its norm was from 1."""
    try:
        v = _json_floats(raw)
    except ValueError:
        raise InputError(f"field {name!r} is not a numeric 3-vector") from None
    if v.shape != (3,):
        raise InputError(f"field {name!r} must be a flat list of 3 numbers, got shape {v.shape}")
    # an overflowed or NaN norm is rejected below, so numpy need not warn about it
    with np.errstate(invalid="ignore", over="ignore"):
        norm = float(np.linalg.norm(v))
    deviation = abs(norm - 1.0)
    # written so that a NaN deviation is rejected too
    if not deviation <= TOL.unit_norm_input:
        raise InputError(
            f"field {name!r} has norm {norm!r}, further than "
            f"{TOL.unit_norm_input:g} from unit length"
        )
    return v / norm, deviation


def _load_state(raw) -> QuantumState:
    if not isinstance(raw, dict) or "kind" not in raw or "data" not in raw:
        raise InputError("state must be an object with 'kind' and 'data'")
    try:
        data = parse_complex_pairs(_json_floats(raw["data"]))
    except ValueError as exc:
        raise InputError(f"state data: {exc}") from None
    if raw["kind"] == "pure":
        return QuantumState.pure(data)
    if raw["kind"] == "mixed":
        return QuantumState.mixed(data)
    raise InputError(f"unknown state kind {raw['kind']!r}")


def load_scenario_file(path: str) -> tuple[MeasurementScenario, QuantumState | None]:
    """Parse a scenario JSON file; auto-normalizes near-unit vectors."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise InputError(f"malformed JSON in {path}: nested too deeply") from None
    if not isinstance(raw, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    vectors, deviations = {}, {}
    for name in DIRECTION_NAMES:
        if name not in raw:
            raise InputError(f"{path}: missing field {name!r}")
        vectors[name], deviations[name] = _scenario_vector(raw[name], name)
    state = _load_state(raw["state"]) if "state" in raw else None
    if state is not None and state.dim != 9:
        raise InputError(f"state dimension {state.dim} is not 9, the dimension of C^3 (x) C^3")
    # one line, once the whole file is accepted, so a rejected file gives its error line alone
    normalized = [
        f"{name} (norm deviated from 1 by {deviation:.3e})"
        for name, deviation in deviations.items()
        if deviation > TOL.unit_norm_reject
    ]
    if normalized:
        print("warning: normalizing " + ", ".join(normalized), file=sys.stderr)
    return MeasurementScenario(**vectors), state


# a verify row: its index, the scenario's directions and its numbers, band deviation last
_VERIFY_FIELDS = (("index", 0), *((name, 3) for name in DIRECTION_NAMES)) + tuple(
    (key, 0) for key in ("operator_norm", "s", "t", "sum_sq_residual", "band_deviation")
)
# the keys of a verify CSV line, under its header "index", DIRECTION_COLUMNS, "s", "t", "norm"
_VERIFY_CSV_KEYS = ("index", *DIRECTION_NAMES, "s", "t", "operator_norm")


def _verify_rows(directions: np.ndarray) -> np.ndarray:
    """The ``_VERIFY_FIELDS`` numbers of an (N, 4, 3) stack as one (N, 18) table.

    The table is filled SWEEP_BLOCK scenarios at a time, each block by one
    four-term Bell build, one Hermitian eigensolve and one SVD for s and t.
    The two routes of a block are independent: its reduction runs through
    ``_map_blocks`` on a spare CPU while this thread builds and solves its
    norms, and is taken only after them, so an error is the serial loop's.
    """
    rows = np.empty((len(directions), sum(width or 1 for _, width in _VERIFY_FIELDS)))
    starts = range(0, len(directions), SWEEP_BLOCK)

    def reduce(start: int) -> tuple[np.ndarray, np.ndarray]:
        return canonical_parameters(correlation_matrices(directions[start : start + SWEEP_BLOCK]))

    with contextlib.closing(_map_blocks(reduce, starts, keep=1)) as reductions:
        for start in starts:
            block = directions[start : start + SWEEP_BLOCK]
            norms = eig_hermitian(bell_operator(block)).operator_norm
            s, t = next(reductions)
            # Python's float power, whose last bit numpy's square does not always match
            residuals = [abs(x**2 + y**2 - 4.0) for x, y in zip(s.tolist(), t.tolist())]
            index = np.arange(start, start + len(block))
            columns = (index, block.reshape(-1, 12), norms, s, t, residuals, np.abs(norms - 2.0))
            rows[start : start + len(block)] = np.column_stack(columns)
    return rows


def cmd_verify(args) -> int:
    report = {"command": "verify", "band_halfwidth": TOL.norm_band}
    if args.random is not None:
        report["seed"] = args.seed
        directions = random_directions(np.random.default_rng(args.seed), (args.random, 4))
        state = None
    else:
        sc, state = load_scenario_file(args.scenario)
        directions = np.asarray(sc)[None]
    numbers, fields = _verify_rows(directions), _VERIFY_FIELDS
    deviation = numbers[:, -1]
    if state is not None:
        # W^dagger psi or W^dagger rho W: the state in bell_operator's Cartesian coordinates,
        # a unitary image of a checked state, so not checked again
        W = SPIN1_FAMILY.basis
        carried = W.conj().T @ state.data
        carried = QuantumState(state.kind, carried if state.kind == "pure" else carried @ W)
        value = expectation(carried, bell_operator(directions[0]))
        numbers, fields = np.append(numbers, [[value]], axis=1), fields + (("expectation", 0),)
    # raises on a non-finite number before any output
    rows = Table(fields, numbers)
    # written so that a NaN deviation fails the band too
    within = not np.any(~(deviation <= TOL.norm_band))
    report.update(count=len(directions), scenarios=rows, max_band_deviation=float(deviation.max()))
    report["all_within_band"] = within
    if args.csv is None:
        write_report(report, sys.stdout)
    else:
        # writing the rows writes their CSV lines as it goes
        with open_csv(args.csv, ["index", *DIRECTION_COLUMNS, "s", "t", "norm"]) as handle:
            rows.csv = (_VERIFY_CSV_KEYS, handle)
            write_report(report, sys.stdout)
    return EXIT_OK if within else EXIT_BAND


def cmd_spectrum(args) -> int:
    # the two input rules a mutually exclusive group cannot declare
    if (args.s is None) != (args.t is None):
        raise InputError("--s and --t must be given together")
    if args.csv is not None and args.grid is None:
        raise InputError("--csv needs --grid")
    if args.grid is not None:
        return _spectrum_grid(args)

    if args.scenario is not None:
        sc, _ = load_scenario_file(args.scenario)
        s, t = canonical_parameters(correlation_matrices(sc))
        source = "scenario-file"
    else:
        s, t = args.s, args.t
        source = "parameters"

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
    # rounding in the eigensolve grows with the norm sqrt(s^2 + t^2), so the gate
    # scales with it above 2, the norm of every scenario
    gate = TOL.spectrum * max(1.0, closed.operator_norm / 2.0)
    return EXIT_OK if discrepancy <= gate else EXIT_BAND


def _spectrum_grid(args) -> int:
    values = np.linspace(0.0, 2.0, args.grid)
    n = len(values)

    def solve(start: int) -> np.ndarray:
        # one build and one eigensolve per SWEEP_BLOCK grid points p in row
        # order, at s = values[p // N], t = values[p % N]; a stack of the whole
        # grid would hold N^2 operators at once
        p = np.arange(start, min(start + SWEEP_BLOCK, n * n))
        s, t = values[p // n], values[p % n]
        numeric = eig_hermitian(canonical_operator(s, t))
        return np.column_stack((s, t, numeric.eigenvalues, numeric.operator_norm))

    # this thread formats and writes every block, which keeps one CPU busy,
    # while the next blocks are solved on the others
    blocks = _map_blocks(solve, range(0, n * n, SWEEP_BLOCK), keep=1)
    header = ["s", "t", *(f"eig{k}" for k in range(1, 10)), "norm"]
    # closed on every exit, also when the CSV cannot be opened: the first blocks are already solving
    with contextlib.closing(blocks), open_csv(args.csv, header) as handle:
        handle.writelines(map(format_rows, blocks))
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.matrix is not None:
        try:
            M = _json_floats(json.loads(args.matrix))
        except (json.JSONDecodeError, RecursionError, ValueError):
            raise InputError("--matrix must be a JSON 3x3 array of numbers") from None
    else:
        sc, _ = load_scenario_file(args.scenario)
        M = correlation_matrices(sc)

    reduction = canonical_reduction(M)
    report = {"command": "reduce", "matrix": M}
    report.update(reduction.certificate(M))
    print(json_dumps(report))
    return EXIT_OK


def _search_payload(family: ObservableFamily, seed: int, restarts: int) -> dict:
    """Run the seesaw on ``family`` and report it against the family's known maximum."""
    report = maximize_violation(family, restarts, seed)
    within = abs(report.best_value - family.known_maximum) <= TOL.search_target
    return {
        "command": "search",
        "family": family.name,
        "seed": seed,
        "restarts": restarts,
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
    payload = _search_payload(FAMILIES[args.family], args.seed, args.restarts)
    print(json_dumps(payload))
    return EXIT_OK if payload["within_tolerance"] else EXIT_BAND


def cmd_certify(args) -> int:
    monte_carlo = {"samples": args.samples, "band_halfwidth": TOL.norm_band}
    try:
        monte_carlo["max_norm"] = monte_carlo_certify(args.samples, args.seed, csv_path=args.csv)
        monte_carlo["within_band"] = True
    except CertificationError as exc:
        monte_carlo["offending_norm"] = exc.norm
        monte_carlo["offending_scenario"] = exc.scenario
        monte_carlo["within_band"] = False
    searches = [_search_payload(family, args.seed, args.restarts) for family in FAMILIES.values()]
    passed = monte_carlo["within_band"] and all(p["within_tolerance"] for p in searches)
    report = {
        "command": "certify",
        "seed": args.seed,
        "monte_carlo": monte_carlo,
        "search": searches,
        "passed": passed,
    }
    print(json_dumps(report))
    return EXIT_OK if passed else EXIT_BAND


_JOBS_HELP = (
    "accepted for compatibility and ignored; must be at least 1 "
    "(the threaded sweeps size themselves to the usable CPUs)"
)


def _integer(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _count(text: str) -> int:
    """argparse type of every count option: an integer from 1 to MAX_COUNT."""
    value = _integer(text, 1)
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_COUNT}, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: an integer of at least 0."""
    return _integer(text, 0)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process and shared: callers must not change it."""
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
    inputs = p_verify.add_mutually_exclusive_group(required=True)
    inputs.add_argument("scenario", nargs="?", help="scenario JSON file")
    inputs.add_argument("--random", type=_count, metavar="N", help="sample N random scenarios")
    p_verify.add_argument("--seed", type=_seed, default=0, help="RNG seed for --random")
    p_verify.add_argument("--jobs", type=_count, default=1, help=_JOBS_HELP)
    p_verify.add_argument("--csv", metavar="PATH", help="also write sweep rows as CSV")
    p_verify.set_defaults(handler=cmd_verify)

    p_spec = sub.add_parser(
        "spectrum", help="closed-form vs numerical spectrum of the canonical operator"
    )
    inputs = p_spec.add_mutually_exclusive_group(required=True)
    inputs.add_argument("scenario", nargs="?", help="scenario JSON file")
    inputs.add_argument("--s", type=float, help="first canonical parameter (with --t)")
    p_spec.add_argument("--t", type=float, help="second canonical parameter (with --s)")
    inputs.add_argument(
        "--grid", type=_count, metavar="N", help="emit an NxN sweep over [0,2]^2 as CSV"
    )
    p_spec.add_argument("--csv", metavar="PATH", help="CSV output path for --grid (default stdout)")
    p_spec.set_defaults(handler=cmd_spectrum)

    p_reduce = sub.add_parser("reduce", help="canonical-reduction certificate for a scenario")
    inputs = p_reduce.add_mutually_exclusive_group(required=True)
    inputs.add_argument("scenario", nargs="?", help="scenario JSON file")
    inputs.add_argument("--matrix", metavar="JSON", help="reduce a raw 3x3 matrix instead")
    p_reduce.set_defaults(handler=cmd_reduce)

    p_search = sub.add_parser("search", help="seesaw search for the maximal expectation")
    p_search.add_argument(
        "--family",
        choices=list(FAMILIES),
        default=SPIN1_FAMILY.name,
        help="measurement family",
    )
    p_search.add_argument("--restarts", type=_count, default=DEFAULT_RESTARTS)
    p_search.add_argument("--seed", type=_seed, default=0)
    p_search.add_argument("--jobs", type=_count, default=1, help=_JOBS_HELP)
    p_search.set_defaults(handler=cmd_search)

    p_certify = sub.add_parser(
        "certify", help="Monte Carlo norm sweep plus the seesaw search on both families"
    )
    p_certify.add_argument(
        "--samples", type=_count, default=100_000, help="Monte Carlo sample count"
    )
    p_certify.add_argument(
        "--restarts", type=_count, default=DEFAULT_RESTARTS, help="seesaw restarts per family"
    )
    p_certify.add_argument("--seed", type=_seed, default=0)
    p_certify.add_argument("--csv", metavar="PATH", help="also write the Monte Carlo norms as CSV")
    p_certify.set_defaults(handler=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except RankDeficiencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK
    except (SpinChshError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate; a bare one names no cause
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
