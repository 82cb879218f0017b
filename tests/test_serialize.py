"""The JSON renderer: its layout rules, and equivalence with the general-rules reference.

``json_dumps`` accepts exactly the types a report is made of (Python floats,
ints, bools, strs and None, lists, str-keyed dicts, float64 arrays and
``Table``s) and rejects every other type. ``reference_render`` below is a
renderer with one isinstance chain, kept in the test: on every accepted input
the two must give the same text, and the same error for every non-finite
float. A ``Table`` must render as its rows would as dicts, and the CSV lines
it writes as each number formatted by itself.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from reference import CARTESIAN_PAIR, format_rows_reference
from spinchsh import (
    TOL,
    NonFiniteError,
    QuantumState,
    bell_operator,
    canonical_reduction,
    cli,
    correlation_matrices,
    eig_hermitian,
    expectation,
    random_directions,
    serialize,
)
from spinchsh.cli import MAX_COUNT
from spinchsh.serialize import Table, format_rows, json_dumps

_INTEGERS = (int, np.integer)


def _reference_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def reference_render(obj, indent: int = 2, level: int = 0) -> str:
    """One isinstance chain and one call per value, json.dumps for every string."""
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, _INTEGERS):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return reference_render([obj.real, obj.imag], indent, level)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return reference_render(obj.tolist(), indent, level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {reference_render(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + closing + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(isinstance(v, (float, np.floating)) for v in obj):
            return "[" + ", ".join(_reference_float(v) for v in obj) + "]"
        rendered = (pad + reference_render(v, indent, level + 1) for v in obj)
        return "[\n" + ",\n".join(rendered) + "\n" + closing + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 2.0]),
)
# ints beyond 2**53 print all their digits, which no float format does
_ints = st.one_of(st.integers(), st.integers(2**53, 2**70), st.integers(-(2**70), -(2**53)))
_shapes = array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)
_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x7féß✓😀'), st.characters()))
_leaves = st.one_of(
    _floats,
    st.booleans(),
    st.none(),
    _ints,
    _text,
    arrays(np.float64, _shapes, elements=_floats),
    # all-float lists, which go on one line, and int-and-float lists, which do not
    st.lists(_floats, max_size=6),
    st.lists(st.one_of(_floats, _ints), max_size=6),
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_text, children, max_size=5),
    ),
    max_leaves=25,
)

_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# keys that need escaping: % (a table template's own field marker), quotes, non-ASCII
_keys = st.text(st.one_of(st.sampled_from('%"\\\'é✓😀'), st.characters()), max_size=6)
# a row value's kind: a float, an int, or (an int n) an all-float list of length n
_row_kinds = st.one_of(st.sampled_from([float, int]), st.integers(0, 4))


def _floats_in(kind) -> int:
    return 1 if kind is float else 0 if kind is int else kind


@st.composite
def row_lists(draw, non_finite=False):
    """A list of same-shape dicts, as a table's rows, or one whose row differs.

    The rows hold floats, ints (beyond 2**53 too) and all-float lists under
    keys with %, quotes and non-ASCII. About half the lists get one row that
    differs in key order, key set or a value's kind. With ``non_finite``, one
    or two nan or inf values are then planted at random rows.
    """
    keys = draw(st.lists(_keys, max_size=5, unique=True))
    kinds = [draw(_row_kinds) for _ in keys]
    if non_finite and not any(map(_floats_in, kinds)):
        keys.append("".join(keys) + "%")  # longer than every key, so new
        kinds.append(float)

    def value(kind):
        if kind is float:
            return draw(_floats)
        if kind is int:
            return draw(_ints)
        return draw(st.lists(_floats, min_size=kind, max_size=kind))

    count = draw(st.integers(1, 6))
    rows = [{key: value(kind) for key, kind in zip(keys, kinds)} for _ in range(count)]
    if draw(st.booleans()):
        index = draw(st.integers(0, count - 1))
        row = rows[index]
        change = draw(st.sampled_from(["order", "extra key", "kind"]))
        if change == "order" and len(row) > 1:
            rows[index] = dict(reversed(row.items()))
        elif change == "kind" and row:
            key = draw(st.sampled_from(sorted(row)))
            old = row[key]
            if type(old) is float:
                row[key] = draw(st.one_of(_ints, st.booleans(), st.lists(_floats, max_size=2)))
            elif type(old) is int:
                row[key] = draw(st.one_of(st.booleans(), _floats, st.none()))
            else:
                row[key] = old + [draw(st.one_of(_floats, _ints, _text))]
        else:
            row["".join(keys) + "%%"] = draw(_floats)
    if non_finite:  # after the change, which may replace a float
        slots = [(row, key, kind) for row in rows for key, kind in zip(keys, kinds) if _floats_in(kind)]
        for _ in range(draw(st.integers(1, 2))):
            row, key, kind = draw(st.sampled_from(slots))
            if kind is float:
                row[key] = draw(_non_finite)
            else:
                row[key][draw(st.integers(0, kind - 1))] = draw(_non_finite)
    return draw(st.sampled_from([rows, {"scenarios": rows}, [rows, {"count": count}]]))


def test_flat_numeric_lists_render_on_one_line():
    report = {
        "floats": [0.1, -0.0, 1e-300],
        "array": np.array([1.0, 1.0 / 3.0]),
    }
    assert json_dumps(report) == (
        "{\n"
        '  "floats": [0.10000000000000001, -0, 1e-300],\n'
        '  "array": [1, 0.33333333333333331]\n'
        "}"
    )


def test_other_lists_render_one_element_per_line():
    report = {
        "ints": [1, 0],
        "mixed": [3, 2.5],
        "bools": [True, 1],
        "nested": [[1, 2], [3.5]],
        "empty": [],
        "text": ["a", 1],
    }
    assert json_dumps(report) == (
        "{\n"
        '  "ints": [\n    1,\n    0\n  ],\n'
        '  "mixed": [\n    3,\n    2.5\n  ],\n'
        '  "bools": [\n    true,\n    1\n  ],\n'
        '  "nested": [\n    [\n      1,\n      2\n    ],\n    [3.5]\n  ],\n'
        '  "empty": [],\n'
        '  "text": [\n    "a",\n    1\n  ]\n'
        "}"
    )


def test_non_finite_float_in_flat_list_rejected():
    with pytest.raises(ValueError):
        json_dumps([1.0, float("nan")])


@pytest.mark.parametrize(
    "value, name",
    [
        (np.float64(1.0), "numpy.float64"),
        (np.float32(1.0), "numpy.float32"),
        (np.int64(1), "numpy.int64"),
        (np.bool_(True), f"numpy.{np.bool_.__name__}"),  # bool_ before numpy 2
        (1j, "builtins.complex"),
        ((1.0, 2.0), "builtins.tuple"),
        ({1: 2.0}, "builtins.int"),
    ],
)
def test_other_types_rejected(value, name):
    """Anything but the report types raises, naming the type, alone or nested."""
    for document in (value, [value], {"key": value}):
        with pytest.raises(TypeError, match=re.escape(f"of type {name}") + "$"):
            json_dumps(document)


@settings(max_examples=200)
@given(document=st.one_of(_documents, row_lists()))
# same-shape rows, and rows that differ by little
@example([{}])
@example([{"k": []}, {"k": []}])
@example([{"n": 1}, {"n": True}])  # a bool is not an int
@example([{"n": 2**64 + 1}, {"n": -(2**60) - 1}])  # every digit of a big int
@example([{"v": [1.0, 2.0]}, {"v": [3.0]}])
@example([{"v": [1.0]}, {"v": [2.0, 3.0]}])
@example([{"v": [1.0, 2.0]}, {"v": [1.0, 2]}])  # an int in a float list
@example([{"v": [1.0]}, {"v": 2.0}])
@example([{"a": 0.5}, ["a"], "a"])  # items whose keys, as a tuple, match
@example([{"a": 1.0, "b": 2}, {"b": 2, "a": 1.0}])
@example([{"50%": 0.5, "%d": 1, "é\"": [0.25]}])
@example([{"x": 1e308}, {"x": 1e308}])  # a finite sum that overflows
def test_matches_reference_renderer(document):
    assert json_dumps(document) == reference_render(document)


_any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def lists_with_non_finite(draw):
    """A list (or a dict) of floats, non-finite ones included, with one or two planted."""
    element = draw(st.sampled_from([_any_float, st.one_of(_any_float, st.integers())]))
    values = draw(st.lists(element, max_size=8))
    for _ in range(draw(st.integers(1, 2))):
        values.insert(draw(st.integers(0, len(values))), draw(_non_finite))
    shape = draw(st.sampled_from(["list", "nested", "dict"]))
    if shape == "nested":
        return {"scenarios": [{"index": 0, "a": values}]}
    if shape == "dict":
        return {f"k{i}": v for i, v in enumerate(values)}
    return values


@given(document=st.one_of(lists_with_non_finite(), row_lists(non_finite=True)))
@example([{"x": 1.0, "v": [2.0, math.inf]}, {"x": math.nan, "v": [1.0, 1.0]}])
def test_non_finite_raises_as_the_reference(document):
    with pytest.raises(ValueError) as expected:
        reference_render(document)
    # a library error, so main prints it as one line
    with pytest.raises(NonFiniteError) as raised:
        json_dumps(document)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("cannot serialize non-finite float ")


@st.composite
def table_parts(draw, non_finite=False):
    """(fields, rows, csv_keys) of a Table: rows drawn as up to three blocks, keys with %, quotes and non-ASCII.

    Each key takes one number or a list of 1 to 3. With ``non_finite``, one
    or two nan or inf values are planted at random cells.
    """
    keys = draw(st.lists(_keys, min_size=1, max_size=5, unique=True))
    widths = [draw(st.integers(0, 3)) for _ in keys]
    columns = sum(width or 1 for width in widths)
    sizes = draw(st.lists(st.integers(1, 5), min_size=int(non_finite), max_size=3))
    blocks = [draw(arrays(np.float64, (size, columns), elements=_floats)) for size in sizes]
    for _ in range(draw(st.integers(1, 2)) if non_finite else 0):
        block = draw(st.sampled_from(blocks))
        block[draw(st.integers(0, len(block) - 1)), draw(st.integers(0, columns - 1))] = draw(_non_finite)
    csv_keys = draw(st.lists(st.sampled_from(keys), unique=True))
    return tuple(zip(keys, widths)), np.concatenate([np.empty((0, columns)), *blocks]), tuple(csv_keys)


def table_rows(fields, numbers) -> list[dict]:
    """A table's rows as dicts of Python floats and float lists."""
    return [
        {key: [next(row) for _ in range(width)] if width else next(row) for key, width in fields}
        for row in map(iter, numbers.tolist())
    ]


@settings(max_examples=150)
@given(parts=table_parts(), nesting=st.sampled_from(["bare", "dict", "list"]), chunk=st.integers(1, 4))
def test_table_renders_as_its_rows(parts, nesting, chunk):
    """Rows and the CSV lines written as the reference renders them, at any depth and chunk size."""
    fields, numbers, csv_keys = parts
    rows = table_rows(fields, numbers)
    wrap = {"bare": lambda x: x, "dict": lambda x: {"scenarios": x}, "list": lambda x: [x, 1]}[nesting]
    table, written = Table(fields, numbers), io.StringIO()
    plain = json_dumps(wrap(table))
    table.csv = (csv_keys, written)
    default, serialize._CHUNK = serialize._CHUNK, chunk
    try:
        text = json_dumps(wrap(table))
    finally:
        serialize._CHUNK = default
    # the CSV file changes nothing in the report's text
    assert text == plain == reference_render(wrap(rows))
    lines = [
        [x for key in csv_keys for x in (row[key] if type(row[key]) is list else [row[key]])]
        for row in rows if csv_keys
    ]
    assert written.getvalue() == "".join(",".join(map(_reference_float, line)) + "\n" for line in lines)


@given(parts=table_parts(non_finite=True))
def test_table_non_finite_raises_as_the_reference(parts):
    """The first non-finite number in row order, named as the reference names it, by the constructor.

    A Table that exists holds only finite numbers, so no CSV file is opened
    for one that would not render, and nothing is written to one.
    """
    fields, numbers, _ = parts
    with pytest.raises(ValueError) as expected:
        reference_render(table_rows(fields, numbers))
    with pytest.raises(NonFiniteError) as raised:
        Table(fields, numbers)
    assert str(raised.value) == str(expected.value)


def reference_verify_rows(directions: np.ndarray) -> list[dict]:
    """verify's rows as one dict per scenario, from the same batched computations."""
    rows = []
    for start in range(0, len(directions), cli.SWEEP_BLOCK):
        block = directions[start : start + cli.SWEEP_BLOCK]
        norms = eig_hermitian(bell_operator(block)).operator_norm
        reduction = canonical_reduction(correlation_matrices(block))
        columns = zip(block.tolist(), norms.tolist(), reduction.s.tolist(), reduction.t.tolist())
        for index, (quad, norm, s, t) in enumerate(columns, start):
            rows.append(
                {
                    "index": index,
                    **dict(zip(("a", "a_prime", "b", "b_prime"), quad)),
                    "operator_norm": norm,
                    "s": s,
                    "t": t,
                    "sum_sq_residual": abs(s**2 + t**2 - 4.0),
                    "band_deviation": abs(norm - 2.0),
                }
            )
    return rows


@pytest.mark.parametrize("source", ["random", "state"])
def test_verify_reports_match_reference_renderer(source, tmp_path, capsys):
    """verify's stdout and CSV are the reference renderings of its rows as dicts.

    5000 random scenarios span several SWEEP_BLOCKs and renderer chunks; a
    scenario file's state adds an "expectation" key to its one row. The
    reference renders the report through reference_render and formats
    every CSV cell by itself.
    """
    report = {"command": "verify", "band_halfwidth": TOL.norm_band}
    if source == "random":
        argv = ["verify", "--random", "5000", "--seed", "3"]
        report["seed"] = 3
        directions = random_directions(np.random.default_rng(3), (5000, 4))
        state = None
    else:
        z = [0.0, 0.0, 1.0]
        data = [[1.0, 0.0]] + [[0.0, 0.0]] * 8
        path = tmp_path / "with_state.json"
        path.write_text(json.dumps({"a": z, "a_prime": z, "b": z, "b_prime": z, "state": {"kind": "pure", "data": data}}))
        argv = ["verify", str(path)]
        directions = np.array([z] * 4)[None]
        state = QuantumState.pure(np.array([1.0] + [0.0] * 8))
    rows = reference_verify_rows(directions)
    if state is not None:
        # the state carried to the Cartesian basis of bell_operator
        carried = QuantumState.pure(CARTESIAN_PAIR.conj().T @ state.data)
        rows[0]["expectation"] = expectation(carried, bell_operator(directions[0]))
    report["count"] = len(rows)
    report["scenarios"] = rows
    report["max_band_deviation"] = max(row["band_deviation"] for row in rows)
    report["all_within_band"] = report["max_band_deviation"] <= TOL.norm_band
    assert report["all_within_band"] and len(rows) in (1, 5000)
    lines = [
        [row["index"], *row["a"], *row["a_prime"], *row["b"], *row["b_prime"], row["s"], row["t"], row["operator_norm"]]
        for row in rows
    ]
    header = "index,ax,ay,az,apx,apy,apz,bx,by,bz,bpx,bpy,bpz,s,t,norm\n"
    expected_csv = header + "".join(",".join("%.17g" % x for x in line) + "\n" for line in lines)

    csv_path = tmp_path / "sweep.csv"
    assert cli.main([*argv, "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == reference_render(report) + "\n"
    assert csv_path.read_text() == expected_csv


def verify_report(monkeypatch, capsys, count: int) -> dict:
    """The report of ``verify --random count --seed 1`` as cmd_verify hands it to write_report."""
    reports = []
    monkeypatch.setattr(cli, "write_report", lambda report, file: reports.append(report))
    assert cli.main(["verify", "--random", str(count), "--seed", "1"]) == 0
    capsys.readouterr()
    (report,) = reports
    assert type(report["scenarios"]) is serialize.Table
    return report


def test_verify_report_is_held_about_twice(monkeypatch, capsys):
    """json_dumps of a 2000-row verify report allocates at most 2.5 times its text.

    The report holds its rows as numbers, so the measure runs from the
    first number formatted to the report's text. Only a chunk of rows is
    formatted at a time, and each container joins its parts once, so the
    rows' text and the report's are the only large strings alive at once.
    """
    report = verify_report(monkeypatch, capsys, 2000)
    tracemalloc.start()
    try:
        text = json_dumps(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count('"index"') == 2000
    assert peak <= 2.5 * len(text)


class _Sink:
    """A text file that keeps only the length of what is written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text: str) -> int:
        self.length += len(text)
        return len(text)

    def writelines(self, texts) -> None:
        for text in texts:
            self.write(text)


def test_streamed_verify_report_holds_no_report_text(monkeypatch, capsys):
    """write_report of a 20000-row verify report allocates well under its text's length.

    It writes the report's head, then each chunk of rows as it is
    formatted, then the tail, so only one chunk's text and the kernel's
    temporaries for it are alive at once, whatever the row count: about
    0.7 MB, most of it format_rows's, where the text is 10.9 MB. At 2000
    rows the text, 1.1 MB, is not far above that fixed peak.
    """
    report = verify_report(monkeypatch, capsys, 20000)
    length = len(json_dumps(report)) + 1
    sink = _Sink()
    tracemalloc.start()
    try:
        serialize.write_report(report, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length == length
    assert peak <= 0.15 * length


@pytest.mark.parametrize("shape", [(9,), (3, 3)], ids=["vector", "matrix"])
def test_complex_pairs_are_per_entry_pairs(shape):
    rng = np.random.default_rng(8)
    values = (rng.standard_normal(9) + 1j * rng.standard_normal(9)).reshape(shape)
    values.flat[0] = complex(-0.0, -0.0)
    values.flat[1] = complex(0.0, -0.0)
    pairs = serialize.complex_pairs(values)
    per_entry = [[z.real, z.imag] for z in values.reshape(-1).tolist()]
    expected = per_entry if len(shape) == 1 else [per_entry[i : i + 3] for i in range(0, 9, 3)]
    # repr tells -0.0 from 0.0, and a Python float from a numpy one
    assert repr(pairs) == repr(expected)
    assert np.array_equal(serialize.parse_complex_pairs(pairs), values)


def test_parse_complex_pairs_keeps_each_pair_as_it_is():
    # re + 1j * im would make an infinite im's real part NaN, with a numpy warning,
    # and turn a -0.0 real part into 0.0
    pairs = [[-0.0, 1.0], [0.0, float("inf")], [1.0, float("-inf")]]
    assert repr(serialize.complex_pairs(serialize.parse_complex_pairs(pairs))) == repr(pairs)


_table_shapes = array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12)
# any float64 bit pattern (NaN payloads, infinities, subnormals, -0.0), and
# Hypothesis's own floats, which favour round and boundary values
_tables = arrays(np.uint64, _table_shapes).map(lambda bits: bits.view(np.float64)) | arrays(
    np.float64, _table_shapes, elements=st.floats()
)


@settings(max_examples=300)
@given(table=_tables, separator=st.sampled_from([",", "\n"]), chunk=st.sampled_from([1, 3, 128]))
def test_format_rows_matches_the_one_percent_reference(table, separator, chunk):
    default, serialize._CHUNK = serialize._CHUNK, chunk
    try:
        text = format_rows(table, separator)
    finally:
        serialize._CHUNK = default
    assert text == format_rows_reference(table, separator)


def _ulps_around(values, ulps: int) -> np.ndarray:
    """Each positive value and the ``ulps`` doubles on either side of it, in both signs."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    near = np.maximum(bits, 0).view(np.float64).ravel()
    return np.concatenate([near, -near])


# 18 significant digits ending in 5: %.17g rounds them half to even
_TIES = [
    (2**53 - 1) / 4,
    (2**53 - 3) / 4,
    (2**50 - 1) / 8,
    (2**50 - 3) / 8,
    2.0**-25,
    3 * 2.0**-25,
    7 * 2.0**-24,
    9 * 2.0**-23,
    # every odd m / 4 in [2**50, 2**51): sixteen digits, then .25 or .75
    *(np.arange(2**52 + 1, 2**52 + 2001, 2) / 4).tolist(),
]
_CASES = {
    # the first kernel printed the double nearest 1e-160 as 1e-160: log10 of a
    # number just below a power of ten can round up to that power
    "powers-of-ten": _ulps_around([float(f"1e{p}") for p in range(-323, 309)], 40),
    "ties": np.array(_TIES + [-x for x in _TIES]),
    "counts": np.array([2**53 - 1, 2**53, 2**53 + 2, MAX_COUNT, 0.0, -0.0, 1.0, 7.0, 1024.0, 1e15 + 1]),
    # where %g turns from 0.000ddd to d.ddde-05, and from 17 digits to d.ddde+17
    "layout-edges": _ulps_around([1e-5, 1e-4, 1.2345678901234567e-5, 1.2345678901234567e-4, 1e16, 1e17,
                                  12345678901234567.0, 123456789012345678.0, 0.1, 1.0, 10.0], 3),
    "three-digit-exponents": _ulps_around([1e100, 1.5e-100, 1e-150, 9.87e179, 1e180, 1e200, 1e-200,
                                           1.7976931348623157e308, 2.2250738585072014e-308, 5e-324], 2),
}


@pytest.mark.parametrize("values", _CASES.values(), ids=_CASES.keys())
def test_format_rows_fixed_cases(values):
    for columns in (1, 7):
        table = np.resize(values, (-(-len(values) // columns), columns))
        for separator in (",", "\n"):
            assert format_rows(table, separator) == format_rows_reference(table, separator)


def test_ties_are_ties():
    for x in _TIES:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x


def test_kernel_formats_normal_draws_alone(monkeypatch):
    """No normal draw, nor zero, reaches the per-number %.17g: the vectorized path does the work."""

    def refuse(x):
        raise AssertionError(f"{x!r} went to the per-number fallback")

    table = np.random.default_rng(29).standard_normal((300, 19)) * np.logspace(-170, 170, 19)
    table[::7, 3] = 0.0
    expected = format_rows_reference(table)
    monkeypatch.setattr(serialize, "_format_one", refuse)
    assert format_rows(table) == expected


def test_import_builds_no_formatter_tables():
    """A fresh import loads neither fractions nor decimal, and leaves the kernel's tables unbuilt."""
    program = (
        "import sys, spinchsh, spinchsh.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)), "
        "spinchsh.serialize._tables.cache_info().currsize)"
    )
    package_root = os.path.dirname(os.path.dirname(serialize.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[] 0\n"
