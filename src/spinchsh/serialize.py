"""Deterministic JSON and CSV emission: 17-significant-digit floats, [re, im] complex pairs.

Identical inputs must produce byte-identical text, so floats are formatted
explicitly instead of relying on repr, and key order is the insertion order
of the dictionaries we build.

``json_dumps`` renders a report value by value, dispatching on its exact
type. A table of numbers, such as the rows of a ``verify`` report, is
declared instead: a ``Table`` holds one 2-D array of numbers and the layout
of one row. ``table_chunks`` has ``format_rows`` format a few rows at a time
into the texts of their numbers, and ``%s`` templates place those texts into
the rows, with their padding and quoted keys, and into their CSV lines, which
go to the table's CSV file as they are made; so every number is formatted
once, and only a few rows' texts are held, which ``write_report`` writes as
they come. ``format_rows`` is the one ``%.17g`` formatter of tables and CSV
lines: a numpy kernel that makes the bytes of ``%.17g`` without a Python
call per number, with ``%.17g`` itself for the few numbers the kernel
cannot decide. ``open_csv`` is the one CSV writer. Every container of
``json_dumps`` is one ``"".join`` over a flat list of its parts, so a large
report's text is held about twice at most.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import sys

import numpy as np

from .errors import InputError, NonFiniteError

# the four scenario directions, flattened, as CSV columns
DIRECTION_COLUMNS = (
    "ax", "ay", "az", "apx", "apy", "apz", "bx", "by", "bz", "bpx", "bpy", "bpz",
)


_FLOAT = frozenset([float])
_STR = frozenset([str])
_PAD = "  "  # indentation per nesting level
# rows formatted in one pass of the kernel, whose temporaries peak at about
# 200 bytes a number: a small part of a large report, and of a grid block's text
_CHUNK = 128
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str, without its encoder set-up

# The %.17g kernel scales |x| by 10**(16 - e), e its decimal exponent, to the
# 17-digit integer that %.17g prints, then lays out that integer's digits.
# Within [1e-180, 1e180) every number is normal, the power of ten's parts
# included, so the double-double product carries about 106 bits: its error,
# under 1e-14 of a unit, decides every rounding that is not this near a tie.
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves (Veltkamp)
_E_MAX = 180
_TIE = 2.0**-32
# a number's text on its canvas row: sign, the "0.000" of 1e-4 <= |x| < 1,
# 17 digits with their point, the exponent "e+123" and the separator
_FIELD, _EXPONENT, _END, _CANVAS = 6, 24, 29, 30


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def _format_one(x: float) -> str:
    """%.17g of a number the kernel leaves: NaN, inf, a far exponent or a near-tie."""
    return format(x, ".17g")


def _power_of_ten(p: int) -> tuple[float, float]:
    """10**p as the double nearest it and the double nearest the rest, from exact integers."""
    if p >= 0:
        nearest = float(10**p)
        return nearest, float(10**p - int(nearest))
    scale = 10**-p
    nearest = 1 / scale  # int / int is correctly rounded
    num, den = nearest.as_integer_ratio()
    return nearest, (den - num * scale) / (den * scale)


@functools.cache
def _tables() -> tuple:
    """The kernel's tables, by k = _E_MAX - e for the exponents e from _E_MAX down to -_E_MAX - 1.

    Built on first use, in a few milliseconds: 10**(16 - e) as the two
    halves of its nearest double and the rest, the ASCII digits and the
    trailing zeros of every 4-digit group, and per exponent a canvas row,
    the column of its point and, for each count of significant digits, the
    columns of the canvas that its text keeps.
    """
    e = _E_MAX - np.arange(2 * _E_MAX + 2)
    nearest, rest = np.array([_power_of_ten(16 - int(x)) for x in e]).T
    c = _SPLIT * nearest
    head = c - (c - nearest)
    group = np.arange(10000)
    chars = np.stack([group // 10**j % 10 + 48 for j in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    trailing = sum((group % 10**j == 0).astype(np.intp) for j in (1, 2, 3, 4))
    # %g's fixed notation for 17 digits; "0.000" leads the smallest
    fixed, small, mag = (e >= -4) & (e <= 16), (e >= -4) & (e < 0), np.abs(e)
    canvas = np.zeros((len(e), _CANVAS), np.uint8)
    canvas[:, :_FIELD] = np.frombuffer(b"-0.000", np.uint8)
    canvas[:, _EXPONENT] = ord("e")
    canvas[:, _EXPONENT + 1] = np.where(e < 0, ord("-"), ord("+"))
    for j, digit in enumerate((mag // 100, mag // 10 % 10, mag % 10)):
        canvas[:, _EXPONENT + 2 + j] = digit + 48
    # the point's column in the 18-column digit field: after the units digit,
    # or none (18) after "0.000"
    point = np.where(fixed, np.where(small, 18, e + 1), 1)
    # the digit-field columns kept for nz significant digits: the digits up to
    # the units digit, then the point and the rest if any are left
    nz = np.arange(18)
    width = np.where(nz > point[:, None], nz + 1, point[:, None])
    width[small] = nz
    column = np.arange(_CANVAS)
    lead = (column >= 1) & (column < 2 - e[:, None]) & small[:, None]
    exponent = (column >= _EXPONENT) & ~fixed[:, None] & ((column != _EXPONENT + 2) | (mag >= 100)[:, None])
    keep = (column >= _FIELD) & (column < _FIELD + width[..., None]) | (lead | exponent)[:, None]
    keep[..., _END] = True
    left = np.arange(17) < np.arange(19)[:, None]  # row d: the columns before d
    return (
        head, nearest - head, rest, chars.view(np.uint32).ravel(), trailing,
        canvas, point, keep.reshape(-1, _CANVAS), left,
    )


def _format_chunk(table: np.ndarray, separator: str) -> str:
    if table.size == 0:
        return "\n" * len(table)
    head_t, tail_t, rest_t, chars_t, trailing_t, canvas_t, point_t, keep_t, left_t = _tables()
    x = table.ravel()
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    # NaN, inf and the far exponents go to %.17g one at a time; zero is laid
    # out as 1 is, with its digit replaced
    scaled = (a >= 1e-180) & (a < 1e180)
    a = np.where(scaled, a, 1.0)
    k = _E_MAX - np.floor(np.log10(a)).astype(np.intp)
    head, tail, rest = head_t.take(k), tail_t.take(k), rest_t.take(k)
    # a * 10**(16 - e) as the integer-valued double p plus t: Dekker's exact
    # product of a and head + tail, then a * rest
    p = a * (head + tail)
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    t = a_tail * tail - (((p - a_head * head) - a_tail * head) - a_head * tail) + a * rest
    whole = np.floor(t)
    frac = t - whole
    q = p.astype(np.int64) + whole.astype(np.int64)
    # log10 can miss e by one next to a power of ten: then q is out of range
    exact = (scaled | zero) & (np.abs(frac - 0.5) >= _TIE) & (q >= 10**16)
    q += frac > 0.5
    exact &= q < 10**17
    q[~exact] = 10**16
    # the 17 digits as five groups of at most four, by uint32 arithmetic
    groups = np.empty((5, n), np.uint32)
    high8 = q // 10**8
    for j, part in ((4, (q - high8 * 10**8).astype(np.uint32)), (2, high8.astype(np.uint32))):
        div = part // 10000
        groups[j] = part - div * 10000
        groups[j - 1] = div
    div = groups[1] // 10000
    groups[1] -= div * 10000
    groups[0] = div
    digits = chars_t.take(groups.T).view(np.uint8)[:, 3:]
    zeros = trailing_t.take(groups[4])
    pending = np.flatnonzero(groups[4] == 0)  # those whose last four digits are all zero
    for j in (3, 2, 1):
        last = groups[j].take(pending)
        zeros[pending] += trailing_t.take(last)
        pending = pending[last == 0]
    # the arithmetic's temporaries go before the layout's arrays are made
    del a, head, tail, rest, p, c, a_head, a_tail, t, whole, frac, q, high8, part, div
    canvas = canvas_t.take(k, axis=0)
    field = canvas[:, _FIELD:_EXPONENT]
    point = point_t.take(k)
    field[:, 1:] = digits
    np.copyto(field[:, :17], digits, where=left_t.take(point, axis=0))
    canvas[np.arange(n), _FIELD + point] = ord(".")  # a point of 18 falls on the "e", rewritten next
    canvas[:, _EXPONENT] = ord("e")
    canvas[zero, _FIELD] = ord("0")
    canvas[:, _END] = ord(separator)
    canvas[table.shape[1] - 1 :: table.shape[1], _END] = ord("\n")
    keep = keep_t.take(k * 18 + 17 - zeros, axis=0)
    keep[:, 0] = np.signbit(x)
    for i in np.flatnonzero(~exact).tolist():
        text = _format_one(float(x[i])).encode()
        canvas[i, : len(text)] = np.frombuffer(text, np.uint8)
        keep[i, :_END] = np.arange(_END) < len(text)
    # kept bytes are nonzero ASCII: zero the rest and drop them, with no np.compress index array
    np.multiply(canvas, keep, out=canvas)
    return canvas.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(table, separator: str = ",") -> str:
    """The rows of a 2-D array of numbers as lines of text, ``_CHUNK`` rows a pass: CSV lines by default.

    Each number is ``%.17g``: floats at 17 significant digits, and integers
    of magnitude up to 2**53 as their decimal digits, joined by
    ``separator``, one ASCII character other than NUL. A vectorized kernel makes the bytes
    of ``%.17g``: it rounds each number to 17 digits by an exact
    double-double product with a power of ten and lays the digits out by
    table. It leaves to ``%.17g``, one at a time, NaN, inf, magnitudes
    outside [1e-180, 1e180) and the numbers within 2**-32 of a unit of a
    rounding tie or next to a power of ten where ``log10`` misses.
    """
    table = np.asarray(table, dtype=float)
    return "".join([_format_chunk(table[i : i + _CHUNK], separator) for i in range(0, len(table), _CHUNK)])


class Table:
    """Report rows declared as a 2-D array of numbers, which ``json_dumps`` renders as a list of dicts.

    ``fields`` lays out a row as (key, width) pairs that take its numbers in
    order: width 0 for one number, n for a list of n. ``rows`` is a 2-D
    float array, one row per report row. Every number must be finite:
    the constructor raises NonFiniteError, naming the first non-finite
    number in row order, so a caller can check a table before it opens any
    output. When ``csv`` is set to (keys, file), rendering also writes the
    rows' CSV lines, the numbers of those keys, to that open text file. A
    plain class: a dataclass would cost every import a millisecond.
    """

    def __init__(self, fields: tuple[tuple[str, int], ...], rows: np.ndarray):
        bad = rows[~np.isfinite(rows)]
        if bad.size:
            raise NonFiniteError(f"cannot serialize non-finite float {float(bad[0])!r}")
        self.fields, self.rows = fields, rows
        self.csv = None


def table_chunks(table: Table, level: int):
    """``table`` as the JSON list of its rows at nesting ``level``, in pieces, each number formatted once.

    Every ``_CHUNK`` rows are formatted by one ``format_rows`` call, whose texts ``%s`` templates
    place into the rows, yielded, and into the lines of the ``csv`` setting, written first.
    """
    inner, pad = _PAD * (level + 1), _PAD * (level + 2)
    values = {key: "[%s]" % ", ".join(["%s"] * width) if width else "%s" for key, width in table.fields}
    entries = [f"{pad}{_quote(key).replace('%', '%%')}: {value}" for key, value in values.items()]
    row = inner + "{\n" + ",\n".join(entries) + "\n" + inner + "}"
    keys = [key for key, width in table.fields for _ in range(width or 1)]  # the key of each column
    csv_keys, csv_file = table.csv or ((), None)
    csv_columns = [c for csv_key in csv_keys for c, key in enumerate(keys) if key == csv_key]
    line = ",".join(["%s"] * len(csv_columns)) + "\n"
    # the flat positions of the CSV cells among a chunk's texts, in line order
    positions = [r + c for r in range(0, _CHUNK * len(keys), len(keys)) for c in csv_columns]
    opening = "[\n"
    for i in range(0, len(table.rows), _CHUNK):
        chunk = table.rows[i : i + _CHUNK]
        cells = format_rows(chunk, "\n").split("\n")
        cells.pop()  # the empty text after the last row's end
        if csv_columns:
            picked = operator.itemgetter(*positions[: len(chunk) * len(csv_columns)])(cells)
            csv_file.write(line * len(chunk) % picked)
        yield opening
        yield ",\n".join([row] * len(chunk)) % tuple(cells)
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n" + _PAD * level + "]"


def _render(obj, level: int) -> str:
    # one dispatch on the exact type: a subclass (np.float64 is a float) is
    # not a report value, and neither is any type not named here
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is int:
        return str(obj)
    if kind is list:
        if _FLOAT.issuperset(map(type, obj)):
            return "[" + ", ".join(map(_format_float, obj)) + "]"
        pad = _PAD * (level + 1)
        parts = ["[\n"]
        for v in obj:
            parts += (pad, _render(v, level + 1), ",\n")
        parts[-1] = "\n" + _PAD * level + "]"
        return "".join(parts)
    if kind is dict:
        if not obj:
            return "{}"
        if not _STR.issuperset(map(type, obj)):
            key = type(next(k for k in obj if type(k) is not str))
            raise TypeError(f"cannot serialize a dict key of type {key.__module__}.{key.__name__}")
        pad = _PAD * (level + 1)
        parts = ["{\n"]
        for k, v in obj.items():
            parts += (pad, _quote(k), ": ", _render(v, level + 1), ",\n")
        parts[-1] = "\n" + _PAD * level + "}"
        return "".join(parts)
    if kind is Table:
        return "".join(table_chunks(obj, level))
    if kind is str:
        return _quote(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is np.ndarray and obj.dtype == np.float64:
        return _render(obj.tolist(), level)
    # module-qualified, since numpy.bool is not builtins.bool
    raise TypeError(f"cannot serialize an object of type {kind.__module__}.{kind.__name__}")


def json_dumps(obj) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline).

    ``obj`` is built of Python floats, ints, bools, strs and None, lists,
    dicts with str keys, float64 arrays (as their ``tolist()``) and
    ``Table``s (by ``table_chunks``); any other type, a numpy scalar or a
    tuple included, raises TypeError. A non-finite float raises
    NonFiniteError, a ValueError.
    """
    return _render(obj, 0)


def write_report(report: dict, file) -> None:
    """Write ``json_dumps(report)`` and a newline to ``file``, its one top-level Table in pieces."""
    (key,) = [key for key, value in report.items() if type(value) is Table]
    # the rest of the report, rendered around a placeholder string
    head, tail = json_dumps({**report, key: "\x00"}).split(_quote("\x00"))
    file.write(head)
    file.writelines(table_chunks(report[key], 1))
    file.write(tail + "\n")


def complex_pairs(values) -> list:
    """A complex vector or matrix as nested [re, im] pairs."""
    arr = np.asarray(values, dtype=complex)
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def parse_complex_pairs(data) -> np.ndarray:
    """Inverse of complex_pairs: nested [re, im] pairs back to a complex array."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise InputError("expected nested [re, im] pairs")
    # a pair is a complex number's memory layout; re + 1j * im would turn an
    # infinite im into a NaN re, with a numpy warning
    return np.ascontiguousarray(arr).view(complex)[..., 0]


@contextlib.contextmanager
def open_csv(path: str | None, header):
    """``path`` (stdout if None) opened for CSV text, ``header`` written; closed on exit.

    The caller writes whole CSV lines to it, as ``format_rows`` gives them,
    as soon as it has them. If the caller raises, a regular file at ``path``
    is removed, so a failed command leaves no partial CSV; a symlink or a
    device, such as /dev/stdout, is left alone.
    """
    if path is None:
        sys.stdout.write(",".join(header) + "\n")
        yield sys.stdout
        return
    with open(path, "w", newline="") as handle:
        try:
            handle.write(",".join(header) + "\n")
            yield handle
        except BaseException:
            handle.close()
            if os.path.isfile(path) and not os.path.islink(path):
                os.remove(path)
            raise
