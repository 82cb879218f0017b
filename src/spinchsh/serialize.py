"""Deterministic JSON and CSV emission: 17-significant-digit floats, [re, im] complex pairs.

Identical inputs must produce byte-identical text, so floats are formatted
explicitly instead of relying on repr, and key order is the insertion order
of the dictionaries we build.

``json_dumps`` renders a report value by value, dispatching on its exact
type. A table of numbers, such as the rows of a ``verify`` report, is
declared instead: a ``Table`` holds blocks of numbers and the layout of one
row. ``render_table`` formats a few rows at a time by one ``%`` into the
texts of their numbers, and ``%s`` templates place those texts into the
rows, with their padding and quoted keys, and into their CSV lines, which
go to the table's CSV file as they are made; so every number is formatted
once, and only a few rows' texts are held. ``format_rows`` is the one
``%.17g`` formatter of tables and CSV lines, and ``open_csv`` the one CSV
writer. Every container is one ``"".join`` over a flat list of its parts,
so a large report's text is held about twice at most.
"""

from __future__ import annotations

import contextlib
import json
import math
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
# rows of a table formatted by one %: their texts cost about 2.6 times the
# JSON they become, so a chunk is a small part of a large report
_CHUNK = 128
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str, without its encoder set-up


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def format_rows(table, separator: str = ",") -> str:
    """The rows of a 2-D array of numbers as lines of text, by one ``%``: CSV lines by default.

    Each number is ``%.17g``: floats at 17 significant digits, and integers
    of magnitude up to 2**53 as their decimal digits, joined by ``separator``.
    """
    table = np.asarray(table, dtype=float)
    template = (separator.join(["%.17g"] * table.shape[-1]) + "\n") * len(table)
    return template % tuple(table.ravel().tolist())


class Table:
    """Report rows declared as blocks of numbers, which ``json_dumps`` renders as a list of dicts.

    ``fields`` lays out a row as (key, width) pairs that take its numbers in
    order: width 0 for one number, n for a list of n. Each of ``blocks`` is
    a 2-D float array, one row per report row. Every number must be finite:
    the constructor raises NonFiniteError, naming the first non-finite
    number in row order, so a caller can check a table before it opens any
    output. When ``csv`` is set to (keys, file), rendering also writes the
    rows' CSV lines, the numbers of those keys, to that open text file. A
    plain class: a dataclass would cost every import a millisecond.
    """

    def __init__(self, fields: tuple[tuple[str, int], ...], blocks: list):
        for block in blocks:
            bad = block[~np.isfinite(block)]
            if bad.size:
                raise NonFiniteError(f"cannot serialize non-finite float {float(bad[0])!r}")
        self.fields, self.blocks = fields, blocks
        self.csv = None


def render_table(table: Table, level: int) -> str:
    """``table`` as the JSON list of its rows at nesting ``level``, each number formatted once.

    Every ``_CHUNK`` rows of a block are formatted by one ``%`` into the
    texts of their numbers, which ``%s`` templates then place into the rows
    and, if the table has a ``csv`` setting, into the CSV lines written to its file.
    """
    inner, pad = _PAD * (level + 1), _PAD * (level + 2)
    values = {key: "[%s]" % ", ".join(["%s"] * width) if width else "%s" for key, width in table.fields}
    entries = [f"{pad}{_quote(key).replace('%', '%%')}: {value}" for key, value in values.items()]
    row = inner + "{\n" + ",\n".join(entries) + "\n" + inner + "}"
    keys = [key for key, width in table.fields for _ in range(width or 1)]  # the key of each column
    csv_keys, csv_file = table.csv or ((), None)
    csv_columns = [c for csv_key in csv_keys for c, key in enumerate(keys) if key == csv_key]
    line = ",".join(["%s"] * len(csv_columns)) + "\n"
    parts = ["[\n"]
    chunks = (block[i : i + _CHUNK] for block in table.blocks for i in range(0, len(block), _CHUNK))
    for chunk in chunks:
        cells = format_rows(chunk, "\n").split("\n")
        cells.pop()  # the empty text after the last row's end
        parts += (",\n".join([row] * len(chunk)) % tuple(cells), ",\n")
        if csv_columns:
            ordered = np.array(cells, dtype=object).reshape(chunk.shape)[:, csv_columns]
            csv_file.write(line * len(chunk) % tuple(ordered.ravel().tolist()))
    if len(parts) == 1:
        return "[]"
    parts[-1] = "\n" + _PAD * level + "]"
    return "".join(parts)


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
        return render_table(obj, level)
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
    ``Table``s (by ``render_table``); any other type, a numpy scalar or a
    tuple included, raises TypeError. A non-finite float raises
    NonFiniteError, a ValueError.
    """
    return _render(obj, 0)


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
