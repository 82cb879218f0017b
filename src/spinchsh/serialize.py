"""Deterministic JSON and CSV emission: 17-significant-digit floats, [re, im] complex pairs.

Identical inputs must produce byte-identical text, so floats are formatted
explicitly instead of relying on repr, and key order is the insertion order
of the dictionaries we build.

A list of same-shape dicts, such as the rows of a ``verify`` report, is
rendered through one row template, the renderer's only fast path: every
item is a dict with the first item's str keys in the same order, and each
value has, by exact type, the first item's kind (a float, an int, or an
all-float list of the same length). The template holds the brackets, the
padding, the quoted keys and one ``%.17g`` or ``%d`` field per number, and
one ``%`` fills every row's copy of it from a flat tuple of the values, so
the rows cost little more than the formatting of their floats. Any other
list, or one holding a non-finite float, is rendered item by item, which
gives the same text. Every other container is one ``"".join`` over a flat
list of its parts, so a large report's text is held about twice at most.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain

import numpy as np

# the four scenario directions, flattened, as CSV columns
DIRECTION_COLUMNS = (
    "ax", "ay", "az", "apx", "apy", "apz", "bx", "by", "bz", "bpx", "bpy", "bpz",
)


_FLOAT = frozenset([float])
_STR = frozenset([str])
_DICT = frozenset([dict])
_LIST = frozenset([list])
_FIELDS = {float: "%.17g", int: "%d"}  # the row-template field of each scalar kind
_PAD = "  "  # indentation per nesting level
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str, without its encoder set-up


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def _render_rows(rows: list, level: int) -> str | None:
    """A non-empty list of same-shape dicts, by one ``%``; None for any other list.

    None also when the rows hold a non-finite float (or floats whose sum
    overflows): the item-by-item path then raises for the first one, in
    document order, or renders the same text.
    """
    first = rows[0]
    if type(first) is not dict or not _STR.issuperset(map(type, first)):
        return None
    if not _DICT.issuperset(map(type, rows)) or set(map(tuple, rows)) != {tuple(first)}:
        return None
    pad = _PAD * (level + 2)
    fields, columns, floats = [], [], []
    # one column per key, then one per element of a list-valued key
    for key, column in zip(first, zip(*map(dict.values, rows))):
        kind = type(column[0])
        if kind is list:
            width = len(column[0])
            if not _LIST.issuperset(map(type, column)) or set(map(len, column)) != {width}:
                return None
            if not _FLOAT.issuperset(map(type, chain.from_iterable(column))):
                return None
            parts = list(zip(*column))
            field = "[" + ", ".join(["%.17g"] * width) + "]"
            columns += parts
            floats += parts
        elif kind in _FIELDS and frozenset([kind]).issuperset(map(type, column)):
            field = _FIELDS[kind]
            columns.append(column)
            if kind is float:
                floats.append(column)
        else:
            return None
        fields.append(f"{pad}{_quote(key).replace('%', '%%')}: {field}")
    # no columns: rows like {} render without a template. A nan or an inf
    # makes the sum non-finite; so may finite floats near the largest float,
    # which the item-by-item path then renders all the same
    if not columns or not math.isfinite(sum(chain.from_iterable(floats))):
        return None
    inner = _PAD * (level + 1)
    template = inner + "{\n" + ",\n".join(fields) + "\n" + inner + "}"
    values = tuple(chain.from_iterable(zip(*columns)))  # row by row
    return ("[\n" + ",\n".join([template] * len(rows)) + "\n" + _PAD * level + "]") % values


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
        text = _render_rows(obj, level)
        if text is not None:
            return text
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
    dicts with str keys, and float64 arrays (as their ``tolist()``); any
    other type, a numpy scalar or a tuple included, raises TypeError.
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
        raise ValueError("expected nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def write_csv(path: str | None, header, rows) -> None:
    """Write ``header``, then one line per row of numbers, to ``path`` (stdout if None).

    Every cell is formatted as ``%.17g``: floats at 17 significant digits,
    and ints of magnitude up to 2**53 as their decimal digits, as ``str``
    gives them. ``rows`` may be a generator; it is consumed as the lines are
    written.
    """
    template = ",".join(["%.17g"] * len(header)) + "\n"
    handle = sys.stdout if path is None else open(path, "w", newline="")
    try:
        handle.write(",".join(header) + "\n")
        handle.writelines(template % tuple(row) for row in rows)
    finally:
        if handle is not sys.stdout:
            handle.close()
