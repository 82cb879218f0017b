"""Deterministic JSON and CSV emission: 17-significant-digit floats, [re, im] complex pairs.

Identical inputs must produce byte-identical text, so floats are formatted
explicitly instead of relying on repr, and key order is the insertion order
of the dictionaries we build.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

# the four scenario directions, flattened, as CSV columns
DIRECTION_COLUMNS = (
    "ax", "ay", "az", "apx", "apy", "apz", "bx", "by", "bz", "bpx", "bpy", "bpz",
)


_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)
_FLOAT = frozenset([float])
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str, without its encoder set-up


def _format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def _render_floats(values: list) -> str:
    """A list of Python floats on one line, formatted by one ``%`` over the whole list."""
    text = ", ".join(["%.17g"] * len(values)) % tuple(values)
    # a finite float prints only 0-9 . e + -, so an "n" is a nan or an inf
    if "n" in text:
        for x in values:
            _format_float(x)  # raises for the first non-finite value
    return "[" + text + "]"


def _render(obj, indent: int, level: int) -> str:
    # the exact types a report is made of come first; subclasses, numpy
    # scalars and arrays, and mixed lists follow the general rules below
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is int:
        return str(obj)
    if kind is list and _FLOAT.issuperset(map(type, obj)):
        return _render_floats(obj)
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = level + 1
        # a finite Python float is formatted in place; a non-finite one goes
        # through _render, which raises in its turn
        items = [
            f"{pad}{_quote(str(k))}: "
            + ("%.17g" % v if type(v) is float and math.isfinite(v) else _render(v, indent, inner))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + closing + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, _INTEGERS):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _render([obj.real, obj.imag], indent, level)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent, level)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if all(isinstance(v, _NUMBERS) and not isinstance(v, bool) for v in obj):
            # a flat list of numbers goes on one line
            return "[" + ", ".join(
                str(int(v)) if isinstance(v, _INTEGERS) else _format_float(v) for v in obj
            ) + "]"
        rendered = (pad + _render(v, indent, level + 1) for v in obj)
        return "[\n" + ",\n".join(rendered) + "\n" + closing + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def json_dumps(obj, indent: int = 2) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline)."""
    return _render(obj, indent, 0)


def complex_pairs(values) -> list:
    """A complex vector or matrix as nested [re, im] pairs."""
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [complex_pairs(row) for row in arr]


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
