import numpy as np
import pytest

from spinchsh.serialize import json_dumps


def test_flat_numeric_lists_render_on_one_line():
    report = {
        "ints": [1, np.int64(-2), 0],
        "floats": [0.1, np.float64(2.0), np.float32(0.5), -0.0, 1e-300],
        "mixed": [3, 2.5],
        "array": np.array([1.0, 1.0 / 3.0]),
    }
    assert json_dumps(report) == (
        "{\n"
        '  "ints": [1, -2, 0],\n'
        '  "floats": [0.10000000000000001, 2, 0.5, -0, 1e-300],\n'
        '  "mixed": [3, 2.5],\n'
        '  "array": [1, 0.33333333333333331]\n'
        "}"
    )


def test_other_lists_render_one_element_per_line():
    report = {"bools": [True, 1], "nested": [[1, 2], [3.5]], "empty": [], "text": ["a", 1]}
    assert json_dumps(report) == (
        "{\n"
        '  "bools": [\n    true,\n    1\n  ],\n'
        '  "nested": [\n    [1, 2],\n    [3.5]\n  ],\n'
        '  "empty": [],\n'
        '  "text": [\n    "a",\n    1\n  ]\n'
        "}"
    )


def test_non_finite_float_in_flat_list_rejected():
    with pytest.raises(ValueError):
        json_dumps([1.0, float("nan")])
