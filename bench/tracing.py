"""Per-layer timers and counters for the spinchsh package, installed from outside.

The package binds names with ``from .x import y``, so a call goes through
whichever module-level name the caller looks up. ``Tracer.install`` replaces
every such binding of a layer's public functions (in every ``spinchsh``
module, the package namespace included) with a timing wrapper, plus the
``numpy.linalg`` eigensolvers and SVD the layers call, and
``uninstall`` puts the originals back. No code under ``src/`` changes.

A span's self time is its duration minus the time covered by its child
spans. ``calls`` counts only calls that enter a layer from another layer
(or from the benchmark), so a layer calling its own helpers is one call.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

import numpy

LAYER_MODULES = ("spin", "bell", "reduction", "spectrum", "search", "serialize")

# functions whose result is a Bell-type operator: their output size is the
# bytes a build computes (labelled as computed, not measured traffic)
_OPERATOR_BUILDERS = {
    "bell_operator",
    "coupling_operator",
    "canonical_operator",
    "ObservableFamily.bell_operator",
}
_EIG_KERNELS = ("eigh", "eigvalsh")
_SEESAW_ENTRY = "maximize_violation"

# per-layer metric names, in the order BENCHMARK.json lists them
METRICS = (
    "linalg.eig_calls",
    "linalg.eig_matrices",
    "linalg.eig_s",
    "linalg.svd_calls",
    "linalg.svd_s",
    "spin.calls",
    "spin.self_s",
    "bell.calls",
    "bell.self_s",
    "bell.computed_bytes",
    "reduction.calls",
    "reduction.self_s",
    "spectrum.calls",
    "spectrum.self_s",
    "search.calls",
    "search.self_s",
    "search.iterations",
    "serialize.calls",
    "serialize.self_s",
    "serialize.bytes",
    "cli.self_s",
)


class Tracer:
    """Accumulates per-layer counts and self times while installed."""

    def __init__(self):
        self.totals: Counter = Counter()
        self._stack: list[list] = []  # [layer, child seconds, function name]
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # ------------------------------------------------------------------
    # patch table

    def _build_patches(self) -> None:
        targets = {}  # id(original) -> (original, wrapper)
        for layer in LAYER_MODULES:
            module = sys.modules[f"spinchsh.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    targets[id(obj)] = (obj, self._wrap(obj, layer, name))
        cli = sys.modules["spinchsh.cli"]
        targets[id(cli.main)] = (cli.main, self._wrap(cli.main, "cli", "main"))

        for module_name, module in list(sys.modules.items()):
            if module_name != "spinchsh" and not module_name.startswith("spinchsh."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))

        family = sys.modules["spinchsh.search"].ObservableFamily
        method = family.__dict__["bell_operator"]
        self._patches.append(
            (family, "bell_operator", method,
             self._wrap(method, "bell", "ObservableFamily.bell_operator"))
        )
        for name in _EIG_KERNELS:
            kernel = getattr(numpy.linalg, name)
            self._patches.append((numpy.linalg, name, kernel, self._wrap_kernel(kernel, "eig")))
        self._patches.append(
            (numpy.linalg, "svd", numpy.linalg.svd, self._wrap_kernel(numpy.linalg.svd, "svd"))
        )

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # spans

    def _span(self, fn, layer, name, args, kwargs):
        stack = self._stack
        boundary = not stack or stack[-1][0] != layer
        frame = [layer, 0.0, name]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.totals[f"{layer}.self_s"] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        return result, boundary, elapsed

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, boundary, _ = self._span(fn, layer, name, args, kwargs)
            if boundary:
                totals = self.totals
                totals[f"{layer}.calls"] += 1
                if name in _OPERATOR_BUILDERS:
                    totals["bell.computed_bytes"] += result.nbytes
                elif name == "json_dumps":
                    # the renderer emits ASCII only, so characters are bytes
                    totals["serialize.bytes"] += len(result)
            return result

        return wrapper

    def _wrap_kernel(self, fn, kind: str):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            in_seesaw = any(frame[2] == _SEESAW_ENTRY for frame in self._stack)
            result, _, elapsed = self._span(fn, "linalg", kind, (a,) + args, kwargs)
            totals = self.totals
            totals[f"linalg.{kind}_calls"] += 1
            totals[f"linalg.{kind}_s"] += elapsed
            if kind == "eig":
                totals["linalg.eig_matrices"] += math.prod(numpy.shape(a)[:-2])
                if in_seesaw:
                    totals["search.iterations"] += 1
            return result

        return wrapper

    def take(self) -> Counter:
        """The counts and seconds gathered since the last call; starts afresh."""
        totals, self.totals = self.totals, Counter()
        return totals
