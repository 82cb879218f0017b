"""Machine-speed calibration: a fixed reference kernel timed between operations.

On a shared machine the speed available to one process drifts by a quarter
or more within a minute, so raw wall times of identical runs a few minutes
apart disagree by more than any useful regression bound. Every timed
operation is bracketed by runs of a reference kernel that uses none of the
package's code, and its wall time is divided by the mean of the two speed
factors. A calibrated second is the time the operation would take on a
machine where the reference kernel takes its nominal time; raw wall times
are reported beside the calibrated ones.

Contention slows interpreted code and compiled LAPACK loops by different
amounts, so there are two kernels and each workload is calibrated against
the one that resembles its work:

- ``per_item`` repeats the per-item path of the CLI workloads on random
  inputs: normalise four 3-vectors, contract each with three fixed Hermitian
  3x3 generators, build a 9x9 operator from two Kronecker products and take
  its Hermitian eigendecomposition;
- ``batched`` is one batched Hermitian eigensolve over 9x9 matrices, the bulk
  of the Monte Carlo workload.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# fixed scales, near each kernel's time on a 2-core x86-64 machine with
# Python 3.11 and numpy 2.4 on OpenBLAS; calibrated seconds compare with
# each other, not with wall seconds on another machine
NOMINAL_S = {"per_item": 0.04, "batched": 0.03}


class Calibration:
    """Times one reference kernel; ``factor()`` is its time over its nominal time."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self._nominal = NOMINAL_S[kind]
        if kind == "batched":
            batch = rng.standard_normal((4000, 9, 9)) + 1j * rng.standard_normal((4000, 9, 9))
            self._batch = batch + batch.conj().transpose(0, 2, 1)
            self._kernel = self._batched
        else:
            gens = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
            self._gens = gens + gens.conj().transpose(0, 2, 1)
            self._quads = rng.standard_normal((400, 4, 3)).tolist()
            self._kernel = self._per_item

    def _per_item(self) -> float:
        acc = 0.0
        for quad in self._quads:
            ops = []
            for u in quad:
                u = np.asarray(u, dtype=float).reshape(-1)
                ops.append(np.einsum("i,iab->ab", u / np.linalg.norm(u), self._gens))
            a, a_prime, b, b_prime = ops
            h = np.kron(a, b + b_prime) + np.kron(a_prime, b - b_prime)
            values, vectors = np.linalg.eigh(h)
            acc += float(values[-1]) + float(np.linalg.norm(vectors[:, -1]))
        return acc

    def _batched(self) -> float:
        return float(np.linalg.eigvalsh(self._batch)[0, 0])

    def factor(self) -> float:
        start = perf_counter()
        self._kernel()
        return (perf_counter() - start) / self._nominal
