"""Reference kernels: fixed work, timed right before and right after every
unit call.  A call's calibrated time is its wall time divided by the mean of
the two kernel times beside it, so a slowdown of the whole machine (another
tenant on the same cores, a lower clock) divides out.

Each kernel is shaped like the work it calibrates, so that both feel the
same kind of slowdown:

* ``python_kernel`` builds small slotted objects, does modular arithmetic
  through dunder methods and hashes the results into a set, as the exact
  enumerator does with field elements;
* ``numpy_kernel`` allocates a fresh byte grid, reorders it along its
  strided leading axis and reduces along that axis, as the lattice's
  per-profile minimum (``min_cardinality_by_sizes``) does.
"""

from __future__ import annotations

import time

PYTHON_ROUNDS = 5_000
# Seconds python_kernel() takes on the reference machine (see README); set-up
# time is reported in seconds of that machine.
PYTHON_NOMINAL_S = 0.05
NUMPY_SHAPE = (32, 64, 64, 128)


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Residue((self.v + other.v) % 13)

    def __mul__(self, other):
        return _Residue(self.v * other.v % 13)

    def __eq__(self, other):
        return self.v == other.v

    def __hash__(self):
        return self.v


def python_kernel() -> float:
    """Seconds spent on PYTHON_ROUNDS x 13 object multiply-adds and set inserts."""
    start = time.perf_counter()
    elems = [_Residue(v) for v in range(13)]
    acc = elems[0]
    seen = set()
    for _ in range(PYTHON_ROUNDS):
        for x in elems:
            acc = acc + x * x
            seen.add((acc, x))
    if len(seen) > 13 * 13:
        raise AssertionError("reference kernel misbehaved")
    return time.perf_counter() - start


def numpy_kernel(np) -> float:
    """Seconds spent on a fresh 16 MB uint8 grid: fill, mask, reorder the
    strided leading axis with ``take`` and ``reduceat`` along it."""
    start = time.perf_counter()
    grid = np.empty(NUMPY_SHAPE, dtype=np.uint8)
    grid[...] = np.arange(NUMPY_SHAPE[-1], dtype=np.uint8)
    masked = grid & np.uint8(7)
    moved = masked.take(np.arange(NUMPY_SHAPE[0])[::-1], axis=0)
    reduced = np.minimum.reduceat(moved, np.arange(0, NUMPY_SHAPE[0], 3), axis=0)
    if int(reduced[0, 0, 0, 1]) != 1:
        raise AssertionError("reference kernel misbehaved")
    return time.perf_counter() - start
