"""Bitmask subset sweeps: popcount tables and subset (zeta) transforms.

Subsets of an n-element ground set are ints with bit i standing for
element i.  The transforms below run over the full 2**n lattice in
O(n * 2**n) vectorized steps: for each bit b, the view
values.reshape(-1, 2, 1 << b) pairs every mask without bit b ([:, 0]) with
the same mask plus bit b ([:, 1]), and one in-place array operation folds
the first half into the second.  They work in the array's own dtype (the
callers pass int8 ranks, int32 word counts and int32 Euler
characteristics, and each states why its values fit), and a strided 1-d
view of a larger array is updated in place like any other.
"""

from __future__ import annotations

import numpy as np


def popcount_table(n: int) -> np.ndarray:
    """pc[mask] = number of set bits, for every mask < 2**n."""
    pc = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        pc[1 << b: 1 << (b + 1)] = pc[: 1 << b] + 1
    return pc


def _order(b: int) -> str:
    """Iteration order for bit b's pairs: below bit 3 the runs of 1 << b
    masks are too short for numpy's inner loop, so it runs down the long
    axis instead (several times faster at n = 16 and n = 20)."""
    return "F" if b < 3 else "K"


def subset_sum_accumulate(values: np.ndarray, n: int) -> None:
    """In place: values[W] becomes sum of the original values over all subsets of W."""
    for b in range(n):
        pairs = values.reshape(-1, 2, 1 << b, copy=False)
        np.add(pairs[:, 1], pairs[:, 0], out=pairs[:, 1], order=_order(b))


def subset_max_accumulate(values: np.ndarray, n: int) -> None:
    """In place: values[W] becomes max of the original values over all subsets of W."""
    for b in range(n):
        pairs = values.reshape(-1, 2, 1 << b, copy=False)
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1], order=_order(b))

