"""Bitmask subset sweeps: popcount tables and subset (zeta) transforms.

Subsets of an n-element ground set are ints with bit i standing for
element i.  The transforms below run over the full 2**n lattice in
O(n * 2**n) vectorized steps.
"""

from __future__ import annotations

import numpy as np


def popcount_table(n: int) -> np.ndarray:
    """pc[mask] = number of set bits, for every mask < 2**n."""
    pc = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        pc[1 << b: 1 << (b + 1)] = pc[: 1 << b] + 1
    return pc


def _halves(values: np.ndarray, n: int, axis: int):
    """Views of the masks without and with bit n - 1 - axis; each keeps its
    length-1 axis, so they stay views at n = 1 too."""
    return np.split(values.reshape((2,) * n), 2, axis=axis)


def subset_sum_accumulate(values: np.ndarray, n: int) -> None:
    """In place: values[W] becomes sum of the original values over all subsets of W."""
    for axis in range(n):
        lo, hi = _halves(values, n, axis)
        hi += lo


def subset_max_accumulate(values: np.ndarray, n: int) -> None:
    """In place: values[W] becomes max of the original values over all subsets of W."""
    for axis in range(n):
        lo, hi = _halves(values, n, axis)
        np.maximum(hi, lo, out=hi)


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)
