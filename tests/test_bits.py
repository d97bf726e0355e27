"""Subset transforms against direct sums and maxima over submasks."""

import numpy as np
import pytest

from rmbetti.bits import subset_max_accumulate, subset_sum_accumulate


def _submasks(w):
    return [s for s in range(w + 1) if s & w == s]


def _check_transforms(values, n):
    sums, maxima = values.copy(), values.copy()
    subset_sum_accumulate(sums, n)
    subset_max_accumulate(maxima, n)
    assert sums.dtype == maxima.dtype == values.dtype
    assert sums.tolist() == [int(values[_submasks(w)].sum()) for w in range(1 << n)]
    assert maxima.tolist() == [int(values[_submasks(w)].max()) for w in range(1 << n)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10])
def test_subset_transforms_match_direct_sums_and_maxima(n):
    _check_transforms(np.random.default_rng(n).integers(-9, 10, size=1 << n), n)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_subset_transforms_keep_narrow_dtypes(dtype):
    # sums over 2^5 submasks of values in -3..3 stay within int8
    n = 5
    values = np.random.default_rng(7).integers(-3, 4, size=1 << n)
    _check_transforms(values.astype(dtype), n)


def test_subset_transforms_update_a_strided_view_in_place():
    n = 6
    rng = np.random.default_rng(11)
    base = rng.integers(-9, 10, size=(1 << n, 2))
    original = base.copy()
    view = base[:, 0]
    assert not view.flags.contiguous
    subset_sum_accumulate(view, n)
    assert base[:, 0].tolist() == [int(original[_submasks(w), 0].sum())
                                   for w in range(1 << n)]
    assert np.array_equal(base[:, 1], original[:, 1])
    subset_max_accumulate(base[:, 1], n)
    assert base[:, 1].tolist() == [int(original[_submasks(w), 1].max())
                                   for w in range(1 << n)]
