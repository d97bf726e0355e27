"""Subset transforms against direct sums and maxima over submasks."""

import numpy as np
import pytest

from rmbetti.bits import subset_max_accumulate, subset_sum_accumulate


def _submasks(w):
    return [s for s in range(w + 1) if s & w == s]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_subset_transforms_match_direct_sums_and_maxima(n):
    values = np.random.default_rng(n).integers(-9, 10, size=1 << n)
    sums, maxima = values.copy(), values.copy()
    subset_sum_accumulate(sums, n)
    subset_max_accumulate(maxima, n)
    assert sums.tolist() == [int(values[_submasks(w)].sum()) for w in range(1 << n)]
    assert maxima.tolist() == [int(values[_submasks(w)].max()) for w in range(1 << n)]

