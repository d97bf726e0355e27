"""Exact row reduction, null spaces, and independent column sets."""

import itertools

import numpy as np
import pytest

from rmbetti import DimensionMismatchError, field
from rmbetti import linalg


def mat(gf, rows):
    return np.array(rows, dtype=gf.dtype)


def test_rref_identity_and_zero():
    gf = field(3)
    r, rk, piv = linalg.rref(gf, linalg.identity(gf, 2))
    assert rk == 2 and piv == [0, 1]
    r, rk, piv = linalg.rref(gf, linalg.zeros(gf, 3, 4))
    assert rk == 0 and piv == []


def test_rref_dependent_rows_gf2():
    gf = field(2)
    m = mat(gf, [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0]])
    _, rk, _ = linalg.rref(gf, m)
    assert rk == 2  # third row is the sum of the first two


def test_rref_idempotent_and_pivots_increase():
    gf = field(5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.integers(0, 5, size=(4, 6)).astype(gf.dtype)
        r, rk, piv = linalg.rref(gf, m)
        r2, rk2, piv2 = linalg.rref(gf, r)
        assert np.array_equal(r, r2) and rk == rk2 and piv == piv2
        assert piv == sorted(piv)


def test_null_space_examples():
    gf = field(2)
    assert linalg.null_space(gf, linalg.identity(gf, 3)).shape == (0, 3)
    # no constraints: 0 x 3 matrix has the full space as kernel
    empty = linalg.zeros(gf, 0, 3)
    assert np.array_equal(linalg.null_space(gf, empty), linalg.identity(gf, 3))
    gf3 = field(3)
    m = mat(gf3, [[1, 1, 1]])
    basis = linalg.null_space(gf3, m)
    assert basis.shape == (2, 3)
    assert not np.any(linalg.matmul(gf3, m, basis.T))


def test_null_space_rows_independent_and_annihilated():
    rng = np.random.default_rng(17)
    for q in (2, 3, 4, 5):
        gf = field(q)
        for _ in range(10):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            m = rng.integers(0, q, size=(rows, cols)).astype(gf.dtype)
            basis = linalg.null_space(gf, m)
            assert not np.any(linalg.matmul(gf, m, basis.T))
            assert linalg.rank(gf, basis) == basis.shape[0]


def test_rank_nullity_randomized():
    rng = np.random.default_rng(2024)
    for q in (2, 3, 4, 5):
        gf = field(q)
        for _ in range(15):
            rows, cols = int(rng.integers(0, 13)), int(rng.integers(1, 13))
            m = rng.integers(0, q, size=(rows, cols)).astype(gf.dtype)
            assert linalg.rank(gf, m) + linalg.null_space(gf, m).shape[0] == cols


def test_row_space_equal():
    gf = field(3)
    a = mat(gf, [[1, 0, 2], [0, 1, 1]])
    permuted = a[[1, 0]]
    scaled = np.array([gf.mul(2, a[0]), a[1]])
    assert linalg.row_space_equal(gf, a, permuted)
    assert linalg.row_space_equal(gf, a, scaled)
    assert not linalg.row_space_equal(gf, a, a[:1])
    with pytest.raises(DimensionMismatchError):
        linalg.row_space_equal(gf, a, mat(gf, [[1, 2]]))


def test_matmul_and_matvec():
    gf = field(2)
    a = mat(gf, [[1, 1]])
    assert np.array_equal(linalg.matmul(gf, a, mat(gf, [[1], [1]])), [[0]])
    ident = linalg.identity(gf, 2)
    b = mat(gf, [[1, 0], [1, 1]])
    assert np.array_equal(linalg.matmul(gf, b, ident), b)
    v = np.array([1, 1], dtype=gf.dtype)
    assert np.array_equal(linalg.matvec(gf, b, v), [1, 0])
    with pytest.raises(DimensionMismatchError):
        linalg.matmul(gf, a, a)


def test_matmul_matches_scalar_definition():
    rng = np.random.default_rng(8)
    for q in (3, 4):
        gf = field(q)
        a = rng.integers(0, q, size=(3, 4)).astype(gf.dtype)
        b = rng.integers(0, q, size=(4, 2)).astype(gf.dtype)
        out = linalg.matmul(gf, a, b)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = gf.add(acc, gf.mul(int(a[i, k]), int(b[k, j])))
                assert out[i, j] == acc


def test_submatrix_columns():
    gf = field(2)
    m = mat(gf, [[1, 0, 1], [0, 1, 1]])
    assert linalg.submatrix_columns(m, []).shape == (2, 0)
    assert np.array_equal(linalg.submatrix_columns(m, [2, 0]), [[1, 1], [1, 0]])
    with pytest.raises(IndexError):
        linalg.submatrix_columns(m, [3])


def test_rank_profile_matches_prefix_ranks():
    rng = np.random.default_rng(33)
    for q in (2, 3, 9):
        gf = field(q)
        m = rng.integers(0, q, size=(8, 6)).astype(gf.dtype)
        profile = linalg.rank_profile(gf, m)
        for i in range(8):
            assert profile[i] == linalg.rank(gf, m[: i + 1])


def _independent_sets_bruteforce(gf, m):
    ncols = m.shape[1]
    return {sum(1 << c for c in cols)
            for size in range(ncols + 1)
            for cols in itertools.combinations(range(ncols), size)
            if linalg.rank(gf, m[:, list(cols)]) == size}


def _check_independent_sets(gf, m):
    out = linalg.independent_column_sets(gf, m)
    assert 0 in out
    assert len(out) == len(set(out))   # no face listed twice
    assert set(out) == _independent_sets_bruteforce(gf, m)


def test_independent_column_sets_vs_bruteforce():
    rng = np.random.default_rng(7)
    for q in (2, 3, 4, 8, 9):
        gf = field(q)
        for shape in [(3, 6), (5, 4), (2, 7)]:   # (5, 4): more rows than columns
            for _ in range(4):
                m = rng.integers(0, q, size=shape).astype(gf.dtype)
                _check_independent_sets(gf, m)
                zero_col = m.copy()
                zero_col[:, 1] = 0
                _check_independent_sets(gf, zero_col)
                repeated = m.copy()
                repeated[:, -1] = repeated[:, 0]
                _check_independent_sets(gf, repeated)


def test_independent_column_sets_zero_rows():
    gf = field(3)
    assert linalg.independent_column_sets(gf, linalg.zeros(gf, 0, 5)) == [0]


def test_independent_column_sets_zero_columns():
    gf = field(3)
    assert linalg.independent_column_sets(gf, linalg.zeros(gf, 4, 0)) == [0]
    assert linalg.independent_column_sets(gf, linalg.zeros(gf, 0, 0)) == [0]


def test_independent_column_sets_wider_than_a_machine_word():
    gf = field(3)
    m = linalg.zeros(gf, 1, 70)
    m[0, 3], m[0, 69] = 1, 2       # two parallel columns
    assert sorted(linalg.independent_column_sets(gf, m)) == [0, 1 << 3, 1 << 69]

