"""Exact row reduction, null spaces, and independent column sets."""

import itertools

import numpy as np
import pytest

from rmbetti import DimensionMismatchError, field
from rmbetti import linalg
from rmbetti.rm import _monomial_row, monomial_basis, point_order

from oracles import rank_profile, rref_scalar

ORACLE_FIELDS = (2, 3, 4, 5, 7, 8, 9, 257)   # GF(257): a uint16 prime field


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


def _assert_rref_matches_oracle(gf, m):
    r, rk, piv = linalg.rref(gf, m)
    r0, rk0, piv0 = rref_scalar(gf, m)
    assert r.dtype == r0.dtype == gf.dtype and r.shape == r0.shape
    assert r.tobytes() == r0.tobytes() and rk == rk0 and piv == piv0


def test_rref_matches_scalar_oracle():
    rng = np.random.default_rng(61)
    for q in ORACLE_FIELDS:
        gf = field(q)
        for shape in [(0, 5), (4, 0), (0, 0), (9, 4), (3, 10), (6, 6)]:
            for _ in range(3):
                m = rng.integers(0, q, size=shape).astype(gf.dtype)
                _assert_rref_matches_oracle(gf, m)
                if shape[0] > 2 and shape[1] > 2:   # rank deficient
                    m[1] = m[0]
                    m[-1] = gf.mul(2 % q, m[2])
                    m[:, 1] = 0
                    _assert_rref_matches_oracle(gf, m)
                    sparse = m * (rng.random(shape) < 0.3)
                    _assert_rref_matches_oracle(gf, sparse.astype(gf.dtype))


@pytest.mark.parametrize("q,r,m", [(2, 2, 4), (3, 3, 2), (4, 3, 2), (5, 4, 2),
                                   (8, 6, 2), (9, 5, 2)])
def test_rref_matches_scalar_oracle_on_evaluation_matrices(q, r, m):
    gf = field(q)
    order = point_order(q, m)
    g = np.stack([_monomial_row(gf, order, e) for e in monomial_basis(q, r, m)])
    _assert_rref_matches_oracle(gf, g)


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
    assert linalg.row_space_equal(gf, a, a.copy())
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


def _scalar_dot(gf, row, col):
    acc = 0
    for x, y in zip(row, col):
        acc = gf.add(acc, gf.mul(int(x), int(y)))
    return acc


def test_matmul_matches_scalar_definition():
    rng = np.random.default_rng(8)
    for q in ORACLE_FIELDS:
        gf = field(q)
        for inner in (4, 0):
            a = rng.integers(0, q, size=(3, inner)).astype(gf.dtype)
            b = rng.integers(0, q, size=(inner, 2)).astype(gf.dtype)
            out = linalg.matmul(gf, a, b)
            assert out.dtype == gf.dtype and out.shape == (3, 2)
            for i in range(3):
                for j in range(2):
                    assert out[i, j] == _scalar_dot(gf, a[i], b[:, j])
            v = rng.integers(0, q, size=inner).astype(gf.dtype)
            w = linalg.matvec(gf, a, v)
            assert w.dtype == gf.dtype
            assert w.tolist() == [_scalar_dot(gf, a[i], v) for i in range(3)]
        # entries near q - 1 with a long inner dimension: the largest sums
        a = np.full((2, 300), q - 1, dtype=gf.dtype)
        assert linalg.matmul(gf, a, a.T).tolist() == [[_scalar_dot(gf, a[0], a[0])] * 2] * 2


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
        profile = rank_profile(gf, m)
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

