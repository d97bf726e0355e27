"""Exact row reduction, null spaces, products and the face walk."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from rmbetti import ParameterError, TooLargeError, field
from rmbetti import linalg
from rmbetti.rm import monomial_basis

from oracles import (matmul_tables, monomial_row, null_space_scalar, rank_profile,
                     rref_scalar)

ORACLE_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 27, 257)   # GF(257): a uint16 prime field
# the lane-word boundaries of rref's packing: GF(127) fills a uint8 word with
# one 8-bit lane, GF(128) and GF(243) take 14 and 15 bits, GF(625) fills a
# uint16 word, GF(729) and GF(1024) take uint32 words
LANE_FIELDS = (127, 128, 243, 625, 729, 1024)
# GF(1021): the largest prime the table guard admits; GF(1024): the longest
# coefficient vectors (e = 10)
PRODUCT_FIELDS = ORACLE_FIELDS + (1021, 1024)


def mat(gf, rows):
    return np.array(rows, dtype=gf.dtype)


def test_rref_identity_and_zero():
    gf = field(3)
    r, rk, piv = linalg.rref(gf, np.eye(2, dtype=gf.dtype))
    assert rk == 2 and piv == [0, 1]
    r, rk, piv = linalg.rref(gf, np.zeros((3, 4), gf.dtype))
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
    """rref, rank and null_space against rref_scalar; m is left unchanged."""
    before = m.copy()
    r, rk, piv = linalg.rref(gf, m)
    r0, rk0, piv0 = rref_scalar(gf, m)
    assert r.dtype == r0.dtype == gf.dtype and r.shape == r0.shape
    assert r.tobytes() == r0.tobytes() and rk == rk0 and piv == piv0
    assert linalg.rank(gf, m) == rk0
    free = sorted(set(range(m.shape[1])) - set(piv0))
    basis = linalg.null_space(gf, m)
    assert np.array_equal(basis[:, free], np.eye(len(free)))
    assert np.array_equal(basis[:, piv0], gf.neg(r0[:rk0, free].T))
    assert np.array_equal(m, before)


def test_rref_matches_scalar_oracle():
    """Includes shapes with more rows to update than q (the multiples are
    rows of negcode[:, pivot] in linalg._lanes) and fewer (one 2-d gather)."""
    rng = np.random.default_rng(61)
    for q in ORACLE_FIELDS + LANE_FIELDS:
        gf = field(q)
        for shape in [(0, 5), (4, 0), (0, 0), (9, 4), (3, 10), (6, 6), (40, 12),
                      (6, 30)]:
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


def test_rref_matches_scalar_oracle_on_unaligned_widths():
    """Widths 1..17 end inside a uint64 of 8, 4 or 2 packed elements, and
    the zero columns put pivots at unaligned columns, so updates start left
    of the pivot; GF(2^e) takes the XOR update."""
    rng = np.random.default_rng(25)
    for q in ORACLE_FIELDS + LANE_FIELDS:
        gf = field(q)
        for width in range(1, 18):
            for nrows in (5, 12):
                m = rng.integers(0, q, size=(nrows, width)).astype(gf.dtype)
                m[:, [c for c in (1, 3, 6, 9, 15) if c < width]] = 0
                m[-1] = m[0]                           # rank deficient
                _assert_rref_matches_oracle(gf, m)   # also: m unchanged, dtype gf.dtype


@pytest.mark.parametrize("q,bits,word", [(2, 2, np.uint8), (7, 4, np.uint8),
                                          (16, 8, np.uint8), (127, 8, np.uint8),
                                          (128, 14, np.uint16), (243, 15, np.uint16),
                                          (625, 16, np.uint16), (1021, 11, np.uint16),
                                          (729, 18, np.uint32), (1024, 20, np.uint32)])
def test_lane_tables(q, bits, word):
    gf = field(q)
    code, decode, negcode, shift, bias, ones = linalg._lanes(gf)
    assert linalg._lanes(gf)[0] is code                    # built once per field
    lane = shift + 1
    assert lane * gf.e == bits
    assert 2 ** (lane - 2) < gf.p <= 2 ** (lane - 1)        # the smallest L
    assert code.dtype == word and decode.size == 2 ** bits and decode.dtype == gf.dtype
    assert np.array_equal(decode[code], np.arange(q))
    neg = gf.neg(gf.mul(np.arange(q)[:, None], np.arange(q)[None, :]))
    assert np.array_equal(negcode, code[neg])
    # bias and ones fill every word of the uint64 that rref updates in
    all_ones = np.flatnonzero((gf.vectors == 1).all(axis=1))[0]
    spread = np.full(8 // code.itemsize, code[all_ones]).view(np.uint64)[0]
    assert ones.dtype == bias.dtype == np.uint64
    assert ones == spread and bias == (2 ** (lane - 1) - gf.p) * spread
    for t in (code, decode, negcode):
        assert not t.flags.writeable
    with pytest.raises(ValueError):
        code[0] = 1


@pytest.mark.parametrize("q,r,m", [(2, 2, 4), (3, 3, 2), (4, 3, 2), (5, 4, 2),
                                   (8, 6, 2), (9, 5, 2)])
def test_rref_matches_scalar_oracle_on_evaluation_matrices(q, r, m):
    gf = field(q)
    g = np.stack([monomial_row(gf, m, e) for e in monomial_basis(q, r, m)])
    _assert_rref_matches_oracle(gf, g)


def test_null_space_examples():
    gf = field(2)
    assert linalg.null_space(gf, np.eye(3, dtype=gf.dtype)).shape == (0, 3)
    # no constraints: 0 x 3 matrix has the full space as kernel
    empty = np.zeros((0, 3), gf.dtype)
    assert np.array_equal(linalg.null_space(gf, empty), np.eye(3, dtype=gf.dtype))
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
    with pytest.raises(ParameterError):
        linalg.row_space_equal(gf, a, mat(gf, [[1, 2]]))


def test_matmul_and_matvec():
    gf = field(2)
    a = mat(gf, [[1, 1]])
    assert np.array_equal(linalg.matmul(gf, a, mat(gf, [[1], [1]])), [[0]])
    ident = np.eye(2, dtype=gf.dtype)
    b = mat(gf, [[1, 0], [1, 1]])
    assert np.array_equal(linalg.matmul(gf, b, ident), b)
    v = np.array([1, 1], dtype=gf.dtype)
    assert np.array_equal(linalg.matvec(gf, b, v), [1, 0])
    with pytest.raises(ParameterError):
        linalg.matmul(gf, a, a)


# 2 x 2 arrays over GF(3) that hold something other than field elements: a
# float read as 1, entries past q - 1 or negative (which a uint8 cast wraps),
# a bool, object and string entries, and an integer past int64
NOT_ELEMENTS = ([[1.7, 2.0], [0, 1]], [[5, 1], [0, 1]], [[-1, 1], [0, 1]],
                [[257, 1], [0, 1]], np.array([[True, False], [False, True]]),
                np.array([[1, 2], [0, 1]], dtype=object), np.array([["1", "2"], ["0", "1"]]),
                [[2 ** 70, 1], [0, 1]], np.ones((2, 2)))


@pytest.mark.parametrize("entry", ["rref", "matmul_left", "matmul_right", "matvec_matrix",
                                   "matvec_vector", "row_space_equal", "face_levels"])
def test_entry_points_refuse_what_is_not_a_field_element(entry):
    gf = field(3)
    ident = np.eye(2, dtype=gf.dtype)
    call = {
        "rref": lambda bad: linalg.rref(gf, bad),
        "matmul_left": lambda bad: linalg.matmul(gf, bad, ident),
        "matmul_right": lambda bad: linalg.matmul(gf, ident, bad),
        "matvec_matrix": lambda bad: linalg.matvec(gf, bad, ident[0]),
        "matvec_vector": lambda bad: linalg.matvec(gf, ident, np.asarray(bad)[0]),
        # the same array twice: refused before the array_equal shortcut
        "row_space_equal": lambda bad: linalg.row_space_equal(gf, bad, bad),
        "face_levels": lambda bad: next(linalg.face_levels(gf, bad)),
    }[entry]
    for bad in NOT_ELEMENTS:
        with pytest.raises(ParameterError, match=r"^entries must be integers in 0\.\.2$"):
            call(bad)
    # integer arrays of any integer dtype with entries in range pass
    for good in ([[1, 2], [0, 1]], np.array([[1, 2], [0, 1]], np.int64),
                 np.array([[1, 2], [0, 1]], np.uint16)):
        call(good)


def _scalar_dot(gf, row, col):
    acc = 0
    for x, y in zip(row, col):
        acc = gf.add(acc, gf.mul(int(x), int(y)))
    return acc


def test_matmul_matches_scalar_definition():
    rng = np.random.default_rng(8)
    for q in PRODUCT_FIELDS:
        gf = field(q)
        for inner in (4, 0):
            a = rng.integers(0, q, size=(3, inner)).astype(gf.dtype)
            b = rng.integers(0, q, size=(inner, 2)).astype(gf.dtype)
            out = linalg.matmul(gf, a, b)
            assert out.dtype == gf.dtype and out.shape == (3, 2)
            for i in range(3):
                for j in range(2):
                    assert out[i, j] == _scalar_dot(gf, a[i], b[:, j])
            dense = rng.integers(1, q, size=inner)
            sparse = dense * (np.arange(inner) % 3 == 1)
            for v in (dense, sparse, np.zeros(inner)):
                v = v.astype(gf.dtype)
                w = linalg.matvec(gf, a, v)
                assert w.dtype == gf.dtype and w.shape == (3,)
                assert w.tolist() == [_scalar_dot(gf, a[i], v) for i in range(3)]
        # entries near q - 1 with a long inner dimension: the largest sums
        a = np.full((2, 300), q - 1, dtype=gf.dtype)
        assert linalg.matmul(gf, a, a.T).tolist() == [[_scalar_dot(gf, a[0], a[0])] * 2] * 2
    # matmul packs 53 // bits coefficient planes of a into one float, bits
    # being the bit length of n (p - 1)^2: GF(8) at n = 512 packs all three
    # planes (10 bits each); GF(1024) at n = 4096 and 8191 packs groups of
    # 4, 4 and 2 planes of 13 bits, and at 8191 every plane product of the
    # all-ones element fills its 13 bits
    for q, inner in ((8, 512), (1024, 4096), (1024, 8191)):
        gf = field(q)
        top = gf.fold(np.full(gf.e, gf.p - 1))
        a = rng.integers(0, q, size=(2, inner)).astype(gf.dtype)
        b = rng.integers(0, q, size=(inner, 2)).astype(gf.dtype)
        a[1], b[:, 1] = top, top
        out = linalg.matmul(gf, a, b)
        assert out.tolist() == [[_scalar_dot(gf, a[i], b[:, j]) for j in range(2)]
                                for i in range(2)]
    # GF(1021) with inner dimension 4096: the largest products a field admits
    gf = field(1021)
    a = np.full((2, 4096), gf.q - 1, dtype=gf.dtype)
    expected = 4096 * (gf.q - 1) ** 2 % gf.p
    assert linalg.matmul(gf, a, a.T).tolist() == [[expected] * 2] * 2
    assert linalg.matvec(gf, a, a[0]).tolist() == [expected] * 2


def test_rank_profile_matches_prefix_ranks():
    rng = np.random.default_rng(33)
    for q in (2, 3, 9):
        gf = field(q)
        m = rng.integers(0, q, size=(8, 6)).astype(gf.dtype)
        profile = rank_profile(gf, m)
        for i in range(8):
            assert profile[i] == linalg.rank(gf, m[: i + 1])


def _faces_bruteforce(gf, m):
    ncols = m.shape[1]
    return {sum(1 << c for c in cols)
            for size in range(ncols + 1)
            for cols in itertools.combinations(range(ncols), size)
            if linalg.rank(gf, m[:, list(cols)]) == size}


def _columns(mask):
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


# the block sizes the face walk is checked at: one face per block, and the default
BLOCK_SIZES = (1, linalg.BLOCK_BYTES)


def _joined_levels(gf, m):
    """The blocks of face_levels joined into one (faces, span) per size.  The
    blocks come in size order, none is empty, and at BLOCK_BYTES = 1 each
    holds exactly one face."""
    levels = []
    for size, faces, span in linalg.face_levels(gf, m):
        if size == len(levels):
            levels.append(([], []))
        assert size == len(levels) - 1
        assert faces.size >= 1
        assert faces.size == 1 or linalg.BLOCK_BYTES > 1
        levels[size][0].append(faces)
        levels[size][1].append(span)
    return [(np.concatenate(f), np.concatenate(s)) for f, s in levels]


def _check_face_levels(gf, m, monkeypatch):
    n = m.shape[1]
    runs = []
    for block_bytes in BLOCK_SIZES:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
        runs.append(_joined_levels(gf, m))
    levels = runs[0]
    for other in runs[1:]:                          # block boundaries change nothing
        assert [(f.tolist(), s.tolist()) for f, s in other] == \
            [(f.tolist(), s.tolist()) for f, s in levels]
    faces = np.concatenate([f for f, _ in levels])
    assert faces.dtype == np.int64
    assert len(set(faces.tolist())) == faces.size    # no face listed twice
    assert set(faces.tolist()) == _faces_bruteforce(gf, m)
    for size, (level, span) in enumerate(levels):
        assert all(int(f).bit_count() == size for f in level)
        # span: closure sizes of the faces that can still grow, in order
        growing = [int(f) for f in level if int(f).bit_length() < n]
        expected = [sum(linalg.rank(gf, m[:, [*cols, c]]) == size for c in range(n))
                    for cols in map(_columns, growing)]
        assert span.tolist() == expected
        if size:
            # in order of parent (the face less its last column), then column
            where = {int(f): i for i, f in enumerate(levels[size - 1][0])}
            keys = [(where[int(f) ^ 1 << int(f).bit_length() - 1], int(f).bit_length())
                    for f in level]
            assert keys == sorted(keys)


def test_face_levels_vs_bruteforce(monkeypatch):
    rng = np.random.default_rng(7)
    for q in (2, 3, 4, 8, 9, 256):               # GF(256): uint16 matrices
        gf = field(q)
        for shape in [(3, 6), (5, 4), (2, 7)]:   # (5, 4): more rows than columns
            for _ in range(4):
                m = rng.integers(0, q, size=shape).astype(gf.dtype)
                _check_face_levels(gf, m, monkeypatch)
                zero_col = m.copy()
                zero_col[:, 1] = 0
                _check_face_levels(gf, zero_col, monkeypatch)
                repeated = m.copy()
                repeated[:, -1] = repeated[:, 0]
                _check_face_levels(gf, repeated, monkeypatch)


def test_face_levels_zero_rows():
    gf = field(3)
    levels = [(f.tolist(), s.tolist())
              for _, f, s in linalg.face_levels(gf, np.zeros((0, 5), gf.dtype))]
    assert levels == [([0], [5])]      # every column is a loop


def test_face_levels_zero_columns():
    gf = field(3)
    for m in (np.zeros((4, 0), gf.dtype), np.zeros((0, 0), gf.dtype)):
        levels = [(f.tolist(), s.tolist()) for _, f, s in linalg.face_levels(gf, m)]
        assert levels == [([0], [])]   # the empty face cannot grow


def test_face_levels_refuse_63_columns():
    gf = field(3)
    with pytest.raises(TooLargeError, match="n = 63"):
        next(linalg.face_levels(gf, np.zeros((1, 63), gf.dtype)))
    assert len(list(linalg.face_levels(gf, np.zeros((1, 62), gf.dtype)))) == 1


def test_face_levels_refuse_a_level_above_the_byte_limit(monkeypatch):
    gf = field(2)
    m = np.eye(4, dtype=gf.dtype)
    # level 1: the three faces that can still grow carry 3 x 4 reduced matrices
    monkeypatch.setattr(linalg, "MAX_LEVEL_BYTES", 3 * 3 * 4 - 1)
    levels = linalg.face_levels(gf, m)
    assert next(levels)[1].tolist() == [0]
    with pytest.raises(TooLargeError, match="face level 1 needs 36 bytes .* limit 35"):
        next(levels)
    monkeypatch.setattr(linalg, "MAX_LEVEL_BYTES", 36)
    assert [f.size for _, f, _ in linalg.face_levels(gf, m)] == [1, 4, 6, 4, 1]


def test_a_refused_face_level_yields_none_of_its_blocks(monkeypatch):
    gf = field(256)
    m = np.random.default_rng(5).integers(0, 256, size=(4, 9)).astype(gf.dtype)
    levels = _joined_levels(gf, m)
    # the bytes of level 2: its faces that can still grow, 2 x 9 matrices each
    nbytes = sum(int(f).bit_length() < 9 for f in levels[2][0]) * 2 * 9 * m.itemsize
    monkeypatch.setattr(linalg, "MAX_LEVEL_BYTES", nbytes - 1)
    for block_bytes in BLOCK_SIZES:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
        blocks = []
        with pytest.raises(TooLargeError, match=f"face level 2 needs {nbytes} bytes"):
            for size, faces, _ in linalg.face_levels(gf, m):
                blocks.append((size, faces.size))
        # every block of levels 0 and 1, and none of level 2
        assert {size for size, _ in blocks} == {0, 1}
        assert sum(count for _, count in blocks) == levels[0][0].size + levels[1][0].size


def test_table_oracles_match_the_library():
    # the products and null spaces the reference routes of tests/oracles.py
    # are built on, against the packed kernels
    rng = np.random.default_rng(12)
    for q in PRODUCT_FIELDS:
        gf = field(q)
        for rows, inner, cols in ((3, 5, 4), (2, 0, 3), (6, 9, 7)):
            a = rng.integers(0, q, size=(rows, inner)).astype(gf.dtype)
            b = rng.integers(0, q, size=(inner, cols)).astype(gf.dtype)
            assert np.array_equal(matmul_tables(gf, a, b), linalg.matmul(gf, a, b))
            a[-1] = a[0]
            assert np.array_equal(null_space_scalar(gf, a), linalg.null_space(gf, a))


def test_oracles_never_use_the_library_linear_algebra():
    """tests/oracles.py says it shares nothing with the library's linear
    algebra: it neither imports rmbetti.linalg nor names linalg."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    names = [getattr(node, key, None) for node in ast.walk(tree)
             for key in ("id", "attr", "name", "module")]
    assert [name for name in names if isinstance(name, str)
            and (name == "linalg" or name.startswith("rmbetti.linalg"))] == []
