"""Supports, shortening, weight hierarchies, minimal subcodes, MDS."""

import itertools
import tracemalloc

import numpy as np
import pytest

import rmbetti as rb
from rmbetti import (CrossCheckError, ParameterError, TooLargeError, cli, codes,
                     field, linalg, rm)
from rmbetti.bits import popcount_table, subset_sum_accumulate

from oracles import (code_from_rows, enumerate_codewords, gaussian_binomial,
                     ghw_by_subspaces, is_i_minimal, min_weight_enumerated,
                     min_weight_poly, minimal_codeword_supports, rref_generators)

# the block sizes the face walk is checked at: one face per block, and the default
BLOCK_SIZES = (1, linalg.BLOCK_BYTES)


@pytest.fixture(scope="module")
def even_weight():
    return rb.build_code(2, 1, 2)  # [4, 3, 2]


def test_weight_and_support():
    assert rb.weight(np.zeros(5, dtype=np.uint8)) == 0
    assert rb.support(np.zeros(5, dtype=np.uint8)) == ()
    ones = np.ones(9, dtype=np.uint8)
    assert rb.weight(ones) == 9
    word = min_weight_poly(3, 2, 2).evaluate()
    assert rb.weight(word) == 3


def test_linear_code_generator_entries_are_field_elements():
    for q in (2, 3, 4):
        gf = field(q)
        code = rb.LinearCode(gf, [[1, q - 1, 0], [0, 1, 1]])
        assert (code.k, code.n, code.H.shape) == (2, 3, (1, 3))
        assert not np.any(linalg.matmul(gf, code.G, code.H.T))
        for bad in ([[1, q, 1]], [[1, -1, 1]], np.array([[1, 300, 1]]), [[1, 2 ** 70, 1]],
                    [[1, 0.5, 1]], np.ones((1, 3)), np.array([[1, 0.5, 1]], dtype=object),
                    np.array([[True, False, True]])):
            with pytest.raises(ParameterError, match=f"integers in 0..{q - 1}"):
                rb.LinearCode(gf, bad)


def test_linear_code_validation_and_contains(even_weight):
    gf = field(2)
    with pytest.raises(ParameterError):
        rb.LinearCode(gf, np.array([[1, 1], [1, 1]], dtype=gf.dtype))
    assert even_weight.contains(np.array([1, 1, 0, 0], dtype=gf.dtype))
    assert not even_weight.contains(np.array([1, 0, 0, 0], dtype=gf.dtype))
    assert even_weight.contains(np.array([1, 1, 0, 0], dtype=np.uint64))
    # a float, string or bool entry is refused as the constructor refuses it,
    # never read as a field element
    for bad in (np.array([1.7, 1, 0, 0]), np.array([0.5, 0, 0, 0]), [1.0, 1.0, 0.0, 0.0],
                np.array(["1", "1", "0", "0"]), np.array([1.7, 1, 0, 0], dtype=object),
                [True, False, True, False]):
        with pytest.raises(ParameterError, match="integers in 0..1"):
            even_weight.contains(bad)
    derived = code_from_rows(gf, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    assert derived.k == 2
    # entries outside 0..q-1 are refused, never read modulo p or wrapped
    for q in (3, 4):
        code = rb.build_code(q, 1, 2)
        word = min_weight_poly(q, 1, 2).evaluate().astype(np.int64)
        assert code.contains(word)
        for bad in (np.where(word == 0, q, word), np.where(word == 0, -3, word),
                    [-3] + word.tolist()[1:]):
            with pytest.raises(ParameterError):
                code.contains(bad)


def test_shortened_dim_examples(even_weight):
    assert rb.shortened_dim(even_weight, []) == 0
    assert rb.shortened_dim(even_weight, range(4)) == even_weight.k
    assert rb.shortened_dim(even_weight, [0, 1]) == 1
    assert rb.shortened_dim(even_weight, np.arange(4)) == even_weight.k
    # out of range, or not an integer: int() would truncate 1.9 to 1, and a
    # bool would read as coordinate 0 or 1
    code = rb.build_code(2, 1, 3)
    for coords in ([8], [-1], [0.5, 1.9, 2.2, 3.7], [True, 1.5, 2, 3], [0, 1, 2, 3.0],
                   [False], ["1"], [np.float64(2)]):
        for kernel in (rb.shortened_dim, rb.shortened_basis):
            with pytest.raises(ParameterError):
                kernel(code, coords)


def test_shortened_basis_examples(even_weight):
    assert rb.shortened_basis(even_weight, []).shape == (0, 4)
    full = rb.shortened_basis(even_weight, range(4))
    assert linalg.row_space_equal(even_weight.gf, full, even_weight.G)
    pair = rb.shortened_basis(even_weight, [0, 1])
    assert pair.shape == (1, 4)
    assert np.array_equal(pair[0], [1, 1, 0, 0])


def test_shortened_dim_matches_direct_enumeration():
    rng = np.random.default_rng(41)
    for (q, r, m) in [(2, 1, 2), (3, 1, 2), (2, 1, 3)]:
        code = rb.build_code(q, r, m)
        words = enumerate_codewords(code)
        for _ in range(10):
            size = int(rng.integers(0, code.n + 1))
            sigma = sorted(rng.permutation(code.n)[:size].tolist())
            inside = sum(1 for w in words
                         if set(rb.support(w)) <= set(sigma))
            assert q ** rb.shortened_dim(code, sigma) == inside


def test_nullity_table_vs_direct():
    rng = np.random.default_rng(9)
    for q in (2, 3):
        gf = field(q)
        code = code_from_rows(gf, rng.integers(0, q, size=(4, 7)).astype(gf.dtype))
        nullity = code.nullity_table()
        for mask in range(1 << 7):
            cols = [i for i in range(7) if mask >> i & 1]
            assert nullity[mask] == len(cols) - linalg.rank(gf, code.H[:, cols])


@pytest.mark.parametrize("q,r", [(16, 7), (17, 8), (19, 9)])
def test_nullity_table_uniform_on_mds(q, r):
    # m = 1 codes are MDS, so H has a uniform matroid: every n - k columns
    # are independent.  These are the largest face counts any RM code
    # reaches inside the n <= 20 table guard.
    built = rb.build_code(q, r, 1)
    code = rb.LinearCode(built.gf, built.G)  # cold cache
    n, k = code.n, code.k
    masks = np.arange(1 << n)
    popcount = sum((masks >> i) & 1 for i in range(n))
    expected = np.maximum(0, popcount - (n - k))
    assert np.array_equal(code.nullity_table(), expected)


def _kernel_cases():
    """Codes for the counting-versus-walk oracle, each one the counting rule
    admits: random codes over every field kind up to GF(9) with n <= 12,
    each also with a zero column; the k = 0 and k = n codes; and every row
    of the (q, m) families the purity sweep covers."""
    out = []
    rng = np.random.default_rng(41)
    for q in (2, 3, 4, 5, 7, 8, 9):
        gf = field(q)
        for n in (1, 6, 12):
            out += [rb.LinearCode(gf, np.zeros((0, n), gf.dtype)),
                    rb.LinearCode(gf, np.eye(n, dtype=gf.dtype))]
        for _ in range(10):
            n = int(rng.integers(2, 13))
            g = rng.integers(0, q, size=(int(rng.integers(1, n + 1)), n))
            zero_col = g.copy()
            zero_col[:, int(rng.integers(0, n))] = 0
            out += [code_from_rows(gf, x) for x in (g, zero_col)]
    out += [rb.build_code(q, r, m) for (q, m) in [(2, 3), (2, 4), (3, 2), (4, 2)]
            for r in range(m * (q - 1) + 1)]
    return [code for code in out if codes._counting_admits(code)]


def test_counting_table_equals_walk_table(monkeypatch):
    cases = _kernel_cases()
    assert {2 * c.k > c.n for c in cases} == {True, False}  # both spans enumerated
    assert {c.k for c in cases} >= {0, 12}
    assert any(not c.G.any(axis=0).all() for c in cases if c.k)
    for code in cases:
        counted = codes._nullity_by_counting(code)
        # one face per block only up to n = 11: a few thousand faces at most
        for block_bytes in BLOCK_SIZES[code.n > 11:]:
            monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
            walked = codes._nullity_by_walk(code)
            assert np.array_equal(counted, walked), (code, block_bytes)


def test_counting_refuses_a_count_that_is_not_a_power_of_q(monkeypatch, capsys):
    def corrupted(values, n):
        subset_sum_accumulate(values, n)
        values[0b101] += 1

    monkeypatch.setattr(codes, "subset_sum_accumulate", corrupted)
    built = rb.build_code(3, 2, 2)
    code = rb.LinearCode(built.gf, built.G)  # cold cache
    with pytest.raises(CrossCheckError, match="inside mask 0x5,"):
        code.nullity_table()
    assert code._nullity is None
    rm.build_code.cache_clear()  # the CLI builds its code cold
    assert cli.main(["betti", "--q", "3", "--m", "2", "--r", "2", "--no-timing"]) == 5
    assert "mask 0x5" in capsys.readouterr().err


def test_nullity_table_refuses_n_21_before_enumerating(monkeypatch):
    """The rule admits the [21, 1] repetition code, but n > MAX_TABLE_N is
    refused before a word is enumerated or the 2^21 counts exist."""
    def unreachable(*args):
        raise AssertionError("enumerated past the length guard")

    monkeypatch.setattr(codes, "_span", unreachable)
    gf = field(2)
    code = rb.LinearCode(gf, np.ones((1, 21), dtype=gf.dtype))
    assert codes._counting_admits(code)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="n <= 20, n = 21"):
            code.nullity_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_counting_working_set():
    """At the rule's edge, 4^10 = 2^20 words of a [20, 10] code over GF(4),
    the kernel holds the 20 MiB span, its 8 MiB of masks and one bool column
    at once; a span grown by stacking copies would peak at 40 MiB."""
    gf = field(4)
    rng = np.random.default_rng(43)
    tail = rng.integers(0, 4, size=(10, 10)).astype(gf.dtype)
    code = rb.LinearCode(gf, np.hstack([np.eye(10, dtype=gf.dtype), tail]))
    assert codes._counting_admits(code) and 4 ** code.k == 1 << code.n
    tracemalloc.start()
    try:
        nullity = code.nullity_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    assert nullity[(1 << 20) - 1] == 10 and nullity[(1 << 10) - 1] == 0


def test_min_weight_bruteforce_examples():
    assert rb.min_weight_bruteforce(rb.build_code(3, 2, 2)) == 3
    assert rb.min_weight_bruteforce(rb.build_code(2, 2, 4)) == 4
    for (q, m) in [(2, 3), (3, 2)]:
        assert rb.min_weight_bruteforce(rb.build_code(q, 0, m)) == q ** m
    with pytest.raises(TooLargeError):
        rb.min_weight_bruteforce(rb.build_code(2, 2, 4), max_enum=100)


def _random_full_rank(rng, gf, k, n):
    while True:
        g = rng.integers(0, gf.q, size=(k, n))
        if linalg.rank(gf, g.astype(gf.dtype)) == k:
            return g


def test_min_weight_bruteforce_matches_the_plain_scan():
    """Random codes of every odd and even k <= 6 that the scalar scan can
    afford, plus k = 1, k = n (weight 1) and an all-zero column."""
    rng = np.random.default_rng(14)
    for q in (2, 3, 4, 5, 7, 8, 9):
        gf = field(q)
        for k in range(1, 7):
            if q ** k > 10000:
                break
            for _ in range(2):
                g = _random_full_rank(rng, gf, k, int(rng.integers(k, k + 7)))
                code = rb.LinearCode(gf, g)
                assert rb.min_weight_bruteforce(code) == min_weight_enumerated(gf, g), (q, g)
        identity = np.eye(3, dtype=np.int64)
        assert rb.min_weight_bruteforce(rb.LinearCode(gf, identity)) == 1
        g = np.insert(_random_full_rank(rng, gf, 3, 6), 4, 0, axis=1)
        code = rb.LinearCode(gf, g)
        assert rb.min_weight_bruteforce(code) == min_weight_enumerated(gf, g) <= 6, (q, g)


@pytest.mark.parametrize("q", (2, 3, 4, 8, 9, 16, 512))
def test_min_weight_bruteforce_bit_planes_cross_word_boundaries(q):
    """The packed kernel against the plain scan at lengths around the
    64-coordinate word: k = 1 (B empty) up to k = 3, or 4 for q <= 4, with
    q^k <= 10000; each code once as drawn and once with its last column,
    the lone coordinate of the last word at n = 65 and 129, zeroed.  GF(512)
    has uint16 elements and nine planes."""
    rng = np.random.default_rng(q)
    gf = field(q)
    top = 4 if q <= 4 else 3
    for n in (63, 64, 65, 129):
        for k in range(1, top + 1):
            if q ** k > 10000:
                break
            g = _random_full_rank(rng, gf, k, n)
            zero_last = np.insert(_random_full_rank(rng, gf, k, n - 1), n - 1, 0, axis=1)
            for rows in (g, zero_last):
                code = rb.LinearCode(gf, rows)
                assert rb.min_weight_bruteforce(code) == min_weight_enumerated(gf, rows), \
                    (q, n, k, rows)


def test_min_weight_bruteforce_working_set():
    """A refusal allocates no span.  Within the guard the two half-spans
    are 729 and 81 words of n = 6561 bytes, and the kernel peaks at about
    12.6 MB; enumerating the span of the first k - 1 generators and scanning
    its q - 1 cosets by table lookups peaks at about 123 MB on this code."""
    code = rb.build_code(9, 1, 4)  # [6561, 5, 5832]
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match=r"q\^k = 59049 exceeds"):
            rb.min_weight_bruteforce(code, max_enum=9 ** 5 - 1)
        refused = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert rb.min_weight_bruteforce(code) == 5832
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused < 2 ** 20 and peak < 32 * 2 ** 20, (refused, peak)


def test_enumerate_codewords_complete_and_distinct():
    code = rb.build_code(3, 1, 2)
    words = enumerate_codewords(code)
    assert words.shape == (27, 9)
    assert len({tuple(w) for w in words}) == 27
    assert all(code.contains(w) for w in words)


def test_ghw_profiles_examples():
    assert rb.ghw_profile(rb.build_code(2, 1, 2)) == (2, 3, 4)
    assert rb.ghw_profile(rb.build_code(2, 1, 3)) == (4, 6, 7, 8)
    mds = rb.build_code(3, 3, 2)  # [9, 8, 2]
    profile = rb.ghw_profile(mds)
    assert profile == tuple(mds.n - mds.k + i for i in range(1, mds.k + 1))


def test_ghw_validation_and_strictly_increasing():
    code = rb.build_code(3, 2, 2)
    with pytest.raises(ParameterError):
        rb.ghw(code, 0)
    with pytest.raises(ParameterError):
        rb.ghw(code, code.k + 1)
    for i in (True, 1.5, 2.0, "1"):
        with pytest.raises(ParameterError):
            rb.ghw(code, i)
    assert rb.ghw(code, np.int64(1)) == rb.ghw(code, 1)
    profile = rb.ghw_profile(code)
    assert all(a < b for a, b in zip(profile, profile[1:]))
    assert profile[-1] == code.n  # nondegenerate
    assert profile[0] == rb.min_weight_bruteforce(code)


def _walk_cases():
    """RM codes and random codes of length <= 20, each random one also with
    a zero column and with its first column copied into the last."""
    out = [rb.build_code(q, r, m) for (q, r, m) in
           [(2, 1, 3), (2, 2, 4), (3, 2, 2), (4, 3, 2), (5, 2, 1), (7, 3, 1)]]
    rng = np.random.default_rng(19)
    for q in (2, 3, 4, 5, 9):
        gf = field(q)
        for _ in range(6):
            n = int(rng.integers(2, 11))
            g = rng.integers(0, q, size=(int(rng.integers(1, n + 1)), n))
            zero_col, copied = g.copy(), g.copy()
            zero_col[:, int(rng.integers(0, n))] = 0
            copied[:, -1] = copied[:, 0]
            out += [code_from_rows(gf, x) for x in (g, zero_col, copied)]
    return [code for code in out if code.k]


def test_ghw_level_walk_agrees_with_table(monkeypatch):
    for code in _walk_cases():
        assert code.n <= codes.MAX_TABLE_N
        sizes, nullity = popcount_table(code.n), code.nullity_table()
        table = tuple(int(sizes[nullity >= i].min()) for i in range(1, code.k + 1))
        # one face per block only up to n = 11, as in the table test above
        for block_bytes in BLOCK_SIZES[code.n > 11:]:
            monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
            walked = codes._ghw_by_walk(code, code.k)
            assert all(codes._ghw_by_walk(code, i) == walked[:i] for i in range(1, code.k))
            assert walked == table, (code, block_bytes)
        assert rb.ghw_profile(code) == table, code
        assert all(rb.ghw(code, i) == table[i - 1] for i in range(1, code.k + 1))


@pytest.mark.parametrize("q,m", [(2, 3), (2, 4), (3, 2), (4, 2)])
def test_ghw_table_readout_is_the_definition_on_every_row(q, m):
    """d_i = min{|W| : nullity(W) >= i}, scanned per i, on every r."""
    for r in range(m * (q - 1) + 1):
        code = rb.build_code(q, r, m)
        sizes, nullity = popcount_table(code.n), code.nullity_table()
        expected = tuple(int(sizes[nullity >= i].min()) for i in range(1, code.k + 1))
        assert rb.ghw_profile(code) == expected, (q, m, r)
        assert all(codes._ghw_prefix(code, i) == expected[:i]
                   for i in range(1, code.k + 1)), (q, m, r)


def test_ghw_profile_walks_the_faces_once(monkeypatch):
    calls = []

    def counted(gf, mat):
        calls.append(mat.shape)
        return face_levels(gf, mat)

    face_levels = linalg.face_levels
    monkeypatch.setattr(linalg, "face_levels", counted)
    code = rb.build_code(5, 6, 2)                   # n = 25, k = 22
    # Wei duality: the dual [25, 3, 20] code has d_j = 20, 24, 25, so the
    # profile is 1..25 without 26 - d_j = 6, 2, 1
    assert rb.ghw_profile(code) == (3, 4, 5) + tuple(range(7, 26))
    assert len(calls) == 1


def test_ghw_walk_stops_inside_the_deciding_level(monkeypatch):
    blocks = []

    def recorded(gf, mat):
        for size, faces, span in face_levels(gf, mat):
            blocks.append((size, faces.size))
            yield size, faces, span

    face_levels = linalg.face_levels
    code = rb.build_code(5, 4, 2)                   # n = 25, d_1 = 5: face level 4
    level = sum(faces.size for size, faces, _ in itertools.takewhile(
        lambda block: block[0] <= 4, face_levels(code.gf, code.H)) if size == 4)
    monkeypatch.setattr(linalg, "face_levels", recorded)
    assert rb.ghw(code, 1) == 5
    # levels 0..3 in full, then exactly one block of level 4 and no more
    assert [size for size, _ in blocks].count(4) == 1
    assert blocks[-1][0] == 4 and blocks[-1][1] < level


def test_ghw_profile_at_n_25_is_the_same_in_every_block_size(monkeypatch):
    code = rb.build_code(5, 5, 2)                   # n = 25, k = 19
    # Wei duality: the profile leaves out 1, 2, 3, 6, 7 and 11, so the dual
    # RM_5(2, 2) has d_1 = 26 - 11 = 15, its distance formula, as d_1 = 4 is
    # the formula of RM_5(5, 2)
    expected = (4, 5, 8, 9, 10) + tuple(range(12, 26))
    assert expected[0] == rb.min_distance_formula(5, 5, 2)
    assert 26 - max(set(range(1, 26)) - set(expected)) == rb.min_distance_formula(5, 2, 2)
    # the whole walk passes 200,226 faces, so one face per block walks
    # only as far as d_2, inside level 3; 1 KiB blocks hold a few dozen
    for block_bytes, top in ((linalg.BLOCK_BYTES, code.k), (1 << 10, code.k), (1, 2)):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
        assert codes._ghw_by_walk(code, top) == expected[:top], block_bytes


@pytest.mark.parametrize("r", range(4, 9))
def test_ghw_past_the_table_is_the_distance_formula(r):
    code = rb.build_code(5, r, 2)                   # n = 25
    assert rb.ghw(code, 1) == rb.min_distance_formula(5, r, 2)


def test_ghw_past_the_table_by_wei_duality():
    # {d_i(C)} and {n + 1 - d_j(C^perp)} split 1..n (Wei 1991), and the
    # dual of a high-rate code is small enough for the subspace oracle
    rng = np.random.default_rng(29)
    for n in range(21, 26):
        q = 2 if n % 2 else 3
        gf = field(q)
        g = rng.integers(0, q, size=(n - 4, n))
        if n == 24:
            g[:, 5] = 0
            g[:, -1] = g[:, 0]
        code = code_from_rows(gf, g)
        dual = rb.LinearCode(gf, code.H)
        profile = rb.ghw_profile(code)
        dual_profile = [ghw_by_subspaces(dual, j) for j in range(1, dual.k + 1)]
        assert sorted(profile + tuple(n + 1 - d for d in dual_profile)) == list(range(1, n + 1))


def test_ghw_past_the_table_respects_the_level_limit(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_LEVEL_BYTES", 1000)
    with pytest.raises(TooLargeError, match="face level"):
        rb.ghw(rb.build_code(5, 4, 2), 1)


def test_gaussian_binomial_and_rref_generators():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 0, 5) == 1
    gf = field(3)
    mats = list(rref_generators(gf, 2, 3))
    assert len(mats) == gaussian_binomial(3, 2, 3)
    canon = {tuple(map(tuple, m)) for m in mats}
    assert len(canon) == len(mats)
    for m in mats:
        assert linalg.rank(gf, m) == 2


def test_ghw_by_subspaces_matches_subset_search():
    rng = np.random.default_rng(11)
    for q in (2, 3):
        gf = field(q)
        for _ in range(8):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(4, 11))
            code = code_from_rows(
                gf, rng.integers(0, q, size=(rows, cols)).astype(gf.dtype))
            if code.k == 0 or code.k > 4:
                continue
            for i in range(1, code.k + 1):
                assert rb.ghw(code, i) == ghw_by_subspaces(code, i)


def test_is_i_minimal_dimension_one(even_weight):
    word = min_weight_poly(3, 2, 2).evaluate()
    code = rb.build_code(3, 2, 2)
    assert is_i_minimal(code, word[None, :])
    # full-support word of the even-weight code is not 1-minimal
    ones = np.ones(4, dtype=np.uint8)
    assert not is_i_minimal(even_weight, ones[None, :])


def test_is_i_minimal_higher_dimension(even_weight):
    gf = even_weight.gf
    # support {0,1,2} carries a 2-dimensional shortened code: minimal
    two_dim = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=gf.dtype)
    assert is_i_minimal(even_weight, two_dim)
    # full-support pair sits inside a 3-dimensional shortened code: not minimal
    full = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=gf.dtype)
    assert not is_i_minimal(even_weight, full)
    # k-dimensional subcode of a nondegenerate code is the unique one
    assert is_i_minimal(even_weight, np.array(even_weight.G))
    with pytest.raises(ParameterError):
        is_i_minimal(even_weight, np.array([[1, 0, 0, 0]], dtype=gf.dtype))


def test_is_i_minimal_agrees_with_nullity_shortcut():
    # enumeration route must agree with "shortened dimension equals i"
    code = rb.build_code(3, 1, 2)
    words = enumerate_codewords(code)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(40):
        pick = rng.integers(0, len(words), size=2)
        pair = words[pick]
        if linalg.rank(code.gf, pair) != 2:
            continue
        sigma = rb.support(pair.any(axis=0).astype(code.gf.dtype))
        expected = rb.shortened_dim(code, sigma) == 2
        assert is_i_minimal(code, pair) == expected
        checked += 1
    assert checked > 5


def test_shrink_to_one_minimal_properties():
    code = rb.build_code(3, 2, 2)
    word = min_weight_poly(3, 2, 2).evaluate()
    shrunk, support_dim, dim = rb.shrink_to_one_minimal(code, word)
    assert rb.support(shrunk) == rb.support(word)
    assert rb.shortened_dim(code, rb.support(shrunk)) == 1 == support_dim == dim

    other = min_weight_poly(3, 2, 2, pinned=[1]).evaluate()
    assert not set(rb.support(word)) & set(rb.support(other))
    combined = code.gf.add(word, other)
    shrunk2, support_dim, dim = rb.shrink_to_one_minimal(code, combined)
    assert support_dim == rb.shortened_dim(code, rb.support(combined)) > 1
    assert dim == rb.shortened_dim(code, rb.support(shrunk2)) == 1
    s2 = set(rb.support(shrunk2))
    assert s2 <= set(rb.support(word)) or s2 <= set(rb.support(other))
    assert is_i_minimal(code, shrunk2[None, :])

    with pytest.raises(ParameterError):
        rb.shrink_to_one_minimal(code, np.zeros(code.n, dtype=code.gf.dtype))
    with pytest.raises(ParameterError):
        rb.shrink_to_one_minimal(code, np.eye(code.n, dtype=code.gf.dtype)[0])


def test_shrink_that_ends_above_a_line_is_a_cross_check_error(monkeypatch):
    """A raise, not an assert, so that python -O keeps it."""
    code = rb.build_code(3, 2, 2)
    word = min_weight_poly(3, 2, 2).evaluate()
    basis = codes.shortened_basis
    monkeypatch.setattr(codes, "shortened_basis",
                        lambda c, sigma: np.vstack([basis(c, sigma)] * 2))
    with pytest.raises(CrossCheckError, match="shortened dimension 2, not 1"):
        rb.shrink_to_one_minimal(code, word)


def test_shrink_is_deterministic():
    code = rb.build_code(2, 2, 3)
    ones = np.ones(code.n, dtype=code.gf.dtype)
    assert code.contains(ones)
    a = rb.shrink_to_one_minimal(code, ones)[0]
    b = rb.shrink_to_one_minimal(code, ones)[0]
    assert np.array_equal(a, b)


def test_mds_and_nondegeneracy():
    assert rb.is_mds(rb.build_code(3, 0, 2))
    assert not rb.is_mds(rb.build_code(2, 1, 3))  # d = 4 != 8 - 4 + 1
    assert rb.is_mds(rb.build_code(3, 3, 2))
    for (q, r, m) in [(2, 1, 2), (3, 2, 2), (4, 4, 2), (2, 4, 4)]:
        assert rb.build_code(q, r, m).G.any(axis=0).all()  # no zero coordinate


def test_minimum_distance_falls_back_to_support_search():
    code = rb.build_code(4, 4, 2)  # q^k = 4^13 too large to enumerate
    assert rb.minimum_distance(code, max_enum=1000) == 3
    with pytest.raises(TooLargeError):  # n = 27 is past the face walk
        rb.minimum_distance(rb.build_code(3, 2, 3), max_enum=1000)


def test_minimal_codeword_supports_match_low_weight_words(even_weight):
    supports = minimal_codeword_supports(even_weight)
    assert supports == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
