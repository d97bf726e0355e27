"""Matroid complex, homology, Betti backends, purity, closed-form checks."""

import numpy as np
import pytest

import rmbetti as rb
from rmbetti import (CrossCheckError, ParameterError, TooLargeError, cli, codes,
                     field, linalg, rm, srres)
from rmbetti.bits import subset_sum_accumulate
from rmbetti.gf import is_prime

from oracles import (alternating_sum, betti_sweep_gf2, code_from_rows,
                     minimal_codeword_supports, proj_dim, reduced_homology_dense,
                     rref_scalar)


def test_even_weight_betti_table_against_independent_oracle():
    code = rb.build_code(2, 1, 2)
    oracle = betti_sweep_gf2([[int(x) for x in row] for row in code.H], code.n)
    assert oracle == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}
    assert rb.betti_fastpath(code).entries == oracle
    assert rb.betti_hochster(code, 2).entries == oracle
    assert rb.betti_hochster(code, 3).entries == oracle


def test_oracle_agrees_on_more_binary_codes():
    for (q, r, m) in [(2, 1, 3), (2, 2, 3), (2, 0, 2), (2, 2, 2)]:
        code = rb.build_code(q, r, m)
        oracle = betti_sweep_gf2([[int(x) for x in row] for row in code.H], code.n)
        assert rb.betti_fastpath(code).entries == oracle


# -- matroid complex -----------------------------------------------------------


def test_matroid_complex_faces_and_rank_cache():
    # a face is a column set of nullity 0; rank = popcount - nullity
    code = rb.build_code(2, 1, 2)
    nullity = code.nullity_table()
    assert nullity is code.nullity_table()  # cached per code
    assert not nullity.flags.writeable
    assert nullity.shape == (1 << code.n,)
    assert nullity[0] == 0
    assert nullity[0b0001] == 0 and nullity[0b1000] == 0
    assert nullity[0b0011] != 0
    assert 4 - nullity[0b1111] == 1
    assert 2 - nullity[0b0101] == 1
    with pytest.raises(IndexError):
        nullity[1 << 7]
    # downward closure spot check
    full = rb.build_code(3, 2, 2)
    nf = full.nullity_table()
    for mask in (0b111, 0b1010, 0b100100):
        if nf[mask] == 0:
            for b in range(9):
                if mask >> b & 1:
                    assert nf[mask ^ (1 << b)] == 0


@pytest.mark.parametrize("q,r,m,kernel", [
    (3, 2, 2, "_nullity_by_counting"),  # 3^min(6, 3) <= 2^9 words: counted
    (19, 8, 1, "_nullity_by_walk"),     # 19^min(9, 10) > 2^19 words: walked
], ids=["counted", "walked"])
def test_one_matroid_computation_per_code(monkeypatch, q, r, m, kernel):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("_nullity_by_counting", "_nullity_by_walk"):
        monkeypatch.setattr(codes, name, counted(name, getattr(codes, name)))
    monkeypatch.setattr(linalg, "face_levels", counted("walk", linalg.face_levels))
    built = rb.build_code(q, r, m)
    code = rb.LinearCode(built.gf, built.G)  # cold cache
    rb.betti_fastpath(code)
    if code.n <= srres.MAX_HOMOLOGY_N:
        rb.betti_hochster(code, 2)
    rb.circuits(code)
    rb.ghw_profile(code)
    assert [c for c in calls if c != "walk"] == [kernel]
    assert calls.count("walk") == (kernel == "_nullity_by_walk")


def test_length_one_codes():
    gf = field(2)
    line = code_from_rows(gf, [[1]])
    zero = code_from_rows(gf, [[0]])
    assert line.nullity_table().tolist() == [0, 1]
    assert zero.nullity_table().tolist() == [0, 0]
    assert rb.betti_fastpath(line).rows() == [(0, 0, 1), (1, 1, 1)]
    assert rb.betti_fastpath(zero).rows() == [(0, 0, 1)]
    for code in (line, zero):
        assert rb.betti_fastpath(code) == rb.betti_hochster(code)


def test_circuits_examples():
    full = rb.build_code(2, 2, 2)
    assert rb.circuits(full) == [(0,), (1,), (2,), (3,)]
    even = rb.build_code(2, 1, 2)
    assert rb.circuits(even) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_circuits_equal_minimal_codeword_supports():
    for (q, r, m) in [(3, 2, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (2, 1, 4)]:
        code = rb.build_code(q, r, m)
        assert rb.circuits(code) == minimal_codeword_supports(code)


# -- homology conventions -------------------------------------------------------


def test_reduced_homology_conventions():
    assert rb.reduced_homology_dims([0], 2) == {-1: 1}
    two_points = rb.reduced_homology_dims([0, 0b01, 0b10], 2)
    assert two_points == {-1: 0, 0: 1}
    circle = rb.reduced_homology_dims([0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110], 2)
    assert circle == {-1: 0, 0: 0, 1: 1}
    # the empty face is implied, and a repeated face counts once
    assert rb.reduced_homology_dims([], 3) == {-1: 1}
    assert rb.reduced_homology_dims([0b01, 0b10, 0b10], 3) == {-1: 0, 0: 1}
    # masks as a list of Python or numpy ints, or as an array
    circle_masks = [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    assert rb.reduced_homology_dims(circle_masks[::-1], 2) == circle
    assert rb.reduced_homology_dims(np.array(circle_masks), 3) == circle
    assert rb.reduced_homology_dims(np.array(circle_masks, dtype=np.uint64), 2) == circle
    edge = rb.reduced_homology_dims([np.int64(1), 0b10, 0b11], 2)
    assert edge == {-1: 0, 0: 0, 1: 0}
    # vertices up to bit 62 of an int64 mask
    for u, v in ((1, 62), (61, 62)):
        assert rb.reduced_homology_dims([1 << u, 1 << v], 3) == {-1: 0, 0: 1}
        faces = [1, 1 << u, 1 << v, 1 << u | 1 << v]
        assert rb.reduced_homology_dims(faces, 2) == {-1: 0, 0: 1, 1: 0}


def test_reduced_homology_depends_on_the_prime():
    # six-vertex real projective plane: H~_1 = Z/2, so only GF(2) sees homology
    triangles = [0b000111, 0b001101, 0b011001, 0b110001, 0b100011,
                 0b010110, 0b101100, 0b011010, 0b110100, 0b101010]
    faces = sorted({sub for t in triangles for sub in range(t + 1) if sub & t == sub})
    assert len(faces) == 1 + 6 + 15 + 10
    assert rb.reduced_homology_dims(faces, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    for ell in (3, 5):
        assert rb.reduced_homology_dims(faces, ell) == {-1: 0, 0: 0, 1: 0, 2: 0}


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_reduced_homology_matches_dense_reference(ell):
    # seeded random complexes on at most 8 vertices: the faces below a few
    # random facets, shuffled, some repeated, the empty face sometimes left
    # out.  Their homology spans degrees -1 to 2, so a flipped sign or a
    # column written one row off changes some answer.
    rng = np.random.default_rng(ell)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        facets = rng.integers(0, 1 << n, size=int(rng.integers(1, 2 * n + 1))).tolist()
        faces = [w for w in range(1 << n) if any(w & f == w for f in facets)]
        masks = rng.permutation(faces + rng.choice(faces, size=3).tolist())
        masks = masks[masks != 0] if rng.random() < 0.5 else masks
        assert rb.reduced_homology_dims(masks, ell) == reduced_homology_dense(masks, ell)


def _kernel_column(dense, ell):
    if ell == 2:
        return sum(1 << row for row, x in enumerate(dense) if x)
    return {row: x for row, x in enumerate(dense) if x}


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_rank_kernel_matches_scalar_oracle(ell):
    gf = field(ell)
    rng = np.random.default_rng(ell)
    cases = [(4, []), (5, [[0] * 5] * 3)]
    for _ in range(60):
        rows = int(rng.choice([1, 3, 8, 70]))
        cols = rng.integers(1, ell, size=(int(rng.integers(1, 10)), rows))
        cols *= rng.random(cols.shape) < 0.3
        cols = cols.tolist()
        cols.append(cols[0])                                   # repeated
        cols.append([x * (ell - 1) % ell for x in cols[-2]])   # a multiple
        cols.append([0] * rows)                                # zero
        cases.append((rows, [cols[i] for i in rng.permutation(len(cols))]))
    for rows, cols in cases:
        matrix = np.array(cols, dtype=np.int64).reshape(len(cols), rows).T
        expected = rref_scalar(gf, matrix)[1]
        assert srres._rank([_kernel_column(c, ell) for c in cols], ell) == expected


def test_reduced_homology_validation():
    with pytest.raises(ParameterError):
        rb.reduced_homology_dims([0], 4)
    # is_prime(2.5) and is_prime(3.0) hold, but pow() needs an integer modulus
    for ell in (2.5, 3.0, True, np.float64(3)):
        with pytest.raises(ParameterError, match="need an integer prime"):
            srres.check_char(ell)
        with pytest.raises(ParameterError, match="need an integer prime"):
            rb.reduced_homology_dims([0, 1, 2, 3], ell)
        with pytest.raises(ParameterError, match="need an integer prime"):
            rb.betti_hochster(rb.build_code(2, 1, 2), ell)
    # a face with its vertices missing, or a face size skipped
    for faces in ([0b11], [0b001, 0b010, 0b100, 0b111], np.array([0b1000, 0b0111])):
        with pytest.raises(ParameterError, match="^faces are not downward closed$"):
            rb.reduced_homology_dims(faces, 2)
    # index tuples, ragged or not: np.append would flatten [(0, 1)] into the
    # masks 0 and 1, so the shape is checked before the empty face is added
    for faces in ([(0, 1)], [()], [(0,), (1,)], [(), (0,)], {0, 1}):
        with pytest.raises(ParameterError, match="^faces must be a 1-d array of bitmasks"):
            rb.reduced_homology_dims(faces, 2)
    # a negative mask, or one of 2^63 or more, has no int64 bitmask
    for faces, named in (([-1], "face -1:"), ([np.int64(-3)], "face -3:"),
                         ([1 << 63], f"face {1 << 63}:"),
                         (np.array([1, 1 << 63], dtype=np.uint64), f"face {1 << 63}:"),
                         ([1 << 64], "below 2"), ([1 << 62, 1 << 63], "below 2"),
                         ([1.0], "below 2"), (["1"], "below 2"), ([True], "below 2")):
        with pytest.raises(ParameterError, match=named) as refused:
            rb.reduced_homology_dims(faces, 2)
        assert "\n" not in str(refused.value)


# -- Betti backends --------------------------------------------------------------


def test_repetition_code_table():
    for (q, m) in [(2, 2), (3, 2), (2, 3)]:
        code = rb.build_code(q, 0, m)
        table = rb.betti_fastpath(code)
        assert table.entries == {(0, 0): 1, (1, q ** m): 1}
        assert table == rb.betti_hochster(code, 2)


def test_full_space_koszul_table():
    code = rb.build_code(2, 2, 2)
    table = rb.betti_fastpath(code)
    assert table.entries == {(i, i): 1 * [1, 4, 6, 4, 1][i] for i in range(5)}
    assert table == rb.betti_hochster(code, 3)


def test_backends_agree_on_sample_instances():
    for (q, r, m) in [(3, 2, 2), (2, 1, 3), (2, 3, 3), (5, 2, 1), (4, 1, 1)]:
        code = rb.build_code(q, r, m)
        fast = rb.betti_fastpath(code)
        assert (fast == rb.betti_hochster(code, 2) == rb.betti_hochster(code, 3)
                == rb.betti_hochster(code, 5))
        assert proj_dim(fast) == code.k
        assert alternating_sum(fast) == 0


def test_backends_agree_on_random_codes():
    # the machinery is code-agnostic: random parity data must agree too
    rng = np.random.default_rng(321)
    done = 0
    while done < 8:
        q = int(rng.choice([2, 3]))
        gf = field(q)
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(3, 8))
        code = code_from_rows(
            gf, rng.integers(0, q, size=(rows, cols)).astype(gf.dtype))
        if code.k == 0:
            continue
        fast = rb.betti_fastpath(code)
        assert fast == rb.betti_hochster(code, 2) == rb.betti_hochster(code, 3)
        done += 1


def test_betti_guards():
    big = rb.build_code(2, 1, 4)  # n = 16 exceeds the 12-vertex homology limit
    assert srres.MAX_HOMOLOGY_N == 12 < big.n
    with pytest.raises(TooLargeError, match="n <= 12"):
        rb.betti_hochster(big, 2)
    with pytest.raises(TooLargeError):  # the nullity table stops at n = 20
        rb.betti_fastpath(rb.build_code(23, 5, 1))
    with pytest.raises(TooLargeError, match="n <= 20"):  # so do the orbits
        srres.restriction_orbits(rb.build_code(23, 5, 1))
    with pytest.raises(ParameterError):
        rb.betti_hochster(rb.build_code(2, 1, 2), ell=6)


# -- restriction orbits ----------------------------------------------------------


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2)]
                         + [(q, 1) for q in (2, 3, 4, 5, 7, 8, 9, 11)])
def test_orbit_sweep_equals_unreduced_sweep(q, m):
    generators = rm.affine_generators(q, m)
    for r in range(m * (q - 1) + 1):
        code = rb.build_code(q, r, m)
        for ell in (2, 3):
            assert (rb.betti_hochster(code, ell, generators)
                    == rb.betti_hochster(code, ell)), (q, m, r, ell)


@pytest.mark.parametrize("q,m,orbits", [(2, 3, 10), (3, 2, 14), (2, 4, 32), (4, 2, 77)])
def test_restriction_orbit_counts(q, m, orbits):
    code = rb.build_code(q, 1, m)
    reps, sizes = srres.restriction_orbits(code, rm.affine_generators(q, m))
    assert len(reps) == orbits
    assert sizes.sum() == 1 << code.n
    assert reps[0] == 0 and sizes[0] == 1  # the empty set is alone


def test_affine_generators_preserve_every_rm_code():
    # V holds the evaluations of all monomials, graded.  Rows of degree <= r
    # span RM_q(r, m); those of degree <= top - 1 - r are orthogonal to them
    # (checked with the identity below) and their counts add up to n, so
    # they span its dual.  A permutation therefore preserves every
    # RM_q(r, m) exactly when each moved row of degree b is orthogonal to
    # every row of degree a with a + b < top.
    families = [(q, m) for q in range(2, 82) for m in range(1, 7)
                if q ** m <= 81
                and sum(q % p == 0 and is_prime(p) for p in range(2, q + 1)) == 1]
    for q, m in families:
        n, top = q ** m, m * (q - 1)
        degree = np.array([sum(e) for e in rm.monomial_basis(q, top, m)])
        for r in range(top):
            assert np.sum(degree <= r) + np.sum(degree <= top - 1 - r) == n
        low = degree[:, None] + degree[None, :] < top
        V = rm.generator_matrix(q, top, m)
        generators = rm.affine_generators(q, m)
        assert len(generators) == m + (q - 2) + (m - 1) + (m > 1)
        for perm in (np.arange(n), *generators):
            assert sorted(perm.tolist()) == list(range(n))
            assert not linalg.matmul(field(q), V, V[:, perm].T)[low].any(), (q, m)
        assert not any(perm.flags.writeable for perm in generators)


def test_symmetry_that_moves_the_code_is_dropped():
    # swapping the points 0 and 1 of AG(3, 2) maps the affine plane
    # {0, 2, 4, 6} (x_2 = 0) onto {1, 2, 4, 6}, which is no plane
    code = rb.build_code(2, 1, 3)
    swap = np.array([1, 0, *range(2, 8)])
    reps, sizes = srres.restriction_orbits(code, [swap])
    assert reps.tolist() == list(range(256)) and set(sizes.tolist()) == {1}
    assert rb.betti_hochster(code, 2, [swap]) == rb.betti_hochster(code, 2)
    # the same swap fixes the full space, so it is kept there
    full = rb.build_code(2, 3, 3)
    assert len(srres.restriction_orbits(full, [swap])[0]) < 256
    for bad in (np.arange(7), np.arange(8.0), np.zeros(8, int)):
        with pytest.raises(ParameterError, match="permute"):
            srres.restriction_orbits(code, [bad])


def test_min_shifts_bounded_below_by_distance():
    for (q, r, m) in [(3, 2, 2), (2, 2, 3), (4, 2, 1)]:
        code = rb.build_code(q, r, m)
        table = rb.betti_fastpath(code)
        shifts = table.shifts()
        d1 = rb.min_weight_bruteforce(code)
        assert min(shifts[1]) == d1
        assert all(j >= d1 for j in shifts[1])


def test_ghw_from_betti_matches_subset_search():
    for (q, r, m) in [(2, 1, 2), (3, 2, 2), (2, 2, 3), (3, 3, 2)]:
        code = rb.build_code(q, r, m)
        assert rb.ghw_from_betti(rb.betti_fastpath(code)) == rb.ghw_profile(code)


def test_betti_table_rows_sorted_and_json():
    table = rb.betti_fastpath(rb.build_code(2, 1, 2))
    rows = table.rows()
    assert rows == sorted(rows)
    assert table.to_json_obj()[0] == {"i": 0, "j": 0, "beta": 1}


# -- purity and closed forms ------------------------------------------------------


def test_purity_verdict_examples():
    even = rb.purity_verdict(rb.betti_fastpath(rb.build_code(2, 1, 2)))
    assert even.pure and even.type == (0, 2, 3, 4) and even.linear

    koszul = rb.purity_verdict(rb.betti_fastpath(rb.build_code(2, 2, 2)))
    assert koszul.pure and koszul.linear

    mixed = rb.purity_verdict(rb.betti_fastpath(rb.build_code(2, 2, 4)))
    assert not mixed.pure and not mixed.linear and mixed.violations
    i, shifts = mixed.violations[0]
    assert len(shifts) > 1

    ternary = rb.purity_verdict(rb.betti_fastpath(rb.build_code(3, 2, 2)))
    assert not ternary.pure


def test_pure_but_not_linear():
    # order-1 ternary code: shifts 6, 8, 9 are not consecutive
    verdict = rb.purity_verdict(rb.betti_fastpath(rb.build_code(3, 1, 2)))
    assert verdict.pure and verdict.type == (0, 6, 8, 9) and not verdict.linear


def test_herzog_kuhl_examples():
    assert rb.herzog_kuhl_predicted((0, 2, 3, 4)) == [6, 8, 3]
    assert rb.herzog_kuhl_predicted((0, 9)) == [1]
    koszul = rb.herzog_kuhl_predicted(tuple(range(5)))
    assert koszul == [4, 6, 4, 1]
    with pytest.raises(ParameterError, match="strictly increasing"):
        rb.herzog_kuhl_predicted((0, 3, 3, 4))
    with pytest.raises(ParameterError, match="strictly increasing"):
        rb.herzog_kuhl_predicted((0, 4, 2))
    assert rb.herzog_kuhl_predicted(np.array([0, 2, 3, 4])) == [6, 8, 3]
    # never truncated: (0, 2.5, 3) is not the shift type (0, 2, 3)
    for bad in ([0, 2.5, 3], [0, True, 3], [0, 2.0, 3], ["0", "2"]):
        with pytest.raises(ParameterError, match="strictly increasing integers"):
            rb.herzog_kuhl_predicted(bad)


def test_herzog_kuhl_matches_computed_tables():
    for (q, r, m) in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 0, 2), (5, 2, 1)]:
        table = rb.betti_fastpath(rb.build_code(q, r, m))
        verdict = rb.purity_verdict(table)
        assert verdict.pure
        predicted = rb.herzog_kuhl_predicted(verdict.type)
        for i, beta in enumerate(predicted, start=1):
            assert beta.denominator == 1
            assert table.entries[(i, verdict.type[i])] == beta


def test_herzog_kuhl_matches_tables_at_the_table_limit():
    """Reed-Solomon codes of dimension (q + 1) // 2 are MDS, hence pure; at
    n = 16, 17 and 19 the walk builds their tables, and their largest Betti
    numbers run into the millions."""
    largest = {}
    for q in (16, 17, 19):
        table = rb.betti_fastpath(rb.build_code(q, (q - 1) // 2, 1))
        verdict = rb.purity_verdict(table)
        assert verdict.pure
        predicted = rb.herzog_kuhl_predicted(verdict.type)
        assert table.entries == {(0, 0): 1} | {
            (i, verdict.type[i]): beta for i, beta in enumerate(predicted, start=1)}
        largest[q] = max(table.entries.values())
    assert largest[19] == 8_314_020


def test_fastpath_refuses_a_sign_against_rank_parity(monkeypatch, capsys):
    def corrupted(values, n):
        subset_sum_accumulate(values, n)
        w = np.flatnonzero(values)[-1]
        values[w] = -values[w]

    monkeypatch.setattr(srres, "subset_sum_accumulate", corrupted)
    with pytest.raises(CrossCheckError, match="signs disagree with rank parity"):
        rb.betti_fastpath(rb.build_code(3, 2, 2))
    assert cli.main(["betti", "--q", "3", "--m", "2", "--r", "2", "--no-timing"]) == 5
    assert "signs disagree with rank parity" in capsys.readouterr().err


def test_purity_missing_row_is_hard_error():
    table = rb.BettiTable(n=4, k=3, entries={(0, 0): 1, (1, 2): 6, (3, 4): 3})
    with pytest.raises(CrossCheckError):
        rb.purity_verdict(table)
