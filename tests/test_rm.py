"""Reed-Muller construction: dimensions, distances, weight polynomials."""

import numpy as np
import pytest

import rmbetti as rb
from rmbetti import CrossCheckError, ExponentPoly, ParameterError, TooLargeError, field
from rmbetti import linalg, rm
from rmbetti.rm import binom, pinned_roots, validate_params

from oracles import (evaluate_terms, interpolate, interpolation_basis_symbolic, min_weight_poly,
                     min_weight_poly_symbolic, monomial_row, power,
                     substitute_linear_forms, witness_poly_large_field_symbolic,
                     witness_poly_ternary_symbolic)

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


def test_binomial_convention():
    assert binom(5, 2) == 10
    assert binom(2, 4) == 0
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0


def test_monomial_basis_examples():
    assert rb.monomial_basis(2, 0, 3) == [(0, 0, 0)]
    assert len(rb.monomial_basis(2, 2, 4)) == 11
    assert len(rb.monomial_basis(3, 2, 2)) == 6
    # brute-force count cross-check for a sample
    count = sum(1 for a in range(3) for b in range(3) if a + b <= 2)
    assert count == 6


def test_monomial_basis_is_graded_prefix():
    for r in range(4):
        small = rb.monomial_basis(3, r, 2)
        big = rb.monomial_basis(3, r + 1, 2)
        assert big[: len(small)] == small
        assert all(sum(v) <= r for v in small)


def test_monomial_basis_validation():
    with pytest.raises(ParameterError):
        rb.monomial_basis(3, 5, 2)  # r > m(q-1)
    with pytest.raises(ParameterError):
        rb.monomial_basis(3, -1, 2)
    with pytest.raises(ParameterError):
        validate_params(3, 0, 0)
    # floats and bools are refused, not read as the integers they equal
    for q, r, m in [(3.0, 2, 1), (3, 2.0, 1), (3, 2, 1.0), (True, 0, 1), (3, True, 1),
                    (3, 1, True), ("3", 1, 1)]:
        with pytest.raises(ParameterError, match="must be integers"):
            validate_params(q, r, m)
    for args in [(4.0, 1, 2), (4, 1.0, 2), (2, True, 3), (2, 1, 3.0)]:
        rb.build_code(int(args[0]), int(args[1]), int(args[2]))  # cached beforehand
        with pytest.raises(ParameterError, match="must be integers"):
            rb.build_code(*args)
    with pytest.raises(ParameterError, match="must be integers"):
        rb.purity_predicate(3.0, 2, 1)
    validate_params(np.int64(3), np.int64(2), np.int64(1))


def test_dimension_formulas_examples():
    assert rb.dim_assmus_key(2, 2, 4) == 11
    assert rb.dim_inclusion_exclusion(2, 2, 4) == 15 - 4 * 1
    for q, m in [(2, 3), (5, 2)]:
        assert rb.dim_assmus_key(q, 0, m) == 1
    assert rb.dim_assmus_key(3, 4, 2) == 9  # full space
    assert rb.dim_inclusion_exclusion(3, 2, 2) == 6
    assert rb.dim_inclusion_exclusion(4, 4, 2) == 13


def test_dimension_simplifies_below_q():
    for q in (3, 4, 5, 7):
        for m in (1, 2, 3):
            for r in range(min(q, m * (q - 1) + 1)):
                assert rb.dim_inclusion_exclusion(q, r, m) == binom(m + r, m)


def test_dimension_full_space():
    # q=3, m=2: C(6,2) - 2*C(3,2) + C(0,2) = 15 - 6 + 0 = 9
    assert binom(6, 2) - 2 * binom(3, 2) + binom(0, 2) == 9
    for q, m in [(2, 3), (3, 2), (4, 2), (5, 1)]:
        r = m * (q - 1)
        assert rb.dim_inclusion_exclusion(q, r, m) == q ** m
        assert rb.dim_assmus_key(q, r, m) == q ** m


def test_ts_split():
    for q, r in ((3.0, 2), (3, 2.0), (True, 2)):
        with pytest.raises(ParameterError, match="need integers"):
            rb.ts_split(q, r)
    assert rb.ts_split(4, 4) == (1, 1)
    assert rb.ts_split(3, 2) == (1, 0)
    assert rb.ts_split(2, 3) == (3, 0)
    for q in (2, 3, 4, 5, 9):
        for r in range(3 * (q - 1) + 1):
            t, s = rb.ts_split(q, r)
            assert r == t * (q - 1) + s and 0 <= s <= q - 2


def test_min_distance_formula_examples():
    assert rb.min_distance_formula(3, 2, 2) == 3
    assert rb.min_distance_formula(2, 2, 4) == 4
    for q, m in [(2, 2), (3, 2), (4, 2), (5, 1)]:
        assert rb.min_distance_formula(q, m * (q - 1), m) == 1


def test_point_order_origin_first_and_lexicographic():
    assert [tuple(p) for p in rb.point_order(2, 2)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    pts = [tuple(int(x) for x in p) for p in rb.point_order(3, 2)]
    assert pts[0] == (0, 0)
    assert len(set(pts)) == 9
    assert pts == sorted(pts)
    for q, m in ((3, 2.0), (3.0, 2), (3, True), (2.5, 2)):
        with pytest.raises(ParameterError, match="needs integer arguments"):
            rb.point_order(q, m)
    # one read-only grid of the field's dtype per integer value: a numpy q
    # built first must not leave the cache keyed by a numpy value
    rm.point_order.cache_clear()
    grid = rb.point_order(np.int64(4), 2)
    assert grid.shape == (16, 2) and grid.dtype == field(4).dtype
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 1
    assert rb.point_order(4, 2) is grid is rb.point_order(np.int64(4), np.int32(2))
    assert rb.point_order(4, 3) is not grid
    rb.non_purity_certificate(np.int64(4), 2, 4)
    rb.non_purity_certificate(4, 2, 4)


def test_evaluate_examples():
    gf = field(2)
    ones = ExponentPoly.constant(gf, 2, 1)
    assert np.array_equal(ones.evaluate(), [1, 1, 1, 1])
    x1 = ExponentPoly(gf, 2, {(1, 0): 1})
    assert np.array_equal(x1.evaluate(), [0, 0, 1, 1])


@pytest.mark.parametrize("q,m", [(2, 16), (3, 4), (8, 3), (9, 2), (256, 2), (1024, 1)])
def test_evaluate_equals_the_per_term_reference(q, m):
    # the transform against one table lookup per term and variable, at 0, 1
    # and many terms, on grids from 2^16 points to GF(1024)^1
    gf = field(q)
    rng = np.random.default_rng(1000 * q + m)
    for count in (0, 1, 60):
        terms = {tuple(rng.integers(0, q, size=m).tolist()): int(rng.integers(1, q))
                 for _ in range(count)}
        f = ExponentPoly(gf, m, terms)
        got = f.evaluate()
        want = evaluate_terms(gf, rb.point_order(q, m), f.sorted_terms())
        assert got.dtype == want.dtype == gf.dtype and got.shape == (q ** m,)
        assert np.array_equal(got, want), (q, m, count)


def test_evaluate_refuses_an_oversized_grid_before_allocating(monkeypatch):
    def no_array(*args, **kwargs):
        raise AssertionError("evaluate allocated before its grid check")

    monkeypatch.setattr(np, "zeros", no_array)
    for m in (17, 40):              # 2^40 points would be a terabyte tensor
        f = ExponentPoly(field(2), m, {(1,) + (0,) * (m - 1): 1})
        with pytest.raises(TooLargeError, match=f"GF\\(2\\)\\^{m} has more than"):
            f.evaluate()


def test_exponent_poly_reduction_and_arithmetic():
    gf = field(3)
    x = ExponentPoly(gf, 1, {(1,): 1})
    assert (x * x * x).terms == x.terms  # X^3 = X on values
    assert power(x, 5).terms == (power(x, 3) * power(x, 2)
                                 * ExponentPoly.constant(gf, 1, 1)).terms
    cube = x * x * x
    assert np.array_equal(cube.evaluate(), x.evaluate())
    zero = x - x
    assert zero.terms == {} and zero.total_degree() == -1
    with pytest.raises(ParameterError):
        ExponentPoly(gf, 2, {(3, 0): 1})  # exponent not reduced


def test_exponent_poly_coefficients_are_field_elements():
    gf = field(4)
    assert ExponentPoly(gf, 2, {(1, 0): 3}).terms == {(1, 0): 3}
    for coef in (300, 7, 4, -1):
        with pytest.raises(ParameterError, match="not an element of GF"):
            ExponentPoly(gf, 2, {(1, 0): coef})
    # numpy integers are integers; floats, bools and strings are refused,
    # never truncated, in a coefficient or an exponent
    terms = {(np.int64(1), np.uint8(0)): np.int32(3)}
    assert ExponentPoly(gf, 2, terms).terms == {(1, 0): 3}
    for terms in ({(1.5, True): 1.9}, {(1, 0): 1.9}, {(1, 0): 1.0}, {(1, 0): True},
                  {(1, 0): np.True_}, {(1, 0): "1"}, {(1.0, 0): 1}, {(True, 0): 1},
                  {("1", 0): 1}, {(1, np.float64(0)): 0}):
        with pytest.raises(ParameterError, match="must be integers"):
            ExponentPoly(gf, 2, terms)


def test_build_code_examples():
    code = rb.build_code(2, 1, 2)
    assert (code.n, code.k, code.d) == (4, 3, 2)
    rep = rb.build_code(3, 0, 2)
    assert (rep.n, rep.k) == (9, 1)
    full = rb.build_code(2, 2, 2)
    assert (full.n, full.k) == (4, 4)
    assert full.H.shape == (0, 4)
    assert not np.any(linalg.matmul(code.gf, code.G, code.H.T))
    assert linalg.rank(code.gf, code.G) == code.k
    with pytest.raises(ParameterError):
        rb.build_code(3, 9, 2)


def test_every_generator_row_annihilated_by_parity_check():
    for (q, r, m) in [(2, 1, 3), (3, 2, 2), (4, 2, 2), (5, 3, 1), (8, 9, 2),
                      (9, 4, 2), (5, 4, 3)]:
        code = rb.build_code(q, r, m)
        assert not np.any(linalg.matmul(code.gf, code.G, code.H.T))
        assert linalg.rank(code.gf, code.H) == code.n - code.k


def test_build_code_runs_one_elimination(monkeypatch):
    calls = []
    rref = linalg.rref

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    code = rm.build_code.__wrapped__(3, 2, 2)   # cold: past the cache
    assert (code.n, code.k) == (9, 6)
    assert len(calls) == 1


@pytest.mark.parametrize("source", ["dim_assmus_key", "dim_inclusion_exclusion"])
def test_build_code_dimension_sources_must_agree(monkeypatch, source):
    formula = getattr(rm, source)
    monkeypatch.setattr(rm, source, lambda q, r, m: formula(q, r, m) + 1)
    with pytest.raises(CrossCheckError, match="rank=6, monomials=6, double-sum="):
        rm.build_code.__wrapped__(3, 2, 2)


def test_build_code_rank_deficient_generator_is_a_cross_check_error(monkeypatch):
    generator_matrix = rm.generator_matrix

    def repeated_row(*args, **kw):
        g = generator_matrix(*args, **kw)
        g[-1] = g[0]
        return g

    monkeypatch.setattr(rm, "generator_matrix", repeated_row)
    with pytest.raises(CrossCheckError, match="rank=5, monomials=6, double-sum=6, "
                                              "incl-excl=6"):
        rm.build_code.__wrapped__(3, 2, 2)


def test_matrix_byte_limit(monkeypatch):
    # RM_2(1, 3) is [8, 4]: G and H take 32 bytes each, G's elimination at
    # 8 bytes a cell 256
    monkeypatch.setattr(rm, "MAX_MATRIX_BYTES", 319)
    assert rm.generator_matrix(2, 1, 3).shape == (4, 8)
    with pytest.raises(TooLargeError, match="320 bytes of matrices, above the limit 319"):
        rm.build_code.__wrapped__(2, 1, 3)
    monkeypatch.setattr(rm, "MAX_MATRIX_BYTES", 287)
    with pytest.raises(TooLargeError, match="288 bytes"):
        rm.generator_matrix(2, 1, 3)
    monkeypatch.setattr(rm, "MAX_MATRIX_BYTES", 320)
    assert rm.build_code.__wrapped__(2, 1, 3).k == 4


def test_generator_matrix_matches_per_monomial_rows():
    # every r, r = 0 and r = m(q-1) included, against one row per monomial
    for q in (2, 3, 4, 5, 7, 8, 9):
        gf = rb.field(q)
        for m in (1, 2, 3) if q <= 4 else (1, 2):
            for r in range(m * (q - 1) + 1):
                g = rm.generator_matrix(q, r, m)
                rows = np.stack([monomial_row(gf, m, e)
                                 for e in rm.monomial_basis(q, r, m)])
                assert g.dtype == rows.dtype and g.shape == rows.shape, (q, r, m)
                assert g.tobytes() == rows.tobytes(), (q, r, m)


def test_dimension_monotone_and_distance_antitone():
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            dims = [rb.dim_inclusion_exclusion(q, r, m)
                    for r in range(m * (q - 1) + 1)]
            dists = [rb.min_distance_formula(q, r, m)
                     for r in range(m * (q - 1) + 1)]
            assert dims == sorted(dims)
            assert dists == sorted(dists, reverse=True)


# -- minimum-weight polynomials ------------------------------------------------


def test_min_weight_poly_support_pins_first_coordinates():
    f = min_weight_poly(3, 2, 2)  # t=1, s=0, pinned value 0
    vals = f.evaluate()
    supp = rb.support(vals)
    assert len(supp) == 3 == rb.min_distance_formula(3, 2, 2)
    assert all(rb.point_order(3, 2)[i][0] == 0 for i in supp)


def test_min_weight_poly_gf2_is_affine_coordinate():
    # q=2, r=1: pinning X_1 = 1 gives exactly the polynomial X_1
    f = min_weight_poly(2, 1, 2, pinned=[1])
    assert f.terms == {(1, 0): 1}
    assert rb.weight(f.evaluate()) == 2


def test_min_weight_poly_q4_mixed_split():
    f = min_weight_poly(4, 4, 2)  # t=1, s=1
    vals = f.evaluate()
    assert rb.weight(vals) == 3 == rb.min_distance_formula(4, 4, 2)
    assert rb.build_code(4, 4, 2).contains(vals)


def test_min_weight_poly_validation():
    with pytest.raises(ParameterError, match="scale must be nonzero"):
        min_weight_poly(4, 4, 2, scale=0)
    with pytest.raises(ParameterError, match="distinct excluded"):
        min_weight_poly(5, 2, 2, excluded=[1, 1])
    with pytest.raises(ParameterError, match="need 1 pinned"):
        min_weight_poly(3, 2, 2, pinned=[0, 0])  # t = 1, not 2


def test_min_weight_poly_scale_outside_the_field():
    # refused by the ExponentPoly constructor before any table lookup
    for scale in (4, -1):
        with pytest.raises(ParameterError, match="not an element of GF"):
            min_weight_poly(4, 4, 2, scale=scale)


def test_min_weight_poly_randomized_parameters():
    rng = np.random.default_rng(55)
    for (q, r, m) in [(3, 3, 2), (4, 2, 2), (5, 5, 2), (8, 3, 2), (9, 9, 2)]:
        code = rb.build_code(q, r, m)
        t, s = rb.ts_split(q, r)
        for _ in range(5):
            pinned = rng.integers(0, q, size=t).tolist()
            excluded = rng.permutation(q)[:s].tolist()
            scale = int(rng.integers(1, q))
            f = min_weight_poly(q, r, m, scale=scale, pinned=pinned,
                                excluded=excluded)
            vals = f.evaluate()
            assert rb.weight(vals) == code.d
            assert code.contains(vals)


def test_substitute_linear_forms_examples():
    gf = field(2)
    f = ExponentPoly(gf, 2, {(1, 0): 1})
    assert np.array_equal(substitute_linear_forms(f, [[1, 0]]), f.evaluate())
    mixed = np.array([[1, 1]], dtype=gf.dtype)
    assert np.array_equal(substitute_linear_forms(f, mixed), [0, 1, 1, 0])
    with pytest.raises(ParameterError, match="dependent"):
        substitute_linear_forms(f, np.zeros((1, 2), dtype=gf.dtype))


def test_substitute_linear_forms_shift_range():
    gf = field(4)
    f = ExponentPoly(gf, 2, {(1, 0): 1})
    shifted = substitute_linear_forms(f, [[1, 0]], [3])
    assert np.array_equal(shifted, gf.add(f.evaluate(), 3))
    for shift in (5, 4, -1):
        with pytest.raises(ParameterError, match="shifts must lie in 0..3"):
            substitute_linear_forms(f, [[1, 0]], [shift])


def test_substitute_linear_forms_preserves_weight_and_membership():
    rng = np.random.default_rng(77)
    for (q, r, m) in [(3, 2, 2), (4, 4, 2), (2, 2, 3)]:
        code = rb.build_code(q, r, m)
        f = min_weight_poly(q, r, m)
        t, _ = rb.ts_split(q, r)
        w = t + 1
        for trial in range(8):
            while True:
                forms = rng.integers(0, q, size=(w, m)).astype(code.gf.dtype)
                if linalg.rank(code.gf, forms) == w:
                    break
            shifts = rng.integers(0, q, size=w).tolist() if trial % 2 else None
            word = substitute_linear_forms(f, forms, shifts)
            assert rb.weight(word) == code.d
            assert code.contains(word)


def point_indicators(q, m):
    """(-1)^m times one linear_product per grid point: 1 at that point, 0
    elsewhere."""
    gf = field(q)
    sign = gf.neg(1) if m % 2 else 1
    return [ExponentPoly.constant(gf, m, sign) * rb.linear_product(
        gf, m, pinned_roots(gf, point.tolist())) for point in rb.point_order(q, m)]


def test_interpolation_basis_identity_and_unity():
    for (q, m) in [(2, 1), (2, 2), (3, 2)]:
        gf = field(q)
        basis = point_indicators(q, m)
        stacked = np.stack([f.evaluate() for f in basis])
        assert np.array_equal(stacked, np.eye(q ** m))
        total = basis[0]
        for f in basis[1:]:
            total = total + f
        assert np.array_equal(total.evaluate(), np.ones(q ** m, dtype=gf.dtype))


def test_interpolation_basis_gf2_m1_explicit():
    one_plus_x, x = point_indicators(2, 1)
    assert one_plus_x.terms == {(0,): 1, (1,): 1}
    assert x.terms == {(1,): 1}


def test_interpolate_inverts_evaluate():
    rng = np.random.default_rng(123)
    for (q, m) in [(2, 3), (3, 2), (4, 2), (5, 1)]:
        gf = field(q)
        for _ in range(5):
            terms = {}
            for _ in range(4):
                exps = tuple(int(x) for x in rng.integers(0, q, size=m))
                coef = int(rng.integers(1, q))
                terms[exps] = coef
            f = ExponentPoly(gf, m, terms)
            assert interpolate(gf, m, f.evaluate()) == f
        # degree detection: membership in the order-r code
        for r in range(m * (q - 1) + 1):
            word = min_weight_poly(q, r, m).evaluate()
            assert interpolate(gf, m, word).total_degree() <= r


def test_interpolation_degree_agrees_with_parity_membership():
    # two independent membership routes: H @ c = 0 versus the total degree
    # of the interpolating polynomial
    rng = np.random.default_rng(31)
    code = rb.build_code(3, 2, 2)
    words = [min_weight_poly(3, 2, 2, pinned=[p]).evaluate() for p in range(3)]
    words.append(np.zeros(9, dtype=code.gf.dtype))
    for _ in range(30):
        words.append(rng.integers(0, 3, size=9).astype(code.gf.dtype))
    for w in words:
        by_parity = code.contains(w)
        by_degree = interpolate(code.gf, code.m, w).total_degree() <= code.r
        assert by_parity == by_degree


def test_sum_zero_code_equality():
    # one order below the top the dual is spanned by the all-ones word, so
    # the code is the sum-zero hyperplane
    for (q, m) in [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (3, 3), (7, 1)]:
        code = rb.build_code(q, m * (q - 1) - 1, m)
        assert np.array_equal(code.H, np.ones((1, q ** m))), (q, m)
    # dimension check: [q^m, q^m - 1, 2]
    code = rb.build_code(3, 3, 2)
    assert (code.n, code.k, code.d) == (9, 8, 2)


# -- witness polynomials -------------------------------------------------------


def _witness(q, m, r):
    case, roots, formula_weight = rb.certificate_witness(q, m, r)
    return case, rb.linear_product(field(q), m, roots), formula_weight


def test_witness_large_field_examples():
    for (q, m, r, wt, d) in [(4, 2, 4, 4, 3), (5, 2, 5, 6, 4), (4, 3, 4, 16, 12)]:
        case, poly, formula_weight = _witness(q, m, r)
        assert case == 1
        assert poly.total_degree() == r
        vals = poly.evaluate()
        assert rb.weight(vals) == wt == formula_weight
        assert rb.min_distance_formula(q, r, m) == d
        assert wt > d
        assert rb.build_code(q, r, m).contains(vals)


def test_witness_large_field_deeper_split():
    # t = 2: q=4, r=7 = 2*3+1, m=3
    case, poly, formula_weight = _witness(4, 3, 7)
    assert case == 1
    assert poly.total_degree() == 7
    t = 2
    assert rb.weight(poly.evaluate()) == formula_weight == 2 * (4 - 2) * 4 ** (3 - t - 1)


def test_witness_large_field_preconditions():
    for (q, m, r) in [(4, 2, 3),   # s = 0
                      (4, 1, 1),   # m too small (s = 1 but m = 1)
                      (4, 2, 1)]:  # r too small
        assert rb.certificate_witness(q, m, r) is None
        with pytest.raises(ParameterError):
            rb.non_purity_certificate(q, m, r)
    assert rb.certificate_witness(3, 3, 3)[0] == 2  # q = 3 is case 2, not case 1
    assert rb.certificate_witness(4, 1, 4) is None
    with pytest.raises(ParameterError):
        rb.non_purity_certificate(4, 1, 4)  # r out of range altogether


def test_witness_ternary_examples():
    # weights 8 > 6 (m=3) and 24 > 18 (m=4) occur at r = 3, where s = 1
    for (m, r, wt, d) in [(3, 3, 8, 6), (4, 3, 24, 18), (4, 5, 8, 6)]:
        case, poly, formula_weight = _witness(3, m, r)
        assert case == 2
        assert poly.total_degree() == r
        vals = poly.evaluate()
        assert rb.weight(vals) == wt == formula_weight
        assert rb.min_distance_formula(3, r, m) == d
        assert wt > d
        assert rb.build_code(3, r, m).contains(vals)


def test_witness_ternary_preconditions():
    for (m, r) in [(2, 3),   # t = 1 > m - 2 = 0
                   (3, 4),   # s = 0: no witness of this shape
                   (4, 4)]:  # s = 0 here as well
        assert rb.certificate_witness(3, m, r) is None
        with pytest.raises(ParameterError):
            rb.non_purity_certificate(3, m, r)


# -- linear products against the symbolic constructions ---------------------


def assert_same_construction(build, oracle):
    """Equal term lists, or the same exception type and message."""
    try:
        expected = oracle()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            build()
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    assert build().sorted_terms() == expected.sorted_terms()


def test_min_weight_poly_matches_symbolic_construction():
    rng = np.random.default_rng(10)
    for q in PRIME_POWERS:
        for m in (1, 2, 3):
            for r in range(m * (q - 1) + 1):
                t, s = rb.ts_split(q, r)
                assert_same_construction(lambda: min_weight_poly(q, r, m),
                                         lambda: min_weight_poly_symbolic(q, r, m))
                for trial in range(4):
                    if trial < 3:   # valid constants
                        kw = dict(scale=int(rng.integers(1, q)),
                                  pinned=rng.integers(0, q, size=t).tolist(),
                                  excluded=rng.permutation(q)[:s].tolist())
                    else:           # anything near the field, wrong lengths too
                        size = max(0, t + int(rng.integers(-1, 2)))
                        kw = dict(scale=int(rng.integers(-1, q + 1)),
                                  pinned=rng.integers(-1, q + 1, size=size).tolist(),
                                  excluded=rng.integers(-1, q + 1, size=s).tolist())
                    assert_same_construction(
                        lambda: min_weight_poly(q, r, m, **kw),
                        lambda: min_weight_poly_symbolic(q, r, m, **kw))


def _symbolic_witness(q, m, r):
    """The oracle's witness for (q, m, r), or None where its preconditions
    refuse (q = 2 has no construction)."""
    try:
        if q == 3:
            return witness_poly_ternary_symbolic(m, r)
        if q > 3:
            return witness_poly_large_field_symbolic(q, m, r)
    except ValueError:
        pass
    return None


def test_witness_polys_match_symbolic_constructions():
    # every (q, m, r) with m <= 4, out-of-range m and r included: the band,
    # the case, the linear factors and the weight of certificate_witness
    stated = {(4, 2, 4): (4, 3), (5, 2, 5): (6, 4), (4, 3, 4): (16, 12),  # (weight, d)
              (4, 3, 7): (4, 3), (3, 3, 3): (8, 6), (3, 4, 3): (24, 18), (3, 4, 5): (8, 6)}
    seen = set()
    for q in PRIME_POWERS:
        for m in range(5):
            for r in range(-1, m * (q - 1) + 2):
                planned = rb.certificate_witness(q, m, r)
                expected = _symbolic_witness(q, m, r)
                assert (planned is None) == (expected is None), (q, m, r)
                if planned is None:
                    continue
                assert not rb.purity_predicate(q, m, r), (q, m, r)
                case, roots, formula_weight = planned
                witness = rb.linear_product(field(q), m, roots)
                assert witness.sorted_terms() == expected.sorted_terms(), (q, m, r)
                assert witness.total_degree() == r
                assert case == (2 if q == 3 else 1)
                word = witness.evaluate()
                wt, d = rb.weight(word), rb.min_distance_formula(q, r, m)
                assert wt == formula_weight > d, (q, m, r)
                if (q, m, r) in stated:
                    assert (wt, d) == stated[q, m, r]
                    assert rb.build_code(q, r, m).contains(word)
                    seen.add((q, m, r))
    assert seen == set(stated)


def test_interpolation_basis_matches_symbolic_construction():
    for q in PRIME_POWERS:
        for m in range(1, 5):
            if q ** m <= 25:
                built = point_indicators(q, m)
                expected = interpolation_basis_symbolic(q, m)
                assert [f.sorted_terms() for f in built] == \
                    [f.sorted_terms() for f in expected], (q, m)


def test_linear_product():
    gf = field(5)
    # 2 (X_1 - 3)(X_2 - 0)(X_2 - 1) = 2 (X_1 X_2^2 - X_1 X_2 - 3 X_2^2 + 3 X_2)
    f = ExponentPoly.constant(gf, 2, 2) * rb.linear_product(gf, 2, [(0, 3), (1, 0), (1, 1)])
    assert f.terms == {(1, 2): 2, (1, 1): 3, (0, 2): 4, (0, 1): 1}
    assert rb.linear_product(gf, 3, []).terms == {(0, 0, 0): 1}
    for root in ((2, 0), (-1, 0), (0, 5), (0, -1), (0, 1.5), (0.0, 1), (True, 2),
                 (0, False), (np.float64(1), 0)):
        with pytest.raises(ParameterError):
            rb.linear_product(gf, 2, [(1, 1), root])
    # pinned values are elements of GF(q): 7, 1.5 or -1 would pin nothing
    gf4 = field(4)
    assert pinned_roots(gf4, [np.int64(2)]) == [(0, 0), (0, 1), (0, 3)]
    for value in (7, 4, 1.5, -1, True, 2.0):
        with pytest.raises(ParameterError):
            pinned_roots(gf4, [0, value])
