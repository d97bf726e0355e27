"""Field construction, canonical element order, and arithmetic tables."""

import itertools

import numpy as np
import pytest

from rmbetti import ParameterError, field
from rmbetti.gf import GF, factor_prime_power, is_irreducible, is_prime, lowest_irreducible

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]


def test_factor_prime_power():
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(4) == (2, 2)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(1024) == (2, 10)
    assert factor_prime_power(1021) == (1021, 1)
    assert [n for n in range(-2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 15, 100])
def test_not_prime_power_rejected(q):
    with pytest.raises(ParameterError):
        field(q)


def test_array_checks_entries_and_keeps_an_array_of_the_field_dtype():
    gf = field(3)
    a = np.array([[0, 1], [2, 0]], gf.dtype)
    assert gf.array(a) is a                         # not copied
    wide = np.array([0, 1, 2], np.int64)
    assert gf.array(wide).dtype == gf.dtype and gf.array(wide).tolist() == [0, 1, 2]
    assert gf.array(np.zeros((0, 3))).shape == (0, 3)   # empty: any dtype
    for bad in ([0, 3], [-1], [1.0], [True], np.array([1], dtype=object)):
        with pytest.raises(ParameterError, match=r"^vector must be integers in 0\.\.2$"):
            gf.array(bad, "vector")


def test_negative_exponent_is_a_parameter_error():
    elems = np.arange(5)
    assert np.array_equal(field(5).pow(elems, 9), elems)        # a^9 = a^(8 + 1) = a
    assert np.array_equal(field(5).pow(elems, 0), np.ones(5))   # 0^0 = 1
    with pytest.raises(ParameterError, match="^negative exponent$"):
        field(5).pow(2, -1)
    assert field(5).pow(2, np.int64(3)) == 3
    # a non-integer exponent is refused, never used as an index or returned
    for call in (lambda: field(5).pow(2, 2.5), lambda: field(3).pow(2, 1.5),
                 lambda: field(3).pow(2, True)):
        with pytest.raises(ParameterError, match="exponent must be an integer"):
            call()


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    gf = field(4)
    assert (gf.p, gf.e) == (2, 2)
    assert gf.modulus == (1, 1, 1)  # x^2 + x + 1
    # exhaustive check: it is the only monic irreducible quadratic over Z_2
    irreducibles = [tail + (1,) for tail in itertools.product(range(2), repeat=2)
                    if is_irreducible(tail + (1,), 2)]
    assert irreducibles == [(1, 1, 1)]


def test_lowest_irreducible_is_lex_smallest():
    for p, e in [(2, 3), (3, 2), (5, 2)]:
        found = lowest_irreducible(p, e)
        assert is_irreducible(found, p)
        for tail in itertools.product(range(p), repeat=e):
            cand = tail + (1,)
            if cand == found:
                break
            assert not is_irreducible(cand, p)


def test_element_order_gf2_gf3_gf4():
    assert field(2).vectors.tolist() == [[0], [1]]
    assert field(3).vectors.tolist() == [[0], [1], [2]]
    # 0, 1, then lex on coefficient vectors: alpha = (0,1) before alpha+1 = (1,1)
    assert field(4).vectors.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_elements_distinct_and_complete():
    for q in PRIME_POWERS_64:
        gf = field(q)
        elems = gf.elements()
        assert len(elems) == q == len({tuple(gf.vectors[a]) for a in elems})
        assert gf.vectors[0].tolist() == [0] * gf.e
        assert gf.vectors[1].tolist() == [1] + [0] * (gf.e - 1)


def test_basic_arithmetic_examples():
    assert field(2).add(1, 1) == 0
    assert field(5).mul(3, 2) == 1
    gf4 = field(4)
    alpha = 2  # class of x
    assert gf4.mul(alpha, alpha) == 3  # alpha + 1
    assert gf4.inv(alpha) == 3
    assert field(5).inv(3) == 2
    assert field(2).inv(1) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        field(4).inv(np.array([1, 0, 2], dtype=np.uint8))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    gf = field(q)
    a, b, c = np.meshgrid(np.arange(q), np.arange(q), np.arange(q), indexing="ij")
    assert np.array_equal(gf.add(a, b), gf.add(b, a))
    assert np.array_equal(gf.mul(a, b), gf.mul(b, a))
    assert np.array_equal(gf.add(gf.add(a, b), c), gf.add(a, gf.add(b, c)))
    assert np.array_equal(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)))
    assert np.array_equal(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)))
    elems = np.arange(q)
    assert np.array_equal(gf.add(elems, 0), elems)
    assert np.array_equal(gf.mul(elems, 1), elems)
    assert np.array_equal(gf.add(elems, gf.neg(elems)), np.zeros(q))
    nz = elems[1:]
    assert np.array_equal(gf.mul(nz, gf.inv(nz)), np.ones(q - 1))


@pytest.mark.parametrize("q", [25, 27, 49, 64])
def test_field_axioms_sampled_larger(q):
    gf = field(q)
    rng = np.random.default_rng(q)
    a, b, c = rng.integers(0, q, size=(3, 500))
    assert np.array_equal(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)))
    assert np.array_equal(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_frobenius_and_unit_group_order(q):
    gf = field(q)
    elems = np.arange(q)
    assert np.array_equal(gf.pow(elems, q), elems)
    assert np.array_equal(gf.pow(elems[1:], q - 1), np.ones(q - 1))


def test_power_table_conventions():
    gf = field(9)
    assert gf.pow(0, 0) == 1  # empty product
    assert gf.pow(0, 5) == 0
    for a in gf.elements():
        for k in range(2 * gf.q):
            expected = 1
            for _ in range(k):
                expected = gf.mul(expected, a)
            assert gf.pow(a, k) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27, 243, 256, 1024])
def test_tables_match_coefficient_arithmetic(q):
    gf = field(q)
    p = gf.p
    if q in (4, 8, 9):
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = np.random.default_rng(q + 1)
        pairs = rng.integers(0, q, size=(60, 2)).tolist()
    for a, b in pairs:
        va, vb = gf.vectors[a].tolist(), gf.vectors[b].tolist()
        assert gf.vectors[gf.add(a, b)].tolist() == [(x + y) % p for x, y in zip(va, vb)]
        # multiply polynomials and reduce by the modulus
        prod = [0] * (2 * gf.e - 1)
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                prod[i + j] = (prod[i + j] + x * y) % p
        mod = gf.modulus
        for top in range(len(prod) - 1, gf.e - 1, -1):
            lead = prod[top]
            if lead:
                for j, cj in enumerate(mod):
                    prod[top - gf.e + j] = (prod[top - gf.e + j] - lead * cj) % p
        assert gf.vectors[gf.mul(a, b)].tolist() == prod[: gf.e]


def test_vectors_roundtrip_through_fold():
    gf = field(8)
    for a in gf.elements():
        assert gf.fold(gf.vectors[a]) == a
    assert np.array_equal(gf.fold(gf.vectors.T), gf.elements())


def test_field_cache_returns_same_object():
    assert field(9) is field(9)
    assert isinstance(field(9), GF)
    # one GF per integer value: numpy integers share it, and the field's own
    # numbers are Python ints
    assert field(np.int64(4)) is field(4) and field(np.uint8(9)) is field(9)
    assert type(field(np.int64(4)).q) is int
    for bad in (4.0, 2.5, True, "4", None, np.float64(4)):
        with pytest.raises(ParameterError, match="needs integer arguments"):
            field(bad)
