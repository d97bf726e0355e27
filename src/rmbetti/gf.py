"""Exact arithmetic in finite fields GF(p^e) with a canonical element order.

A field element is a plain int in ``0..q-1``: its position in the canonical
ordering (zero first, one second, everything else sorted by coefficient
vector, constant term first).  All field operations are lookups into Cayley
tables, so they accept numpy index arrays as well as ints and broadcast like
ufuncs.

There is one multiplication underneath: each element is its coefficient
vector over Z_p (``GF.vectors``), and a product is the polynomial product of
coefficient vectors folded by the modulus (``GF.fold``).  The Cayley tables
are built that way once, from the e^2 outer products of coefficient columns,
and ``linalg.matmul`` applies the same rule to whole matrices.  ``fold`` is
also the one way back from coefficients to elements: sums and negatives are
folded coefficient planes too.  An element is read through its row of
``GF.vectors``, and its powers through ``GF.powers`` or ``GF.pow``, which
reduces the exponent by a^q = a.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ParameterError, TooLargeError

# Cells in one q x q Cayley table; GF(q) refuses a larger q before building
# anything (q <= 1024).
MAX_TABLE_CELLS = 1 << 20


def is_int(value) -> bool:                 # JSON true and false are not integers
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def int_cache(fn):
    """fn cached by the integer values of its arguments: a non-integer is
    refused before the cache is read, so field(np.int64(4)) is field(4)."""
    cached = functools.lru_cache(maxsize=None)(fn)

    @functools.wraps(fn)
    def call(*args):
        if not all(map(is_int, args)):
            raise ParameterError(f"{fn.__name__} needs integer arguments, got {args}")
        return cached(*map(int, args))
    call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
    return call


def _smallest_factor(n: int) -> int:
    """The smallest divisor d >= 2 of n >= 2: n itself when n is prime."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with q = p**e, p prime; raise otherwise."""
    if q < 2:
        raise ParameterError(f"field size must be at least 2, got {q}")
    p = _smallest_factor(q)
    e = next(e for e in itertools.count(1) if p ** e >= q)
    if p ** e != q:
        raise ParameterError(f"{q} is not a prime power")
    return p, e


# Polynomials over Z_p are tuples of coefficients, constant term first.

def _poly_rem(a, b, p):
    """Coefficients of a modulo b over Z_p; b must be monic."""
    a = list(a)
    while len(a) >= len(b):
        lead = a[-1] % p
        if lead:
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - lead * bj) % p
        a.pop()
    return a


def is_irreducible(poly, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(poly, tail + (1,), p)):
                return False
    return True


def lowest_irreducible(p: int, e: int):
    """Lexicographically smallest monic irreducible of degree e over Z_p.

    Coefficient tuples are compared low-degree-first, so the enumeration
    order of itertools.product is already the comparison order.
    """
    for tail in itertools.product(range(p), repeat=e):
        cand = tail + (1,)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {e} over Z_{p}")


class GF:
    """The finite field with q elements.

    Attributes
    ----------
    q, p, e : int
        Field size, characteristic, extension degree (q = p**e).
    modulus : tuple[int, ...]
        Monic irreducible of degree e over Z_p, constant term first.
        For e = 1 this is the degree-1 placeholder (0, 1).
    dtype : numpy dtype used for element arrays.
    vectors : read-only q x e array; row a is the coefficient vector of a.
    powers : read-only q x q array; powers[a, k] = a**k for 0 <= k < q,
        with 0**0 = 1.
    """

    def __init__(self, q: int):
        if q * q > MAX_TABLE_CELLS:
            raise TooLargeError(
                f"GF({q}) needs {q}x{q} tables, above {MAX_TABLE_CELLS} cells")
        p, e = factor_prime_power(q)
        self.q, self.p, self.e = q, p, e
        self.modulus = (0, 1) if e == 1 else lowest_irreducible(p, e)
        self.dtype = np.uint8 if q < 256 else np.uint16

        # Canonical order of the coefficient vectors: a vector's lex rank
        # (first coefficient most significant) is its base-p number, and the
        # one, of lex rank p^(e-1), moves up to second place.
        self._lex_weights = p ** np.arange(e - 1, -1, -1, dtype=np.int16)
        one = p ** (e - 1)
        order = np.concatenate(([0, one], np.delete(np.arange(1, q), one - 1)))
        self.vectors = (order[:, None] // self._lex_weights % p).astype(np.int16)
        self._of_lex = np.empty(q, self.dtype)
        self._of_lex[order] = np.arange(q)

        v = self.vectors.T                        # v[s]: every element's coefficient s
        self._add = self.fold(v[:, :, None] + v[:, None, :])
        self._neg = self.fold(-v)
        self._sub = self._add[:, self._neg]
        # an entry sums at most e products of at most (p-1)^2, and fold's long
        # division stays above -e (p-1)^2, so this dtype holds every value
        planes = np.zeros((2 * e - 1, q, q), np.min_scalar_type(-e * (p - 1) ** 2))
        for s in range(e):
            for t in range(e):
                planes[s + t] += np.multiply.outer(v[s], v[t], dtype=planes.dtype)
        self._mul = self.fold(planes)
        self._inv = np.zeros(q, self.dtype)
        units, inverses = np.nonzero(self._mul == 1)
        self._inv[units] = inverses

        self.powers = np.ones((q, q), self.dtype)
        for k in range(1, q):
            self.powers[:, k] = self._mul[self.powers[:, k - 1], np.arange(q)]
        for t in (self.vectors, self.powers, self._add, self._sub, self._mul, self._neg,
                  self._inv):
            t.setflags(write=False)

    # -- element bookkeeping -------------------------------------------

    def elements(self) -> list[int]:
        """All q elements in canonical order (0, 1, then lex by coeffs)."""
        return list(range(self.q))

    def array(self, values, what: str = "entries") -> np.ndarray:
        """values as an array of the field's dtype, the array itself when it
        already has that dtype: the one check of arrays of elements.  Entries
        must be integers in 0..q-1 of an integer dtype (bool, float and object
        arrays are refused, an empty array of any dtype passes), else a
        ParameterError naming what."""
        a = np.asarray(values)
        kind = a.dtype.kind                 # only a signed array reads its minimum
        if a.size and (kind not in "iu" or a.max() >= self.q or kind == "i" and a.min() < 0):
            raise ParameterError(f"{what} must be integers in 0..{self.q - 1}")
        return a.astype(self.dtype, copy=False)

    def fold(self, planes):
        """Elements of the polynomials whose coefficients of x^w are the
        integers planes[w] (axis 0), reduced by the modulus and mod p: the
        one conversion from coefficients to elements.  e planes are read as
        they stand; dividing more needs a dtype that holds -e (p-1)^2."""
        p, e = self.p, self.e
        c = np.array(planes)                        # reduced in place below
        low = np.array(self.modulus[:e], c.dtype).reshape((e,) + (1,) * (c.ndim - 1))
        # long division, top degree first: x^w = -x^(w-e) * modulus[:e]; an
        # entry takes at most e - 1 such terms, each at least -(p-1)^2
        for w in range(len(c) - 1, e - 1, -1):
            c[w - e:w] -= low * (c[w] % p)
        return self._of_lex[np.moveaxis(c[:e], 0, -1) % p @ self._lex_weights]

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _out(res):
        return int(res) if np.ndim(res) == 0 else res

    def add(self, a, b):
        return self._out(self._add[a, b])

    def sub(self, a, b):
        return self._out(self._sub[a, b])

    def mul(self, a, b):
        return self._out(self._mul[a, b])

    def neg(self, a):
        return self._out(self._neg[a])

    def inv(self, a):
        if type(a) is int and a:
            return int(self._inv[a])
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self._out(self._inv[a])

    def pow(self, a, k: int):
        """a**k for an integer k >= 0: the exponent is reduced into 1..q-1
        by a**q = a, which holds for every element, and 0**0 = 1."""
        if not is_int(k):
            raise ParameterError(f"exponent must be an integer, got {k!r}")
        if k < 0:
            raise ParameterError("negative exponent")
        return self._out(self.powers[a, k and (k - 1) % (self.q - 1) + 1])

    def __repr__(self):
        return f"GF({self.q})"


@int_cache
def field(q: int) -> GF:
    """Shared GF(q) instance, one per integer q; fields are immutable, so
    caching is safe."""
    return GF(q)
