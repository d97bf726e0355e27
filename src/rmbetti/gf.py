"""Exact arithmetic in finite fields GF(p^e) with a canonical element order.

A field element is a plain int in ``0..q-1``: its position in the canonical
ordering (zero first, one second, everything else sorted by coefficient
vector, constant term first).  All field operations are lookups into Cayley
tables, so they accept numpy index arrays as well as ints and broadcast like
ufuncs.  The tables themselves are built once from coefficient-vector
arithmetic modulo an irreducible polynomial, which keeps the ground truth
with the polynomial representation while making bulk linear algebra cheap.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import NotPrimePowerError, TooLargeError

# Cells in one q x q Cayley table; GF(q) refuses a larger q before building
# anything (q <= 1024).
MAX_TABLE_CELLS = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with q = p**e, p prime; raise otherwise."""
    if q < 2:
        raise NotPrimePowerError(f"field size must be at least 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, e


# Polynomials over Z_p are tuples of coefficients, constant term first,
# with no trailing zeros (except the zero polynomial, ()).

def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a, b, p):
    """Remainder of a modulo b over Z_p; b must be monic."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - db
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - lead * bj) % p
        a.pop()
    return _poly_trim(a)


def _monic_polys(p: int, degree: int):
    for tail in itertools.product(range(p), repeat=degree):
        yield tail + (1,)


def is_irreducible(poly, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    if poly[0] == 0 and degree > 1:
        return False
    for d in range(1, degree // 2 + 1):
        for div in _monic_polys(p, d):
            if not _poly_rem(poly, div, p):
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
    """

    def __init__(self, q: int):
        if q * q > MAX_TABLE_CELLS:
            raise TooLargeError(
                f"GF({q}) needs {q}x{q} tables, above {MAX_TABLE_CELLS} cells")
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = (0, 1) if e == 1 else lowest_irreducible(p, e)
        self.dtype = np.uint8 if q < 256 else np.uint16

        zero = (0,) * e
        one = (1,) + (0,) * (e - 1)
        rest = sorted(v for v in itertools.product(range(p), repeat=e)
                      if v != zero and v != one)
        self._coeff_list = [zero, one] + rest
        self._index = {v: i for i, v in enumerate(self._coeff_list)}

        self._add = np.zeros((q, q), self.dtype)
        self._mul = np.zeros((q, q), self.dtype)
        for a in range(q):
            va = self._coeff_list[a]
            for b in range(a, q):
                vb = self._coeff_list[b]
                s = tuple((x + y) % p for x, y in zip(va, vb))
                self._add[a, b] = self._add[b, a] = self._index[s]
                prod = _poly_rem(_poly_mul(va, vb, p), self.modulus, p)
                prod = prod + (0,) * (e - len(prod))
                self._mul[a, b] = self._mul[b, a] = self._index[prod]

        self._neg = np.zeros(q, self.dtype)
        for a in range(q):
            va = self._coeff_list[a]
            self._neg[a] = self._index[tuple((-x) % p for x in va)]
        self._sub = self._add[:, self._neg]

        self._inv = np.zeros(q, self.dtype)
        for a in range(1, q):
            hits = np.nonzero(self._mul[a] == 1)[0]
            self._inv[a] = hits[0]

        # pow_table[a, k] = a**k for 0 <= k < q, with 0**0 = 1.
        self._pow = np.zeros((q, q), self.dtype)
        self._pow[:, 0] = 1
        col = np.ones(q, self.dtype)
        idx = np.arange(q)
        for k in range(1, q):
            col = self._mul[col, idx]
            self._pow[:, k] = col

        for t in (self._add, self._sub, self._mul, self._neg, self._inv, self._pow):
            t.setflags(write=False)

    # -- element bookkeeping -------------------------------------------

    def elements(self) -> list[int]:
        """All q elements in canonical order (0, 1, then lex by coeffs)."""
        return list(range(self.q))

    def coeffs(self, a: int) -> tuple[int, ...]:
        return self._coeff_list[int(a)]

    def element_from_coeffs(self, coeffs) -> int:
        c = [x % self.p for x in coeffs]
        if len(c) > self.e:
            raise ValueError(f"coefficient vector longer than degree {self.e}")
        c += [0] * (self.e - len(c))
        return self._index[tuple(c)]

    def element_str(self, a: int) -> str:
        a = int(a)
        if self.e == 1:
            return str(a)
        parts = []
        for i, c in enumerate(self.coeffs(a)):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts) if parts else "0"

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
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self._out(self._inv[a])

    def exp_reduce(self, k: int) -> int:
        """Reduce an exponent using a**q = a (valid for every element)."""
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return 0
        return (k - 1) % (self.q - 1) + 1

    def pow(self, a, k: int):
        return self._out(self._pow[a, self.exp_reduce(k)])

    def __repr__(self):
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Shared GF(q) instance; fields are immutable, so caching is safe."""
    return GF(q)
