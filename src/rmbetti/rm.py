"""Generalized Reed-Muller codes over GF(q).

Everything here is exact: the reduced polynomial space (total degree <= r,
every variable degree < q), the evaluation map over the point grid, two
independent closed-form dimension formulas, the (t, s) split behind the
minimum distance, the affine maps that fix every code, and the codes
themselves with their cross-checked dimension.  The grid is one read-only
q^m x m array, point_order(q, m); its row order is the coordinate order of
every evaluation vector and every code.  Every explicit codeword is a
product of linear factors (linear_product, pinned_roots); the witnesses of
the purity analysis are listed as such factors by
verify.certificate_witness.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

import numpy as np

from . import linalg
from .codes import LinearCode
from .errors import CrossCheckError, ParameterError, TooLargeError
from .gf import GF, field, int_cache, is_int

# Largest point grid (q^m points) that point_order allocates, and most bytes
# of matrices that generator_matrix admits: G, 8 bytes a cell of G for its
# RREF (linalg.rref's lane-packed copy, 1 to 4 bytes a cell, and the row
# blocks each pivot updates) and, for build_code, H.  A larger request
# raises TooLargeError before any array is built.
MAX_POINTS = 1 << 16
MAX_MATRIX_BYTES = 1 << 30


def validate_params(q: int, r: int, m: int) -> None:
    if not all(map(is_int, (q, r, m))):
        raise ParameterError(f"parameters must be integers, got q={q!r}, r={r!r}, m={m!r}")
    if q < 2:
        raise ParameterError(f"field size must be at least 2, got q={q}")
    if m < 1:
        raise ParameterError(f"need at least one variable, got m={m}")
    if not 0 <= r <= m * (q - 1):
        raise ParameterError(
            f"degree bound r={r} outside 0..m(q-1) = {m * (q - 1)}")


def binom(a: int, b: int) -> int:
    """Binomial with the vanishing convention: 0 whenever a < 0 or a < b or b < 0."""
    if b < 0 or a < 0 or a < b:
        return 0
    return comb(a, b)


def monomial_basis(q: int, r: int, m: int) -> list[tuple[int, ...]]:
    """Exponent vectors with every entry < q and total degree <= r.

    Graded lexicographic order (total degree, then lex), so the basis for a
    smaller r is a prefix of the basis for a larger one.
    """
    validate_params(q, r, m)
    vecs = [v for v in itertools.product(range(q), repeat=m) if sum(v) <= r]
    vecs.sort(key=lambda v: (sum(v), v))
    return vecs


def dim_assmus_key(q: int, r: int, m: int) -> int:
    """Dimension by the classical double-sum formula."""
    validate_params(q, r, m)
    total = 0
    for s in range(r + 1):
        for i in range(m + 1):
            sign = -1 if i % 2 else 1
            total += sign * binom(m, i) * binom(s - i * q + m - 1, s - i * q)
    return total


def dim_inclusion_exclusion(q: int, r: int, m: int) -> int:
    """Dimension by inclusion-exclusion over the variables exceeding degree q-1."""
    validate_params(q, r, m)
    total = 0
    for i in range(m + 1):
        sign = -1 if i % 2 else 1
        total += sign * binom(m, i) * binom(m + r - i * q, m)
    return total


def ts_split(q: int, r: int) -> tuple[int, int]:
    """The unique (t, s) with r = t(q-1) + s and 0 <= s <= q-2."""
    if not (is_int(q) and is_int(r) and q >= 2 and r >= 0):
        raise ParameterError(f"need integers q >= 2 and r >= 0, got q={q!r}, r={r!r}")
    return divmod(r, q - 1)


def min_distance_formula(q: int, r: int, m: int) -> int:
    """(q - s) * q^(m-t-1); the full-space case t = m degenerates to 1."""
    validate_params(q, r, m)
    t, s = ts_split(q, r)
    if t == m:
        assert s == 0
        return 1
    return (q - s) * q ** (m - t - 1)


# -- points and polynomials ---------------------------------------------------


@int_cache
def point_order(q: int, m: int) -> np.ndarray:
    """All q^m points of GF(q)^m as the rows of a read-only q^m x m array of
    the field's dtype, leftmost coordinate most significant: the row of
    point x is sum_i x_i q^(m-1-i), so row 0 is the origin.  One array per
    integer (q, m); a q that is not a prime power, m < 1 or more than
    MAX_POINTS points is refused before it is built."""
    gf = field(q)
    if m < 1:
        raise ParameterError(f"need m >= 1, got {m}")
    if q ** min(m, 64) > MAX_POINTS:   # q >= 2, so m > 64 is over the limit too
        raise TooLargeError(f"GF({q})^{m} has more than {MAX_POINTS} points")
    pts = np.indices((q,) * m).reshape(m, -1).T.astype(gf.dtype)
    pts.setflags(write=False)
    return pts


def affine_generators(q: int, m: int) -> tuple[np.ndarray, ...]:
    """Generators of AGL(m, q) as read-only permutations of the grid of
    point_order(q, m): perm[i] is the index of the image of point i.

    The maps are x_i += 1 for each i, x_0 -> a x_0 for a = 2..q-1, the swaps
    of adjacent coordinates and x_0 += x_1 (no swap and no shear for m = 1).
    By conjugation they give every translation, diagonal map and elementary
    transvection, so they generate AGL(m, q), under which every RM_q(r, m)
    is invariant (Kasami-Lin-Peterson 1968): an affine substitution does not
    raise the total degree.
    """
    gf, pts = field(q), point_order(q, m)

    def moved(i, values):
        out = pts.copy()
        out[:, i] = values
        return out

    images = [moved(i, gf.add(pts[:, i], 1)) for i in range(m)]
    images += [moved(0, gf.mul(a, pts[:, 0])) for a in range(2, q)]
    images += [pts[:, [*range(i), i + 1, i, *range(i + 2, m)]] for i in range(m - 1)]
    if m > 1:
        images.append(moved(0, gf.add(pts[:, 0], pts[:, 1])))
    place = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    perms = tuple(image.astype(np.int64) @ place for image in images)
    for perm in perms:
        perm.setflags(write=False)
    return perms


class ExponentPoly:
    """Polynomial as a map exponent-vector -> nonzero coefficient.

    Every variable degree stays below q: products are reduced with
    X^q -> X, which preserves values on the point grid since a^q = a.
    """

    __slots__ = ("gf", "m", "terms")

    def __init__(self, gf: GF, m: int, terms=None):
        self.gf = gf
        self.m = m
        clean: dict[tuple[int, ...], int] = {}
        for exps, coef in (terms or {}).items():
            if not all(map(is_int, (coef, *exps))):
                raise ParameterError(f"term {exps}: {coef!r}: entries must be integers")
            coef = int(coef)
            if not 0 <= coef < gf.q:
                raise ParameterError(f"coefficient {coef} is not an element of GF({gf.q})")
            if coef == 0:
                continue
            exps = tuple(map(int, exps))
            if len(exps) != m:
                raise ParameterError(f"exponent vector {exps} does not have {m} entries")
            if any(not 0 <= e < gf.q for e in exps):
                raise ParameterError(f"exponent vector {exps} not reduced below q={gf.q}")
            clean[exps] = coef
        self.terms = clean

    # constructors

    @classmethod
    def constant(cls, gf: GF, m: int, c: int) -> "ExponentPoly":
        return cls(gf, m, {(0,) * m: c})

    # ring operations

    def _like(self, terms) -> "ExponentPoly":
        return ExponentPoly(self.gf, self.m, terms)

    def __add__(self, other: "ExponentPoly") -> "ExponentPoly":
        gf = self.gf
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            out[exps] = gf.add(out.get(exps, 0), coef)
        return self._like(out)

    def __neg__(self) -> "ExponentPoly":
        gf = self.gf
        return self._like({e: gf.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "ExponentPoly") -> "ExponentPoly":
        return self + (-other)

    def __mul__(self, other: "ExponentPoly") -> "ExponentPoly":
        gf = self.gf
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(gf.exp_reduce(a + b) for a, b in zip(e1, e2))
                out[exps] = gf.add(out.get(exps, 0), gf.mul(c1, c2))
        return self._like(out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExponentPoly) and self.gf is other.gf
                and self.m == other.m and self.terms == other.terms)

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def evaluate(self) -> np.ndarray:
        """Evaluation vector over the rows of point_order(q, m), by the
        tensor Vandermonde transform: the coefficients fill a (q,)*m tensor
        whose axis i is the exponent of X_i, and m products with gf.powers
        (powers[x, e] = x^e) each turn the leading exponent axis into a
        trailing point axis.  The axes end as x_0 .. x_{m-1}, the row order
        of point_order, and the cost does not depend on the number of terms.
        A grid above MAX_POINTS is refused before the tensor is allocated."""
        gf, q = self.gf, self.gf.q
        point_order(q, self.m)
        values = np.zeros((q,) * self.m, gf.dtype)
        for exps, coef in self.terms.items():
            values[exps] = coef
        for _ in range(self.m):
            values = linalg.matmul(gf, gf.powers, values.reshape(q, -1)).T
        return values.reshape(-1)

    def __repr__(self):
        if not self.terms:
            return "ExponentPoly(0)"
        bits = []
        for exps, coef in self.sorted_terms():
            mono = "*".join(f"X{i + 1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{self.gf.element_str(coef)}*{mono}" if mono
                        else self.gf.element_str(coef))
        return "ExponentPoly(" + " + ".join(bits) + ")"


# -- the codes ---------------------------------------------------------------


class RMCode(LinearCode):
    """Reed-Muller code of order r in m variables over GF(q)."""

    def __init__(self, q: int, m: int, r: int, G):
        super().__init__(field(q), G)
        self.q = q
        self.m = m
        self.r = r
        self.d = min_distance_formula(q, r, m)

    def __repr__(self):
        return (f"RMCode(q={self.q}, r={self.r}, m={self.m}) = "
                f"[{self.n}, {self.k}, {self.d}]")


def generator_matrix(q: int, r: int, m: int, *,
                     with_parity_check: bool = False) -> np.ndarray:
    """The monomial basis evaluated over the point grid, one row per monomial.

    All k monomials are evaluated at once: per variable i, one gather from
    the power table gives x_i^e for every (monomial, point) pair, and the
    Cayley table multiplies it in.  Refused before it is built when the
    k x n matrix, 8 bytes a cell of it budgeted for its elimination and,
    with_parity_check, the (n-k) x n parity-check matrix would together
    exceed MAX_MATRIX_BYTES.
    """
    validate_params(q, r, m)
    gf = field(q)
    points = point_order(q, m)
    basis = monomial_basis(q, r, m)
    k, n = len(basis), len(points)
    rows = n if with_parity_check else k          # G and H together have n rows
    nbytes = rows * n * np.dtype(gf.dtype).itemsize + k * n * 8
    if nbytes > MAX_MATRIX_BYTES:
        raise TooLargeError(f"the [{n}, {k}] code needs {nbytes} bytes of matrices, "
                            f"above the limit {MAX_MATRIX_BYTES} bytes")
    exps = np.array(basis)                        # k x m
    powers = gf.powers.T                          # powers[e, a] = a ** e
    g = powers[exps[:, 0]][:, points[:, 0]]
    for i in range(1, m):
        g = gf.mul(g, powers[exps[:, i]][:, points[:, i]])
    return g


@functools.lru_cache(maxsize=256, typed=True)
def build_code(q: int, r: int, m: int) -> RMCode:
    """Evaluate the monomial basis over the point grid; the code's one RREF
    gives H and the rank.  The cache is typed, so 4.0 and True miss 4 and 1.

    The rank is cross-checked against the monomial count and both dimension
    formulas; disagreement is a hard error, not a warning.
    """
    G = generator_matrix(q, r, m, with_parity_check=True)
    try:
        code = RMCode(q, m, r, G)
        rk = code.k
    except ParameterError:              # LinearCode refuses a rank-deficient G
        rk = linalg.rank(field(q), G)
    k, ak, ie = G.shape[0], dim_assmus_key(q, r, m), dim_inclusion_exclusion(q, r, m)
    if not (rk == k == ak == ie):
        raise CrossCheckError(
            f"dimension sources disagree for (q={q}, r={r}, m={m}): "
            f"rank={rk}, monomials={k}, double-sum={ak}, incl-excl={ie}")
    return code


# -- minimum-weight machinery -------------------------------------------------


def linear_product(gf: GF, m: int, roots) -> ExponentPoly:
    """prod (X_var - value) over the (var, value) pairs of roots.

    Every explicit codeword is built here.  No variable gets q or more
    roots, so no X^q -> X reduction is needed and the product is already the
    reduced polynomial.  Each variable's factors are multiplied together first, as a coefficient
    list, so the product grows by one polynomial of at most q terms per
    variable.
    """
    if not all(is_int(var) and is_int(value) and 0 <= var < m and 0 <= value < gf.q
               for var, value in roots):
        raise ParameterError(f"roots must pair a variable in 0..{m - 1} with an "
                             f"element of GF({gf.q})")
    f = ExponentPoly.constant(gf, m, 1)
    for var in sorted({var for var, _ in roots}):
        coefs = [1]                       # of X_var^0, X_var^1, ...
        for value in (value for v, value in roots if v == var):
            coefs = [gf.sub(lo, gf.mul(value, hi))
                     for lo, hi in zip([0] + coefs, coefs + [0])]
        f = f * ExponentPoly(gf, m, {(0,) * var + (e,) + (0,) * (m - var - 1): c
                                     for e, c in enumerate(coefs)})
    return f


def pinned_roots(gf: GF, values) -> list[tuple[int, int]]:
    """Roots of prod_i prod_{b != v_i} (X_i - b) over the values v_0, v_1, ...

    Each factor is (X_i - v_i)^(q-1) - 1: -1 where X_i = v_i and zero
    elsewhere, so the product is (-1)^len(values) times the indicator of
    the leading coordinates equalling the values, each an element of GF(q).
    """
    values = list(values)
    if not all(is_int(v) and 0 <= v < gf.q for v in values):
        raise ParameterError(f"pinned values must be elements of GF({gf.q}), got {values}")
    return [(i, b) for i, v in enumerate(values) for b in gf.elements() if b != v]
