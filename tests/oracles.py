"""Self-contained oracles used by the test suite.

Everything here is deliberately independent of the library's linear algebra:
ranks over Q use Fractions, independence over GF(2) uses brute force over
coefficient vectors, eliminations over GF(q) go one scalar field operation
at a time, and the Betti sweep below builds boundary matrices from first
principles.  These exist so the fast library paths are checked against code
that shares nothing with them.  The explicit codewords at the end are built
the symbolic way, as sums and powers of ExponentPoly, with no root lists.
"""

import functools
import itertools
import json
from fractions import Fraction

import numpy as np

from rmbetti import ExponentPoly, LinearCode, field, ts_split
from rmbetti.errors import PreconditionError, WitnessParameterError
from rmbetti.rm import point_order, validate_params


def rank_rational(rows):
    """Gaussian elimination over Q; rows is a list of lists of ints."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [inv * x for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def gf2_columns_independent(cols):
    """Column independence over GF(2) by scanning all coefficient vectors."""
    if not cols:
        return True
    for coeffs in itertools.product((0, 1), repeat=len(cols)):
        if not any(coeffs):
            continue
        combo = [sum(c * col[i] for c, col in zip(coeffs, cols)) % 2
                 for i in range(len(cols[0]))]
        if not any(combo):
            return False
    return True


def betti_sweep_gf2(h_matrix, n):
    """Restriction sweep with rational homology for a binary parity check.

    Returns the sparse Betti map {(i, j): beta}; faces of the complex are
    the independent column subsets of the (possibly 0-row) h_matrix.
    """
    columns = [[row[j] for row in h_matrix] for j in range(n)]
    faces = [frozenset(s) for size in range(n + 1)
             for s in itertools.combinations(range(n), size)
             if gf2_columns_independent([columns[j] for j in s])]
    betti = {}
    for size in range(n + 1):
        for w in itertools.combinations(range(n), size):
            wset = set(w)
            by_dim = {}
            for f in faces:
                if f <= wset:
                    by_dim.setdefault(len(f) - 1, []).append(sorted(f))
            top = max(by_dim)
            ranks = {}
            for d in range(0, top + 1):
                upper = by_dim.get(d, [])
                lower = by_dim.get(d - 1, [])
                if not upper or not lower:
                    ranks[d] = 0
                    continue
                index = {tuple(f): i for i, f in enumerate(lower)}
                matrix = [[0] * len(upper) for _ in lower]
                for col, f in enumerate(upper):
                    for pos in range(len(f)):
                        sub = tuple(f[:pos] + f[pos + 1:])
                        matrix[index[sub]][col] = (-1) ** pos
                ranks[d] = rank_rational(matrix)
            for d in range(-1, top + 1):
                h = len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0)
                if h:
                    key = (size - d - 1, size)
                    betti[key] = betti.get(key, 0) + h
    return betti


def proj_dim(table):
    """Projective dimension: the last homological position of a BettiTable."""
    return max(i for i, _ in table.entries)


def alternating_sum(table):
    """sum_i (-1)^i beta_{i,j} over the whole BettiTable."""
    return sum((-1 if i % 2 else 1) * b for (i, _), b in table.entries.items())


class _Lazy(dict):
    """A table whose entry for key is f(key), computed on first use."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


@functools.lru_cache(maxsize=None)
def _scalar_tables(gf):
    """Cayley tables as Python lists, a row read through gf.add / gf.mul
    when first used: a small matrix over GF(1024) touches a few of the 1024
    rows of each 2^20-cell table."""
    elements = np.arange(gf.q)
    add = _Lazy(lambda a: gf.add(a, elements).tolist())
    mul = _Lazy(lambda a: gf.mul(a, elements).tolist())
    inv = _Lazy(gf.inv)
    minus_one = add[1].index(0)
    return add, mul, inv, minus_one


def rref_scalar(gf, rows):
    """(R, rank, pivots) like linalg.rref, with scalar gf.add/mul/inv only.

    Same pivot rule (the first nonzero entry in column order), no numpy
    elimination: each row is a Python list updated entry by entry.
    """
    nrows, ncols = np.shape(rows)
    add, mul, inv, minus_one = _scalar_tables(gf)
    r = [[int(x) for x in row] for row in rows]
    rank, pivots = 0, []
    for c in range(ncols):
        src = next((i for i in range(rank, nrows) if r[i][c]), None)
        if src is None:
            continue
        r[rank], r[src] = r[src], r[rank]
        scale = inv[r[rank][c]]
        r[rank] = [mul[scale][x] for x in r[rank]]
        for i in range(nrows):
            if i != rank and r[i][c]:
                f = mul[minus_one][r[i][c]]
                r[i] = [add[x][mul[f][y]] for x, y in zip(r[i], r[rank])]
        pivots.append(c)
        rank += 1
    return np.array(r, dtype=gf.dtype).reshape(nrows, ncols), rank, pivots


def code_from_rows(gf, rows):
    """The LinearCode spanned by rows that may be dependent: its G is their
    RREF basis, eliminated by rref_scalar."""
    r, rank, _ = rref_scalar(gf, rows)
    return LinearCode(gf, r[:rank])


def rank_profile(gf, mat):
    """profile[i] = rank of the first i+1 rows (one incremental pass)."""
    mat = np.asarray(mat, dtype=gf.dtype)
    nrows, ncols = mat.shape
    basis = []   # kept mutually reduced
    pivots = []
    profile = np.empty(nrows, dtype=np.int64)
    for i in range(nrows):
        v = mat[i].copy()
        for j, c in enumerate(pivots):
            coef = int(v[c])
            if coef:
                v = gf.sub(v, gf.mul(coef, basis[j]))
        nz = np.nonzero(v)[0]
        if nz.size:
            c = int(nz[0])
            v = gf.mul(gf.inv(int(v[c])), v)
            for j in range(len(basis)):
                coef = int(basis[j][c])
                if coef:
                    basis[j] = gf.sub(basis[j], gf.mul(coef, v))
            basis.append(v)
            pivots.append(c)
        profile[i] = len(pivots)
    return profile


def shrink_restart_scalar(gf, h, word):
    """One-minimal shrink by the restart-from-smallest greedy loop.

    Repeatedly drops the smallest coordinate whose removal leaves a nonzero
    codeword of ker h inside the support, rescanning from the smallest after
    each drop; ranks come from rref_scalar.  Returns the word spanning the
    final one-dimensional shortened code, its free coordinate set to 1.
    """
    h = np.asarray(h)
    _, mul, _, minus_one = _scalar_tables(gf)

    def shortened_dim(sigma):
        return len(sigma) - rref_scalar(gf, h[:, sigma])[1]

    sigma = [j for j, x in enumerate(word) if x]
    while True:
        for j in sigma:
            trial = [x for x in sigma if x != j]
            if shortened_dim(trial) >= 1:
                sigma = trial
                break
        else:
            break
    r, rank, pivots = rref_scalar(gf, h[:, sigma])
    assert len(sigma) - rank == 1
    free = next(c for c in range(len(sigma)) if c not in pivots)
    out = [0] * len(word)
    out[sigma[free]] = 1
    for i, c in enumerate(pivots):
        out[sigma[c]] = mul[minus_one][int(r[i, free])]
    return np.array(out, dtype=gf.dtype)


def monomial_row(gf, order, exps):
    """The monomial X^exps evaluated over the point grid on its own, by
    ExponentPoly.evaluate: the one-row-at-a-time route that
    rm.generator_matrix takes for all monomials at once."""
    return ExponentPoly(gf, order.m, {tuple(exps): 1}).evaluate(order)


def _codewords(gf, generator):
    """Every combination of the generator rows as a list, the zero word
    first: each of the q^k information vectors (itertools.product order) is
    multiplied into the rows one scalar field operation at a time."""
    add, mul, _, _ = _scalar_tables(gf)
    rows = [[int(x) for x in row] for row in generator]
    for info in itertools.product(range(gf.q), repeat=len(rows)):
        word = [0] * len(rows[0])
        for c, row in zip(info, rows):
            word = [add[x][mul[c][y]] for x, y in zip(word, row)]
        yield word


def min_weight_enumerated(gf, generator):
    """Minimum weight of a nonzero codeword by the plain scan of every word."""
    words = _codewords(gf, generator)
    next(words)                                   # the zero word
    return min(sum(1 for x in word if x) for word in words)


def enumerate_codewords(code):
    """All q^k codewords of a LinearCode as the rows of an array, the zero
    word first."""
    return np.array(list(_codewords(code.gf, code.G)), dtype=code.gf.dtype)


def minimal_codeword_supports(code):
    """Supports of nonzero codewords that contain no other nonzero
    codeword's support, sorted by (size, indices): the circuits of the
    code's matroid, found from the words alone."""
    supports = {frozenset(j for j, x in enumerate(word) if x)
                for word in _codewords(code.gf, code.G)} - {frozenset()}
    minimal = [s for s in supports if not any(t < s for t in supports)]
    return sorted((tuple(sorted(s)) for s in minimal), key=lambda s: (len(s), s))


def certificate_json(cert):
    """A certificate's JSON text: two certificates are equal when it is,
    whether either holds arrays, tuples or the lists json.load gives."""
    return json.dumps(cert, default=np.ndarray.tolist)


# -- explicit codewords, built symbolically --------------------------------


def power(f, k):
    """f multiplied by itself k times; the constant 1 for k = 0."""
    out = ExponentPoly.constant(f.gf, f.m, 1)
    for _ in range(k):
        out = out * f
    return out


def _coordinate_indicator(gf, m, var, value):
    """1 - (X_var - value)^(q-1): one at points with that coordinate, else zero."""
    x = ExponentPoly.variable(gf, m, var)
    shifted = x - ExponentPoly.constant(gf, m, value)
    return ExponentPoly.constant(gf, m, 1) - power(shifted, gf.q - 1)


def min_weight_poly_symbolic(q, r, m, *, scale=1, pinned=None, excluded=None):
    """scale * [indicator of X_1..X_t = pinned] * prod_j (X_{t+1} - excluded_j)."""
    validate_params(q, r, m)
    gf = field(q)
    t, s = ts_split(q, r)
    pinned = [0] * t if pinned is None else [int(x) for x in pinned]
    excluded = gf.elements()[:s] if excluded is None else [int(x) for x in excluded]
    if int(scale) == 0:
        raise WitnessParameterError("leading scale must be nonzero")
    if len(pinned) != t:
        raise WitnessParameterError(f"need {t} pinned values, got {len(pinned)}")
    if len(excluded) != s or len(set(excluded)) != s:
        raise WitnessParameterError(f"need {s} distinct excluded values")
    for x in pinned + excluded:
        if not 0 <= x < q:
            raise WitnessParameterError(f"{x} is not an element of GF({q})")
    f = ExponentPoly.constant(gf, m, int(scale))
    for i in range(t):
        f = f * _coordinate_indicator(gf, m, i, pinned[i])
    for val in excluded:
        f = f * (ExponentPoly.variable(gf, m, t) - ExponentPoly.constant(gf, m, val))
    return f


def interpolation_basis_symbolic(q, m):
    """One product of coordinate indicators per grid point."""
    gf = field(q)
    out = []
    for pt in point_order(q, m).points:
        f = ExponentPoly.constant(gf, m, 1)
        for j in range(m):
            f = f * _coordinate_indicator(gf, m, j, int(pt[j]))
        out.append(f)
    return out


def witness_poly_large_field_symbolic(q, m, r):
    """prod_{i<t-1} (X_i^(q-1) - 1) * prod_{j>=2} (X_{t-1} - a_j)
    * (X_t - a_0)(X_t - a_1), with the construction's preconditions."""
    validate_params(q, r, m)
    if q <= 3:
        raise PreconditionError(f"this construction needs q > 3, got q={q}")
    t, s = ts_split(q, r)
    if s != 1:
        raise PreconditionError(f"split of r={r} gives s={s}; need s = 1")
    if m < 2 or not 1 < r < m * (q - 1) - 1:
        raise PreconditionError(
            f"need m >= 2 and 1 < r < m(q-1)-1, got m={m}, r={r}")
    gf = field(q)
    elems = gf.elements()
    f = ExponentPoly.constant(gf, m, 1)
    for i in range(t - 1):
        x = ExponentPoly.variable(gf, m, i)
        f = f * (power(x, q - 1) - ExponentPoly.constant(gf, m, 1))
    for j in range(2, q):
        f = f * (ExponentPoly.variable(gf, m, t - 1)
                 - ExponentPoly.constant(gf, m, elems[j]))
    for val in elems[:2]:
        f = f * (ExponentPoly.variable(gf, m, t)
                 - ExponentPoly.constant(gf, m, val))
    return f


def witness_poly_ternary_symbolic(m, r):
    """prod_{i<t-1} (X_i^2 - 1) * (X_{t-1} - a_2)(X_t - a_2)(X_{t+1} - a_2)
    over GF(3), with the construction's preconditions."""
    q = 3
    validate_params(q, r, m)
    t, s = ts_split(q, r)
    if s != 1:
        raise PreconditionError(f"split of r={r} gives s={s}; need s = 1")
    if not 1 <= t <= m - 2:
        raise PreconditionError(
            f"need 1 <= t <= m-2 for q=3, got t={t}, m={m}")
    gf = field(q)
    third = gf.elements()[2]
    f = ExponentPoly.constant(gf, m, 1)
    for i in range(t - 1):
        x = ExponentPoly.variable(gf, m, i)
        f = f * (power(x, 2) - ExponentPoly.constant(gf, m, 1))
    for var in (t - 1, t, t + 1):
        f = f * (ExponentPoly.variable(gf, m, var)
                 - ExponentPoly.constant(gf, m, third))
    return f
