"""Self-contained oracles used by the test suite.

Everything here is deliberately independent of the library's linear algebra:
ranks over Q use Fractions, independence over GF(2) uses brute force over
coefficient vectors, eliminations over GF(q) go one scalar field operation
at a time, products over GF(q) are Cayley-table lookups summed one inner
index at a time, and the Betti sweep and the dense reduced homology below
build boundary matrices from first principles.  These exist so the fast
library paths are checked against code that shares nothing with them.  The
reference routes that follow (the subspace enumeration behind generalized
Hamming weights and minimal subcodes, per-term evaluation, interpolation,
substitution of linear forms) are built on those eliminations and products
or on table lookups.  The explicit codewords at the end are built the
symbolic way, as sums and powers of ExponentPoly, with no root lists.
"""

import functools
import itertools
import json
from fractions import Fraction

import numpy as np

from rmbetti import ExponentPoly, LinearCode, codes, field, ts_split
from rmbetti.errors import ParameterError, TooLargeError
from rmbetti.rm import linear_product, pinned_roots, point_order, validate_params


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


def reduced_homology_dense(masks, ell):
    """Reduced homology dimensions by degree over GF(ell) of the complex
    whose faces are the bitmasks and the empty face, which must be
    downward closed.  Each boundary matrix is dense: a face's subfaces are
    itertools.combinations of its vertices, which omit them last to first,
    and the omitted vertex's position gives the sign.  rref_scalar ranks it.
    """
    gf = field(ell)
    faces = {tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
             for mask in map(int, masks)} | {()}
    levels = [sorted(f for f in faces if len(f) == s)
              for s in range(max(map(len, faces)) + 1)]
    ranks = [0]                                  # the empty face bounds nothing
    for s in range(1, len(levels)):
        row_of = {face: row for row, face in enumerate(levels[s - 1])}
        matrix = np.zeros((len(levels[s - 1]), len(levels[s])), dtype=np.int64)
        for col, face in enumerate(levels[s]):
            for i, sub in enumerate(itertools.combinations(face, s - 1)):
                matrix[row_of[sub], col] = 1 if (s - 1 - i) % 2 == 0 else ell - 1
        ranks.append(rref_scalar(gf, matrix)[1])
    ranks.append(0)
    return {s - 1: len(level) - ranks[s] - ranks[s + 1] for s, level in enumerate(levels)}


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


def monomial_row(gf, m, exps):
    """The monomial X^exps evaluated over the point grid on its own, by
    ExponentPoly.evaluate: the one-row-at-a-time route that
    rm.generator_matrix takes for all monomials at once."""
    return ExponentPoly(gf, m, {tuple(exps): 1}).evaluate()


def evaluate_terms(gf, values, terms):
    """Sum over (exps, coef) in terms of coef * prod_i values[:, i] ** exps[i],
    one term and one variable at a time by table lookups: one entry per row
    of the (N, w) array of point values.  The reference for
    ExponentPoly.evaluate, which is this with values = point_order(q, m)."""
    out = np.zeros(values.shape[0], dtype=gf.dtype)
    for exps, coef in terms:
        col = np.full(values.shape[0], coef, dtype=gf.dtype)
        for i, e in enumerate(exps):
            if e:
                col = gf.mul(col, gf.pow(values[:, i], e))
        out = gf.add(out, col)
    return out


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


def matmul_tables(gf, a, b):
    """a @ b over GF(q) by Cayley-table lookups: the products a[:, j] b[j]
    from gf.mul, summed over j one gf.add at a time."""
    a = np.asarray(a, dtype=gf.dtype)
    b = np.asarray(b, dtype=gf.dtype)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=gf.dtype)
    for j in range(a.shape[1]):
        out = gf.add(out, gf.mul(a[:, j, None], b[j]))
    return out


def null_space_scalar(gf, mat):
    """Row basis of {v : mat @ v = 0} from rref_scalar: one row per free
    column, 1 there and 0 on the other free columns."""
    r, _, pivots = rref_scalar(gf, mat)
    _, _, _, minus_one = _scalar_tables(gf)
    free = [c for c in range(r.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), r.shape[1]), dtype=gf.dtype)
    for row, c in enumerate(free):
        basis[row, c] = 1
        basis[row, pivots] = gf.mul(minus_one, r[:len(pivots), c])
    return basis


# -- reference routes: subspaces, interpolation, substitution ---------------


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    assert num % den == 0
    return num // den


def rref_generators(gf, rows, cols):
    """Yield every full-rank rows x cols matrix in reduced row echelon form:
    one canonical basis per rows-dimensional subspace of GF(q)^cols, in a
    deterministic order (pivot columns, then free entries)."""
    for pivots in itertools.combinations(range(cols), rows):
        free_pos = [(r, c) for r in range(rows)
                    for c in range(pivots[r] + 1, cols) if c not in pivots]
        for values in itertools.product(range(gf.q), repeat=len(free_pos)):
            mat = np.zeros((rows, cols), dtype=gf.dtype)
            mat[range(rows), pivots] = 1
            for (r, c), v in zip(free_pos, values):
                mat[r, c] = v
            yield mat


def _check_subspace_count(count):
    """codes.MAX_SUBSPACES bounds every enumeration of subspaces here."""
    if count > codes.MAX_SUBSPACES:
        raise TooLargeError(
            f"{count} subspaces to enumerate exceeds guard {codes.MAX_SUBSPACES}")


def _row_space(gf, rows):
    """The canonical basis of the row space: the nonzero rows of the RREF."""
    r, rank, _ = rref_scalar(gf, rows)
    return r[:rank]


def ghw_by_subspaces(code, i):
    """d_i as the smallest support of an i-dimensional subcode, each one
    spanned by a canonical basis times G."""
    if not 1 <= i <= code.k:
        raise ParameterError(f"need 1 <= i <= k = {code.k}, got {i}")
    gf = code.gf
    _check_subspace_count(gaussian_binomial(code.k, i, gf.q))
    return min(int(np.count_nonzero(matmul_tables(gf, u, code.G).any(axis=0)))
               for u in rref_generators(gf, i, code.k))


def is_i_minimal(code, subcode_rows):
    """True iff no other subcode of the same dimension has its support
    inside the support sigma of the given one.

    For dimension 1 that is "the shortened code on sigma is a line"; for
    higher dimension every same-dimensional subspace of the shortened code
    is enumerated by canonical bases and compared with the given one."""
    gf = code.gf
    d = np.asarray(subcode_rows, dtype=gf.dtype)
    if d.ndim != 2 or d.shape[1] != code.n:
        raise ParameterError("subcode rows have the wrong length")
    if np.any(matmul_tables(gf, d, code.H.T)):
        raise ParameterError("subcode rows must be codewords")
    i = d.shape[0]
    if rref_scalar(gf, d)[1] != i:
        raise ParameterError("subcode rows are dependent")
    sigma = np.flatnonzero(d.any(axis=0))
    inside = null_space_scalar(gf, code.H[:, sigma])  # the shortened code, on sigma
    kappa = inside.shape[0]
    if i == 1:
        return kappa == 1
    _check_subspace_count(gaussian_binomial(kappa, i, gf.q))
    target = _row_space(gf, d[:, sigma])
    return all(np.array_equal(_row_space(gf, matmul_tables(gf, u, inside)), target)
               for u in rref_generators(gf, i, kappa))


@functools.lru_cache(maxsize=None)
def _inverse_vandermonde(gf):
    """V^-1 for V[a, j] = a ** j, read off rref_scalar of [V | I]."""
    q = gf.q
    v = np.array([[gf.pow(a, j) for j in range(q)] for a in range(q)], dtype=gf.dtype)
    r, rank, _ = rref_scalar(gf, np.hstack([v, np.eye(q, dtype=gf.dtype)]))
    assert rank == q, "evaluation-by-powers matrix must be invertible"
    return r[:, q:]


def interpolate(gf, m, values):
    """The unique reduced polynomial in m variables with the given evaluation
    vector: V^-1 applied along each axis of the values, read as a q x ... x q
    tensor, gives the coefficient tensor."""
    q = gf.q
    t = np.asarray(values, dtype=gf.dtype)
    if t.shape != (q ** m,):
        raise ParameterError(f"expected a length-{q ** m} vector")
    t = t.reshape((q,) * m)
    w = _inverse_vandermonde(gf)
    for axis in range(m):
        moved = matmul_tables(gf, w, np.moveaxis(t, axis, 0).reshape(q, -1))
        t = np.moveaxis(moved.reshape((q,) * m), 0, axis)
    return ExponentPoly(gf, m, {idx: int(c) for idx, c in np.ndenumerate(t) if c})


def _min_weight_constants(q, r, m, scale, pinned, excluded):
    """(field, t, pinned, excluded) of a minimum-weight word, defaults
    filled in and every constant checked."""
    validate_params(q, r, m)
    gf = field(q)
    t, s = ts_split(q, r)
    pinned = [0] * t if pinned is None else [int(x) for x in pinned]
    excluded = gf.elements()[:s] if excluded is None else [int(x) for x in excluded]
    if int(scale) == 0:
        raise ParameterError("leading scale must be nonzero")
    if len(pinned) != t:
        raise ParameterError(f"need {t} pinned values, got {len(pinned)}")
    if len(excluded) != s or len(set(excluded)) != s:
        raise ParameterError(f"need {s} distinct excluded values")
    for x in pinned + excluded:
        if not 0 <= x < q:
            raise ParameterError(f"{x} is not an element of GF({q})")
    return gf, t, pinned, excluded


def min_weight_poly(q, r, m, *, scale=1, pinned=None, excluded=None):
    """scale * [indicator of X_1..X_t = pinned] * prod_j (X_{t+1} - excluded_j)
    as the constant scale (its constructor refuses a scale outside the
    field) times one linear_product: nonzero exactly on the (q - s)
    q^(m-t-1) points fixing the first t coordinates and avoiding the s
    excluded values in coordinate t+1, the minimum weight."""
    gf, t, pinned, excluded = _min_weight_constants(q, r, m, scale, pinned, excluded)
    f = ExponentPoly.constant(gf, m, int(scale)) * linear_product(
        gf, m, pinned_roots(gf, pinned) + [(t, v) for v in excluded])
    return -f if t % 2 else f   # pinned_roots carries the sign (-1)^t


def substitute_linear_forms(f, forms, shifts=None):
    """Evaluation vector of f(L_1 + c_1, ..., L_w + c_w), point by point.

    forms is a w x m matrix of independent linear forms and shifts the
    optional constants c; f may use only its first w variables.  Nothing is
    reduced symbolically, so membership and weight are the caller's to
    check."""
    gf = f.gf
    forms = np.asarray(forms, dtype=gf.dtype)
    w, m = forms.shape
    if rref_scalar(gf, forms)[1] != w:
        raise ParameterError("substituted linear forms are dependent")
    if any(any(exps[w:]) for exps in f.terms):
        raise ParameterError(
            f"polynomial uses variables beyond the {w} substituted forms")
    shifts = [0] * w if shifts is None else [int(x) for x in shifts]
    if len(shifts) != w:
        raise ParameterError(f"need {w} shifts, got {len(shifts)}")
    if any(not 0 <= x < gf.q for x in shifts):
        raise ParameterError(f"shifts must lie in 0..{gf.q - 1}")
    values = gf.add(matmul_tables(gf, point_order(gf.q, m), forms.T),
                    np.array(shifts, dtype=gf.dtype))
    return evaluate_terms(gf, values, f.sorted_terms())


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


def variable(gf, m, i):
    """The polynomial X_i, by the ExponentPoly constructor."""
    return ExponentPoly(gf, m, {tuple(int(j == i) for j in range(m)): 1})


def _coordinate_indicator(gf, m, var, value):
    """1 - (X_var - value)^(q-1): one at points with that coordinate, else zero."""
    x = variable(gf, m, var)
    shifted = x - ExponentPoly.constant(gf, m, value)
    return ExponentPoly.constant(gf, m, 1) - power(shifted, gf.q - 1)


def min_weight_poly_symbolic(q, r, m, *, scale=1, pinned=None, excluded=None):
    """scale * [indicator of X_1..X_t = pinned] * prod_j (X_{t+1} - excluded_j)."""
    gf, t, pinned, excluded = _min_weight_constants(q, r, m, scale, pinned, excluded)
    f = ExponentPoly.constant(gf, m, int(scale))
    for i in range(t):
        f = f * _coordinate_indicator(gf, m, i, pinned[i])
    for val in excluded:
        f = f * (variable(gf, m, t) - ExponentPoly.constant(gf, m, val))
    return f


def interpolation_basis_symbolic(q, m):
    """One product of coordinate indicators per grid point."""
    gf = field(q)
    out = []
    for pt in point_order(q, m):
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
        raise ParameterError(f"this construction needs q > 3, got q={q}")
    t, s = ts_split(q, r)
    if s != 1:
        raise ParameterError(f"split of r={r} gives s={s}; need s = 1")
    if m < 2 or not 1 < r < m * (q - 1) - 1:
        raise ParameterError(
            f"need m >= 2 and 1 < r < m(q-1)-1, got m={m}, r={r}")
    gf = field(q)
    elems = gf.elements()
    f = ExponentPoly.constant(gf, m, 1)
    for i in range(t - 1):
        x = variable(gf, m, i)
        f = f * (power(x, q - 1) - ExponentPoly.constant(gf, m, 1))
    for j in range(2, q):
        f = f * (variable(gf, m, t - 1)
                 - ExponentPoly.constant(gf, m, elems[j]))
    for val in elems[:2]:
        f = f * (variable(gf, m, t)
                 - ExponentPoly.constant(gf, m, val))
    return f


def witness_poly_ternary_symbolic(m, r):
    """prod_{i<t-1} (X_i^2 - 1) * (X_{t-1} - a_2)(X_t - a_2)(X_{t+1} - a_2)
    over GF(3), with the construction's preconditions."""
    q = 3
    validate_params(q, r, m)
    t, s = ts_split(q, r)
    if s != 1:
        raise ParameterError(f"split of r={r} gives s={s}; need s = 1")
    if not 1 <= t <= m - 2:
        raise ParameterError(
            f"need 1 <= t <= m-2 for q=3, got t={t}, m={m}")
    gf = field(q)
    third = gf.elements()[2]
    f = ExponentPoly.constant(gf, m, 1)
    for i in range(t - 1):
        x = variable(gf, m, i)
        f = f * (power(x, 2) - ExponentPoly.constant(gf, m, 1))
    for var in (t - 1, t, t + 1):
        f = f * (variable(gf, m, var)
                 - ExponentPoly.constant(gf, m, third))
    return f
