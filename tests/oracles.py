"""Self-contained oracles used by the test suite.

Everything here is deliberately independent of the library's linear algebra:
ranks over Q use Fractions, independence over GF(2) uses brute force over
coefficient vectors, eliminations over GF(q) go one scalar field operation
at a time, and the Betti sweep below builds boundary matrices from first
principles.  These exist so the fast library paths are checked against code
that shares nothing with them.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np


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


@functools.lru_cache(maxsize=None)
def _scalar_tables(gf):
    """Cayley tables as Python lists, read through the scalar GF interface."""
    q = gf.q
    add = [[gf.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[gf.mul(a, b) for b in range(q)] for a in range(q)]
    inv = [None] + [gf.inv(a) for a in range(1, q)]
    minus_one = next(x for x in range(q) if add[1][x] == 0)
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
