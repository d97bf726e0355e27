"""Dense exact linear algebra over GF(q).

Matrices are 2-d numpy arrays of element indices (dtype per the field),
passed together with the GF instance.  Everything is plain Gaussian
elimination with one deterministic pivot rule: the first nonzero entry in
column order wins, so canonical forms are reproducible byte for byte.
Zero-row and zero-column matrices are legal throughout.

The arithmetic depends on the field.  For prime q the canonical element
index equals the residue mod p, so elimination and products run on int64
copies and reduce with ``% p``, with no table lookup.  For prime powers,
elimination reads the flat Cayley tables ``gf.mul_flat`` and
``gf.sub_flat`` at ``a * q + b``.  Either way, elimination touches only
the columns at and right of the pivot; the pivot row is zero to their left.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .gf import GF


def as_matrix(gf: GF, data) -> np.ndarray:
    m = np.array(data, dtype=gf.dtype)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and int(m.max(initial=0)) >= gf.q:
        raise ValueError("entry out of range for GF(%d)" % gf.q)
    return m


def zeros(gf: GF, rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=gf.dtype)


def identity(gf: GF, n: int) -> np.ndarray:
    m = zeros(gf, n, n)
    np.fill_diagonal(m, 1)
    return m


def rref(gf: GF, mat) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form; returns (R, rank, pivot columns)."""
    r = np.asarray(mat, dtype=gf.dtype)
    if r.ndim != 2:
        raise DimensionMismatchError("rref needs a 2-d matrix")
    r = r.astype(np.int64)
    p, q, prime = gf.p, gf.q, gf.e == 1
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.flatnonzero(r[row:, col])
        if nz.size == 0:
            continue
        src = row + int(nz[0])
        if src != row:
            swap = r[src, col:].copy()
            r[src, col:] = r[row, col:]
            r[row, col:] = swap
        piv = r[row, col:]
        inv = gf.inv(int(piv[0]))
        if inv != 1:
            piv[:] = piv * inv % p if prime else gf.mul_flat[inv * q + piv]
        f = r[:, col].copy()
        f[row] = 0
        others = np.flatnonzero(f)
        if others.size:
            block = r[others, col:]           # its first column holds the factors
            if prime:
                block -= block[:, :1] * piv
                block %= p
            else:
                block = gf.sub_flat[block * q + gf.mul_flat[block[:, :1] * q + piv]]
            r[others, col:] = block
        pivots.append(col)
        row += 1
    return r.astype(gf.dtype), row, pivots


def rank(gf: GF, mat) -> int:
    return rref(gf, mat)[1]


def null_space_from_rref(gf: GF, r: np.ndarray, rk: int, pivots, ncols: int) -> np.ndarray:
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = zeros(gf, len(free), ncols)
    if free:
        basis[np.arange(len(free)), free] = 1
        if pivots:
            basis[:, list(pivots)] = gf.neg(r[:rk, free].T)
    return basis


def null_space(gf: GF, mat) -> np.ndarray:
    """Row basis of {v : mat @ v = 0}; identity for a 0 x n matrix."""
    mat = np.asarray(mat, dtype=gf.dtype)
    r, rk, pivots = rref(gf, mat)
    return null_space_from_rref(gf, r, rk, pivots, mat.shape[1])


def row_space_equal(gf: GF, a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError("row spaces live in different ambient spaces")
    if np.array_equal(a, b):
        return True
    ra, ka, _ = rref(gf, a)
    rb, kb, _ = rref(gf, b)
    return ka == kb and np.array_equal(ra[:ka], rb[:kb])


def matmul(gf: GF, a, b) -> np.ndarray:
    """a @ b over GF(q).

    For prime q the int64 product cannot overflow: an entry sums n products
    below p**2 <= gf.MAX_TABLE_CELLS = 2**20, and the inner dimension n is
    at most the code length, rm.MAX_POINTS = 2**16, so the sum stays below
    2**36 < 2**63.
    """
    a = np.asarray(a, dtype=gf.dtype)
    b = np.asarray(b, dtype=gf.dtype)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    if gf.e == 1:
        return (a.astype(np.int64) @ b.astype(np.int64) % gf.p).astype(gf.dtype)
    out = zeros(gf, a.shape[0], b.shape[1])
    for k in range(a.shape[1]):
        out = gf.add(out, gf.mul(a[:, k][:, None], b[k][None, :]))
    return out


def matvec(gf: GF, a, v) -> np.ndarray:
    """a @ v over GF(q); the same int64 bound as matmul holds for prime q."""
    a = np.asarray(a, dtype=gf.dtype)
    v = np.asarray(v, dtype=gf.dtype)
    if a.shape[1] != v.shape[0]:
        raise DimensionMismatchError(f"cannot apply {a.shape} to vector of length {v.shape[0]}")
    if gf.e == 1:
        return (a.astype(np.int64) @ v.astype(np.int64) % gf.p).astype(gf.dtype)
    out = np.zeros(a.shape[0], dtype=gf.dtype)
    for k in np.nonzero(v)[0]:
        out = gf.add(out, gf.mul(int(v[k]), a[:, k]))
    return out


def submatrix_columns(mat: np.ndarray, cols) -> np.ndarray:
    """Column restriction; preserves the row count, validates indices."""
    mat = np.asarray(mat)
    cols = list(cols)
    for c in cols:
        if not 0 <= int(c) < mat.shape[1]:
            raise IndexError(f"column {c} out of range for {mat.shape[1]} columns")
    if not cols:
        return mat[:, :0]
    return mat[:, cols]


def independent_column_sets(gf: GF, mat) -> list[int]:
    """Bitmasks of all linearly independent column subsets (incl. the empty set).

    Level by level: every face of one size is extended at once.  Each face
    carries the matrix reduced modulo its chosen columns, so a column is
    independent from the face exactly when its reduced vector is nonzero;
    a face grows only by columns after its last one.  One batched
    elimination per level pivots each child on the first nonzero row of its
    new column and drops that row, which is zero afterwards, so the
    matrices lose one row per level.  Faces come out by size, each level in
    order of parent and then column.
    """
    mat = np.asarray(mat, dtype=gf.dtype)
    cols = np.arange(mat.shape[1])
    masks = np.zeros(1, dtype=np.int64 if cols.size < 63 else object)
    last = np.full(1, -1)
    red = mat[None]
    out = [0]
    while True:
        face, last = np.nonzero(red.any(axis=1) & (cols > last[:, None]))
        if face.size == 0:
            return out
        masks = masks[face] | (1 << last.astype(masks.dtype))
        out.extend(masks.tolist())
        grow = last < cols.size - 1               # else it has no children
        face, last, masks = face[grow], last[grow], masks[grow]
        v = red[face, :, last]                    # each child's new column
        piv = np.argmax(v != 0, axis=1)           # its first nonzero row
        idx = np.arange(face.size)
        pivot = gf.mul(gf.inv(v[idx, piv])[:, None], red[face, piv])
        rest = np.arange(v.shape[1] - 1)[None, :]
        rest = rest + (rest >= piv[:, None])      # the other rows, in order
        red = gf.sub(red[face[:, None], rest],
                     gf.mul(v[idx[:, None], rest][:, :, None], pivot[:, None, :]))
