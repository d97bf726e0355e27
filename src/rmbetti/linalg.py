"""Dense exact linear algebra over GF(q).

Matrices are 2-d numpy arrays of element indices (dtype per the field),
passed together with the GF instance; every entry point checks them with
``GF.array``, so an entry that is not an integer in 0..q-1 is refused, never
truncated or wrapped.  Everything is plain Gaussian elimination with one
deterministic pivot rule: the first nonzero entry in column order wins, so
canonical forms are reproducible byte for byte.  Zero-row and zero-column
matrices are legal throughout.

Products have one path for every field: coefficient planes over Z_p
(``GF.vectors``) multiply exactly in float64 BLAS, as many planes of the
left factor packed into one float as keep every sum below 2^53, and
``GF.fold`` reduces the polynomial products.  Elimination has one path too,
for prime and prime-power q alike: ``rref`` works on the lane-packed words
of ``_lanes``, a uint64 at a time, and decodes once at the end.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError, TooLargeError
from .gf import GF

# bytes of one level of reduced matrices in face_levels
MAX_LEVEL_BYTES = 1 << 27
# Working-set size, not a guard: min_weight_bruteforce XORs and face_levels
# eliminates in blocks of at most this many bytes (one item at a time once a
# single one is larger); 256 KiB keeps a block in cache and its pages reused
# from block to block.
BLOCK_BYTES = 1 << 18


@functools.lru_cache(maxsize=None)
def _lanes(gf: GF):
    """The packing rref eliminates in, built once per field:
    (code, decode, negcode, shift, bias, ones).

    Coefficient i of an element sits in bits L * i and up of one unsigned
    word, L being the smallest lane width with 2^(L-1) >= p, so the
    lane-wise sum of two packed elements never carries into the next lane.
    The word is the narrowest of uint8, uint16 and uint32 that holds L * e
    bits.  code[a] is a's word, decode[w] the element of word w (2^(L e)
    entries of the field's dtype, at most 2^20: 2 MB at GF(1024)),
    negcode[c, a] the word of -(c * a) (q x q words, 4 MB at GF(1024));
    all three are read-only.  shift is L - 1; bias holds 2^(L-1) - p and
    ones holds 1 in every lane of the 8, 4 or 2 words of one uint64, the
    unit rref updates in: adding the bias sets bit L-1 of exactly the lanes
    at or above p.
    """
    p, e = gf.p, gf.e
    lane = (p - 1).bit_length() + 1
    bits = lane * e
    word = np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32
    shifts = lane * np.arange(e)
    code = (gf.vectors.astype(word) << shifts.astype(word)).sum(axis=1, dtype=word)
    elems = np.arange(gf.q)
    decode = np.zeros(1 << bits, gf.dtype)
    decode[code] = elems
    negcode = code[gf.neg(gf.mul(elems[:, None], elems))]
    for t in (code, decode, negcode):
        t.setflags(write=False)
    ones = sum(1 << s for s in shifts.tolist())
    spread = np.ones(8 // np.dtype(word).itemsize, word).view(np.uint64)[0]
    return code, decode, negcode, lane - 1, ((1 << (lane - 1)) - p) * ones * spread, ones * spread


def rref(gf: GF, mat) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form; returns (R, rank, pivot columns).

    Eliminates on a copy packed as ``_lanes`` describes, rows padded with
    zero words to whole uint64s.  Each pivot updates the other rows a uint64
    at a time, from the one at or left of the pivot column, where the pivot
    row is zero: row minus c times the pivot row adds the words of
    -(c * pivot) lane by lane and subtracts p from every lane that reached
    it, or is one XOR when p = 2.  The words are rows of negcode[:, pivot]
    when at least q rows change, else one 2-d gather.
    """
    r = gf.array(mat)
    if r.ndim != 2:
        raise ParameterError("rref needs a 2-d matrix")
    code, decode, negcode, shift, bias, ones = _lanes(gf)
    p = gf.p
    nrows, ncols = r.shape
    per = 8 // code.itemsize                  # packed elements in one uint64
    lanes = np.zeros((nrows, -(-ncols // per) * per), code.dtype)
    lanes[:, :ncols] = code[r]
    words = lanes.view(np.uint64)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = lanes[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        src = row + int(nz[0])
        if src != row:
            lanes[[row, src], col:] = lanes[[src, row], col:]
        start = col - col % per
        piv = decode[lanes[row, start:]]
        if piv[col - start] != 1:
            piv = gf.mul(gf.inv(int(piv[col - start])), piv)
            lanes[row, start:] = code[piv]
        lanes[row, col] = 0                   # leave the pivot row out of others,
        others = lanes[:, col].nonzero()[0]
        lanes[row, col] = 1                   # then restore its 1 (whose word is 1)
        if others.size:
            factors = decode[lanes[others, col]]
            if others.size < gf.q:
                s = negcode[factors[:, None], piv]
            else:
                s = np.take(negcode, piv, axis=1)[factors]
            s = s.view(np.uint64)
            block = words[others, start // per:]
            if p == 2:
                s ^= block
            else:
                s += block
                np.add(s, bias, out=block)    # bit L-1 set in each lane >= p
                block >>= shift
                block &= ones
                block *= p
                s -= block
            words[others, start // per:] = s
            del s, block                      # two copies alive at most
        pivots.append(col)
        row += 1
    return decode[lanes[:, :ncols]], row, pivots


def rank(gf: GF, mat) -> int:
    return rref(gf, mat)[1]


def null_space(gf: GF, mat) -> np.ndarray:
    """Row basis of {v : mat @ v = 0}, one row per free column of the RREF,
    which holds 1 there and 0 on the other free columns; identity for a
    0 x n matrix."""
    r, rk, pivots = rref(gf, mat)
    ncols = r.shape[1]
    free = sorted(set(range(ncols)) - set(pivots))
    basis = np.zeros((len(free), ncols), gf.dtype)
    if free:
        basis[np.arange(len(free)), free] = 1
        if pivots:
            basis[:, pivots] = gf.neg(r[:rk, free].T)
    return basis


def row_space_equal(gf: GF, a, b) -> bool:
    a, b = gf.array(a), gf.array(b)
    if a.shape[1] != b.shape[1]:
        raise ParameterError("row spaces live in different ambient spaces")
    if np.array_equal(a, b):
        return True
    ra, ka, _ = rref(gf, a)
    rb, kb, _ = rref(gf, b)
    return ka == kb and np.array_equal(ra[:ka], rb[:kb])


def matmul(gf: GF, a, b) -> np.ndarray:
    """a @ b over GF(q): the coefficient planes a_s and b_t multiply in
    float64 BLAS, and their products accumulate into polynomial planes
    s + t, which gf.fold reduces.

    A plane product's entries are integers below 2^bits, bits being the bit
    length of n (p - 1)^2 for inner dimension n.  So g = 53 // bits planes
    of a (at most e) pack into one float, plane s scaled by 2^(bits (s mod
    g)), and each packed product is exact: every partial sum is a
    non-negative integer below 2^(g bits) <= 2^53, whatever order BLAS sums
    in.  Integer shifts and masks unpack it, so a field takes ceil(e / g) e
    products; a prime field (e = 1) takes one.
    """
    a, b = gf.array(a), gf.array(b)
    if a.shape[1] != b.shape[0]:
        raise ParameterError(f"cannot multiply {a.shape} by {b.shape}")
    e = gf.e
    bits = max(1, (a.shape[1] * (gf.p - 1) ** 2).bit_length())
    g = max(1, min(e, 53 // bits))
    planes_of = gf.vectors.T.astype(np.float64)     # planes_of[s][x]: x's coefficient s
    # packed_of[j // g][x]: x's coefficients j..j+g-1, coefficient s times 2^(bits (s - j))
    packed_of = np.array([[2.0 ** (bits * (s - j)) if j <= s < j + g else 0.0
                           for s in range(e)] for j in range(0, e, g)]) @ planes_of
    vb = np.take(planes_of, b, axis=1)
    mask = (1 << bits) - 1
    planes = np.zeros((2 * e - 1, a.shape[0], b.shape[1]), np.int64)
    for j, packed in zip(range(0, e, g), np.take(packed_of, a, axis=1)):
        prod = (packed @ vb).astype(np.int64)       # prod[t] = packed @ b_t: e products
        for s in range(j, min(e, j + g)):
            planes[s:s + e] += prod >> bits * (s - j) & mask
    return gf.fold(planes)


def matvec(gf: GF, a, v) -> np.ndarray:
    """a @ v over GF(q): matmul on the columns where v is nonzero."""
    a, v = gf.array(a), gf.array(v)
    if a.shape[1] != v.shape[0]:
        raise ParameterError(f"cannot apply {a.shape} to vector of length {v.shape[0]}")
    nz = np.flatnonzero(v)
    return matmul(gf, np.take(a, nz, axis=1), v[nz, None])[:, 0]


def face_levels(gf: GF, mat):
    """Yield (size, faces, span) for the faces of each size s = 0, 1, ...,
    a block at a time: faces holds the int64 masks of independent column
    sets of size s, in order of parent and then column; span holds, for
    those that can still grow (last column < n - 1), the size of their
    closure, their own columns included.  Joined in order, the blocks of
    one size are the whole level.

    Each face carries the matrix reduced modulo its columns: a column is in
    the closure iff its reduced vector is zero, and the face grows by the
    nonzero columns after its last one.  A child pivots on the first nonzero
    row of its new column and drops that row, which is zero afterwards, so
    the matrices lose one row per level.  A level's matrices go into one
    array, checked against MAX_LEVEL_BYTES before it is allocated (above
    it, TooLargeError and no block of the level), and are eliminated in
    blocks of at most BLOCK_BYTES of matrices (one face once a single one is
    larger); each block is yielded as soon as it is built, so a caller that
    stops early never builds the rest of the level.
    """
    mat = gf.array(mat)
    nrows, n = mat.shape
    if n >= 63:
        raise TooLargeError(f"face masks need n < 63 columns, n = {n}")
    cols = np.arange(n)
    masks = np.zeros(1, dtype=np.int64)
    grow = np.array([n > 0])                      # faces that can still grow
    last, red = np.full(1, -1)[grow], mat[None][grow]
    live = np.empty((red.shape[0], n), bool)      # the columns outside the closure
    for size in range(n + 1):                     # yields the sizes 0..n at most
        if size:
            face, last = np.nonzero(live & (cols > last[:, None]))
            if face.size == 0:
                return
            masks = masks[grow][face] | (1 << last)
            grow = last < n - 1                   # else it has no children
            face, last = face[grow], last[grow]
            nbytes = face.size * (nrows - size) * n * red.itemsize
            if nbytes > MAX_LEVEL_BYTES:
                raise TooLargeError(
                    f"face level {size} needs {nbytes} bytes of reduced matrices, "
                    f"above the limit {MAX_LEVEL_BYTES}")
            parent, red = red, np.empty((face.size, nrows - size, n), gf.dtype)
            live = np.empty((face.size, n), bool)
        step = max(1, BLOCK_BYTES // max(1, red.shape[1] * n * red.itemsize))
        block = slice(0, 0)                       # the growing faces of the block
        for start in range(0, masks.size, step):
            block = slice(block.stop, block.stop + np.count_nonzero(grow[start:start + step]))
            if size:
                red[block] = _eliminate(gf, parent, face[block], last[block])
            live[block] = red[block].any(axis=1)
            yield size, masks[start:start + step], n - live[block].sum(axis=1)
        parent = None                             # free it before the next level


def _eliminate(gf: GF, red, face, col):
    """The matrices red[face] reduced modulo their column col: each pivots on
    the first nonzero row of that column, which is then dropped."""
    v = red[face, :, col]
    piv = np.argmax(v != 0, axis=1)               # its first nonzero row
    idx = np.arange(face.size)
    pivot = gf.mul(gf.inv(v[idx, piv])[:, None], red[face, piv])
    rest = np.arange(v.shape[1] - 1)[None, :]
    rest = rest + (rest >= piv[:, None])          # the other rows, in order
    return gf.sub(red[face[:, None], rest],
                  gf.mul(v[idx[:, None], rest][:, :, None], pivot[:, None, :]))
