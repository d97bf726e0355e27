"""Code-agnostic analytics: supports, shortening, generalized Hamming weights,
support-minimal subcodes, MDS and nondegeneracy predicates.

Generalized Hamming weights are computed over supports: d_i is the smallest
size of a coordinate set whose shortened code has dimension >= i.  That is
exponential in the length n instead of Gaussian-binomial in k, and a direct
subspace-enumeration oracle (ghw_by_subspaces) re-establishes correctness at
tiny scale.  Every enumeration is guarded and fails loudly with TooLargeError
rather than truncating.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .bits import popcount_table, subset_max_accumulate
from .errors import ParameterError, TooLargeError
from .gf import GF


class LinearCode:
    """A k-dimensional subspace of GF(q)^n.

    G is a full-rank k x n generator matrix, H an (n-k) x n parity-check
    matrix with G @ H.T = 0.  Arrays are frozen after construction; treat
    instances as immutable.
    """

    def __init__(self, gf: GF, G, H=None, *, validate: bool = True):
        self.gf = gf
        self.G = np.array(G, dtype=gf.dtype)
        if self.G.ndim != 2:
            raise ParameterError("generator matrix must be 2-d")
        self.k, self.n = self.G.shape
        if H is None:
            H = linalg.null_space(gf, self.G)
        self.H = np.array(H, dtype=gf.dtype)
        if self.H.shape != (self.n - self.k, self.n):
            raise ParameterError(
                f"parity-check matrix must be {self.n - self.k} x {self.n}, "
                f"got {self.H.shape}")
        if validate:
            if linalg.rank(gf, self.G) != self.k:
                raise ParameterError("generator matrix is rank deficient")
            if self.n > self.k and linalg.rank(gf, self.H) != self.n - self.k:
                raise ParameterError("parity-check matrix is rank deficient")
            if np.any(linalg.matmul(gf, self.G, self.H.T)):
                raise ParameterError("G @ H.T is nonzero")
        self.G.setflags(write=False)
        self.H.setflags(write=False)
        self._nullity = None

    @classmethod
    def from_generator(cls, gf: GF, rows) -> "LinearCode":
        """Code spanned by the given rows; the stored G is their RREF basis."""
        r, rk, _ = linalg.rref(gf, linalg.as_matrix(gf, rows))
        return cls(gf, r[:rk], validate=False)

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=self.gf.dtype)
        if v.shape != (self.n,):
            raise ParameterError(f"expected a length-{self.n} vector")
        return not np.any(linalg.matvec(self.gf, self.H, v))

    def nullity_table(self) -> np.ndarray:
        """dim {c in C : supp(c) subseteq W} for every coordinate bitmask W.

        The one place a code's matroid is computed: rank(W) is the size of
        the largest face (independent parity-check column set) inside W, so
        one subset-max transform over the faces gives every rank.  Faces are
        exactly the masks of nullity 0.
        """
        if self._nullity is None:
            n = self.n
            if n > 20:
                raise TooLargeError(f"nullity table needs n <= 20, n = {n}")
            faces = np.asarray(linalg.independent_column_sets(self.gf, self.H),
                               dtype=np.int64)
            pc = popcount_table(n)
            ranks = np.zeros(1 << n, dtype=np.int8)
            ranks[faces] = pc[faces]
            subset_max_accumulate(ranks, n)
            table = pc.astype(np.int16) - ranks
            table.setflags(write=False)
            self._nullity = table
        return self._nullity

    def __repr__(self):
        return f"LinearCode[n={self.n}, k={self.k}]_q={self.gf.q}"


def weight(v) -> int:
    return int(np.count_nonzero(np.asarray(v)))


def support(v) -> tuple[int, ...]:
    return tuple(int(i) for i in np.nonzero(np.asarray(v))[0])


def _coord_set(code: LinearCode, coords) -> list[int]:
    out = sorted({int(c) for c in coords})
    for c in out:
        if not 0 <= c < code.n:
            raise IndexError(f"coordinate {c} out of range for length {code.n}")
    return out


def shortened_dim(code: LinearCode, coords) -> int:
    """dim {c in C : supp(c) subseteq coords} = |coords| - rank(H restricted)."""
    sigma = _coord_set(code, coords)
    h_sigma = linalg.submatrix_columns(code.H, sigma)
    return len(sigma) - linalg.rank(code.gf, h_sigma)


def shortened_basis(code: LinearCode, coords) -> np.ndarray:
    """Basis (rows) of the codewords supported inside the coordinate set."""
    sigma = _coord_set(code, coords)
    h_sigma = linalg.submatrix_columns(code.H, sigma)
    local = linalg.null_space(code.gf, h_sigma)
    out = linalg.zeros(code.gf, local.shape[0], code.n)
    if sigma:
        out[:, sigma] = local
    return out


def enumerate_codewords(code: LinearCode, *, max_enum: int = 2_000_000) -> np.ndarray:
    """All q**k codewords as rows (the zero word first); guarded."""
    q = code.gf.q
    total = q ** code.k
    if total > max_enum:
        raise TooLargeError(
            f"q^k = {total} exceeds the enumeration guard {max_enum}")
    words = np.zeros((1, code.n), dtype=code.gf.dtype)
    for row in code.G:
        blocks = [words]
        for scalar in range(1, q):
            blocks.append(code.gf.add(words, code.gf.mul(scalar, row)[None, :]))
        words = np.vstack(blocks)
    return words


def min_weight_bruteforce(code: LinearCode, *, max_enum: int = 2_000_000) -> int:
    if code.k == 0:
        raise ParameterError("the zero code has no nonzero codeword")
    q = code.gf.q
    if q ** code.k > max_enum:
        raise TooLargeError(
            f"q^k = {q ** code.k} exceeds the enumeration guard {max_enum}")
    # span of all but the last generator, then its q - 1 nontrivial cosets;
    # memory stays at two q^(k-1) x n blocks instead of q^k x n
    sub = LinearCode(code.gf, code.G[:-1], validate=False) if code.k > 1 else None
    base = (enumerate_codewords(sub, max_enum=max_enum) if sub is not None
            else np.zeros((1, code.n), dtype=code.gf.dtype))
    w = np.count_nonzero(base, axis=1)
    best = int(w[w > 0].min()) if np.any(w > 0) else code.n + 1
    last = code.G[-1]
    for scalar in range(1, q):
        block = code.gf.add(base, code.gf.mul(scalar, last)[None, :])
        best = min(best, int(np.count_nonzero(block, axis=1).min()))
    return best


def minimal_codeword_supports(code: LinearCode, *, max_enum: int = 2_000_000) -> list[tuple[int, ...]]:
    """Supports of nonzero codewords that contain no smaller codeword support."""
    if code.n > 20:
        raise TooLargeError(f"support masks need n <= 20, n = {code.n}")
    words = enumerate_codewords(code, max_enum=max_enum)
    bitvals = (1 << np.arange(code.n, dtype=np.int64))
    masks = np.unique(((words != 0) * bitvals).sum(axis=1))
    masks = masks[masks != 0]
    order = np.argsort([int(m).bit_count() for m in masks], kind="stable")
    kept: list[int] = []
    for mask in masks[order]:
        mask = int(mask)
        if not any(kmask & mask == kmask for kmask in kept):
            kept.append(mask)
    supports = [tuple(i for i in range(code.n) if mask >> i & 1) for mask in kept]
    return sorted(supports, key=lambda s: (len(s), s))


# -- generalized Hamming weights --------------------------------------------


def ghw(code: LinearCode, i: int, *, max_n: int = 25) -> int:
    """Smallest support size of an i-dimensional subcode (nullity search)."""
    if not 1 <= i <= code.k:
        raise ParameterError(f"need 1 <= i <= k = {code.k}, got {i}")
    if code.n > max_n:
        raise TooLargeError(f"subset search needs n <= {max_n}, n = {code.n}")
    if code.n <= 20:
        nullity = code.nullity_table()
        pc = popcount_table(code.n)
        return int(pc[nullity >= i].min())
    gf, h = code.gf, code.H
    for size in range(i, code.n + 1):
        for sigma in itertools.combinations(range(code.n), size):
            if size - linalg.rank(gf, h[:, list(sigma)]) >= i:
                return size
    raise AssertionError("unreachable: the full support has nullity k")


def ghw_profile(code: LinearCode, *, max_n: int = 25) -> tuple[int, ...]:
    return tuple(ghw(code, i, max_n=max_n) for i in range(1, code.k + 1))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    assert num % den == 0
    return num // den


def rref_generators(gf: GF, rows: int, cols: int):
    """Yield every full-rank rows x cols matrix in reduced row echelon form.

    One canonical representative per rows-dimensional subspace of GF(q)^cols;
    deterministic order (pivot columns, then free entries).
    """
    q = gf.q
    for pivots in itertools.combinations(range(cols), rows):
        free_pos = [(r, c) for r in range(rows)
                    for c in range(pivots[r] + 1, cols) if c not in pivots]
        for values in itertools.product(range(q), repeat=len(free_pos)):
            mat = linalg.zeros(gf, rows, cols)
            for r, c in zip(range(rows), pivots):
                mat[r, c] = 1
            for (r, c), v in zip(free_pos, values):
                mat[r, c] = v
            yield mat


def is_i_minimal(code: LinearCode, subcode_rows, *, max_subspaces: int = 1_000_000) -> bool:
    """True iff no distinct subcode of the same dimension has support inside
    the given subcode's support.

    For dimension 1 this is exactly "the shortened code on the support is a
    line"; for higher dimension every same-dimensional subspace of the
    shortened code is enumerated by canonical RREF bases.
    """
    gf = code.gf
    d = linalg.as_matrix(gf, subcode_rows)
    i = d.shape[0]
    if d.shape[1] != code.n:
        raise ParameterError("subcode rows have the wrong length")
    for row in d:
        if not code.contains(row):
            raise ParameterError("subcode rows must be codewords")
    if linalg.rank(gf, d) != i:
        raise ParameterError("subcode rows are dependent")
    sigma = support(d.any(axis=0).astype(gf.dtype))
    kappa = shortened_dim(code, sigma)
    if i == 1:
        # the only codewords inside a nullity-1 support are the scalar
        # multiples of its generator
        return kappa == 1
    count = gaussian_binomial(kappa, i, gf.q)
    if count > max_subspaces:
        raise TooLargeError(
            f"{count} subspaces to enumerate exceeds guard {max_subspaces}")
    inside = shortened_basis(code, sigma)
    target = linalg.rref(gf, d)[0][:i]
    for u in rref_generators(gf, i, kappa):
        cand = linalg.matmul(gf, u, inside)
        canon = linalg.rref(gf, cand)[0][:i]
        if not np.array_equal(canon, target):
            return False
    return True


def ghw_by_subspaces(code: LinearCode, i: int, *, max_subspaces: int = 1_000_000) -> int:
    """Oracle: minimize support weight over all i-dimensional subcodes."""
    if not 1 <= i <= code.k:
        raise ParameterError(f"need 1 <= i <= k = {code.k}, got {i}")
    gf = code.gf
    count = gaussian_binomial(code.k, i, gf.q)
    if count > max_subspaces:
        raise TooLargeError(
            f"{count} subspaces to enumerate exceeds guard {max_subspaces}")
    best = code.n
    for u in rref_generators(gf, i, code.k):
        rows = linalg.matmul(gf, u, code.G)
        wt = int(np.count_nonzero(rows.any(axis=0)))
        if wt < best:
            best = wt
    return best


def shrink_to_one_minimal(code: LinearCode, v) -> np.ndarray:
    """Shrink a codeword's support until its shortened code is a line.

    Drops, in increasing order, every coordinate whose removal still leaves
    a nonzero codeword inside; on exit the surviving 1-dimensional shortened
    code is spanned by the returned (leading-coefficient-1) word.  One pass
    suffices: a coordinate that is not removable never becomes removable,
    because the shortened code only shrinks.  With a basis of the current
    shortened code (kappa rows), coordinate j is removable iff kappa >= 2 or
    the basis vanishes at j; removing it eliminates column j.
    """
    gf = code.gf
    v = np.asarray(v, dtype=gf.dtype)
    if not np.any(v):
        raise ParameterError("cannot shrink the zero word")
    if not code.contains(v):
        raise ParameterError("input is not a codeword")
    sigma = list(support(v))
    basis = shortened_basis(code, sigma)[:, sigma]
    kept = []
    for i, j in enumerate(sigma):
        nz = np.flatnonzero(basis[:, i])
        if nz.size == 0:
            continue
        if basis.shape[0] == 1:
            kept.append(j)
            continue
        pivot = gf.mul(gf.inv(int(basis[nz[0], i])), basis[nz[0]])
        basis = np.delete(basis, nz[0], axis=0)
        basis = gf.sub(basis, gf.mul(basis[:, i:i + 1], pivot[None, :]))
    basis = shortened_basis(code, kept)
    assert basis.shape[0] == 1, "greedy shrink must end at nullity 1"
    return basis[0]


def is_nondegenerate(code: LinearCode) -> bool:
    """No coordinate vanishes on the whole code."""
    return bool(code.G.any(axis=0).all()) if code.k else False


def minimum_distance(code: LinearCode, *, max_enum: int = 2_000_000,
                     max_n: int = 25) -> int:
    """Exact minimum distance: codeword enumeration when q^k fits the guard,
    otherwise the support search (needs n within its guard)."""
    if code.gf.q ** code.k <= max_enum:
        return min_weight_bruteforce(code, max_enum=max_enum)
    return ghw(code, 1, max_n=max_n)


def is_mds(code: LinearCode, *, max_enum: int = 2_000_000, max_n: int = 25) -> bool:
    return minimum_distance(code, max_enum=max_enum, max_n=max_n) == code.n - code.k + 1
