"""Code-agnostic analytics: supports, shortening, generalized Hamming weights,
the one-minimal shrink of a codeword and the MDS predicate.

A code's matroid is its nullity table, dim C(W) for every coordinate set W,
built by one of two kernels chosen from the sizes of the code.  When the
smaller of C and its dual has at most 2^n words (q^min(k, n-k) <= 2^n, never
more words than the table has entries) they are counted: q^dim C(W) is the
number of codewords supported inside W (Greene 1976), so one histogram of
support masks and one subset-sum transform give every W.  Otherwise one walk
over the faces (independent parity-check column sets, linalg.face_levels)
does.

Generalized Hamming weights are computed over supports: d_i is the smallest
size of a coordinate set whose shortened code has dimension >= i.  They are
read off the nullity table whenever the code has one or the counting rule
admits it; otherwise one face walk finds every d_i, level by level, and
stops at the last one asked for.  That is exponential in the length n
instead of Gaussian-binomial in k; the test suite re-establishes
correctness at tiny scale against a direct enumeration of subspaces.

The minimum weight is found by meet in the middle: the spans of the two
halves of G are enumerated (at most q^ceil(k/2) words each) and packed into
bit planes of their element indices, 64 coordinates to a uint64; weight(a - b)
counts the coordinates where a and b differ, which is the popcount of the OR
over the planes of a XOR b.  The XOR runs in blocks of at most
MIN_WEIGHT_BLOCK_BYTES.  Every enumeration is guarded and fails loudly with
TooLargeError rather than truncating.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .bits import popcount_table, subset_max_accumulate, subset_sum_accumulate
from .errors import CrossCheckError, ParameterError, TooLargeError
from .gf import GF

# The size limits of the exact enumerations, each defined once; an input
# beyond one raises TooLargeError before the work starts.
MAX_TABLE_N = 20           # 2^n-entry subset tables: nullity table, support masks
MAX_SEARCH_N = 25          # ghw's face walk
MAX_ENUM = 2_000_000       # codewords enumerated (q^k); default of max_enum
# The subspaces enumerated by canonical RREF bases: no command enumerates
# them; the limit bounds only the subspace oracle of the test suite, and
# every report still prints it as guards.max_subspaces.
MAX_SUBSPACES = 1_000_000

# Working-set size, not a guard: min_weight_bruteforce XORs the packed words
# of B against the packed span A in blocks whose uint64 XOR block stays under
# this many bytes (one word of B at a time once A alone is larger); 256 KiB
# keeps the block in cache and its pages reused from call to call.
MIN_WEIGHT_BLOCK_BYTES = 1 << 18


class LinearCode:
    """A k-dimensional subspace of GF(q)^n.

    G is the given k x n generator matrix, which must have rank k; H is the
    (n-k) x n parity-check matrix that linalg.null_space reads off the one
    RREF of G, so G @ H.T = 0 and H has an identity block on the free
    columns.  Arrays are frozen after construction; treat instances as
    immutable.
    """

    def __init__(self, gf: GF, G):
        g = np.asarray(G)
        if g.ndim != 2:
            raise ParameterError("generator matrix must be 2-d")
        if g.size and (g.dtype.kind not in "buiO" or not 0 <= g.min() <= g.max() < gf.q):
            raise ParameterError(f"generator entries must be integers in 0..{gf.q - 1}")
        self.gf = gf
        self.G = g.astype(gf.dtype)
        self.k, self.n = self.G.shape
        self.H = linalg.null_space(gf, self.G)
        if self.H.shape[0] != self.n - self.k:
            raise ParameterError(f"generator matrix has rank {self.n - self.H.shape[0]}, "
                                 f"below its {self.k} rows")
        self.G.setflags(write=False)
        self.H.setflags(write=False)
        self._nullity = None

    def contains(self, v) -> bool:
        v = np.asarray(v)
        if v.shape != (self.n,):
            raise ParameterError(f"expected a length-{self.n} vector")
        if v.size and not 0 <= v.min() <= v.max() < self.gf.q:
            raise ParameterError(f"entries must lie in 0..{self.gf.q - 1}")
        return not np.any(linalg.matvec(self.gf, self.H, v.astype(self.gf.dtype)))

    def nullity_table(self) -> np.ndarray:
        """dim {c in C : supp(c) subseteq W} for every coordinate bitmask W.

        The one place a code's matroid is computed: by codeword counting
        (_nullity_by_counting) when q^min(k, n-k) <= 2^n, else by the face
        walk (_nullity_by_walk).  Faces are exactly the masks of nullity 0.
        n > MAX_TABLE_N is refused before either kernel starts.
        """
        if self._nullity is None:
            if self.n > MAX_TABLE_N:
                raise TooLargeError(
                    f"nullity table needs n <= {MAX_TABLE_N}, n = {self.n}")
            kernel = _nullity_by_counting if _counting_admits(self) else _nullity_by_walk
            table = kernel(self).astype(np.int16)
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
    return len(sigma) - linalg.rank(code.gf, code.H[:, sigma])


def shortened_basis(code: LinearCode, coords) -> np.ndarray:
    """Basis (rows) of the codewords supported inside the coordinate set."""
    sigma = _coord_set(code, coords)
    local = linalg.null_space(code.gf, code.H[:, sigma])
    out = linalg.zeros(code.gf, local.shape[0], code.n)
    if sigma:
        out[:, sigma] = local
    return out


def _counting_admits(code: LinearCode) -> bool:
    """The counting rule: the smaller of C and C-perp has no more words than
    the nullity table has entries."""
    return code.gf.q ** min(code.k, code.n - code.k) <= 1 << code.n


def _nullity_by_walk(code: LinearCode) -> np.ndarray:
    """rank(W) is the size of the largest face (independent parity-check
    column set) inside W, so one subset-max transform over the faces of the
    walk gives every rank."""
    n = code.n
    ranks = np.zeros(1 << n, dtype=np.int8)
    for size, (faces, _) in enumerate(linalg.face_levels(code.gf, code.H)):
        ranks[faces] = size
    subset_max_accumulate(ranks, n)
    return popcount_table(n).astype(np.int16) - ranks


def _nullity_by_counting(code: LinearCode) -> np.ndarray:
    """q^dim C(W) = #{c in C : supp(c) subseteq W} (Greene 1976).

    Enumerates the span of G, or of H when n - k < k; one bincount of the
    support masks and one subset-sum transform give that count N(W) for
    every W, and N(W) must be an exact power of q, else CrossCheckError.
    From the dual, dim C(W) = |W| - (n - k) + dim C-perp(E minus W), and
    E minus W is the reversed array.  The counts and the powers of q are
    int32: the counting rule bounds every N(W) by the q^min(k, n-k) <= 2^n
    words enumerated, and n <= MAX_TABLE_N = 20.
    """
    gf, n = code.gf, code.n
    dual = n - code.k < code.k
    rows = code.H if dual else code.G
    # every count is at most q^min(k, n-k) <= 2^n <= 2^20, far inside int32
    counts = np.bincount(_support_masks(_span(gf, rows)),
                         minlength=1 << n).astype(np.int32)
    subset_sum_accumulate(counts, n)
    powers = gf.q ** np.arange(len(rows) + 1, dtype=np.int32)
    # dims = how many of q^1, q^2, ... N(W) reaches, so N(W) = q^dims iff exact
    dims = np.zeros(1 << n, dtype=np.int8)
    for power in powers[1:]:
        dims += counts >= power
    bad = np.flatnonzero(powers[dims] != counts)
    if bad.size:
        raise CrossCheckError(
            f"{counts[bad[0]]} words of the span have support inside mask {bad[0]:#x}, "
            f"not a power of q = {gf.q}")
    if dual:
        return popcount_table(n).astype(np.int16) - len(rows) + dims[::-1]
    return dims


def _span(gf: GF, rows) -> np.ndarray:
    """Every combination of the given rows, the zero word first; the word
    with coefficients c_i sits at index sum c_i q^i.  Filled in place, so
    the peak is the span plus one coset of the first q^(k-1) words."""
    q = gf.q
    words = np.zeros((q ** len(rows), rows.shape[1]), dtype=gf.dtype)
    for i, row in enumerate(rows):
        block = q ** i
        for scalar in range(1, q):
            words[scalar * block:(scalar + 1) * block] = gf.add(
                words[:block], gf.mul(scalar, row)[None, :])
    return words


def _support_masks(words: np.ndarray) -> np.ndarray:
    """One int64 bitmask per word, bit j set where the word is nonzero;
    built in place a column at a time, last column first, so beside the
    masks only one bool column is allocated."""
    masks = np.zeros(len(words), dtype=np.int64)
    for j in reversed(range(words.shape[1])):
        masks <<= 1
        masks |= words[:, j] != 0
    return masks


def _bit_planes(words: np.ndarray, bits: int) -> np.ndarray:
    """Bit t of every element index of the words, packed 64 coordinates to
    a uint64 with the tail of the last one zero: a (bits, W, len(words))
    array, so that plane t of packed word w is contiguous over the words."""
    count, n = words.shape
    packed = np.zeros((bits, count, 8 * -(-n // 64)), dtype=np.uint8)
    for t in range(bits):
        packed[t, :, :-(-n // 8)] = np.packbits(words & (1 << t), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).transpose(0, 2, 1))


def min_weight_bruteforce(code: LinearCode, *, max_enum: int = MAX_ENUM) -> int:
    """Smallest weight of a nonzero codeword, by meet in the middle.

    Every codeword is a - b with a in the span A of the first ceil(k/2)
    generators and b in the span B of the rest, and weight(a - b) is the
    number of coordinates where a and b differ.  Two element indices differ
    exactly when one of their (q-1).bit_length() bits does, so on the bit
    planes of A and B weight(a - b) = sum_w popcount(OR_t (A_t,w XOR B_t,w)),
    exact for every q with no field table read.  Scaling keeps the weight,
    so b runs over the words of B whose last nonzero coefficient is 1.
    Refused before any allocation when q^k > max_enum.
    """
    if code.k == 0:
        raise ParameterError("the zero code has no nonzero codeword")
    if code.gf.q ** code.k > max_enum:
        raise TooLargeError(
            f"q^k = {code.gf.q ** code.k} exceeds the enumeration guard {max_enum}")
    gf, half = code.gf, (code.k + 1) // 2
    q, rest = gf.q, code.G[half:]
    a = _span(gf, code.G[:half])
    # B's lead-one words: row i plus each combination of the rows before it
    span = _span(gf, rest[:-1])
    b = np.empty(((q ** len(rest) - 1) // (q - 1), code.n), dtype=gf.dtype)
    for i, row in enumerate(rest):
        start = (q ** i - 1) // (q - 1)
        b[start:start + q ** i] = gf.add(span[:q ** i], row[None, :])
    del span
    best = int(np.count_nonzero(a[1:], axis=1).min())
    bits = (q - 1).bit_length()
    a, b = _bit_planes(a, bits), _bit_planes(b, bits)
    step = max(1, MIN_WEIGHT_BLOCK_BYTES // a[0, 0].nbytes)
    for start in range(0, b.shape[2], step):
        block = b[:, :, start:start + step, None]
        # every weight is at most n, so n's own type holds the sums
        weights = np.zeros((block.shape[2], a.shape[2]),
                           dtype=np.min_scalar_type(code.n))
        for w in range(a.shape[1]):
            differ = a[0, w] ^ block[0, w]
            for t in range(1, bits):
                differ |= a[t, w] ^ block[t, w]
            weights += np.bitwise_count(differ)
        best = min(best, int(weights.min()))
    return best


# -- generalized Hamming weights --------------------------------------------


def ghw(code: LinearCode, i: int) -> int:
    """Smallest support size of an i-dimensional subcode: read off the
    nullity table when the code has one or the counting rule admits it
    (n <= MAX_TABLE_N), else a face walk that stops at the level giving d_i
    (needs n <= MAX_SEARCH_N)."""
    if not 1 <= i <= code.k:
        raise ParameterError(f"need 1 <= i <= k = {code.k}, got {i}")
    return _ghw_prefix(code, i)[-1]


def ghw_profile(code: LinearCode) -> tuple[int, ...]:
    """(d_1, ..., d_k) from the nullity table or at most one face walk; ()
    for the zero code."""
    return _ghw_prefix(code, code.k) if code.k else ()


def _ghw_prefix(code: LinearCode, top: int) -> tuple[int, ...]:
    """(d_1, ..., d_top): read off the nullity table when it is built or
    the counting rule admits building it (q^min(k, n-k) <= 2^n and
    n <= MAX_TABLE_N), else from _ghw_by_walk."""
    if code._nullity is not None or (code.n <= MAX_TABLE_N and _counting_admits(code)):
        n, nullity = code.n, code.nullity_table()
        # which (nullity, |W|) cells occur, from one bincount (cells < 21^2);
        # every nullity 0..k occurs, as it climbs by at most 1 per column
        # added, so argmax is the smallest |W| at each nullity, and a suffix
        # minimum makes it min{|W| : nullity(W) >= i}
        cells = (nullity * (n + 1) + popcount_table(n)).astype(np.intp)
        present = np.bincount(cells, minlength=(code.k + 1) * (n + 1)).reshape(-1, n + 1) > 0
        smallest = np.minimum.accumulate(present.argmax(axis=1)[::-1])[::-1]
        return tuple(smallest[1:top + 1].tolist())
    return _ghw_by_walk(code, top)


def _ghw_by_walk(code: LinearCode, top: int) -> tuple[int, ...]:
    """(d_1, ..., d_top) from one face walk that stops at the level giving
    d_top; needs n <= MAX_SEARCH_N."""
    if code.n > MAX_SEARCH_N:
        raise TooLargeError(
            f"subset search needs n <= {MAX_SEARCH_N}, n = {code.n}")
    # d_i = s + i at the first size s with a face F that can still grow and
    # |cl(F)| - |F| >= i: F and i closure columns have nullity i; and a
    # smallest W of nullity >= i has no coloop at column n - 1 (it would drop),
    # so a basis F of W avoids that column and |cl(F)| - |F| >= |W| - |F| >= i.
    # d_1 < d_2 < ..., so each level appends the d_i it newly reaches.
    found: list[int] = []
    for size, (_, span) in enumerate(linalg.face_levels(code.gf, code.H)):
        excess = span.max(initial=0) - size
        while len(found) < top and excess > len(found):
            found.append(size + len(found) + 1)
        if len(found) == top:
            return tuple(found)
    raise AssertionError("unreachable: the full support has nullity k")


def shrink_to_one_minimal(code: LinearCode, v) -> tuple[np.ndarray, int, int]:
    """Shrink a codeword's support until its shortened code is a line.

    Drops, in increasing order, every coordinate whose removal still leaves
    a nonzero codeword inside; on exit the surviving 1-dimensional shortened
    code is spanned by the returned word, the null_space basis row of that
    support, whose last nonzero coefficient is 1 (its free column is the
    last one).  One pass suffices: a coordinate that is not removable never
    becomes removable, because the shortened code only shrinks.  The words
    that vanish before coordinate j are spanned by the RREF rows of the
    shortened code that pivot at or after j, so j is removable iff two such
    rows remain or none is nonzero at j: the pass keeps exactly the support
    of the last row.  When the shortened code of supp(v) is already a line,
    its one basis row spans it, so that row is the answer and nothing is
    eliminated again.

    Returns (word, dim of the shortened code on supp(v), dim of the one on
    supp(word)): the sizes of the bases it eliminated, so a caller need not
    rank those supports again.  A last dimension other than 1 raises
    CrossCheckError.
    """
    if not np.any(v):
        raise ParameterError("cannot shrink the zero word")
    if not code.contains(v):
        raise ParameterError("input is not a codeword")
    basis = shortened_basis(code, support(v))
    support_dim = basis.shape[0]
    if support_dim > 1:
        r, rk, _ = linalg.rref(code.gf, basis)
        basis = shortened_basis(code, support(r[rk - 1]))
    if basis.shape[0] != 1:
        raise CrossCheckError(
            f"greedy shrink ended at shortened dimension {basis.shape[0]}, not 1")
    return basis[0], support_dim, basis.shape[0]


def minimum_distance(code: LinearCode, *, max_enum: int = MAX_ENUM) -> int:
    """Exact minimum distance: codeword enumeration when q^k fits max_enum,
    otherwise ghw's support search (needs n <= MAX_SEARCH_N)."""
    if code.gf.q ** code.k <= max_enum:
        return min_weight_bruteforce(code, max_enum=max_enum)
    return ghw(code, 1)


def is_mds(code: LinearCode, *, max_enum: int = MAX_ENUM) -> bool:
    return minimum_distance(code, max_enum=max_enum) == code.n - code.k + 1
