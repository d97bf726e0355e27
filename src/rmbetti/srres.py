"""Graded Betti numbers of the Stanley-Reisner ring attached to a linear code.

The simplicial complex has the parity-check columns as vertices; faces are
the independent column sets, read as the masks of nullity 0 from the code's
cached nullity table (LinearCode.nullity_table), which also supplies every
rank.  Two backends compute the Betti table:

* betti_hochster sweeps the vertex subsets W and sums reduced homology
  dimensions of the restricted complex over a prime field (the slow,
  assumption-free oracle).  It reads the column permutations the code
  knows fix it (code.symmetries: none for a plain LinearCode, the
  generators of AGL(m, q) for an RMCode), checks each (H G[:, perm]^T = 0)
  and ranks one W per orbit of the group they generate, counted once per
  orbit member.  Each call builds the boundary columns once from the int64
  face masks by array operations, and _restricted_homology ranks those of
  the faces inside each W (XOR bitmasks over GF(2), dicts over odd
  primes), as it ranks a whole complex for reduced_homology_dims;
* betti_fastpath uses that restrictions of this complex are again of the
  same kind, so homology is concentrated in top degree and its dimension is
  the absolute value of the reduced Euler characteristic.  Euler
  characteristics for all 2^n restrictions come from one subset-sum
  transform over the face indicator; ranks are read off the nullity table.

The two must agree wherever both run (verify.purity_by_betti compares
them); purity and linearity verdicts, closed-form Betti predictions for
pure shift types, and weight extraction from the table live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .bits import popcount_table, subset_sum_accumulate
from .codes import MAX_TABLE_N, LinearCode
from .errors import CrossCheckError, ParameterError, TooLargeError
from .gf import is_int, is_prime

# largest n whose 2^n restrictions the homology backend sweeps
MAX_HOMOLOGY_N = 12


def circuits(code: LinearCode) -> list[tuple[int, ...]]:
    """Minimal dependent column sets, sorted by (size, indices).

    These generate the Stanley-Reisner ideal; they coincide with the minimal
    supports of nonzero codewords (cross-checked in the test suite).  The
    nullity table's own guard bounds n.
    """
    n = code.n
    nullity = code.nullity_table()
    minimal = nullity >= 1
    for b in range(n):
        # every one-element deletion must be independent: a mask with bit b
        # stays only if the same mask without it has nullity 0
        without_b = nullity.reshape(-1, 2, 1 << b)[:, 0]
        minimal.reshape(-1, 2, 1 << b)[:, 1] &= without_b == 0
    out = [tuple(v for v in range(n) if mask >> v & 1)
           for mask in np.flatnonzero(minimal).tolist()]
    return sorted(out, key=lambda s: (len(s), s))


# -- reduced simplicial homology ---------------------------------------------


def check_char(ell: int) -> None:
    """Refuse homology coefficients other than an integer prime below 2^31;
    the bound comes first, so the primality test trial-divides below 2^16."""
    if not is_int(ell):
        raise ParameterError(f"homology coefficients need an integer prime, got {ell!r}")
    if ell >= 1 << 31:
        raise ParameterError(f"homology coefficients must be below 2^31, got {ell}")
    if not is_prime(ell):
        raise ParameterError(f"homology coefficients need a prime, got {ell}")


def _boundary_complex(masks: np.ndarray, ell: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per face size s, after ell is checked: the s-element int64 masks and
    the empty face, ascending, a face's row being its position there, and
    their boundary columns.  A column gives the face minus its pos-th
    smallest vertex the sign (-1)^pos, in _rank's form for ell; one
    searchsorted on level s - 1 finds these rows, and a miss means the
    faces are not downward closed.  Every subface of a face inside a vertex
    set W lies inside W, so the columns of the faces inside W are the
    boundary of Delta|W as they stand."""
    check_char(ell)
    masks = np.sort(np.append(masks, 0))
    masks = masks[np.append(True, masks[1:] != masks[:-1])]
    sizes = np.bitwise_count(masks)
    levels = np.split(masks[np.argsort(sizes, kind="stable")], np.cumsum(np.bincount(sizes))[:-1])
    columns = [[0 if ell == 2 else {}]]  # the empty face bounds nothing
    for s in range(1, len(levels)):
        previous, level = levels[s - 1], levels[s]
        subfaces, rest = np.empty((level.size, s), dtype=np.int64), level
        for pos in range(s):  # drop the lowest vertex left
            low = rest & -rest
            subfaces[:, pos], rest = level ^ low, rest ^ low
        rows = np.searchsorted(previous, subfaces)
        if not previous.size or not np.array_equal(
                previous[np.minimum(rows, previous.size - 1)], subfaces):
            raise ParameterError("faces are not downward closed")
        if ell == 2:
            columns.append([sum(1 << row for row in face_rows) for face_rows in rows.tolist()])
        else:
            signs = [1 if pos % 2 == 0 else ell - 1 for pos in range(s)]
            columns.append([dict(zip(face_rows, signs)) for face_rows in rows.tolist()])
    return [(level, np.array(level_columns, dtype=object))
            for level, level_columns in zip(levels, columns)]


def _rank(columns, ell: int) -> int:
    """Rank over GF(ell), ell prime, of sparse columns, pivoting on each
    column's highest row index.

    For ell = 2 a column is a Python-int bitmask of its nonzero rows and the
    row operation is XOR; for odd ell it is a {row: coefficient} dict of
    nonzero residues.
    """
    pivots: dict = {}
    if ell == 2:
        for c in columns:
            while c:
                top = c.bit_length() - 1
                p = pivots.get(top)
                if p is None:
                    pivots[top] = c
                    break
                c ^= p
        return len(pivots)
    for col in columns:
        c = dict(col)
        while c:
            top = max(c)
            p = pivots.get(top)
            if p is None:
                # stored normalised and without its pivot entry, which
                # every elimination below removes outright
                inv = pow(c.pop(top), -1, ell)
                pivots[top] = {row: x * inv % ell for row, x in c.items()}
                break
            factor = c.pop(top)
            for row, x in p.items():
                y = (c.get(row, 0) - factor * x) % ell
                if y:
                    c[row] = y
                else:
                    del c[row]
    return len(pivots)


def _restricted_homology(complex_, ell: int, w: int = -1) -> list[int]:
    """dim H~_{s-1} over GF(ell) of the _boundary_complex restricted to the
    vertex mask w (-1 keeps every vertex), for s = 0 up to its largest
    face: the s-chains minus the ranks of the boundaries out and in."""
    chains, ranks = [], []
    for masks, level_columns in complex_:
        inside = level_columns[(masks & ~w) == 0]
        if not inside.size:
            break  # restrictions stay downward closed: no larger face either
        chains.append(inside.size)
        ranks.append(_rank(inside.tolist(), ell))
    ranks.append(0)
    return [count - ranks[s] - ranks[s + 1] for s, count in enumerate(chains)]


def reduced_homology_dims(masks, ell: int) -> dict[int, int]:
    """Reduced homology dimensions by degree over GF(ell), ell prime.

    Faces are int64 bitmasks in a 1-d array or list, bit v for vertex v.
    The empty face is always part of the complex (added if missing), so the
    one-face complex has a single dimension in degree -1 and any complex
    with a vertex has none there.
    """
    try:
        masks = np.asarray(masks)
    except ValueError:  # ragged index tuples
        masks = np.empty((0, 0))
    if masks.ndim != 1:  # before np.append flattens [(0, 1)] into masks 0 and 1
        raise ParameterError("faces must be a 1-d array of bitmasks, not index tuples")
    if masks.size and masks.dtype.kind not in "iu":
        raise ParameterError(f"faces must be integer bitmasks below 2^63, got {masks.dtype}")
    outside = masks[(masks < 0) | (masks >= 1 << 63)]
    if outside.size:
        raise ParameterError(f"face {outside[0]}: a mask must lie in 0..2^63 - 1")
    complex_ = _boundary_complex(masks.astype(np.int64), ell)
    return dict(enumerate(_restricted_homology(complex_, ell), -1))


# -- Betti tables ------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti numbers: entries maps (i, j) to beta_{i,j} >= 1."""
    n: int
    k: int
    entries: dict

    def rows(self) -> list[tuple[int, int, int]]:
        return [(i, j, self.entries[(i, j)]) for i, j in sorted(self.entries)]

    def shifts(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for (i, j) in self.entries:
            out.setdefault(i, []).append(j)
        return {i: tuple(sorted(js)) for i, js in out.items()}

    def to_json_obj(self) -> list[dict]:
        return [{"i": i, "j": j, "beta": b} for i, j, b in self.rows()]


def restriction_orbits(code: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """One vertex mask per orbit, and the orbit sizes, of the group
    generated by code.symmetries.

    A symmetry is a permutation perm of the n columns, column j moving to
    perm[j], that fixes the code, which makes it an automorphism of the
    complex (faces are the masks of nullity 0, and nullity is carried
    along).  Each is checked: one that is not an integer permutation of the
    n columns, or moves the code (H G[:, perm]^T != 0), is a defect of its
    source and raises CrossCheckError.  Each orbit is labelled by its
    smallest mask: every mask takes the least label among its images, then
    the label of its label, until nothing moves.  A code with no symmetry
    has every mask as its own orbit.  n > MAX_TABLE_N is refused before the
    masks are allocated.
    """
    n = code.n
    if n > MAX_TABLE_N:
        raise TooLargeError(f"orbits of the 2^n masks need n <= {MAX_TABLE_N}, n = {n}")
    masks = np.arange(1 << n, dtype=np.int64)
    images = []
    for perm in code.symmetries:
        perm = np.asarray(perm)
        if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(n)):
            raise CrossCheckError(f"a symmetry of {code!r} does not permute its {n} columns")
        if np.any(linalg.matmul(code.gf, code.H, code.G[:, perm].T)):
            raise CrossCheckError(f"a symmetry of {code!r} moves the code")
        image = np.zeros_like(masks)
        for j, to in enumerate(perm.tolist()):
            image |= (masks >> j & 1) << to
        images.append(image)
    label, previous = masks, None
    while not np.array_equal(label, previous):
        previous = label
        for image in images:
            label = np.minimum(label, label[image])
        label = label[label]
    reps = np.flatnonzero(label == masks)
    return reps, np.bincount(label, minlength=1 << n)[reps]


def betti_hochster(code: LinearCode, ell: int = 2) -> BettiTable:
    """Restriction sweep: beta_{i,j} sums dim H~_{j-i-1} of Delta restricted
    to each j-subset, homology taken over GF(ell); n <= MAX_HOMOLOGY_N.

    A column permutation that fixes the code maps Delta|W onto
    Delta|perm(W), so only one W per orbit of restriction_orbits(code) is
    ranked, and its homology counts once per orbit member; a code with no
    symmetries (a plain LinearCode) has every W as its own orbit.  The
    boundary columns are built once, from the face masks alone (no rank is
    read from the nullity table).
    """
    n = code.n
    if n > MAX_HOMOLOGY_N:
        raise TooLargeError(f"2^n restriction sweep needs n <= {MAX_HOMOLOGY_N}, n = {n}")
    complex_ = _boundary_complex(np.flatnonzero(code.nullity_table() == 0), ell)
    reps, sizes = restriction_orbits(code)
    entries: dict[tuple[int, int], int] = {}
    for w, size in zip(reps.tolist(), sizes.tolist()):
        j = w.bit_count()
        for s, h in enumerate(_restricted_homology(complex_, ell, w)):
            if h:
                key = (j - s, j)  # degree d = s - 1 lands at i = j - d - 1
                entries[key] = entries.get(key, 0) + h * size
    return BettiTable(n=n, k=code.k, entries=entries)


def betti_fastpath(code: LinearCode) -> BettiTable:
    """Face-count route: no boundary matrices.

    For every restriction W the only possible homology sits in degree
    rank(W) - 1 and has dimension |chi~(W)|, so one subset-sum transform
    (signed face counts) and the code's nullity table (ranks) give the whole
    table.  The sign of every nonzero chi~ is checked against the rank
    parity, all W at once; a violation would mean the complex is not of the
    expected kind and raises instead of producing numbers.  chi~ is int32
    (|chi~(W)| <= 2^n), and one bincount over nullity * (n + 1) + |W|,
    weighted by |chi~|, fills the (i, j) grid.  The nullity table's own
    guard bounds n.
    """
    n = code.n
    nullity = code.nullity_table()
    pc = popcount_table(n)

    # each face F counts (-1)^(|F| - 1); |chi~(W)| <= #faces inside W <= 2^n,
    # so int32 holds every value
    chi = np.where(nullity == 0, 2 * (pc & 1).astype(np.int32) - 1, 0)
    subset_sum_accumulate(chi, n)

    # chi~(W) times (-1)^(rank(W) - 1): |chi~(W)| when the sign is right
    magnitude = np.where((pc - nullity) & 1 == 1, chi, -chi)
    if (magnitude < 0).any():
        raise CrossCheckError(
            "Euler characteristic signs disagree with rank parity")

    # beta_{i,j} sums |chi~(W)| over the j-subsets W of nullity i; a cell is
    # at most 2^n * 2^n < 2^53, so the float bincount is exact
    # (bincount casts a narrower index array slowly, so the cells are intp)
    cells = nullity.astype(np.intp) * (n + 1) + pc
    grid = np.bincount(cells, weights=magnitude,
                       minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
    entries = {(int(i), int(j)): int(grid[i, j])
               for i, j in zip(*np.nonzero(grid))}
    return BettiTable(n=n, k=code.k, entries=entries)


# -- purity ------------------------------------------------------------------


@dataclass(frozen=True)
class PurityVerdict:
    pure: bool
    type: tuple[int, ...] | None
    linear: bool
    violations: tuple[tuple[int, tuple[int, ...]], ...]


def purity_verdict(table: BettiTable) -> PurityVerdict:
    """Pure iff each homological position carries a single shift; linear iff
    additionally the shifts d_1..d_k are consecutive."""
    shifts = table.shifts()
    for i in range(table.k + 1):
        if i not in shifts:
            raise CrossCheckError(
                f"Betti table has no entries in homological position {i}")
    violations = tuple((i, js) for i, js in sorted(shifts.items()) if len(js) > 1)
    if violations:
        return PurityVerdict(False, None, False, violations)
    type_ = tuple(shifts[i][0] for i in range(table.k + 1))
    linear = all(type_[i + 1] == type_[i] + 1 for i in range(1, table.k))
    return PurityVerdict(True, type_, linear, ())


def herzog_kuhl_predicted(shift_type) -> list[Fraction]:
    """Closed-form Betti numbers for a pure shift type (d_0, d_1, ..., d_k).

    beta_i = prod over j != i of d_j / |d_j - d_i| (j, i >= 1), as exact
    rationals; for genuine pure resolutions these must come out integral.
    """
    d = list(shift_type)
    if not (d and all(map(is_int, d)) and all(a < b for a, b in zip(d, d[1:]))):
        raise ParameterError(f"shift type must be strictly increasing integers, got {d}")
    d = list(map(int, d))
    k = len(d) - 1
    out = []
    for i in range(1, k + 1):
        val = Fraction(1)
        for j in range(1, k + 1):
            if j != i:
                val *= Fraction(d[j], abs(d[j] - d[i]))
        out.append(val)
    return out


def ghw_from_betti(table: BettiTable) -> tuple[int, ...]:
    """d_i = smallest shift with a nonzero entry in homological position i."""
    shifts = table.shifts()
    return tuple(min(shifts[i]) for i in range(1, table.k + 1))
