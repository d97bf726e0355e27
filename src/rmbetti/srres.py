"""Graded Betti numbers of the Stanley-Reisner ring attached to a linear code.

The simplicial complex has the parity-check columns as vertices; faces are
the independent column sets, read as the masks of nullity 0 from the code's
cached nullity table (LinearCode.nullity_table), which also supplies every
rank.  Two backends compute the Betti table:

* betti_hochster sweeps every vertex subset W and sums reduced homology
  dimensions of the restricted complex over a prime field (the slow,
  assumption-free oracle);
* betti_fastpath uses that restrictions of this complex are again of the
  same kind, so homology is concentrated in top degree and its dimension is
  the absolute value of the reduced Euler characteristic.  Euler
  characteristics for all 2^n restrictions come from one subset-sum
  transform over the face indicator; ranks are read off the nullity table.

The two must agree wherever both run; purity and linearity verdicts,
closed-form Betti predictions for pure shift types, and weight extraction
from the table live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .bits import indices_of, mask_of, popcount_table, subset_sum_accumulate
from .codes import LinearCode
from .errors import (CrossCheckError, DegenerateTypeError, ParameterError,
                     TooLargeError)
from .gf import field, is_prime

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
    masks = np.arange(1 << n, dtype=np.int64)
    minimal = nullity >= 1
    for b in range(n):
        bit = 1 << b
        has_bit = (masks & bit) != 0
        # every one-element deletion must be independent
        minimal &= ~has_bit | (nullity[masks ^ bit] == 0)
    out = [indices_of(int(mask)) for mask in masks[minimal]]
    return sorted(out, key=lambda s: (len(s), s))


# -- reduced simplicial homology ---------------------------------------------


def reduced_homology_dims(faces, ell: int) -> dict[int, int]:
    """Reduced homology dimensions by degree over GF(ell), ell prime.

    Faces are bitmasks (Python or numpy ints) or index tuples.  The empty
    face is always part of the complex (added if missing), so the one-face
    complex has a single dimension in degree -1 and any complex with a
    vertex has none there.
    """
    if not is_prime(ell):
        raise ParameterError(f"homology coefficients need a prime, got {ell}")
    gfl = field(ell)
    by_size: dict[int, dict[int, int]] = {0: {0: 0}}
    for face in faces:
        f = int(face) if isinstance(face, (int, np.integer)) else mask_of(face)
        by_size.setdefault(f.bit_count(), {})[f] = 0
    for level in by_size.values():
        for pos, f in enumerate(sorted(level)):
            level[f] = pos
    top = max(by_size)
    minus_one = gfl.neg(1)
    boundary_rank: dict[int, int] = {}
    for s in range(1, top + 1):
        upper = sorted(by_size.get(s, {}))
        lower = by_size.get(s - 1, {})
        mat = linalg.zeros(gfl, len(lower), len(upper))
        for col, f in enumerate(upper):
            for pos, v in enumerate(indices_of(f)):
                sub = f ^ (1 << v)
                if sub not in lower:
                    raise ParameterError("faces are not downward closed")
                mat[lower[sub], col] = 1 if pos % 2 == 0 else minus_one
        boundary_rank[s] = linalg.rank(gfl, mat)
    dims = {}
    for s in range(0, top + 1):
        chains = len(by_size.get(s, {}))
        dims[s - 1] = chains - boundary_rank.get(s, 0) - boundary_rank.get(s + 1, 0)
    return dims


# -- Betti tables ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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

    def proj_dim(self) -> int:
        return max(i for i, _ in self.entries)

    def alternating_sum(self) -> int:
        return sum((-1 if i % 2 else 1) * b for (i, _), b in self.entries.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, BettiTable) and self.n == other.n
                and self.k == other.k and self.entries == other.entries)

    def to_json_obj(self) -> list[dict]:
        return [{"i": i, "j": j, "beta": b} for i, j, b in self.rows()]


def betti_hochster(code: LinearCode, ell: int = 2) -> BettiTable:
    """Restriction sweep: beta_{i,j} sums dim H~_{j-i-1} of Delta restricted
    to each j-subset, homology taken over GF(ell); n <= MAX_HOMOLOGY_N."""
    n = code.n
    if n > MAX_HOMOLOGY_N:
        raise TooLargeError(f"2^n restriction sweep needs n <= {MAX_HOMOLOGY_N}, n = {n}")
    if not is_prime(ell):
        raise ParameterError(f"homology coefficients need a prime, got {ell}")
    faces = np.flatnonzero(code.nullity_table() == 0)
    pc = popcount_table(n)
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << n):
        sub = faces[(faces & ~w) == 0]
        j = int(pc[w])
        for d, h in reduced_homology_dims(sub, ell).items():
            if h:
                key = (j - d - 1, j)
                entries[key] = entries.get(key, 0) + h
    return BettiTable(n=n, k=code.k, entries=entries)


def betti_fastpath(code: LinearCode) -> BettiTable:
    """Face-count route: no boundary matrices.

    For every restriction W the only possible homology sits in degree
    rank(W) - 1 and has dimension |chi~(W)|, so one subset-sum transform
    (signed face counts) and the code's nullity table (ranks) give the whole
    table.  The sign of every nonzero chi~ is checked against the rank
    parity; a violation would mean the complex is not of the expected kind
    and raises instead of producing numbers.  The nullity table's own guard
    bounds n.
    """
    n = code.n
    nullity = code.nullity_table()
    pc = popcount_table(n)
    ranks = pc - nullity

    chi = np.zeros(1 << n, dtype=np.int64)
    faces = nullity == 0
    chi[faces] = np.where(pc[faces] % 2 == 0, -1, 1)  # (-1)^(|face| - 1)
    subset_sum_accumulate(chi, n)

    nonzero = chi != 0
    expected_sign = np.where(ranks % 2 == 1, 1, -1)
    if not np.array_equal(np.sign(chi[nonzero]), expected_sign[nonzero]):
        raise CrossCheckError(
            "Euler characteristic signs disagree with rank parity")

    # beta_{i,j} sums |chi~(W)| over the j-subsets W of nullity i
    grid = np.zeros((n + 1, n + 1), dtype=np.int64)
    np.add.at(grid, (nullity[nonzero], pc[nonzero]), np.abs(chi[nonzero]))
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

    def to_json_obj(self) -> dict:
        return {
            "pure": self.pure,
            "type": list(self.type) if self.type else None,
            "linear": self.linear,
            "violations": [[i, list(js)] for i, js in self.violations],
        }


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
    d = [int(x) for x in shift_type]
    if len(d) < 1 or any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
        raise DegenerateTypeError(f"shift type must be strictly increasing, got {d}")
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
