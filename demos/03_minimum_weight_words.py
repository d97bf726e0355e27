"""Explicit minimum-weight codewords and their images under affine maps.

A word of exactly the minimum weight: pin the first t coordinates with
indicator factors and exclude s values in the next coordinate, all as one
product of linear factors.  Affine maps of the point grid fix every
Reed-Muller code, so moving the word by one keeps a minimum-weight
codeword; both facts are checked numerically, never assumed.
"""

import numpy as np

import rmbetti as rb
from rmbetti.rm import pinned_roots

q, r, m = 4, 4, 2
code = rb.build_code(q, r, m)
gf = code.gf
t, s = rb.ts_split(q, r)
print(f"RM_{q}(r={r}, m={m}) = [{code.n}, {code.k}, {code.d}], split (t, s) = ({t}, {s})")

# (-1)^t [X_1..X_t = 0] * prod_{j < s} (X_{t+1} - a_j): pinned_roots gives the
# indicator's factors, the excluded values the rest.
f = rb.linear_product(gf, m, pinned_roots(gf, [0] * t) + [(t, v) for v in range(s)])
word = f.evaluate()
print("default construction: weight", rb.weight(word), "support", rb.support(word))
print("parity check annihilates it:", code.contains(word))

# Different constants move the support but never the weight (s = 1 here,
# so exactly one excluded value); a nonzero scale moves neither.
g = rb.linear_product(gf, m, pinned_roots(gf, [2]) + [(t, 3)])
word2 = gf.mul(3, g.evaluate())
print("custom constants: weight", rb.weight(word2), "support", rb.support(word2))

# The code's own symmetries, the generators of AGL(m, q) as permutations of
# the grid: the word moved by each stays a minimum-weight codeword.
moved = [word[perm] for perm in code.symmetries]
print(f"\n{len(moved)} affine generators: weights {[rb.weight(w) for w in moved]}, "
      f"all in the code: {all(code.contains(w) for w in moved)}")

# One-point indicators: evaluations stack to the identity matrix, which is
# exactly why the top-degree code is the whole ambient space.
gf2 = rb.field(2)
indicators = [rb.linear_product(gf2, 2, pinned_roots(gf2, point.tolist()))
              for point in rb.point_order(2, 2)]
stacked = np.stack([p.evaluate() for p in indicators])
print("\nindicator stack is the 4x4 identity:", np.array_equal(stacked, np.eye(4)))

# One order below the top, the code is precisely the sum-zero hyperplane:
# its parity check is the single all-ones row.
below_top = rb.build_code(3, 3, 2)
print("codimension-one code (q=3, m=2) has parity check", below_top.H.tolist())
