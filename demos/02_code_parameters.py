"""Reed-Muller code parameters: two dimension formulas, one distance formula.

The dimension of the order-r code in m variables over GF(q) has two very
different closed forms; both must equal the number of reduced monomials of
degree at most r, and the rank of the evaluation matrix.  The minimum
distance comes from the split r = t(q-1) + s.
"""

import rmbetti as rb

q, m = 3, 2
print(f"q = {q}, m = {m}")
print(" r   double-sum   incl-excl   monomials   rank(G)   d")
for r in range(m * (q - 1) + 1):
    code = rb.build_code(q, r, m)
    ak = rb.dim_assmus_key(q, r, m)
    ie = rb.dim_inclusion_exclusion(q, r, m)
    count = len(rb.monomial_basis(q, r, m))
    print(f"{r:2d}   {ak:10d}   {ie:9d}   {count:9d}   {code.k:7d}   {code.d}")

# Below degree q the dimension collapses to a single binomial coefficient.
print("\nr < q: dimension is C(m+r, m):",
      all(rb.dim_inclusion_exclusion(5, r, 3) == rb.rm.binom(3 + r, 3)
          for r in range(5)))

# At the top degree the code is the whole space, which forces the binomial
# identity sum_i (-1)^i C(m,i) C((m-i)q, m) = q^m for every q and m.
print("full-space binomial identity for q <= 9, m <= 6:",
      all(rb.dim_inclusion_exclusion(q_, m_ * (q_ - 1), m_) == q_ ** m_
          for q_ in range(2, 10) for m_ in range(1, 7)))

# The distance formula against exhaustive search, exact and guarded.
print("\nbrute-force minimum weights:")
for (q_, r_, m_) in [(2, 1, 3), (3, 2, 2), (4, 2, 2), (2, 2, 4)]:
    code = rb.build_code(q_, r_, m_)
    brute = rb.min_weight_bruteforce(code)
    print(f"  RM_{q_}(r={r_}, m={m_}) = [{code.n},{code.k}]: formula {code.d}, "
          f"enumeration {brute}")

# The split behind the formula.
print("\n(t, s) splits for q = 4:",
      {r: rb.ts_split(4, r) for r in range(7)})
