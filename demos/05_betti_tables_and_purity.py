"""Graded Betti numbers of the Stanley-Reisner ring of a code.

Vertices are parity-check columns, faces their independent subsets.  The
fast backend reads every restriction's contribution off one subset
transform and the code's nullity table; the homology backend computes
boundary-map ranks over a prime field.  They must agree entry for entry, and the smallest shift in each
homological position recovers the weight hierarchy.

The nullity table, dim C(W) for every column set W, is built once per code.
When the smaller of C and its dual has at most 2^n words, q^dim C(W) is
the number of words supported inside W, counted by one histogram and one
subset-sum transform; otherwise a walk over the faces builds it.  The
homology backend can be handed column permutations that fix the code; it
then ranks one restriction per orbit.
"""

import rmbetti as rb

code = rb.build_code(2, 1, 2)  # the even-weight [4, 3, 2] code
print("code:", code)
print("circuits (minimal dependent column sets):", rb.circuits(code))

fast = rb.betti_fastpath(code)
slow = rb.betti_hochster(code, ell=2)
print("\nBetti table (i, j, beta):", fast.rows())
print("homology backend agrees:", fast == slow)
print("characteristic 3 agrees too:", fast == rb.betti_hochster(code, ell=3))

verdict = rb.purity_verdict(fast)
print("\npure:", verdict.pure, " type:", verdict.type, " linear:", verdict.linear)
print("weights from the table:", rb.ghw_from_betti(fast),
      "== direct search:", rb.ghw_profile(code))

# For pure resolutions the Betti numbers follow from the shifts alone.
predicted = rb.herzog_kuhl_predicted(verdict.type)
print("closed-form prediction from the shifts:", predicted)

# A non-pure example: one homological position carries two shifts.
ternary = rb.build_code(3, 2, 2)
table = rb.betti_fastpath(ternary)
v = rb.purity_verdict(table)
print(f"\n{ternary}:")
for i, j, beta in table.rows():
    print(f"  beta_{{{i},{j}}} = {beta}")
print("pure:", v.pure, " violating positions:", v.violations)

# The affine group AGL(2, 3) fixes the code, and a column permutation that
# fixes it maps each restriction onto one with the same homology, so the
# homology backend ranks one restriction per orbit.
generators = rb.rm.affine_generators(3, 2)
reps, sizes = rb.srres.restriction_orbits(ternary, generators)
print(f"orbits swept: {len(reps)} of 2^{ternary.n} = {1 << ternary.n} restrictions")
print("orbit sweep == unreduced sweep:",
      rb.betti_hochster(ternary, 2, generators) == rb.betti_hochster(ternary, 2) == table)

# Homology conventions at the degenerate end.  Faces are int64 bitmasks,
# bit v standing for vertex v; the empty face (mask 0) is always present.
print("\none-face complex:", rb.reduced_homology_dims([0], 2))
print("two isolated points:", rb.reduced_homology_dims([0b01, 0b10], 2))
