"""Generalized Hamming weights and support-minimal subcodes.

d_i is the smallest support size carrying an i-dimensional subcode.  It is
computed here by a search over coordinate subsets (the shortened dimension
of a set W is |W| - rank of the corresponding parity-check columns).  An
i-dimensional subcode is support-minimal exactly when the shortened code on
its support has dimension i: then it is the only subcode living there.
"""

import numpy as np

import rmbetti as rb

code = rb.build_code(2, 1, 3)  # [8, 4, 4]
print("code:", code)
print("weight hierarchy:", rb.ghw_profile(code))
print("order-1 closed form q^m - q^(m-i):",
      tuple(2 ** 3 - 2 ** (3 - i) if 3 - i >= 0 else 8 for i in range(1, 5)))

# Shortened codes: what lives inside a coordinate window.
sigma = (0, 1, 2, 3)
print(f"\nshortened dimension on {sigma}:", rb.shortened_dim(code, sigma))
print("basis of the shortened code:")
print(rb.shortened_basis(code, sigma))

# Shrinking a codeword's support until it carries a single line.
heavy = np.ones(code.n, dtype=code.gf.dtype)
assert code.contains(heavy)
shrunk, heavy_dim, _ = rb.shrink_to_one_minimal(code, heavy)
print("\nall-ones word (shortened dimension", heavy_dim, "on its support)",
      "shrinks to support", rb.support(shrunk), "of weight", rb.weight(shrunk))
print("its span is support-minimal:", rb.shortened_dim(code, rb.support(shrunk)) == 1)

# A 2-dimensional example in the even-weight code.
even = rb.build_code(2, 1, 2)
pair = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=even.gf.dtype)
print("\n2-dim subcode on a 3-point support is minimal:",
      rb.shortened_dim(even, rb.support(pair.any(axis=0))) == 2)
full_pair = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=even.gf.dtype)
print("2-dim subcode with full support is not:",
      rb.shortened_dim(even, rb.support(full_pair.any(axis=0))) == 2)

# MDS means the hierarchy is as tight as possible: d_i = n - k + i.
mds = rb.build_code(3, 3, 2)
print(f"\n{mds} is MDS: {rb.is_mds(mds)}; hierarchy {rb.ghw_profile(mds)}")
