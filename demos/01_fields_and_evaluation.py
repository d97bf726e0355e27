"""Finite fields, the point grid, and exact polynomial evaluation.

Elements of GF(q) are ints indexing a fixed order: 0, 1, then the rest by
coefficient vector.  Every operation is a table lookup, so whole codewords
are processed with numpy fancy indexing while staying exact.
"""

import numpy as np

import rmbetti as rb

# A prime field and an extension field.  An element is shown by its
# coefficient vector over Z_p, constant term first (a row of gf.vectors).
gf5 = rb.field(5)
gf4 = rb.field(4)

print("GF(5):", gf5.vectors.tolist())
print("GF(4):", gf4.vectors.tolist())
print("GF(4) modulus (constant term first):", gf4.modulus)

alpha = 2  # the class of x in GF(4)
print("alpha * alpha =", gf4.vectors[gf4.mul(alpha, alpha)].tolist())
print("alpha^{-1}    =", gf4.vectors[gf4.inv(alpha)].tolist())
print("alpha^3       =", gf4.vectors[gf4.pow(alpha, 3)].tolist(), "(unit group has order 3)")
print("powers alpha^0..alpha^3 as elements:", gf4.powers[alpha].tolist())

# The evaluation grid: all q^m points as the rows of one read-only array,
# origin first, leftmost coordinate most significant.
points = rb.point_order(3, 2)
print("\nfirst five points of GF(3)^2:", [tuple(map(int, p)) for p in points[:5]])

# A reduced polynomial (every variable degree < q) given as its terms:
# f = (X1+X2)^2 + 2 = X1^2 + 2 X1 X2 + X2^2 + 2 over GF(3).
gf3 = rb.field(3)
f = rb.ExponentPoly(gf3, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): 2})
print("\nf = (X1+X2)^2 + 2 has terms", f.sorted_terms())
values = f.evaluate()       # one value per row of points
print("evaluation vector:", values)
by_hand = gf3.add(gf3.pow(gf3.add(points[:, 0], points[:, 1]), 2), 2)
print("equals (x1+x2)^2 + 2 point by point:", np.array_equal(values, by_hand))

print("total degree of f:", f.total_degree())

# Evaluation is a bijection on reduced polynomials: the 9 reduced monomials
# evaluate to independent vectors, so the top-degree code is all of GF(3)^9.
top = rb.build_code(3, 4, 2)
print("reduced monomials span GF(3)^9:", top.k == top.n == 9)

# Why exponents stay below q: a^q = a for every element, so X^q and X agree
# on the grid, and a term with an exponent of q or more is refused.
print("a^3 = a on GF(3):", np.array_equal(gf3.pow(np.arange(3), 3), np.arange(3)))
try:
    rb.ExponentPoly(gf3, 2, {(3, 0): 1})
except rb.ParameterError as exc:
    print("X1^3 as a term:", exc)
