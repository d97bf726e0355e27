"""Finite fields, the point grid, and exact polynomial evaluation.

Elements of GF(q) are ints indexing a fixed order: 0, 1, then the rest by
coefficient vector.  Every operation is a table lookup, so whole codewords
are processed with numpy fancy indexing while staying exact.
"""

import numpy as np

import rmbetti as rb

# A prime field and an extension field.
gf5 = rb.field(5)
gf4 = rb.field(4)

print("GF(5):", [gf5.element_str(a) for a in gf5.elements()])
print("GF(4):", [gf4.element_str(a) for a in gf4.elements()])
print("GF(4) modulus (constant term first):", gf4.modulus)

alpha = 2  # the class of x in GF(4)
print("alpha * alpha =", gf4.element_str(gf4.mul(alpha, alpha)))
print("alpha^{-1}    =", gf4.element_str(gf4.inv(alpha)))
print("alpha^3       =", gf4.element_str(gf4.pow(alpha, 3)), "(unit group has order 3)")

# The evaluation grid: all q^m points as the rows of one read-only array,
# origin first, leftmost coordinate most significant.
points = rb.point_order(3, 2)
print("\nfirst five points of GF(3)^2:", [tuple(map(int, p)) for p in points[:5]])

# A polynomial kept reduced (every variable degree < q) as an exponent map.
gf3 = rb.field(3)
x = rb.ExponentPoly(gf3, 2, {(1, 0): 1})
y = rb.ExponentPoly(gf3, 2, {(0, 1): 1})
f = (x + y) * (x + y) + rb.ExponentPoly.constant(gf3, 2, 2)
print("\nf = (X1+X2)^2 + 2 has terms", f.sorted_terms())
values = f.evaluate()       # one value per row of points
print("evaluation vector:", values)

print("total degree of f:", f.total_degree())

# Evaluation is a bijection on reduced polynomials: the 9 reduced monomials
# evaluate to independent vectors, so the top-degree code is all of GF(3)^9.
top = rb.build_code(3, 4, 2)
print("reduced monomials span GF(3)^9:", top.k == top.n == 9)

# Sanity: X^q = X on values, so exponents reduce.
cube = x * x * x
print("X1^3 and X1 agree on the grid:", np.array_equal(cube.evaluate(), x.evaluate()))
