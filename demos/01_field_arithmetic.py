"""
Finite fields and polynomial arithmetic
=======================================

Everything downstream (CA rules, kernels, codes) is built on exact
arithmetic over GF(q).  This demo walks through prime fields, one
extension field, and the polynomial toolkit.
"""

from cacodes import GF, Polynomial, poly_gcd

# A prime field is just residues mod p.
F5 = GF(5)
a, b = F5.element(3), F5.element(4)
print("over GF(5):", a, "*", b, "=", a * b, "   3^-1 =", a.inverse())

# GF(4) = GF(2^2): elements are pairs of bits.  The modulus is chosen
# deterministically (lexicographically smallest monic irreducible), so
# the same coefficient vector always means the same element.
F4 = GF(2, 2)
alpha = F4.element((0, 1))
print("over GF(4): alpha^2 =", alpha * alpha, "(= alpha + 1)")
print("every nonzero element has an inverse:",
      all(e * e.inverse() == F4.one for e in F4.elements() if not e.is_zero()))

# Polynomials store ascending coefficients; text form mirrors that.
f = Polynomial.from_string(F5, "1,0,2")  # 1 + 2 X^2
g = Polynomial.from_string(F5, "3,1")    # 3 + X
print("\nf =", f.display(), "   g =", g.display())
print("f * g =", (f * g).display())
q, r = divmod(f, g)
print("f = (", q.display(), ") * g + (", r.display(), ")")
assert q * g + r == f

# GCDs are monic by convention.
u = Polynomial(F5, (1, 1)) * Polynomial(F5, (2, 0, 1))
v = Polynomial(F5, (1, 1)) * Polynomial(F5, (4, 1))
d = poly_gcd(u, v)
print("\ngcd =", d.display())
assert d == Polynomial(F5, (1, 1))
