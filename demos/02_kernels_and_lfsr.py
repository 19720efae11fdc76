"""
Linear CA, transition matrices, and kernels
===========================================

A bipermutive linear rule of diameter k+1 maps length-n configurations to
length n-k ones.  Its kernel (the configurations mapped to all zeros) is a
k-dimensional subspace, and the fast way to a basis is to run the rule
backwards as a shift register from k unit seeds.
"""

from cacodes import GF, LinearCA, Polynomial

F2 = GF(2)

# The rule 1 + X + X^2 over F2: each output cell is x[i] + x[i+1] + x[i+2].
rule = Polynomial(F2, (1, 1, 1))
ca = LinearCA(rule, n=6)
print("rule:", rule.display(), "  diameter:", ca.k + 1)

# Applying the CA is a banded matrix-vector product.
M = ca.transition_matrix()
print("\ntransition matrix (4 x 6):")
for row in M.rows:
    print("  ", row)

x = (1, 1, 0, 0, 1, 0)
Mx = tuple(sum(a * b for a, b in zip(row, x)) % 2 for row in M.rows)
print("\nF(", x, ") =", ca(x), "=", Mx)

# Kernel basis via the LFSR recurrence: seed the first k cells, then each
# next cell is forced by requiring every window to vanish.
seed = (1, 0)
print("\npreimage of the zero config from seed", seed, "is",
      ca.lfsr_preimage(seed))

kernel = ca.kernel()
print("\nkernel dimension:", kernel.dim, "(equals the rule degree)")
print("canonical basis rows:")
for row in kernel.basis.rows:
    print("  ", row)

# Sanity: the kernel is exactly the set of configurations the CA kills.
members = list(kernel.vectors())
assert all(all(v == 0 for v in ca(tuple(m))) for m in members)
print("\nall", len(members), "kernel vectors map to the zero configuration")
