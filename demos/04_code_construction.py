"""
Building codes: counting, uniform-GCD families, exact search
============================================================

How many degree-k rules can be pairwise coprime?  The bound comes from
counting irreducible polynomials (Gauss's formula with the X factor
excluded), and a greedy-free exact search over the rule space confirms it.
The uniform-GCD construction then produces families whose every pair meets
a prescribed gcd exactly, hence equidistant codes.
"""

import itertools

from cacodes import (
    GF,
    CAFamily,
    Polynomial,
    code_from_family,
    count_irreducibles,
    expected_uniform_gcd_size,
    max_coprime_family_size,
    poly_gcd,
    search_max_family,
    uniform_gcd_family,
    verify_family,
)

F2 = GF(2)

# Irreducible counts over F2, with and without the (excluded) factor X.
print("degree:            ", list(range(1, 7)))
print("irreducibles:      ", [count_irreducibles(n, F2) for n in range(1, 7)])
print("without X:         ", [count_irreducibles(n, F2, exclude_x=True)
                              for n in range(1, 7)])
print("max coprime family:", [max_coprime_family_size(k, F2)
                              for k in range(1, 7)])

# The k = 4 bound says at most 5 pairwise-coprime quartic rules exist.
# Exact search (branch and bound over the whole rule space) agrees.
best, _ = search_max_family(4, 0, F2)
print("\nexact search at k = 4, gcd degree 0 finds", len(best), "rules:")
for f in best:
    print("  ", f.display())
assert len(best) == max_coprime_family_size(4, F2)

# Uniform-GCD construction: every pair of members has gcd exactly g.
g = Polynomial(F2, (1, 1))
S, max_gcd = uniform_gcd_family(4, g)
print("\nuniform family with gcd g =", g.display(), "at k = 4:")
for f in S:
    print("  ", f.display(), " = (", (f // g).display(), ") * g")
assert len(S) == expected_uniform_gcd_size(4, int(g.degree), F2)
assert all(poly_gcd(a, b) == g for a, b in itertools.combinations(S, 2))
assert max_gcd == g.degree

report = verify_family(list(S), g=g)
print("verification:", "ok" if report.ok else report.detail,
      "(%d pairs checked)" % report.pairs_checked)

# The resulting code is equidistant: distance 2k - 2t between every pair.
code = code_from_family(CAFamily(list(S)))
print("\ncode parameters:", code.params())
print("minimum distance:", code.min_distance(), "= 2k - 2t =", 2 * 4 - 2 * 1)
