"""Independent reference implementations used as test oracles.

Everything here works on plain integer tuples modulo a prime p, or on the
integer codes of GF(p^m) given its modulus, written from scratch against
the definitions: convolution products, schoolbook long division, Euclid
and trial division, brute-force kernel enumeration, span-set subspace
arithmetic, plain elimination, exhaustive clique search and exhaustive
minimum-distance decoding.  Nothing imports the library's arithmetic, so
agreement between these and the package is a genuine two-route check.
"""

from __future__ import annotations

import functools
import itertools


def trim(coeffs) -> tuple[int, ...]:
    """Canonical form: drop trailing zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def scalar_ops(p: int, modulus=None):
    """Functions add, mul, neg and inv on element codes.

    Over GF(p) they work on plain residues mod p.  Pass the modulus of
    GF(p^m) to read them from its ``gfq_tables``, inverses and negatives
    found by search.
    """
    if modulus is None:
        return (
            lambda x, y: (x + y) % p,
            lambda x, y: x * y % p,
            lambda x: -x % p,
            lambda x: pow(x, p - 2, p),
        )
    add, mul = gfq_tables(p, tuple(modulus))
    return (
        lambda x, y: add[x][y],
        lambda x, y: mul[x][y],
        lambda x: add[x].index(0),
        lambda x: mul[x].index(1),
    )


def omul(a, b, p: int, modulus=None) -> tuple[int, ...]:
    """Polynomial product by direct convolution, over GF(p) or GF(p^m)."""
    add, mul, _, _ = scalar_ops(p, modulus)
    a, b = trim(a), trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return trim(out)


def oadd(a, b, p: int, modulus=None) -> tuple[int, ...]:
    add = scalar_ops(p, modulus)[0]
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = add(out[i], y)
    return trim(out)


def oneg(a, p: int, modulus=None) -> tuple[int, ...]:
    neg = scalar_ops(p, modulus)[2]
    return trim(neg(x) for x in a)


def odivmod(a, b, p: int, modulus=None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by nonzero b, by schoolbook long division."""
    add, mul, neg, inv = scalar_ops(p, modulus)
    a, b = list(trim(a)), trim(b)
    db = len(b) - 1
    lead_inv = inv(b[-1])
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = mul(a[i], lead_inv)
        quot[i - db] = c
        for j, y in enumerate(b):
            a[i - db + j] = add(a[i - db + j], neg(mul(c, y)))
    return trim(quot), trim(a[:db])


def ogcd(a, b, p: int, modulus=None) -> tuple[int, ...]:
    """Monic gcd of two polynomials, not both zero, by Euclid on ``odivmod``."""
    _, mul, _, inv = scalar_ops(p, modulus)
    a, b = trim(a), trim(b)
    while b:
        a, b = b, odivmod(a, b, p, modulus)[1]
    lead_inv = inv(a[-1])
    return tuple(mul(x, lead_inv) for x in a)


def oeval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(trim(coeffs)):
        acc = (acc * x + c) % p
    return acc


def composites(n: int, p: int, modulus=None) -> set[tuple[int, ...]]:
    """All monic degree-n polynomials over F_p that factor nontrivially.

    Pass the modulus of GF(p^m) to work over that field's codes instead.
    """
    q = p if modulus is None else p ** (len(modulus) - 1)
    out = set()
    for d1 in range(1, n // 2 + 1):
        d2 = n - d1
        for low1 in itertools.product(range(q), repeat=d1):
            f = low1 + (1,)
            for low2 in itertools.product(range(q), repeat=d2):
                g = low2 + (1,)
                out.add(omul(f, g, p, modulus))
    return out


def irreducibles(n: int, p: int, modulus=None) -> set[tuple[int, ...]]:
    """Monic irreducibles of degree n over F_p (or GF(p^m)): monics minus products."""
    q = p if modulus is None else p ** (len(modulus) - 1)
    monics = {
        low + (1,) for low in itertools.product(range(q), repeat=n)
    }
    if n == 1:
        return monics
    return monics - composites(n, p, modulus)


def trial_factor(f, irreducibles, p: int, modulus=None) -> list[tuple[int, ...]]:
    """The monic irreducible factors of a monic f, with multiplicity, one
    polynomial at a time by trial division on ``odivmod``.

    ``irreducibles`` lists monic irreducibles in the order the factors are
    wanted; each divides f as often as it can while twice its degree is at
    most the cofactor's.  The cofactor left then has no factor of at most
    half its degree, so it is irreducible, and goes last unless it is 1.
    """
    f, out = trim(f), []
    for g in irreducibles:
        while 2 * (len(g) - 1) <= len(f) - 1:
            quot, rem = odivmod(f, g, p, modulus)
            if rem:
                break
            out.append(tuple(g))
            f = quot
    return out + [f] if len(f) > 1 else out


def kernel_set(rule, n: int, p: int) -> frozenset[tuple[int, ...]]:
    """Brute-force kernel of the CA with the given rule coefficients.

    Enumerates all p^n configurations and keeps those for which every
    window sum a_0 x_i + ... + a_k x_{i+k} vanishes mod p.
    """
    rule = trim(rule)
    k = len(rule) - 1
    members = []
    for x in itertools.product(range(p), repeat=n):
        ok = True
        for i in range(n - k):
            acc = 0
            for j, a in enumerate(rule):
                acc += a * x[i + j]
            if acc % p:
                ok = False
                break
        if ok:
            members.append(x)
    return frozenset(members)


def span_set(rows, n: int, p: int) -> frozenset[tuple[int, ...]]:
    """All linear combinations of the given row vectors over F_p."""
    rows = [tuple(r) for r in rows]
    out = set()
    for combo in itertools.product(range(p), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(combo, rows):
            for j, r in enumerate(row):
                vec[j] = (vec[j] + c * r) % p
        out.add(tuple(vec))
    return frozenset(out)


def gf4_mul(a: int, b: int) -> int:
    """Product in GF(4) = F_2[X]/(1 + X + X^2), elements coded a_0 + 2 a_1."""
    prod = 0
    for i in range(2):
        if b >> i & 1:
            prod ^= a << i
    if prod & 4:  # X^2 = 1 + X
        prod ^= 0b111
    return prod


def span_set_gf4(rows, n: int) -> frozenset[tuple[int, ...]]:
    """All linear combinations of the given row vectors over GF(4)."""
    rows = [tuple(r) for r in rows]
    out = set()
    for combo in itertools.product(range(4), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(combo, rows):
            for j, r in enumerate(row):
                vec[j] ^= gf4_mul(c, r)
        out.add(tuple(vec))
    return frozenset(out)


def set_dim(vectors: frozenset, p: int) -> int:
    """Dimension of a subspace given as its full vector set (size p^d)."""
    d = 0
    while p**d < len(vectors):
        d += 1
    assert p**d == len(vectors), "vector set size is not a power of p"
    return d


def distance_from_sets(a: frozenset, b: frozenset, p: int) -> int:
    """Subspace distance straight from the definition, via the vector sets."""
    da, db = set_dim(a, p), set_dim(b, p)
    dab = set_dim(frozenset(a & b), p)
    return da + db - 2 * dab


def rref_over_q(rows, p: int) -> list[tuple[int, ...]]:
    """Nonzero rows of the RREF over F_p by plain Gauss-Jordan elimination."""
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        work[rank] = [(inv * x) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c] % p:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return [tuple(r) for r in work[:rank]]


def rank_over_q(rows, p: int) -> int:
    """Row rank over F_p by plain mod-p elimination, written independently."""
    return len(rref_over_q(rows, p))


def gfq_mul(a: int, b: int, p: int, modulus) -> int:
    """Product in GF(p^m) = F_p[X]/(modulus), modulus monic of degree m.

    Elements are coded a_0 + a_1 p + ... + a_{m-1} p^(m-1); the digit vectors
    are multiplied as polynomials and reduced by long division.
    """
    m = len(modulus) - 1
    prod = list(omul(_digits(a, p, m), _digits(b, p, m), p))
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        for i, r in enumerate(modulus):
            prod[d - m + i] = (prod[d - m + i] - c * r) % p
    return sum(x * p**i for i, x in enumerate(prod[:m]))


def gfq_add(a: int, b: int, p: int, m: int) -> int:
    """Sum in GF(p^m): digit-wise mod p."""
    da, db = _digits(a, p, m), _digits(b, p, m)
    return sum(((x + y) % p) * p**i for i, (x, y) in enumerate(zip(da, db)))


def _digits(code: int, p: int, m: int) -> tuple[int, ...]:
    return tuple(code // p**i % p for i in range(m))


def poly_text(codes, p: int, m: int) -> str:
    """The polynomial string of ascending coefficient codes, "0" for none:
    each code's residue, or over GF(p^m) its m base-p digits, lowest first,
    in brackets, the coefficients separated by commas."""
    if m == 1:
        return ",".join(str(c) for c in codes) or "0"
    return ",".join("[" + ",".join(map(str, _digits(c, p, m))) + "]" for c in codes) or "0"


def poly_display(codes, p: int, m: int) -> str:
    """The display of ascending coefficient codes: the nonzero terms c X^i
    joined by " + ", with X for X^1, no X^0, a coefficient over GF(p^m) as
    its digits in parentheses and a coefficient 1 left out before a power
    of X (over GF(p) only, where it reads "1"); "0" for no terms."""
    terms = []
    for i, c in enumerate(codes):
        if c:
            coeff = str(c) if m == 1 else "(" + ",".join(map(str, _digits(c, p, m))) + ")"
            power = "" if i == 0 else "X" if i == 1 else f"X^{i}"
            terms.append(power if power and coeff == "1" else coeff + power)
    return " + ".join(terms) or "0"


@functools.cache
def gfq_tables(p: int, modulus: tuple[int, ...]) -> tuple[list[list[int]], list[list[int]]]:
    """The addition and multiplication tables of GF(p^m), indexed [a][b].

    Kept per field: callers only read them.
    """
    m = len(modulus) - 1
    q = p**m
    add = [[gfq_add(a, b, p, m) for b in range(q)] for a in range(q)]
    mul = [[gfq_mul(a, b, p, modulus) for b in range(q)] for a in range(q)]
    return add, mul


def matvec(rows, vec, p: int, modulus=None) -> tuple[int, ...]:
    """The matrix with these rows times a column vector, over GF(p) or GF(p^m).

    Over GF(p) each entry is a plain dot product mod p; pass the modulus of
    GF(p^m) to work on its codes through ``gfq_tables``.
    """
    if modulus is None:
        return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in rows)
    add, mul = gfq_tables(p, tuple(modulus))
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, vec):
            acc = add[acc][mul[a][b]]
        out.append(acc)
    return tuple(out)


def span_set_gfq(rows, n: int, p: int, modulus) -> frozenset[tuple[int, ...]]:
    """All linear combinations of the given row vectors over GF(p^m)."""
    q = p ** (len(modulus) - 1)
    add, mul = gfq_tables(p, modulus)
    rows = [tuple(r) for r in rows]
    out = set()
    for combo in itertools.product(range(q), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(combo, rows):
            for j, r in enumerate(row):
                vec[j] = add[vec[j]][mul[c][r]]
        out.add(tuple(vec))
    return frozenset(out)


def rref_over_gfq(rows, p: int, modulus) -> list[tuple[int, ...]]:
    """Nonzero rows of the RREF over GF(p^m), inverses found by search."""
    add, mul = gfq_tables(p, modulus)
    q = len(add)
    neg = [add[x].index(0) for x in range(q)]
    inv = [0] + [mul[x].index(1) for x in range(1, q)]
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        s = inv[work[rank][c]]
        work[rank] = [mul[s][x] for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = neg[work[i][c]]
                work[i] = [add[x][mul[f][y]] for x, y in zip(work[i], work[rank])]
        rank += 1
    return [tuple(r) for r in work[:rank]]


def rank_over_gfq(rows, p: int, modulus) -> int:
    """Row rank over GF(p^m) by plain elimination, inverses found by search."""
    return len(rref_over_gfq(rows, p, modulus))


def decode_exhaustive(codewords, received, distance):
    """Minimum-distance decoding that measures every codeword in full.

    ``distance(c, received)`` gives each codeword's distance.  Returns the
    minimum, the indices that reach it and the list of all distances.
    """
    distances = [distance(c, received) for c in codewords]
    dmin = min(distances)
    return dmin, tuple(i for i, d in enumerate(distances) if d == dmin), distances


def lex_first_max_clique(n: int, edges) -> tuple[int, ...]:
    """The lexicographically first maximum clique of a graph on 0..n-1.

    ``edges`` holds pairs (i, j).  Tries sizes from n down and returns the
    first clique in ``itertools.combinations`` order.  A member of a clique
    of size s has at least s - 1 neighbours, so only such vertices are
    combined; combinations of that sorted subset come in the same relative
    order as those of range(n).
    """
    adjacent = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    degree = [sum((v, u) in adjacent for u in range(n)) for v in range(n)]
    for size in range(n, 0, -1):
        pool = [v for v in range(n) if degree[v] >= size - 1]
        for combo in itertools.combinations(pool, size):
            if all(pair in adjacent for pair in itertools.combinations(combo, 2)):
                return combo
    return ()
