"""Families of equal-degree CA rules and the Grassmannian codes they generate.

The central fact exploited here: for two bipermutive linear rules of degree
k acting on n = 2k cells, the intersection of their kernels has dimension
deg(gcd) of the two rule polynomials.  Hence a family F of t distinct rule
polynomials yields a constant-dimension code whose minimum distance is

    D = 2k - 2 * max over pairs of deg(gcd(P_f, P_g)),

so distance prediction is pure polynomial GCD work, with pairwise-coprime
families giving equidistant codes of distance 2k.  The GCD degrees come from
factorizations: each polynomial is factored once (``algebra.FactorTable``),
and deg gcd(f, g) is the sum of min(multiplicity) * degree over the shared
irreducible factors, one AND of two bitmasks (``_gcd_masks``).  ``poly_gcd``
stays as the independent route of ``verify_family`` and the tests.

Family membership is restricted to Poly_k(F_q): monic, degree k, nonzero
constant term.  The degree-1 irreducible X is therefore excluded everywhere
(its constant term is zero); the primed counts used below are

    I'_1 = q - 1,    I'_j = I_j for j >= 2,

with I_j the Gauss-formula count of monic irreducibles of degree j.  The
best coprime-family size is N_k = I'_k + sum_{j <= floor(k/2)} I'_j, and the
uniform-GCD construction realizes the analogous bound for any common gcd g.

``search_max_family`` is the independent oracle: exact maximum clique on the
compatibility graph of Poly_k in lex order, held as one int of neighbour
bits per vertex.  Bit-parallel branch-and-bound (Tomita & Seki 2003; San
Segundo et al. 2011) is pruned by a greedy colouring of the candidates,
computed in descending order so that it bounds every suffix the ascending
branch loop has left.  The bound never cuts a branch that could strictly
beat the incumbent, so the lexicographically smallest optimum is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import GF, FactorTable, Polynomial, monic_polynomials, poly_gcd
from .ca import LinearCA, LinearRule
from .errors import (
    BudgetExceeded,
    DegreeTooLarge,
    DomainError,
    DuplicateMember,
    EmptyFamily,
    GNotMonic,
    GZeroConstant,
    InvalidDegree,
    NonPositive,
    NotBipermutive,
    TooFewMembers,
)
from .subspaces import GrassmannianCode


class CAFamily:
    """A set of distinct degree-k rule polynomials over one field.

    Every member must lie in Poly_k(F_q): monic, degree exactly k, nonzero
    constant term (i.e. a valid bipermutive rule).  Members keep the order
    they were given in; indices in GCD profiles refer to that order.
    """

    __slots__ = ("field", "k", "members")

    def __init__(self, members: Iterable[Polynomial]):
        polys = tuple(members)
        if not polys:
            raise EmptyFamily("a family needs at least one rule polynomial")
        self.field = polys[0].field
        k = polys[0].degree
        for f in polys:
            if f.field != self.field:
                raise NotBipermutive("family members must share one field")
            if f.degree != k:
                raise InvalidDegree(
                    f"family members must all have degree {k}, got {f.degree}"
                )
            LinearRule(f)  # monic, degree >= 1, nonzero constant term
        if len(set(polys)) != len(polys):
            raise DuplicateMember("family members must be pairwise distinct")
        self.k = int(k)
        self.members = polys

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.members)

    def __getitem__(self, i: int) -> Polynomial:
        return self.members[i]

    def __repr__(self):
        inner = ", ".join(f.display() for f in self.members)
        return f"CAFamily(k={self.k} over GF({self.field.spec}): {inner})"


@dataclass(frozen=True)
class GcdProfile:
    """Pairwise GCD-degree summary of a family.

    ``table`` is triangular: row i holds deg(gcd(f_i, f_j)) for j < i, so
    row 0 is empty.  ``witness_pair`` is the first (i, j), j < i, attaining
    the maximum in scan order.
    """

    max_gcd_degree: int
    witness_pair: tuple[int, int]
    table: tuple[tuple[int, ...], ...]

    @classmethod
    def from_table(cls, table: tuple[tuple[int, ...], ...]) -> "GcdProfile":
        """Maximum and witness of a triangular table with at least one entry."""
        best, witness = -1, (1, 0)
        for i, row in enumerate(table):
            for j, d in enumerate(row):
                if d > best:
                    best, witness = d, (j, i)
        return cls(best, witness, table)


_SIEVE_LIMIT = 4096  # largest q^(k // 2), about the size of gcd_profile's table


def gcd_profile(fam: CAFamily) -> GcdProfile:
    """All pairwise GCD degrees of a family (needs >= 2 members).

    N factorizations instead of N(N-1)/2 GCDs: a table to degree k // 2
    factors every member of degree k by trial division.  That table grows
    like q^(k/2) whatever the family's size, so past ``_SIEVE_LIMIT`` (GF(2)
    from k = 26) the profile takes each pair's GCD instead.
    """
    if len(fam) < 2:
        raise TooFewMembers("a GCD profile needs at least two members")
    members, d = fam.members, fam.k // 2
    if fam.field.q**d > _SIEVE_LIMIT:
        table = tuple(
            tuple(int(poly_gcd(f, g).degree) for g in members[:i])
            for i, f in enumerate(members)
        )
    else:
        masks = _gcd_masks(FactorTable(fam.field, d), members)
        table = tuple(
            tuple((a & b).bit_count() for b in masks[:i]) for i, a in enumerate(masks)
        )
    return GcdProfile.from_table(table)


def _gcd_masks(table: FactorTable, polys: Iterable[Polynomial]) -> list[int]:
    """One int per polynomial such that deg gcd(f, g) = (mask f & mask g).bit_count().

    The c-th copy (c = 0, 1, ...) of an irreducible factor p owns deg p bits,
    the same bits in every mask.  Two masks then share deg p bits for each
    copy of p that both polynomials hold: min(multiplicity) * deg p over the
    shared factors, which is the degree of the gcd.  Coprime is an AND of 0.
    """
    blocks: dict[tuple[int, int], int] = {}  # (factor row, copy) -> its bits
    masks, top = [], 0
    for f in polys:
        mask, prev, copy = 0, 0, 0
        for p in table.factor(f):  # equal factors are adjacent
            copy = copy + 1 if p == prev else 0
            prev = p
            block = blocks.get((p, copy))
            if block is None:
                e = table.degree(p)
                block = blocks[p, copy] = ((1 << e) - 1) << top
                top += e
            mask |= block
        masks.append(mask)
    return masks


def predicted_min_distance(fam: CAFamily) -> tuple[int, GcdProfile]:
    """Minimum distance of the family's code, from GCDs alone: 2k - 2 max deg gcd."""
    profile = gcd_profile(fam)
    return 2 * fam.k - 2 * profile.max_gcd_degree, profile


def code_from_family(fam: CAFamily) -> GrassmannianCode:
    """The Grassmannian code of the family: kernels of all members at n = 2k.

    Distinct members always give distinct kernels (their pairwise kernel
    intersections have dimension deg gcd < k), so the code size normally
    equals the family size; any collapse is visible in the returned code's
    ``duplicates_removed``.
    """
    n = 2 * fam.k
    kernels = [LinearCA(f, n).kernel() for f in fam.members]
    return GrassmannianCode(fam.field, n, kernels)


# -- counting ------------------------------------------------------------------------


def mobius(n: int) -> int:
    """Moebius function: 0 on squared factors, else (-1)^(number of primes)."""
    if n < 1:
        raise NonPositive(f"mobius needs n >= 1, got {n}")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def count_irreducibles(n: int, field: GF, exclude_x: bool = False) -> int:
    """Number of monic irreducibles of degree n over GF(q), by Gauss's formula.

    I_n = (1/n) sum over d | n of mobius(d) q^(n/d).  With ``exclude_x`` the
    polynomial X is not counted, so degree 1 gives q - 1; higher degrees are
    unaffected (X only has degree 1).
    """
    if n < 1:
        raise NonPositive(f"degree must be >= 1, got {n}")
    q = field.q
    total = sum(mobius(d) * q ** (n // d) for d in _divisors(n))
    count = total // n
    if exclude_x and n == 1:
        count -= 1
    return count


def enumerate_irreducibles(
    n: int, field: GF, exclude_x: bool = False
) -> tuple[Polynomial, ...]:
    """All monic irreducibles of degree n, lexicographic order (oracle route).

    Independent of the Gauss formula: the entries a sieve to degree n left
    unmarked (``algebra.FactorTable``), found with no Moebius function.
    ``exclude_x`` drops X, the only irreducible with a zero constant term.
    """
    if n < 1:
        raise NonPositive(f"degree must be >= 1, got {n}")
    return _irreducibles_of_degree(FactorTable(field, n), n, exclude_x)


def _irreducibles_of_degree(
    table: FactorTable, n: int, exclude_x: bool
) -> tuple[Polynomial, ...]:
    polys = (table.polynomial(p) for p in table.irreducibles if table.degree(p) == n)
    return tuple(f for f in polys if not (exclude_x and f.to_codes()[0] == 0))


def max_coprime_family_size(k: int, field: GF) -> int:
    """Largest pairwise-coprime subset of Poly_k(F_q): N_k from the primed counts."""
    return expected_uniform_gcd_size(k, 0, field)


def enumerate_rule_polynomials(k: int, field: GF) -> tuple[Polynomial, ...]:
    """Poly_k(F_q): monic degree-k polynomials with nonzero constant term, lex order."""
    if k < 1:
        raise NonPositive(f"degree must be >= 1, got {k}")
    return tuple(
        f for f in monic_polynomials(field, k) if f.to_codes()[0] != 0
    )


# -- uniform-GCD construction ---------------------------------------------------------


def uniform_gcd_family(k: int, g: Polynomial) -> tuple[Polynomial, ...]:
    """Largest-known family in Poly_k(F_q) with every pairwise gcd exactly g.

    With t = deg(g) and r = k - t, the cofactors are the irreducibles of
    degree r (X excluded) plus one product per lower degree i <= r/2: the
    j-th element of sorted I'_i times the j-th element of sorted I'_(r-i)
    (squares when i = r - i).  Injective pairing keeps cofactors pairwise
    coprime, so gcd(g*h1, g*h2) = g exactly.  Cardinality:
    I'_r + sum_{i=1}^{floor(r/2)} I'_i.  Returns members in lexicographic
    order; t = k returns just (g,).  Every degree is read from one sieve to r.
    """
    r = k - _gcd_degree(k, g)
    if r == 0:
        return (g,)
    table = FactorTable(g.field, r)

    def primed(n: int) -> tuple[Polynomial, ...]:  # I'_n, lexicographic
        return _irreducibles_of_degree(table, n, exclude_x=True)

    cofactors = list(primed(r))
    for i in range(1, r // 2 + 1):
        cofactors += [u * v for u, v in zip(primed(i), primed(r - i))]
    members = sorted((g * h for h in cofactors), key=Polynomial.to_codes)
    return tuple(members)


def _gcd_degree(k: int, g: Polynomial) -> int:
    """deg g, once g is checked as a common gcd for degree-k families."""
    if k < 1:
        raise NonPositive(f"degree must be >= 1, got {k}")
    if not g.is_monic():
        raise GNotMonic("common gcd g must be monic")
    if g.to_codes()[0] == 0:
        raise GZeroConstant("common gcd g must have a nonzero constant term")
    t = int(g.degree)
    if t > k:
        raise DegreeTooLarge(f"deg(g) = {t} exceeds the family degree k = {k}")
    return t


def expected_uniform_gcd_size(k: int, t: int, field: GF) -> int:
    """Predicted cardinality of uniform_gcd_family: I'_(k-t) + sum_{i<=r/2} I'_i."""
    if k < 1:
        raise NonPositive(f"degree must be >= 1, got {k}")
    if t > k or t < 0:
        raise DegreeTooLarge(f"gcd degree {t} out of range for k = {k}")
    r = k - t
    if r == 0:
        return 1
    return sum(
        count_irreducibles(i, field, exclude_x=True) for i in [r, *range(1, r // 2 + 1)]
    )


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of verify_family: ok, or the first violation in ``detail``."""

    ok: bool
    mode: str  # "exact-gcd" or "max-degree"
    k: int | None
    pairs_checked: int
    detail: str = ""


def verify_family(
    members: Sequence[Polynomial],
    g: Polynomial | None = None,
    t: int | None = None,
) -> FamilyReport:
    """Check Poly_k membership and the pairwise GCD condition.

    Exactly one of ``g`` (every pairwise gcd must equal g) or ``t`` (every
    pairwise gcd degree must be <= t) selects the mode.  Stops at the first
    violation; violations are report content, never exceptions.
    """
    if (g is None) == (t is None):
        raise ValueError("pass exactly one of g (exact mode) or t (bound mode)")
    mode = "exact-gcd" if g is not None else "max-degree"
    polys = list(members)
    try:
        k = CAFamily(polys).k
    except DomainError as exc:  # not a family of distinct Poly_k members
        return FamilyReport(False, mode, None, 0, str(exc))
    pairs = 0
    for i, j in itertools.combinations(range(len(polys)), 2):
        d = poly_gcd(polys[i], polys[j])
        pairs += 1
        if g is not None and d != g:
            return FamilyReport(
                False, mode, k, pairs,
                f"gcd of members {i},{j} is {d.to_string()}, expected {g.to_string()}",
            )
        if t is not None and d.degree > t:
            return FamilyReport(
                False, mode, k, pairs,
                f"gcd of members {i},{j} has degree {d.degree} > {t}",
            )
    return FamilyReport(True, mode, k, pairs)


# -- exact maximum-family search --------------------------------------------------------


def _max_clique(nbr: Sequence[int]) -> tuple[int, ...]:
    """Exact maximum clique of a bitset graph; the lex-smallest optimum wins.

    ``nbr[v]`` has bit u set when u and v are adjacent, and a candidate set is
    one int.  The search branches on candidates in ascending vertex order and
    replaces the incumbent only on strict improvement, so of all maximum
    cliques it keeps the first it meets: the lexicographically smallest.

    Colouring bound: the candidates are split into independent classes, each
    taken greedily from the highest uncoloured vertex down.  A clique meets
    a class at most once, and the vertices at or above v lie in the classes
    whose top is at or above v, so their number bounds any clique in the
    suffix the ascending loop has left at v.  Colouring in descending order
    makes those classes the greedy colouring of that suffix alone, so one
    colouring bounds every suffix as tightly as its own would; classes grown
    upwards are shaped by the prefix instead.  The loop stops once
    ``len(cur) + bound <= len(best)``, which cuts only branches that cannot
    strictly beat the incumbent, never the lex-smallest maximum clique.
    """
    best: list[int] = []
    cur: list[int] = []

    def expand(cands: int) -> None:
        nonlocal best
        tops = []  # top vertex of each colour class, descending
        rest = cands
        while rest:
            free = rest
            tops.append(free.bit_length() - 1)
            while free:
                v = free.bit_length() - 1
                rest ^= 1 << v
                free &= ~nbr[v] & ((1 << v) - 1)
        while cands:
            v = (cands & -cands).bit_length() - 1
            need = max(len(best) - len(cur), 0)
            # bound(v) = #{classes with top >= v} <= need: nothing left beats best
            if need >= len(tops) or v > tops[need]:
                return
            cands ^= 1 << v  # cands now holds only vertices above v
            nxt = cands & nbr[v]
            cur.append(v)
            if nxt:
                expand(nxt)
            elif len(cur) > len(best):
                best = cur[:]
            cur.pop()

    expand((1 << len(nbr)) - 1)
    return tuple(best)


def search_max_family(
    k: int, t: int, field: GF, budget: int = 512
) -> tuple[Polynomial, ...]:
    """Exact maximum family in Poly_k(F_q) with pairwise gcd degree <= t.

    Ground-truth oracle: maximum clique on the compatibility graph, so only
    small instances are allowed (|Poly_k| <= budget).  Deterministic: the
    lexicographically smallest optimum is returned, members in lex order.
    """
    if k < 1:
        raise NonPositive(f"degree must be >= 1, got {k}")
    if t < 0:
        raise NonPositive(f"gcd degree bound must be >= 0, got {t}")
    q = field.q
    # checked before Poly_k is built: |Poly_k| = q^(k-1) (q - 1) >= 2^(k-1), so
    # a k past the budget's bit length exceeds it before q^k is computed, and
    # the message names the count, which can have too many digits to print
    if k > budget.bit_length() or q**k - q ** (k - 1) > budget:
        raise BudgetExceeded(
            f"|Poly_{k}(F_{q})| = {q}^{k} - {q}^{k - 1} exceeds budget {budget}"
        )
    vertices = enumerate_rule_polynomials(k, field)
    clique = _max_clique(_compatibility(vertices, t))
    return tuple(vertices[i] for i in clique)


def search_max_exact_gcd(
    k: int, g: Polynomial, budget: int = 512
) -> tuple[Polynomial, ...]:
    """Exact maximum family of multiples of g in Poly_k with pairwise gcd = g.

    Oracle counterpart of uniform_gcd_family: g times a maximum
    pairwise-coprime family of cofactors in Poly_(k-t), the search above with
    t = 0, whose budget bounds the cofactors.
    """
    t = _gcd_degree(k, g)
    if t == k:
        return (g,)
    cofactors = search_max_family(k - t, 0, g.field, budget)
    return tuple(sorted((g * h for h in cofactors), key=Polynomial.to_codes))


def _compatibility(vertices: Sequence[Polynomial], t: int) -> list[int]:
    """Bitset adjacency: bit j of entry i is set when deg gcd(v_i, v_j) <= t.

    Every vertex is read off one table to the highest vertex degree.
    """
    top = max(int(v.degree) for v in vertices)
    masks = _gcd_masks(FactorTable(vertices[0].field, top), vertices)
    nbr = [0] * len(vertices)
    for i, j in itertools.combinations(range(len(vertices)), 2):
        if (masks[i] & masks[j]).bit_count() <= t:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    return nbr
