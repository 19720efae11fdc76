"""Linear cellular automata GF(q)^n -> GF(q)^(n-k) and their kernels.

A linear rule of diameter d = k+1 is described by its rule polynomial
a_0 + a_1 X + ... + a_k X^k.  Bipermutivity (the rule permutes the field in
its first and last variable) requires a_0 != 0 and a_k != 0; this library
additionally normalizes to a_k = 1 at construction so that the kernel
recurrence below holds verbatim.  Rules with a_k not 1 are rejected, not
silently rescaled; ``Polynomial.monic()`` is the explicit opt-in.

The CA applies the rule to each of the n-k windows of k+1 adjacent cells
(one-shot, no wraparound), so it is the banded transition matrix acting on
the input.  Its kernel has dimension exactly k and is generated by running
the feedback recurrence

    x_i = -(a_0 x_{i-k} + ... + a_{k-1} x_{i-1})    for i >= k

from the k unit seeds: the kernel elements are precisely the truncated
linear recurring sequences with feedback polynomial equal to the rule.
The remainders X^i mod f, f the rule polynomial, obey the same recurrence,
so cell i of the j-th unit-seed preimage is the coefficient of X^j in
X^i mod f.  ``kernel`` computes one sequence, the impulse response (the
coefficients of X^(k-1)), and derives every preimage from it by one shift
and one row operation on packed rows; the preimages start with the k unit
vectors, so they already are the kernel's RREF.  At n = 2k that basis is
the lift [I_k | M] whose column k is (-a_0, ..., -a_{k-1}), and
``kernel_rules`` reads the rules back off a list of subspaces, the kernel's
inverse: it sets every candidate's rows side by side in one wide row and
runs each candidate's CA on it in one pass, a row operation per column j
and value of a_j, each masked to the candidates whose a_j has that value.
``kernel_rule`` is that pass on one subspace.
"""

from __future__ import annotations

import math
from typing import Sequence

from .algebra import GF, GFElement, Polynomial, RowFormat, _chunks
from .errors import (
    AmbientMismatch,
    DegreeZero,
    LengthMismatch,
    NotBipermutive,
    SeedLengthMismatch,
)
from .linalg import Echelon, MatrixGF
from .subspaces import MAX_AMBIENT_N, Subspace


class LinearRule:
    """A validated bipermutive linear local rule.

    ``poly`` is the rule polynomial; ``k`` its degree; ``diameter`` = k + 1.
    """

    __slots__ = ("poly", "field")

    def __init__(self, poly: Polynomial):
        if poly.degree < 1:  # the zero polynomial's NEG_INF included
            raise DegreeZero("a rule polynomial must have degree at least 1")
        if not poly.row & poly.field.mask:
            raise NotBipermutive("rule constant term a_0 must be nonzero")
        if not poly.is_monic():
            raise NotBipermutive(
                "rule leading coefficient a_k must be 1; see Polynomial.monic()"
            )
        self.poly = poly
        self.field = poly.field

    @property
    def k(self) -> int:
        return int(self.poly.degree)

    @property
    def diameter(self) -> int:
        return self.k + 1

    def __eq__(self, other):
        if not isinstance(other, LinearRule):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"LinearRule({self.poly.display()} over GF({self.field.spec}))"


class LinearCA:
    """A linear CA of lattice length n with a fixed bipermutive rule.

    Accepts either a ``LinearRule`` or a raw ``Polynomial`` (validated on the
    spot).  Requires diameter <= n (one output cell at least) and n <= ``MAX_AMBIENT_N``.
    """

    __slots__ = ("rule", "n")

    def __init__(self, rule: LinearRule | Polynomial, n: int):
        if isinstance(rule, Polynomial):
            rule = LinearRule(rule)
        if n < rule.diameter:
            raise LengthMismatch(
                f"lattice length {n} is shorter than the rule diameter {rule.diameter}"
            )
        if n > MAX_AMBIENT_N:
            raise LengthMismatch(f"lattice length {n} exceeds {MAX_AMBIENT_N}")
        self.rule = rule
        self.n = n

    @property
    def field(self) -> GF:
        return self.rule.field

    @property
    def k(self) -> int:
        return self.rule.k

    def transition_matrix(self) -> MatrixGF:
        """The (n-k) x n banded matrix: row i carries a_0..a_k from column i."""
        codes = self.rule.poly.to_codes()
        n, k = self.n, self.k
        rows = tuple((0,) * i + codes + (0,) * (n - i - k - 1) for i in range(n - k))
        return MatrixGF.from_codes(self.field, rows, n)

    def __call__(self, x: Sequence[int | GFElement]) -> tuple[int, ...]:
        """Apply the CA to a configuration; returns n-k output codes."""
        gf = self.field
        vec = [gf.code_of(c) for c in x]
        if len(vec) != self.n:
            raise LengthMismatch(f"configuration length {len(vec)} != n = {self.n}")
        return gf.format.unpack(self._act(gf.format.pack(vec)), self.n - self.k)

    def _act(self, row: int, count: int = 1) -> int:
        """The CA on ``count`` packed configurations, n lanes apart: the n-k
        output cells of each, packed where that configuration starts.

        Output cell i is sum_j a_j x_{i+j}, the rule evaluated on the window
        starting at cell i: the packed input shifted j lanes down, times a_j,
        summed over j.  A window that starts in the low n-k cells of a
        configuration ends inside it, so configurations side by side do not mix.
        """
        gf, n, fmt = self.field, self.n, self.field.format
        acc = 0
        for j, a in enumerate(self.rule.poly.to_codes()):
            if a:
                acc = fmt.sub_scaled(acc, gf.neg(a), row >> j * fmt.width)
        low = (1 << (n - self.k) * fmt.width) - 1
        return acc & sum(low << b * n * fmt.width for b in range(count))

    def annihilates(self, sub: Subspace) -> bool:
        """True when the CA sends every vector of ``sub`` to zero: its basis,
        set side by side in one packed row, goes to zero in one pass."""
        if sub.field != self.field or sub.ambient_n != self.n:
            raise AmbientMismatch(
                f"a subspace of GF({sub.field.spec})^{sub.ambient_n} is no input of {self!r}"
            )
        rows, block = sub._echelon.rows, self.n * self.field.width
        return not self._act(sum(r << b * block for b, r in enumerate(rows)), len(rows))

    def lfsr_preimage(self, seed: Sequence[int | GFElement]) -> tuple[int, ...]:
        """Extend a k-cell seed to a full kernel configuration.

        The first k cells equal the seed; each later cell is forced by the
        feedback recurrence x_i = -(a_0 x_{i-k} + ... + a_{k-1} x_{i-1}),
        which is the unique choice making every rule window vanish (using
        a_k = 1): the kernel basis combined with the seed as coefficients.
        """
        vec = [self.field.code_of(c) for c in seed]
        if len(vec) != self.k:
            raise SeedLengthMismatch(f"seed length {len(vec)} != k = {self.k}")
        return self.kernel().combination(vec)

    def kernel(self) -> Subspace:
        """The kernel of the CA: a k-dimensional subspace of GF(q)^n.

        Spanned by the preimages of the k unit seeds: cell i of the j-th is
        c_ij, the coefficient of X^j in X^i mod f, f the rule.  One impulse
        response u, u_i = c_i,k-1 for i < n + k - 1, gives them all: each
        remainder is the last one shifted one lane up, its lane k (which is
        u_i) cancelled by one row operation with f, and X^(i+1) mod f reads
        c_ij = c_(i+1),(j+1) + a_(j+1) u_i.  So row k-1 is u and row j is
        row j+1 shifted one lane down plus a_(j+1) u, each cut to n lanes.
        The first k remainders are the unit vectors, so the rows already are
        the reduced basis and go into the subspace as they are.  Always
        equals the null space of the transition matrix.
        """
        gf, n, k, fmt = self.field, self.n, self.k, self.field.format
        w, sub_scaled, rule = fmt.width, fmt.sub_scaled, self.rule.poly
        rem, top, lanes = 1, k * w, []
        for _ in range(n + k - 1):
            rem <<= w
            c = rem >> top
            lanes.append(c)
            if c:
                rem = sub_scaled(rem, c, rule.row)
        row = u = fmt.pack(lanes)
        low = (1 << n * w) - 1
        rows = [u & low]
        for a in reversed(rule.to_codes()[1:k]):  # a_(k-1), ..., a_1
            row >>= w
            if a:
                row = sub_scaled(row, gf.neg(a), u)
            rows.append(row & low)
        rows.reverse()
        return Subspace.from_echelon(Echelon.from_rref(gf, n, rows), reduced=True)

    def __repr__(self):
        return f"LinearCA({self.rule.poly.display()}, n={self.n} over GF({self.field.spec}))"


def kernel_rule(sub: Subspace) -> Polynomial | None:
    """The rule f whose kernel at n = 2k is ``sub``, k = dim ``sub``; else None."""
    return kernel_rules([sub])[0]


def kernel_rules(subs: Sequence[Subspace]) -> list[Polynomial | None]:
    """``kernel_rule`` of each subspace, in order; all of one field and one
    ambient n = 2k, as a code's codewords are.

    A candidate has dim k >= 1 and f = X^k - sum_j v_j X^j, v_j lane k of its
    RREF row j, with a_0 = -v_0 != 0.  f's kernel has dimension k too, so it
    is the candidate when f's CA sends the candidate's k rows to zero.  Every
    candidate's rows sit side by side in one wide row, one block each of
    whole lanes and whole bytes, and the CA runs once on it: output cell i
    of a block is x_(i+k) - sum_j v_j x_(i+j), so the wide row shifted k
    lanes down, less, for each j < k and each value v != 0, v times the row
    shifted j lanes down and masked to the blocks of the candidates whose
    v_j = v.  A candidate whose k blocks come out zero on their n - k output
    lanes is its rule's kernel.
    """
    out: list[Polynomial | None] = [None] * len(subs)
    if not subs:
        return out
    gf, n = subs[0].field, subs[0].ambient_n
    if any(s.field != gf or s.ambient_n != n for s in subs):
        raise AmbientMismatch("subspaces of different ambient spaces")
    k, w, fmt = n // 2, gf.width, gf.format
    shift, picked, values = k * w, [], []
    for i, s in enumerate(subs):
        rows = s._echelon.rows
        if n == 2 * k == 2 * len(rows) > 0 and rows[0] >> shift & gf.mask:
            picked.append(i)
            values.append([r >> shift & gf.mask for r in rows])
    if not picked:
        return out
    unit = math.lcm(8, w)  # a block of whole lanes and whole bytes splits at byte bounds
    block = -(-n * w // unit) * unit // 8
    span, size, images = k * block, len(picked), []
    # the per-entry format's row operation unpacks every lane, so there a
    # wide row would cost one pass per value a column holds: one candidate each
    group = 1 if type(fmt) is RowFormat else size
    for first in range(0, size, group):
        chosen, columns = picked[first : first + group], zip(*values[first : first + group])
        wide = int.from_bytes(
            b"".join([r.to_bytes(block, "little") for i in chosen for r in subs[i]._echelon.rows]),
            "little",
        )
        acc, starts = wide >> shift, bytearray(len(chosen) * span)
        for j, column in enumerate(columns):
            moved = wide >> j * w
            for v in set(column) - {0}:
                starts[::span] = bytes(map(v.__eq__, column))  # 1 at each chosen candidate's start
                ones = int.from_bytes(starts, "little")
                acc = fmt.sub_scaled(acc, v, moved & (ones << 8 * span) - ones)  # its span's bits
        low = ((1 << (n - k) * w) - 1).to_bytes(block, "little") * (len(chosen) * k)
        acc &= int.from_bytes(low, "little")
        images += _chunks(acc.to_bytes(len(chosen) * span, "little"), len(chosen))
    zero, lead = bytes(span), 1 << shift
    for i, vs, image in zip(picked, values, images):
        if image == zero:
            out[i] = Polynomial._from_row(gf, fmt.sub_scaled(lead, 1, fmt.pack(vs)))  # X^k - V
    return out
