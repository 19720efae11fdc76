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
X^i mod f.  ``kernels`` computes one sequence per rule, the impulse
response (the coefficients of X^(k-1)), and derives every preimage from it
by one shift and one row operation on packed rows; the preimages start with
the k unit vectors, so they already are the kernel's RREF, as the one check
of packed rows (``Echelon.from_rrefs``) confirms.
``LinearCA.kernel`` is its one-rule case.  At n = 2k that basis is the lift
[I_k | M], column c of M holding X^(k+c) mod f, and ``kernel_rules``, the
kernel's inverse, reads each rule off column k and checks the other columns
by the recurrence of X times one.  Over a ``RowFormat.wide`` format both
take all rules or codewords at once, a block each (``subspaces._Blocks``).
"""

from __future__ import annotations

from typing import Sequence

from .algebra import GF, GFElement, Polynomial
from .errors import (
    AmbientMismatch,
    DegreeZero,
    LengthMismatch,
    NotBipermutive,
    SeedLengthMismatch,
)
from .linalg import Echelon, MatrixGF
from .subspaces import MAX_AMBIENT_N, GrassmannianCode, Subspace, _BlockLayout, _Blocks


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
        """The kernel of the CA: a k-dimensional subspace of GF(q)^n, the
        one-rule case of ``kernels``.  Always equals the null space of the
        transition matrix."""
        return kernels([self.rule.poly], self.n)[0]

    def __repr__(self):
        return f"LinearCA({self.rule.poly.display()}, n={self.n} over GF({self.field.spec}))"


def kernels(rules: Sequence[Polynomial], n: int) -> list[Subspace]:
    """The kernel of each rule's CA at lattice length n, in order: valid
    rules (``LinearRule``) of one field and one degree k, k < n <=
    ``MAX_AMBIENT_N``.

    Cell i of the j-th unit-seed preimage is c_ij, the coefficient of X^j in
    X^i mod f.  One impulse response u, u_i = c_i,k-1 for i < n + k - 1, gives
    them all: X^(i+1) mod f reads c_ij = c_(i+1),(j+1) + a_(j+1) u_i, so row
    k-1 is u and row j is row j+1 shifted one lane down plus a_(j+1) u, each
    cut to n lanes.  The first k remainders are the unit vectors, so the
    rows already are the reduced basis, as one ``Echelon.from_rrefs`` pass
    over every rule's rows checks.

    Every rule's recurrence runs at once, in one wide row of blocks, one per
    rule (``subspaces._Blocks``), each holding the rule's remainder X^i mod f
    in its low k lanes.  A step takes u_i, lane k-1 of every block, shifts
    the row one lane up and subtracts u_i f from every block: u_i spread
    over the k lanes by one product, then for each value v a lane of the
    rules takes, v times it, masked to the lanes where the rules hold v.
    The rows come out of the collected u as wide rows too, one row operation
    per value of a_(j+1), masked to the blocks of the rules that hold it
    (``_Blocks.masks``), and split at the blocks' byte bounds, so the work
    stays linear in the number of rules.  Over the per-entry format each rule
    runs alone, and its u_i is one code: one row operation with the rule.
    """
    if not rules:
        return []
    gf, k = rules[0].field, int(rules[0].degree)
    degrees = {(f.row.bit_length() - 1) // gf.width for f in rules}
    if degrees != {k} or any([f.field is not gf and f.field != gf for f in rules]):
        raise AmbientMismatch("rules of different fields or degrees share no kernel length")
    if not k < n <= MAX_AMBIENT_N:
        raise LengthMismatch(f"lattice length {n} is outside {k + 1}..{MAX_AMBIENT_N}")
    fmt, w, mask, sub_scaled = gf.format, gf.width, gf.mask, gf.format.sub_scaled
    blocks = _Blocks(w, n + k - 1, len(rules) if fmt.wide else 1)  # a group's rules side by side
    spread = ((1 << k * w) - 1) // mask
    lane, low = blocks.ones * mask, blocks.ones * spread * mask  # lanes 0, and 0..k-1, of a block
    keep = blocks.ones * ((1 << n * w) - 1)  # lanes 0..n-1 of every block
    basis: list[int] = []  # row j of rule b's kernel at k b + j
    for first in range(0, len(rules), blocks.size):
        chosen = rules[first : first + blocks.size]
        lower = blocks.join([f.row for f in chosen]) & low  # every rule but its X^k
        codes = [fmt.unpack(f.row, k + 1)[:k] for f in chosen]
        if blocks.size == 1:  # one rule: a_j holds all of its row (-1), and u_i is one code
            held, lanes = [{a: -1} if a else {} for a in codes[0]], None
        else:  # value v -> the blocks whose a_j = v (``masks``); the lanes j where v is
            held, lanes = blocks.masks(zip(*codes)), {}
            for j, values in enumerate(held):
                for v, where in values.items():
                    lanes[v] = lanes.get(v, 0) | where & lane << j * w
        rem, u = blocks.ones << (k - 1) * w, 0  # X^(k-1) mod f = X^(k-1)
        for i in range(k - 1, n + k - 1):
            carry = rem >> (k - 1) * w & lane  # u_i
            u |= carry << i * w
            rem = (rem << w) & low  # X^(i+1) mod f, less u_i f
            if lanes is None:
                rem = sub_scaled(rem, carry, lower) if carry else rem
            else:
                for v, where in lanes.items():
                    rem = sub_scaled(rem, v, carry * spread & where)
        row, rows = u, [u & keep]
        for values in reversed(held[1:]):  # a_(k-1), ..., a_1
            row >>= w
            for v, where in values.items():
                row = sub_scaled(row, gf.neg(v), u & where)
            rows.append(row & keep)
        for rule in zip(*[blocks.split(r.to_bytes(blocks.length, "little")) for r in rows[::-1]]):
            basis += [int.from_bytes(c, "little") for c in rule]  # block b of each row: rule b
    return list(map(Subspace.from_echelon, Echelon.from_rrefs(gf, n, basis, [k] * len(rules))))


def kernel_rules(subs: Sequence[Subspace]) -> list[Polynomial | None]:
    """The rule f whose kernel at n = 2k is each subspace, k = dim, else None,
    in order; all of one field and one ambient n = 2k, as a code's codewords
    are.  A ``GrassmannianCode`` lends the layout it keeps (``block_layout``).

    A candidate has pivots 0..k-1, so its RREF is [I_k | M], and v_0 != 0,
    v_j = M[j][0].  It is the kernel of f = X^k - sum_j v_j X^j exactly
    when column c of M holds X^(k+c) mod f: column 0 does, and times X the
    columns obey M[j][c+1] = M[j-1][c] + v_j M[k-1][c], M[-1] = 0.  Over
    the packed formats (``RowFormat.wide``) all candidates are checked in one
    pass over their ``subspaces._BlockLayout``, where block i of W_j holds
    row j of candidate i's M and ``masks`` picks the blocks of each v_j
    (``_broken``).  Over the per-entry format each is checked alone.
    """
    out: list[Polynomial | None] = [None] * len(subs)
    if not subs:
        return out
    gf, n = subs[0].field, subs[0].ambient_n
    code = isinstance(subs, GrassmannianCode)  # its constructor checked every codeword
    if not code and any(s.field != gf or s.ambient_n != n for s in subs):
        raise AmbientMismatch("subspaces of different ambient spaces")
    k, w, fmt, neg = n // 2, gf.width, gf.format, gf.neg
    shift, pivots = k * w, list(range(k))
    picked = [i for i, s in enumerate(subs) if s._echelon.pivots == pivots]
    if n != 2 * k or not k or not picked:
        return out
    values = [[r >> shift & gf.mask for r in subs[i]._echelon.rows] for i in picked]
    low = (1 << (k - 1) * w) - 1  # lanes 0..k-2 of a row of M
    if not fmt.wide:  # each candidate alone, its values masked by -1 to all of a row
        kept = [not _broken([r >> shift for r in subs[i]._echelon.rows],
                            [{neg(v): -1} if v else {} for v in vs], fmt.sub_scaled, w) & low
                for i, vs in zip(picked, values)]
    else:
        shared = code and len(picked) == len(subs)
        layout = subs.block_layout() if shared else _BlockLayout([subs[i] for i in picked])
        held = [{neg(v): where for v, where in d.items()} for d in layout.masks(zip(*values))]
        broken = _broken(layout.rows, held, fmt.sub_scaled, w) & layout.ones * low
        kept = [not any(b) for b in layout.split(broken.to_bytes(layout.length, "little"))]
    lead = 1 << shift
    for i, vs, ok in zip(picked, values, kept):
        if ok and vs[0]:
            out[i] = Polynomial._from_row(gf, fmt.sub_scaled(lead, 1, fmt.pack(vs)))  # X^k - V
    return out


def _broken(rows: list[int], held: list[dict[int, int]], sub_scaled, w: int) -> int:
    """Where the column recurrence fails, ORed over j: row j of M shifted one
    lane down XOR row j-1 plus v_j times row k-1, one ``sub_scaled`` by -v of
    the bits ``held[j][-v]`` of row k-1 for each value v.  Only the low k-1
    lanes of a block count (rows of M side by side, a block each)."""
    last, above, acc = rows[-1], 0, 0
    for row, values in zip(rows, held):
        expect = above  # M[j-1][c] + v_j M[k-1][c] in lane c
        for c, where in values.items():
            expect = sub_scaled(expect, c, last & where)
        acc |= row >> w ^ expect
        above = row
    return acc
