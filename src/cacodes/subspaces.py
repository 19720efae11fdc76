"""Canonical subspaces of GF(q)^n, the subspace metric, and Grassmannian codes.

A subspace is one packed RREF: the echelon of its unique RREF basis, each
row one int in the format that (field, n) fixes, so two objects hold equal
rows exactly when they describe the same subspace.  The distance

    d(A, B) = dim A + dim B - 2 dim(A intersect B)

is computed via dim(A i B) = dim A + dim B - rank(stack(A, B)), which needs
one elimination: a copy of A's echelon takes B's packed rows, and only the
incoming rows are reduced.  Every intersection question asked here is a
dimension, so no intersection basis is ever built.

A Grassmannian code is a finite set of such subspaces; here they usually all
share one dimension k (constant-dimension code) because they arise as
kernels of equal-diameter cellular automata.  Such kernels also share one
pivot set: each is the row space of [I_k | M], the lifting of a k x (n-k)
matrix M.  Over one pivot set every vector of A is x R_A for one x in
GF(q)^k (R_A the RREF rows), and A and B meet in dimension d exactly when
x R_A = x R_B for (q^d - 1)/(q - 1) projective x, whose first nonzero entry
is 1.  So the pairwise table of N such codewords takes one walk over the
(q^k - 1)/(q - 1) projective x, each step one ``RowFormat.add`` on all N
codewords side by side (an XOR in C over GF(2^m)), one C-level read of
every block's key (``_Blocks.keys``) and one set test for coinciding
blocks; only a step where blocks coincide pairs them, in one pass.  Where
the walk costs more than the pairs' eliminations, and where the codewords
do not all share one pivot set (mixed dimensions, arbitrary subspaces), each
pair's stacked bases are eliminated instead.  The side-by-side layout is
kept per code (``GrassmannianCode.block_layout``): its walk also gives the
channel's decoder dim(C_i intersect U) for all N codewords at once, its
rows let ``ca.kernel_rules`` check every codeword's rule in one pass, it
alone sizes a walk (``_BlockLayout.fits``) and reads dimensions off step
counts, and its base ``_Blocks`` sizes, joins, masks and splits every wide
row, ``ca.kernels``' too.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import GF, Polynomial
from .errors import AmbientMismatch, EmptyCode, ParseError, TooFewCodewords
from .linalg import Echelon, MatrixGF

# The longest ambient space an input may name: a row of GF(q)^n packs into an
# n-lane int, so n = 10^13 exhausts memory first.  Codes and CAs in use have n <= 80.
MAX_AMBIENT_N = 1 << 16


class Subspace:
    """A subspace of GF(q)^n held in canonical form: one packed RREF.

    The subspace keeps one ``Echelon``, back-substituted into the RREF once
    at construction.  Its packed rows are the subspace's identity (equality,
    hash, sort key) and seed the distance and containment eliminations;
    ``basis`` unpacks them into a matrix of codes on request.
    """

    __slots__ = ("field", "ambient_n", "_echelon", "_entries")

    def __init__(self, field: GF, ambient_n: int, rows: Iterable[Sequence[int]] = ()):
        rows = MatrixGF(field, rows, ncols=ambient_n).rows
        self.field, self.ambient_n, self._entries = field, ambient_n, None
        self._echelon = Echelon(field, ambient_n, rows).reduce()

    @classmethod
    def from_matrix(cls, rows: MatrixGF) -> "Subspace":
        """Span of the rows of a matrix, canonicalized."""
        return cls.from_echelon(Echelon(rows.field, rows.ncols, rows.rows))

    @classmethod
    def from_echelon(cls, ech: Echelon, reduced: bool = False) -> "Subspace":
        """The span of an echelon's rows; the subspace keeps the echelon,
        back-substituted into the RREF unless ``reduced`` says it already is."""
        sub = cls.__new__(cls)
        sub.field, sub.ambient_n, sub._entries = ech.field, ech.ncols, None
        sub._echelon = ech if reduced else ech.reduce()
        return sub

    @property
    def basis(self) -> MatrixGF:
        """The RREF basis as a matrix of codes, unpacked on each request."""
        return MatrixGF.from_codes(self.field, self.sort_key(), self.ambient_n)

    @property
    def dim(self) -> int:
        return self._echelon.rank

    def is_zero(self) -> bool:
        return not self._echelon.rows

    # -- membership and comparison ------------------------------------------------

    def _check(self, other: "Subspace") -> None:
        if not isinstance(other, Subspace):
            raise TypeError(f"expected Subspace, got {type(other).__name__}")
        if other.field != self.field or other.ambient_n != self.ambient_n:
            raise AmbientMismatch(
                f"subspaces of GF({self.field.spec})^{self.ambient_n} and "
                f"GF({other.field.spec})^{other.ambient_n} are incomparable"
            )

    def __le__(self, other: "Subspace") -> bool:
        self._check(other)
        return _joint_rank(other, self._echelon.rows) == other.dim

    def _identity(self) -> tuple:
        return (self.field, self.ambient_n, tuple(self._echelon.rows))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    def entries(self) -> Sequence:
        """The RREF rows' entries, row after row (``RowFormat.sequence``),
        ordered as ``sort_key`` is: codes sort by it and writers read it.
        Read on first use and kept: the subspace never changes."""
        if self._entries is None:
            self._entries = self.field.format.sequence(self._echelon.rows, self.ambient_n)
        return self._entries

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """The RREF rows unpacked to codes: lexicographic order on them is that
        of the flattened entries, as every row has n of them."""
        unpack, n = self.field.format.unpack, self.ambient_n
        return tuple([unpack(row, n) for row in self._echelon.rows])

    def __repr__(self):
        rows = "; ".join(" ".join(str(c) for c in r) for r in self.basis.rows)
        return f"Subspace(dim {self.dim} of GF({self.field.spec})^{self.ambient_n}: {rows})"

    # -- enumeration (desk scale) -----------------------------------------------------

    def combination(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """sum_i coeffs[i] * (basis row i), as a tuple of element codes."""
        return self.field.format.unpack(self._combine(coeffs), self.ambient_n)

    def _combine(self, coeffs: Sequence[int]) -> int:
        sub_scaled, neg = self.field.format.sub_scaled, self.field.neg
        vec = 0
        for c, row in zip(coeffs, self._echelon.rows):
            if c:
                vec = sub_scaled(vec, neg(c), row)
        return vec

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim vectors of the subspace, as tuples of element codes."""
        for combo in itertools.product(range(self.field.q), repeat=self.dim):
            yield self.combination(combo)

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> list:
        return self.basis.to_json()

    @classmethod
    def from_json(cls, field: GF, ambient_n: int, data: Sequence) -> "Subspace":
        """Parse the ``to_json`` layout: the load of one stored codeword,
        ``_load`` of a code of one."""
        return _load(field, ambient_n, [data])[0]


def _load(field: GF, n: int, words: list) -> list[Subspace]:
    """The subspaces of stored codewords: the one load path.

    A few C-level passes over the rows of all of them check what
    ``MatrixGF.from_json`` checks entry by entry: lists of row lists of n
    entries, each an integer in [0, p) and no bool (over GF(p^m), a list of
    m such digits).  One ``RowFormat.pack_rows`` call packs every row.  When
    every codeword has as many rows as the first, ``Echelon.from_rrefs``
    checks in one pass that all are RREFs on the first one's pivots and
    holds them as they are; else each codeword's share of the packed rows
    goes to ``Echelon.from_rows``.  When a check fails, the codewords go to
    ``MatrixGF.from_json`` in turn only to have the first fault named, so
    each error reads as it always has.
    """
    rows = list(itertools.chain.from_iterable(words)) if _all_are(list, words) else None
    digits = None if rows is None else _stored_digits(field, n, rows)
    if digits is None:
        for word in words:
            MatrixGF.from_json(field, word, ncols=n)  # raises at the first fault
        raise ParseError("a codeword failed the load checks but not the per-entry ones")
    packed = field.format.pack_rows(digits, len(rows)) if digits else []
    sizes = set(map(len, words))
    echelons = Echelon.from_rrefs(field, n, packed, sizes.pop()) if len(sizes) == 1 else None
    if echelons is None:
        ends = itertools.accumulate(map(len, words))
        echelons = [Echelon.from_rows(field, n, packed[end - len(word) : end])
                    for word, end in zip(words, ends)]
    return [Subspace.from_echelon(ech, reduced=True) for ech in echelons]


def _stored_digits(field: GF, n: int, rows: list) -> list | None:
    """The base-p digits of stored rows, row after row and entry after
    entry, or None when some row is no list of n entries of digits in [0, p)."""
    if not (_all_are(list, rows) and set(map(len, rows)) <= {n}):
        return None
    digits = list(itertools.chain.from_iterable(rows))
    if field.m > 1:
        if not (_all_are(list, digits) and set(map(len, digits)) <= {field.m}):
            return None
        digits = list(itertools.chain.from_iterable(digits))
    if not _all_are(int, digits):
        return None
    distinct = set(digits)  # ints only now, so no bool or float merges with a digit
    return digits if not distinct or 0 <= min(distinct) and max(distinct) < field.p else None


def _all_are(kind: type, items: list) -> bool:
    """Every item is a ``kind`` and no bool; each type present is tested once."""
    return all([issubclass(t, kind) and t is not bool for t in set(map(type, items))])


def subspace_distance(a: Subspace, b: Subspace) -> int:
    """Subspace metric dim A + dim B - 2 dim(A intersect B).

    Uses rank(stack) = dim(A + B) and the dimension formula, so no
    intersection basis is built.
    """
    a._check(b)
    return 2 * _joint_rank(a, b._echelon.rows) - a.dim - b.dim


def _joint_rank(a: Subspace, rows: Iterable[int], cap: float = math.inf) -> int:
    """dim(A + B) for B spanned by packed ``rows``: a copy of A's echelon
    takes them.

    The rank only grows as rows go in, so once it is above ``cap`` the
    elimination stops and returns that rank, a lower bound above ``cap``.
    """
    return a._echelon.copy().extend(rows, cap)


# a block of 2, 4 or 8 bytes reads as one machine integer: its key in ``_Blocks.keys``
_KEY_TYPES = {2: "H", 4: "I", 8: "Q"}


class _Blocks:
    """``size`` blocks of ``lanes`` lanes of ``width`` bits side by side in one
    wide int, each rounded up to whole lanes and whole bytes: no row operation
    crosses a block, and the bytes of a wide row split at its bounds."""

    __slots__ = ("size", "block", "length", "ones", "split", "_key")

    def __init__(self, width: int, lanes: int, size: int):
        unit = math.lcm(8, width)
        block = self.block = -(-lanes * width // unit) * unit // 8  # bytes
        self.size, self.length = size, block * size
        self.ones = int.from_bytes(b"\x01".ljust(block, b"\0") * size, "little")  # 1 at each start
        self.split = struct.Struct(f"{block}s" * size).unpack
        self._key = _KEY_TYPES.get(block)

    def keys(self, wide: int) -> Sequence:
        """One key per block of the wide row, equal exactly where the blocks
        are, in one C-level call: a one-byte block is its byte, a block of 2,
        4 or 8 bytes one machine integer, and any other its ``bytes``."""
        data = wide.to_bytes(self.length, "little")
        if self._key:
            return memoryview(data).cast(self._key)
        return data if self.block == 1 else self.split(data)

    def join(self, rows: Iterable[int]) -> int:
        """The wide row that holds row i in block i."""
        return int.from_bytes(b"".join([r.to_bytes(self.block, "little") for r in rows]), "little")

    def masks(self, columns: Iterable[Sequence[int]]) -> list[dict[int, int]]:
        """Per column, one value a block: nonzero v -> every bit of the blocks that hold v."""
        out, block, starts = [], self.block, bytearray(self.length)
        for column in columns:
            out.append({})
            for v in set(column) - {0}:
                starts[::block] = bytes(map(v.__eq__, column))  # 1 at each chosen block's start
                ones = int.from_bytes(starts, "little")
                out[-1][v] = (ones << 8 * block) - ones
        return out


class _BlockLayout(_Blocks):
    """Codewords of one pivot set side by side, each in a block of wide ints.

    Row j of every codeword, shifted past the leading columns where all are
    pivots, sits in block i of one wide row W_j, so X = sum x_j W_j holds
    x R_i in block i, R_i the RREF rows of codeword i.
    """

    __slots__ = ("field", "offsets", "shift", "rows", "level")

    def __init__(self, words: Sequence[Subspace]):
        first = words[0]._echelon
        gf = self.field = first.field
        self.offsets, pivots = [c * gf.width for c in first.pivots], set(first.pivots)
        skip = next(c for c in itertools.count() if c not in pivots)
        super().__init__(gf.width, first.ncols - skip, len(words))
        shift = self.shift = skip * gf.width
        columns = zip(*[s._echelon.rows for s in words])  # row j of every codeword
        self.rows = [self.join([r >> shift for r in column]) for column in columns]
        q = gf.q  # a walk of dimension d takes (q^d - 1)/(q - 1) steps, and level reads d off them
        self.level = {(q**d - 1) // (q - 1): d for d in range(len(self.rows) + 1)}

    @staticmethod
    def fits(q: int, d: int, budget: int) -> bool:
        """A walk over the (q^d - 1)/(q - 1) projective vectors of GF(q)^d
        takes at most ``budget`` steps; bit lengths compared first, so a
        long d costs no power."""
        return d <= budget.bit_length() and (q**d - 1) // (q - 1) <= budget

    def walk(self, rows: Sequence[int]) -> Iterator[int]:
        """sum x_j rows[j] once for each projective x (first nonzero x_j = 1):
        for each leading row, a p-ary Gray code over the generators alpha^e
        rows[j] of the rows after it, one ``RowFormat.add`` a step (GF(q) is
        GF(p)^m under addition), which over GF(2^m) is XOR and runs in C."""
        gf, k = self.field, len(rows)
        p, sub_scaled = gf.p, gf.format.sub_scaled
        gens = [sub_scaled(0, gf.neg(p**e), rows[j]) for j in reversed(range(k))
                for e in range(gf.m)]
        steps: list[int] = []  # step t adds generator v, for p^v the largest power of p dividing t
        for v in range((k - 1) * gf.m):
            steps = (steps + [gens[v]]) * (p - 1) + steps
        return itertools.chain.from_iterable(
            itertools.accumulate(itertools.islice(steps, gf.q ** (k - 1 - j) - 1),
                                 gf.format.add, initial=x)
            for j, x in enumerate(rows)
        )

    def meets(self, rows: Sequence[int]) -> list[int]:
        """dim(C_i intersect U) for every codeword C_i, U spanned by the
        independent packed ``rows``.  u lies in C_i exactly when it is
        sum_j u[p_j] R_ij, p_j the pivots, so the linear residue u * ONES -
        sum_j u[p_j] W_j (past the leading pivots) is zero in block i exactly
        then, and a walk over the residues of U's rows finds block i zero at
        (q^d - 1)/(q - 1) projective combinations, d = dim(C_i intersect U)."""
        fmt = self.field.format
        mask, sub_scaled, shift, ones = fmt.mask, fmt.sub_scaled, self.shift, self.ones
        residues = []
        for u in rows:
            r = (u >> shift) * ones
            for offset, wide in zip(self.offsets, self.rows):
                c = u >> offset & mask
                if c:
                    r = sub_scaled(r, c, wide)
            residues.append(r)
        counts, keys, index = [0] * self.size, self.keys, range(self.size)
        zero = keys(0)[0]
        for x in self.walk(residues):
            blocks = keys(x)
            if zero in blocks:
                for i in itertools.compress(index, map(zero.__eq__, blocks)):
                    counts[i] += 1
        return list(map(self.level.__getitem__, counts))


def _shared_pivot_table(layout: _BlockLayout) -> tuple[tuple[int, ...], ...]:
    """The intersection table of subspaces that share one pivot set, from
    the projective coefficient vectors x on which they coincide: one walk
    over the codewords' wide rows, where a set test of the blocks' keys
    (``_Blocks.keys``) finds the steps at which blocks coincide.  Only
    those are paired, in one pass: each block's first holder is found in C,
    and each later holder adds 1 to its own row for every earlier one."""
    size, keys = layout.size, layout.keys
    index = range(size)
    table = [[0] * i for i in index]
    for x in layout.walk(layout.rows):
        blocks = keys(x)
        if len(set(blocks)) < size:
            first, holders = {}, {}
            heads = list(map(first.setdefault, blocks, index))  # each block's first holder
            for i in itertools.compress(index, map(int.__ne__, heads, index)):
                held = holders.setdefault(heads[i], [heads[i]])
                row = table[i]
                for j in held:
                    row[j] += 1
                held.append(i)
    for i, row in enumerate(table):  # in place: the two tables are never held at once
        table[i] = tuple(map(layout.level.__getitem__, row))  # d off (q^d - 1)/(q - 1) steps
    return tuple(table)


@dataclass(frozen=True)
class CodeParams:
    """Parameter tuple (n, max dimension, log_q of size, minimum distance).

    ``min_distance`` is None for singleton codes, where no pair exists to
    measure; callers must treat that as "undefined", not zero.
    """

    n: int
    max_dim: int
    log_q_size: float
    min_distance: int | None
    size: int


class GrassmannianCode:
    """An ordered set of distinct subspaces of one ambient space.

    Codewords are kept sorted by their canonical basis (lexicographic on the
    flattened RREF entries, the order of ``Subspace.sort_key``) and
    deduplicated; ``duplicates_removed`` records how many inputs collapsed
    onto an earlier codeword.  The order is that of each codeword's entry
    sequence (``Subspace.entries``), so over GF(2) and GF(p), p <= 13,
    building a code unpacks no codeword.
    """

    __slots__ = (
        "field", "ambient_n", "codewords", "constant_dim", "duplicates_removed", "_pairwise",
        "_nearest", "_rules", "_layout",
    )

    def __init__(self, field: GF, ambient_n: int, subspaces: Iterable[Subspace]):
        self.field = field
        self.ambient_n = ambient_n
        seen = {}
        total = 0
        for s in subspaces:
            if s.field != field or s.ambient_n != ambient_n:
                raise AmbientMismatch("codeword from a different ambient space")
            total += 1
            seen.setdefault(s.entries(), s)
        self.codewords: tuple[Subspace, ...] = tuple(
            seen[k] for k in sorted(seen)
        )
        self.duplicates_removed = total - len(self.codewords)
        dims = {s.dim for s in self.codewords}
        self.constant_dim = dims.pop() if len(dims) == 1 else None
        self._pairwise: tuple[tuple[int, ...], ...] | None = None
        self._nearest: tuple[int | float, ...] | None = None
        self._rules: tuple[Polynomial | None, ...] | None = None
        self._layout: _BlockLayout | bool | None = None  # False: no one pivot set

    def __len__(self) -> int:
        return len(self.codewords)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.codewords)

    def __getitem__(self, i: int) -> Subspace:
        return self.codewords[i]

    def min_distance(self) -> int:
        """Least distance of two codewords, off the pairwise table: 2k - 2 max
        dim(C_i intersect C_j) for one dimension k, else ``nearest_distances``."""
        if len(self.codewords) < 2:
            raise TooFewCodewords("minimum distance needs at least two codewords")
        if self.constant_dim is None:
            return min(self.nearest_distances())
        return 2 * self.constant_dim - 2 * max(map(max, self.pairwise_intersection_dims()[1:]))

    def nearest_distances(self) -> tuple[int | float, ...]:
        """Each codeword's distance to its nearest other codeword (inf for a
        lone codeword), read in one pass over the pairwise table.  Computed
        on first use and kept: the codewords never change."""
        if self._nearest is None:
            dims = [s.dim for s in self.codewords]
            nearest = [math.inf] * len(dims)
            for i, row in enumerate(self.pairwise_intersection_dims()):
                mine, best = dims[i], math.inf  # later rows lower nearest[i] in turn
                for j, meet in enumerate(row):
                    d = mine + dims[j] - 2 * meet
                    if d < best:
                        best = d
                    if d < nearest[j]:
                        nearest[j] = d
                nearest[i] = best
            self._nearest = tuple(nearest)
        return self._nearest

    def pairwise_intersection_dims(self) -> tuple[tuple[int, ...], ...]:
        """Triangular table: row i lists dim(C_i intersect C_j) for j < i.

        Computed on first use and kept: the codewords never change.  Over
        one pivot set of size k, a walk step tests N blocks and a pair
        reduces k rows, a row costing at least c block tests: c = 4 on the
        packed formats, where a block test is C level, and c = 1 on the
        per-entry ``RowFormat``, whose walk steps unpack every lane.  So the
        walk over (q^k - 1)/(q - 1) vectors runs when they are at most
        c k (N - 1)/2, bit lengths compared first.  Every other code
        eliminates each pair's stacked bases.  With a step one C-level add
        and key read (Python 3.11, 2-core x86-64, random families of Poly_k),
        the walk won 1.1 to 3.2x over GF(2) at up to 4 k (N - 1)/2 vectors
        (k = 6, 8, 10), and past 4 it lost 1.03 to 1.45x on six of seven
        codes; over GF(3), GF(5), GF(7), GF(2^2) and GF(2^3) it won 1.2 to
        2.3x at 7.6 to 8.5 on 6 to 18 codewords but lost 1.1 to 1.5x on 4
        to 7, so c stays 4.
        """
        if self._pairwise is None:
            words, k = self.codewords, self.constant_dim or 0
            c = 4 if self.field.format.wide else 1
            walk = _BlockLayout.fits(self.field.q, k, c * k * (len(words) - 1) // 2)
            layout = self.block_layout() if walk else None
            if layout is not None:
                self._pairwise = _shared_pivot_table(layout)
            else:
                self._pairwise = tuple(
                    tuple(a.dim + b.dim - _joint_rank(a, b._echelon.rows) for b in words[:i])
                    for i, a in enumerate(words)
                )
        return self._pairwise

    def block_layout(self) -> _BlockLayout | None:
        """The codewords side by side when they share one pivot set, else
        None.  Computed on first use and kept: the codewords never change."""
        if self._layout is None:
            pivots = [s._echelon.pivots for s in self.codewords]  # a load's share one list
            shared = bool(pivots) and pivots.count(pivots[0]) == len(pivots)
            self._layout = shared and _BlockLayout(self.codewords)
        return self._layout or None

    @property
    def rules(self) -> tuple[Polynomial | None, ...]:
        """The rule whose kernel at n = 2k each codeword is, or None where
        there is none, in codeword order: one ``ca.kernel_rules`` pass over
        the code, which reads its ``block_layout``.  Computed on first use and
        kept: the codewords never change."""
        if self._rules is None:
            from .ca import kernel_rules  # ca builds on this module

            self._rules = tuple(kernel_rules(self))
        return self._rules

    def params(self) -> CodeParams:
        """The [n, max dim, log_q size, min distance] parameter tuple."""
        if not self.codewords:
            raise EmptyCode("parameters of an empty code")
        size = len(self.codewords)
        ell = max(s.dim for s in self.codewords)
        exact = round(math.log(size, self.field.q))
        if self.field.q**exact == size:
            log_q = float(exact)
        else:
            log_q = math.log(size) / math.log(self.field.q)
        dmin = self.min_distance() if size >= 2 else None
        return CodeParams(self.ambient_n, ell, log_q, dmin, size)

    # -- serialization -----------------------------------------------------------------

    def to_json(self) -> dict:
        """The code file format: {"q", "n", "codewords"}; round-trips exactly."""
        return {
            "q": self.field.spec,
            "n": self.ambient_n,
            "codewords": [s.to_json() for s in self.codewords],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GrassmannianCode":
        """Parse the code file format; a malformed document is a ``ParseError``.

        The codewords load in one pass of ``_load``, the one load path, which
        names the first malformed codeword when a check fails.
        """
        for key in ("q", "n", "codewords"):
            if key not in data:
                raise ParseError(f"a code object needs {key!r}")
        q, n, words = data["q"], data["n"], data["codewords"]
        if not isinstance(q, str):
            raise ParseError(f"field spec {q!r} is not a string")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ParseError(f"ambient dimension {n!r} is not a non-negative integer")
        if n > MAX_AMBIENT_N:
            raise ParseError(f"ambient dimension {n} exceeds {MAX_AMBIENT_N}")
        if not isinstance(words, list):
            raise ParseError(f"codewords {words!r} is not a list")
        field = GF.from_spec(q)
        return cls(field, n, _load(field, n, words))

