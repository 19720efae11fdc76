"""Exact linear algebra over GF(q): RREF, rank, null spaces, Sylvester matrices.

Matrices store their entries as integer element codes (see ``algebra.GF``),
one row per tuple.  ``MatrixGF`` serves the API edge and the reference
routes (transition matrices, null spaces, Sylvester matrices), not the load
path: ``MatrixGF(field, rows)`` validates each entry, code that already
holds valid codes builds through ``MatrixGF.from_codes``, and
``MatrixGF.from_json`` is the per-entry checker of the code file layout,
which names the first fault of a stored codeword that the one load path
(``subspaces._load``) refuses.
``Echelon.from_rrefs`` is the one way from packed rows to echelons (a code
load's, a batch of kernels'): it holds the groups that already are an RREF
as they are, one pass checking a whole batch, and eliminates any other.
``Echelon.extend`` (``insert`` for one row) is the one elimination
routine: RREF, rank, null spaces and the subspace layer all grow an echelon
row by row.  An echelon holds each row packed into one Python int, in the
format its field defines (``algebra.RowFormat``), so a row operation is a
few whole-integer operations; rows of codes are packed on the way in and
unpacked only where codes are read.  The held rows are keyed by the bit
offset of their pivot lane, so a new row meets only the held rows whose
pivots it hits, from its lowest nonzero lane up, and stops at the first
lane on which none pivots: the held rows stay in row echelon form, and a
rank needs no more.  The back-substitution into the RREF,
``Echelon.reduce``, runs where a canonical basis is wanted.  All arithmetic
is exact, so rank and nullity are the true algebraic values.

The Sylvester matrix here follows the convolution layout: for nonzero f and
g, the first deg(g) rows are right-shifted copies of f's ascending
coefficient vector and the next deg(f) rows are shifted copies of g's.  Its
null space has dimension deg(gcd(f, g)).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Sequence

from .algebra import GF, GFElement, Polynomial, check_residue
from .errors import FieldMismatch, LengthMismatch, ParseError, ZeroPolynomial


class MatrixGF:
    """A dense matrix over a ``GF`` field.

    Rows are tuples of integer element codes.  An explicit ``ncols`` is
    required when constructing a matrix with no rows, so that shapes stay
    meaningful for empty bases.
    """

    __slots__ = ("field", "rows", "ncols")

    def __init__(
        self,
        field: GF,
        rows: Iterable[Sequence[int | GFElement]] = (),
        ncols: int | None = None,
    ):
        self.field = field
        self.rows, self.ncols = _shaped(
            [tuple(field.code_of(c) for c in row) for row in rows], ncols
        )

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_codes(cls, field: GF, rows: tuple[tuple[int, ...], ...], ncols: int) -> "MatrixGF":
        """Wrap rows of valid codes, each of length ``ncols``, without re-checking."""
        matrix = cls.__new__(cls)
        matrix.field, matrix.rows, matrix.ncols = field, rows, ncols
        return matrix

    # -- shape and access ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def __eq__(self, other):
        if not isinstance(other, MatrixGF):
            return NotImplemented
        return (self.field, self.ncols, self.rows) == (other.field, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in row) for row in self.rows)
        return f"MatrixGF({self.shape[0]}x{self.shape[1]} over GF({self.field.spec}): {body})"

    # -- elimination ------------------------------------------------------------------------

    def rref(self) -> tuple["MatrixGF", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot column indices."""
        ech = Echelon(self.field, self.ncols, self.rows)
        zeros = ((0,) * self.ncols,) * (self.nrows - ech.rank)
        return (
            MatrixGF.from_codes(self.field, ech.matrix().rows + zeros, self.ncols),
            tuple(ech.pivots),
        )

    def rank(self) -> int:
        return Echelon(self.field, self.ncols, self.rows).rank

    def nullspace_basis(self) -> "MatrixGF":
        """Basis of the right null space {x : M x = 0}, one vector per row.

        One basis vector per free column, in ascending column order, each
        with a 1 in its free position: the canonical complement of the RREF.
        """
        gf = self.field
        ech = Echelon(self.field, self.ncols, self.rows)
        reduced, pivot_set = ech.matrix().rows, set(ech.pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            vec = [0] * self.ncols
            vec[fc] = 1
            for pc, row in zip(ech.pivots, reduced):
                if row[fc]:
                    vec[pc] = gf.neg(row[fc])
            basis.append(tuple(vec))
        return MatrixGF.from_codes(gf, tuple(basis), self.ncols)

    # -- serialization -----------------------------------------------------------------------

    def to_json(self) -> list:
        """Rows as lists of ints (prime field) or coefficient lists (extension)."""
        if self.field.m == 1:
            return [list(row) for row in self.rows]
        return [
            [list(self.field.decode(c)) for c in row] for row in self.rows
        ]

    @classmethod
    def from_json(cls, field: GF, data: Sequence, ncols: int | None = None) -> "MatrixGF":
        """Parse the ``to_json`` layout, digits in [0, p); anything else is a ``ParseError``."""

        def entry(e):
            if field.m == 1:
                return _json_digit(e, field.p)
            if not isinstance(e, list) or len(e) != field.m:
                raise ParseError(f"entry {e!r} is not a list of {field.m} integers")
            return field.encode([_json_digit(a, field.p) for a in e])

        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ParseError("a matrix must be a list of row lists")
        return cls.from_codes(field, *_shaped([tuple(map(entry, row)) for row in data], ncols))


def _shaped(
    rows: list[tuple[int, ...]], ncols: int | None
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows and their common length, which must equal ``ncols`` if given."""
    if not rows:
        return (), 0 if ncols is None else ncols
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise LengthMismatch("matrix rows have unequal lengths")
    if ncols is not None and ncols != width:
        raise LengthMismatch(f"rows have {width} columns, expected {ncols}")
    return tuple(rows), width


def _json_digit(value, p: int) -> int:
    # JSON true and false load as bool, an int subclass, but are no integers
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{value!r} is not an integer")
    return check_residue(value, p)


def sylvester(f: Polynomial, g: Polynomial) -> MatrixGF:
    """Sylvester matrix of two nonzero polynomials, convolution layout.

    Square of side deg(f) + deg(g): first deg(g) rows carry right-shifted
    copies of f's ascending coefficients, then deg(f) rows carry g's.  Two
    nonzero constants give the empty 0 x 0 matrix.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("Sylvester matrix requires nonzero polynomials")
    if f.field != g.field:
        raise FieldMismatch("Sylvester matrix of polynomials over different fields")
    df, dg = int(f.degree), int(g.degree)
    n = df + dg
    rows = tuple(
        (0,) * i + c + (0,) * (n - i - len(c))
        for c, shifts in ((f.to_codes(), dg), (g.to_codes(), df))
        for i in range(shifts)
    )
    return MatrixGF.from_codes(f.field, rows, n)


class Echelon:
    """The row echelon form of the rows inserted so far.

    Rows are packed ints in the field's row format (``GF.format``): the
    format does the row operations, and an entry is read straight from its
    lane (``width`` bits at column * width, under ``mask``).  Each held row
    is zero before its pivot and 1 at it, and is kept under the bit offset
    of its pivot lane.  A new row is cleared from its lowest nonzero lane
    up: a held row whose pivot sits there cancels that lane, and the first
    lane on which no held row pivots is the new row's pivot, so it goes in
    scaled to a leading 1 and is not reduced further.  ``rows`` lists the
    held rows in ascending pivot order and ``pivots`` their pivot columns,
    both derived on demand and kept until the next row goes in.  No row
    operation changes a held row; ``reduce`` back-substitutes them into the
    RREF in place.  ``copy`` seeds a new echelon with the held rows without
    repacking, and ``from_rrefs`` builds echelons of packed rows.
    """

    __slots__ = ("field", "ncols", "_held", "_rows", "_pivots")

    def __init__(self, field: GF, ncols: int, rows: Iterable[Sequence[int]] = ()):
        """An echelon of ``rows`` given as sequences of codes, packed on entry."""
        self.field, self.ncols = field, ncols
        self._held: dict[int, int] = {}
        self._rows: list[int] | None = None
        self._pivots: list[int] | None = None
        if rows:
            self.extend(map(field.format.pack, rows))

    @classmethod
    def from_rrefs(cls, field: GF, ncols: int, rows: list[int], sizes: list[int]) -> list[Echelon]:
        """The reduced echelons of packed rows taken ``sizes[i]`` at a time:
        the one way from packed rows to echelons.  Groups of one size that
        are all RREFs on the pivots of the first are held as they are.  The
        pivots are the lowest nonzero lanes of the first group's rows and
        must ascend; one C-level pass over all rows checks that each is 0
        below its own pivot, 1 at it and 0 at the others, and every echelon
        holds the one list of those pivot columns.  Otherwise each group is
        taken on its own: held if it passes the same check, else eliminated
        and reduced."""
        size, w = sizes[0] if sizes else 0, field.width
        head = rows[:size] if set(sizes) == {size} else []
        # fewer than ``size`` when a row is zero or missing (n = 0 packs no row)
        offsets = [((row & -row).bit_length() - 1) // w * w for row in head if row]
        lanes = sum([field.mask << offset for offset in offsets])
        masks = itertools.cycle([lanes | (1 << o) - 1 for o in offsets])  # pivots and below
        units = itertools.cycle([1 << o for o in offsets])
        if not size or len(offsets) < size or offsets != sorted(set(offsets)) or not all(
            map(operator.eq, map(operator.and_, rows, masks), units)
        ):
            if len(sizes) != 1:
                ends = itertools.accumulate(sizes)
                return [ech for size, end in zip(sizes, ends)
                        for ech in cls.from_rrefs(field, ncols, rows[end - size : end], [size])]
            ech = cls(field, ncols)
            ech.extend(rows)
            return [ech.reduce()]
        pivots = [offset // w for offset in offsets]  # one list, every echelon's
        out = []
        for i in range(0, size * len(sizes), size):
            ech = cls.__new__(cls)
            ech.field, ech.ncols, ech._rows, ech._pivots = field, ncols, rows[i : i + size], pivots
            ech._held = dict(zip(offsets, ech._rows))
            out.append(ech)
        return out

    @property
    def rank(self) -> int:
        return len(self._held)

    @property
    def rows(self) -> list[int]:
        """The held rows in ascending pivot order."""
        if self._rows is None:
            held = self._held
            self._rows = [held[offset] for offset in sorted(held)]
        return self._rows

    @property
    def pivots(self) -> list[int]:
        """The pivot columns of ``rows``, ascending."""
        if self._pivots is None:
            w = self.field.width
            self._pivots = [offset // w for offset in sorted(self._held)]
        return self._pivots

    def copy(self) -> "Echelon":
        ech = Echelon.__new__(Echelon)
        ech.field, ech.ncols, ech._held = self.field, self.ncols, self._held.copy()
        ech._rows, ech._pivots = self._rows, self._pivots  # never changed in place
        return ech

    def insert(self, row: int) -> bool:
        """Add a packed row; True when it was independent of the held rows."""
        rank = len(self._held)
        return self.extend((row,)) > rank

    def extend(self, rows: Iterable[int], cap: float = math.inf) -> int:
        """Add packed rows in turn and return the rank.

        The rank only grows as rows go in, so once it is above ``cap`` the
        remaining rows are left out: the rank returned is then a lower bound
        above ``cap``.
        """
        held, fmt = self._held, self.field.format
        w, mask, sub_scaled = fmt.width, fmt.mask, fmt.sub_scaled
        for row in rows:
            if len(held) > cap:
                break
            while row:
                low = (row & -row).bit_length() - 1
                offset = low - low % w  # the lowest nonzero lane
                pivot_row = held.get(offset)
                if pivot_row is None:
                    lead = row >> offset & mask
                    if lead != 1:
                        gf = self.field
                        row = sub_scaled(0, gf.neg(gf.inv(lead)), row)  # row / lead
                    held[offset] = row
                    self._rows = self._pivots = None
                    break
                row = sub_scaled(row, row >> offset & mask, pivot_row)
        return len(held)

    def reduce(self) -> "Echelon":
        """Back-substitute the held rows into the RREF in place, clearing each
        pivot column above its pivot from the last pivot up; returns self."""
        held, fmt = self._held, self.field.format
        mask, sub_scaled = fmt.mask, fmt.sub_scaled
        offsets = sorted(held)
        rows = [held[offset] for offset in offsets]
        for j in range(len(rows) - 1, 0, -1):
            shift, below = offsets[j], rows[j]
            for i in range(j):
                x = rows[i] >> shift & mask
                if x:
                    rows[i] = held[offsets[i]] = sub_scaled(rows[i], x, below)
        self._rows = rows
        return self

    def matrix(self) -> MatrixGF:
        """The RREF of the held rows (``reduce`` first) as a matrix of codes."""
        unpack, n = self.field.format.unpack, self.ncols
        rows = tuple([unpack(row, n) for row in self.reduce().rows])
        return MatrixGF.from_codes(self.field, rows, n)
