"""Exact linear algebra over GF(q): RREF, rank, null spaces, resultants.

Matrices store their entries as integer element codes (see ``algebra.GF``),
one row per tuple.  ``MatrixGF(field, rows)`` validates each entry; code that
already holds valid codes (RREF output, stacks, Sylvester and transition
matrices, kernels) builds through ``MatrixGF.from_codes`` instead.
``Echelon.insert`` is the one elimination routine: RREF, rank, null spaces,
determinants and the subspace layer all grow an echelon row by row.  All
arithmetic is exact, so rank and nullity are the true algebraic values.

The Sylvester matrix here follows the convolution layout: for nonzero f and
g, the first deg(g) rows are right-shifted copies of f's ascending
coefficient vector and the next deg(f) rows are shifted copies of g's.  Its
null space has dimension deg(gcd(f, g)), which the resultant turns into the
classic coprimality test: res(f, g) != 0 iff gcd(f, g) = 1.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from .algebra import GF, GFElement, Polynomial
from .errors import FieldMismatch, LengthMismatch, ZeroPolynomial


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
        packed = [tuple(field.code_of(c) for c in row) for row in rows]
        if packed:
            width = len(packed[0])
            if any(len(r) != width for r in packed):
                raise LengthMismatch("matrix rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise LengthMismatch(f"rows have {width} columns, expected {ncols}")
            self.ncols = width
        else:
            self.ncols = 0 if ncols is None else ncols
        self.rows = tuple(packed)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_codes(cls, field: GF, rows: tuple[tuple[int, ...], ...], ncols: int) -> "MatrixGF":
        """Wrap rows of valid codes, each of length ``ncols``, without re-checking."""
        matrix = cls.__new__(cls)
        matrix.field, matrix.rows, matrix.ncols = field, rows, ncols
        return matrix

    @classmethod
    def zero(cls, field: GF, nrows: int, ncols: int) -> "MatrixGF":
        return cls.from_codes(field, ((0,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, field: GF, n: int) -> "MatrixGF":
        return cls.from_codes(
            field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n
        )

    # -- shape and access ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, MatrixGF):
            return NotImplemented
        return (self.field, self.ncols, self.rows) == (other.field, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in row) for row in self.rows)
        return f"MatrixGF({self.shape[0]}x{self.shape[1]} over GF({self.field.spec}): {body})"

    # -- algebra ------------------------------------------------------------------------

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        if not isinstance(other, MatrixGF):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch("matrix product across different fields")
        if self.ncols != other.nrows:
            raise LengthMismatch(
                f"inner dimensions differ: {self.shape} @ {other.shape}"
            )
        gf = self.field
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        out = []
        for row in self.rows:
            new_row = []
            for col in cols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = gf.add(acc, gf.mul(a, b))
                new_row.append(acc)
            out.append(tuple(new_row))
        return MatrixGF.from_codes(gf, tuple(out), other.ncols)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector of codes; returns a tuple of codes."""
        if len(vec) != self.ncols:
            raise LengthMismatch(f"vector length {len(vec)} != {self.ncols} columns")
        gf = self.field
        out = []
        for row in self.rows:
            acc = 0
            for a, b in zip(row, vec):
                if a and b:
                    acc = gf.add(acc, gf.mul(a, b))
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "MatrixGF":
        if not self.rows:
            return MatrixGF.from_codes(self.field, ((),) * self.ncols, 0)
        return MatrixGF.from_codes(self.field, tuple(zip(*self.rows)), self.nrows)

    def stack(self, other: "MatrixGF") -> "MatrixGF":
        """Vertical concatenation (rows of self above rows of other)."""
        if other.field != self.field:
            raise FieldMismatch("stacking matrices over different fields")
        if self.ncols != other.ncols:
            raise LengthMismatch(
                f"column counts differ: {self.ncols} vs {other.ncols}"
            )
        return MatrixGF.from_codes(self.field, self.rows + other.rows, self.ncols)

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
        pivot_set = set(ech.pivots)
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_set:
                continue
            vec = [0] * self.ncols
            vec[fc] = 1
            for pc, row in zip(ech.pivots, ech.rows):
                if row[fc]:
                    vec[pc] = gf.neg(row[fc])
            basis.append(tuple(vec))
        return MatrixGF.from_codes(gf, tuple(basis), self.ncols)

    def det(self) -> GFElement:
        """Determinant: the product of the pivots and the sign of their order."""
        if self.nrows != self.ncols:
            raise LengthMismatch(f"determinant of non-square {self.shape} matrix")
        ech = Echelon(self.field, self.ncols, self.rows)
        return GFElement(self.field, ech.scale if ech.rank == self.nrows else 0)

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
        if field.m == 1:
            rows = [[int(c) for c in row] for row in data]
        else:
            rows = [[field.encode([int(a) for a in e]) for e in row] for row in data]
        return cls(field, rows, ncols=ncols)


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


def resultant(f: Polynomial, g: Polynomial) -> GFElement:
    """Determinant of the Sylvester matrix; nonzero iff gcd(f, g) = 1."""
    return sylvester(f, g).det()


class Echelon:
    """The RREF of the rows inserted so far, grown one row at a time.

    ``rows`` holds the reduced nonzero rows in ascending pivot order and
    ``pivots`` their pivot columns.  ``scale`` is the product of the leading
    entries met, negated once per pivot inserted out of column order: for the
    rows of a square matrix of full rank it ends as the determinant.  Rows
    that are already reduced, such as a subspace's basis, go in without any
    row operation.
    """

    __slots__ = ("field", "ncols", "rows", "pivots", "scale")

    def __init__(self, field: GF, ncols: int, rows: Iterable[Sequence[int]] = ()):
        self.field, self.ncols = field, ncols
        self.rows: list[Sequence[int]] = []
        self.pivots: list[int] = []
        self.scale = 1
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: Sequence[int]) -> bool:
        """Add a row of codes; True when it was independent of the held rows."""
        gf = self.field
        for c, held in zip(self.pivots, self.rows):
            if row[c]:
                row = gf.sub_scaled(row, row[c], held)
        lead_col = next((c for c, x in enumerate(row) if x), None)
        if lead_col is None:
            return False
        lead = row[lead_col]
        if lead != 1:
            inv = gf.inv(lead)
            row = [gf.mul(inv, x) for x in row]
        for i, held in enumerate(self.rows):
            if held[lead_col]:
                self.rows[i] = gf.sub_scaled(held, held[lead_col], row)
        pos = bisect.bisect(self.pivots, lead_col)
        self.scale = gf.mul(self.scale, lead)
        if (len(self.pivots) - pos) % 2:
            self.scale = gf.neg(self.scale)
        self.pivots.insert(pos, lead_col)
        self.rows.insert(pos, row)
        return True

    def matrix(self) -> MatrixGF:
        """The held rows as a matrix: the canonical basis of their span."""
        return MatrixGF.from_codes(self.field, tuple(map(tuple, self.rows)), self.ncols)
