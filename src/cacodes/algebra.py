"""Exact arithmetic in GF(q), q = p^m, and in the polynomial ring GF(q)[X].

Representation conventions used throughout the library:

* A field element is a vector of m coefficients (a_0, ..., a_{m-1}) over the
  prime subfield, ascending powers of the adjoined root.  Elements are
  encoded as the integer a_0 + a_1*p + ... + a_{m-1}*p^(m-1); for a prime
  field (m = 1) the code is just the residue.  ``GF`` exposes arithmetic on
  integer codes; ``GFElement`` is the operator-overloaded wrapper around one
  code.
* A polynomial stores the tuple of its coefficient codes in ascending powers
  with no trailing zeros: the canonical form.  The zero polynomial has the
  empty tuple and degree ``-inf`` (a distinguished marker, never the integer
  0).  ``coeffs`` boxes the codes as ``GFElement``s on request.
* Values are validated once, where they enter: ``Polynomial(field, values)``
  coerces each value through ``GF.element``.  Code that already holds valid
  codes builds through ``Polynomial.from_codes``, which does not re-check.
* GCDs are always returned monic, so they are unique.  ``FactorTable``
  factors all monic polynomials up to a degree with one sieve, for callers
  that need the GCDs of many pairs; ``poly_gcd`` serves one pair.
* A vector of codes is packed into one Python int, in a format the field
  picks from p and m (``GF.row_format``, ``RowFormat``), and
  ``RowFormat.sub_scaled`` is its one operation: u - c*v in a few
  whole-integer operations, XOR in characteristic 2, instead of one field
  operation per entry.  Elimination works on packed rows, and so does
  polynomial arithmetic: lane i holds the coefficient of X^i, so X^s * b is
  b shifted s lanes up, a long-division step is ``sub_scaled(a, c, b << s)``
  and a product is a sum of shifted rows.

Extension fields are supported for m <= 4.  The reducing modulus is chosen
deterministically as the lexicographically smallest monic irreducible of
degree m over GF(p), comparing ascending-power coefficient vectors with
0 < 1 < ... < p-1.  Products are polynomial products over GF(p) reduced by
the modulus.  When q <= 4096 they and inverses are read instead from the
exp/log tables of the first generator g of GF(q)*: a*b = g^(log a + log b).

Text formats (used by the CLI and the JSON files):

* field spec: ``"p"`` or ``"p^m"``, e.g. ``"2"``, ``"3"``, ``"2^2"``;
* polynomial: comma-separated ascending coefficients, e.g. ``"1,1,1"`` for
  1 + X + X^2 over GF(2); over an extension field each coefficient is an
  m-tuple in brackets, e.g. ``"[0,1],[1,0]"``.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Sequence

from .errors import (
    BothZero,
    DivisionByZero,
    FieldMismatch,
    InvalidDegree,
    NotPrime,
    ParseError,
    PrimeTooLarge,
)

NEG_INF = float("-inf")  # degree of the zero polynomial

_MAX_EXTENSION_DEGREE = 4
MAX_SPEC_PRIME = 2**31 - 1  # is_prime's trial division takes milliseconds up to here
_TABLE_LIMIT = 4096  # build exp/log tables of GF(q)* up to this order


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class GF:
    """The finite field of order q = p^m.

    Arithmetic methods (``add``, ``mul``, ``inv``, ...) operate on integer
    element codes in [0, q); ``element`` wraps a code into a ``GFElement``.
    Two instances of the same order compare equal and hash alike.  The field
    itself never changes; each instance only caches the exp/log tables of an
    extension field with q <= 4096 and one packed row format per row length
    it has been asked for
    (``row_format``), since elimination and polynomial arithmetic ask for the
    same few lengths again and again.
    """

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if m < 1:
            raise InvalidDegree(f"extension degree must be >= 1, got {m}")
        if m > _MAX_EXTENSION_DEGREE:
            raise InvalidDegree(
                f"extension degree must be <= {_MAX_EXTENSION_DEGREE}, got {m}"
            )
        self.p = p
        self.m = m
        self.q = p**m
        self._modulus: Polynomial | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._row_formats: dict[int, RowFormat] = {}
        if m > 1:
            self._modulus = _smallest_irreducible_modulus(p, m)
            if self.q <= _TABLE_LIMIT:
                self._build_tables()

    # -- identity ------------------------------------------------------------

    @property
    def spec(self) -> str:
        """Field spec string: ``"p"`` for prime fields, else ``"p^m"``."""
        return str(self.p) if self.m == 1 else f"{self.p}^{self.m}"

    @classmethod
    def from_spec(cls, spec: str) -> "GF":
        """Parse a field spec string such as ``"2"`` or ``"2^2"``.

        A prime above ``MAX_SPEC_PRIME`` is refused before the primality test.
        """
        parts = spec.strip().split("^")
        if len(parts) > 2:
            raise ParseError(f"malformed field spec {spec!r}")
        p, *m = (_parse_int(t, spec) for t in parts)
        if p > MAX_SPEC_PRIME:
            raise PrimeTooLarge(f"prime {p} exceeds {MAX_SPEC_PRIME}")
        return cls(p, *m)

    @property
    def modulus(self) -> "Polynomial | None":
        """The reducing modulus as a polynomial over GF(p); None for m = 1."""
        return self._modulus

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return self.p == other.p and self.m == other.m

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        return f"GF({self.spec})"

    # -- code <-> coefficient vector ------------------------------------------

    def encode(self, coeffs: Sequence[int]) -> int:
        code = 0
        for a in reversed(coeffs):
            code = code * self.p + (a % self.p)
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    # -- arithmetic on integer codes -------------------------------------------

    # In characteristic 2 the digits are bits, so digit-wise addition and
    # subtraction are both XOR of the codes and every element is its own
    # negative.

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        return self.encode([x - y for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self.encode([-x for x in self.decode(a)])

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]] if a and b else 0
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._log is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self.pow(a, self.q - 2)

    def row_format(self, ncols: int) -> "RowFormat":
        """The packed format of rows of ``ncols`` entries over this field."""
        fmt = self._row_formats.get(ncols)
        if fmt is None:
            if self.p == 2:
                kind = _XorFormat
            elif self.m == 1 and self.p <= _MOD_LANE_MAX_P:
                kind = _ModFormat
            else:
                kind = RowFormat
            fmt = self._row_formats[ncols] = kind(self, ncols)
        return fmt

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if n == 0:
            return 1
        result = a
        for bit in bin(n)[3:]:  # below the top bit: square, and times a on a 1
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    # -- element construction ---------------------------------------------------

    def element(self, value: "int | Sequence[int] | GFElement") -> "GFElement":
        """Coerce an integer code, coefficient vector, or element into this field.

        Plain integers are taken mod p and embedded via the prime subfield,
        so ``element(1)`` is the multiplicative identity in every field.
        """
        if isinstance(value, GFElement):
            if value.field != self:
                raise FieldMismatch(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, int):
            return GFElement(self, value % self.p)
        coeffs = tuple(value)
        if len(coeffs) != self.m:
            raise FieldMismatch(
                f"expected {self.m} coefficients for {self}, got {len(coeffs)}"
            )
        return GFElement(self, self.encode(coeffs))

    def code_of(self, value: "int | GFElement") -> int:
        """Integer code of a value given as an element or a raw code.

        Plain ints are residues mod p for prime fields; for extension fields
        they must already be valid codes in [0, q).
        """
        if isinstance(value, GFElement):
            if value.field != self:
                raise FieldMismatch(f"element of {value.field} used in {self}")
            return value.code
        v = int(value)
        if self.m == 1:
            return v % self.p
        if not 0 <= v < self.q:
            raise FieldMismatch(f"code {v} out of range for {self}")
        return v

    @property
    def zero(self) -> "GFElement":
        return GFElement(self, 0)

    @property
    def one(self) -> "GFElement":
        return GFElement(self, 1)

    def elements(self) -> Iterator["GFElement"]:
        """All q elements in ascending code order."""
        for code in range(self.q):
            yield GFElement(self, code)

    # -- internal: extension-field machinery -----------------------------------

    def _mul_slow(self, a: int, b: int) -> int:
        # the coefficient vectors as polynomials over GF(p), reduced by the modulus
        mod = self._modulus
        x, y = (Polynomial.from_codes(mod.field, self.decode(c)) for c in (a, b))
        return self.encode((x * y % mod).to_codes())

    def _build_tables(self) -> None:
        # exp[i] = g^i for the first g whose powers reach all of GF(q)*, kept
        # twice over so that exp[log a + log b] needs no reduction mod q - 1;
        # g has order q - 1 unless g^((q - 1)/r) = 1 for a prime r | q - 1
        n = self.q - 1
        cofactors = [n // r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        g = next(
            g for g in range(2, self.q) if all(self.pow(g, c) != 1 for c in cofactors)
        )
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = self._mul_slow(x, g)
        log = [0] * self.q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp, self._log = exp + exp, log


# -- packed rows ----------------------------------------------------------------------


class RowFormat:
    """Rows of ``ncols`` field entries, each packed into one Python int.

    Entry j sits in lane j, the ``width`` bits from bit j * width, so column 0
    is the lowest lane and the leading (lowest nonzero) column of a row is
    read off its lowest set bit.  The zero row is 0, and rows with disjoint
    columns combine with ``|``.  A polynomial's row has the coefficient of
    X^i in lane i: its degree is read off the highest set bit, and times X^s
    it is the row shifted s lanes up.  ``GF.row_format`` picks the format
    from p and m:

    * p = 2 (``_XorFormat``): a lane is the m-bit code itself, so adding rows
      is XOR and scaling is m masked shifts and small multiplications;
    * odd p <= 13, m = 1 (``_ModFormat``): 8-bit lanes; u - c*v is the integer
      u + (p - c)*v, whose lanes stay below p^2 < 256 so no carry crosses a
      lane, reduced mod p by one ``bytes.translate``;
    * every other field (this base class): lanes just wide enough for a
      code, and a row operation unpacks both rows and works entry by entry.

    Packing trusts its codes to lie in [0, q).
    """

    __slots__ = ("field", "ncols", "width", "mask", "shifts")

    def __init__(self, field: GF, ncols: int):
        self.field, self.ncols = field, ncols
        self.width = self._lane_width(field)
        self.mask = (1 << self.width) - 1
        self.shifts = range(0, ncols * self.width, self.width)  # lane j at j * width

    @staticmethod
    def _lane_width(field: GF) -> int:
        return (field.q - 1).bit_length()

    def pack(self, codes: Sequence[int]) -> int:
        row, w = 0, self.width
        for c in reversed(codes):
            row = row << w | c
        return row

    def unpack(self, row: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple([row >> s & mask for s in self.shifts])

    def sub_scaled(self, u: int, c: int, v: int) -> int:
        """The row u - c*v: the one row operation, of elimination and polynomials."""
        gf, pairs = self.field, zip(self.unpack(u), self.unpack(v))
        if gf.m == 1:
            p = gf.p
            return self.pack([(x - c * y) % p for x, y in pairs])
        return self.pack([gf.sub(x, gf.mul(c, y)) for x, y in pairs])


class _XorFormat(RowFormat):
    # c * x for a lane x = sum_i x_i 2^i is XOR_i x_i * (c * 2^i): the bits x_i
    # of every lane at once, times the code c * 2^i, which fits in the lane
    __slots__ = ("low", "times")

    def __init__(self, field: GF, ncols: int):
        super().__init__(field, ncols)
        self.low = ((1 << field.m * ncols) - 1) // ((1 << field.m) - 1)  # bit 0 of each lane
        self.times = [
            tuple(field.mul(c, 1 << i) for i in range(field.m)) for c in range(field.q)
        ]

    @staticmethod
    def _lane_width(field: GF) -> int:
        return field.m

    def sub_scaled(self, u: int, c: int, v: int) -> int:
        if c == 1:
            return u ^ v
        low = self.low
        for i, t in enumerate(self.times[c]):
            u ^= (v >> i & low) * t
        return u


_MOD_LANE_MAX_P = 13  # largest p with p * (p - 1) < 256: u + (p - c)*v fits a byte


class _ModFormat(RowFormat):
    __slots__ = ("reduce",)

    def __init__(self, field: GF, ncols: int):
        super().__init__(field, ncols)
        self.reduce = bytes(x % field.p for x in range(256))

    @staticmethod
    def _lane_width(field: GF) -> int:
        return 8  # byte lanes: packing goes through ``bytes``

    def pack(self, codes: Sequence[int]) -> int:
        return int.from_bytes(bytes(codes), "little")

    def unpack(self, row: int) -> tuple[int, ...]:
        return tuple(row.to_bytes(self.ncols, "little"))

    def sub_scaled(self, u: int, c: int, v: int) -> int:
        lanes = (u + (self.field.p - c) * v).to_bytes(self.ncols, "little")
        return int.from_bytes(lanes.translate(self.reduce), "little")


class GFElement:
    """One element of a ``GF`` field, wrapping its integer code.

    Supports +, -, *, /, unary -, ** with the usual field semantics.
    """

    __slots__ = ("field", "code")

    def __init__(self, field: GF, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector over the prime subfield, ascending powers."""
        return self.field.decode(self.code)

    def is_zero(self) -> bool:
        return self.code == 0

    def inverse(self) -> "GFElement":
        return GFElement(self.field, self.field.inv(self.code))

    def _apply(self, other, op) -> "GFElement":
        # op on the two codes; plain ints embed through the prime subfield
        if isinstance(other, GFElement):
            if other.field != self.field:
                raise FieldMismatch(
                    f"mixing elements of {self.field} and {other.field}"
                )
            return GFElement(self.field, op(self.code, other.code))
        if isinstance(other, int):
            return GFElement(self.field, op(self.code, other % self.field.p))
        return NotImplemented

    def __add__(self, other):
        return self._apply(other, self.field.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, self.field.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GFElement(self.field, self.field.neg(self.code))

    def __mul__(self, other):
        return self._apply(other, self.field.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(other, lambda a, b: self.field.mul(a, self.field.inv(b)))

    def __pow__(self, n: int):
        return GFElement(self.field, self.field.pow(self.code, n))

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.code)
        return str(list(self.coeffs))


class Polynomial:
    """A polynomial over GF(q) in canonical ascending-coefficient form.

    Holds the tuple of coefficient codes with no trailing zeros (``to_codes``);
    the zero polynomial has no coefficients and degree ``NEG_INF``.
    ``coeffs`` is the same tuple boxed as ``GFElement``s.  Instances are
    immutable; all operators allocate fresh results.
    """

    __slots__ = ("field", "_codes")

    def __init__(self, field: GF, coeffs: Iterable[int | Sequence[int] | GFElement] = ()):
        self.field = field
        self._codes = _trim(tuple(field.element(c).code for c in coeffs))

    @classmethod
    def from_codes(cls, field: GF, codes: Iterable[int]) -> "Polynomial":
        """Build from ascending integer element codes, trusted to lie in [0, q)."""
        poly = cls.__new__(cls)
        poly.field = field
        poly._codes = _trim(tuple(codes))
        return poly

    # -- basic structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[GFElement, ...]:
        return tuple(GFElement(self.field, c) for c in self._codes)

    @property
    def degree(self) -> int | float:
        return len(self._codes) - 1 if self._codes else NEG_INF

    def is_zero(self) -> bool:
        return not self._codes

    def is_one(self) -> bool:
        return self._codes == (1,)

    def is_monic(self) -> bool:
        return bool(self._codes) and self._codes[-1] == 1

    def monic(self) -> "Polynomial":
        """Rescale so that the leading coefficient is 1."""
        if self.is_zero() or self.is_monic():
            return self
        gf = self.field
        return Polynomial(gf)._sub_scaled(gf.neg(gf.inv(self._codes[-1])), self)

    def to_codes(self) -> tuple[int, ...]:
        """Ascending coefficient codes; the canonical sort key."""
        return self._codes

    # -- ring operations -----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(
                f"mixing polynomials over {self.field} and {other.field}"
            )

    def _sub_scaled(self, c: int, other: "Polynomial") -> "Polynomial":
        # self - c * other, one row operation
        self._check(other)
        gf = self.field
        fmt = gf.row_format(max(len(self._codes), len(other._codes)))
        row = fmt.sub_scaled(fmt.pack(self._codes), c, fmt.pack(other._codes))
        return Polynomial.from_codes(gf, fmt.unpack(row))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._sub_scaled(self.field.neg(1), other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._sub_scaled(1, other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field) - self

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        gf, a, b = self.field, self._codes, other._codes
        fmt = gf.row_format(max(len(a) + len(b) - 1, 0))
        return Polynomial.from_codes(gf, fmt.unpack(_mul_rows(fmt, fmt.pack(a), fmt.pack(b))))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial.from_codes(self.field, (1,))
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        gf, a, b = self.field, self._codes, other._codes
        fmt = gf.row_format(max(len(a), len(b)))
        quot, rem = _divmod_rows(fmt, fmt.pack(a), fmt.pack(b))
        return tuple(Polynomial.from_codes(gf, fmt.unpack(r)) for r in (quot, rem))

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self._codes == other._codes

    def __hash__(self):
        return hash((self.field, self._codes))

    def __repr__(self):
        return f"Polynomial({self.to_string()!r}, GF({self.field.spec}))"

    def __str__(self):
        return self.display()

    # -- text format ------------------------------------------------------------------

    def _coeff_text(self, code: int, brackets: str) -> str:
        if self.field.m == 1:
            return str(code)
        return brackets[0] + ",".join(map(str, self.field.decode(code))) + brackets[1]

    def to_string(self) -> str:
        """Canonical comma-separated coefficient string (ascending powers)."""
        if self.is_zero():
            return "0"
        return ",".join(self._coeff_text(c, "[]") for c in self._codes)

    @classmethod
    def from_string(cls, field: GF, text: str) -> "Polynomial":
        """Parse the comma-separated coefficient format.

        Every digit must be a residue in [0, p): nothing is reduced mod p.
        """
        text = text.strip()
        if not text:
            raise ParseError("empty polynomial string")

        def digit(token: str) -> int:
            return check_residue(_parse_int(token, text), field.p)

        if "[" in text:
            # "[a,b],[c,d]" -> "a,b" and "c,d"; stray brackets fail as integers
            coeffs = [
                [digit(t) for t in token.split(",")]
                for token in re.split(r"\]\s*,\s*\[", text[1:-1])
            ]
            if any(len(c) != field.m for c in coeffs):
                raise FieldMismatch(f"a coefficient of {text!r} is not a {field.m}-tuple")
            return cls(field, coeffs)
        return cls(field, [digit(t) for t in text.split(",")])

    def display(self) -> str:
        """Human-readable rendering such as ``1 + X + X^2``; never parsed back."""
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self._codes):
            if c == 0:
                continue
            cs = self._coeff_text(c, "()")
            if i == 0:
                terms.append(cs)
            else:
                x = "X" if i == 1 else f"X^{i}"
                terms.append(x if cs == "1" else f"{cs}{x}")
        return " + ".join(terms)


def _trim(codes: tuple[int, ...]) -> tuple[int, ...]:
    n = len(codes)
    while n and not codes[n - 1]:
        n -= 1
    return codes[:n]


def _divmod_rows(fmt: RowFormat, a: int, b: int) -> tuple[int, int]:
    """Long division of polynomials packed in ``fmt``, b nonzero: (quotient, remainder).

    The degree of a row is the lane of its highest set bit.  Each step
    cancels the leading term of a with c * X^s * b, one ``sub_scaled`` on b
    shifted s lanes up, and puts c in lane s of the quotient.  ``fmt`` must
    hold as many lanes as the longer of a and b.
    """
    gf, w, mask = fmt.field, fmt.width, fmt.mask
    top = (b.bit_length() - 1) // w * w  # the lowest bit of b's leading lane
    lead_inv = gf.inv(b >> top & mask)
    quot = 0
    while a.bit_length() > top:  # deg a >= deg b
        lead = (a.bit_length() - 1) // w * w
        c = gf.mul(a >> lead & mask, lead_inv)
        quot |= c << lead - top
        a = fmt.sub_scaled(a, c, b << lead - top)
    return quot, a


def _mul_rows(fmt: RowFormat, a: int, b: int) -> int:
    """Product of polynomials packed in ``fmt``: the sum over the lanes i of a
    of a_i * (b shifted i lanes up).  ``fmt`` must hold the product's lanes.
    """
    gf, w, mask = fmt.field, fmt.width, fmt.mask
    acc = shift = 0
    while a:
        if a & mask:
            acc = fmt.sub_scaled(acc, gf.neg(a & mask), b << shift)
        a >>= w
        shift += w
    return acc


def check_residue(value: int, p: int) -> int:
    """``value`` itself when it lies in [0, p); outside input is never reduced."""
    if not 0 <= value < p:
        raise ParseError(f"{value} is not a residue in [0, {p})")
    return value


def _parse_int(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"malformed integer {token.strip()!r} in {text!r}") from None


# -- GCD machinery ---------------------------------------------------------------------


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm.

    ``poly_gcd(f, 0)`` is ``f.monic()``; both arguments zero is an error.
    """
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    gf = f.field
    fmt = gf.row_format(max(len(f._codes), len(g._codes)))
    a, b = fmt.pack(f._codes), fmt.pack(g._codes)
    while b:
        a, b = b, _divmod_rows(fmt, a, b)[1]
    return Polynomial.from_codes(gf, fmt.unpack(a)).monic()


# -- irreducibility ----------------------------------------------------------------------


def monic_polynomials(field: GF, degree: int) -> Iterator[Polynomial]:
    """All monic polynomials of the given degree, in lexicographic order.

    Order: ascending-power coefficient vectors compared left to right, with
    field elements ordered by their integer codes.
    """
    if degree < 0:
        return
    for lower in itertools.product(range(field.q), repeat=degree):
        yield Polynomial.from_codes(field, lower + (1,))


def is_irreducible(f: Polynomial) -> bool:
    """True when f has degree >= 1 and no monic divisor of degree 1 .. deg f / 2.

    Trial division by every monic polynomial of those degrees, with no table:
    desk scale, for the modulus of GF(p^m), m <= 4, and as a check.
    ``FactorTable`` factors many polynomials at once.
    """
    d = f.degree
    if d < 1:
        return False
    fmt = f.field.row_format(len(f._codes))
    a = fmt.pack(f._codes)
    return all(
        _divmod_rows(fmt, a, fmt.pack(low + (1,)))[1]
        for e in range(1, int(d) // 2 + 1)
        for low in itertools.product(range(f.field.q), repeat=e)
    )


class FactorTable:
    """The monic polynomials of degree <= d over GF(q), factored by one sieve.

    Rows are packed polynomials (``RowFormat``).  The sieve walks the monic
    polynomials by degree, then lexicographically; one that nothing has
    marked is irreducible and joins ``irreducibles``, which keeps that order.
    From each f it marks p * f, one product on packed rows, for every
    irreducible p up to f's smallest factor, so each composite is marked
    once, from its smallest factor (Euler's sieve).  The sieve divides
    nothing and uses no Moebius function: the irreducibles it finds count
    them independently of Gauss's formula.  ``factor`` reads a polynomial
    off the table or trial-divides it by the table's irreducibles.  Nothing
    is kept beyond the table's own life.
    """

    __slots__ = ("field", "d", "irreducibles", "_factors", "_width")

    def __init__(self, field: GF, d: int):
        self.field, self.d = field, d
        fmt = field.row_format(d + 1)
        self._width = fmt.width
        irr: list[int] = []
        # row -> positions in irr of its irreducible factors, ascending, repeated
        factors: dict[int, tuple[int, ...]] = {1: ()}
        for e in range(1, d + 1):
            for low in itertools.product(range(field.q), repeat=e):
                f = fmt.pack(low + (1,))
                fs = factors.get(f)
                if fs is None:  # unmarked: irreducible
                    fs = factors[f] = (len(irr),)
                    irr.append(f)
                for i in range(fs[0] + 1):
                    p = irr[i]
                    if self.degree(p) > d - e:
                        break  # irr is sorted by degree
                    factors[_mul_rows(fmt, p, f)] = (i, *fs)
        self.irreducibles, self._factors = irr, factors

    def degree(self, row: int) -> int:
        """Degree of a nonzero packed polynomial."""
        return (row.bit_length() - 1) // self._width

    def polynomial(self, row: int) -> Polynomial:
        """The polynomial of a nonzero packed row."""
        fmt = self.field.row_format(self.degree(row) + 1)
        return Polynomial.from_codes(self.field, fmt.unpack(row))

    def factor(self, f: Polynomial) -> list[int]:
        """Rows of the monic irreducible factors of f, with multiplicity.

        f is nonzero with deg f <= 2d + 1, and is factored as its monic
        multiple.  Equal factors are adjacent.  A row above degree d is
        divided by the irreducibles in order until its cofactor is in the
        table, or has a degree below twice the next divisor's: a proper
        factor of it would have no smaller degree, so it is irreducible.
        """
        f = f.monic()
        if not 0 <= f.degree <= 2 * self.d + 1:
            raise InvalidDegree(f"cannot factor degree {f.degree} from a table to {self.d}")
        fmt = self.field.row_format(len(f._codes))
        row, out = fmt.pack(f._codes), []
        for p in self.irreducibles:
            if row in self._factors or self.degree(row) < 2 * self.degree(p):
                break
            quot, rem = _divmod_rows(fmt, row, p)
            while not rem:
                out.append(p)
                row = quot
                quot, rem = _divmod_rows(fmt, row, p)
        known = self._factors.get(row)
        out += [row] if known is None else [self.irreducibles[i] for i in known]
        return out


def _smallest_irreducible_modulus(p: int, m: int) -> Polynomial:
    for candidate in monic_polynomials(GF(p), m):
        if is_irreducible(candidate):
            return candidate
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")  # unreachable
