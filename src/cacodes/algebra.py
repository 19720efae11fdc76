"""Exact arithmetic in GF(q), q = p^m, and in the polynomial ring GF(q)[X].

Representation conventions used throughout the library:

* A field element is a vector of m coefficients (a_0, ..., a_{m-1}) over the
  prime subfield, ascending powers of the adjoined root.  Elements are
  encoded as the integer a_0 + a_1*p + ... + a_{m-1}*p^(m-1); for a prime
  field (m = 1) the code is just the residue.  ``GF`` exposes arithmetic on
  integer codes; ``GFElement`` is the operator-overloaded wrapper around one
  code.
* A polynomial is one packed row (see below) with the code of the
  coefficient of X^i in lane i.  A packed int has no trailing zero lanes,
  so the row is the canonical form.  The zero polynomial is the row 0, of
  degree ``-inf`` (a distinguished marker, never the integer 0).
  ``to_codes`` unpacks the ascending coefficient codes and ``coeffs`` boxes
  them as ``GFElement``s, on request.
* Values are validated once, where they enter: ``Polynomial(field, values)``
  coerces each value through ``GF.element``.  ``from_string`` checks its
  digits, and it and code that already holds valid codes build through
  ``Polynomial.from_codes``, which does not re-check.
* GCDs are always returned monic, so they are unique.  ``FactorTable``
  factors all monic polynomials up to a degree with one sieve, and a list
  of polynomials up to twice that degree side by side, for callers that
  need the GCDs of many pairs; it also finds the irreducibles up to twice
  that degree, every candidate side by side.  ``poly_gcd`` serves one pair.
* Every vector of codes is packed into one Python int, in the one format
  the field builds from p and m (``GF.format``, a ``RowFormat``), and
  ``RowFormat.sub_scaled`` is its one operation: u - c*v in a few
  whole-integer operations, XOR in characteristic 2, instead of one field
  operation per entry.  A row operation takes its length from its
  operands; only ``unpack`` is told how many entries to read.  Elimination
  works on packed rows, and so does polynomial arithmetic: X^s * b is b
  shifted s lanes up, a long-division step is ``sub_scaled(a, c, b << s)``
  and a product is a sum of shifted rows.

Extension fields are supported for m <= 4.  The reducing modulus is chosen
deterministically as the lexicographically smallest monic irreducible of
degree m over GF(p), comparing ascending-power coefficient vectors with
0 < 1 < ... < p-1.  Products are polynomial products over GF(p) reduced by
the modulus.  When q <= 4096 they and inverses are read instead from the
exp/log tables of the first generator g of GF(q)*: a*b = g^(log a + log b).
For odd p, so are sums and differences, from the Zech logarithms
log(1 - g^i): a - b = g^(log a + log(1 - g^(log b - log a))).

Text formats (used by the CLI and the JSON files):

* field spec: ``"p"`` or ``"p^m"``, e.g. ``"2"``, ``"3"``, ``"2^2"``;
* polynomial: comma-separated ascending coefficients, e.g. ``"1,1,1"`` for
  1 + X + X^2 over GF(2); over an extension field each coefficient is an
  m-tuple in brackets, e.g. ``"[0,1],[1,0]"``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import struct
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BothZero,
    BudgetExceeded,
    DivisionByZero,
    ExtensionTooLarge,
    FieldMismatch,
    InvalidDegree,
    NotPrime,
    ParseError,
    PrimeTooLarge,
)

NEG_INF = float("-inf")  # degree of the zero polynomial

_MAX_EXTENSION_DEGREE = 4
MAX_SPEC_PRIME = 2**31 - 1  # is_prime's trial division takes milliseconds up to here
MAX_MODULUS_SCAN = 2048  # p^(m-1) bound: every field below it takes at most ~0.2 s
_TABLE_LIMIT = 4096  # build exp/log tables of GF(q)* up to this order
MAX_FACTOR_TABLE = 1 << 16  # q^d bound of a factor table or a scan: GF(2) sieves to 16 in ~0.4 s


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
    builds its one packed row format, ``format``, at construction, after the
    exp/log tables of an extension field with q <= 4096 that its products
    read; ``width`` is the lane width and ``mask`` the bits of one lane.
    The field never changes after construction; only its tables of text
    (``texts``) fill on use.

    An extension field is refused (``ExtensionTooLarge``) when finding its
    modulus would scan more than ``MAX_MODULUS_SCAN`` candidates.
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
        if p == 2:
            kind, self.width = _XorFormat, m
        elif m == 1 and p <= _MOD_LANE_MAX_P:
            kind, self.width = _ModFormat, 8  # byte lanes: packing goes through ``bytes``
        else:
            kind, self.width = RowFormat, (self.q - 1).bit_length()
        self.mask = (1 << self.width) - 1
        self._modulus: Polynomial | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None  # log(1 - g^i), for odd p; see ``sub``
        # see ``texts``; no table holds the field, so no cycle keeps it alive
        self._texts = (TextTable(functools.partial(_text, p, m, None)), [])
        if m > 1:
            # the search skips the p^(m-1) candidates with a zero constant
            # term, none of them irreducible; their count bounds the fields
            if p ** (m - 1) > MAX_MODULUS_SCAN:
                raise ExtensionTooLarge(
                    f"finding the modulus of GF({p}^{m}) scans {p}^{m - 1} candidates,"
                    f" more than {MAX_MODULUS_SCAN}"
                )
            self._modulus = _smallest_irreducible_modulus(p, m)
            if self.q <= _TABLE_LIMIT:
                self._build_tables()
        self.format: RowFormat = kind(self)  # _XorFormat multiplies through the tables

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

    def texts(self, lanes: int = 0) -> tuple["TextTable", list["TextTable"]]:
        """The field's tables of coefficient text, filled on use, keyed by
        the items of ``RowFormat.entries``: a coefficient's text in a
        polynomial string (``[a,b]`` over GF(p^m)), and for at least
        ``lanes`` powers X^i one table of its term in a display ("" for 0,
        ``(a,b)X^i`` over GF(p^m), no coefficient 1 before a power of X)."""
        terms = self._texts[1]
        while len(terms) < lanes:
            terms.append(TextTable(functools.partial(_text, self.p, self.m, len(terms))))
        return self._texts

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

    # Over GF(p^m), p odd, with tables, a - b = a (1 - b/a) is read off the
    # Zech logarithms log(1 - g^i): g^(log a + zech[log b - log a]), where a
    # negative index wraps mod q - 1; -b is g^((q - 1)/2) b.

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if self._zech is not None:
            return self.sub(a, self.neg(b))
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        if self._zech is not None:
            if not b:
                return a
            if a == b:
                return 0
            log = self._log
            if not a:
                return self._exp[log[b] + (self.q >> 1)]
            return self._exp[log[a] + self._zech[log[b] - log[a]]]
        return self.encode([x - y for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        if self._zech is not None:
            return self._exp[self._log[a] + (self.q >> 1)] if a else 0
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
        if self.p != 2:  # read before the tables are set: ``sub`` takes the digits
            self._zech = [0] + [log[self.sub(1, x)] for x in exp[1:]]
        self._exp, self._log = exp + exp, log


class TextTable(dict):
    """Text filled on use: a missing key gets ``make(key)``, kept, so a C-level
    ``map`` over the table calls Python only on a miss."""

    def __init__(self, make: Callable[[object], str]):
        self.make = make

    def __missing__(self, key) -> str:
        text = self[key] = self.make(key)
        return text


def _text(p: int, m: int, lane: int | None, key) -> str:
    """A coefficient's text in a polynomial string (``lane`` None), or its
    term times X^lane in a display; ``key`` is a code, or a digit character."""
    code = int(key)
    digits = str(code) if m == 1 else ",".join([str(code // p**i % p) for i in range(m)])
    if lane is None:
        return digits if m == 1 else f"[{digits}]"
    if not code:
        return ""
    shown = digits if m == 1 else f"({digits})"
    power = "" if not lane else "X" if lane == 1 else f"X^{lane}"
    return power if power and shown == "1" else shown + power


# -- packed rows ----------------------------------------------------------------------


class RowFormat:
    """The packed rows of a field: a vector of codes is one Python int.

    Entry j sits in lane j, the ``width`` bits from bit j * width, so column 0
    is the lowest lane and the leading (lowest nonzero) column of a row is
    read off its lowest set bit.  The zero row is 0, and rows with disjoint
    columns combine with ``|``.  A polynomial's row has the coefficient of
    X^i in lane i: its degree is read off the highest set bit, and times X^s
    it is the row shifted s lanes up.  A row operation takes its length
    from its operands; ``unpack`` reads as many entries as its caller names.
    The field picks the format from p and m, and its lane width, and builds
    it once (``GF.__init__``):

    * p = 2 (``_XorFormat``): a lane is the m-bit code itself, so adding rows
      is XOR and scaling is m masked shifts and small multiplications;
    * odd p <= 13, m = 1 (``_ModFormat``): 8-bit lanes; u - c*v is the integer
      u + (p - c)*v, whose lanes stay below p^2 < 256 so no carry crosses a
      lane, reduced mod p by one ``bytes.translate``;
    * every other field (this base class): lanes just wide enough for a
      code, and a row operation unpacks both rows and works entry by entry.

    ``entries`` reads a row's n entries in the form the format reads
    fastest: over GF(2) a str of digits, over the byte lanes bytes,
    otherwise the tuple of their codes.  ``sequence`` reads rows into one
    such sequence, row after row, ordered as their codes are: codes sort by
    it and the CLI writes codewords off it, as polynomials off ``entries``.
    ``pack_rows`` packs rows from the base-p digits of their entries, the
    code file's layout flattened: GF(2^m) and the byte lanes pack all rows
    side by side in one C-level call and split them, the per-entry format
    packs row by row, as its packing is quadratic in a row's length.
    Packing trusts its codes to lie in [0, q) and its digits in [0, p).
    ``wide`` marks the packed formats, on which rows side by side pay.
    ``add`` is u + v, ``sub_scaled`` by -1: over GF(2^m) it is
    ``operator.xor`` itself, so a loop that only adds rows (a walk's steps)
    runs with no Python frame.
    """

    __slots__ = ("field", "width", "mask")
    wide = False

    def __init__(self, field: GF):
        self.field, self.width, self.mask = field, field.width, field.mask

    def pack(self, codes: Sequence[int]) -> int:
        row, w = 0, self.width
        for c in reversed(codes):
            row = row << w | c
        return row

    def pack_rows(self, digits: Sequence[int], count: int) -> list[int]:
        """``count`` packed rows of equal length, read off the base-p digits of
        their entries: m to an entry, lowest first, row after row (the code
        file's layout, flattened).  ``digits`` is not empty."""
        size, m, encode = len(digits) // count, self.field.m, self.field.encode
        rows = [digits[i : i + size] for i in range(0, len(digits), size)]
        if m == 1:
            return list(map(self.pack, rows))
        return [self.pack([encode(row[j : j + m]) for j in range(0, size, m)]) for row in rows]

    def unpack(self, row: int, n: int) -> tuple[int, ...]:
        """The codes of the n lanes 0..n-1 of ``row``, which has no more lanes."""
        w, mask = self.width, self.mask
        return tuple([row >> s & mask for s in range(0, n * w, w)])

    def entries(self, row: int, n: int) -> Sequence:
        """The n entries of ``row``: over GF(2) a str of their digits, over the
        byte lanes their bytes, otherwise the tuple of their codes."""
        return self.unpack(row, n)

    def sequence(self, rows: Sequence[int], n: int) -> Sequence:
        """The entries of ``rows`` of n lanes, row after row, as ``entries``
        gives them: here one flat tuple of codes, ordered as the rows' are."""
        unpack = self.unpack
        return tuple(itertools.chain.from_iterable([unpack(row, n) for row in rows]))

    def sub_scaled(self, u: int, c: int, v: int) -> int:
        """The row u - c*v: the one row operation, of elimination and polynomials."""
        n = -(-max(u, v).bit_length() // self.width)  # the longer row's lanes
        gf, pairs = self.field, zip(self.unpack(u, n), self.unpack(v, n))
        if gf.m == 1:
            p = gf.p
            return self.pack([(x - c * y) % p for x, y in pairs])
        return self.pack([gf.sub(x, gf.mul(c, y)) for x, y in pairs])

    def add(self, u: int, v: int) -> int:
        """The row u + v, ``sub_scaled`` by -1: a walk's step (XOR over GF(2^m))."""
        return self.sub_scaled(u, self.field.neg(1), v)


_BINARY = bytes.maketrans(b"\x00\x01", b"01")  # digit bytes to the text int() reads


def _chunks(data: bytes, count: int) -> tuple[bytes, ...]:
    """``data`` cut into ``count`` pieces of one length, in one C-level pass
    (shifting each piece off one wide int would cost ``len(data)`` a piece)."""
    return struct.Struct(f"{len(data) // count}s" * count).unpack(data)


class _XorFormat(RowFormat):
    # c * x for a lane x = sum_i x_i 2^i is XOR_i x_i * (c * 2^i): the bits x_i
    # of every lane at once, times the code c * 2^i, which fits in the lane
    __slots__ = ("times",)
    wide = True
    add = staticmethod(operator.xor)  # no Python frame: ``itertools.accumulate`` runs in C

    def __init__(self, field: GF):
        super().__init__(field)
        self.times = [
            tuple(field.mul(c, 1 << i) for i in range(field.m)) for c in range(field.q)
        ]

    def pack_rows(self, digits: Sequence[int], count: int) -> list[int]:
        # an m-bit lane's code is its m digits as bits, so bit i of a row is
        # its digit i: each row's digits, highest first, read in base 2
        text = bytes(digits)[::-1].translate(_BINARY)  # the last row first
        rows = list(map(int, _chunks(text, count), itertools.repeat(2)))
        rows.reverse()
        return rows

    def entries(self, row: int, n: int) -> Sequence:
        if self.width != 1:
            return self.unpack(row, n)
        return bin(row | 1 << n)[:2:-1]  # GF(2): the n binary digits, lane 0 first

    def sequence(self, rows: Sequence[int], n: int) -> Sequence:
        if self.width != 1:
            return super().sequence(rows, n)
        whole = 0  # GF(2): the rows joined n lanes apart, read in one call
        for row in reversed(rows):
            whole = whole << n | row
        return self.entries(whole, len(rows) * n)

    def sub_scaled(self, u: int, c: int, v: int) -> int:
        if c == 1:
            return u ^ v
        if c == 0:
            return u
        # c > 1 occurs only for m >= 2: bit 0 of each of v's lanes
        m = self.width
        low = ((1 << -(-v.bit_length() // m) * m) - 1) // self.mask
        for i, t in enumerate(self.times[c]):
            u ^= (v >> i & low) * t
        return u


_MOD_LANE_MAX_P = 13  # largest p with p * (p - 1) < 256: u + (p - c)*v fits a byte


class _ModFormat(RowFormat):
    __slots__ = ("p", "reduce")
    wide = True

    def __init__(self, field: GF):
        super().__init__(field)
        self.p, self.reduce = field.p, bytes(x % field.p for x in range(256))

    def pack(self, codes: Sequence[int]) -> int:
        return int.from_bytes(bytes(codes), "little")

    def pack_rows(self, digits: Sequence[int], count: int) -> list[int]:
        return list(map(int.from_bytes, _chunks(bytes(digits), count), itertools.repeat("little")))

    def unpack(self, row: int, n: int) -> tuple[int, ...]:
        return tuple(row.to_bytes(n, "little"))

    def entries(self, row: int, n: int) -> bytes:
        return row.to_bytes(n, "little")

    def sequence(self, rows: Sequence[int], n: int) -> bytes:
        return b"".join([row.to_bytes(n, "little") for row in rows])

    def sub_scaled(self, u: int, c: int, v: int) -> int:
        x = u + (self.p - c) * v  # no lane carries, so x has the longer row's lanes
        return int.from_bytes(
            x.to_bytes(x.bit_length() + 7 >> 3, "little").translate(self.reduce), "little"
        )

    def add(self, u: int, v: int) -> int:
        x = u + v  # ``sub_scaled`` by p - 1, in one frame
        return int.from_bytes(
            x.to_bytes(x.bit_length() + 7 >> 3, "little").translate(self.reduce), "little"
        )


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
    """A polynomial over GF(q), held as one packed row.

    ``row`` is an int in the field's packed row format (``RowFormat``): the
    code of the coefficient of X^i sits in lane i.  A packed int has no
    trailing zero lanes, so the row is canonical: equality and hashing read
    it, the degree is the lane of its highest set bit, and the zero
    polynomial is the row 0, of degree ``NEG_INF``.  ``to_codes`` unpacks
    the ascending coefficient codes, for text, sort keys and callers;
    ``coeffs`` boxes them as ``GFElement``s.  Instances are immutable; all
    operators allocate fresh results.
    """

    __slots__ = ("field", "row")

    def __init__(self, field: GF, coeffs: Iterable[int | Sequence[int] | GFElement] = ()):
        codes = [field.element(c).code for c in coeffs]
        self.field, self.row = field, field.format.pack(codes)

    @classmethod
    def from_codes(cls, field: GF, codes: Iterable[int]) -> "Polynomial":
        """Build from ascending integer element codes, trusted to lie in [0, q)."""
        return cls._from_row(field, field.format.pack(tuple(codes)))

    @classmethod
    def _from_row(cls, field: GF, row: int) -> "Polynomial":
        poly = cls.__new__(cls)
        poly.field, poly.row = field, row
        return poly

    # -- basic structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[GFElement, ...]:
        return tuple(GFElement(self.field, c) for c in self.to_codes())

    @property
    def degree(self) -> int | float:
        return (self.row.bit_length() - 1) // self.field.width if self.row else NEG_INF

    def is_zero(self) -> bool:
        return not self.row

    def is_one(self) -> bool:
        return self.row == 1

    def _lead(self) -> int:
        # the code in the top lane, above which the row has no bits; 0 for zero
        return self.row >> self.degree * self.field.width if self.row else 0

    def is_monic(self) -> bool:
        return self._lead() == 1

    def monic(self) -> "Polynomial":
        """Rescale so that the leading coefficient is 1."""
        lead = self._lead()
        if lead in (0, 1):  # zero, or monic already
            return self
        gf = self.field
        return Polynomial(gf)._sub_scaled(gf.neg(gf.inv(lead)), self)

    def to_codes(self) -> tuple[int, ...]:
        """Ascending coefficient codes, no trailing zeros; the canonical sort key."""
        gf, row = self.field, self.row
        return gf.format.unpack(row, -(-row.bit_length() // gf.width))

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
        return Polynomial._from_row(gf, gf.format.sub_scaled(self.row, c, other.row))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._sub_scaled(self.field.neg(1), other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._sub_scaled(1, other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field) - self

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        gf = self.field
        return Polynomial._from_row(gf, _mul_rows(gf.format, self.row, other.row))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial._from_row(self.field, 1)
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        gf = self.field
        quot, rem = _divmod_rows(gf.format, self.row, other.row)
        return Polynomial._from_row(gf, quot), Polynomial._from_row(gf, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.row == other.row

    def __hash__(self):
        return hash((self.field, self.row))

    def __repr__(self):
        return f"Polynomial({self.to_string()!r}, GF({self.field.spec}))"

    def __str__(self):
        return self.display()

    # -- text format ------------------------------------------------------------------

    def to_string(self) -> str:
        """Canonical comma-separated coefficient string (ascending powers)."""
        return Polynomial.to_strings([self])[0]

    @staticmethod
    def to_strings(polys: Sequence["Polynomial"]) -> list[str]:
        """``to_string`` of polynomials over one field: their coefficients
        map through the field's one table of text (``GF.texts``)."""
        if not polys:
            return []
        plain = polys[0].field.texts()[0]
        return [",".join(map(plain.__getitem__, c)) or "0" for c in _coefficients(polys)]

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
            return cls.from_codes(field, [field.encode(c) for c in coeffs])
        # a digit in [0, p) is the code of that element of the prime subfield
        return cls.from_codes(field, [digit(t) for t in text.split(",")])

    @classmethod
    def from_strings(cls, field: GF, texts: Sequence[str]) -> list["Polynomial"]:
        """``[from_string(field, t) for t in texts]``, in one pass over the list
        when the texts have one length and each is in the canonical form of
        ``to_string`` up to leading zeros: ASCII digits in [0, p), one comma
        between them, no space, and over GF(p^m) m digits in each pair of
        brackets.  Their digits are then read all at once and packed side by
        side.  Any other list is parsed text by text, so the first faulty
        text raises what ``from_string`` raises for it.
        """
        digit = r"\d{1,10}"  # p < 2^31 has at most 10 digits
        coeff = digit if field.m == 1 else rf"\[{digit}" + f"(?:,{digit})" * (field.m - 1) + r"\]"
        canonical = re.compile(f"{coeff}(?:,{coeff})*", re.ASCII)  # cached by ``re``
        if len({t.count(",") for t in texts}) == 1 and all(map(canonical.fullmatch, texts)):
            digits = list(map(int, ",".join(texts).translate(_NO_BRACKETS).split(",")))
            if max(digits) < field.p:
                rows = field.format.pack_rows(digits, len(texts))
                return [cls._from_row(field, row) for row in rows]
        return [cls.from_string(field, t) for t in texts]

    def display(self) -> str:
        """Human-readable rendering such as ``1 + X + X^2``; never parsed back."""
        return Polynomial.displays([self])[0]

    @staticmethod
    def displays(polys: Sequence["Polynomial"]) -> list[str]:
        """``display`` of polynomials over one field: each coefficient maps
        through its power's table of terms (``GF.texts``), "" dropped."""
        if not polys:
            return []
        coeffs = _coefficients(polys)
        terms = polys[0].field.texts(max(map(len, coeffs)))[1]
        return [" + ".join(filter(None, map(operator.getitem, terms, c))) or "0" for c in coeffs]


def _coefficients(polys: Sequence[Polynomial]) -> list[Sequence]:
    """Each polynomial's coefficients, read once (``RowFormat.entries``)."""
    gf = polys[0].field
    entries, w = gf.format.entries, gf.width
    return [entries(f.row, -(-f.row.bit_length() // w)) for f in polys]


_NO_BRACKETS = str.maketrans("", "", "[]")


def _divmod_rows(fmt: RowFormat, a: int, b: int) -> tuple[int, int]:
    """Long division of polynomials packed in ``fmt``, b nonzero: (quotient, remainder).

    The degree of a row is the lane of its highest set bit.  Each step
    cancels the leading term of a with c * X^s * b, one ``sub_scaled`` on b
    shifted s lanes up, and puts c in lane s of the quotient.
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
    of a_i * (b shifted i lanes up); b itself when a is 1."""
    if a == 1:
        return b
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
    """An optional "-" and ASCII digits; not the "+", "_" or other digits int() reads."""
    token = token.strip()
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ParseError(f"malformed integer {token!r} in {text!r}")
    return int(token)


# -- GCD machinery ---------------------------------------------------------------------


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm.

    ``poly_gcd(f, 0)`` is ``f.monic()``; both arguments zero is an error.
    """
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    gf, a, b = f.field, f.row, g.row
    fmt = gf.format
    while b:
        a, b = b, _divmod_rows(fmt, a, b)[1]
    return Polynomial._from_row(gf, a).monic()


# -- irreducibility ----------------------------------------------------------------------


def monic_polynomials(field: GF, degree: int) -> Iterator[Polynomial]:
    """All monic polynomials of the given degree, in lexicographic order.

    Order: ascending-power coefficient vectors compared left to right, with
    field elements ordered by their integer codes.
    """
    if degree < 0:
        return
    pack = field.format.pack
    for lower in itertools.product(range(field.q), repeat=degree):
        yield Polynomial._from_row(field, pack(lower + (1,)))


def is_irreducible(f: Polynomial) -> bool:
    """True when f has degree >= 1 and no monic divisor of degree 1 .. deg f / 2.

    Trial division by every monic polynomial of those degrees, with no table:
    desk scale, for the modulus of GF(p^m), m <= 4, and as a check.
    ``FactorTable`` factors many polynomials at once.
    """
    d = f.degree
    if d < 1:
        return False
    fmt = f.field.format
    return all(
        _divmod_rows(fmt, f.row, fmt.pack(low + (1,)))[1]
        for e in range(1, int(d) // 2 + 1)
        for low in itertools.product(range(f.field.q), repeat=e)
    )


class FactorTable:
    """The monic polynomials of degree <= d over GF(q), factored by one sieve.

    The sieve walks the monic polynomials by degree, then lexicographically,
    as packed rows (``RowFormat``); one that nothing has marked is
    irreducible and joins ``irreducibles``, which keeps that order.  From
    each f it marks p * f, one product on packed rows, for every irreducible
    p up to f's smallest factor, so each composite is marked once, from its
    smallest factor (Euler's sieve).  The sieve divides nothing and uses no
    Moebius function: the irreducibles it finds count them independently of
    Gauss's formula.  ``factor_all`` reads each polynomial of a list off the
    table, or finds its small factors for all of them at once by Horner
    passes over their coefficient columns: the one factoring route.
    ``scan`` only finds irreducibles: those of a degree up to 2d + 1, by the
    same Horner passes run over every monic candidate of that degree side by
    side, so a table of about q^d polynomials reaches degree 2d + 1.
    ``irreducibles`` and the factor lists hold ``Polynomial``s; the table's
    own loops stay on rows.
    Nothing is kept beyond the table's own life.  A table of more than
    ``MAX_FACTOR_TABLE`` polynomials is refused (``BudgetExceeded``), and so
    is a scan of more candidates.
    """

    __slots__ = ("field", "d", "irreducibles", "_factors")

    def __init__(self, field: GF, d: int):
        check_budget(field, d, f"a factor table of GF({field.spec}) to degree {d} sieves")
        self.field, self.d = field, d
        fmt, w = field.format, field.width
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
                    if (p.bit_length() - 1) // w > d - e:
                        break  # irr is sorted by degree
                    factors[_mul_rows(fmt, p, f)] = (i, *fs)
        self.irreducibles = [Polynomial._from_row(field, p) for p in irr]
        self._factors = factors

    def factor_all(self, polys: Sequence[Polynomial]) -> list[list[Polynomial]]:
        """The monic irreducible factors of each polynomial, with multiplicity.

        Each f is nonzero with deg f <= 2d + 1, and is factored as its monic
        multiple; equal factors are adjacent, in the table's order, and a
        factor above degree d comes last.  A row of degree <= d is read off
        the table, so a list of such rows is only looked up.  The others, of
        degree D at most, are tested side by side: lane b of the i-th column
        row holds the coefficient of X^i in the b-th, and for each
        irreducible p with 2 deg p <= D one Horner pass over the columns
        (``_horner``) gives every f mod p at once; X needs none, as it
        divides exactly the f whose constant lane is zero.  Only an f whose
        lane comes out zero is divided by p, as often as p divides it, until
        its cofactor is in the table.  A cofactor left outside has no factor of
        degree <= D / 2, so it is irreducible.
        """
        monic = [f.monic() for f in polys]
        degrees = [f.degree for f in monic]
        for e in degrees:
            if not 0 <= e <= 2 * self.d + 1:
                raise InvalidDegree(f"cannot factor degree {e} from a table to {self.d}")
        fmt, table = self.field.format, self._factors
        rows = [f.row for f in monic]
        pending = [b for b, row in enumerate(rows) if row not in table]
        divisors: list[list[Polynomial]] = [[] for _ in rows]
        if pending:
            top, size = max([degrees[b] for b in pending]), len(pending)
            flat = [c for b in pending for c in fmt.unpack(rows[b], top + 1)]
            steps = [(1, fmt.pack(flat[i :: top + 1])) for i in reversed(range(top + 1))]
            zero, x = fmt.entries(0, 1)[0], 1 << fmt.width
            for p in self.irreducibles:
                e = p.degree
                if 2 * e > top:
                    break  # irr is sorted by degree
                if p.row == x:  # X divides exactly the rows whose constant lane is zero
                    hits = [not rows[b] & fmt.mask for b in pending]
                else:
                    rest = functools.reduce(operator.or_, _horner(fmt, p.row, [0] * e, steps))
                    hits = map(zero.__eq__, fmt.entries(rest, size))
                for b in itertools.compress(pending, hits):
                    divisors[b].append(p)
        return list(map(self._factors_of, rows, divisors))

    def scan(self, n: int, count: int | None = None) -> list[Polynomial]:
        """The first ``count`` (by default all) monic irreducibles of degree n
        with a nonzero constant term, in lexicographic order, 1 <= n <= 2d + 1.

        Degrees up to d are read off the table.  Above it the candidates are
        tested side by side, none built before it is found: lane b of a row
        of (q - 1) q^(n-1) lanes is the candidate whose coefficients a_0 - 1,
        a_1, ..., a_(n-1) are the base-q digits of b, highest first, so lanes
        run in lexicographic order.  For each irreducible p with 2 deg p <= n
        (X aside, which divides no candidate), one Horner pass (``_horner``)
        starts from the leading 1 in one lane and, for each of a_(n-1), ...,
        a_0, lays its rows side by side, q copies (q - 1 for a_0 != 0), and
        adds the column that holds one value of the coefficient in each copy:
        no column is built per candidate, and a step costs the lanes it has.
        A lane no p zeroes is irreducible.  The per-entry format's row
        operation steps through every lane, so there a pass costs more than a
        sieve to degree n, which is read instead.  A scan of more than
        ``MAX_FACTOR_TABLE`` candidates is refused (``BudgetExceeded``) before
        any row is built.
        """
        gf, fmt, w, q = self.field, self.field.format, self.field.width, self.field.q
        if not 1 <= n <= 2 * self.d + 1:
            raise InvalidDegree(f"cannot scan degree {n} from a table to {self.d}")
        check_budget(gf, n, f"a scan of GF({gf.spec}) at degree {n} tests")
        if n <= self.d or not fmt.wide:  # per entry, a row operation steps through every lane
            sieve = self if n <= self.d else FactorTable(gf, n)
            low, high = n * w, (n + 1) * w  # the bit lengths of degree n
            found = [f for f in sieve.irreducibles if low < f.row.bit_length() <= high and f.row & gf.mask]
            return found[:count]
        size = q ** (n - 1)  # the candidates with one constant term

        def column(lanes: int, values: Iterable[int]) -> int:  # copy i of the lanes holds values[i]
            ones = ((1 << lanes * w) - 1) // fmt.mask
            return sum([v * ones << i * lanes * w for i, v in enumerate(values)])

        steps = [(q, column(q**s, range(q))) for s in range(n - 1)]  # a_(n-1), ..., a_1
        steps.append((q - 1, column(size, range(1, q))))  # a_0 != 0
        ones = column(size * (q - 1), [1])
        bits = range(1, (q - 1).bit_length())  # a code's bits, above the lowest
        one, hit = fmt.entries(1, 1)[0], 0  # bit 0 of each lane some p zeroes
        for p in self.irreducibles:
            e = (p.row.bit_length() - 1) // w
            if 2 * e > n:
                break  # irr is sorted by degree
            if p.row == 1 << w:
                continue  # X
            rest = functools.reduce(operator.or_, _horner(fmt, p.row, [1] + [0] * (e - 1), steps, w))
            hit |= ones & ~functools.reduce(operator.or_, [rest >> i for i in bits], rest)
        alive = fmt.entries(ones ^ hit, size * (q - 1))
        found = []
        for lane in itertools.islice(itertools.compress(itertools.count(), map(one.__eq__, alive)), count):
            row = 1
            for _ in range(n - 1):
                lane, a = divmod(lane, q)
                row = row << w | a
            found.append(Polynomial._from_row(gf, row << w | lane + 1))
        return found

    def _factors_of(self, row: int, divisors: Sequence[Polynomial]) -> list[Polynomial]:
        """The factors of a monic row, given the table irreducibles up to half
        its degree that divide it: each is divided out as often as it
        divides, until the cofactor is in the table or is irreducible."""
        fmt, table, factors = self.field.format, self._factors, []
        for p in divisors:  # each divides row, once at least
            while row not in table:
                quot, rem = _divmod_rows(fmt, row, p.row)
                if rem:
                    break
                factors.append(p)
                row = quot
        held = table.get(row)
        if held is None:
            return factors + [Polynomial._from_row(self.field, row)]
        return factors + [self.irreducibles[i] for i in held]


def check_budget(field: GF, d: int, what: str) -> None:
    """Refuse (``BudgetExceeded``) work over the q^d polynomials of degree d
    when they are more than ``MAX_FACTOR_TABLE``; ``what`` names the work."""
    # q^d >= 2^d: a d past the bound's bit length exceeds it, q^d uncomputed
    if d > MAX_FACTOR_TABLE.bit_length() or field.q**d > MAX_FACTOR_TABLE:
        raise BudgetExceeded(
            f"{what} about {field.q}^{d} polynomials, more than {MAX_FACTOR_TABLE}"
        )


def _horner(
    fmt: RowFormat, p: int, r: list[int], steps: Iterable[tuple[int, int]], bits: int = 0
) -> list[int]:
    """Horner's rule modulo the monic row p on many polynomials side by side.

    ``r`` holds the deg p coefficient rows of their remainders so far, lane b
    the b-th polynomial's, and each step (copies, column), from the highest
    coefficient down, takes r <- r X + column mod p: X^e = -(p_0 + ... +
    p_(e-1) X^(e-1)) mod p, one row operation per nonzero p_i.  With copies
    > 1, the rows are first laid that many times side by side, ``bits`` bits
    apart, and ``bits`` grows as the rows do: the column then gives each
    copy its own value of the next coefficient.
    """
    w, sub_scaled = fmt.width, fmt.sub_scaled
    e = (p.bit_length() - 1) // w
    lower = [(i, c) for i, c in enumerate(fmt.unpack(p, e + 1)[:e]) if c]
    r = list(r)
    for copies, column in steps:
        if copies > 1:  # every row is below 1 << bits: times the repunit, no copy overlaps
            repunit = ((1 << copies * bits) - 1) // ((1 << bits) - 1)
            r = [x * repunit for x in r]
            bits *= copies
        carry = r.pop()
        r.insert(0, column)
        if carry:
            for i, c in lower:
                r[i] = sub_scaled(r[i], c, carry)
    return r


def _smallest_irreducible_modulus(p: int, m: int) -> Polynomial:
    # the first p^(m-1) candidates have constant term 0, so X divides them
    for candidate in itertools.islice(monic_polynomials(GF(p), m), p ** (m - 1), None):
        if is_irreducible(candidate):
            return candidate
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")  # unreachable
