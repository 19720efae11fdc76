"""Exact linear algebra: RREF, nullspaces, Sylvester matrices."""

import functools
import itertools
import math
import random

import pytest

from cacodes.algebra import GF, Polynomial, poly_gcd
from cacodes.errors import LengthMismatch, ZeroPolynomial
from cacodes.linalg import Echelon, MatrixGF, sylvester
from cacodes.subspaces import Subspace

import oracles

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def eye(field, n):
    return MatrixGF(field, [[int(i == j) for j in range(n)] for i in range(n)])


def random_poly(field, max_deg, rng, nonzero=False):
    while True:
        f = Polynomial.from_codes(
            field, [rng.randrange(field.q) for _ in range(rng.randint(0, max_deg + 1))]
        )
        if not (nonzero and f.is_zero()):
            return f


# -- rref -----------------------------------------------------------------------------


def test_rref_identity():
    m = eye(F2, 3)
    reduced, pivots = m.rref()
    assert reduced == m
    assert pivots == (0, 1, 2)
    assert m.rank() == 3


def test_rref_zero_matrix():
    z = MatrixGF(F2, [[0] * 4] * 2)
    reduced, pivots = z.rref()
    assert reduced == z
    assert pivots == ()
    assert z.rank() == 0


def test_rref_sylvester_coprime_full_rank():
    s = sylvester(P(F2, 1, 1, 1), P(F2, 1, 0, 1))
    assert s.rank() == 4


def test_rref_idempotent_and_rank_matches_oracle():
    rng = random.Random(42)
    for field in (F2, F3):
        for _ in range(100):
            rows = [
                [rng.randrange(field.q) for _ in range(4)]
                for _ in range(rng.randint(1, 5))
            ]
            m = MatrixGF(field, rows)
            reduced, pivots = m.rref()
            again, pivots2 = reduced.rref()
            assert again == reduced and pivots2 == pivots
            assert len(pivots) == oracles.rank_over_q(rows, field.p)


def test_rank_plus_nullity():
    rng = random.Random(7)
    for field in (F2, F3, F4):
        for _ in range(60):
            cols = rng.randint(1, 5)
            rows = [
                [rng.randrange(field.q) for _ in range(cols)]
                for _ in range(rng.randint(1, 5))
            ]
            m = MatrixGF(field, rows)
            assert m.rank() + m.nullspace_basis().nrows == cols


# -- nullspace --------------------------------------------------------------------------


def test_nullspace_of_identity_is_empty():
    basis = eye(F3, 4).nullspace_basis()
    assert basis.nrows == 0
    assert basis.ncols == 4


def test_nullspace_single_row():
    # [1 1] over F_2: oracle enumerates all 4 vectors
    m = MatrixGF(F2, [[1, 1]])
    null = {v for v in itertools.product(range(2), repeat=2) if sum(v) % 2 == 0}
    basis = m.nullspace_basis()
    assert basis.rows == ((1, 1),)
    spanned = oracles.span_set(basis.rows, 2, 2)
    assert set(spanned) == null


def test_nullspace_vectors_satisfy_system():
    rng = random.Random(11)
    for field in (F2, F3, F4):
        for _ in range(60):
            cols = rng.randint(1, 6)
            rows = [
                [rng.randrange(field.q) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))
            ]
            m = MatrixGF(field, rows)
            for v in m.nullspace_basis().rows:
                assert not any(matvec(field, rows, v))


def test_sylvester_repeated_factor_nullity():
    f = P(F2, 1, 1, 1)
    s = sylvester(f, f)
    assert s.nullspace_basis().nrows == 2
    # oracle: enumerate null vectors of the 4x4 system over F_2
    count = sum(
        1
        for v in itertools.product(range(2), repeat=4)
        if all(sum(a * b for a, b in zip(row, v)) % 2 == 0 for row in s.rows)
    )
    assert count == 4  # 2^2 vectors


# -- sylvester layout ----------------------------------------------------------------------


def test_sylvester_layout_equal_quadratics():
    s = sylvester(P(F2, 1, 1, 1), P(F2, 1, 1, 1))
    assert s.rows == ((1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 1, 0), (0, 1, 1, 1))


def test_sylvester_layout_linear():
    s = sylvester(P(F2, 1, 1), P(F2, 1, 1))
    assert s.rows == ((1, 1), (1, 1))


def test_sylvester_layout_mixed():
    s = sylvester(P(F2, 1, 1, 1), P(F2, 1, 0, 1))
    assert s.rows == ((1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1))


def test_sylvester_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        sylvester(Polynomial(F2), P(F2, 1, 1))
    with pytest.raises(ZeroPolynomial):
        sylvester(P(F2, 1, 1), Polynomial(F2))


def test_sylvester_two_constants_degenerate():
    s = sylvester(P(F3, 2), P(F3, 1))
    assert s.shape == (0, 0)


def test_nullity_equals_gcd_degree_small_sweep():
    # the Sylvester nullity law on a module-level sample (full sweep in acceptance)
    rng = random.Random(2718)
    for field in (F2, F3):
        for _ in range(120):
            f = random_poly(field, 4, rng, nonzero=True)
            g = random_poly(field, 4, rng, nonzero=True)
            if int(f.degree) + int(g.degree) == 0:
                continue
            nullity = sylvester(f, g).nullspace_basis().nrows
            d = poly_gcd(f, g).degree
            assert nullity == int(d)


# -- matrix mechanics ----------------------------------------------------------------------------


def test_ragged_rows_rejected():
    with pytest.raises(LengthMismatch):
        MatrixGF(F2, [[1, 0], [1]])


def test_json_round_trip_prime_and_extension():
    m = MatrixGF(F2, [[1, 0, 1], [0, 1, 1]])
    assert MatrixGF.from_json(F2, m.to_json(), ncols=3) == m
    e = MatrixGF(F4, [[2, 1], [3, 0]])
    data = e.to_json()
    assert data == [[[0, 1], [1, 0]], [[1, 1], [0, 0]]]
    assert MatrixGF.from_json(F4, data, ncols=2) == e


# -- the echelon routine against the oracles -------------------------------------------------


# One field per packed row format and its edges: GF(2) and GF(2^m) (XOR
# lanes), GF(3) to GF(13) (whole-row mod-p byte lanes; p = 13 is the largest
# whose lanes stay below 256), GF(3^2) and GF(17) (per-entry row operations
# on lanes just wide enough for a code).  GF(257) and GF(17^2) have lanes
# wider than a byte; their span sets are too large to list, so only the rank
# test takes them.
ORACLE_FIELDS = [F2, F3, F5, F4, GF(2, 3), GF(2, 4), GF(7), GF(13), GF(3, 2), GF(17)]
WIDE_FIELDS = ORACLE_FIELDS + [GF(257), GF(17, 2)]


@functools.cache
def modulus(field):
    """The documented modulus: the lexicographically smallest irreducible."""
    return min(oracles.irreducibles(field.m, field.p))


def span(field, rows, n):
    if field.m == 1:
        return oracles.span_set(rows, n, field.p)
    if field == F4:
        return oracles.span_set_gf4(rows, n)
    return oracles.span_set_gfq(rows, n, field.p, modulus(field))


def matvec(field, rows, vec):
    return oracles.matvec(rows, vec, field.p, modulus(field) if field.m > 1 else None)


def oracle_rank(field, rows):
    if field.m == 1:
        return oracles.rank_over_q(rows, field.p)
    return oracles.rank_over_gfq(rows, field.p, modulus(field))


def random_rows(field, rng, nrows, ncols):
    """Random rows in one of four shapes: plain, rank-deficient, duplicated, zero."""
    shape = rng.choice(("plain", "deficient", "duplicate", "zero"))
    if shape == "zero" or nrows == 0:
        return [[0] * ncols for _ in range(nrows)]
    base = [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)]
    if shape == "duplicate":
        base[-1] = list(base[0])
    elif shape == "deficient":  # every row a combination of two rows
        x, y = base[0], base[-1]
        base = [
            [field.add(field.mul(a, u), field.mul(b, v)) for u, v in zip(x, y)]
            for a, b in ((rng.randrange(field.q), rng.randrange(field.q)) for _ in base)
        ]
    return base


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec)
def test_echelon_matches_oracles_randomized(field):
    rng = random.Random(f"echelon:{field.spec}")
    # span sets hold q^rank vectors: keep them small on the larger fields
    most_rows, most_cols, count = (5, 4, 80) if field.q <= 5 else (3, 3, 30)
    shapes = [(0, 3), (3, 0), (0, 0)] + [
        (rng.randint(1, most_rows), rng.randint(1, most_cols)) for _ in range(count)
    ]
    for nrows, ncols in shapes:
        rows = random_rows(field, rng, nrows, ncols)
        m = MatrixGF(field, rows, ncols=ncols)
        reduced, pivots = m.rref()
        spanned = span(field, rows, ncols)
        rank = oracles.set_dim(spanned, field.q)
        assert m.rank() == len(pivots) == rank
        assert rank == oracle_rank(field, rows)
        # RREF: same row space, unit pivots, zero pivot columns, zero rows last
        assert reduced.shape == m.shape
        assert span(field, reduced.rows, ncols) == spanned
        assert list(pivots) == sorted(pivots)
        for r, row in enumerate(reduced.rows):
            if r < rank:
                assert row[pivots[r]] == 1 and not any(row[: pivots[r]])
                assert all(reduced.rows[i][pivots[r]] == 0 for i in range(rank) if i != r)
            else:
                assert not any(row)
        assert reduced.rref() == (reduced, pivots)
        # null space: solutions, independent, rank + nullity = ncols
        null = m.nullspace_basis()
        assert null.shape == (ncols - rank, ncols)
        assert all(not any(matvec(field, rows, v)) for v in null.rows)
        assert oracles.set_dim(span(field, null.rows, ncols), field.q) == ncols - rank


def oracle_rref(field, rows):
    if field.m == 1:
        return oracles.rref_over_q(rows, field.p)
    return oracles.rref_over_gfq(rows, field.p, modulus(field))


def assert_row_echelon(ech):
    """Held rows sorted by pivot, each zero before its pivot and 1 at it."""
    assert ech.pivots == sorted(set(ech.pivots))
    assert len(ech.rows) == len(ech.pivots)
    for c, row in zip(ech.pivots, (ech.field.format.unpack(r, ech.ncols) for r in ech.rows)):
        assert not any(row[:c]) and row[c] == 1


# one field per row format: XOR lanes (GF(2), GF(2^2)), mod-p byte lanes
# (GF(3), GF(5)) and per-entry lanes (GF(17), GF(3^2))
ECHELON_FIELDS = [F2, F3, F4, F5, GF(17), GF(3, 2)]


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=lambda f: f.spec)
def test_insert_keeps_held_rows_and_row_echelon_form(field):
    rng = random.Random(f"row-echelon:{field.spec}")
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        rows = random_rows(field, rng, nrows, ncols)
        if rng.random() < 0.5:  # square as often as not
            rows = random_rows(field, rng, ncols, ncols)
        ech = Echelon(field, ncols)
        reduce_at = rng.randrange(len(rows))
        for step, row in enumerate(rows):
            held = list(ech.rows)
            independent = ech.insert(field.format.pack(row))
            # the new row goes in, or nothing does; no held row changes
            assert independent == (ech.rank == len(held) + 1)
            assert [r for r in ech.rows if r in held] == held
            assert_row_echelon(ech)
            seen = rows[: step + 1]
            assert ech.rank == oracle_rank(field, seen)
            assert ech.copy().matrix().rows == tuple(oracle_rref(field, seen))
            if step == reduce_at:  # later rows go into a reduced echelon
                assert ech.matrix().rows == tuple(oracle_rref(field, seen))
                assert_row_echelon(ech)
        m = MatrixGF(field, rows, ncols=ncols)
        assert m.rank() == ech.rank


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=lambda f: f.spec)
def test_extend_matches_oracle_rank_and_row_by_row_insert(field):
    # rows go into an empty echelon or after held ones, as in a joint rank;
    # under a cap the rank is exact up to the cap, and past it a lower bound
    # above the cap
    rng = random.Random(f"extend:{field.spec}")
    pack = field.format.pack
    for _ in range(40):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 6)
        rows = random_rows(field, rng, nrows, ncols)
        exact = oracle_rank(field, rows)
        one_by_one = Echelon(field, ncols)
        for row in rows:
            one_by_one.insert(pack(row))
        assert Echelon(field, ncols, rows).rows == one_by_one.rows
        split = rng.randint(0, nrows)
        held = Echelon(field, ncols, rows[:split])
        for cap in [*range(-1, ncols + 1), math.inf]:
            for start, rest in ((Echelon(field, ncols), rows), (held, rows[split:])):
                ech = start.copy()
                rank = ech.extend([pack(row) for row in rest], cap)
                assert rank == ech.rank
                assert_row_echelon(ech)
                if exact <= cap:
                    assert rank == exact
                    assert ech.copy().matrix().rows == tuple(oracle_rref(field, rows))
                else:
                    assert cap < rank <= exact
            assert held.rank == oracle_rank(field, rows[:split])  # copies leave it be
        assert one_by_one.rank == exact


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=lambda f: f.spec)
@pytest.mark.parametrize("lead_col", [0, 2])
def test_insert_stops_at_a_lane_no_held_row_pivots_on(field, lead_col, monkeypatch):
    # held rows pivot on columns 1 and 3; the new row leads on a column
    # neither pivots on and is nonzero on every held pivot past it, yet it
    # goes in as it is: no row operation but the one scaling it to a leading 1
    rng = random.Random(f"no held pivot:{field.spec}:{lead_col}")
    fmt, calls = field.format, []
    original = type(fmt).sub_scaled

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    for lead in range(1, field.q):
        nonzero = [rng.randrange(1, field.q) for _ in range(5)]
        ech = Echelon(field, 5, [[0, 1, 0, 0, nonzero[0]], [0, 0, 0, 1, nonzero[1]]])
        row = [0] * lead_col + [lead] + nonzero[lead_col + 1:]
        monkeypatch.setattr(type(fmt), "sub_scaled", counted)
        assert ech.insert(fmt.pack(row))
        monkeypatch.undo()
        assert len(calls) == (lead != 1)
        calls.clear()
        assert ech.pivots == sorted([1, 3, lead_col])
        assert_row_echelon(ech)
        assert ech.rank == oracle_rank(field, [list(fmt.unpack(r, 5)) for r in ech.rows]) == 3


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=lambda f: f.spec)
def test_wide_rows_match_oracle_rank(field):
    # up to 40 columns: a packed GF(2^4) row then runs past 128 bits, a byte
    # lane row past 256; entries drawn from {0, q - 1} fill every lane to
    # its largest value
    rng = random.Random(f"wide:{field.spec}")
    shapes = [(0, 40), (40, 0)]
    shapes += [(rng.randint(1, 12), rng.randint(20, 40)) for _ in range(8)]
    shapes += [(rng.randint(20, 40), rng.randint(1, 8)) for _ in range(3)]
    for nrows, ncols in shapes:
        extreme = [[rng.choice((0, field.q - 1)) for _ in range(ncols)] for _ in range(nrows)]
        for rows in (random_rows(field, rng, nrows, ncols), extreme):
            m = MatrixGF(field, rows, ncols=ncols)
            reduced, pivots = m.rref()
            rank = oracle_rank(field, rows)
            assert m.rank() == len(pivots) == rank
            assert oracle_rank(field, rows + list(reduced.rows)) == rank  # same row space
            for r, c in enumerate(pivots):
                assert [row[c] for row in reduced.rows] == [int(i == r) for i in range(nrows)]
            null = m.nullspace_basis()
            assert null.nrows == ncols - rank
            assert oracle_rank(field, null.rows) == ncols - rank
            assert all(not any(matvec(field, rows, v)) for v in null.rows)
            assert Subspace(field, ncols, rows) == Subspace(field, ncols, reduced.rows)


# Every row format: XOR lanes of every width, byte lanes at both ends of
# their range, and per-entry lanes, prime, extension and wider than a byte.
SUB_SCALED_FIELDS = [F2, F4, GF(2, 3), GF(2, 4), F3, GF(13), GF(17), GF(3, 2), GF(257)]


@pytest.mark.parametrize("field", SUB_SCALED_FIELDS, ids=lambda f: f.spec)
def test_sub_scaled_on_rows_of_unequal_length_matches_entrywise_oracle(field):
    # the row operation takes its length from its rows: u - c*v on rows of
    # 0 to 40 entries, either one the longer, top lanes zero or the whole row
    # zero, against the entries u_j - c*v_j packed lane by lane
    rng = random.Random(f"sub-scaled:{field.spec}")
    w = field.width

    def codes(n):
        out = [rng.randrange(field.q) for _ in range(n)]
        shape = rng.random()
        if shape < 0.1:
            return [0] * n
        if shape < 0.4:  # zero from a random lane up
            top = rng.randrange(n + 1)
            out[top:] = [0] * (n - top)
        return out

    def packed(entries):
        return sum(x << j * w for j, x in enumerate(entries))

    lengths = [(0, 0), (0, 40), (40, 0), (40, 40), (1, 40), (40, 1)]
    lengths += [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(60)]
    for nu, nv in lengths:
        n = max(nu, nv)
        u, v = codes(nu) + [0] * (n - nu), codes(nv) + [0] * (n - nv)
        for c in sorted({0, 1, field.q - 1, rng.randrange(field.q)}):
            want = [field.sub(x, field.mul(c, y)) for x, y in zip(u, v)]
            got = field.format.sub_scaled(packed(u), c, packed(v))
            assert got == packed(want)
            assert field.format.unpack(got, n) == tuple(want)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.spec)
def test_intersection_and_containment_match_span_sets(field):
    rng = random.Random(f"intersection:{field.spec}")
    n = 3 if field.q > 3 else 4
    for _ in range(40):
        a_rows = random_rows(field, rng, rng.randint(0, 3), n)
        b_rows = random_rows(field, rng, rng.randint(0, 3), n)
        a, b = Subspace(field, n, a_rows), Subspace(field, n, b_rows)
        sa, sb = span(field, a_rows, n), span(field, b_rows, n)
        # dim(A intersect B) = dim A + dim B - rank(stack), against the span sets
        stacked = MatrixGF(field, a_rows + b_rows, ncols=n).rank()
        assert field.q ** (a.dim + b.dim - stacked) == len(sa & sb)
        inter = Subspace(field, n, sa & sb)
        assert inter <= a and inter <= b and inter.dim == a.dim + b.dim - stacked
        assert (a <= b) == (sa <= sb)
        vec = tuple(rng.randrange(field.q) for _ in range(n))
        assert (Subspace(field, n, [vec]) <= a) == (vec in sa)
