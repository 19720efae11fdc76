"""Field and polynomial arithmetic against frozen, independently derived values."""

import itertools
import random

import pytest

from cacodes.algebra import (
    GF,
    MAX_MODULUS_SCAN,
    MAX_SPEC_PRIME,
    FactorTable,
    NEG_INF,
    Polynomial,
    RowFormat,
    is_irreducible,
    is_prime,
    monic_polynomials,
    poly_gcd,
)
from cacodes.errors import (
    BothZero,
    BudgetExceeded,
    DivisionByZero,
    ExtensionTooLarge,
    FieldMismatch,
    InvalidDegree,
    NotPrime,
    PrimeTooLarge,
)

import oracles

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)

# one or more fields per row format: XOR lanes (p = 2), byte lanes (odd
# p <= 13) and per-entry lanes (every other field)
PACKED_FIELDS = [F2, GF(2, 3), GF(2, 4), F3, GF(13), GF(17), GF(3, 2), GF(257)]


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def modulus(field):
    """The oracles' description of a field: None for GF(p), else its modulus."""
    return None if field.m == 1 else field.modulus.to_codes()


def random_poly(rng, field, max_len):
    return Polynomial.from_codes(
        field, [rng.randrange(field.q) for _ in range(rng.randint(0, max_len))]
    )


# -- field construction -------------------------------------------------------------


def test_prime_field_has_no_modulus():
    assert F2.modulus is None
    assert F2.q == 2 and F2.m == 1


def test_f4_modulus_is_smallest_irreducible():
    # oracle: scan all 4 monic quadratics over F_2 for roots, independently
    rootless = [
        low + (1,)
        for low in itertools.product(range(2), repeat=2)
        if all(oracles.oeval(low + (1,), x, 2) for x in range(2))
    ]
    assert rootless == [(1, 1, 1)]  # the only monic irreducible of degree 2
    assert F4.modulus.to_codes() == (1, 1, 1)


def test_gf8_and_gf9_moduli():
    # oracle lists from the composites construction
    assert GF(2, 3).modulus.to_codes() in oracles.irreducibles(3, 2)
    assert GF(3, 2).modulus.to_codes() in oracles.irreducibles(2, 3)
    # lexicographically smallest: no rootless monic cubic below 1 + X^2 + X^3
    assert GF(2, 3).modulus.to_codes() == min(oracles.irreducibles(3, 2))


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        GF(4)
    with pytest.raises(NotPrime):
        GF(1)


def test_extension_degree_bounds():
    with pytest.raises(InvalidDegree):
        GF(2, 0)
    with pytest.raises(InvalidDegree):
        GF(2, 5)


def test_modulus_search_bound():
    # the search fails the p^(m-1) candidates with a zero constant term first
    assert 11**3 <= MAX_MODULUS_SCAN < 13**3
    assert GF(11, 4).modulus.degree == 4
    for p, m in [(13, 4), (47, 3), (2053, 2), (1009, 4), (2**31 - 1, 2)]:
        assert p ** (m - 1) > MAX_MODULUS_SCAN
        with pytest.raises(ExtensionTooLarge):
            GF(p, m)


def test_modulus_is_the_first_irreducible():
    # skipping the candidates with a zero constant term finds the same modulus
    for m in range(2, 5):
        for p in range(2, 65):
            if is_prime(p) and p ** (m - 1) <= 64:
                first = next(f for f in monic_polynomials(GF(p), m) if is_irreducible(f))
                assert GF(p, m).modulus == first, (p, m)


def test_field_spec_round_trip():
    assert GF.from_spec("2").spec == "2"
    assert GF.from_spec("2^2").spec == "2^2"
    assert GF.from_spec("2^2") == F4


def test_field_spec_prime_bound():
    assert GF.from_spec(str(MAX_SPEC_PRIME)).p == MAX_SPEC_PRIME == 2**31 - 1
    with pytest.raises(PrimeTooLarge):
        GF.from_spec(f"{2**31 + 11}^2")


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(2, 30) if is_prime(n)} == primes


# -- element arithmetic ---------------------------------------------------------------


def test_inverse_of_two_in_f5():
    # oracle: scan residues 1..4 for 2*x = 1 mod 5
    by_scan = next(x for x in range(1, 5) if (2 * x) % 5 == 1)
    assert by_scan == 3
    assert F5.inv(2) == 3


def test_inverse_of_one_everywhere():
    for field in (F2, F3, F4, F5):
        assert field.inv(1) == 1


def test_alpha_squared_in_f4():
    alpha = F4.element([0, 1])
    assert (alpha * alpha).coeffs == (1, 1)  # X^2 reduced mod 1 + X + X^2


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F5.inv(0)
    with pytest.raises(DivisionByZero):
        F4.one / F4.zero


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F2.one + F3.one
    with pytest.raises(FieldMismatch):
        F4.element(F2.one)


@pytest.mark.parametrize(
    "field", [F2, F3, F4, F5, GF(2, 3), GF(2, 4), GF(3, 2), GF(5, 2)], ids=lambda f: f.spec
)
def test_field_axioms_exhaustive(field):
    q = field.q
    for a in range(q):
        for b in range(q):
            # addition is digit-wise over GF(p), whatever shortcut computes it
            digits = [x + y for x, y in zip(field.decode(a), field.decode(b))]
            assert field.add(a, b) == field.encode(digits)
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.sub(a, b) == field.add(a, field.neg(b))
            for c in range(q):
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )
    for a in range(1, q):
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", [GF(7, 4), GF(11, 4)], ids=lambda f: f.spec)
def test_products_and_inverses_reduce_by_the_modulus(field):
    # GF(7^4) multiplies through its exp/log tables, GF(11^4) (q > 4096)
    # through polynomials over GF(p); the oracle convolves the coefficient
    # vectors and divides by the modulus
    p, mod = field.p, field.modulus.to_codes()

    def reduced(a, b):
        return oracles.odivmod(oracles.omul(field.decode(a), field.decode(b), p), mod, p)[1]

    rng = random.Random(field.q)
    for _ in range(300):
        a, b = rng.randrange(field.q), rng.randrange(1, field.q)
        assert oracles.trim(field.decode(field.mul(a, b))) == reduced(a, b)
        assert reduced(b, field.inv(b)) == (1,)


def test_element_operators():
    a, b = F5.element(3), F5.element(4)
    assert (a + b).code == 2
    assert (a - b).code == 4
    assert (a * b).code == 2
    assert (a / b).code == (3 * F5.inv(4)) % 5
    assert (-a).code == 2
    assert (a**3).code == pow(3, 3, 5)
    assert a + 4 == a + b and 4 + a == a + b


# -- polynomial ring --------------------------------------------------------------------


def test_square_of_x_plus_one_char_two():
    f = P(F2, 1, 1)
    assert (f * f).to_codes() == (1, 0, 1)


def test_multiplicative_identity():
    f = P(F3, 2, 0, 1)
    one = P(F3, 1)
    assert f * one == f


def test_divrem_hand_oracle():
    q, r = divmod(P(F2, 1, 0, 0, 1), P(F2, 1, 1))
    assert q.to_codes() == (1, 1, 1)
    assert r.is_zero()


def test_divrem_law_random():
    rng = random.Random(20240815)
    for field in (F2, F3, F4, *PACKED_FIELDS):
        for _ in range(200):
            f = Polynomial.from_codes(
                field, [rng.randrange(field.q) for _ in range(rng.randint(0, 7))]
            )
            g = Polynomial.from_codes(
                field, [rng.randrange(field.q) for _ in range(rng.randint(1, 5))]
            )
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree
            expected = oracles.odivmod(f.to_codes(), g.to_codes(), field.p, modulus(field))
            assert (q.to_codes(), r.to_codes()) == expected


def test_division_by_zero_poly():
    with pytest.raises(DivisionByZero):
        divmod(P(F2, 1, 1), P(F2))


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f.spec)
def test_one_polynomial_has_one_identity(field):
    x = Polynomial.from_codes(field, (0, 1))
    ones = [
        Polynomial(field, [1, 0, 0]),
        Polynomial.from_codes(field, (1,)),
        Polynomial.from_string(field, "1,0,0"),
        (x + Polynomial(field, [1])) - x,
    ]
    zeros = [
        Polynomial(field),
        Polynomial(field, [0, 0]),
        Polynomial.from_codes(field, (0, 0, 0)),
        Polynomial.from_string(field, "0,0"),
        x - x,
        x % x,
    ]
    for group in (ones, zeros):
        assert all(f == group[0] and hash(f) == hash(group[0]) for f in group)
        assert len(set(group)) == 1
    assert all(f.degree == 0 and f.to_codes() == (1,) for f in ones)
    assert all(f.degree == NEG_INF and f.to_codes() == () for f in zeros)


def test_zero_polynomial_degree_marker():
    assert Polynomial(F2).degree == NEG_INF
    assert Polynomial(F2).degree != 0
    assert P(F2, 0, 0).is_zero()


def test_degree_law_no_zero_divisors():
    rng = random.Random(7)
    for field in (F2, F3, F5):
        for _ in range(100):
            f = Polynomial.from_codes(
                field,
                [rng.randrange(field.q) for _ in range(rng.randint(0, 5))] + [rng.randrange(1, field.q)],
            )
            g = Polynomial.from_codes(
                field,
                [rng.randrange(field.q) for _ in range(rng.randint(0, 5))] + [rng.randrange(1, field.q)],
            )
            assert (f * g).degree == f.degree + g.degree


def test_product_matches_convolution_oracle():
    rng = random.Random(99)
    for field in (F2, F3, F5, *PACKED_FIELDS):
        for _ in range(100):
            a = [rng.randrange(field.q) for _ in range(rng.randint(0, 6))]
            b = [rng.randrange(field.q) for _ in range(rng.randint(0, 6))]
            lib = Polynomial.from_codes(field, a) * Polynomial.from_codes(field, b)
            assert lib.to_codes() == oracles.omul(a, b, field.p, modulus(field))


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f.spec)
def test_sum_difference_negation_match_oracle(field):
    rng = random.Random(31)
    for _ in range(100):
        f, g = random_poly(rng, field, 7), random_poly(rng, field, 7)
        a, b, mod = f.to_codes(), g.to_codes(), modulus(field)
        assert (f + g).to_codes() == oracles.oadd(a, b, field.p, mod)
        assert (-g).to_codes() == oracles.oneg(b, field.p, mod)
        minus_b = oracles.oneg(b, field.p, mod)
        assert (f - g).to_codes() == oracles.oadd(a, minus_b, field.p, mod)
        if a:
            assert f.monic().to_codes() == oracles.ogcd(a, (), field.p, mod)


# -- gcd ------------------------------------------------------------------------------------


def test_gcd_coprime_pair():
    assert poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1, 1)).is_one()


def test_gcd_with_self_is_monic_self():
    f = P(F3, 2, 1, 2)  # leading coefficient 2: gcd must rescale
    g = poly_gcd(f, f)
    assert g.is_monic()
    assert g == f.monic()


def test_gcd_shared_linear_factor():
    xp1 = P(F2, 1, 1)
    f = xp1 * xp1
    g = xp1 * P(F2, 1, 1, 1)
    assert poly_gcd(f, g) == xp1


def test_gcd_with_zero():
    f = P(F3, 2, 2)
    assert poly_gcd(f, Polynomial(F3)) == f.monic()
    with pytest.raises(BothZero):
        poly_gcd(Polynomial(F3), Polynomial(F3))


def test_gcd_is_monic_and_divides_both():
    rng = random.Random(20240815)
    for field in (F2, F3, F4, *PACKED_FIELDS):
        for _ in range(150):
            f = Polynomial.from_codes(
                field, [rng.randrange(field.q) for _ in range(rng.randint(0, 6))]
            )
            g = Polynomial.from_codes(
                field, [rng.randrange(field.q) for _ in range(rng.randint(0, 6))]
            )
            if f.is_zero() and g.is_zero():
                continue
            d = poly_gcd(f, g)
            assert d.is_monic()
            assert (f % d).is_zero()
            assert (g % d).is_zero()
            assert d.to_codes() == oracles.ogcd(
                f.to_codes(), g.to_codes(), field.p, modulus(field)
            )


# -- irreducibility and enumeration order ------------------------------------------------------


def test_irreducibles_match_product_oracle():
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            lib = {
                f.to_codes()
                for f in monic_polynomials(GF(p), n)
                if is_irreducible(f)
            }
            assert lib == oracles.irreducibles(n, p)


# (field, table degree d): every monic of degree <= d is read off the table,
# and degrees d + 1 .. 2d + 1 go through the Horner passes and the divisions
FACTOR_CASES = [(F2, 4), (F3, 2), (F4, 2), (F5, 2), (GF(17), 1), (GF(3, 2), 2)]


@pytest.mark.parametrize("field, d", FACTOR_CASES, ids=lambda v: str(v))
def test_factor_table_irreducibles_match_product_oracle(field, d):
    table = FactorTable(field, d)
    codes = [f.to_codes() for f in table.irreducibles]
    assert codes == sorted(codes, key=lambda c: (len(c), c))  # by degree, then lex
    for n in range(1, d + 1):
        found = {c for c in codes if len(c) == n + 1}
        assert found == oracles.irreducibles(n, field.p, modulus(field))
        assert found == {f.to_codes() for f in monic_polynomials(field, n) if is_irreducible(f)}


@pytest.mark.parametrize("field, d", FACTOR_CASES, ids=lambda v: str(v))
def test_factorizations_multiply_back_into_oracle_irreducibles(field, d):
    rng = random.Random(field.q * 100 + d)
    table = FactorTable(field, d)
    oracle_irr = {}

    def irreducible(codes):
        n = len(codes) - 1
        if n not in oracle_irr:
            oracle_irr[n] = oracles.irreducibles(n, field.p, modulus(field))
        return codes in oracle_irr[n]

    # every table entry, then products of a few random monics (squares and
    # shared repeated factors included) up to degree 2d + 1, with a scalar
    polys = [f for n in range(d + 1) for f in monic_polynomials(field, n)]
    atoms = [f for n in range(1, d + 2) for f in monic_polynomials(field, n)]
    for _ in range(150):
        f = Polynomial.from_codes(field, (1,))
        for _ in range(4):
            a = rng.choice(atoms)
            if f.degree + 2 * a.degree <= 2 * d + 1 and rng.random() < 0.5:
                f = f * a * a
            elif f.degree + a.degree <= 2 * d + 1:
                f = f * a
        polys.append(f)
    polys.append(Polynomial.from_codes(field, [field.q - 1] * (2 * d + 2)))  # not monic over q > 2
    for f in polys:
        factors = table.factor_all([f])[0]
        product = (1,)
        for g in factors:
            assert irreducible(g.to_codes())
            product = oracles.omul(product, g.to_codes(), field.p, modulus(field))
        assert product == f.monic().to_codes()
        assert factors == sorted(factors, key=factors.index)  # equal factors are adjacent


def test_factor_table_refuses_what_it_cannot_factor():
    table = FactorTable(F2, 2)
    with pytest.raises(InvalidDegree):
        table.factor_all([P(F2, *[1] * 7)])  # degree 6 > 2 * 2 + 1
    with pytest.raises(InvalidDegree):
        table.factor_all([Polynomial(F2)])
    for bad in (P(F2, *[1] * 7), Polynomial(F2)):  # anywhere in a list
        with pytest.raises(InvalidDegree):
            table.factor_all([P(F2, 1, 1, 0, 1), bad, P(F2, 1, 1)])


def oracle_monic(field, codes):
    """``codes`` over the field scaled to leading coefficient 1, by the oracles' arithmetic."""
    _, mul, _, inv = oracles.scalar_ops(field.p, modulus(field))
    lead_inv = inv(codes[-1])
    return tuple(mul(c, lead_inv) for c in codes)


def factor_inputs(field, d, rng, count):
    """``count`` nonzero polynomials of degree <= 2d + 1 to factor, leading
    coefficients random: products of random monics, often squared or cubed,
    and often of a few factors that many inputs share; then X, constants and
    entries of the table itself."""
    atoms = [f for n in range(1, d + 2) for f in monic_polynomials(field, n)]
    shared = rng.sample(atoms, 3)
    polys = [P(field, 0, 1), P(field, 1), P(field, field.q - 1)]
    polys += rng.sample([f for n in range(d + 1) for f in monic_polynomials(field, n)], 3)
    while len(polys) < count:
        f = Polynomial.from_codes(field, (rng.randrange(1, field.q),))
        for _ in range(rng.randint(1, 4)):
            a, power = rng.choice(shared if rng.random() < 0.4 else atoms), rng.choice((1, 1, 2, 3))
            if f.degree + power * a.degree <= 2 * d + 1:
                f = f * a**power
        polys.append(f)
    return polys


@pytest.mark.parametrize("count", [12, 320])
@pytest.mark.parametrize("field, d", FACTOR_CASES, ids=lambda v: str(v))
def test_factor_all_matches_trial_division_one_at_a_time(field, d, count):
    # the side-by-side Horner passes and the divisions they leave must give
    # what per-polynomial trial division gives, order and multiplicity too
    rng = random.Random(f"factor_all {field.spec} {count}")
    table = FactorTable(field, d)
    irreducibles = sorted(
        (c for n in range(1, d + 1) for c in oracles.irreducibles(n, field.p, modulus(field))),
        key=lambda c: (len(c), c),
    )
    polys = factor_inputs(field, d, rng, count)
    got = table.factor_all(polys)
    assert len(got) == len(polys)
    for f, factors in zip(polys, got):
        monic = oracle_monic(field, f.to_codes())
        assert [g.to_codes() for g in factors] == oracles.trial_factor(
            monic, irreducibles, field.p, modulus(field)
        )
        product = (1,)
        for g in factors:
            assert is_irreducible(g)
            product = oracles.omul(product, g.to_codes(), field.p, modulus(field))
        assert product == monic
    assert [table.factor_all([f])[0] for f in polys[:12]] == got[:12]


@pytest.mark.parametrize("field, d", FACTOR_CASES, ids=lambda v: str(v))
def test_factor_all_reads_x_off_the_constant_lane(field, d):
    # X^e times cofactors whose constant term is nonzero, past the table's
    # degree so they go side by side: X divides exactly the rows whose
    # constant lane is zero, and comes first, e times; cofactors whose lane
    # 1 is zero, and ones whose lane 1 is not, tell the lanes apart
    rng = random.Random(f"factor_all X {field.spec}")
    table = FactorTable(field, d)
    irreducibles = sorted(
        (c for n in range(1, d + 1) for c in oracles.irreducibles(n, field.p, modulus(field))),
        key=lambda c: (len(c), c),
    )
    atoms = [f for f in table.irreducibles if f.row & field.mask]
    x, polys = P(field, 0, 1), []
    for e in range(4):
        for _ in range(6):
            f = Polynomial.from_codes(field, (rng.randrange(1, field.q),)) * x**e
            for a in rng.sample(atoms, len(atoms)):
                if f.degree + a.degree <= 2 * d + 1 and rng.random() < 0.7:
                    f = f * a
            polys.append(f)
    polys += [x**e * P(field, 1, 0, 1) for e in range(4) if e + 2 <= 2 * d + 1]
    polys += [x**e * P(field, 1, 1) for e in range(1, 4) if e + 1 <= 2 * d + 1]
    assert any(f.degree > d and not f.row & field.mask for f in polys)
    for f, factors in zip(polys, table.factor_all(polys)):
        monic = oracle_monic(field, f.to_codes())
        e = next(i for i, c in enumerate(monic) if c)
        assert [g.to_codes() for g in factors] == oracles.trial_factor(
            monic, irreducibles, field.p, modulus(field)
        )
        assert factors[:e] == [x] * e and x not in factors[e:]


@pytest.mark.parametrize("field, d", FACTOR_CASES, ids=lambda v: str(v))
def test_scan_finds_the_sieves_and_the_oracles_irreducibles(field, d):
    # each degree the table's passes reach, d + 1 .. 2d + 1, and the table's
    # own degrees: all of them, then a prefix, in lexicographic order.  The
    # per-entry format scans past d by sieving, so there the sieve is no
    # second route, and each prefix would sieve again
    table, packed = FactorTable(field, d), field.format.wide
    sieve = FactorTable(field, 2 * d + 1 if packed else d)
    for n in range(1, 2 * d + 2):
        found = table.scan(n)
        codes = [f.to_codes() for f in found]
        assert codes == sorted(codes)
        assert set(codes) == {c for c in oracles.irreducibles(n, field.p, modulus(field)) if c[0]}
        if packed or n <= d:
            assert found == [f for f in sieve.irreducibles if f.degree == n and f.row & field.mask]
            for count in (0, 1, len(found) // 3):
                assert table.scan(n, count) == found[:count]


@pytest.mark.parametrize("field, d", FACTOR_CASES, ids=lambda v: str(v))
def test_scan_factors_what_it_watches_as_factor_all_does(field, d):
    # factor_all, the one factoring route, on monic polynomials of the top
    # degree with a nonzero constant term: products of irreducibles the
    # table and a scan found, with squares, cubes and shared factors, as the
    # uniform-GCD construction's products are, and irreducibles themselves
    rng = random.Random(f"scan watch {field.spec}")
    n, table = 2 * d + 1, FactorTable(field, d)
    atoms = [f for f in table.irreducibles if f.row & field.mask]
    atoms += table.scan(n - 1, 4) if n - 1 > d else []
    top = sorted(c for c in oracles.irreducibles(n, field.p, modulus(field)) if c[0])
    polys = [Polynomial.from_codes(field, c) for c in top[:3]]
    while len(polys) < 40:
        f = Polynomial.from_codes(field, (1,))
        for a in rng.sample(atoms, len(atoms)):
            power = rng.choice([1, 1, 2, 3])
            if f.degree + power * a.degree <= n:
                f = f * a**power
        if f.degree == n:
            polys.append(f)
    irreducibles = sorted(
        (c for e in range(1, d + 1) for c in oracles.irreducibles(e, field.p, modulus(field))),
        key=lambda c: (len(c), c),
    )
    for f, factors in zip(polys, table.factor_all(polys)):
        assert [g.to_codes() for g in factors] == oracles.trial_factor(
            f.to_codes(), irreducibles, field.p, modulus(field)
        )


def test_scan_refuses_what_it_cannot_reach():
    table = FactorTable(F2, 2)
    for n in (0, 6):
        with pytest.raises(InvalidDegree):
            table.scan(n)
    with pytest.raises(BudgetExceeded):  # 2^17 candidates, refused before any row
        FactorTable(F2, 8).scan(17)


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (7, 2)])
def test_table_generator_is_the_first_element_of_full_order(p, m):
    field = GF(p, m)
    mod = field.modulus.to_codes()

    def order(g):
        x, n = g, 1
        while x != 1:
            x, n = oracles.gfq_mul(x, g, p, mod), n + 1
        return n

    first = next(g for g in range(2, field.q) if order(g) == field.q - 1)
    assert field._exp[1] == first
    assert [field._exp[i] for i in range(field.q - 1)] == [
        field.pow(first, i) for i in range(field.q - 1)
    ]


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_zech_sums_match_the_digit_route(p, m):
    # every pair of codes: the tables give what digit-wise arithmetic mod p gives
    field = GF(p, m)
    assert field._zech is not None
    digits = [field.decode(a) for a in range(field.q)]

    def encoded(values):
        return sum(v % p * p**i for i, v in enumerate(values))

    for a, x in enumerate(digits):
        assert field.neg(a) == encoded([-d for d in x])
        for b, y in enumerate(digits):
            assert field.sub(a, b) == encoded([d - e for d, e in zip(x, y)])
            assert field.add(a, b) == encoded([d + e for d, e in zip(x, y)])


def test_xor_format_low_has_bit_zero_of_every_lane():
    # c * v must reach every lane of v, the top one included: a row of n lanes
    # that all hold x comes out with c * x in each
    for m in range(1, 5):
        field = GF(2, m)
        for n in (0, 1, 7, 64):
            ones = sum(1 << j * m for j in range(n))
            for c, x in itertools.product(range(field.q), repeat=2):
                assert field.format.sub_scaled(0, c, ones * x) == ones * field.mul(c, x)


@pytest.mark.parametrize(
    "field", [F2, F4, GF(2, 3), GF(2, 4), F3, F5, GF(13), GF(17), GF(3, 2), GF(5, 2), GF(2**31 - 1)],
    ids=str,
)
def test_wide_holds_exactly_for_the_packed_formats(field):
    # GF(2^m) (XOR lanes) and GF(p), p <= 13 (byte lanes) take rows side by
    # side; every other field's row operation works entry by entry
    packed = field.p == 2 or field.m == 1 and field.p <= 13
    assert field.format.wide is packed
    assert (type(field.format) is RowFormat) is not packed


def test_units_and_zero_not_irreducible():
    assert not is_irreducible(Polynomial(F2))
    assert not is_irreducible(P(F2, 1))
    assert not is_irreducible(P(F3, 2))


def test_monic_enumeration_is_lexicographic():
    seen = [f.to_codes() for f in monic_polynomials(F2, 2)]
    assert seen == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert seen == sorted(seen)


# -- text formats --------------------------------------------------------------------------------


def test_prime_field_text_round_trip():
    f = Polynomial.from_string(F2, "1,1,1")
    assert f.to_codes() == (1, 1, 1)
    assert f.to_string() == "1,1,1"
    assert f.display() == "1 + X + X^2"


def test_extension_field_text_round_trip():
    f = Polynomial.from_string(F4, "[0,1],[1,0]")
    assert f.coeffs[0].coeffs == (0, 1)
    assert f.coeffs[1].coeffs == (1, 0)
    assert Polynomial.from_string(F4, f.to_string()) == f


def test_zero_polynomial_text():
    assert Polynomial(F2).to_string() == "0"
    assert Polynomial.from_string(F2, "0").is_zero()
    assert Polynomial(F2).display() == "0"


def _text(field, codes, rng, style="canonical"):
    """The polynomial text of ``codes``: canonical, with leading zeros
    ("01"), or with the spaces and the trailing ",0" that ``from_string``
    takes too."""
    def digit(d):
        if style == "zeros":
            return rng.choice(["", "0", "00"]) + str(d)
        if style == "spaces":
            return rng.choice(["", " ", "0"]) + str(d) + rng.choice(["", " "])
        return str(d)

    if field.m == 1:
        tokens = [digit(c) for c in codes]
    else:
        tokens = ["[" + ",".join(digit(d) for d in field.decode(c)) + "]" for c in codes]
    if style == "spaces":
        return " " + ",".join(tokens) + rng.choice(["", ",0 ", " "]) * (field.m == 1)
    return ",".join(tokens)


TEXT_FIELDS = [F2, F3, F5, GF(11), GF(13), GF(17), GF(31), F4, GF(2, 3), GF(3, 2)]


@pytest.mark.parametrize("field", TEXT_FIELDS, ids=str)
def test_from_strings_parses_as_from_string_does(field, monkeypatch):
    rng = random.Random(f"from_strings over {field}")
    parse, one_pass = Polynomial.from_string.__func__, []
    monkeypatch.setattr(
        Polynomial, "from_string", classmethod(lambda cls, *a: one_pass.append(False) or parse(cls, *a))
    )
    for trial in range(90):
        style = ("canonical", "zeros", "spaces")[trial % 3]
        length = rng.randint(1, 6)  # one length for every text, or one each
        texts = [
            _text(field, [rng.randrange(field.q) for _ in range(length if trial % 2 else rng.randint(1, 6))],
                  rng, style)
            for _ in range(rng.randint(1, 8))
        ]
        del one_pass[:]
        got = Polynomial.from_strings(field, texts)
        # canonical texts of one length, leading zeros and a trailing zero
        # coefficient included, take the one pass and no from_string call
        assert (not one_pass) is (style != "spaces" and len({t.count(",") for t in texts}) == 1)
        want = [Polynomial.from_string(field, t) for t in texts]
        assert [(f.field, f.row) for f in got] == [(f.field, f.row) for f in want]
    assert Polynomial.from_strings(field, []) == []
    texts = [_text(field, [1, 0, 0], rng), _text(field, [0, 0, 0], rng)]  # trailing zeros
    assert Polynomial.from_strings(field, texts) == [P(field, 1), Polynomial(field)]
    if field.p >= 11:  # multi-digit tokens, canonical
        texts = [_text(field, [field.q - 1, 10, 1], rng), _text(field, [0, 1, 0], rng)]
        assert Polynomial.from_strings(field, texts) == [Polynomial.from_string(field, t) for t in texts]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value).__name__, str(info.value)


@pytest.mark.parametrize("field", TEXT_FIELDS, ids=str)
def test_from_strings_raises_what_the_first_faulty_text_raises(field):
    rng = random.Random(f"faulty from_strings over {field}")
    wrong_arity = "[1,0],[1]" if field.m == 1 else "[" + ",".join(["1"] * (field.m + 1)) + "]"
    faults = ["", "  ", "+1", "1_0", str(field.p), "\uff11", wrong_arity, "1,,1", "1,-1", "0x1"]
    faults.append(_text(field, [1, 0], rng).replace("1", str(field.p), 1))  # out of range
    for bad in faults:
        for _ in range(4):
            texts = [_text(field, [rng.randrange(field.q) for _ in range(3)], rng) for _ in range(rng.randint(0, 4))]
            texts.insert(rng.randrange(len(texts) + 1), bad)
            want = _raised(lambda: Polynomial.from_string(field, bad))
            assert _raised(lambda: Polynomial.from_strings(field, texts)) == want
            # a second fault later in the list does not change what is raised
            assert _raised(lambda: Polynomial.from_strings(field, [*texts, "+2"])) == want


def test_display_coefficients():
    assert Polynomial(F3, [2, 0, 2]).display() == "2 + 2X^2"
    assert Polynomial(F3, [0, 1]).display() == "X"


POLY_TEXT_FIELDS = [F2, F3, F5, GF(11), GF(13), GF(17), F4, GF(2, 3), GF(3, 2)]


@pytest.mark.parametrize("field", POLY_TEXT_FIELDS, ids=str)
def test_polynomial_texts_match_the_oracle(field):
    # degrees 0-12, the zero polynomial, non-monic leading coefficients and
    # every code of the field, the two-character ones of GF(11), GF(13) and
    # GF(17) included, in lists of one length and of mixed lengths
    rng = random.Random(f"polynomial text over {field}")
    seen = set()
    for trial in range(40):
        polys = [Polynomial(field)] * (trial % 3 == 0)
        for _ in range(rng.randint(1, 12)):
            degree = rng.randint(0, 12) if trial % 2 else 6
            codes = [rng.randrange(field.q) for _ in range(degree)] + [rng.randrange(1, field.q)]
            polys.append(Polynomial.from_codes(field, codes))
        rng.shuffle(polys)
        codes = [f.to_codes() for f in polys]
        seen.update(itertools.chain.from_iterable(codes))
        texts = Polynomial.to_strings(polys)
        assert texts == [oracles.poly_text(c, field.p, field.m) for c in codes]
        assert Polynomial.displays(polys) == [oracles.poly_display(c, field.p, field.m) for c in codes]
        assert [(f.to_string(), f.display()) for f in polys] == list(zip(texts, Polynomial.displays(polys)))
        assert Polynomial.from_strings(field, texts) == polys
    assert seen == set(range(field.q))
    assert Polynomial.to_strings([]) == Polynomial.displays([]) == []
