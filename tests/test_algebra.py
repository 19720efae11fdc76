"""Field and polynomial arithmetic against frozen, independently derived values."""

import itertools
import random

import pytest

from cacodes.algebra import (
    GF,
    MAX_SPEC_PRIME,
    FactorTable,
    NEG_INF,
    Polynomial,
    is_irreducible,
    is_prime,
    monic_polynomials,
    poly_gcd,
)
from cacodes.errors import (
    BothZero,
    DivisionByZero,
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
# and degrees d + 1 .. 2d + 1 go through trial division
FACTOR_CASES = [(F2, 4), (F3, 2), (F4, 2), (F5, 2), (GF(17), 1)]


@pytest.mark.parametrize("field, d", FACTOR_CASES, ids=lambda v: str(v))
def test_factor_table_irreducibles_match_product_oracle(field, d):
    table = FactorTable(field, d)
    codes = [table.polynomial(row).to_codes() for row in table.irreducibles]
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
        factors = [table.polynomial(row) for row in table.factor(f)]
        product = (1,)
        for g in factors:
            assert irreducible(g.to_codes())
            product = oracles.omul(product, g.to_codes(), field.p, modulus(field))
        assert product == f.monic().to_codes()
        rows = table.factor(f)
        assert rows == sorted(rows, key=rows.index)  # equal factors are adjacent


def test_factor_table_refuses_what_it_cannot_factor():
    table = FactorTable(F2, 2)
    with pytest.raises(InvalidDegree):
        table.factor(P(F2, *[1] * 7))  # degree 6 > 2 * 2 + 1
    with pytest.raises(InvalidDegree):
        table.factor(Polynomial(F2))


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


def test_xor_format_low_has_bit_zero_of_every_lane():
    for m in range(1, 5):
        for n in (0, 1, 7, 64):
            assert GF(2, m).row_format(n).low == sum(1 << j * m for j in range(n))


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


def test_display_coefficients():
    assert Polynomial(F3, [2, 0, 2]).display() == "2 + 2X^2"
    assert Polynomial(F3, [0, 1]).display() == "X"
