"""Rule families: construction, distance prediction, counting, exact search."""

import itertools
import random

import pytest

from cacodes import families
from cacodes.algebra import GF, Polynomial, poly_gcd
from cacodes.ca import LinearCA
from cacodes.errors import (
    BudgetExceeded,
    DegreeTooLarge,
    DuplicateMember,
    EmptyFamily,
    GNotMonic,
    GZeroConstant,
    InvalidDegree,
    NonPositive,
    NotBipermutive,
    TooFewMembers,
)
from cacodes.families import (
    CAFamily,
    GcdProfile,
    _compatibility,
    _max_clique,
    code_from_family,
    count_irreducibles,
    enumerate_irreducibles,
    enumerate_rule_polynomials,
    expected_uniform_gcd_size,
    gcd_profile,
    max_coprime_family_size,
    mobius,
    predicted_min_distance,
    search_max_exact_gcd,
    search_max_family,
    uniform_gcd_family,
    verify_family,
)

import oracles

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


# -- family validation ---------------------------------------------------------------


def test_family_basic():
    fam = CAFamily([P(F2, 1, 1, 1), P(F2, 1, 0, 1)])
    assert fam.k == 2 and len(fam) == 2


def test_family_rejects_empty():
    with pytest.raises(EmptyFamily):
        CAFamily([])


def test_family_rejects_mixed_degrees():
    with pytest.raises(InvalidDegree):
        CAFamily([P(F2, 1, 1), P(F2, 1, 1, 1)])


def test_family_rejects_duplicates():
    with pytest.raises(DuplicateMember):
        CAFamily([P(F2, 1, 1), P(F2, 1, 1)])


def test_family_rejects_zero_constant():
    with pytest.raises(NotBipermutive):
        CAFamily([P(F2, 0, 1, 1), P(F2, 1, 1, 1)])


# -- prediction ----------------------------------------------------------------------------


def test_predicted_distance_coprime_pair():
    fam = CAFamily([P(F2, 1, 1, 1), P(F2, 1, 0, 1)])
    d, profile = predicted_min_distance(fam)
    assert d == 4
    assert profile.max_gcd_degree == 0
    assert profile.table == ((), (0,))


def test_predicted_distance_shared_factor():
    # (X+1)(X^2+X+1) and (X+1)^3 share exactly X+1
    fam = CAFamily([P(F2, 1, 0, 0, 1), P(F2, 1, 1, 1, 1)])
    d, profile = predicted_min_distance(fam)
    assert d == 4
    assert profile.max_gcd_degree == 1
    assert profile.witness_pair == (0, 1)


def test_distinct_members_gcd_below_k():
    for f, g in itertools.combinations(enumerate_rule_polynomials(3, F2), 2):
        assert poly_gcd(f, g).degree < 3
    fam = CAFamily(list(enumerate_rule_polynomials(3, F2)))
    d, profile = predicted_min_distance(fam)
    assert profile.max_gcd_degree <= 2
    assert d >= 2


def test_prediction_needs_two_members():
    with pytest.raises(TooFewMembers):
        predicted_min_distance(CAFamily([P(F2, 1, 1)]))
    with pytest.raises(TooFewMembers):
        gcd_profile(CAFamily([P(F2, 1, 1)]))


# -- factored GCD degrees against Euclid --------------------------------------------------------


def _gcd_table(polys):
    return tuple(
        tuple(int(poly_gcd(f, g).degree) for g in polys[:i]) for i, f in enumerate(polys)
    )


def _random_families(rng, field, k, count):
    """Families in Poly_k built from a small pool of factors, so that squares,
    shared repeated factors and tied maxima are common."""
    one = Polynomial.from_codes(field, (1,))
    pool = [
        Polynomial.from_codes(field, [rng.randrange(1, field.q)] + [
            rng.randrange(field.q) for _ in range(n - 1)] + [1])
        for n in [1, 1, 2, 2, 3, rng.randint(1, k)]
    ]
    for _ in range(count):
        members = set()
        for _ in range(rng.randint(2, 8)):
            f = one
            while f.degree < k:
                f = f * rng.choice([a for a in pool if a.degree <= k - f.degree])
            members.add(f)
        if len(members) >= 2:
            yield CAFamily(sorted(members, key=Polynomial.to_codes))


# GF(2) at k = 26 and GF(17) at k = 6 lie past the sieve limit: pairwise GCDs
@pytest.mark.parametrize("field, k", [(F2, 6), (F3, 5), (F4, 4), (GF(5), 4), (GF(17), 3),
                                      (F2, 26), (GF(17), 6)], ids=str)
def test_gcd_profile_matches_poly_gcd_on_random_families(field, k):
    rng = random.Random(field.q * 10 + k)
    ties = 0
    for fam in _random_families(rng, field, k, 40):
        expected = GcdProfile.from_table(_gcd_table(fam.members))
        assert gcd_profile(fam) == expected
        ties += sum(row.count(expected.max_gcd_degree) for row in expected.table) > 1
    assert ties > 0


@pytest.mark.parametrize("field, k", [(F2, 6), (F3, 4), (F4, 3), (GF(5), 3)], ids=str)
def test_compatibility_matches_poly_gcd_graph_for_every_t(field, k):
    vertices = enumerate_rule_polynomials(k, field)
    table = _gcd_table(vertices)
    for t in range(k + 1):
        expected = [0] * len(vertices)
        for i, row in enumerate(table):
            for j, d in enumerate(row):
                if d <= t:
                    expected[i] |= 1 << j
                    expected[j] |= 1 << i
        assert _compatibility(vertices, t) == expected


# -- code construction ------------------------------------------------------------------------


def test_code_from_singleton_family():
    code = code_from_family(CAFamily([P(F2, 1, 1)]))
    assert len(code) == 1
    assert code.ambient_n == 2
    assert code[0].basis.rows == ((1, 1),)


def test_code_from_pair_family():
    code = code_from_family(CAFamily([P(F2, 1, 1, 1), P(F2, 1, 0, 1)]))
    assert len(code) == 2
    assert code.constant_dim == 2
    assert code.ambient_n == 4
    assert code.duplicates_removed == 0


def test_distinct_rules_distinct_kernels_exhaustive():
    for k in (1, 2, 3):
        polys = enumerate_rule_polynomials(k, F2)
        kernels = [LinearCA(f, 2 * k).kernel() for f in polys]
        assert len(set(kernels)) == len(polys)


def test_prediction_matches_brute_force_small():
    # small sample of the prediction/measurement equivalence (full sweep in acceptance)
    for k in (2, 3):
        polys = enumerate_rule_polynomials(k, F2)
        for pair in itertools.combinations(polys, 2):
            fam = CAFamily(list(pair))
            code = code_from_family(fam)
            assert code.min_distance() == predicted_min_distance(fam)[0]


# -- counting ------------------------------------------------------------------------------------


def test_mobius_values():
    known = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 8: 0, 12: 0, 30: -1}
    for n, mu in known.items():
        assert mobius(n) == mu
    with pytest.raises(NonPositive):
        mobius(0)


def test_mobius_summatory_identity():
    # sum of mu(d) over divisors d of n is 1 for n = 1, else 0
    for n in range(1, 300):
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_count_examples():
    assert count_irreducibles(1, F2) == 2
    assert count_irreducibles(2, F2) == 1
    assert count_irreducibles(3, F2) == 2
    assert count_irreducibles(2, F3) == 3
    assert count_irreducibles(1, F2, exclude_x=True) == 1
    assert count_irreducibles(2, F2, exclude_x=True) == 1
    with pytest.raises(NonPositive):
        count_irreducibles(0, F2)


def test_count_matches_enumeration_and_oracle():
    for field in (F2, F3):
        for n in range(1, 5):
            listed = enumerate_irreducibles(n, field)
            assert len(listed) == count_irreducibles(n, field)
            assert {f.to_codes() for f in listed} == oracles.irreducibles(n, field.p)
    for n in range(1, 4):
        assert len(enumerate_irreducibles(n, F4)) == count_irreducibles(n, F4)


def test_enumeration_lex_order_and_exclude_x():
    listed = enumerate_irreducibles(1, F2, exclude_x=True)
    assert [f.to_codes() for f in listed] == [(1, 1)]
    full = enumerate_irreducibles(1, F3)
    assert [f.to_codes() for f in full] == [(0, 1), (1, 1), (2, 1)]
    codes = [f.to_codes() for f in enumerate_irreducibles(3, F2)]
    assert codes == sorted(codes)


def test_max_coprime_sizes():
    assert max_coprime_family_size(2, F2) == 2
    assert max_coprime_family_size(3, F2) == 3
    assert max_coprime_family_size(1, F3) == 2
    assert [max_coprime_family_size(k, F2) for k in range(1, 6)] == [1, 2, 3, 5, 8]


def test_rule_polynomial_enumeration():
    polys = enumerate_rule_polynomials(3, F2)
    assert [f.to_codes() for f in polys] == [
        (1, 0, 0, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 1),
    ]
    assert len(enumerate_rule_polynomials(2, F3)) == 6


# -- uniform gcd construction -------------------------------------------------------------------------


def test_uniform_gcd_coprime_quadratics():
    S = uniform_gcd_family(2, P(F2, 1))
    assert [f.to_codes() for f in S] == [(1, 0, 1), (1, 1, 1)]


def test_uniform_gcd_shared_linear():
    S = uniform_gcd_family(3, P(F2, 1, 1))
    assert len(S) == 2
    for f, g in itertools.combinations(S, 2):
        assert poly_gcd(f, g) == P(F2, 1, 1)


def test_uniform_gcd_degenerate_t_equals_k():
    g = P(F2, 1, 1, 1)
    assert uniform_gcd_family(2, g) == (g,)


def test_uniform_gcd_errors():
    with pytest.raises(GNotMonic):
        uniform_gcd_family(3, P(F3, 1, 2))
    with pytest.raises(GZeroConstant):
        uniform_gcd_family(3, P(F2, 0, 1))
    with pytest.raises(DegreeTooLarge):
        uniform_gcd_family(2, P(F2, 1, 1, 1, 1))


def test_uniform_gcd_membership_and_cofactors():
    for k in range(1, 6):
        for g in (P(F2, 1), P(F2, 1, 1)):
            if g.degree > k:
                continue
            S = uniform_gcd_family(k, g)
            t = int(g.degree)
            assert len(S) == expected_uniform_gcd_size(k, t, F2)
            assert len(set(S)) == len(S)
            for f in S:
                assert f.is_monic() and f.degree == k
                assert f.to_codes()[0] != 0
                assert (f % g).is_zero()
            for f1, f2 in itertools.combinations(S, 2):
                assert poly_gcd(f1, f2) == g
                assert poly_gcd(f1 // g, f2 // g).is_one()


def test_uniform_gcd_over_f3():
    S = uniform_gcd_family(2, P(F3, 1))
    assert len(S) == expected_uniform_gcd_size(2, 0, F3)
    for f1, f2 in itertools.combinations(S, 2):
        assert poly_gcd(f1, f2).is_one()


# -- verification ----------------------------------------------------------------------------------------


def test_verify_construction_output():
    g = P(F2, 1, 1)
    report = verify_family(uniform_gcd_family(4, g), g=g)
    assert report.ok and report.mode == "exact-gcd"


def test_verify_mixed_degrees_fails():
    report = verify_family([P(F2, 1, 0, 1), P(F2, 1, 0, 0, 1)], t=1)
    assert not report.ok
    assert "degree" in report.detail


def test_verify_zero_constant_fails():
    report = verify_family([P(F2, 0, 1), P(F2, 1, 1)], t=0)
    assert not report.ok


def test_verify_rejects_duplicate_members():
    # a repeated rule is not a family, even when its self-gcd meets the bound
    report = verify_family([P(F2, 1, 1, 1), P(F2, 1, 1, 1)], t=2)
    assert not report.ok
    assert "distinct" in report.detail


def test_verify_exact_mode_mismatch():
    report = verify_family([P(F2, 1, 1, 1), P(F2, 1, 0, 1)], g=P(F2, 1, 1))
    assert not report.ok
    assert "gcd" in report.detail


def test_verify_bound_mode():
    members = [P(F2, 1, 0, 0, 1), P(F2, 1, 1, 1, 1)]  # gcd X+1, degree 1
    assert verify_family(members, t=1).ok
    assert not verify_family(members, t=0).ok


def test_verify_mode_selection():
    with pytest.raises(ValueError):
        verify_family([P(F2, 1, 1)])
    with pytest.raises(ValueError):
        verify_family([P(F2, 1, 1)], g=P(F2, 1), t=0)


# -- exact search -------------------------------------------------------------------------------------------


def test_search_matches_coprime_bound_small():
    assert len(search_max_family(2, 0, F2)) == 2
    assert len(search_max_family(3, 0, F2)) == 3
    assert len(search_max_family(4, 0, F2)) == 5


def test_search_vacuous_bound_returns_everything():
    S = search_max_family(3, 3, F2)
    assert set(f.to_codes() for f in S) == {
        f.to_codes() for f in enumerate_rule_polynomials(3, F2)
    }


def test_search_budget():
    with pytest.raises(BudgetExceeded):
        search_max_family(5, 0, F2, budget=10)


def test_search_budget_is_checked_before_enumerating(monkeypatch):
    def refuse(k, field):
        raise AssertionError("Poly_k enumerated before the budget check")

    monkeypatch.setattr(families, "enumerate_rule_polynomials", refuse)
    with pytest.raises(BudgetExceeded):
        search_max_family(1, 0, GF(100003))
    with pytest.raises(BudgetExceeded):  # 2^19999 has too many digits to print
        search_max_family(20000, 0, F2, budget=2**64)


def test_search_deterministic():
    a = search_max_family(4, 1, F2)
    b = search_max_family(4, 1, F2)
    assert a == b
    report = verify_family(list(a), t=1)
    assert report.ok


def test_search_output_is_valid_family():
    S = search_max_family(3, 0, F3)
    assert len(S) == max_coprime_family_size(3, F3)
    assert verify_family(list(S), t=0).ok


def _bitsets(n, edges):
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def _random_edges(rng, n, density):
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < density]


def test_max_clique_matches_lex_first_oracle_on_random_graphs():
    rng = random.Random(4)
    for _ in range(1500):
        n = rng.randint(0, 14)
        edges = _random_edges(rng, n, rng.uniform(0.1, 0.95))
        assert _max_clique(_bitsets(n, edges)) == oracles.lex_first_max_clique(n, edges)


def _blocks(rng, sizes, within):
    """Randomly labelled vertex blocks; edges inside blocks iff ``within``."""
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(sorted(labels[start:start + size]))
        start += size
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(len(labels)), 2)
        if (block_of[u] == block_of[v]) == within
    ]
    return blocks, edges


def _tied_graphs(rng):
    """(n, edges, lex-first maximum clique) for graphs with many tied optima."""
    for n in (0, 1, 2, 9, 14, 40):
        yield n, [], (0,) if n else ()
        yield n, list(itertools.combinations(range(n), 2)), tuple(range(n))
    for sizes in ((2, 2, 2), (3, 3, 3, 3), (4, 4, 4), (2, 3, 3, 1, 3), (5,) * 8):
        # disjoint equal cliques: the largest block holding the smallest label
        blocks, edges = _blocks(rng, sizes, within=True)
        top = max(sizes)
        yield sum(sizes), edges, tuple(min(b for b in blocks if len(b) == top))
        # complete multipartite: one vertex per part, the smallest of each
        blocks, edges = _blocks(rng, sizes, within=False)
        yield sum(sizes), edges, tuple(sorted(b[0] for b in blocks))


def test_max_clique_ties_take_the_lex_first_optimum():
    rng = random.Random(5)
    for _ in range(20):
        for n, edges, expected in _tied_graphs(rng):
            assert _max_clique(_bitsets(n, edges)) == expected
            if n <= 14:
                assert oracles.lex_first_max_clique(n, edges) == expected


def test_max_clique_ties_under_noise():
    # equal cliques joined by a few random edges keep many tied optima
    rng = random.Random(6)
    for _ in range(200):
        sizes = [rng.randint(2, 4)] * rng.randint(2, 4)
        _, edges = _blocks(rng, sizes, within=True)
        n = sum(sizes)
        edges += [e for e in _random_edges(rng, n, 0.15) if e not in edges]
        assert _max_clique(_bitsets(n, edges)) == oracles.lex_first_max_clique(n, edges)


@pytest.mark.parametrize(
    "field, k",
    [(F2, 6), (F2, 7), (F2, 8), (F3, 4), (F3, 5), (GF(5), 3), (F4, 3), (F4, 4)],
    ids=lambda v: getattr(v, "spec", v),
)
def test_search_certifies_coprime_bound_beyond_criterion_4(field, k):
    found = search_max_family(k, 0, field)
    assert len(found) == max_coprime_family_size(k, field)
    assert verify_family(list(found), t=0).ok


def test_search_certifies_uniform_gcd_sizes_beyond_criterion_5():
    found = search_max_family(7, 1, F2)
    assert len(found) >= expected_uniform_gcd_size(7, 1, F2)
    assert verify_family(list(found), t=1).ok
    g = P(F2, 1, 1)
    built = uniform_gcd_family(6, g)
    found = search_max_exact_gcd(6, g)
    assert len(found) == len(built)
    assert verify_family(list(found), g=g).ok


def test_search_exact_gcd_matches_construction():
    for k in (2, 3, 4):
        for g in (P(F2, 1), P(F2, 1, 1), P(F2, 1, 1, 1)):
            if g.degree > k:
                continue
            built = uniform_gcd_family(k, g)
            found = search_max_exact_gcd(k, g)
            assert len(found) == len(built)
            if len(found) >= 2:
                assert verify_family(list(found), g=g).ok


def test_equidistance_of_uniform_gcd_code():
    from cacodes.subspaces import subspace_distance

    fam = CAFamily(list(uniform_gcd_family(3, P(F2, 1))))
    code = code_from_family(fam)
    for a, b in itertools.combinations(code.codewords, 2):
        assert subspace_distance(a, b) == 6
