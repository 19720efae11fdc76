"""Acceptance gate: seven oracle-backed criteria, one reported line each.

Every criterion prints a single ``criterion N (<label>): PASS/FAIL`` line
(visible regardless of capture) and enforces its runtime budget.  Brute-force
sides use the independent integer oracles in ``oracles.py`` wherever the
statement is about prime fields; extension-field checks cross two genuinely
different in-library algorithms (analytic formula vs explicit enumeration).
"""

import itertools
import json
import random
import time

from cacodes.algebra import GF, Polynomial, poly_gcd
from cacodes.ca import LinearCA
from cacodes.channel import ChannelConfig, simulate
from cacodes.families import (
    CAFamily,
    code_from_family,
    count_irreducibles,
    enumerate_irreducibles,
    enumerate_rule_polynomials,
    gcd_profile,
    max_coprime_family_size,
    predicted_min_distance,
    search_max_exact_gcd,
    search_max_family,
    uniform_gcd_family,
    verify_family,
)
from cacodes.linalg import sylvester
from cacodes.subspaces import Subspace

import oracles

F2 = GF(2)


def _run_criterion(capsys, num, label, limit, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({label}): FAIL "
                  f"after {time.monotonic() - start:.1f}s")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < limit else "FAIL (over time budget)"
    with capsys.disabled():
        print(f"criterion {num} ({label}): {status} "
              f"[{elapsed:.1f}s, budget {limit:.0f}s]")
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (budget {limit}s)"


def _random_nonzero_poly(field, rng, max_degree):
    degree = rng.randrange(max_degree + 1)
    lead = rng.randrange(1, field.q)
    lower = tuple(rng.randrange(field.q) for _ in range(degree))
    return Polynomial.from_codes(field, lower + (lead,))


def _prediction_families():
    """The criterion-2 population: exhaustive size 2-4 subsets for k <= 3,
    plus 500 seeded redraws of the larger k = 3 families."""
    out = []
    for k in (1, 2, 3):
        polys = enumerate_rule_polynomials(k, F2)
        for size in (2, 3, 4):
            for combo in itertools.combinations(polys, size):
                out.append((k, combo))
    polys3 = enumerate_rule_polynomials(3, F2)
    rng = random.Random(1234)
    for _ in range(500):
        size = rng.choice((3, 4))
        out.append((3, tuple(rng.sample(polys3, size))))
    return out


def test_criterion_1_sylvester_nullity_equals_gcd_degree(capsys):
    def body():
        polys = [
            Polynomial.from_codes(F2, lower + (1,))
            for degree in range(4)
            for lower in itertools.product(range(2), repeat=degree)
        ]
        assert len(polys) == 15
        pairs = list(itertools.product(polys, repeat=2))
        rng = random.Random(20260815)
        for field in (GF(3), GF(2, 2)):
            for _ in range(2000):
                pairs.append((
                    _random_nonzero_poly(field, rng, 5),
                    _random_nonzero_poly(field, rng, 5),
                ))
        for f, g in pairs:
            syl = sylvester(f, g)
            nullity = syl.ncols - syl.rank()
            assert nullity == int(poly_gcd(f, g).degree)

    _run_criterion(capsys, 1, "Sylvester nullity = gcd degree", 10, body)


def test_criterion_2_predicted_distance_end_to_end(capsys):
    def body():
        for k, combo in _prediction_families():
            fam = CAFamily(list(combo))
            predicted, _ = predicted_min_distance(fam)
            expected = 2 * k - 2 * max(
                int(poly_gcd(f, g).degree)
                for f, g in itertools.combinations(combo, 2)
            )
            # brute force straight from the definitions, in plain integers
            sets = [oracles.kernel_set(f.to_codes(), 2 * k, 2) for f in combo]
            brute = min(
                oracles.distance_from_sets(a, b, 2)
                for a, b in itertools.combinations(sets, 2)
            )
            code = code_from_family(fam)
            assert len(code) == len(combo)
            assert brute == expected
            assert predicted == expected
            assert code.min_distance() == expected

    _run_criterion(capsys, 2, "predicted min distance end to end", 60, body)


def test_criterion_3_kernel_size_and_canonical_form(capsys):
    def body():
        for field in (GF(2), GF(3)):
            p = field.p
            for k in (1, 2, 3):
                for rule in enumerate_rule_polynomials(k, field):
                    for n in range(k + 1, 9):
                        ca = LinearCA(rule, n)
                        kernel = ca.kernel()
                        brute = oracles.kernel_set(rule.to_codes(), n, p)
                        assert len(brute) == p**k
                        assert kernel.dim == k
                        assert oracles.span_set(kernel.basis.rows, n, p) == brute
                        nullspace = Subspace.from_matrix(
                            ca.transition_matrix().nullspace_basis()
                        )
                        assert kernel == nullspace

    _run_criterion(capsys, 3, "kernel size q^k and canonical bases agree", 60, body)


def test_criterion_4_counting_agreement(capsys):
    def body():
        for field in (GF(2), GF(3), GF(2, 2)):
            for n in range(1, 7):
                formula = count_irreducibles(n, field)
                assert formula == len(enumerate_irreducibles(n, field))
        for p in (2, 3):
            for n in range(1, 5):
                assert count_irreducibles(n, GF(p)) == len(oracles.irreducibles(n, p))
        for field, kmax in ((GF(2), 5), (GF(3), 3)):
            for k in range(1, kmax + 1):
                bound = max_coprime_family_size(k, field)
                found, _ = search_max_family(k, 0, field)
                assert bound == len(found)
                assert verify_family(list(found), t=0).ok
        assert max_coprime_family_size(2, GF(2)) == 2

    _run_criterion(capsys, 4, "counting formulas match enumeration", 120, body)


def test_criterion_5_uniform_gcd_construction(capsys):
    def body():
        gs = [
            Polynomial(F2, (1,)),
            Polynomial(F2, (1, 1)),
            Polynomial(F2, (1, 0, 1)),
            Polynomial(F2, (1, 1, 1)),
        ]
        for k in range(1, 6):
            for g in gs:
                t = int(g.degree)
                if t > k:
                    continue
                S, _ = uniform_gcd_family(k, g)
                assert verify_family(list(S), g=g).ok
                r = k - t
                if r == 0:
                    expected = 1
                else:
                    expected = count_irreducibles(r, F2, exclude_x=True) + sum(
                        count_irreducibles(i, F2, exclude_x=True)
                        for i in range(1, r // 2 + 1)
                    )
                assert len(S) == expected
                if len(S) >= 2:
                    sets = [oracles.kernel_set(f.to_codes(), 2 * k, 2) for f in S]
                    for a, b in itertools.combinations(sets, 2):
                        assert oracles.distance_from_sets(a, b, 2) == 2 * k - 2 * t
                assert len(search_max_exact_gcd(k, g)) == len(S)

    _run_criterion(capsys, 5, "uniform-gcd construction size and spacing", 120, body)


def test_criterion_6_decoder_guarantee(capsys):
    def body():
        code2 = code_from_family(CAFamily([
            Polynomial(F2, (1, 1, 1)), Polynomial(F2, (1, 0, 1)),
        ]))
        code3 = code_from_family(CAFamily(
            uniform_gcd_family(3, Polynomial(F2, (1,)))[0]
        ))
        plans = (
            (code2, 4, ((0, 0), (1, 0), (0, 1))),
            (code3, 6, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))),
        )
        for code, big_d, configs in plans:
            assert code.min_distance() == big_d
            for rho, e in configs:
                assert 2 * (rho + e) < big_d
                cfg = ChannelConfig(erasures=rho, error_dims=e, seed=20260815)
                stats = simulate(code, cfg, trials=1000)
                assert stats["success_rate"] == 1.0, (rho, e)
                assert stats["ambiguities"] == 0
                rerun = simulate(code, cfg, trials=1000)
                assert (json.dumps(stats, sort_keys=True)
                        == json.dumps(rerun, sort_keys=True))

    _run_criterion(capsys, 6, "decoder corrects below half distance", 30, body)


def test_criterion_7_coprime_families_are_equidistant(capsys):
    def body():
        checked = 0
        for k, combo in _prediction_families():
            if gcd_profile(CAFamily(list(combo))).max_gcd_degree != 0:
                continue
            checked += 1
            sets = [oracles.kernel_set(f.to_codes(), 2 * k, 2) for f in combo]
            for a, b in itertools.combinations(sets, 2):
                assert oracles.distance_from_sets(a, b, 2) == 2 * k
        assert checked > 0

    _run_criterion(capsys, 7, "pairwise-coprime families equidistant at 2k", 60, body)
