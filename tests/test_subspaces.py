"""Canonical subspaces, the subspace metric, and Grassmannian code objects."""

import itertools
import json
import random

import pytest

from cacodes.algebra import GF, Polynomial
from cacodes.ca import LinearCA
from cacodes.errors import AmbientMismatch, EmptyCode, TooFewCodewords
from cacodes.linalg import Echelon, sylvester
from cacodes import families, subspaces
from cacodes.subspaces import GrassmannianCode, Subspace, _joint_rank, subspace_distance

import oracles

F2 = GF(2)
F3 = GF(3)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def kernel_of(field, coeffs, n):
    return LinearCA(Polynomial(field, coeffs), n).kernel()


def random_subspace(field, n, rng, max_rows=3):
    rows = [
        [rng.randrange(field.q) for _ in range(n)]
        for _ in range(rng.randint(0, max_rows))
    ]
    return Subspace(field, n, rows)


# -- canonical form ------------------------------------------------------------------


def test_duplicate_rows_collapse():
    s = Subspace(F2, 2, [(1, 1), (1, 1)])
    assert s.dim == 1
    assert s.basis.rows == ((1, 1),)


def test_empty_rows_zero_subspace():
    s = Subspace(F2, 3)
    assert s.dim == 0
    assert s.is_zero()
    assert s.basis.ncols == 3


def test_already_rref_basis_kept():
    s = Subspace(F2, 4, [(1, 0, 1, 1), (0, 1, 1, 0)])
    assert s.dim == 2
    assert s.basis.rows == ((1, 0, 1, 1), (0, 1, 1, 0))


def test_equality_is_span_equality():
    a = Subspace(F3, 3, [(1, 2, 0), (0, 0, 1)])
    b = Subspace(F3, 3, [(1, 2, 1), (2, 1, 1)])  # same span, different generators
    assert a == b
    assert hash(a) == hash(b)


def test_span_matches_oracle():
    rng = random.Random(31)
    for p in (2, 3):
        field = GF(p)
        for _ in range(40):
            rows = [
                [rng.randrange(p) for _ in range(4)] for _ in range(rng.randint(0, 3))
            ]
            s = Subspace(field, 4, rows)
            assert oracles.span_set(s.basis.rows, 4, p) == oracles.span_set(rows, 4, p)
            assert set(s.vectors()) == set(oracles.span_set(rows, 4, p))


# -- distance ------------------------------------------------------------------------------


def test_distance_to_self_is_zero():
    s = Subspace(F2, 4, [(1, 0, 1, 1)])
    assert subspace_distance(s, s) == 0


def test_distance_nested_example():
    a = Subspace(F2, 4, [(1, 1, 0, 0)])
    b = Subspace(F2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert subspace_distance(a, b) == 1


def test_distance_coprime_kernels():
    a = kernel_of(F2, (1, 1, 1), 4)
    b = kernel_of(F2, (1, 0, 1), 4)
    assert subspace_distance(a, b) == 4
    # oracle: enumerate both kernels as vector sets
    sa = oracles.kernel_set((1, 1, 1), 4, 2)
    sb = oracles.kernel_set((1, 0, 1), 4, 2)
    assert oracles.distance_from_sets(sa, sb, 2) == 4


def test_distance_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        subspace_distance(Subspace(F2, 3, [(1, 0, 0)]), Subspace(F2, 4, [(1, 0, 0, 0)]))
    with pytest.raises(AmbientMismatch):
        subspace_distance(Subspace(F2, 3, [(1, 0, 0)]), Subspace(F3, 3, [(1, 0, 0)]))


def test_distance_matches_set_oracle_randomized():
    rng = random.Random(404)
    for p in (2, 3):
        field = GF(p)
        for _ in range(40):
            a = random_subspace(field, 4, rng)
            b = random_subspace(field, 4, rng)
            expected = oracles.distance_from_sets(
                oracles.span_set(a.basis.rows, 4, p),
                oracles.span_set(b.basis.rows, 4, p),
                p,
            )
            assert subspace_distance(a, b) == expected


def test_metric_axioms_random_triples():
    rng = random.Random(999)
    for _ in range(60):
        a = random_subspace(F2, 5, rng)
        b = random_subspace(F2, 5, rng)
        c = random_subspace(F2, 5, rng)
        dab = subspace_distance(a, b)
        assert dab >= 0
        assert (dab == 0) == (a == b)
        assert dab == subspace_distance(b, a)
        assert dab <= subspace_distance(a, c) + subspace_distance(c, b)


# -- intersection ---------------------------------------------------------------------------
# No intersection basis is built: dim(A intersect B) = dim A + dim B - rank(stack).
# A subspace W that lies in A and in B and has that dimension is A intersect B.


def inter_dim(a, b):
    return a.dim + b.dim - _joint_rank(a, b._echelon.rows)


def is_intersection(w, a, b):
    return w <= a and w <= b and w.dim == inter_dim(a, b)


def test_intersection_with_self():
    s = Subspace(F2, 4, [(1, 0, 1, 1), (0, 1, 1, 0)])
    assert is_intersection(s, s, s)


def test_intersection_coprime_kernels_trivial():
    a = kernel_of(F2, (1, 1, 1), 4)
    b = kernel_of(F2, (1, 0, 1), 4)
    assert inter_dim(a, b) == 0
    assert is_intersection(Subspace(F2, 4), a, b)
    # oracle: the kernels share only the zero vector
    both = oracles.kernel_set((1, 1, 1), 4, 2) & oracles.kernel_set((1, 0, 1), 4, 2)
    assert both == {(0, 0, 0, 0)}


def test_intersection_shared_factor_kernels():
    # rules (X+1)(X^2+X+1) = 1,0,0,1 and (X+1)^3 = 1,1,1,1 share gcd X+1
    a = kernel_of(F2, (1, 0, 0, 1), 6)
    b = kernel_of(F2, (1, 1, 1, 1), 6)
    assert inter_dim(a, b) == 1
    # oracle: brute-force intersection over F_2^6
    sa = oracles.kernel_set((1, 0, 0, 1), 6, 2)
    sb = oracles.kernel_set((1, 1, 1, 1), 6, 2)
    both = frozenset(sa & sb)
    assert oracles.set_dim(both, 2) == 1
    assert is_intersection(Subspace(F2, 6, both), a, b)


def test_intersection_dim_consistent_with_distance():
    rng = random.Random(8)
    for _ in range(60):
        a = random_subspace(F3, 4, rng)
        b = random_subspace(F3, 4, rng)
        # oracle: the span of the common vectors of both span sets
        both = oracles.span_set(a.basis.rows, 4, 3) & oracles.span_set(b.basis.rows, 4, 3)
        inter = Subspace(F3, 4, both)
        assert is_intersection(inter, a, b)
        assert subspace_distance(a, b) == a.dim + b.dim - 2 * inter.dim


def test_kernel_intersection_is_sylvester_nullspace():
    # stacked transition matrices at n = 2k form the Sylvester matrix, so the
    # intersection of two kernels must be its null space (exhaustive k <= 3)
    for k in (1, 2, 3):
        rules = [
            Polynomial.from_codes(F2, (1,) + mid + (1,))
            for mid in itertools.product(range(2), repeat=k - 1)
        ]
        for f, g in itertools.combinations(rules, 2):
            ker_f = LinearCA(f, 2 * k).kernel()
            ker_g = LinearCA(g, 2 * k).kernel()
            via_sylvester = Subspace.from_matrix(
                sylvester(f, g).nullspace_basis()
            )
            assert is_intersection(via_sylvester, ker_f, ker_g)


def test_distance_law_two_k_minus_intersection():
    for k in (1, 2, 3):
        rules = [
            Polynomial.from_codes(F2, (a0,) + mid + (1,))
            for mid in itertools.product(range(2), repeat=k - 1)
            for a0 in (1,)
        ]
        for f, g in itertools.combinations(rules, 2):
            a = LinearCA(f, 2 * k).kernel()
            b = LinearCA(g, 2 * k).kernel()
            # oracle: the dimension of the common vectors of both kernels
            both = oracles.kernel_set(f.to_codes(), 2 * k, 2) & oracles.kernel_set(
                g.to_codes(), 2 * k, 2
            )
            assert inter_dim(a, b) == oracles.set_dim(frozenset(both), 2)
            assert subspace_distance(a, b) == 2 * k - 2 * inter_dim(a, b)


# -- Grassmannian codes -----------------------------------------------------------------------------


def coprime_pair_code():
    a = kernel_of(F2, (1, 1, 1), 4)
    b = kernel_of(F2, (1, 0, 1), 4)
    return GrassmannianCode(F2, 4, [a, b])


def test_min_distance_requires_two():
    single = GrassmannianCode(F2, 4, [kernel_of(F2, (1, 1, 1), 4)])
    with pytest.raises(TooFewCodewords):
        single.min_distance()


def test_min_distance_disjoint_pair():
    assert coprime_pair_code().min_distance() == 4


@pytest.mark.parametrize("field", [F2, F3, GF(2, 2), GF(17)], ids=str)
def test_min_distance_is_the_least_distance_of_a_pair(field):
    # constant-dimension codes read 2k - 2 max(table), any other code the
    # least nearest distance: both are the least distance of two codewords,
    # the zero space among them
    rng = random.Random(f"min distance over {field}")
    for trial in range(40):
        n, dim = rng.randint(2, 6), rng.randint(0, 3)
        subs = [random_subspace(field, n, rng, dim) for _ in range(rng.randint(2, 7))]
        if trial % 2:  # one dimension
            subs = [s for s in subs if s.dim == dim] or subs[:1]
        code = GrassmannianCode(field, n, subs)
        if len(code) < 2:
            continue
        brute = min(subspace_distance(a, b) for a, b in itertools.combinations(code, 2))
        assert code.min_distance() == brute
        assert brute == min(code.nearest_distances())


def test_params_singleton_undefined_distance():
    single = GrassmannianCode(F2, 4, [kernel_of(F2, (1, 1, 1), 4)])
    p = single.params()
    assert (p.n, p.max_dim, p.log_q_size, p.min_distance) == (4, 2, 0.0, None)


def test_params_coprime_pair():
    p = coprime_pair_code().params()
    assert (p.n, p.max_dim, p.log_q_size, p.min_distance) == (4, 2, 1.0, 4)


def test_params_log_of_three():
    subs = [
        kernel_of(F2, (1, 0, 0, 1), 6),
        kernel_of(F2, (1, 1, 0, 1), 6),
        kernel_of(F2, (1, 0, 1, 1), 6),
    ]
    p = GrassmannianCode(F2, 6, subs).params()
    assert abs(p.log_q_size - 1.584962500721156) < 1e-12
    assert p.size == 3


def test_params_empty_code():
    with pytest.raises(EmptyCode):
        GrassmannianCode(F2, 4, []).params()


def test_codewords_sorted_and_deduplicated():
    a = kernel_of(F2, (1, 1, 1), 4)
    b = kernel_of(F2, (1, 0, 1), 4)
    code = GrassmannianCode(F2, 4, [b, a, a])
    assert code.duplicates_removed == 1
    keys = [s.sort_key() for s in code.codewords]
    assert keys == sorted(keys)
    assert code.constant_dim == 2


# every row format: XOR (GF(2), GF(2^2), GF(2^3)), byte (GF(3), GF(13)) and
# per-entry lanes (GF(17), GF(3^2)); GF(2) and the byte lanes key without unpacking
KEY_FIELDS = [F2, GF(2, 2), GF(2, 3), F3, GF(13), GF(17), GF(3, 2)]


@pytest.mark.parametrize("field", KEY_FIELDS, ids=str)
def test_codeword_order_is_sort_key_order(field):
    # mixed dimensions, zero subspaces and duplicates: the entry sequence
    # orders and merges codewords exactly as their unpacked sort keys do
    rng = random.Random(field.q)
    for _ in range(25):
        n = rng.randint(0, 6)
        subs = [random_subspace(field, n, rng, max_rows=n) for _ in range(rng.randint(1, 10))]
        subs += [Subspace(field, n)] + rng.choices(subs, k=3)
        rng.shuffle(subs)
        code = GrassmannianCode(field, n, subs)
        expected = sorted({s.sort_key() for s in subs})
        assert [s.sort_key() for s in code] == expected
        assert code.duplicates_removed == len(subs) - len(expected)
        for a, b in itertools.combinations(subs, 2):
            ka, kb = a.entries(), b.entries()
            assert (ka < kb, ka == kb) == (a.sort_key() < b.sort_key(), a == b)
        for s in subs:
            flat = [c for row in s.sort_key() for c in row]
            if field.q == 2:  # each row's binary digits, lane 0 first, joined
                assert s.entries() == "".join(f"{row:0{n}b}"[::-1] for row in s._echelon.rows)
            assert list(s.entries()) == (list(map(str, flat)) if field.q == 2 else flat)


def test_json_round_trip_exact():
    code = coprime_pair_code()
    blob = json.dumps(code.to_json(), sort_keys=True)
    back = GrassmannianCode.from_json(json.loads(blob))
    assert back.to_json() == code.to_json()
    assert json.dumps(back.to_json(), sort_keys=True) == blob
    assert list(back.codewords) == list(code.codewords)


# -- the pairwise table: shared pivots against the stacked route ------------------------

TABLE_FIELDS = [F2, F3, GF(2, 2), GF(13), GF(17), GF(2, 3), GF(3, 2), GF(257)]


def stacked_table(code):
    words = code.codewords
    return tuple(
        tuple(a.dim + b.dim - _joint_rank(a, b._echelon.rows) for b in words[:i])
        for i, a in enumerate(words)
    )


def oracle_table(code):
    field, words = code.field, code.codewords

    def rank(rows):
        if field.m == 1:
            return oracles.rank_over_q(rows, field.p)
        return oracles.rank_over_gfq(rows, field.p, field.modulus.to_codes())

    return tuple(
        tuple(a.dim + b.dim - rank(a.basis.rows + b.basis.rows) for b in words[:i])
        for i, a in enumerate(words)
    )


def rref_rows(field, n, pivots, rng):
    """Random RREF rows with these pivot columns."""
    rows = []
    for c in pivots:
        row = [0] * n
        row[c] = 1
        for j in range(c + 1, n):
            if j not in pivots:
                row[j] = rng.randrange(field.q)
        rows.append(row)
    return rows


def shared_pivot_inputs(field, n, pivots, rng, count):
    """Bases of codewords with one pivot set: some take rows of an earlier one
    (pairs whose blocks tie on those rows), and two more bases span earlier
    codewords again, rows reversed and mixed, so they collapse onto them."""
    inputs = []
    for _ in range(count):
        rows = rref_rows(field, n, pivots, rng)
        if inputs and rng.random() < 0.5:
            other = rng.choice(inputs)
            for i in rng.sample(range(len(pivots)), rng.randint(1, len(pivots))):
                rows[i] = other[i]
        inputs.append(rows)
    for rows in rng.sample(inputs, 2):
        rows = rows[::-1]
        if len(rows) > 1:
            rows[0] = [field.add(x, y) for x, y in zip(rows[0], rows[1])]
        inputs.append(rows)
    return inputs


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(subspaces, name)
    monkeypatch.setattr(subspaces, name, lambda *a: calls.append(1) or original(*a))
    return calls


def pivot_sets(code):
    return {tuple(row.index(1) for row in s.basis.rows) for s in code}


def walks(code):
    """The route rule, restated: one pivot set of size k, and at most
    c k (N - 1)/2 projective coefficient vectors, (q^k - 1)/(q - 1), where c
    is 1 on the per-entry row format and 4 on the packed ones."""
    q, k, size = code.field.q, code[0].dim, len(code)
    c = 4 if code.field.format.wide else 1
    return len(pivot_sets(code)) == 1 and (q**k - 1) // (q - 1) <= c * k * (size - 1) / 2


def check_table(code, monkeypatch):
    """The table equals the stacked route's and the oracle's, and comes from
    the route the rule names: one walk and no elimination, or one
    elimination per pair and no walk."""
    want = stacked_table(code)
    assert want == oracle_table(code)
    walked = count_calls(monkeypatch, "_shared_pivot_table")
    pairs = count_calls(monkeypatch, "_joint_rank")
    assert code.pairwise_intersection_dims() == want
    size = len(code)
    if walks(code):
        assert (len(walked), len(pairs)) == (1, 0)
    else:
        assert (len(walked), len(pairs)) == (0, size * (size - 1) // 2)
    monkeypatch.undo()


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=lambda f: f.spec)
def test_shared_pivot_table_matches_stacked_route(field, monkeypatch):
    rng = random.Random(f"shared pivots over GF({field.spec})")

    def check(n, pivots):
        k = len(pivots)
        inputs = shared_pivot_inputs(field, n, pivots, rng, rng.randint(2, 7))
        code = GrassmannianCode(field, n, [Subspace(field, n, r) for r in inputs])
        assert code.duplicates_removed >= 2
        assert pivot_sets(code) == {tuple(pivots)}
        check_table(code, monkeypatch)

    for _ in range(12):
        k = rng.randint(1, 4)
        n = k + rng.randint(1, 4)
        other = sorted(rng.sample(range(n), k))
        if other == list(range(k)):
            other = list(range(n - k, n))
        # the lifted [I | M] form, and one other pivot set
        for pivots in (list(range(k)), other):
            check(n, pivots)
    # k up to 8, k (n - k) lanes past 64 and 256 bits; and pivots 0..k-2 and
    # n - 1, whose gap at column k - 1 lies below the last pivot
    for k, bits in ((2, 0), (3, 0), (6, 64), (8, 256)):
        n = k + max(2, bits // (k * field.width) + 1)
        assert k * (n - k) * field.width > bits
        for pivots in (list(range(k)), [*range(k - 1), n - 1]):
            check(n, pivots)


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=lambda f: f.spec)
def test_walked_table_matches_stacked_and_oracle_tables(field):
    # lane widths 1, 2, 3, 4, 5, 8 and 9 bits: a block must be whole lanes
    # and whole bytes, and a step over GF(p^m) runs through all of GF(p)^m
    rng = random.Random(f"walked table over GF({field.spec})")
    # at most 300 vectors per leading row, so the walk stays quick
    top = max(k for k in range(1, 6) if field.q ** (k - 1) <= 300)

    def check(code):
        want = stacked_table(code)
        assert len(pivot_sets(code)) == 1
        assert subspaces._shared_pivot_table(code.block_layout()) == want == oracle_table(code)
        return want

    for _ in range(10):
        k = rng.randint(1, top)
        n = k + rng.randint(1, 5)
        spread = sorted(rng.sample(range(n), k))
        for pivots in (list(range(k)), spread, [*range(k - 1), n - 1]):
            inputs = shared_pivot_inputs(field, n, pivots, rng, rng.randint(2, 9))
            check(GrassmannianCode(field, n, [Subspace(field, n, r) for r in inputs]))
    # CA codes whose every pair meets: t = deg g >= 1, a sample of the members
    for k in range(2, max(top, 2) + 1):
        for t in range(1, k):
            g = Polynomial.from_codes(field, [rng.randrange(1, field.q)] * t + [1])
            members = families.uniform_gcd_family(k, g)[0]
            members = rng.sample(members, min(len(members), 10))
            if len(members) > 1:
                code = families.code_from_family(families.CAFamily(members))
                assert all(0 < d for row in check(code) for d in row)
    # a zero-dimensional codeword: alone it walks no vector, beside others
    # its pivot set differs
    zero = Subspace(field, 4)
    assert subspaces._shared_pivot_table(subspaces._BlockLayout([zero])) == ((),)
    assert GrassmannianCode(field, 4, [zero]).pairwise_intersection_dims() == ((),)
    lines = [Subspace(field, 4, [r]) for r in ((1, 2, 3, 1), (1, 1, 0, 0))]
    code = GrassmannianCode(field, 4, [zero, *lines])
    assert code.pairwise_intersection_dims() == stacked_table(code) == oracle_table(code)


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=lambda f: f.spec)
def test_block_layout_meets_each_codeword_as_the_oracle_does(field):
    # dim(C_i intersect U) for every codeword off one walk over U's residues,
    # against the oracle's ranks: lifted [I | M] pivots, spread pivots and
    # pivots past column 0 (whose leading entries lie in no codeword); U the
    # zero space, the whole ambient space, inside a codeword, through several
    # codewords, and random
    rng = random.Random(f"meets over GF({field.spec})")
    top = max(d for d in range(1, 4) if field.q ** (d - 1) <= 300)  # walks of <= 300 steps

    def rank(rows):
        if field.m == 1:
            return oracles.rank_over_q(rows, field.p)
        return oracles.rank_over_gfq(rows, field.p, field.modulus.to_codes())

    def some_of(word, dim):
        combos = [[rng.randrange(field.q) for _ in range(word.dim)] for _ in range(dim)]
        return [word.combination(c) for c in combos]

    seen = set()
    for _ in range(6):
        k = rng.randint(1, 3)
        n = k + rng.randint(1, 3)
        spread = sorted(rng.sample(range(n), k))
        for pivots in (list(range(k)), spread, list(range(n - k, n))):
            inputs = shared_pivot_inputs(field, n, pivots, rng, rng.randint(2, 6))
            code = GrassmannianCode(field, n, [Subspace(field, n, r) for r in inputs])
            words, layout = code.codewords, code.block_layout()
            several = [w.basis.rows[0] for w in rng.sample(words, min(2, len(words)))]
            cases = [Subspace(field, n), Subspace(field, n, some_of(rng.choice(words), top)),
                     Subspace(field, n, several)]
            cases += [random_subspace(field, n, rng, max_rows=top) for _ in range(3)]
            if field.q ** (n - 1) <= 300:
                whole = [[int(i == j) for j in range(n)] for i in range(n)]
                cases.append(Subspace(field, n, whole))
            for U in cases:
                want = [w.dim + U.dim - rank(w.basis.rows + U.basis.rows) for w in words]
                assert layout.meets(U._echelon.rows) == want
                seen.update((U.dim, m) for m in want if m == U.dim)
    assert (0, 0) in seen and any(d > 0 for d, _ in seen)


# (field, k, lanes, block bytes): lifts [I_k | M] of GF(q)^(k + lanes), whose
# blocks hold M's lanes only.  One case per block size the key view reads:
# 1 byte as the step's bytes, 2, 4 and 8 as machine integers, 3, 5 and 6
# split; GF(2) at k <= 8 and at k = 9..16 (n = 2k), and over GF(2^2),
# GF(2^3), GF(3) and GF(5)
KEY_CASES = [
    (F2, 5, 5, 1), (F2, 8, 8, 1), (F2, 9, 9, 2), (F2, 13, 13, 2), (F2, 16, 16, 2),
    (F2, 3, 24, 3), (F2, 4, 32, 4), (F2, 3, 40, 5), (F2, 4, 64, 8),
    (GF(2, 2), 3, 4, 1), (GF(2, 2), 4, 8, 2), (GF(2, 2), 2, 12, 3), (GF(2, 2), 3, 16, 4),
    (GF(2, 2), 2, 20, 5), (GF(2, 2), 3, 32, 8),
    (GF(2, 3), 3, 8, 3), (GF(2, 3), 2, 16, 6),
    (F3, 4, 1, 1), (F3, 3, 2, 2), (F3, 4, 3, 3), (F3, 3, 4, 4), (F3, 3, 5, 5), (F3, 4, 8, 8),
    (GF(5), 3, 1, 1), (GF(5), 3, 2, 2), (GF(5), 2, 3, 3), (GF(5), 3, 4, 4), (GF(5), 2, 5, 5),
    (GF(5), 3, 8, 8),
]


def planted_lifts(field, k, lanes, rng):
    """Codes of lifts [I_k | M_i] whose blocks coincide by plan, k >= 2:
    random M_i with two near twins of M_0, one other only in the top lane of
    one row and one only in lane 0; a sunflower, every M_i sharing its first
    t rows; interleaved groups, M_i sharing row 0 with i mod 3 and row 1 with
    i mod 2, so several groups coincide at one step; and pairs sharing row 0,
    tied groups of two."""
    q, n = field.q, k + lanes

    def row():
        return [rng.randrange(q) for _ in range(lanes)]

    def lifts(ms):
        unit = [[int(i == j) for i in range(k)] for j in range(k)]
        return GrassmannianCode(field, n, [Subspace(field, n, [e + r for e, r in zip(unit, m)])
                                           for m in ms])

    random_ms = [[row() for _ in range(k)] for _ in range(6)]
    for lane in (lanes - 1, 0):
        twin, r = [list(x) for x in random_ms[0]], rng.randrange(k)
        twin[r][lane] = rng.choice([v for v in range(q) if v != twin[r][lane]])
        random_ms.append(twin)
    core = [row() for _ in range(rng.randint(1, k - 1))]
    values = [row() for _ in range(9)]
    return [
        lifts(random_ms),
        lifts([core + [row() for _ in range(k - len(core))] for _ in range(6)]),
        lifts([[values[i % 3], values[3 + i % 2], *[row() for _ in range(k - 2)]]
               for i in range(9)]),
        lifts([[values[5 + i // 2], *[row() for _ in range(k - 1)]] for i in range(8)]),
    ]


@pytest.mark.parametrize("field, k, lanes, block", KEY_CASES, ids=str)
def test_keyed_walks_pair_and_meet_as_the_stacked_route_does(field, k, lanes, block):
    # the table and dim(C_i intersect U) off the blocks' keys, against each
    # pair's and each codeword's stacked elimination (``_joint_rank``), where
    # blocks coincide by plan; U inside one codeword, through the rows a
    # group shares, across the near twins, and random
    rng = random.Random(f"keyed walks over GF({field.spec}) {k} {lanes}")
    for code in planted_lifts(field, k, lanes, rng):
        words, layout = code.codewords, code.block_layout()
        assert len(words) > 1 and layout.block == block
        assert subspaces._shared_pivot_table(layout) == stacked_table(code)
        n, ones = code.ambient_n, [1] * k
        cases = [Subspace(field, n, rows) for rows in (
            words[0].basis.rows[:2],  # inside one codeword
            [w.basis.rows[0] for w in words[:3]],  # the row 0 a group may share
            [words[0].combination(ones), words[1].combination(ones)],
            [rng.choice(words).combination([rng.randrange(field.q) for _ in range(k)])],
        )]
        cases += [random_subspace(field, n, rng, max_rows=3) for _ in range(2)]
        for U in cases:
            rows = U._echelon.rows
            assert layout.meets(rows) == [w.dim + U.dim - _joint_rank(w, rows) for w in words]


@pytest.mark.parametrize("field", TABLE_FIELDS, ids=lambda f: f.spec)
def test_mixed_pivot_table_takes_the_stacked_route(field, monkeypatch):
    rng = random.Random(f"mixed pivots over GF({field.spec})")
    for trial in range(12):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        lifted = [Subspace(field, n, rref_rows(field, n, range(k), rng)) for _ in range(3)]
        if trial % 2:  # mixed dimensions: one more codeword of another dimension
            extra = Subspace(field, n, rref_rows(field, n, range(k + 1), rng))
        else:  # one dimension, another pivot set
            extra = Subspace(field, n, rref_rows(field, n, range(n - k, n), rng))
        words = lifted + [extra, random_subspace(field, n, rng, max_rows=n)]
        code = GrassmannianCode(field, n, words)
        assert len(pivot_sets(code)) > 1
        check_table(code, monkeypatch)


def test_high_degree_pair_takes_the_stacked_route(monkeypatch):
    # two rules of GF(2) k = 20 that share a degree-18 factor: 2^20 - 1
    # vectors to walk for a single pair
    g = Polynomial.from_codes(F2, [1, 1] + [0] * 16 + [1])
    code = families.code_from_family(families.CAFamily(families.uniform_gcd_family(20, g)[0]))
    assert len(code) == 2 and not walks(code)
    check_table(code, monkeypatch)
    assert code.pairwise_intersection_dims() == ((), (18,))


def test_sixty_lifts_over_a_large_field_take_the_stacked_route(monkeypatch):
    field = GF(257)
    rng = random.Random("sixty lifts")
    lifts = [Subspace(field, 6, rref_rows(field, 6, range(3), rng)) for _ in range(60)]
    code = GrassmannianCode(field, 6, lifts)
    assert len(code) == 60 and not walks(code)
    check_table(code, monkeypatch)


@pytest.mark.parametrize("field, k, size", [(GF(3, 2), 3, 20), (GF(257), 2, 66)], ids=str)
def test_lifts_over_a_per_entry_field_take_the_stacked_route(field, k, size, monkeypatch):
    # (q^k - 1)/(q - 1) lies within 2k(N - 1), the packed formats' bound, but
    # past k(N - 1)/2: each walk step would unpack all N codewords lane by lane
    rng = random.Random(f"per-entry lifts over GF({field.spec})")
    n, vectors = 2 * k, (field.q**k - 1) // (field.q - 1)
    code = GrassmannianCode(field, n, [
        Subspace(field, n, rref_rows(field, n, range(k), rng)) for _ in range(size)
    ])
    assert len(code) == size and k * (size - 1) / 2 < vectors <= 2 * k * (size - 1)
    assert not field.format.wide and not walks(code)
    check_table(code, monkeypatch)


# one field per lane width: 1, 2, 3, 5 and 8 bits
BLOCK_FIELDS = [F2, GF(2, 2), GF(2, 3), GF(17), GF(5)]


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_blocks_are_the_least_whole_lanes_and_bytes_and_round_trip(field):
    # a block is the fewest bytes that are also whole lanes and hold them
    # all; row i goes into block i and comes back out of it alone
    rng, w = random.Random(f"blocks over GF({field.spec})"), field.width
    for lanes in (1, 2, 5, 9):
        for size in (1, 2, 7):
            blocks = subspaces._Blocks(w, lanes, size)
            assert blocks.block * 8 % w == 0 and blocks.block * 8 >= lanes * w
            assert all(b * 8 % w or b * 8 < lanes * w for b in range(blocks.block))
            assert blocks.size == size and blocks.length == size * blocks.block
            assert blocks.ones == sum(1 << 8 * blocks.block * i for i in range(size))
            for rows in ([0] * size, [(1 << lanes * w) - 1] * size,
                         [rng.getrandbits(lanes * w) for _ in range(size)]):
                wide = blocks.join(rows)
                assert wide < 1 << 8 * blocks.length
                parts = blocks.split(wide.to_bytes(blocks.length, "little"))
                assert [int.from_bytes(b, "little") for b in parts] == rows


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_blocks_masks_hold_every_block_of_each_value(field):
    # against a block-by-block reference: value v maps to all the bits of
    # each block whose entry is v, and to none of any other block
    rng = random.Random(f"block masks over GF({field.spec})")
    for lanes, size in ((1, 1), (3, 2), (4, 7), (2, 40)):
        blocks = subspaces._Blocks(field.width, lanes, size)
        full = (1 << 8 * blocks.block) - 1
        columns = [[rng.randrange(field.q) for _ in range(size)] for _ in range(4)]
        columns += [[0] * size, [1] * size, [0] * (size - 1) + [field.q - 1]]
        got = blocks.masks(columns)
        assert len(got) == len(columns)
        for column, held in zip(columns, got):
            assert set(held) == set(column) - {0}
            for v, where in held.items():
                want = [full << 8 * blocks.block * i for i, x in enumerate(column) if x == v]
                assert where == sum(want)


def test_a_walk_fits_its_budget_to_the_step():
    # (q^d - 1)/(q - 1) steps fit a budget of exactly that many, and not one fewer
    fits = subspaces._BlockLayout.fits
    for q in (2, 3, 4, 5, 9, 17, 2**31 - 1):
        assert fits(q, 0, 0)
        for d in range(1, 12):
            steps = (q**d - 1) // (q - 1)
            assert fits(q, d, steps) and fits(q, d, steps + 1)
            assert not fits(q, d, steps - 1)
    assert not fits(2, 1000, 2**999)


def test_a_long_lift_over_a_large_prime_takes_the_stacked_route(monkeypatch):
    # (q^k - 1)/(q - 1) has 31,000 bits here: the rule compares bit lengths
    # first.  The rows go in packed, already an RREF: [I | 0] and one lane of
    # column k set in row 0
    field, k = GF(2**31 - 1), 1000
    rows = [1 << i * field.width for i in range(k)]
    other = [rows[0] | 5 << k * field.width, *rows[1:]]
    pivots = range(0, k * field.width, field.width)
    code = GrassmannianCode(field, k + 1, [
        Subspace.from_echelon(Echelon.from_rref(field, k + 1, r, pivots), reduced=True)
        for r in (rows, other)
    ])
    walked = count_calls(monkeypatch, "_shared_pivot_table")
    pairs = count_calls(monkeypatch, "_joint_rank")
    assert code.pairwise_intersection_dims() == ((), (k - 1,))
    assert (len(walked), len(pairs)) == (0, 1)
