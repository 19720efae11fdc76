"""Linear CA: rule validation, transition matrices, LFSR preimages, kernels."""

import itertools
import json
import random

import pytest

from cacodes.algebra import GF, Polynomial
from cacodes.ca import LinearCA, LinearRule, kernel_rule, kernel_rules, kernels
from cacodes.channel import ChannelConfig, transmit
from cacodes.errors import (
    AmbientMismatch,
    DegreeZero,
    LengthMismatch,
    NotBipermutive,
    SeedLengthMismatch,
)
from cacodes import subspaces
from cacodes.families import CAFamily, code_from_family, uniform_gcd_family
from cacodes.subspaces import MAX_AMBIENT_N, GrassmannianCode, Subspace

import oracles

F2 = GF(2)
F3 = GF(3)
# every row format: XOR lanes (GF(2), GF(2^2)), byte lanes (GF(3)) and
# per-entry lanes (GF(3^2), GF(17))
CA_FIELDS = (F2, F3, GF(2, 2), GF(3, 2), GF(17))


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def modulus(field):
    """The oracles' description of a field: None for GF(p), else its modulus."""
    return None if field.m == 1 else field.modulus.to_codes()


def all_rules(field, k):
    """Every valid rule polynomial of degree k: monic, nonzero constant term."""
    out = []
    for mid in itertools.product(range(field.q), repeat=k - 1):
        for a0 in range(1, field.q):
            out.append(Polynomial.from_codes(field, (a0,) + mid + (1,)))
    return out


def some_rules(field, k, rng, limit=60):
    """Every valid rule of degree k, or ``limit`` of them at random if there are more."""
    rules = all_rules(field, k)
    return rules if len(rules) <= limit else rng.sample(rules, limit)


def some_seeds(field, k, rng, limit=30):
    """Every k-cell seed, or ``limit`` random ones if there are more."""
    if field.q**k <= limit:
        return list(itertools.product(range(field.q), repeat=k))
    return [tuple(rng.randrange(field.q) for _ in range(k)) for _ in range(limit)]


# -- rule validation -----------------------------------------------------------------


def test_smallest_rule():
    rule = LinearRule(P(F2, 1, 1))
    assert rule.k == 1
    assert rule.diameter == 2


def test_zero_constant_term_rejected():
    with pytest.raises(NotBipermutive):
        LinearRule(P(F2, 0, 1, 1))


def test_quadratic_rule():
    rule = LinearRule(P(F2, 1, 1, 1))
    assert rule.k == 2
    assert rule.diameter == 3


def test_constant_and_zero_rejected():
    with pytest.raises(DegreeZero):
        LinearRule(P(F2, 1))
    with pytest.raises(DegreeZero):
        LinearRule(Polynomial(F2))


def test_nonmonic_rejected_with_explicit_helper():
    f = P(F3, 2, 2)
    with pytest.raises(NotBipermutive):
        LinearRule(f)
    g = f.monic()
    assert g.to_codes() == (1, 1)
    LinearRule(g)


def test_lattice_shorter_than_diameter():
    with pytest.raises(LengthMismatch):
        LinearCA(P(F2, 1, 1, 1), 2)


# -- transition matrix ----------------------------------------------------------------


def test_transition_matrix_single_row():
    assert LinearCA(P(F2, 1, 1), 2).transition_matrix().rows == ((1, 1),)


def test_transition_matrix_banded_shape():
    m = LinearCA(P(F2, 1, 1, 1), 4).transition_matrix()
    assert m.rows == ((1, 1, 1, 0), (0, 1, 1, 1))


def test_transition_matrix_full_rank_sweep():
    for field in (F2, F3):
        for k in (1, 2, 3):
            for rule in all_rules(field, k):
                for n in range(k + 1, 9):
                    m = LinearCA(rule, n).transition_matrix()
                    assert m.shape == (n - k, n)
                    assert m.rank() == n - k


# -- evaluation ---------------------------------------------------------------------------


def test_eval_examples():
    assert LinearCA(P(F2, 1, 1), 2)((1, 1)) == (0,)
    assert LinearCA(P(F2, 1, 1, 1), 4)((0, 0, 0, 0)) == (0, 0)
    assert LinearCA(P(F2, 1, 1, 1), 4)((1, 0, 1, 1)) == (0, 0)


def test_eval_length_mismatch():
    with pytest.raises(LengthMismatch):
        LinearCA(P(F2, 1, 1), 4)((1, 0))


def test_eval_equals_matrix_action():
    rng = random.Random(5)
    for field in CA_FIELDS:
        for _ in range(60):
            k = rng.randint(1, 3)
            rule = Polynomial.from_codes(
                field,
                [rng.randrange(1, field.q)]
                + [rng.randrange(field.q) for _ in range(k - 1)]
                + [1],
            )
            n = rng.randint(k + 1, 8)
            ca = LinearCA(rule, n)
            x = [rng.randrange(field.q) for _ in range(n)]
            rows = ca.transition_matrix().rows
            assert ca(x) == oracles.matvec(rows, x, field.p, modulus(field))


def test_linearity():
    rng = random.Random(17)
    ca = LinearCA(P(F3, 2, 0, 1), 6)
    gf = F3
    for _ in range(50):
        x = [rng.randrange(3) for _ in range(6)]
        y = [rng.randrange(3) for _ in range(6)]
        a, b = rng.randrange(3), rng.randrange(3)
        combo = [gf.add(gf.mul(a, xi), gf.mul(b, yi)) for xi, yi in zip(x, y)]
        fx, fy = ca(x), ca(y)
        expect = tuple(
            gf.add(gf.mul(a, u), gf.mul(b, v)) for u, v in zip(fx, fy)
        )
        assert ca(combo) == expect


# -- LFSR preimages -------------------------------------------------------------------------


def test_preimage_hand_oracle():
    ca = LinearCA(P(F2, 1, 1, 1), 4)
    assert ca.lfsr_preimage((1, 0)) == (1, 0, 1, 1)
    assert ca.lfsr_preimage((0, 1)) == (0, 1, 1, 0)


def test_preimage_zero_seed():
    ca = LinearCA(P(F3, 1, 2, 1), 7)
    assert ca.lfsr_preimage((0, 0)) == (0,) * 7


def test_preimage_alternating_f3():
    ca = LinearCA(P(F3, 1, 1), 3)
    assert ca.lfsr_preimage((1,)) == (1, 2, 1)


def test_preimage_seed_length():
    with pytest.raises(SeedLengthMismatch):
        LinearCA(P(F2, 1, 1, 1), 4).lfsr_preimage((1, 0, 0))


def test_preimages_lie_in_kernel():
    rng = random.Random(7)
    for field in CA_FIELDS:
        for k in (1, 2, 3):
            for rule in some_rules(field, k, rng):
                ca = LinearCA(rule, 2 * k if 2 * k > k else k + 1)
                for seed in some_seeds(field, k, rng):
                    x = ca.lfsr_preimage(seed)
                    assert ca(x) == (0,) * (ca.n - k)
                    assert x[:k] == seed


# -- kernels --------------------------------------------------------------------------------------


def test_kernel_smallest():
    kern = LinearCA(P(F2, 1, 1), 2).kernel()
    assert kern.dim == 1
    assert kern.basis.rows == ((1, 1),)


def test_kernel_quadratic_contains_unit_preimages():
    kern = LinearCA(P(F2, 1, 1, 1), 4).kernel()
    assert kern.dim == 2
    assert Subspace(F2, 4, [(1, 0, 1, 1)]) <= kern
    assert Subspace(F2, 4, [(0, 1, 1, 0)]) <= kern


def test_kernel_matches_enumeration_oracle():
    for p in (2, 3):
        field = GF(p)
        for k in (1, 2):
            for rule in all_rules(field, k):
                n = 2 * k
                kern = LinearCA(rule, n).kernel()
                brute = oracles.kernel_set(rule.to_codes(), n, p)
                assert len(brute) == p**k
                spanned = oracles.span_set(kern.basis.rows, n, p)
                assert spanned == brute


def test_kernel_agrees_with_nullspace_route():
    # a subspace is its packed RREF: every construction of one span compares
    # equal, hashes alike and gives one sort key and one basis, while the
    # kernels of distinct rules (or degrees) at one length all differ
    rng = random.Random(11)
    for field in CA_FIELDS:
        kernels = {}
        for k in (1, 2, 3):
            for rule in some_rules(field, k, rng):
                for n in sorted({k + 1, 2 * k, 2 * k + 1}):
                    ca = LinearCA(rule, n)
                    via_lfsr = ca.kernel()
                    via_null = Subspace.from_matrix(
                        ca.transition_matrix().nullspace_basis()
                    )
                    mixed = [via_lfsr.combination([rng.randrange(field.q) for _ in range(k)])]
                    via_init = Subspace(field, n, mixed + list(via_lfsr.basis.rows[::-1]))
                    document = json.loads(json.dumps(via_init.to_json()))
                    via_json = Subspace.from_json(field, n, document)
                    via_channel = transmit(via_null, ChannelConfig(seed=rng.randrange(99)), 0)
                    spans = [via_lfsr, via_null, via_init, via_json, via_channel]
                    assert all(s == via_lfsr for s in spans)
                    assert {hash(s) for s in spans} == {hash(via_lfsr)}
                    assert {s.sort_key() for s in spans} == {via_lfsr.sort_key()}
                    assert {s.basis for s in spans} == {via_lfsr.basis}
                    assert via_lfsr.dim == k
                    kernels.setdefault(n, []).append(via_lfsr)
        for same_length in kernels.values():
            assert all(a != b for a, b in itertools.combinations(same_length, 2))
            assert len(set(same_length)) == len(same_length)


# every row format, with the widest lanes of each: GF(2^3) XOR, GF(13) byte
KERNEL_FIELDS = (*CA_FIELDS, GF(2, 3), GF(13))


def test_kernel_rows_are_the_null_space_rref():
    # the kernel's rows go into its subspace as they are, with no elimination:
    # they must be the RREF of the transition matrix's null space, pivots too
    rng = random.Random(16)
    for field in KERNEL_FIELDS:
        for k in (1, 2, 3):
            for rule in some_rules(field, k, rng, limit=6):
                for n in (k + 1, 2 * k, 3 * k + 2):
                    ca = LinearCA(rule, n)
                    kernel = ca.kernel()
                    null = Subspace.from_matrix(ca.transition_matrix().nullspace_basis())
                    assert kernel == null and kernel.basis == null.basis
                    assert kernel._echelon.pivots == null._echelon.pivots == list(range(k))
                    if field.m == 1 and field.q**n <= 4096:
                        brute = oracles.kernel_set(rule.to_codes(), n, field.p)
                        assert oracles.span_set(kernel.basis.rows, n, field.p) == brute
                assert kernel_rule(LinearCA(rule, 2 * k).kernel()) == rule


def rule_family(field, k, rng, size):
    """``size`` rules of degree k: products of a few shared factors, squares
    and cubes among them, random rules and repeats."""
    atoms = [f for f in some_rules(field, 1, rng, 4) + some_rules(field, 2, rng, 4) if f.degree <= k]
    out = []
    while len(out) < size:
        kind = rng.randrange(4)
        if kind == 0 and out:
            out.append(rng.choice(out))
        elif kind == 1:
            f = Polynomial.from_codes(field, [rng.randrange(1, field.q)] + [
                rng.randrange(field.q) for _ in range(k - 1)] + [1])
            out.append(f)
        else:
            f = Polynomial.from_codes(field, (1,))
            while f.degree < k:
                a = rng.choice([a for a in atoms if f.degree + a.degree <= k])
                power = rng.choice([1, 2, 3])
                f = f * a**power if f.degree + power * a.degree <= k else f * a
            out.append(f)
    return out


@pytest.mark.parametrize("size", [1, 7, 300])
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernels_are_each_rules_null_space(field, size):
    # every rule's recurrence in one wide row: each kernel must be the RREF
    # of its transition matrix's null space, rows and pivots alike
    rng = random.Random(f"kernels {field.spec} {size}")
    for k in (1, 2, 3, 4):
        rules = rule_family(field, k, rng, size)
        for n in sorted({k + 1, 2 * k, 2 * k + 3}):
            found = kernels(rules, n)
            assert len(found) == len(rules)
            for rule, kernel in zip(rules, found):
                null = Subspace.from_matrix(LinearCA(rule, n).transition_matrix().nullspace_basis())
                assert kernel._echelon.rows == null._echelon.rows
                assert kernel._echelon.pivots == null._echelon.pivots == list(range(k))
                assert kernel == null and hash(kernel) == hash(null)


def test_kernels_take_one_field_one_degree_and_a_length_past_it():
    f, g = Polynomial.from_codes(F2, [1, 1, 1]), Polynomial.from_codes(F2, [1, 1])
    assert kernels([], 4) == []
    with pytest.raises(AmbientMismatch):
        kernels([f, g], 4)
    with pytest.raises(AmbientMismatch):
        kernels([f, Polynomial.from_codes(F3, [1, 1, 1])], 4)
    for n in (2, MAX_AMBIENT_N + 1):
        with pytest.raises(LengthMismatch):
            kernels([f], n)


@pytest.mark.parametrize("field", CA_FIELDS, ids=str)
def test_kernels_join_every_rule_exactly_on_a_wide_format(field, monkeypatch):
    # a packed format runs every rule in one group of blocks, joined once;
    # the per-entry one runs each rule alone, in a group of one
    sizes, joins = [], []
    init, join = subspaces._Blocks.__init__, subspaces._Blocks.join
    monkeypatch.setattr(subspaces._Blocks, "__init__", lambda self, w, lanes, size:
                        sizes.append(size) or init(self, w, lanes, size))
    monkeypatch.setattr(subspaces._Blocks, "join", lambda self, rows:
                        joins.append(len(rows)) or join(self, rows))
    rules = some_rules(field, 3, random.Random(f"groups over GF({field.spec})"), limit=12)
    found = kernels(rules, 6)
    packed = field.p == 2 or field.m == 1 and field.p <= 13
    assert sizes == [len(rules) if packed else 1]
    assert joins == ([len(rules)] if packed else [1] * len(rules))
    monkeypatch.undo()
    assert found == [LinearCA(f, 6).kernel() for f in rules]  # each rule alone


def test_annihilates_exactly_the_subspaces_of_the_kernel():
    # the whole basis goes through the CA in one packed row, configurations
    # side by side; each must come out as the CA of that configuration alone
    rng = random.Random(12)
    for field in CA_FIELDS:
        for k in (1, 2, 3):
            for rule in some_rules(field, k, rng):
                n = 2 * k + rng.randint(0, 2)
                ca = LinearCA(rule, n)
                kernel = ca.kernel()
                assert ca.annihilates(kernel) and ca.annihilates(Subspace(field, n))
                for extra in range(4):  # a kernel vector, and `extra` random ones
                    rows = [kernel.combination([rng.randrange(field.q) for _ in range(k)])]
                    rows += [[rng.randrange(field.q) for _ in range(n)] for _ in range(extra)]
                    sub = Subspace(field, n, rows)
                    inside = not any(any(ca(row)) for row in sub.basis.rows)
                    assert ca.annihilates(sub) is inside is (sub <= kernel)
                with pytest.raises(AmbientMismatch):
                    ca.annihilates(Subspace(field, n + 1))


# -- reading a rule back off its kernel -------------------------------------------------


def lift(field, m):
    """The row space of [I_k | M], M given as k rows of k codes."""
    k = len(m)
    rows = [(0,) * j + (1,) + (0,) * (k - j - 1) + tuple(r) for j, r in enumerate(m)]
    return Subspace(field, 2 * k, rows)


def test_kernel_rule_reads_back_the_rule():
    rng = random.Random(13)
    for field in CA_FIELDS:
        for k in (1, 2, 3, 4):
            for f in some_rules(field, k, rng, limit=8):
                assert kernel_rule(LinearCA(f, 2 * k).kernel()) == f


def test_kernel_rule_accepts_a_lift_only_when_it_is_a_kernel():
    # a random [I_k | M] is a kernel exactly when it equals the kernel of the
    # rule its column k spells, checked here by comparing the two subspaces
    rng = random.Random(14)
    for field in CA_FIELDS:
        for k in (1, 2, 3, 4):
            for _ in range(8):
                m = [[rng.randrange(field.q) for _ in range(k)] for _ in range(k)]
                sub = lift(field, m)
                column = [field.neg(r[0]) for r in m]
                f = Polynomial.from_codes(field, column + [1])
                is_kernel = column[0] != 0 and LinearCA(f, 2 * k).kernel() == sub
                assert kernel_rule(sub) == (f if is_kernel else None)
            if k >= 2:
                # a kernel with one entry past column k changed: column k
                # still spells its rule, but no rule has this kernel
                for f in some_rules(field, k, rng, limit=4):
                    m = [list(r[k:]) for r in LinearCA(f, 2 * k).kernel().basis.rows]
                    i, j = rng.randrange(k), rng.randrange(1, k)
                    m[i][j] = (m[i][j] + 1) % field.q
                    assert kernel_rule(lift(field, m)) is None


def test_kernel_rule_of_no_kernel_is_none():
    rng = random.Random(15)
    for field in CA_FIELDS:
        for k in (1, 2, 3):
            (f,) = some_rules(field, k, rng, limit=1)
            # other pivots: the last k unit vectors, and a kernel moved one cell along
            units = [(0,) * (k + j) + (1,) + (0,) * (k - j - 1) for j in range(k)]
            shifted = [(0,) + r[:-1] for r in LinearCA(f, 2 * k).kernel().basis.rows]
            subs = [Subspace(field, 2 * k, units), Subspace(field, 2 * k, shifted)]
            # n != 2 dim, and the zero subspace
            subs += [LinearCA(f, n).kernel() for n in (2 * k - 1, 2 * k + 1) if n > k]
            subs += [Subspace(field, 0), Subspace(field, 2 * k)]
            assert [kernel_rule(sub) for sub in subs] == [None] * len(subs)
            # column k spells a rule with a zero constant term
            m = [[rng.randrange(field.q) for _ in range(k)] for _ in range(k)]
            m[0][0] = 0
            assert kernel_rule(lift(field, m)) is None
    rows = [[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 1, 1, 0, 1]]
    assert kernel_rule(Subspace(F2, 6, rows)) is None


def annihilation_rule(sub):
    """The slow reference of ``kernel_rules``, one codeword at a time: the
    rule that column k of the unpacked RREF spells, when its CA at n = 2k
    sends the codeword to zero."""
    field, k = sub.field, sub.dim
    if sub.ambient_n != 2 * k or not k:
        return None
    column = [field.neg(row[k]) for row in sub.basis.rows]
    if not column[0]:
        return None
    f = Polynomial.from_codes(field, column + [1])
    return f if LinearCA(f, 2 * k).annihilates(sub) else None


def mixed_subspaces(field, k, rng, size):
    """``size`` subspaces of GF(q)^2k, a kernel and the zero space first:
    kernels, kernels with one entry past column k changed, lifts [I_k | M]
    at random and with a_0 = 0, subspaces of other dimensions, zero spaces."""
    n, q = 2 * k, field.q
    out = [LinearCA(Polynomial.from_codes(field, [1] * (k + 1)), n).kernel(), Subspace(field, n)]
    while len(out) < size:
        rule = Polynomial.from_codes(
            field, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(k - 1)] + [1]
        )
        kind = rng.randrange(6)
        if kind <= 1:
            kernel = LinearCA(rule, n).kernel()
            if kind:
                rows = [list(r) for r in kernel.basis.rows]
                i, j = rng.randrange(k), rng.randrange(k, n)
                rows[i][j] = field.add(rows[i][j], rng.randrange(1, q))
                kernel = Subspace(field, n, rows)
            out.append(kernel)
        elif kind <= 3:
            m = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
            if kind == 3:
                m[0][0] = 0
            out.append(lift(field, m))
        elif kind == 4:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(n + 1))]
            out.append(Subspace(field, n, rows))
        else:
            out.append(Subspace(field, n))
    return out


@pytest.mark.parametrize("size", [10, 320])
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kernel_rules_match_the_per_codeword_reference(field, size):
    # every codeword's rows in one wide row, one CA pass: each codeword must
    # get the rule the one-at-a-time annihilation test gives it
    rng = random.Random(f"kernel_rules {field.spec} {size}")
    for k in (1, 2, 3, 4):
        subs = mixed_subspaces(field, k, rng, size)
        rules = kernel_rules(subs)
        assert rules == [annihilation_rule(s) for s in subs]
        assert rules[:4] == [kernel_rule(s) for s in subs[:4]]
        assert rules[0] is not None and rules[1] is None
    # n != 2 dim, and n = 0: no codeword has a rule
    rule = Polynomial.from_codes(field, [1, 0, 1])
    for n in (3, 5):
        subs = [LinearCA(rule, n).kernel(), Subspace(field, n, [[1] * n]), Subspace(field, n)]
        assert kernel_rules(subs) == [None] * len(subs)
    assert kernel_rules([Subspace(field, 0)] * 3) == [None] * 3
    assert kernel_rules([]) == []


# every row format, and k = 1..4: each entry of M, column 0 and k - 1 and
# row 0 (where M[-1] = 0) and k - 1 included, changed by every nonzero value
PLANT_FIELDS = (F2, F3, GF(5), GF(2, 2), GF(17), GF(3, 2))


def planted_faults(field, k, rng):
    """Kernels at n = 2k, each also with one entry of its M changed, and
    RREFs [L | I_k] whose pivots are not 0..k-1 (L of rank r < k on rows
    0..r-1) but whose column k reads v = e_0, the valid v of X^k - 1."""
    n, out = 2 * k, []
    deltas = range(1, field.q) if field.q < 10 else rng.sample(range(1, field.q), 4)
    for f in some_rules(field, k, rng, limit=2):
        m = [list(r[k:]) for r in LinearCA(f, n).kernel().basis.rows]
        out.append(lift(field, m))
        for j, c, delta in itertools.product(range(k), range(k), deltas):
            changed = [list(r) for r in m]
            changed[j][c] = field.add(changed[j][c], delta)
            out.append(lift(field, changed))
    for r in range(k):
        pivots = sorted(rng.sample(range(k), r))
        left = [[int(c == p) if c <= p or c in pivots else rng.randrange(field.q)
                 for c in range(k)] for p in pivots]
        left += [[0] * k] * (k - r)
        rows = [row + [int(c == j) for c in range(k)] for j, row in enumerate(left)]
        sub = Subspace(field, n, rows)
        assert sub._echelon.pivots != list(range(k)) and sub.basis.rows[0][k] == 1
        out.append(sub)
    return out


@pytest.mark.parametrize("field", PLANT_FIELDS, ids=str)
def test_kernel_rules_catch_every_single_entry_fault(field):
    # side by side (a list, a code of one pivot set, a code of mixed pivot
    # sets) and alone, each subspace gets the rule that the CA route gives it
    rng = random.Random(f"planted faults over GF({field.spec})")
    for k in (1, 2, 3, 4):
        subs = planted_faults(field, k, rng)
        want = [annihilation_rule(s) for s in subs]
        assert kernel_rules(subs) == want
        assert [kernel_rules([s])[0] for s in subs] == want
        assert any(want) and None in want
        lifts = [s for s in subs if s._echelon.pivots == list(range(k))]
        for code in (GrassmannianCode(field, 2 * k, subs), GrassmannianCode(field, 2 * k, lifts)):
            assert code.rules == tuple(map(annihilation_rule, code))


@pytest.mark.parametrize("field", [F2, F3, GF(2, 2), GF(5)], ids=str)
def test_a_codes_rules_read_the_layout_of_its_table(field, monkeypatch):
    # on the packed formats the table builds the code's one side-by-side
    # layout, and the rules read it: no second ``_BlockLayout`` is built
    calls, init = [], subspaces._BlockLayout.__init__
    monkeypatch.setattr(subspaces._BlockLayout, "__init__",
                        lambda self, words: calls.append(len(words)) or init(self, words))
    for k in (2, 3, 4):
        members = uniform_gcd_family(k, Polynomial.from_codes(field, (1,)))[0]
        code = code_from_family(CAFamily(members))
        code.pairwise_intersection_dims()
        assert calls == [len(code)]
        assert set(code.rules) == set(members) and calls == [len(code)]
        calls.clear()


def test_kernel_rules_take_one_ambient_space():
    f = Polynomial.from_codes(F2, [1, 1, 1])
    with pytest.raises(AmbientMismatch):
        kernel_rules([LinearCA(f, 4).kernel(), LinearCA(f, 5).kernel()])
    with pytest.raises(AmbientMismatch):
        kernel_rules([LinearCA(f, 4).kernel(), Subspace(F3, 4)])
