"""Operator channel and minimum-distance decoder."""

import dataclasses
import itertools
import json
import math
import random

import pytest

import cacodes.channel as channel_module
from cacodes import subspaces
from cacodes.algebra import GF, Polynomial
from cacodes.channel import ChannelConfig, decode_min_distance, simulate, transmit
from cacodes.errors import AmbientMismatch, EmptyCode, TooManyErasures
from cacodes.families import CAFamily, code_from_family, uniform_gcd_family
from cacodes.subspaces import GrassmannianCode, Subspace, subspace_distance

import oracles

F2 = GF(2)


def coprime_pair_code():
    # kernels of X^2+X+1 and X^2+1 at n = 4; coprime, so D = 4
    fam = CAFamily([Polynomial(F2, (1, 1, 1)), Polynomial(F2, (1, 0, 1))])
    return code_from_family(fam)


def coprime_triple_code():
    fam = CAFamily(uniform_gcd_family(3, Polynomial(F2, (1,)))[0])
    return code_from_family(fam)


# -- config -------------------------------------------------------------------


def test_config_defaults():
    cfg = ChannelConfig()
    assert (cfg.erasures, cfg.error_dims, cfg.seed) == (0, 0, 0)


def test_config_rejects_negative():
    with pytest.raises(ValueError):
        ChannelConfig(erasures=-1)
    with pytest.raises(ValueError):
        ChannelConfig(error_dims=-2)


# -- transmit -----------------------------------------------------------------


def test_identity_channel_returns_sent():
    code = coprime_pair_code()
    cfg = ChannelConfig(erasures=0, error_dims=0, seed=7)
    for trial in range(5):
        for V in code:
            assert transmit(V, cfg, trial) == V


def test_full_erasure_gives_zero_space():
    V = coprime_pair_code()[0]
    out = transmit(V, ChannelConfig(erasures=V.dim, seed=1), trial=0)
    assert out.is_zero()


def test_single_erasure_is_hyperplane_of_sent():
    code = coprime_pair_code()
    cfg = ChannelConfig(erasures=1, seed=3)
    for trial in range(20):
        for V in code:
            U = transmit(V, cfg, trial)
            assert U.dim == V.dim - 1
            assert U <= V
            assert subspace_distance(U, V) == 1


def test_injection_adds_independent_dims():
    code = coprime_pair_code()
    cfg = ChannelConfig(error_dims=1, seed=11)
    for trial in range(20):
        for V in code:
            U = transmit(V, cfg, trial)
            assert U.dim == V.dim + 1
            assert V <= U
            assert subspace_distance(U, V) == 1


def test_injection_capped_by_ambient_space():
    V = Subspace(F2, 2, [(1, 0), (0, 1)])
    out = transmit(V, ChannelConfig(error_dims=5, seed=2), trial=0)
    assert out == V


def test_combined_erasure_and_injection_distance():
    V = coprime_pair_code()[0]
    cfg = ChannelConfig(erasures=1, error_dims=1, seed=9)
    for trial in range(20):
        U = transmit(V, cfg, trial)
        assert U.dim == V.dim
        # one dim lost plus one alien dim, unless the injection landed in V
        assert subspace_distance(U, V) in (0, 2)


def test_transmit_deterministic_per_trial():
    V = coprime_pair_code()[1]
    cfg = ChannelConfig(erasures=1, error_dims=1, seed=42)
    again = ChannelConfig(erasures=1, error_dims=1, seed=42)
    outs = [transmit(V, cfg, t) for t in range(10)]
    assert outs == [transmit(V, again, t) for t in range(10)]
    assert len(set(outs)) > 1  # trials draw from distinct streams


# (q, k, erasures, error_dims, seed, trial) -> (candidate vectors drawn, basis
# of U) for the coprime code of degree k; sent codeword index trial % size.
# Recorded from the implementation that re-ran a full RREF per draw; equal
# draw counts and bases show that the incremental echelon accepts and
# rejects exactly the same candidates.
PINNED_TRANSMIT = {
    ("2", 3, 1, 2, 5, 0): (6, ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 0, 0, 1, 0))),
    ("2", 3, 1, 2, 5, 1): (5, ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 1, 0), (0, 0, 0, 1, 0, 1))),
    ("2", 3, 1, 2, 5, 2): (5, ((0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0))),
    ("3", 2, 1, 1, 11, 7): (3, ((1, 0, 0, 1), (0, 1, 1, 0))),
    ("3", 2, 1, 1, 11, 8): (3, ((1, 0, 0, 2), (0, 1, 0, 1))),
    ("2^2", 3, 1, 1, 3, 0): (3, ((1, 0, 2, 0, 0, 0), (0, 1, 0, 0, 3, 2), (0, 0, 0, 1, 2, 3))),
    ("2^2", 3, 1, 1, 3, 7): (3, ((1, 0, 0, 2, 1, 3), (0, 1, 0, 1, 2, 1), (0, 0, 1, 2, 1, 2))),
    ("2", 2, 0, 2, 7, 1): (7, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    # recorded from the draws through ``randrange``, before they read its words inline
    ("5", 2, 1, 1, 3, 0): (2, ((1, 0, 2, 2), (0, 1, 0, 1))),
    ("5", 2, 1, 2, 3, 4): (3, ((1, 0, 0, 3), (0, 1, 0, 4), (0, 0, 1, 0))),
    ("5", 2, 0, 3, 6, 2): (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ("17", 1, 1, 1, 2, 5): (1, ((1, 12),)),
    ("17", 2, 1, 1, 9, 3): (2, ((1, 0, 15, 4), (0, 1, 10, 0))),
    ("17", 2, 2, 3, 4, 1): (3, ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 15))),
    ("3^2", 2, 1, 1, 5, 0): (2, ((0, 1, 0, 0), (0, 0, 1, 0))),
    ("3^2", 2, 1, 2, 5, 3): (3, ((1, 0, 0, 8), (0, 1, 0, 4), (0, 0, 1, 1))),
    ("3^2", 2, 0, 2, 8, 6): (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
}


@pytest.mark.parametrize("case", sorted(PINNED_TRANSMIT), ids=str)
def test_transmit_pinned_draws_and_bases(case, monkeypatch):
    q, k, erasures, error_dims, seed, trial = case
    field = GF.from_spec(q)
    code = code_from_family(CAFamily(uniform_gcd_family(k, Polynomial(field, [1]))[0]))
    draws = []
    for name in ("_random_vector_of", "_random_ambient_vector"):
        original = getattr(channel_module, name)
        monkeypatch.setattr(
            channel_module, name,
            lambda *args, _original=original: draws.append(1) or _original(*args),
        )
    cfg = ChannelConfig(erasures=erasures, error_dims=error_dims, seed=seed)
    U = transmit(code[trial % len(code)], cfg, trial)
    assert (len(draws), U.basis.rows) == PINNED_TRANSMIT[case]


# Around powers of two, where the word length changes, the largest 31-bit
# prime, and the orders of GF(43^3) and GF(2039^2)
DRAW_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 17, 255, 256, 257, 2**31 - 1, 43**3, 2039**2]


@pytest.mark.parametrize("q", DRAW_ORDERS)
def test_draws_read_the_words_randrange_reads(q):
    for seed in range(30):
        ours, theirs = random.Random(f"draws {seed}"), random.Random(f"draws {seed}")
        for count in range(41):  # each count goes on where the last left off
            assert channel_module._draw_codes(ours, q, count) == [
                theirs.randrange(q) for _ in range(count)
            ]
            assert ours.getstate() == theirs.getstate()


def randrange_draws(rng, q, count):
    return [rng.randrange(q) for _ in range(count)]


# (q, k): coprime codes of degree k at n = 2k, of 3 to 152 codewords
SIMULATED = [("2", 3), ("3", 2), ("5", 2), ("2^2", 2), ("3^2", 2), ("17", 2)]


@pytest.mark.parametrize("q, k", SIMULATED, ids=str)
def test_simulate_output_equals_the_randrange_draws(q, k, monkeypatch):
    field = GF.from_spec(q)
    code = code_from_family(CAFamily(uniform_gcd_family(k, Polynomial(field, [1]))[0]))
    n = 2 * k
    # the error dimensions fill the ambient space in the last three
    configs = [(1, 1, 3), (1, 2, 5), (0, n, 7), (1, n, 8), (k, n, 9)]
    for erasures, error_dims, seed in configs:
        cfg = ChannelConfig(erasures=erasures, error_dims=error_dims, seed=seed)
        ours = json.dumps(simulate(code, cfg, trials=15), sort_keys=True)
        with monkeypatch.context() as patch:
            patch.setattr(channel_module, "_draw_codes", randrange_draws)
            assert json.dumps(simulate(code, cfg, trials=15), sort_keys=True) == ours


def test_transmit_rejects_excess_erasures():
    V = coprime_pair_code()[0]
    with pytest.raises(TooManyErasures):
        transmit(V, ChannelConfig(erasures=3), trial=0)


# -- decoder ------------------------------------------------------------------


def test_decode_exact_codeword():
    code = coprime_pair_code()
    for i, V in enumerate(code):
        res = decode_min_distance(code, V, sent_index=i)
        assert res.decoded_index == i
        assert not res.ambiguous
        assert res.tied == (i,)
        assert res.min_distance_found == 0
        assert res.distance_to_sent == 0
        assert res.success


def test_decode_without_sent_index():
    code = coprime_pair_code()
    res = decode_min_distance(code, code[0])
    assert res.decoded_index == 0
    assert res.sent_index is None and res.distance_to_sent is None
    assert not res.success  # undisclosed sent codeword never counts as success


def test_decode_negative_sent_index_counts_from_the_end():
    code = coprime_triple_code()
    size = len(code)
    for sent_index in (-1, -size):
        i = sent_index + size
        res = decode_min_distance(code, code[sent_index], sent_index=sent_index)
        assert res.sent_index == res.decoded_index == i
        assert res.distance_to_sent == 0 and res.success
        assert res == decode_min_distance(code, code[i], sent_index=i)


def test_decode_within_unique_radius():
    code = coprime_pair_code()  # D = 4, corrects distance <= 1
    cfg = ChannelConfig(erasures=1, seed=5)
    for trial in range(30):
        for i, V in enumerate(code):
            res = decode_min_distance(code, transmit(V, cfg, trial), sent_index=i)
            assert res.success and res.distance_to_sent == 1


def test_decode_reports_tie():
    code = coprime_pair_code()
    # one basis vector from each kernel: equidistant from both codewords
    U = Subspace(F2, 4, [(1, 0, 1, 1), (0, 1, 0, 1)])
    assert {subspace_distance(U, c) for c in code} == {2}
    res = decode_min_distance(code, U, sent_index=0)
    assert res.ambiguous
    assert res.decoded_index is None
    assert res.tied == (0, 1)
    assert res.min_distance_found == 2
    assert not res.success


def random_subspace(field, n, rng, dim=None):
    dim = rng.randint(0, n) if dim is None else dim
    return Subspace(field, n, [[rng.randrange(field.q) for _ in range(n)] for _ in range(dim)])


def decoder_cases(field, rng):
    """(code, received) pairs: CA codes and random codes, with ties made on purpose."""
    k = 3 if field.q == 2 else 2
    n = 2 * k
    codes = [
        code_from_family(CAFamily(uniform_gcd_family(k, Polynomial(field, g))[0]))
        for g in ((1,), (1, 1))
    ]
    codes += [
        GrassmannianCode(field, n, [random_subspace(field, n, rng) for _ in range(6)])
        for _ in range(3)
    ]
    for code in codes:
        for _ in range(12):
            yield code, random_subspace(field, n, rng)
        for trial in range(8):
            V = code[rng.randrange(len(code))]
            erasures, errors = min(rng.randint(0, 2), V.dim), rng.randint(0, 2)
            yield code, transmit(V, ChannelConfig(erasures, errors, seed=trial), trial)
        # one vector from each of several codewords: equidistant from them
        for _ in range(6):
            picks = rng.sample(range(len(code)), min(len(code), rng.randint(2, 3)))
            vectors = [next(iter(code[i].basis.rows), (0,) * n) for i in picks]
            yield code, Subspace(field, n, vectors)
    # blind decodes whose anchor must move off codeword 0: over the shared-pivot
    # table of a CA code, and the stacked table of a mixed-dimension code
    mixed = GrassmannianCode(
        field, n, [random_subspace(field, n, rng, dim=k - i % 2) for i in range(8)]
    )
    for code in (codes[0], mixed):
        yield from far_first_cases(code, rng)


def far_first_cases(code, rng, count=8):
    """(code, received) pairs in which codeword 0 is the farthest and the
    nearest codewords come later: U lies near one later codeword, or meets
    several."""
    field, n, found = code.field, code.ambient_n, 0
    for trial in range(400):
        picks = rng.sample(range(1, len(code)), min(len(code) - 1, rng.randint(1, 3)))
        if len(picks) == 1:
            V = code[picks[0]]
            cfg = ChannelConfig(min(rng.randint(0, 1), V.dim), rng.randint(0, 2), seed=trial)
            U = transmit(V, cfg, trial)
        else:
            U = Subspace(field, n, [
                code[i].combination([rng.randrange(field.q) for _ in range(code[i].dim)])
                for i in picks
            ])
        distances = [subspace_distance(c, U) for c in code]
        if distances[0] == max(distances) > min(distances):
            yield code, U
            found += 1
            if found == count:
                return


@pytest.mark.parametrize("field", [F2, GF(3), GF(2, 2)], ids=lambda f: f.spec)
def test_pruned_decoder_matches_exhaustive_oracle(field):
    rng = random.Random(f"decoder:{field.spec}")
    ties = 0
    for code, U in decoder_cases(field, rng):
        dmin, tied, distances = oracles.decode_exhaustive(code, U, subspace_distance)
        blind = decode_min_distance(code, U)
        assert blind.tied == tied and blind.min_distance_found == dmin
        assert blind.ambiguous == (len(tied) > 1)
        assert blind.decoded_index == (None if blind.ambiguous else tied[0])
        assert blind.sent_index is None and blind.distance_to_sent is None
        ties += blind.ambiguous
        for sent in range(len(code)):
            told = decode_min_distance(code, U, sent_index=sent)
            expected = dataclasses.replace(
                blind, sent_index=sent, distance_to_sent=distances[sent]
            )
            assert told == expected
    assert ties >= 5


def decode_unstopped(code, U, sent_index=None):
    """The decoder's loop without its stop: every codeword the anchor does
    not rule out is measured, to the end of the code."""
    words = code.codewords
    first = 0 if sent_index is None else range(len(words))[sent_index]
    table = code.pairwise_intersection_dims()
    best, anchor, exact = 2 * U.ambient_n, first, {}
    for i in (first, *range(first), *range(first + 1, len(words))):
        c = words[i]
        if i != anchor:
            meet = table[i][anchor] if i > anchor else table[anchor][i]
            if c.dim + words[anchor].dim - 2 * meet > 2 * best:
                continue
        dims = c.dim + U.dim
        d = 2 * channel_module._joint_rank(c, U._echelon.rows, cap=(best + dims) // 2) - dims
        if d <= best:
            best = exact[i] = d
            anchor = i
    tied = tuple(sorted(i for i, d in exact.items() if d == best))
    return tied, best, None if sent_index is None else exact[first]


class CountedRow(tuple):
    """A row of the pairwise table that counts the entries read off it."""

    reads = 0

    def __getitem__(self, j):
        CountedRow.reads += 1
        return super().__getitem__(j)


@pytest.mark.parametrize("field", [F2, GF(3), GF(2, 2)], ids=lambda f: f.spec)
def test_decoder_stop_matches_the_unstopped_loop(field, monkeypatch):
    # the decoder stops once 2 best < the anchor's nearest-codeword distance;
    # it must decide as the full loop does, with the same eliminations, on
    # ties and on received spaces outside the unique-decoding radius too
    calls = []
    real = channel_module._joint_rank
    monkeypatch.setattr(GrassmannianCode, "block_layout", lambda self: None)  # no walk
    monkeypatch.setattr(
        channel_module, "_joint_rank", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    rng = random.Random(f"stop:{field.spec}")
    stopped = outside = ties = 0
    for code, U in decoder_cases(field, rng):
        code._pairwise = tuple(map(CountedRow, code.pairwise_intersection_dims()))
        for sent in (None, *range(len(code))):
            del calls[:]
            CountedRow.reads = 0
            want = decode_unstopped(code, U, sent)
            full, unstopped_reads = list(calls), CountedRow.reads
            del calls[:]
            CountedRow.reads = 0
            got = decode_min_distance(code, U, sent_index=sent)
            assert (got.tied, got.min_distance_found, got.distance_to_sent) == want
            assert calls == full and CountedRow.reads <= unstopped_reads
            stopped += CountedRow.reads < unstopped_reads
            ties += got.ambiguous
            if len(code) > 1:
                outside += 2 * got.min_distance_found >= code.min_distance()
    assert stopped > 100 and ties > 0 and outside > 0


def test_nearest_distances_read_the_pairwise_distances():
    rng = random.Random(5)
    for field in (F2, GF(3), GF(2, 2)):
        for n, size in ((4, 1), (4, 2), (5, 7), (6, 9)):
            code = GrassmannianCode(field, n, [random_subspace(field, n, rng) for _ in range(size)])
            words = code.codewords
            expected = [
                min((subspace_distance(a, b) for b in words if b is not a), default=math.inf)
                for a in words
            ]
            assert list(code.nearest_distances()) == expected
            if len(words) > 1:
                assert code.min_distance() == min(expected)


@pytest.mark.parametrize("field", [F2, GF(3), GF(2, 2)], ids=lambda f: f.spec)
def test_decoder_cases_move_the_blind_anchor(field):
    # a blind decode anchors first on codeword 0; in these cases 0 is the
    # farthest, so every skip rests on an anchor that has moved, ties included
    rng = random.Random(f"decoder:{field.spec}")
    seen = set()
    for code, U in decoder_cases(field, rng):
        distances = [subspace_distance(c, U) for c in code]
        nearest = min(distances)
        if distances[0] == max(distances) > nearest:
            shared = len({tuple(c._echelon.pivots) for c in code}) == 1
            seen.add((shared, distances.count(nearest) > 1))
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


ROUTE_FIELDS = [F2, GF(3), GF(2, 2), GF(5), GF(17), GF(3, 2)]


def takes_route(code, dim_u):
    """The side-by-side rule, restated: one pivot set, and at most one walk
    step a codeword, (q^dim U - 1)/(q - 1) <= N, over the packed formats;
    none over the per-entry one, so there only the zero space takes it."""
    q, shared = code.field.q, len({tuple(c._echelon.pivots) for c in code}) == 1
    c = 1 if code.field.format.wide else 0
    return shared and (q**dim_u - 1) // (q - 1) <= c * len(code)


def lift(field, n, pivots, rng):
    """A random codeword in RREF on these pivot columns."""
    return Subspace(field, n, [
        [int(j == c) if j <= c or j in pivots else rng.randrange(field.q) for j in range(n)]
        for c in pivots
    ])


def route_codes(field, rng):
    """Codes of one pivot set: CA codes (on the packed formats, whose
    decoders take the route), random lifts, lifts whose pivots start past
    column 0, and over GF(2) all 16 lifts of GF(2)^2 into GF(2)^4."""
    if field.format.wide:
        k = 4 if field.q == 2 else 3
        for g in ((1,), (1, 1)):
            yield code_from_family(CAFamily(uniform_gcd_family(k, Polynomial(field, g))[0]))
    for _ in range(2):
        k = rng.randint(1, 3)
        n = k + rng.randint(1, 3)
        for pivots in (range(k), range(n - k, n)):
            size = rng.randint(4, 16)
            yield GrassmannianCode(field, n, [lift(field, n, pivots, rng) for _ in range(size)])
    if field.q == 2:
        yield GrassmannianCode(field, 4, [
            Subspace(field, 4, [(1, 0, a, b), (0, 1, c, d)])
            for a, b, c, d in itertools.product((0, 1), repeat=4)
        ])


def received_spaces(code, rng):
    """Received spaces past the unique-decoding radius and inside it: channel
    draws, the zero space, the whole ambient space, one vector of each of
    several codewords (equidistant from them) and random subspaces."""
    field, n, k = code.field, code.ambient_n, code[0].dim
    yield Subspace(field, n)
    if field.q ** (n - 1) <= 64:
        yield Subspace(field, n, [[int(i == j) for j in range(n)] for i in range(n)])
    for trial in range(6):
        V = code[rng.randrange(len(code))]
        cfg = ChannelConfig(rng.randint(max(k - 2, 0), k), rng.randint(0, 2), seed=trial)
        yield transmit(V, cfg, trial)
    for _ in range(3):
        picks = rng.sample(range(len(code)), min(len(code), rng.randint(2, 3)))
        yield Subspace(field, n, [code[i].basis.rows[0] for i in picks])
        yield random_subspace(field, n, rng, dim=rng.randint(1, min(n, 3)))


def count_walks(monkeypatch):
    """Count the calls of ``_BlockLayout.meets``, which still runs."""
    calls, meets = [], subspaces._BlockLayout.meets
    monkeypatch.setattr(subspaces._BlockLayout, "meets", lambda *a: calls.append(1) or meets(*a))
    return calls


@pytest.mark.parametrize("field", ROUTE_FIELDS, ids=lambda f: f.spec)
def test_side_by_side_decoder_matches_brute_force(field, monkeypatch):
    # decisions, ties and distances equal subspace_distance on every codeword,
    # blind and told; the route runs exactly where its rule says, once the
    # first codeword measured does not stop the search
    walks = count_walks(monkeypatch)
    rng = random.Random(f"side by side:{field.spec}")
    routed, eliminated, ties, whole = set(), 0, 0, 0
    for code in route_codes(field, rng):
        nearest = code.nearest_distances()
        for U in received_spaces(code, rng):
            dmin, tied, distances = oracles.decode_exhaustive(code, U, subspace_distance)
            ties += len(tied) > 1
            whole += U.dim == code.ambient_n
            for sent in (None, *range(len(code))):
                del walks[:]
                got = decode_min_distance(code, U, sent_index=sent)
                assert (got.tied, got.min_distance_found) == (tied, dmin)
                assert got.ambiguous == (len(tied) > 1)
                assert got.decoded_index == (None if got.ambiguous else tied[0])
                assert got.distance_to_sent == (None if sent is None else distances[sent])
                first = sent or 0
                past = 2 * distances[first] >= nearest[first]
                assert len(walks) == (past and takes_route(code, U.dim))
                if walks:
                    routed.add(U.dim)
                eliminated += past and not walks
    assert ties >= 5 and eliminated > 0 and 0 in routed
    if not field.format.wide:
        assert routed == {0}
    else:
        assert len(routed) >= 3
    if field.q == 2:
        assert whole > 0 and 4 in routed  # all of GF(2)^4: 15 steps against 16 lifts


@pytest.mark.parametrize("field", ROUTE_FIELDS[:4], ids=lambda f: f.spec)
def test_mixed_codes_never_take_the_side_by_side_route(field, monkeypatch):
    # mixed pivots, and mixed dimensions: no block layout, so every codeword
    # is eliminated, even for the zero space (which walks no step)
    walks = count_walks(monkeypatch)
    rng = random.Random(f"mixed:{field.spec}")
    for _ in range(3):
        lifts = [lift(field, 5, range(2), rng) for _ in range(6)]
        for extra in (lift(field, 5, (1, 3), rng), lift(field, 5, range(3), rng)):
            code = GrassmannianCode(field, 5, [*lifts, extra])
            assert code.block_layout() is None
            cases = [Subspace(field, 5)]
            cases += [random_subspace(field, 5, rng, dim=d) for d in (1, 2, 3)]
            for U in cases:
                dmin, tied, distances = oracles.decode_exhaustive(code, U, subspace_distance)
                for sent in (None, *range(len(code))):
                    got = decode_min_distance(code, U, sent_index=sent)
                    assert (got.tied, got.min_distance_found) == (tied, dmin)
    assert walks == []


def simulate_reference(code, cfg, trials):
    """``simulate``'s statistics from the public API alone: ``transmit``,
    ``decode_min_distance`` and ``TrialResult.success``, trial by trial."""
    big_d = code.min_distance() if len(code) >= 2 else None
    results = []
    for trial in range(trials):
        sent = random.Random(f"{cfg.seed}:{trial}:sent").randrange(len(code))
        result = decode_min_distance(code, transmit(code[sent], cfg, trial), sent_index=sent)
        assert big_d is None or 2 * result.distance_to_sent >= big_d or result.success
        results.append(result)
    successes = sum(r.success for r in results)
    ambiguities = sum(r.ambiguous for r in results)
    histogram = {}
    for r in results:
        histogram[r.distance_to_sent] = histogram.get(r.distance_to_sent, 0) + 1
    return {
        "config": {
            "erasures": cfg.erasures, "error_dims": cfg.error_dims, "seed": cfg.seed,
            "trials": trials,
        },
        "code": {
            "size": len(code), "n": code.ambient_n, "q": code.field.spec,
            "constant_dim": code.constant_dim, "min_distance": big_d,
        },
        "successes": successes,
        "ambiguities": ambiguities,
        "failures": trials - successes - ambiguities,
        "success_rate": successes / trials,
        "ambiguity_rate": ambiguities / trials,
        "mean_distance_to_sent": sum(r.distance_to_sent for r in results) / trials,
        "distance_histogram": {str(d): c for d, c in sorted(histogram.items())},
    }


@pytest.mark.parametrize("field", [F2, GF(3), GF(2, 2), GF(5), GF(17)], ids=lambda f: f.spec)
def test_simulate_agrees_with_a_loop_over_the_public_api(field):
    # simulate runs the decoder's core on the received rows; its statistics
    # must be those of the public API's trials, inside the unique-decoding
    # radius and past it, on codes that take the side-by-side route and not
    rng = random.Random(f"cores:{field.spec}")
    codes = list(itertools.islice(route_codes(field, rng), 3))
    mixed = [random_subspace(field, 4, rng, dim=d) for d in (1, 2, 2, 3)]
    codes.append(GrassmannianCode(field, 4, mixed))
    outcomes = set()
    for code in codes:
        low = min(c.dim for c in code)
        for erasures, errors in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (low, 1), (low, 2)):
            if erasures > low:
                continue
            cfg = ChannelConfig(erasures, errors, seed=rng.randrange(1000))
            stats = simulate(code, cfg, trials=25)
            assert stats == simulate_reference(code, cfg, trials=25)
            outcomes.add((stats["successes"] == 25, stats["ambiguities"] > 0))
    assert outcomes >= {(True, False), (False, True)}


def test_decode_rejects_received_from_another_space():
    code = coprime_pair_code()  # GF(2)^4
    for U in (Subspace(F2, 5, [(1, 0, 0, 0, 1)]), Subspace(GF(3), 4, [(1, 2, 0, 0)])):
        for sent_index in (None, 0, 1):
            with pytest.raises(AmbientMismatch):
                decode_min_distance(code, U, sent_index=sent_index)


def test_decode_empty_code():
    empty = GrassmannianCode(F2, 4, [])
    with pytest.raises(EmptyCode):
        decode_min_distance(empty, Subspace(F2, 4, [(1, 0, 0, 0)]))


# -- simulate -----------------------------------------------------------------


def test_simulate_identity_channel():
    code = coprime_pair_code()
    stats = simulate(code, ChannelConfig(seed=1), trials=50)
    assert stats["successes"] == 50
    assert stats["success_rate"] == 1.0
    assert stats["ambiguities"] == 0 and stats["failures"] == 0
    assert stats["distance_histogram"] == {"0": 50}
    assert stats["mean_distance_to_sent"] == 0.0
    assert stats["code"]["min_distance"] == 4


def test_simulate_single_erasure_always_corrects():
    code = coprime_triple_code()  # D = 6, corrects distance <= 2
    stats = simulate(code, ChannelConfig(erasures=1, seed=8), trials=60)
    assert stats["success_rate"] == 1.0
    assert stats["distance_histogram"] == {"1": 60}


def test_simulate_deterministic_bytes():
    code = coprime_pair_code()
    cfg = ChannelConfig(erasures=1, error_dims=1, seed=123)
    a = simulate(code, cfg, trials=40)
    b = simulate(code, cfg, trials=40)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_simulate_counts_are_consistent():
    code = coprime_pair_code()
    stats = simulate(code, ChannelConfig(erasures=2, error_dims=2, seed=4), trials=80)
    assert stats["successes"] + stats["ambiguities"] + stats["failures"] == 80
    assert sum(stats["distance_histogram"].values()) == 80
    total = sum(int(d) * c for d, c in stats["distance_histogram"].items())
    assert stats["mean_distance_to_sent"] == total / 80


def test_simulate_rejects_bad_arguments():
    code = coprime_pair_code()
    with pytest.raises(ValueError):
        simulate(code, ChannelConfig(), trials=0)
    with pytest.raises(EmptyCode):
        simulate(GrassmannianCode(F2, 4, []), ChannelConfig(), trials=1)
