"""Operator-channel simulation: erasures, error dimensions, min-distance decoding.

The channel model is the standard noncoherent one for subspace codes.  A
sent codeword V suffers rho dimension erasures (it is replaced by a random
(dim V - rho)-dimensional subspace W of V) and gains e error dimensions
(random ambient vectors outside the current span are adjoined), so the
receiver sees U = W + E and must guess V from U alone.

The decoder picks the codeword closest to U in the subspace metric.  Ties
are never broken silently: an ambiguous trial reports every tied index, and
the statistics count it as a failure.  Whenever 2 d(U, V) < D(code) the
metric guarantees unique decoding, which the simulator checks per trial.
It needs ranks only.  The triangle inequality d(C, U) >= d(C, A) - d(A, U)
skips, without elimination, every codeword C with d(C, A) > 2 d(A, U),
where A is the nearest codeword so far and d(C, A) comes off the code's
pairwise table; inside the unique-decoding radius that leaves only V, and
once 2 d(A, U) is below A's distance to its nearest codeword, the search
stops, since it would skip every codeword left.
Any other codeword's elimination stops as soon as it cannot reach the best
distance found so far.  Past the radius, on a code of one pivot set, one
walk over U's (q^dim U - 1)/(q - 1) projective combinations gives every
codeword's distance at once, over the block layout that the pairwise table
walks (``subspaces._BlockLayout``), where that walk measured cheaper: at most
``_WALK_STEPS_PER_CODEWORD`` steps a codeword, where the format is ``wide``.
``simulate`` decodes each received space's packed rows with the decoder's
core, ``_nearest``, and builds no ``TrialResult``.

Determinism: each trial draws from ``random.Random(f"{seed}:{trial}")``, so
results are bit-identical for a fixed seed regardless of trial order or
parallel scheduling.  Every draw consumes the ``getrandbits`` words that
``randrange`` would (``_draw_codes``), so the streams, and with them every
result, are those of ``randrange`` on Python 3.10 to 3.13.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    EmptyCode,
    GuaranteeViolated,
    NegativeCount,
    NonPositive,
    TooManyErasures,
)
from .linalg import Echelon
from .subspaces import GrassmannianCode, Subspace, _BlockLayout, _joint_rank

_MAX_REDRAWS = 256  # per needed vector; failure means a broken RNG, not bad luck
# Against the eliminations it replaces (Python 3.11, 2-core x86-64, 30 trials a
# setting past the unique-decoding radius), with a walk step one C-level add
# and key read: on build-code codes of 5 to 175 codewords over GF(2), GF(3),
# GF(2^2), GF(5), GF(7) and GF(2^3) the walk won 1.03 to 11.6x at 0.006 to 1
# step a codeword and lost 1.3 to 1.5x on the 3 of GF(2) k = 3; at 1.15 to 1.9
# it won 1.1 to 2.8x on 8 to 23 codewords and lost up to 1.2x on 5.  On random
# families of 3 to 12 codewords it lost up to 2.9x below 1 step a codeword
# where U lies near the sent codeword (the table then prunes most
# eliminations) and won up to 3.4x where U lies far, so no bound on steps
# alone does better.  Over the per-entry format, whose steps unpack every
# lane, it lost from 0.04.
_WALK_STEPS_PER_CODEWORD = 1
# 100,000 trials take 5 to 12 s (Python 3.11, 2-core x86-64): 5.2 and 8.5 s
# inside the unique-decoding radius at one erasure and one error (GF(2^2)
# k = 3 and GF(3) k = 5, 23 and 53 codewords), 7.4 to 11.1 s past it at two
# erasures and one error (GF(3), GF(2^2) and GF(5) k = 3, 10 to 44 codewords,
# side by side) and 8 to 12 s at three and three (GF(2) k = 5, eliminated)
MAX_TRIALS = 100_000


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters: dimension erasures, injected error dims, RNG seed."""

    erasures: int = 0
    error_dims: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.erasures < 0 or self.error_dims < 0:
            raise NegativeCount("erasures and error_dims must be >= 0")


@dataclass(frozen=True)
class TrialResult:
    """Outcome of decoding one received subspace.

    ``decoded_index`` is the unique argmin codeword, or None when
    ``ambiguous`` (then ``tied`` lists every index at the minimum).
    ``sent_index`` and ``distance_to_sent`` are filled only when the caller
    disclosed the sent codeword (the decoder itself never needs it).
    """

    received: Subspace
    decoded_index: int | None
    ambiguous: bool
    tied: tuple[int, ...]
    min_distance_found: int
    sent_index: int | None = None
    distance_to_sent: int | None = None

    @property
    def success(self) -> bool:
        return (
            not self.ambiguous
            and self.sent_index is not None
            and self.decoded_index == self.sent_index
        )


def _draw_codes(rng: random.Random, q: int, count: int) -> list[int]:
    """``[rng.randrange(q) for _ in range(count)]``, read off the same words.

    On Python 3.10 to 3.13 ``randrange(q)`` takes ``getrandbits(k)``, k the
    bit length of q, and draws again while the word is >= q; this loop takes
    those words in that order, without the two Python calls in between.
    """
    bits, draw = q.bit_length(), rng.getrandbits
    codes = []
    for _ in range(count):
        c = draw(bits)
        while c >= q:
            c = draw(bits)
        codes.append(c)
    return codes


def _random_vector_of(sub: Subspace, rng: random.Random) -> int:
    # uniform over the subspace: random coefficients against the RREF basis
    return sub._combine(_draw_codes(rng, sub.field.q, sub.dim))


def _random_ambient_vector(field, n: int, rng: random.Random) -> int:
    return field.format.pack(_draw_codes(rng, field.q, n))


def _extend_independent(ech: Echelon, draw, count: int) -> None:
    """Insert ``count`` packed vectors from ``draw()``, redrawing any dependent one."""
    for _ in range(count):
        for _attempt in range(_MAX_REDRAWS):
            if ech.insert(draw()):
                break
        else:
            raise RuntimeError(
                "exceeded redraw budget while sampling an independent vector"
            )


def transmit(V: Subspace, cfg: ChannelConfig, trial: int) -> Subspace:
    """One channel use: U = W + E for a random W <= V with rho fewer dims.

    Error vectors are drawn uniformly from the ambient space, rejecting any
    that fall inside the span built so far, so each injected dimension is
    effective (when the ambient space is not already exhausted).
    Deterministic given (cfg.seed, trial).
    """
    if cfg.erasures > V.dim:
        raise TooManyErasures(
            f"cannot erase {cfg.erasures} dimensions from a {V.dim}-dimensional subspace"
        )
    rng = random.Random(f"{cfg.seed}:{trial}")
    keep = V.dim - cfg.erasures
    ech = Echelon(V.field, V.ambient_n)
    _extend_independent(ech, lambda: _random_vector_of(V, rng), keep)
    inject = min(cfg.error_dims, V.ambient_n - keep)
    _extend_independent(
        ech, lambda: _random_ambient_vector(V.field, V.ambient_n, rng), inject
    )
    return Subspace.from_echelon(ech)


def _nearest(
    code: GrassmannianCode, rows: list[int], dim_u: int, first: int
) -> tuple[int, dict[int, int]]:
    """``decode_min_distance``'s search for U spanned by ``dim_u`` independent
    packed ``rows``: the least distance, and by index the exact distances of
    codeword ``first`` and of every codeword at the least distance."""
    words = code.codewords
    word, nearest = words[first], code.nearest_distances()
    best = 2 * _joint_rank(word, rows) - word.dim - dim_u
    exact = {first: best}
    if 2 * best < nearest[first]:
        return best, exact  # every other codeword is more than 2 best from it
    per_word = _WALK_STEPS_PER_CODEWORD if code.field.format.wide else 0
    walk = _BlockLayout.fits(code.field.q, dim_u, per_word * len(words))
    layout = code.block_layout() if walk else None
    if layout is not None:
        dims = word.dim + dim_u  # one pivot set: every codeword has word's dimension
        distances = [dims - 2 * meet for meet in layout.meets(rows)]
        best = min(distances)
        return best, {i: d for i, d in enumerate(distances) if d == best or i == first}
    table, anchor = code.pairwise_intersection_dims(), first
    for i in itertools.chain(range(first), range(first + 1, len(words))):
        c = words[i]
        # d(C, U) >= d(C, anchor) - best: past 2 best, C is farther than best
        meet = table[i][anchor] if i > anchor else table[anchor][i]
        if c.dim + words[anchor].dim - 2 * meet > 2 * best:
            continue
        dims = c.dim + dim_u
        d = 2 * _joint_rank(c, rows, cap=(best + dims) // 2) - dims
        if d <= best:
            best = exact[i] = d
            anchor = i
            if 2 * best < nearest[anchor]:
                break  # every codeword left is more than 2 best from the anchor
    return best, exact


def decode_min_distance(
    code: GrassmannianCode, U: Subspace, sent_index: int | None = None
) -> TrialResult:
    """Nearest-codeword decoding in the subspace metric, ties reported as such.

    The nearest codeword so far, the anchor A at distance ``best``, rules
    out every C with d(C, A) > 2 best: d(C, U) >= d(C, A) - best > best.
    d(C, A) is read off ``code.pairwise_intersection_dims()``, the cached
    table that ``simulate`` (and demo 05) build for D first; a lone decode
    on a fresh code pays for the table once.  Any other C is eliminated:
    d(C, U) = 2 rank - dim C - dim U, where the rank of C stacked on U only
    grows as U's rows go into C's echelon.  Once that lower bound is above
    the best distance so far, C's elimination stops.  A codeword skipped
    either way is farther than the minimum, so it can be neither decoded
    nor tied; every codeword at or below the running best is measured
    exactly, so the visiting order cannot change the decision.  Once
    2 best is below the anchor's distance to its nearest other codeword
    (``code.nearest_distances()``), every codeword left would be skipped,
    so the loop stops.  The sent codeword, when given, goes first, because
    ``distance_to_sent`` needs its exact distance; a negative ``sent_index``
    counts from the end and is reported normalised.  If that first one does
    not stop the loop, a code of one pivot set may instead read every d(C, U)
    off one walk over U's combinations (``subspaces._BlockLayout.meets``).
    """
    if len(code) == 0:
        raise EmptyCode("cannot decode against an empty code")
    # indexes like a sequence: a negative index counts from the end
    first = 0 if sent_index is None else range(len(code))[sent_index]
    code[first]._check(U)
    best, exact = _nearest(code, U._echelon.rows, U.dim, first)
    tied = tuple(sorted(i for i, d in exact.items() if d == best))
    ambiguous = len(tied) > 1
    return TrialResult(
        received=U,
        decoded_index=None if ambiguous else tied[0],
        ambiguous=ambiguous,
        tied=tied,
        min_distance_found=best,
        sent_index=None if sent_index is None else first,
        distance_to_sent=None if sent_index is None else exact[first],
    )


def simulate(code: GrassmannianCode, cfg: ChannelConfig, trials: int) -> dict:
    """Run seeded channel trials and aggregate decoder statistics.

    Per trial: pick a sent codeword uniformly, transmit, decode, compare.
    Returns a JSON-ready dict (sorted serialization is byte-stable): success
    and ambiguity rates, mean distance to the sent codeword, and the
    histogram of those distances.  Every trial with 2 d(U, sent) < D must
    decode correctly; a trial that does not raises ``GuaranteeViolated``.
    More than ``MAX_TRIALS`` trials, or more erasures than the smallest
    codeword's dimension, are refused before any draw.
    """
    if len(code) == 0:
        raise EmptyCode("cannot simulate an empty code")
    if trials < 1:
        raise NonPositive("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise BudgetExceeded(f"{trials} trials exceed the bound of {MAX_TRIALS}")
    low = min(s.dim for s in code)
    if cfg.erasures > low:
        raise TooManyErasures(
            f"cannot erase {cfg.erasures} dimensions from a {low}-dimensional codeword"
        )
    big_d = code.min_distance() if len(code) >= 2 else None
    successes = ambiguities = 0
    dist_sum = 0
    histogram: dict[int, int] = {}
    for trial in range(trials):
        # a separate stream from transmit's, so the sent pick does not
        # correlate with the channel's coefficient draws
        sent = _draw_codes(random.Random(f"{cfg.seed}:{trial}:sent"), len(code), 1)[0]
        received = transmit(code[sent], cfg, trial)
        best, exact = _nearest(code, received._echelon.rows, received.dim, sent)
        d_sent = exact[sent]
        dist_sum += d_sent
        histogram[d_sent] = histogram.get(d_sent, 0) + 1
        ambiguous = list(exact.values()).count(best) > 1
        success = d_sent == best and not ambiguous
        if big_d is not None and 2 * d_sent < big_d and not success:
            raise GuaranteeViolated(
                f"trial {trial}: d(U, sent) = {d_sent} < D/2 = {big_d / 2} "
                "but the sent codeword was not decoded uniquely"
            )
        if ambiguous:
            ambiguities += 1
        elif success:
            successes += 1
    return {
        "config": {
            "erasures": cfg.erasures,
            "error_dims": cfg.error_dims,
            "seed": cfg.seed,
            "trials": trials,
        },
        "code": {
            "size": len(code),
            "n": code.ambient_n,
            "q": code.field.spec,
            "constant_dim": code.constant_dim,
            "min_distance": big_d,
        },
        "successes": successes,
        "ambiguities": ambiguities,
        "failures": trials - successes - ambiguities,
        "success_rate": successes / trials,
        "ambiguity_rate": ambiguities / trials,
        "mean_distance_to_sent": dist_sum / trials,
        "distance_histogram": {str(d): c for d, c in sorted(histogram.items())},
    }
