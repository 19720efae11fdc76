"""Workload menus for the cacodes benchmark: seeded inputs and per-op checks.

An op is one call of ``cacodes.cli.main(argv)``.  Each workload is a pinned
menu of ops: the subcommands, fields, degrees and channel settings are fixed
here, and the seed picks only the concrete inputs (gcd polynomials, random
families, channel seeds).  The runner picks the op order from the same seed.

Every op carries a check that reads the op's stdout and returns ``None`` when
the output is correct, or a one-line reason when it is not.  Checks run
outside the timed region.

Why these workloads:

* ``design``  -- the polynomial side (``build-code``, ``search-max``):
  trial-division irreducibility, ``poly_gcd`` and the exact clique search.
  Pairwise linear algebra does almost nothing here.
* ``certify`` -- ``analyze`` on stored codes: few but large stacked
  eliminations, the pairwise table computed twice, and ``family_check``.
* ``channel`` -- ``simulate``: thousands of tiny incremental rank checks and
  canonicalizations; polynomial arithmetic does nothing here.

``kernel`` and ``count`` take milliseconds and are left out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cacodes import (
    GF,
    CAFamily,
    GrassmannianCode,
    LinearCA,
    Polynomial,
    enumerate_rule_polynomials,
    expected_uniform_gcd_size,
    max_coprime_family_size,
    predicted_min_distance,
    verify_family,
)

# (q, k) for build-code at t = 0 and t = 1, and (q, k, t) for search-max.
# search-max --q 2 --k 7 --t 1 (9 s) and --t 2, and --q 5 --k 3 (each over
# 20 s) are runaways and stay out of the menu.  --q 2 --k 7 --t 0 (1.6 s)
# stays out too: it would take 40% of every round and halve the repeats of
# every other op.
_DESIGN = {
    "full": (
        [("2", 6), ("2", 7), ("2", 8), ("3", 4), ("3", 5), ("5", 3), ("2^2", 3)],
        [("2", 6, 0), ("2", 6, 1), ("2", 6, 2), ("3", 4, 0), ("3", 4, 2),
         ("2^2", 3, 0)],
    ),
    "tiny": ([("2", 3), ("3", 2)], [("2", 3, 0), ("2", 3, 1)]),
}
# (q, k): one build-code document at t = 1 and one random family of size N_k,
# and (q, k) with the build-code document only.  The random families of
# GF(2) k=8 (1.1 s) and GF(3) k=5 (0.7 s) stay out: together they would take
# half of every round.
_CERTIFY = {
    "full": ([("2", 6), ("2", 7), ("3", 4), ("5", 3), ("2^2", 3)], [("2", 8), ("3", 5)]),
    "tiny": ([("2", 3), ("3", 2)], []),
}
# (q, k) of the t = 0 codes, and the trials per simulate op.
_CHANNEL = {
    "full": ([("2", 5), ("2", 6), ("3", 3), ("2^2", 3)], 25),
    "tiny": ([("2", 3)], 10),
}
# (erasures, errors): inside and outside the 2 d < D unique-decoding region.
_NOISE = ((1, 0), (0, 1), (1, 1), (2, 1))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], "str | None"]


Call = Callable[[list], "tuple[int, str]"]  # argv -> (exit code, stdout)


def build_menu(workload: str, size: str, seed: int, workdir: Path, call: Call) -> list[Op]:
    """Generate the workload's inputs from ``seed`` and return its op menu.

    ``call`` runs one untimed CLI op; it builds the code documents that
    ``certify`` and ``channel`` read.  Files go under ``workdir`` with names
    that depend only on the inputs, because ``analyze`` and ``simulate`` echo
    the ``--code`` path into their output.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "design":
        return _design_menu(size, rng)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        return _certify_menu(size, rng, workdir, call)
    if workload == "channel":
        return _channel_menu(size, rng, workdir, call)
    raise ValueError(f"unknown workload {workload!r}")


# -- input generation ---------------------------------------------------------------


def _degree_one_gcd(field: GF, rng: random.Random) -> str:
    """A seeded monic X + c with c != 0, in the CLI's polynomial text form."""
    return Polynomial.from_codes(field, [rng.randrange(1, field.q), 1]).to_string()


def _write_build_code(call: Call, path: Path, q: str, k: int, gcd: str) -> None:
    rc, out = call(["build-code", "--q", q, "--k", str(k), "--gcd", gcd])
    if rc != 0:
        raise RuntimeError(f"set-up build-code --q {q} --k {k} --gcd {gcd} failed: {out}")
    path.write_text(out, encoding="utf-8")


def _write_random_family(path: Path, q: str, k: int, rng: random.Random) -> int:
    """Write a seeded random subset of Poly_k of size N_k; return its predicted D.

    The family is listed in codeword order (member i generates codeword i),
    which ``analyze``'s ``family_check`` needs to line its GCD table up with
    the intersection table.
    """
    field = GF.from_spec(q)
    pool = enumerate_rule_polynomials(k, field)
    members = rng.sample(pool, max_coprime_family_size(k, field))
    kernels = {f: LinearCA(f, 2 * k).kernel() for f in members}
    members.sort(key=lambda f: kernels[f].sort_key())
    code = GrassmannianCode(field, 2 * k, kernels.values())
    doc = {
        "q": q,
        "k": k,
        "family": [f.to_string() for f in members],
        "code": code.to_json(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return predicted_min_distance(CAFamily(members))[0]


# -- menus ----------------------------------------------------------------------------


def _design_menu(size: str, rng: random.Random) -> list[Op]:
    builds, searches = _DESIGN[size]
    ops = []
    for q, k in builds:
        field = GF.from_spec(q)
        for t, gcd in ((0, "1"), (1, _degree_one_gcd(field, rng))):
            argv = ("build-code", "--q", q, "--k", str(k), "--gcd", gcd)
            ops.append(Op(argv, _checked(_check_build_code, k=k, t=t)))
    for q, k, t in searches:
        argv = ("search-max", "--q", q, "--k", str(k), "--t", str(t))
        ops.append(Op(argv, _checked(_check_search_max, q=q, k=k, t=t)))
    return ops


def _certify_menu(size: str, rng: random.Random, workdir: Path, call: Call) -> list[Op]:
    both, uniform_only = _CERTIFY[size]
    ops = []
    for q, k in both + uniform_only:
        field = GF.from_spec(q)
        path = workdir / f"uniform_q{q}_k{k}.json"
        _write_build_code(call, path, q, k, _degree_one_gcd(field, rng))
        ops.append(Op(("analyze", "--code", path.as_posix()),
                      _checked(_check_analyze, min_distance=2 * k - 2)))
        if (q, k) in uniform_only:
            continue
        path = workdir / f"random_q{q}_k{k}.json"
        d = _write_random_family(path, q, k, rng)
        ops.append(Op(("analyze", "--code", path.as_posix()),
                      _checked(_check_analyze, min_distance=d)))
    return ops


def _channel_menu(size: str, rng: random.Random, workdir: Path, call: Call) -> list[Op]:
    codes, trials = _CHANNEL[size]
    ops = []
    for q, k in codes:
        path = workdir / f"coprime_q{q}_k{k}.json"
        _write_build_code(call, path, q, k, "1")
        for erasures, errors in _NOISE:
            argv = ("simulate", "--code", path.as_posix(),
                    "--erasures", str(erasures), "--errors", str(errors),
                    "--trials", str(trials), "--seed", str(rng.randrange(2**31)))
            ops.append(Op(argv, _checked(
                _check_simulate, erasures=erasures, errors=errors,
                trials=trials, min_distance=2 * k,
            )))
    return ops


# -- checks ----------------------------------------------------------------------------


def _checked(check, **expected) -> Callable[[str], "str | None"]:
    """Bind a check's expectations; malformed output is a failure, not a crash."""

    def run(out: str) -> "str | None":
        try:
            return check(json.loads(out), **expected)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    return run


def _check_build_code(doc: dict, k: int, t: int) -> "str | None":
    if doc["size"] != doc["expected_size"]:
        return f"size {doc['size']} != expected_size {doc['expected_size']}"
    if doc["predicted_min_distance"] != 2 * k - 2 * t:
        return f"predicted_min_distance {doc['predicted_min_distance']} != {2 * k - 2 * t}"
    words = doc["code"]["codewords"]
    if len(words) != doc["size"]:
        return f"{len(words)} codewords for a family of {doc['size']}"
    if any(len(w) != k for w in words):
        return f"a codeword does not have dimension {k}"
    return None


def _check_search_max(doc: dict, q: str, k: int, t: int) -> "str | None":
    field = GF.from_spec(q)
    members = [Polynomial.from_string(field, s) for s in doc["family"]]
    if len(members) != doc["size"]:
        return f"family lists {len(members)} members, size says {doc['size']}"
    if t == 0:
        want = max_coprime_family_size(k, field)
        if doc["size"] != want:
            return f"size {doc['size']} != N_k {want}"
        return None
    report = verify_family(members, t=t)
    if not report.ok:
        return f"verify_family: {report.detail}"
    floor = expected_uniform_gcd_size(k, t, field)
    if doc["size"] < floor:
        return f"size {doc['size']} < uniform-gcd size {floor}"
    return None


def _check_analyze(doc: dict, min_distance: int) -> "str | None":
    if doc["family_check"].get("consistent") is not True:
        return "family_check is not consistent"
    if doc["params"]["min_distance"] != min_distance:
        return f"min_distance {doc['params']['min_distance']} != predicted {min_distance}"
    return None


def _check_simulate(
    doc: dict, erasures: int, errors: int, trials: int, min_distance: int
) -> "str | None":
    counted = doc["successes"] + doc["ambiguities"] + doc["failures"]
    histogram = sum(doc["distance_histogram"].values())
    if not counted == histogram == trials:
        return f"outcomes {counted}, histogram {histogram}, trials {trials} disagree"
    if doc["code"]["min_distance"] != min_distance:
        return f"code min_distance {doc['code']['min_distance']} != {min_distance}"
    if 2 * (erasures + errors) < min_distance and doc["success_rate"] != 1.0:
        return f"success_rate {doc['success_rate']} inside the 2d < D region"
    return None
