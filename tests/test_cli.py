"""End-to-end CLI tests: run main() in process and parse stdout."""

import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import cacodes.algebra as algebra_module
import cacodes.channel as channel_module
import cacodes.families as families_module
from cacodes import __version__
from cacodes.algebra import GF, Polynomial, poly_gcd
from cacodes import cli
from cacodes.cli import main
from cacodes.ca import LinearCA
from cacodes.families import CAFamily, code_from_family, enumerate_rule_polynomials
from cacodes.subspaces import GrassmannianCode, Subspace, subspace_distance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# -- manifests and byte stability ------------------------------------------------------


def test_manifest_identifies_the_run(capsys):
    code, doc = run_json(capsys, "count", "--q", "2", "--k", "3")
    assert code == 0
    m = doc["manifest"]
    assert m["subcommand"] == "count"
    assert m["version"] == __version__
    assert m["field"] == "2"
    assert m["args"]["k"] == 3


def test_repeated_runs_are_byte_identical(capsys):
    _, first = run(capsys, "count", "--q", "3", "--k", "2", "--t", "1")
    _, second = run(capsys, "count", "--q", "3", "--k", "2", "--t", "1")
    assert first == second


# -- count ------------------------------------------------------------------------------


def test_count_reports_both_family_bounds(capsys):
    code, doc = run_json(capsys, "count", "--q", "2", "--k", "3")
    assert code == 0
    assert doc["N_k"] == 3
    assert doc["N_k_with_x"] == 4
    assert doc["terms"]["1"] == {"gauss": 2, "x_excluded": 1}
    assert doc["terms"]["3"] == {"gauss": 2, "x_excluded": 2}


def test_count_with_gcd_degree(capsys):
    code, doc = run_json(capsys, "count", "--q", "2", "--k", "3", "--t", "1")
    assert code == 0
    assert doc["t"] == 1
    assert doc["uniform_gcd_size"] == 2
    assert doc["uniform_gcd_size_with_x"] == 3


def test_count_csv(capsys):
    code, out = run(capsys, "count", "--q", "2", "--k", "3", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "degree,irreducibles,irreducibles_excluding_x",
        "1,2,1",
        "2,1,1",
        "3,2,2",
    ]


@pytest.mark.parametrize("q, k", [("2", "20000"), ("7", "6000")])
@pytest.mark.parametrize("csv", [[], ["--csv"]])
def test_count_beyond_printable_digits_is_a_json_error(capsys, q, k, csv):
    # 2^20000 and 7^6000 have 6,021 and 5,071 digits, past Python's default
    # limit of 4,300; k = 20000 is refused before q^k is computed
    code, doc = run_json(capsys, "count", "--q", q, "--k", k, *csv)
    assert code == 1
    assert doc["error"]["name"] == "DegreeTooLarge"


def test_count_digit_bound_is_q_to_the_k(capsys):
    # 2^2126 has 640 digits, the least limit Python accepts; 2^2127 has 641
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run(capsys, "count", "--q", "2", "--k", "2126", "--csv")[0] == 0
        code, doc = run_json(capsys, "count", "--q", "2", "--k", "2127")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert doc["error"]["name"] == "DegreeTooLarge"


# -- kernel ------------------------------------------------------------------------------


def test_kernel_basis(capsys):
    code, doc = run_json(capsys, "kernel", "--q", "2", "--poly", "1,1,1", "--n", "4")
    assert code == 0
    assert doc["k"] == 2 and doc["dim"] == 2
    assert doc["rule_display"] == "1 + X + X^2"
    assert doc["basis"] == [[1, 0, 1, 1], [0, 1, 1, 0]]


def test_kernel_extension_field(capsys):
    code, doc = run_json(
        capsys, "kernel", "--q", "2^2", "--poly", "[0,1],[1,0]", "--n", "2"
    )
    assert code == 0
    assert doc["q"] == "2^2" and doc["dim"] == 1


# -- build-code and analyze ----------------------------------------------------------------


def test_build_code_then_analyze_round_trip(capsys, tmp_path):
    code, doc = run_json(capsys, "build-code", "--q", "2", "--k", "2")
    assert code == 0
    assert doc["family"] == ["1,0,1", "1,1,1"]
    assert doc["size"] == doc["expected_size"] == 2
    assert doc["predicted_min_distance"] == 4
    assert doc["code"]["n"] == 4 and len(doc["code"]["codewords"]) == 2

    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, analysis = run_json(capsys, "analyze", "--code", str(path))
    assert code == 0
    assert analysis["params"]["min_distance"] == 4
    assert analysis["params"]["size"] == 2
    assert analysis["gcd_profile"]["max_gcd_degree"] == 0
    assert analysis["family_check"]["consistent"] is True


def test_analyze_bare_code_file(capsys, tmp_path):
    _, doc = run_json(capsys, "build-code", "--q", "2", "--k", "3", "--gcd", "1,1")
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc["code"]), encoding="utf-8")
    code, analysis = run_json(capsys, "analyze", "--code", str(path))
    assert code == 0
    assert "family_check" not in analysis
    assert analysis["params"]["constant_dim"] == 3
    assert analysis["gcd_profile"]["max_gcd_degree"] == 1
    assert analysis["params"]["min_distance"] == 4


# GF(2), k = 3: gcd(1 + X^3, (1 + X)^3) = 1 + X, every other pair coprime
ORDER_FAMILY = ["1,0,0,1", "1,1,1,1", "1,1,0,1"]


def write_family_doc(path, family, code_family=ORDER_FAMILY):
    fam = CAFamily([Polynomial.from_string(GF(2), s) for s in code_family])
    doc = {"q": "2", "k": 3, "family": family, "code": code_from_family(fam).to_json()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("family", list(itertools.permutations(ORDER_FAMILY)), ids=",".join)
def test_family_check_ignores_member_order(capsys, tmp_path, family):
    path = write_family_doc(tmp_path / "family.json", list(family))
    code, doc = run_json(capsys, "analyze", "--code", path)
    assert code == 0
    assert doc["params"]["min_distance"] == 4
    assert doc["family_check"]["predicted_min_distance"] == 4
    assert doc["family_check"]["consistent"] is True


@pytest.mark.parametrize(
    "family",
    [*itertools.permutations(ORDER_FAMILY), ["1,0,0,1", "1,0,1,1", "1,1,1,1"]],
    ids=",".join,
)
def test_family_check_reads_no_k(capsys, tmp_path, family):
    path = tmp_path / "family.json"
    write_family_doc(path, list(family))
    _, with_k = run_json(capsys, "analyze", "--code", str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["k"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, without_k = run_json(capsys, "analyze", "--code", str(path))
    assert code == 0
    assert without_k["family_check"] == with_k["family_check"]


@pytest.mark.parametrize(
    "family",
    [
        # 1 + X^2 + X^3 in place of 1 + X + X^3: the same GCD table, entry
        # for entry, and the same distance, but its kernel is not a codeword
        ["1,0,0,1", "1,0,1,1", "1,1,1,1"],
        # the pair at distance 4 alone: it generates only part of the code
        ["1,0,0,1", "1,1,1,1"],
    ],
    ids=["outside", "subset"],
)
def test_family_check_needs_exactly_the_codewords(capsys, tmp_path, family):
    path = write_family_doc(tmp_path / "family.json", family)
    code, doc = run_json(capsys, "analyze", "--code", path)
    assert code == 0
    assert doc["family_check"]["predicted_min_distance"] == doc["params"]["min_distance"] == 4
    assert doc["family_check"]["consistent"] is False


@pytest.mark.parametrize(
    "q, code_family, family, name, message",
    [
        ("3", ["1,0,1", "2,0,1"], ["1,0,1", "2,0,2"], "NotBipermutive",
         "rule leading coefficient a_k must be 1; see Polynomial.monic()"),
        ("2", ORDER_FAMILY, ["1,0,0,1", "1,1,1,1", "1,0,0,1"], "DuplicateMember",
         "family members must be pairwise distinct"),
        ("2", ORDER_FAMILY, ["1,0,0,1", "0,1,1,1", "1,1,0,1"], "NotBipermutive",
         "rule constant term a_0 must be nonzero"),
        ("2", ORDER_FAMILY, ["1,0,0,1", "1,1", "1,1,0,1"], "InvalidDegree",
         "family members must all have degree 3, got 1"),
    ],
    ids=["non-monic", "duplicate", "zero constant", "mixed degrees"],
)
def test_family_check_refuses_a_listed_family_that_is_none(
    capsys, tmp_path, q, code_family, family, name, message
):
    # the listed members are validated once, before the rules are compared
    field = GF.from_spec(q)
    code = code_from_family(CAFamily([Polynomial.from_string(field, s) for s in code_family]))
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"q": q, "family": family, "code": code.to_json()}), encoding="utf-8")
    code, doc = run_json(capsys, "analyze", "--code", str(path))
    assert code == 1
    assert doc == {"error": {"name": name, "message": message}}


def test_family_check_validates_the_listed_members_once(capsys, tmp_path, monkeypatch):
    built = []
    init = families_module.CAFamily.__init__

    def counted(self, members):
        built.append(1)
        init(self, members)

    path = write_family_doc(tmp_path / "family.json", list(reversed(ORDER_FAMILY)))
    monkeypatch.setattr(families_module.CAFamily, "__init__", counted)
    code, doc = run_json(capsys, "analyze", "--code", path)
    assert code == 0 and doc["family_check"]["consistent"] is True
    assert built == [1]


def kernel_rows(family, n):
    return [
        LinearCA(Polynomial.from_string(GF(2), f), n).kernel().to_json() for f in family
    ]


# Codewords in place of 1 + X + X^3's kernel, [[1, 0, 0, 1, 0, 1],
# [0, 1, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1]].  The first two still read (1, 1, 0)
# in column k and so name that member, though they are not its kernel; the
# third reads (0, 1, 1), which names X + X^2 + X^3, no rule at all
REPLACEMENTS = {
    # the same pivots 0, 1, 2, one entry past column k flipped
    "not the kernel": [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1]],
    "pivots 0,1,4": [[1, 0, 0, 1, 0, 1], [0, 1, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]],
    "zero constant": [[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 1, 1, 0, 1]],
}


@pytest.mark.parametrize(
    "q, n, replaced",
    [
        ("2", 6, "not the kernel"),
        ("2", 6, "pivots 0,1,4"),
        ("2", 6, "zero constant"),
        ("2", 8, None),
        ("3", 6, None),
    ],
    ids=["not the kernel", "pivots 0,1,4", "zero constant", "n = 8 != 2k", "family over GF(3)"],
)
def test_family_check_refuses_a_code_it_does_not_generate(capsys, tmp_path, q, n, replaced):
    words = kernel_rows(ORDER_FAMILY, n)
    if replaced is not None:
        assert words[2] != REPLACEMENTS[replaced]
        words[2] = REPLACEMENTS[replaced]
    doc = {"q": q, "k": 3, "family": ORDER_FAMILY, "code": {"q": "2", "n": n, "codewords": words}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, doc = run_json(capsys, "analyze", "--code", str(path))
    assert code == 0
    assert doc["family_check"]["consistent"] is False


@pytest.mark.parametrize(
    "q, order, consistent, distance",
    [("3", -1, True, 6), ("3^1", 1, True, 6), ("5", 1, False, 4)],
    ids=["reversed", "3^1 built apart", "5 on the same rows"],
)
def test_family_check_matches_rules_by_field_and_row(capsys, tmp_path, q, order, consistent, distance):
    # a GF(3) build-code document's rules against its family listed reversed,
    # over an equal field built apart, and over GF(5), whose members pack to
    # the same rows; GF(5) finds a shared factor that GF(3) does not
    status, doc = run_json(capsys, "build-code", "--q", "3", "--k", "3")
    assert status == 0
    family = doc["family"][::order]
    rows = [Polynomial.from_string(GF.from_spec(q), f).row for f in family]
    assert rows == [Polynomial.from_string(GF(3), f).row for f in family]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**doc, "q": q, "family": family}), encoding="utf-8")
    status, out = run_json(capsys, "analyze", "--code", str(path))
    assert status == 0
    assert out["family_check"] == {
        "family": family, "consistent": consistent, "predicted_min_distance": distance
    }


def generates_oracle(listed, code):
    """Slow reference of ``family_check.consistent``: the listed members'
    kernels are the codewords, and each pair's GCD degree is k - d/2, with d
    the distance of the pair's kernels by their stacked elimination."""
    kernels = [LinearCA(f, 2 * f.degree).kernel() for f in listed]
    return set(kernels) == set(code.codewords) and all(
        poly_gcd(f, g).degree == f.degree - subspace_distance(a, b) // 2
        for (f, a), (g, b) in itertools.combinations(zip(listed, kernels), 2)
    )


@pytest.mark.parametrize(
    "spec, degrees", [("2", (3, 4, 5, 6)), ("3", (2, 3, 4)), ("2^2", (2, 3))], ids=str
)
def test_family_check_matches_the_slow_reference(capsys, tmp_path, monkeypatch, spec, degrees):
    # each random family's code against its members, one member swapped for
    # a non-member, and one member dropped, each listed in shuffled order;
    # the sieve and, past _SIEVE_LIMIT, each pair's poly_gcd give one check
    field = GF.from_spec(spec)
    rng = random.Random(spec)
    path = tmp_path / "family.json"
    verdicts = []

    def check(k, listed, code):
        doc = {"q": spec, "k": k, "family": [f.to_string() for f in listed], "code": code.to_json()}
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out = run_json(capsys, "analyze", "--code", str(path))
        assert status == 0
        expected = generates_oracle(listed, code)
        assert out["family_check"]["consistent"] is expected
        verdicts.append(expected)
        if len(listed) >= 2:
            top = max(poly_gcd(f, g).degree for f, g in itertools.combinations(listed, 2))
            assert out["family_check"]["predicted_min_distance"] == 2 * k - 2 * top
            sieved = families_module.shared_gcd_degrees(CAFamily(listed))
            with monkeypatch.context() as patch:
                patch.setattr(families_module, "_SIEVE_LIMIT", 0)
                assert families_module.shared_gcd_degrees(CAFamily(listed)) == sieved
                assert run_json(capsys, "analyze", "--code", str(path)) == (status, out)
            assert sieved == {
                (i, j): poly_gcd(listed[i], listed[j]).degree
                for i, j in itertools.combinations(range(len(listed)), 2)
                if poly_gcd(listed[i], listed[j]).degree
            }
        return out["family_check"]

    for _ in range(30):
        k = rng.choice(degrees)
        pool = list(enumerate_rule_polynomials(k, field))
        members = rng.sample(pool, rng.randint(2, min(6, len(pool) - 1)))
        outsider = rng.choice([f for f in pool if f not in members])
        code = code_from_family(CAFamily(rng.sample(members, len(members))))
        swapped = members[:]
        swapped[rng.randrange(len(swapped))] = outsider
        variants = [members, swapped] + [members[1:]] * (len(members) > 2)
        for listed in (rng.sample(v, len(v)) for v in variants):
            check(k, listed, code)
    assert True in verdicts and False in verdicts
    # one listed member gets a verdict too, and no predicted distance: against
    # its own kernel, an outsider's, and its own with an outsider's added
    k = degrees[0]
    member, outsider = rng.sample(list(enumerate_rule_polynomials(k, field)), 2)
    for listed, kernels in (
        ([member], [member]), ([outsider], [member]), ([member], [member, outsider])
    ):
        found = check(k, listed, code_from_family(CAFamily(kernels)))
        assert "predicted_min_distance" not in found
    assert verdicts[-3:] == [True, False, False]


def test_family_check_compares_the_whole_intersection_table(capsys, tmp_path, monkeypatch):
    # a family over GF(2) at k = 4 with coprime pairs and pairs of gcd degree
    # 1 and 2 (two irreducibles, (1 + X + X^2)^2, (1 + X)^2 (1 + X + X^2) and
    # (1 + X)(1 + X + X^3)): the check holds on its own table, and fails once
    # any one entry is changed, where the GCD is 0 as where it is not
    field = GF(2)
    texts = ("1,1,0,0,1", "1,0,1,0,1", "1,1,0,1,1", "1,0,1,1,1", "1,0,0,1,1")
    listed = [Polynomial.from_string(field, t) for t in texts]
    code = code_from_family(CAFamily(listed))
    inter = code.pairwise_intersection_dims()
    assert {e for row in inter for e in row} == {0, 1, 2}
    doc = {"q": "2", "k": 4, "family": [f.to_string() for f in listed], "code": code.to_json()}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def consistent(table):
        with monkeypatch.context() as patch:
            patch.setattr(GrassmannianCode, "pairwise_intersection_dims", lambda self: table)
            status, out = run_json(capsys, "analyze", "--code", str(path))
        assert status == 0
        return out["family_check"]["consistent"]

    assert consistent(inter) is True
    for i, j in itertools.combinations(range(len(inter)), 2):
        for e in {0, 1, 3} - {inter[j][i]}:
            rows = [list(row) for row in inter]
            rows[j][i] = e
            assert consistent(tuple(map(tuple, rows))) is False, (i, j, e)


# -- search-max -------------------------------------------------------------------------------


def test_search_max_coprime_cubics(capsys):
    code, doc = run_json(capsys, "search-max", "--q", "2", "--k", "3", "--t", "0")
    assert code == 0
    assert doc["size"] == 3
    assert doc["family"] == ["1,0,0,1", "1,0,1,1", "1,1,0,1"]
    assert doc["max_gcd_degree"] == 0
    assert doc["min_distance"] == 6


def test_search_max_budget_error(capsys):
    code, doc = run_json(
        capsys, "search-max", "--q", "2", "--k", "5", "--t", "0", "--budget", "3"
    )
    assert code == 1
    assert doc["error"]["name"] == "BudgetExceeded"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_search_max_budget_must_be_positive(capsys, budget):
    code, doc = run_json(
        capsys, "search-max", "--q", "2", "--k", "3", "--t", "0", "--budget", budget
    )
    assert code == 1
    assert doc["error"]["name"] == "NonPositive"
    assert "--budget" in doc["error"]["message"]


def test_search_max_builds_one_factor_table(capsys, monkeypatch):
    built = []
    init = algebra_module.FactorTable.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra_module.FactorTable, "__init__", counted)
    code, doc = run_json(capsys, "search-max", "--q", "3", "--k", "4", "--t", "2")
    assert code == 0 and doc["max_gcd_degree"] == 2
    assert len(built) == 1


def test_build_code_reads_its_gcd_maximum_off_its_sieve(capsys, monkeypatch):
    built, profiles = [], []
    init = algebra_module.FactorTable.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra_module.FactorTable, "__init__", counted)
    profile = families_module.gcd_profile
    monkeypatch.setattr(
        families_module, "gcd_profile", lambda fam: profiles.append(1) or profile(fam)
    )
    code, doc = run_json(capsys, "build-code", "--q", "3", "--k", "4", "--gcd", "1,1")
    assert code == 0 and doc["size"] == 10 and doc["predicted_min_distance"] == 6
    # r = 4 - 1: one table to degree r // 2, whose scans reach degree r
    assert built == [(GF(3), 1)] and profiles == []


@pytest.mark.parametrize("q, last", [("2", 6), ("3", 3), ("2^2", 3), ("5", 2), ("17", 1)])
def test_build_code_admits_up_to_its_budget(capsys, monkeypatch, q, last):
    # with a budget of 2^6 the last admitted r and the first refused one are
    # read off q^r against the budget, at t = 0 and t = 1; no table is built
    # before the refusal
    built = []
    init = algebra_module.FactorTable.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(args)

    monkeypatch.setattr(algebra_module, "MAX_FACTOR_TABLE", 64)
    monkeypatch.setattr(algebra_module.FactorTable, "__init__", counted)
    field = GF.from_spec(q)
    for g in ("1", Polynomial.from_codes(field, [1, 1]).to_string()):
        k = last + (g != "1")
        code, doc = run_json(capsys, "build-code", "--q", q, "--k", str(k), "--gcd", g)
        assert code == 0 and doc["size"] == doc["expected_size"]
        built.clear()
        code, doc = run_json(capsys, "build-code", "--q", q, "--k", str(k + 1), "--gcd", g)
        assert code == 1 and doc["error"]["name"] == "BudgetExceeded"
        assert built == []


@pytest.mark.parametrize(
    "command, t, name, message",
    [
        ("count", "-1", "NonPositive", "gcd degree must be >= 0, got -1"),
        ("search-max", "-1", "NonPositive", "gcd degree bound must be >= 0, got -1"),
        ("count", "4", "DegreeTooLarge", "gcd degree 4 out of range for k = 3"),
    ],
)
def test_gcd_degree_out_of_range_is_named(capsys, command, t, name, message):
    code, doc = run_json(capsys, command, "--q", "2", "--k", "3", "--t", t)
    assert code == 1
    assert doc["error"] == {"name": name, "message": message}


# -- GCD degrees from factorizations ----------------------------------------------------------

# SHA-256 of stdout as the pairwise poly_gcd implementation printed it;
# analyze's digest leaves out the manifest, which names the file.
NO_GCD_RUNS = {
    ("build-code", "--q", "3", "--k", "4"):
        "ccfd355f192ac4bb4cb595598e64eadd02ff2bd18e4d63ac8c35ef6b46d0a295",
    ("build-code", "--q", "3", "--k", "4", "--gcd", "2,1"):
        "37bd00e7317048cbb9aea14c8e625d2b081bf5f85b45587b8f38415f58d9b463",
    ("search-max", "--q", "3", "--k", "4", "--t", "0"):
        "7e257bb9b742e4f4049b832ff3fccb415d75aedf7578431e1cf85ac1b8efa7b8",
    ("search-max", "--q", "3", "--k", "4", "--t", "2"):
        "7001d761826c057fff83cb0eabf4a740bef22c4826fb9070308fa8ca52856fcd",
}
NO_GCD_ANALYZE = "19fcec7d9e187f4be3c73d6da5f98a8e3414ed3b1dab1ca384e42e112aba1056"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_takes_no_gcds(capsys, tmp_path, monkeypatch):
    def refuse(f, g):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(families_module, "poly_gcd", refuse)
    monkeypatch.setattr(algebra_module, "poly_gcd", refuse)
    for argv, digest in NO_GCD_RUNS.items():
        code, out = run(capsys, *argv)
        assert (code, _sha256(out)) == (0, digest), argv
        if argv[-1] == "2,1":
            path = tmp_path / "code.json"
            path.write_text(out, encoding="utf-8")
    code, doc = run_json(capsys, "analyze", "--code", str(path))
    assert code == 0 and doc["family_check"]["consistent"] is True
    del doc["manifest"]
    assert _sha256(json.dumps(doc, sort_keys=True)) == NO_GCD_ANALYZE


@pytest.mark.parametrize("k", [20, 40])
def test_analyze_of_a_high_degree_pair_stays_fast(capsys, tmp_path, k):
    # a table to degree k would hold 2^(k+1) polynomials: at k = 20
    # gcd_profile sieves to 10, at k = 40 it takes the one pair's GCD
    gcd = ",".join(["1", "1"] + ["0"] * (k - 4) + ["1"])  # degree k - 2, so r = 2
    code, out = run(capsys, "build-code", "--q", "2", "--k", str(k), "--gcd", gcd)
    assert code == 0 and json.loads(out)["size"] == 2
    path = tmp_path / "code.json"
    path.write_text(out, encoding="utf-8")
    start = time.perf_counter()
    code, doc = run_json(capsys, "analyze", "--code", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and doc["family_check"]["consistent"] is True
    assert doc["family_check"]["predicted_min_distance"] == 4


def test_build_code_of_a_large_field_stays_fast(capsys):
    start = time.perf_counter()
    code, doc = run_json(capsys, "build-code", "--q", "31", "--k", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert doc["size"] == doc["expected_size"] == 31 * 30 // 2 + 30
    assert doc["predicted_min_distance"] == 4


# -- simulate ----------------------------------------------------------------------------------


@pytest.fixture
def code_file(capsys, tmp_path):
    _, doc = run_json(capsys, "build-code", "--q", "2", "--k", "2")
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_simulate_identity(capsys, code_file):
    code, doc = run_json(
        capsys, "simulate", "--code", code_file, "--trials", "25", "--seed", "5"
    )
    assert code == 0
    assert doc["success_rate"] == 1.0
    assert doc["distance_histogram"] == {"0": 25}
    assert doc["manifest"]["seed"] == 5


def test_simulate_out_file_matches_stdout(capsys, code_file, tmp_path):
    out_path = tmp_path / "stats.json"
    code, printed = run(
        capsys,
        "simulate", "--code", code_file, "--erasures", "1",
        "--trials", "30", "--seed", "9", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == printed


def test_simulate_deterministic_across_runs(capsys, code_file):
    args = ("simulate", "--code", code_file, "--erasures", "1", "--errors", "1",
            "--trials", "40", "--seed", "77")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_simulate_csv_histogram(capsys, code_file):
    code, out = run(
        capsys,
        "simulate", "--code", code_file, "--erasures", "1",
        "--trials", "10", "--seed", "2", "--csv",
    )
    assert code == 0
    assert out.splitlines() == ["distance,count", "1,10"]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_simulate_refuses_more_erasures_than_its_smallest_codeword(
    capsys, tmp_path, monkeypatch, seed
):
    # seed 0 would send the line and seed 1 the zero space: both are refused
    # before a codeword is drawn
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": "2", "n": 2, "codewords": [[], [[1, 0]]]}), encoding="utf-8")
    monkeypatch.setattr(channel_module, "transmit", None)
    code, doc = run_json(
        capsys, "simulate", "--code", str(path), "--erasures", "1", "--trials", "1", "--seed", seed
    )
    assert code == 1
    assert doc["error"] == {
        "name": "TooManyErasures",
        "message": "cannot erase 1 dimensions from a 0-dimensional codeword",
    }


# -- error reporting ------------------------------------------------------------------------------


def test_composite_field_order(capsys):
    code, doc = run_json(capsys, "count", "--q", "4", "--k", "2")
    assert code == 1
    assert doc["error"]["name"] == "NotPrime"


def test_degenerate_rule(capsys):
    code, doc = run_json(capsys, "kernel", "--q", "2", "--poly", "0,1", "--n", "4")
    assert code == 1
    assert doc["error"]["name"] == "NotBipermutive"


def test_gcd_with_zero_constant(capsys):
    code, doc = run_json(capsys, "build-code", "--q", "2", "--k", "3", "--gcd", "0,1")
    assert code == 1
    assert doc["error"]["name"] == "GZeroConstant"


def test_missing_code_file(capsys):
    code, doc = run_json(capsys, "analyze", "--code", "/nonexistent/code.json")
    assert code == 1
    assert doc["error"]["name"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--q", "2^", "--k", "2"),
        ("count", "--q", "2^x", "--k", "2"),
        ("kernel", "--q", "2", "--poly", "1,a", "--n", "4"),
        ("kernel", "--q", "2", "--poly", ",", "--n", "4"),
        # digits outside [0, p) are refused, not reduced mod p
        ("kernel", "--q", "2", "--poly", "1,5", "--n", "4"),
        ("kernel", "--q", "3", "--poly=-1,1", "--n", "4"),
        ("kernel", "--q", "2^2", "--poly", "[1,0],[5,0]", "--n", "4"),
        ("build-code", "--q", "3", "--k", "2", "--gcd", "4"),
        ("simulate", "--code", "{code}", "--erasures", "-1"),
        ("simulate", "--code", "{code}", "--trials", "0"),
        # so many trials would run for hours: refused before the first
        ("simulate", "--code", "{code}", "--trials", "1000000000000"),
        # a lattice this long would not fit in memory: refused before any row is built
        ("kernel", "--q", "2", "--poly", "1,1", "--n", "10000000000000"),
        # a factor table this large would not fit either: refused before the sieve
        ("build-code", "--q", "2", "--k", "40"),
        ("build-code", "--q", "2", "--k", "1000000000000"),
        # a code object without its field or its length, bare or in a document
        ("analyze", "--code", "{bare_without_q}"),
        ("analyze", "--code", "{bare_without_n}"),
        ("simulate", "--code", "{document_without_q}"),
        ("analyze", "--code", "{document_without_n}"),
    ],
    ids=" ".join,
)
def test_malformed_input_is_a_json_error(capsys, tmp_path, code_file, argv):
    paths = {}
    for key in ("q", "n"):
        bare = {k: v for k, v in {"q": "2", "n": 2, "codewords": []}.items() if k != key}
        for name, doc in (("bare", bare), ("document", {"code": bare})):
            path = paths[f"{name}_without_{key}"] = tmp_path / f"{name}-without-{key}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, doc = run_json(capsys, *(a.format(code=code_file, **paths) for a in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert set(doc["error"]) == {"name", "message"}
    if "without" in argv[-1]:
        missing = argv[-1].strip("{}").rsplit("_", 1)[1]
        assert doc["error"] == {"name": "ParseError", "message": f"a code object needs {missing!r}"}


@pytest.mark.parametrize(
    "argv, message",
    [
        # int() reads these, so 1_2 was 12 and a fullwidth 3 was GF(3)
        (("kernel", "--q", "13", "--poly", "1_2,1", "--n", "2"), "malformed integer '1_2' in '1_2,1'"),
        (("kernel", "--q", "3", "--poly", "+1,1", "--n", "2"), "malformed integer '+1' in '+1,1'"),
        (("kernel", "--q", "3", "--poly", "1,\uff11", "--n", "2"), "malformed integer '\uff11' in '1,\uff11'"),
        (("kernel", "--q", "2^2", "--poly", "[1,0],[0,1_0]", "--n", "2"),
         "malformed integer '1_0' in '[1,0],[0,1_0]'"),
        (("count", "--q", "\uff13", "--k", "2"), "malformed integer '\uff13' in '\uff13'"),
        (("count", "--q", "2^\u0662", "--k", "2"), "malformed integer '\u0662' in '2^\u0662'"),
        # a minus sign still parses, so a negative digit is named as before
        (("kernel", "--q", "3", "--poly=-1,1", "--n", "2"), "-1 is not a residue in [0, 3)"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_an_integer_is_ascii_digits_after_an_optional_minus(capsys, argv, message):
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["error"] == {"name": "ParseError", "message": message}


@pytest.mark.parametrize(
    "document",
    [
        {"q": "2", "n": 2, "codewords": [[[1, "a"]]]},
        {"q": "2", "n": 2, "codewords": [[[1, 1.5]]]},
        {"q": "2", "n": 2, "codewords": [[[1, True]]]},
        {"q": "2^2", "n": 2, "codewords": [[[[1, 0], [0, "1"]]]]},
        {"q": "2", "n": 2, "codewords": 5},
        {"q": "2", "n": 2, "codewords": [5]},
        {"q": "2", "n": 2, "codewords": [[[1, 0], 7]]},
        {"q": "2^2", "n": 2, "codewords": [[[[1], [0, 1]]]]},
        {"q": "2^2", "n": 2, "codewords": [[[[1, 0], 3]]]},
        {"q": 2, "n": 2, "codewords": []},
        {"q": "2", "n": "two", "codewords": []},
        {"q": "2", "n": -1, "codewords": [[]]},
        {"q": "3", "n": 2, "codewords": [[[1, 7]]]},
        {"q": "3", "n": 2, "codewords": [[[-1, 1]]]},
        {"q": "2^2", "n": 2, "codewords": [[[[1, 0], [5, 0]]]]},
        # an ambient space this long would not fit in memory
        {"q": "2", "n": 10000000000000, "codewords": [[]]},
    ],
    ids=json.dumps,
)
def test_malformed_code_document_is_a_json_error(capsys, tmp_path, document):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for command in ("analyze", "simulate"):
        start = time.perf_counter()
        code, doc = run_json(capsys, command, "--code", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert doc["error"]["name"] == "ParseError"


@pytest.mark.parametrize("document", [[1, 2], {"x": 1}, {"code": 5}], ids=json.dumps)
def test_file_without_a_code_object_is_a_parse_error(capsys, tmp_path, document):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for command in ("analyze", "simulate"):
        code, doc = run_json(capsys, command, "--code", str(path))
        assert code == 1
        assert doc["error"] == {
            "name": "ParseError",
            "message": f"{path} does not contain a code object",
        }


# bytes that are no UTF-8, arrays nested deeper than the JSON decoder
# recurses, and an integer literal longer than Python converts from text
@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"q": "2", "n": 2, "codewords": [[[1, ' + b"1" * 5000 + b"]]]}",
    ],
    ids=["not-utf8", "deep-nesting", "oversized-integer"],
)
def test_undecodable_code_file_is_a_json_error(capsys, tmp_path, content):
    path = tmp_path / "code.json"
    path.write_bytes(content)
    for command in ("analyze", "simulate"):
        assert main([command, "--code", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert set(json.loads(captured.out)) == {"error"}
        assert json.loads(captured.out)["error"]["name"] == "ParseError"


# GF(3) codewords whose first row is clean and whose second has one fault:
# the load path refuses the codeword and the per-entry checker names the fault
@pytest.mark.parametrize(
    "rows, name, message",
    [
        ([[1, 0, 2], [0, 1, True]], "ParseError", "True is not an integer"),
        ([[1, 0, 2], [0, 1, -1]], "ParseError", "-1 is not a residue in [0, 3)"),
        ([[1, 0, 2], [0, 1, 3]], "ParseError", "3 is not a residue in [0, 3)"),
        ([[1, 0, 2], [0, 1, 1.0]], "ParseError", "1.0 is not an integer"),
        ([[1, 0, 2], [0, 1, "1"]], "ParseError", "'1' is not an integer"),
        ([[1, 0, 2], [0, 1, [1]]], "ParseError", "[1] is not an integer"),
        ([[1, 0, 2], [0, 1, None]], "ParseError", "None is not an integer"),
        ([[1, 0, 2], [0, 1]], "LengthMismatch", "matrix rows have unequal lengths"),
        ([[1, 0, 2, 0], [0, 1, 1, 0]], "LengthMismatch", "rows have 4 columns, expected 3"),
    ],
    ids=json.dumps,
)
def test_malformed_row_after_a_clean_row(capsys, tmp_path, rows, name, message):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": "3", "n": 3, "codewords": [rows]}), encoding="utf-8")
    for command in ("analyze", "simulate"):
        code, doc = run_json(capsys, command, "--code", str(path))
        assert code == 1
        assert doc["error"] == {"name": name, "message": message}


def test_malformed_json_keeps_its_error_name(capsys, tmp_path):
    path = tmp_path / "code.json"
    path.write_text('{"q": "2", "n": 2, "codewords": [[[1, 0]]', encoding="utf-8")
    for command in ("analyze", "simulate"):
        code, doc = run_json(capsys, command, "--code", str(path))
        assert code == 1
        assert doc["error"]["name"] == "JSONDecodeError"


def test_rows_that_are_no_rref_load_to_their_span(capsys, tmp_path):
    rows = [[2, 1, 0, 1], [1, 1, 1, 0], [1, 0, 2, 1]]  # the third is the first minus the second
    document = {"q": "3", "n": 4, "codewords": [rows, [[0, 0, 1, 1]]]}
    code = GrassmannianCode.from_json(document)
    assert [w.basis.rows for w in code] == [((0, 0, 1, 1),), ((1, 0, 2, 1), (0, 1, 2, 2))]
    assert code[1] == Subspace(GF(3), 4, rows)
    path = tmp_path / "code.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    status, doc = run_json(capsys, "analyze", "--code", str(path))
    assert status == 0 and doc["gcd_profile"]["table"] == [[], [0]]


@pytest.mark.parametrize(
    "changes",
    [{"family": [5, 6]}, {"family": [None]}, {"family": 5}, {"q": 2}, {"q": None}],
    ids=json.dumps,
)
def test_malformed_family_document_is_a_json_error(capsys, tmp_path, changes):
    path = tmp_path / "family.json"
    write_family_doc(path, ORDER_FAMILY)
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**doc, **changes}), encoding="utf-8")
    code, out = run_json(capsys, "analyze", "--code", str(path))
    assert code == 1
    assert out["error"]["name"] == "ParseError"


@pytest.mark.parametrize("p", [2**31 + 11, 2**61 - 1])
def test_prime_above_the_spec_bound_is_refused(capsys, p):
    # 2^31 + 11 is the first prime past the bound; 2^61 - 1 would keep trial
    # division busy for minutes
    code, doc = run_json(capsys, "count", "--q", str(p), "--k", "2")
    assert code == 1
    assert doc["error"]["name"] == "PrimeTooLarge"


@pytest.mark.parametrize("spec", ["1009^4", "2147483647^2"])
def test_extension_with_too_long_a_modulus_search_is_refused(capsys, spec):
    # GF(101^4)'s search took 26 s; these would run for hours
    start = time.perf_counter()
    code, doc = run_json(capsys, "kernel", "--q", spec, "--poly", "1,1", "--n", "2")
    assert code == 1
    assert doc["error"]["name"] == "ExtensionTooLarge"
    assert time.perf_counter() - start < 1


def test_option_given_the_separator_is_a_json_error(capsys):
    # argparse turns "--q=--" into an empty list instead of a string
    code, doc = run_json(capsys, "count", "--q=--", "--k", "2")
    assert code == 1
    assert doc["error"]["name"] == "ParseError"


def test_broken_decoding_guarantee_is_a_json_error(capsys, code_file, monkeypatch):
    # a decoder that always answers codeword 0 breaks 2 d < D whenever 1 is sent
    def always_zero(code, rows, dim_u, first):
        word = code[first]
        exact = {0: 0, first: 2 * channel_module._joint_rank(word, rows) - word.dim - dim_u}
        return min(exact.values()), exact

    monkeypatch.setattr(channel_module, "_nearest", always_zero)
    code, doc = run_json(capsys, "simulate", "--code", code_file, "--trials", "20")
    assert code == 1
    assert doc["error"]["name"] == "GuaranteeViolated"


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--trials", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_reused_parser_leaks_no_state(capsys, code_file):
    commands = [
        ("simulate", "--code", code_file, "--erasures", "1", "--trials", "15", "--seed", "4"),
        ("analyze", "--code", code_file),
        ("simulate", "--code", code_file, "--errors", "1", "--trials", "12", "--csv"),
        ("simulate", "--trials", "5"),  # no --code: a usage error
        ("simulate", "--code", code_file, "--trials", "9"),
    ]
    commands.append(commands[0])
    # each command run first: alone, in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    script = "import sys; from cacodes.cli import main; sys.exit(main(sys.argv[1:]))"
    alone = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))

    def in_process(argv):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    assert [in_process(argv) for argv in commands] == alone
    assert cli._build_parser() is parser
    assert [status for status, _, _ in alone] == [0, 0, 0, 2, 0, 0]
    assert "--code" in alone[3][2] and alone[3][1] == ""
