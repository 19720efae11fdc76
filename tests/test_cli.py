"""End-to-end CLI tests: run main() in process and parse stdout."""

import hashlib
import itertools
import json
import sys
import time

import pytest

import cacodes.algebra as algebra_module
import cacodes.channel as channel_module
import cacodes.families as families_module
from cacodes import __version__
from cacodes.algebra import GF, Polynomial
from cacodes.cli import main
from cacodes.families import CAFamily, code_from_family


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
    ],
    ids=" ".join,
)
def test_malformed_input_is_a_json_error(capsys, code_file, argv):
    code, doc = run_json(capsys, *(a.format(code=code_file) for a in argv))
    assert code == 1
    assert set(doc["error"]) == {"name", "message"}


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
    ],
    ids=json.dumps,
)
def test_malformed_code_document_is_a_json_error(capsys, tmp_path, document):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for command in ("analyze", "simulate"):
        code, doc = run_json(capsys, command, "--code", str(path))
        assert code == 1
        assert doc["error"]["name"] == "ParseError"


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


def test_option_given_the_separator_is_a_json_error(capsys):
    # argparse turns "--q=--" into an empty list instead of a string
    code, doc = run_json(capsys, "count", "--q=--", "--k", "2")
    assert code == 1
    assert doc["error"]["name"] == "ParseError"


def test_broken_decoding_guarantee_is_a_json_error(capsys, code_file, monkeypatch):
    # a decoder that always answers codeword 0 breaks 2 d < D whenever 1 is sent
    def always_zero(code, U, sent_index=None):
        return channel_module.TrialResult(
            received=U, decoded_index=0, ambiguous=False, tied=(0,),
            min_distance_found=0, sent_index=sent_index,
            distance_to_sent=channel_module.subspace_distance(code[sent_index], U),
        )

    monkeypatch.setattr(channel_module, "decode_min_distance", always_zero)
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
