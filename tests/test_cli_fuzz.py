"""Property test of the CLI edges: malformed input is a JSON error, never a traceback.

Every subcommand is run in process on drawn field specs, polynomial text and
code-JSON documents.  ``main`` must return 0 or 1, print one JSON document,
and carry an ``error`` with a name and a message whenever it returns 1.
Sizes are kept small (degrees, lattice lengths, codewords, trials) so each
example runs in milliseconds.  The examples are derandomized, so the suite
draws the same inputs on every run.
"""

import contextlib
import io
import json
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from cacodes.cli import main  # noqa: E402

FUZZ = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Fields over which every family the CLI builds for k <= 3 is small.
SMALL_SPECS = ["2", "3", "2^2"]

# Specs that never name a field: no decimal digit at all, a non-prime p,
# an extension degree outside 1..4, a prime above the spec bound, or a
# broken layout.
bad_specs = st.one_of(
    st.text(st.characters(exclude_categories=("Nd",)), max_size=5),
    st.builds("{}^{}".format, st.sampled_from([-3, 0, 1, 4, 6, 9]), st.integers(-2, 6)),
    st.builds("{}^{}".format, st.sampled_from([2, 3]), st.sampled_from([-1, 0, 5, 6])),
    st.integers(2**31, 2**64).map(str),
    st.sampled_from(["", "2^", "^2", "2^2^2", "2.0", "1e3", "0x2", str(2**61 - 1)]),
)
family_specs = st.one_of(st.sampled_from(SMALL_SPECS), bad_specs)
# Free text may also name a larger field; fine where the cost does not grow
# with q^k (kernels, code files).
any_specs = st.one_of(family_specs, st.text("0123^ +-_", max_size=5))

digits = st.integers(-2, 9)
poly_texts = st.one_of(
    st.lists(digits, max_size=5).map(lambda cs: ",".join(map(str, cs))),
    st.lists(st.lists(digits, max_size=3), min_size=1, max_size=4).map(
        lambda cs: ",".join("[" + ",".join(map(str, c)) + "]" for c in cs)
    ),
    st.text("0123,[] -x", max_size=8),
)
small = st.integers(-1, 3)

# Code documents: well-formed codes over small fields next to every kind of
# damage (ragged rows, wrong q, n mismatch, non-lists, out-of-range codes,
# non-string family entries, missing keys).
junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))
entries = st.one_of(digits, st.lists(st.integers(-1, 3), max_size=3), junk)
rows = st.one_of(st.lists(entries, max_size=4), entries)
matrices = st.one_of(st.lists(rows, max_size=3), entries)


@st.composite
def valid_codes(draw):
    spec = draw(st.sampled_from(SMALL_SPECS))
    q, m = (4, 2) if spec == "2^2" else (int(spec), 1)
    n = draw(st.integers(1, 4))
    entry = st.integers(0, q - 1)
    if m > 1:
        entry = st.lists(st.integers(0, 1), min_size=2, max_size=2)
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3)
    words = draw(st.lists(matrix, max_size=4))
    code = {"q": spec, "n": n, "codewords": words}
    damage = draw(st.sampled_from([None, "q", "n"]))
    if damage is not None:  # a wrong field or ambient length for good rows
        code[damage] = draw(any_specs if damage == "q" else st.integers(0, 5))
    return code


bare_codes = st.one_of(
    valid_codes(),
    st.fixed_dictionaries(
        {},
        optional={
            "q": st.one_of(any_specs, digits, junk),
            "n": st.one_of(st.integers(-1, 5), junk),
            "codewords": st.one_of(st.lists(matrices, max_size=4), entries),
        },
    ),
)
families = st.one_of(st.lists(st.one_of(poly_texts, digits, junk), max_size=3), entries)
documents = st.one_of(
    bare_codes,
    st.fixed_dictionaries(
        {"code": bare_codes},
        optional={"q": st.one_of(any_specs, digits, junk), "k": small, "family": families},
    ),
    st.lists(digits, max_size=2),
    digits,
)


def check(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(list(argv))
    out = json.loads(stdout.getvalue())
    assert code in (0, 1)
    if code == 1:
        assert set(out) == {"error"}
        assert set(out["error"]) == {"name", "message"}
    else:
        assert "error" not in out
    return out


@FUZZ
@given(spec=any_specs, poly=poly_texts, n=st.integers(-2, 10))
def test_kernel(spec, poly, n):
    check("kernel", f"--q={spec}", f"--poly={poly}", f"--n={n}")


@FUZZ
@given(spec=family_specs, k=small, gcd=poly_texts)
def test_build_code(spec, k, gcd):
    check("build-code", f"--q={spec}", f"--k={k}", f"--gcd={gcd}")


@FUZZ
@given(spec=any_specs, k=small, t=st.one_of(st.none(), small))
def test_count(spec, k, t):
    check("count", f"--q={spec}", f"--k={k}", *([] if t is None else [f"--t={t}"]))


@FUZZ
@given(spec=family_specs, k=small, t=small, budget=st.integers(-1, 600))
def test_search_max(spec, k, t, budget):
    check("search-max", f"--q={spec}", f"--k={k}", f"--t={t}", f"--budget={budget}")


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "code.json"


@FUZZ
@given(
    document=documents,
    erasures=small,
    errors=small,
    trials=st.integers(-1, 3),
    seed=st.integers(0, 3),
)
def test_analyze_and_simulate(doc_path, document, erasures, errors, trials, seed):
    doc_path.write_text(json.dumps(document), encoding="utf-8")
    check("analyze", f"--code={doc_path}")
    check(
        "simulate", f"--code={doc_path}", f"--erasures={erasures}",
        f"--errors={errors}", f"--trials={trials}", f"--seed={seed}",
    )


@FUZZ
@given(document=documents, digits=st.integers(4301, 6000))
def test_oversized_integer_literal(doc_path, document, digits):
    # an integer literal longer than Python converts from text, in place of
    # the document's first integer value, or beside the whole document
    text, literal = json.dumps(document), "1" * digits
    spliced = re.sub(r"(?<=[\[ ])-?\d+(?=[,\]}])", literal, text, count=1)
    if spliced == text:
        spliced = f"[{literal}, {text}]"
    doc_path.write_text(spliced, encoding="utf-8")
    try:
        json.loads(spliced)
        unreadable = False
    except ValueError:
        unreadable = True
    for command in ("analyze", "simulate"):
        out = check(command, f"--code={doc_path}")
        if unreadable:
            assert out["error"]["name"] == "ParseError"
