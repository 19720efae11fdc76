"""The pinned output format: every document is printed as the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, by the one writer in ``cli``,
which streams a document in pieces and writes each codeword off its entry
sequence; ``to_json`` with ``json.dumps`` is the slow reference."""

import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from cacodes import cli
from cacodes.algebra import GF, Polynomial
from cacodes.ca import LinearCA
from cacodes.cli import main
from cacodes.subspaces import GrassmannianCode, Subspace

FLOATS = [0.1, -0.0, 1e16, float("nan"), float("inf"), float("-inf"), 2.5e-300]
INTS = [0, -1, 7, -(10**99) - 3, 10**99 + 7, 2**64]
STRINGS = [
    "", "a", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
    "café", "  ", "\U0001d54a astral", "lone \ud800 surrogate", "\udfff",
    "/", "ÿĀ",
]


def scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(INTS + [rng.randrange(-1000, 1000)])
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice(FLOATS)
    return rng.choice(STRINGS)


def document(rng, depth):
    kind = rng.randrange(6) if depth else 5
    if kind == 0:
        return {rng.choice(STRINGS): document(rng, depth - 1) for _ in range(rng.randrange(5))}
    if kind == 1:
        return [document(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 2:
        return tuple(document(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind == 3:  # the int-row hot path, with a bool or None slipped in at times
        row = [rng.choice(INTS + [rng.randrange(-9, 9)]) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.3:
            row.insert(rng.randrange(len(row) + 1), rng.choice([True, False, None, 1.0]))
        return row
    if kind == 4:
        return rng.choice([{}, [], (), [[]], {"": {}}, [{}, []], {"e": [[], ()]}])
    return scalar(rng)


def pinned(x):
    return json.dumps(x, indent=2, sort_keys=True)


@pytest.mark.parametrize("seed", range(40))
def test_writer_is_json_dumps_on_random_documents(seed):
    rng = random.Random(seed)
    for _ in range(25):
        doc = document(rng, depth=4)
        assert cli._dump(doc, "") == pinned(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {}, [], (), [[]], [{}], {"a": {}}, {"a": [[], {}]}, [1, True], [True, 1], [True],
        [False, 0], [None], None, True, 0.1, -0.0, 1e16, float("nan"), float("inf"),
        float("-inf"), [0.1, 1], -(10**100), [10**100, -5], "\ud800", {"\ud800": 1},
        {"b": 1, "a": 2, "é": 3, "A": 4, "": 5}, {k: k for k in STRINGS},
        (1, 2, (3, 4)), [[1, 2], [3, 4]], {"x": (None, "y\"\\", [])},
    ],
    ids=repr,
)
def test_writer_is_json_dumps_on_edge_cases(doc):
    assert cli._dump(doc, "") == pinned(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": 1, None: 2}, {(1,): 0}, [{"a": {2.5: 1}}]])
def test_writer_refuses_a_key_that_is_no_str(doc):
    with pytest.raises(TypeError):
        cli._dump(doc, "")


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), [1, 2j], {"a": frozenset()}])
def test_writer_refuses_an_unknown_type(value):
    with pytest.raises(TypeError):
        cli._dump(value, "")


def spy_on_dumps(monkeypatch):
    calls, real = [], json.dumps

    def dumps(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps)
    return calls


DOC = {"b": [1, 2, True], "a": {"x": None, "y": 0.5, "z": "é"}}


def test_emit_without_c_indent_never_indents_with_json(monkeypatch, capsys):
    expected = pinned(DOC) + "\n"
    calls = spy_on_dumps(monkeypatch)
    cli._emit(DOC)
    assert capsys.readouterr().out == expected
    assert calls and not any("indent" in kwargs for kwargs in calls)


class Pieces(io.StringIO):
    """A stream that keeps each piece ``writelines`` hands it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def writelines(self, lines):
        for line in lines:
            self.pieces.append(line)
            self.write(line)


def test_emit_streams_one_piece_per_codeword():
    code = random_code(random.Random(3), GF(2), 6, 9, dims=[3])
    out = Pieces()
    cli._emit({"code": {"codewords": list(code), "n": 6, "q": "2"}, "z": [[1, 2], [3]]}, out)
    assert out.getvalue() == pinned({"code": code.to_json(), "z": [[1, 2], [3]]}) + "\n"
    texts = [pinned(s.to_json()).replace("\n", "\n      ") for s in code]
    words = [piece for piece in out.pieces if any(piece.endswith(t) for t in texts)]
    assert len(words) == len(code) >= 5
    assert '    [\n      1,\n      2\n    ],\n    [\n      3\n    ]\n  ]' in out.pieces[-2]


def test_a_write_fault_leaves_the_text_before_it():
    # the payload is built whole before the first byte; a fault is then a
    # programming error or the stream's, and what was written before it stays
    out = io.StringIO()
    with pytest.raises(TypeError):
        cli._emit({"a": 1, "b": {"c": [2], 3: 4}, "d": 5}, out)
    assert out.getvalue() == '{\n  "a": 1,\n  "b": '


# -- codewords off their entry sequences ------------------------------------------------

# GF(13) prints codes 10-12 as two characters, GF(2^3) an entry as a list of three digits
FIELDS = [GF(2), GF(3), GF(11), GF(13), GF(17), GF(2, 2), GF(2, 3), GF(3, 2)]


def random_subspace(rng, field, n, dim):
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(dim)]
    return Subspace(field, n, rows)


def random_code(rng, field, n, size, dims=None):
    dims = dims or range(n + 1)
    return GrassmannianCode(
        field, n, [random_subspace(rng, field, n, rng.choice(dims)) for _ in range(size)]
    )


def as_json(x):
    """The document with every ``Subspace`` replaced by its ``to_json`` layout."""
    if isinstance(x, Subspace):
        return x.to_json()
    if isinstance(x, dict):
        return {key: as_json(value) for key, value in x.items()}
    if isinstance(x, list):
        return [as_json(value) for value in x]
    return x


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_codewords_print_as_their_to_json_layout(field):
    rng = random.Random(f"codewords:{field.spec}")
    codes = [GrassmannianCode(field, 4, []), GrassmannianCode(field, 0, [Subspace(field, 0)])]
    for n in (1, 2, 5, 8):
        codes.append(random_code(rng, field, n, rng.randrange(1, 8)))  # mixed dimensions
        codes.append(random_code(rng, field, n, 4, dims=[0, n]))  # zero and whole space
        codes.append(random_code(rng, field, 2 * n, 6, dims=[n]))  # constant dimension
    seen, printed = set(), set()
    for code in codes:
        seen.update(s.dim for s in code)
        printed.update(c for s in code for row in s.sort_key() for c in row)
        doc = {"code": {"codewords": list(code), "n": code.ambient_n, "q": field.spec}}
        out = io.StringIO()
        cli._emit(doc, out)
        assert out.getvalue() == pinned({"code": code.to_json()}) + "\n"
        for s in code:
            assert cli._dump(s, "  ") == cli._dump(s.to_json(), "  ")
    assert 0 in seen and len(seen) > 3
    assert printed == set(range(field.q))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_kernel_basis_prints_as_its_to_json_layout(field, capsys):
    rng = random.Random(f"kernel:{field.spec}")
    for k in (1, 2, 3):
        coeffs = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(k - 1)]
        poly = Polynomial.from_codes(field, coeffs + [1])
        for n in (k + 1, k + 2, 2 * k + 3):
            assert main(["kernel", "--q", field.spec, "--poly", poly.to_string(),
                         "--n", str(n)]) == 0
            out = capsys.readouterr().out
            doc = json.loads(out)
            assert doc["basis"] == LinearCA(poly, n).kernel().to_json()
            assert out == pinned(doc) + "\n"


# -- every document the CLI prints -----------------------------------------------------


@pytest.fixture
def code_path(tmp_path, capsys):
    assert main(["build-code", "--q", "3", "--k", "3", "--gcd", "2,1"]) == 0
    path = tmp_path / "code.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


def emitted(monkeypatch):
    """The payloads the CLI hands to ``_emit``, in order."""
    payloads, real = [], cli._emit

    def emit(payload, file=None):
        payloads.append(payload)
        real(payload, file)

    monkeypatch.setattr(cli, "_emit", emit)
    return payloads


@pytest.mark.parametrize("reference", ["writer", "json"])
@pytest.mark.parametrize(
    "argv, status",
    [
        pytest.param(("kernel", "--q", "2^2", "--poly", "[1,0],[0,1],[1,0]", "--n", "5"), 0,
                     id="kernel"),
        pytest.param(("build-code", "--q", "2", "--k", "4"), 0, id="build-code"),
        pytest.param(("analyze", "--code", "{code}"), 0, id="analyze"),
        pytest.param(("count", "--q", "3", "--k", "4", "--t", "1"), 0, id="count"),
        pytest.param(("search-max", "--q", "3", "--k", "3", "--t", "1"), 0, id="search-max"),
        pytest.param(("simulate", "--code", "{code}", "--erasures", "1", "--errors", "1",
                      "--trials", "20", "--seed", "3", "--out", "{out}"), 0, id="simulate"),
        pytest.param(("kernel", "--q", "6", "--poly", "1,1", "--n", "3"), 1, id="error"),
    ],
)
def test_every_cli_document_is_pinned(
    monkeypatch, capsys, tmp_path, code_path, reference, argv, status
):
    # the printed bytes are pinned, and equal a reference encoding of the
    # payload with each codeword in its ``to_json`` layout: the writer's own
    # list path, or ``json.dumps``
    encode = {"writer": lambda doc: cli._dump(doc, ""), "json": pinned}[reference]
    payloads = emitted(monkeypatch)
    out_path = tmp_path / "out.json"
    argv = [a.format(code=code_path, out=out_path) for a in argv]
    assert main(argv) == status
    out = capsys.readouterr().out
    assert out == pinned(json.loads(out)) + "\n"
    assert out == encode(as_json(payloads[-1])) + "\n"
    if "--out" in argv:
        assert out_path.read_text(encoding="utf-8") == out


# -- a stdout that fails -----------------------------------------------------------------


def cli_process(argv, stdout):
    # stdout buffered, as by default, so that a failed write can leave bytes
    # behind for the flush at exit
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-m", "cacodes.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


def assert_one_line_and_exit_one(proc, reason):
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 1
    assert err.count("\n") == 1 and reason in err and "Traceback" not in err


def test_a_closed_pipe_ends_in_one_line_and_exit_one():
    read, write = os.pipe()
    # 320 KB of output: more than a pipe holds, so the child blocks on a write
    proc = cli_process(["build-code", "--q", "2", "--k", "10"], write)
    os.close(write)
    try:
        assert os.read(read, 5) == b"{\n  \""
    finally:
        os.close(read)
    assert_one_line_and_exit_one(proc, "Broken pipe")


@pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
def test_a_pipe_closed_before_the_run_ends_in_one_line_and_exit_one(csv):
    # a short document fits the stream's buffer, so only the flush meets the
    # closed pipe; the buffer it leaves must not fail again at exit
    read, write = os.pipe()
    os.close(read)
    proc = cli_process(["count", "--q", "2", "--k", "3"] + ["--csv"] * csv, write)
    os.close(write)
    assert_one_line_and_exit_one(proc, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv",
    [
        ("build-code", "--q", "2", "--k", "10"),  # fails mid-document
        ("count", "--q", "2", "--k", "3"),  # fails at the final flush
        ("count", "--q", "2", "--k", "3", "--csv"),
        ("kernel", "--q", "6", "--poly", "1,1", "--n", "3"),  # an error document
    ],
    ids=lambda argv: argv[0] + ("-csv" if "--csv" in argv else ""),
)
def test_a_full_device_ends_in_one_line_and_exit_one(argv):
    with open("/dev/full", "w") as full:
        proc = cli_process(argv, full)
    assert_one_line_and_exit_one(proc, "No space left on device")
