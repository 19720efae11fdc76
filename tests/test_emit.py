"""The pinned output format: every document is printed as the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, by ``cli._dump`` where the
``json`` module has no C encoder for indented output (before Python 3.13)."""

import json
import random
import sys

import pytest

from cacodes import cli
from cacodes.cli import main

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


def test_writer_gate_is_the_c_indent_path():
    assert cli._C_INDENT == (sys.version_info >= (3, 13))


def spy_on_dumps(monkeypatch):
    calls, real = [], json.dumps

    def dumps(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps)
    return calls


DOC = {"b": [1, 2, True], "a": {"x": None, "y": 0.5, "z": "é"}}


def test_emit_with_c_indent_calls_json_dumps_only(monkeypatch, capsys):
    def refuse(x, pad):
        raise AssertionError("_dump called")

    monkeypatch.setattr(cli, "_C_INDENT", True)
    monkeypatch.setattr(cli, "_dump", refuse)
    expected = pinned(DOC) + "\n"
    calls = spy_on_dumps(monkeypatch)
    cli._emit(DOC)
    assert capsys.readouterr().out == expected
    assert calls == [{"indent": 2, "sort_keys": True}]


def test_emit_without_c_indent_never_indents_with_json(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_C_INDENT", False)
    expected = pinned(DOC) + "\n"
    calls = spy_on_dumps(monkeypatch)
    cli._emit(DOC)
    assert capsys.readouterr().out == expected
    assert calls and not any("indent" in kwargs for kwargs in calls)


# -- every document the CLI prints -----------------------------------------------------


@pytest.fixture
def code_path(tmp_path, capsys):
    assert main(["build-code", "--q", "3", "--k", "3", "--gcd", "2,1"]) == 0
    path = tmp_path / "code.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("gate", [False, True], ids=["writer", "json"])
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
    monkeypatch, capsys, tmp_path, code_path, gate, argv, status
):
    monkeypatch.setattr(cli, "_C_INDENT", gate)
    out_path = tmp_path / "out.json"
    argv = [a.format(code=code_path, out=out_path) for a in argv]
    assert main(argv) == status
    out = capsys.readouterr().out
    assert out == pinned(json.loads(out)) + "\n"
    if "--out" in argv:
        assert out_path.read_text(encoding="utf-8") == out
