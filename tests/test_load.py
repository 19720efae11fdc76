"""The load paths of stored codewords: ``Subspace.from_json`` and
``GrassmannianCode.from_json``.

* Every stored codeword loads to the subspace its rows span, with the held
  rows and pivots of an ``Echelon`` that eliminates and reduces them: over
  every row format, for canonical and non-canonical stored bases, zero and
  mixed dimensions, and duplicate codewords.
* A valid file builds no ``MatrixGF``, and an RREF stored as such is held as
  it is, with no elimination.
* A malformed codeword raises what the per-entry checker
  ``MatrixGF.from_json`` raises, name and message, for each fault alone and
  for two faults together; across codewords the first malformed one is named,
  as a load of one ``Subspace.from_json`` per codeword names it.
* ``RowFormat.pack_rows`` packs each row as ``pack`` does, one row or
  thousands.
* A valid code file loads in one pass, ``MatrixGF.from_json`` never called,
  to the codewords of the word-by-word load; n = 0 and an empty code
  round-trip too.
* A code keeps each codeword's ``kernel_rule``, computed once, in one
  ``kernel_rules`` call.
"""

import itertools
import json
import math
import random

import pytest

from cacodes import ca, linalg
from cacodes.algebra import GF, Polynomial
from cacodes.ca import LinearCA, kernel_rule
from cacodes.cli import main
from cacodes.errors import DomainError
from cacodes.families import CAFamily, code_from_family, uniform_gcd_family
from cacodes.linalg import Echelon, MatrixGF
from cacodes.subspaces import GrassmannianCode, Subspace

# every row format: GF(2), byte lanes, GF(2^m) lanes, and per-entry lanes
FIELDS = [GF(2), GF(3), GF(5), GF(13), GF(2, 2), GF(2, 3), GF(3, 2), GF(17)]


def entry(field, code):
    """A code in the code file's layout: the code itself, or its m digits."""
    return code if field.m == 1 else list(field.decode(code))


def stored(field, rows):
    return [[entry(field, c) for c in row] for row in rows]


def random_rows(field, n, rng, count):
    return [[rng.randrange(field.q) for _ in range(n)] for _ in range(count)]


def scrambled(field, n, rows, rng):
    """Another basis of the span of ``rows``: shuffled, one row added to
    another, a duplicate row and a zero row put in."""
    rows = [list(r) for r in rows]
    rng.shuffle(rows)
    if len(rows) >= 2:
        rows[1] = [field.add(a, b) for a, b in zip(rows[1], rows[0])]
    if rows:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    rows.insert(rng.randrange(len(rows) + 1), [0] * n)
    return rows


def eliminated(field, n, data):
    """The held rows and pivots of the route that eliminates every stored basis."""
    ech = Echelon(field, n, MatrixGF.from_json(field, data, ncols=n).rows).reduce()
    return ech.rows, ech.pivots


def random_code_words(field, n, rng):
    """Stored codewords of mixed dimensions, a zero-dimensional one, lifts of
    one pivot set, and one codeword stored twice in two bases."""
    words = [random_rows(field, n, rng, rng.randint(0, n)) for _ in range(rng.randint(1, 5))]
    words.append([])
    k = rng.randint(1, n - 1)
    for _ in range(rng.randint(1, 4)):
        words.append([[int(i == j) for j in range(k)] + [rng.randrange(field.q) for _ in range(n - k)]
                      for i in range(k)])
    words.append(scrambled(field, n, words[-1], rng))
    return words


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_round_trip_equals_the_code(field):
    rng = random.Random(f"round trip over GF({field.spec})")
    for _ in range(12):
        n = rng.randint(2, 6)
        words = random_code_words(field, n, rng)
        code = GrassmannianCode(field, n, [Subspace(field, n, rows) for rows in words])
        back = GrassmannianCode.from_json(json.loads(json.dumps(code.to_json())))
        assert back.codewords == code.codewords
        assert back.to_json() == code.to_json()
        assert (back.constant_dim, back.duplicates_removed) == (code.constant_dim, 0)
        # the stored bases as drawn, not canonical: the same code again
        again = GrassmannianCode.from_json(
            {"q": field.spec, "n": n, "codewords": [stored(field, rows) for rows in words]}
        )
        assert again.codewords == code.codewords
        assert again.duplicates_removed == code.duplicates_removed >= 1
    # n = 0, and codes with no codeword
    for n, words in ((0, [Subspace(field, 0, [])]), (0, []), (4, [])):
        code = GrassmannianCode(field, n, words)
        back = GrassmannianCode.from_json(json.loads(json.dumps(code.to_json())))
        assert back.codewords == code.codewords and back.to_json() == code.to_json()
        assert (back.ambient_n, back.constant_dim) == (n, code.constant_dim)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_pack_rows_packs_each_row_as_pack_does(field):
    rng = random.Random(f"pack rows over GF({field.spec})")
    for count, n in ((1, 1), (1, 9), (7, 3), (2, 16), (3000, 5)):
        rows = random_rows(field, n, rng, count)
        digits = [d for row in rows for c in row for d in (entry(field, c) if field.m > 1 else [c])]
        assert field.format.pack_rows(digits, count) == [field.format.pack(r) for r in rows]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_held_rows_and_pivots_equal_the_eliminating_route(field):
    rng = random.Random(f"held rows over GF({field.spec})")
    for _ in range(40):
        n = rng.randint(1, 7)
        canonical = Subspace(field, n, random_rows(field, n, rng, rng.randint(0, n)))
        rref = [list(r) for r in canonical.basis.rows]
        for rows in (rref, scrambled(field, n, rref, rng), random_rows(field, n, rng, rng.randint(0, 4))):
            data = stored(field, rows)
            sub = Subspace.from_json(field, n, data)
            assert (sub._echelon.rows, sub._echelon.pivots) == eliminated(field, n, data)
            assert sub == Subspace(field, n, rows)
    # an echelon form that is not reduced, and one out of pivot order
    for rows, n in (([[1, 1, 0], [0, 1, 1]], 3), ([[0, 1, 0], [1, 0, 1]], 3), ([[0, 0], [1, 0]], 2)):
        data = stored(field, rows)
        sub = Subspace.from_json(field, n, data)
        assert (sub._echelon.rows, sub._echelon.pivots) == eliminated(field, n, data)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_an_rref_is_held_without_elimination(field, monkeypatch):
    rng = random.Random(f"rref held over GF({field.spec})")
    n = 6
    rrefs = [[list(r) for r in Subspace(field, n, random_rows(field, n, rng, 3)).basis.rows]
             for _ in range(10)]
    extends, matrices = [], []
    monkeypatch.setattr(Echelon, "extend", lambda self, rows, *a: extends.append(1))
    monkeypatch.setattr(MatrixGF, "from_codes", lambda *a: matrices.append(1))
    monkeypatch.setattr(MatrixGF, "from_json", lambda *a, **k: matrices.append(1))
    monkeypatch.setattr(linalg, "_shaped", lambda *a: matrices.append(1))
    for rows in rrefs:
        sub = Subspace.from_json(field, n, stored(field, rows))
        assert sub._echelon.rows == [field.format.pack(r) for r in rows]
    assert extends == [] and matrices == []


def test_a_build_code_document_loads_without_elimination(monkeypatch):
    code = code_from_family(CAFamily(uniform_gcd_family(5, Polynomial.from_codes(GF(3), (1,)))[0]))
    document = json.loads(json.dumps(code.to_json()))
    extends = []
    original = Echelon.extend
    monkeypatch.setattr(Echelon, "extend", lambda *a: extends.append(1) or original(*a))
    assert GrassmannianCode.from_json(document).codewords == code.codewords
    assert extends == []
    # each codeword's rows reversed, the first added to the second: eliminated
    for word in document["codewords"]:
        word.reverse()
        word[1] = [(a + b) % 3 for a, b in zip(word[0], word[1])]
    assert GrassmannianCode.from_json(document).codewords == code.codewords
    assert len(extends) == len(code)


def one_pivot_set_rrefs(field, n, pivots, count, rng):
    """``count`` random RREFs of GF(q)^n on the pivot columns ``pivots``."""
    words = []
    for _ in range(count):
        word = []
        for p in pivots:
            row = [0] * n
            row[p] = 1
            for c in range(p + 1, n):
                if c not in pivots:
                    row[c] = rng.randrange(field.q)
            word.append(row)
        words.append(word)
    return words


def planted(field, n, pivots, word, kind, rng):
    """``word``, an RREF on ``pivots``, with one fault of the given kind."""
    word = [list(row) for row in word]
    j = rng.randrange(len(word))
    nonzero = rng.randrange(1, field.q)
    if kind == "below a pivot":  # on a column that is no pivot
        j = len(pivots) - 1
        word[j][rng.choice([c for c in range(pivots[j]) if c not in pivots])] = nonzero
    elif kind == "pivot entry 2":
        word[j][pivots[j]] = 2
    elif kind == "another pivot lane":
        i = rng.choice([i for i in range(len(pivots)) if i != j])
        word[j][pivots[i]] = nonzero
    elif kind == "zero row":
        word[j] = [0] * n
    elif kind == "one row fewer":
        del word[j]
    elif kind == "rows swapped":
        i = rng.choice([i for i in range(len(word)) if i != j])
        word[i], word[j] = word[j], word[i]
    elif kind == "rows twice":
        word += word
    elif kind == "another pivot set":
        other = pivots
        while other == pivots:
            other = sorted(rng.sample(range(n), len(pivots)))
        word = one_pivot_set_rrefs(field, n, other, 1, rng)[0]
    return word


PLANTED = ["below a pivot", "pivot entry 2", "another pivot lane", "zero row", "one row fewer",
           "rows swapped", "rows twice", "another pivot set"]


@pytest.mark.parametrize(
    "field, kind",
    [(field, kind) for field in (GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2), GF(17))
     for kind in PLANTED if field.q > 2 or kind != "pivot entry 2"],
    ids=str,
)
def test_a_fault_in_a_one_pivot_set_code_loads_as_word_by_word(field, kind):
    rng = random.Random(f"{kind} over GF({field.spec})")
    for _ in range(12):
        n = rng.randint(3, 7)
        pivots = sorted(rng.sample(range(n), rng.randint(2, n - 1)))
        if pivots == list(range(len(pivots))):
            pivots[-1] = n - 1  # a column below the last pivot that is none
        words = one_pivot_set_rrefs(field, n, pivots, rng.randint(2, 6), rng)
        # one codeword, the first included, or every one with the same fault
        victims = range(len(words)) if rng.random() < 0.3 else [rng.randrange(len(words))]
        for i in victims:
            words[i] = planted(field, n, pivots, words[i], kind, random.Random(f"{kind} {n} {pivots}"))
        if rng.random() < 0.3:
            words.append(list(words[0]))  # a duplicate too
        document = {"q": field.spec, "n": n, "codewords": [stored(field, w) for w in words]}
        try:
            want = load_word_by_word(document)
        except DomainError:
            assert fault(lambda: GrassmannianCode.from_json(document)) == fault(
                lambda: load_word_by_word(document)
            )
            continue
        code = GrassmannianCode.from_json(document)
        assert [(s._echelon.rows, s._echelon.pivots) for s in code] == [
            (s._echelon.rows, s._echelon.pivots) for s in want
        ]
        assert (code.constant_dim, code.duplicates_removed) == (want.constant_dim, want.duplicates_removed)


def test_a_build_code_document_takes_the_one_pivot_set_pass(monkeypatch):
    # every codeword's rows are checked by one pass and held as an RREF:
    # nothing is eliminated, and no codeword goes to ``Echelon.from_rows``
    for field in (GF(2), GF(3), GF(2, 2), GF(3, 2)):
        members = uniform_gcd_family(3, Polynomial.from_codes(field, (1,)))[0]
        document = json.loads(json.dumps(code_from_family(CAFamily(members)).to_json()))
        want = load_word_by_word(document)
        calls = {"from_rows": 0, "from_rref": 0}
        for name in calls:
            original = getattr(Echelon, name).__func__

            def counted(cls, *args, name=name, original=original):
                calls[name] += 1
                return original(cls, *args)

            monkeypatch.setattr(Echelon, name, classmethod(counted))
        code = GrassmannianCode.from_json(document)
        monkeypatch.undo()
        assert calls == {"from_rows": 0, "from_rref": len(members)}
        assert [s._echelon.rows for s in code] == [s._echelon.rows for s in want]


def test_one_load_builds_its_pivot_list_once(monkeypatch):
    # the one pass gives every echelon the one pivot list it computed, so the
    # layout and rule recovery compare that list and sort no codeword's
    # pivot offsets: ``sorted`` runs once in ``linalg``, for the pass's check
    for field in (GF(2), GF(3), GF(2, 2), GF(3, 2)):
        members = uniform_gcd_family(3, Polynomial.from_codes(field, (1,)))[0]
        document = json.loads(json.dumps(code_from_family(CAFamily(members)).to_json()))
        sorts = []
        monkeypatch.setattr(linalg, "sorted", lambda *a: sorts.append(1) or sorted(*a),
                            raising=False)
        code = GrassmannianCode.from_json(document)
        assert code.block_layout() is not None
        rules = code.rules
        monkeypatch.undo()
        assert len(sorts) == 1
        assert len({id(s._echelon.pivots) for s in code}) == 1
        assert code[0]._echelon.pivots == [0, 1, 2]
        assert sorted(map(str, rules)) == sorted(map(str, members))


# -- malformed codewords name their fault as the per-entry checker does --------------


def fault(call):
    with pytest.raises(DomainError) as info:
        call()
    return type(info.value).__name__, str(info.value)


# entries that are no digit: bools, floats, text, null, lists, objects, and
# integers out of range
BAD_ENTRIES = [True, False, 1.0, 0.0, -0.0, math.nan, math.inf, "1", None, [1], {}, -1, 10**30]


def damaged(field, n, rng):
    """A stored codeword of 1-3 rows with one or two faults in it."""
    rows = stored(field, random_rows(field, n, rng, rng.randint(1, 3)))
    kinds = ["entry", "digit", "range", "ragged", "width", "row", "extension", "coefficients"]
    for kind in rng.sample(kinds, rng.randint(1, 2)):
        i = rng.randrange(len(rows))
        row = rows[i] if isinstance(rows[i], list) else []
        j = rng.randrange(len(row)) if row else None
        if kind == "entry" and row:
            row[j] = rng.choice(BAD_ENTRIES)
        elif kind == "digit" and row and field.m > 1:
            row[j] = list(row[j]) if isinstance(row[j], list) else [0] * field.m
            bad, digit = rng.choice(BAD_ENTRIES), rng.randrange(field.m)
            row[j][min(digit, len(row[j]) - 1)] = bad  # an "extension" fault may have shortened it
        elif kind == "range" and row:
            bad = rng.choice([field.p, field.p + 1, -1, 255, 256])
            if field.m == 1:
                row[j] = bad
            else:
                row[j] = [bad] + [0] * (field.m - 1)
        elif kind == "ragged":
            rows[i] = row[: rng.randrange(len(row))] if row else [0]
        elif kind == "width":
            for r in rows:
                if isinstance(r, list):
                    r.append(entry(field, 1))
        elif kind == "row":
            rows[i] = rng.choice([5, None, "row", (0,) * n, True])
        elif kind == "extension" and row:
            row[j] = rng.choice([[0] * (field.m + 1), [0] * max(field.m - 1, 0), 3, "x", [[0]]])
        elif kind == "coefficients" and row and field.m > 1:
            row[j] = [True] * field.m
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_malformed_codewords_raise_what_the_per_entry_checker_raises(field):
    rng = random.Random(f"malformed over GF({field.spec})")
    seen, accepted = set(), 0
    for _ in range(400):
        n = rng.randint(1, 4)
        data = damaged(field, n, rng)
        try:
            MatrixGF.from_json(field, data, ncols=n)
        except DomainError:
            want = fault(lambda: MatrixGF.from_json(field, data, ncols=n))
            assert fault(lambda: Subspace.from_json(field, n, data)) == want
            seen.add(want)
        else:  # a damage that left a valid codeword: both accept it alike
            sub = Subspace.from_json(field, n, data)
            assert (sub._echelon.rows, sub._echelon.pivots) == eliminated(field, n, data)
            accepted += 1
    assert accepted < 100
    for data in (5, None, "rows", [5], [[0] * 2, 7], ([0, 0],)):
        want = fault(lambda: MatrixGF.from_json(field, data, ncols=2))
        assert fault(lambda: Subspace.from_json(field, 2, data)) == want
    assert len(seen) >= 8  # the corpus reaches many distinct messages


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2)], ids=lambda f: f.spec)
def test_digit_bounds_are_exact(field):
    p, n = field.p, 3
    for top in (p - 1, p):
        data = stored(field, [[1, 0, 0], [0, 1, 0]])
        if field.m == 1:
            data[1][2] = top
        else:
            data[1][2] = [0, top]
        if top < p:
            assert Subspace.from_json(field, n, data).dim == 2
        else:
            assert fault(lambda: Subspace.from_json(field, n, data)) == (
                "ParseError", f"{p} is not a residue in [0, {p})"
            )


def test_the_first_malformed_codeword_is_named():
    words = [[[1, 0]], [[1, 1], [0, 1, 0]], [[0, 2]]]  # ragged, then out of range
    with pytest.raises(DomainError) as info:
        GrassmannianCode.from_json({"q": "2", "n": 2, "codewords": words})
    assert (type(info.value).__name__, str(info.value)) == (
        "LengthMismatch", "matrix rows have unequal lengths"
    )


def load_word_by_word(document):
    """The load of one ``Subspace.from_json`` per codeword, in file order."""
    field, n = GF.from_spec(document["q"]), document["n"]
    return GrassmannianCode(field, n, [Subspace.from_json(field, n, w) for w in document["codewords"]])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_a_fault_past_the_first_codeword_is_named_as_word_by_word(field):
    rng = random.Random(f"later faults over GF({field.spec})")
    accepted = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        words = [stored(field, random_rows(field, n, rng, rng.randint(0, n))) for _ in range(rng.randint(2, 6))]
        # the first damaged codeword is never the first, and a later one may be damaged too
        for i in sorted(rng.sample(range(1, len(words)), rng.randint(1, min(2, len(words) - 1)))):
            words[i] = damaged(field, n, rng)
        document = {"q": field.spec, "n": n, "codewords": words}
        try:
            want = load_word_by_word(document)
        except DomainError:
            want = fault(lambda: load_word_by_word(document))
            assert fault(lambda: GrassmannianCode.from_json(document)) == want
        else:  # the damage left valid codewords
            assert GrassmannianCode.from_json(document).codewords == want.codewords
            accepted += 1
    assert accepted < 40
    # a valid code with one codeword that is no list, or not a list of rows
    for bad in (5, None, "rows", [5], ([0, 0],)):
        words = [stored(field, [[0, 0]]), stored(field, [[1, 0]]), bad, stored(field, [[1, 1]])]
        document = {"q": field.spec, "n": 2, "codewords": words}
        assert fault(lambda: GrassmannianCode.from_json(document)) == fault(
            lambda: load_word_by_word(document)
        )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_a_valid_code_loads_in_one_pass(field, monkeypatch):
    rng = random.Random(f"one pass over GF({field.spec})")
    documents = []
    for _ in range(10):
        n = rng.randint(2, 6)
        words = random_code_words(field, n, rng)
        documents.append({"q": field.spec, "n": n, "codewords": [stored(field, w) for w in words]})
    documents += [
        {"q": field.spec, "n": 0, "codewords": [[], [[]], [[], []]]},
        {"q": field.spec, "n": 0, "codewords": [[[]], [[]]]},
        {"q": field.spec, "n": 3, "codewords": []},
        {"q": field.spec, "n": 0, "codewords": []},
        {"q": field.spec, "n": 2, "codewords": [[], []]},
    ]
    wants = [load_word_by_word(document) for document in documents]
    calls, original = [], MatrixGF.from_json
    monkeypatch.setattr(MatrixGF, "from_json", lambda *a, **k: calls.append(1) or original(*a, **k))
    for document, want in zip(documents, wants):
        code = GrassmannianCode.from_json(document)
        assert [(s._echelon.rows, s._echelon.pivots) for s in code] == [
            (s._echelon.rows, s._echelon.pivots) for s in want
        ]
        assert (code.constant_dim, code.duplicates_removed) == (want.constant_dim, want.duplicates_removed)
    assert calls == []
    # a malformed code is checked word by word, up to its first fault
    with pytest.raises(DomainError):  # the second codeword's row is too long
        GrassmannianCode.from_json({"q": field.spec, "n": 2, "codewords": [
            stored(field, [[0, 1]]), stored(field, [[0, 1, 0]]), stored(field, [[1, 1]])
        ]})
    assert len(calls) == 2


def test_subclasses_load_as_the_per_entry_checker_accepts_them():
    class Row(list):
        pass

    class Digit(int):
        pass

    data = [Row([Digit(1), 0, 1]), [0, Digit(1), 1]]
    assert MatrixGF.from_json(GF(2), data, ncols=3).rows == ((1, 0, 1), (0, 1, 1))
    assert Subspace.from_json(GF(2), 3, data) == Subspace(GF(2), 3, [(1, 0, 1), (0, 1, 1)])


# -- each codeword's rule, kept on the code ------------------------------------------


def test_a_code_keeps_each_codewords_rule(monkeypatch):
    rng = random.Random("rules on the code")
    for field, k in ((GF(2), 4), (GF(3), 3), (GF(2, 2), 2), (GF(5), 2)):
        n = 2 * k
        family = CAFamily(uniform_gcd_family(k, Polynomial.from_codes(field, (1,)))[0])
        lifts = [Subspace(field, n, [[int(i == j) for j in range(k)]
                                     + [rng.randrange(field.q) for _ in range(k)]
                                     for i in range(k)]) for _ in range(6)]
        mixed = [Subspace(field, n, random_rows(field, n, rng, rng.randint(0, n))) for _ in range(4)]
        ca_code = code_from_family(family)
        for code in (ca_code, GrassmannianCode(field, n, lifts),
                     GrassmannianCode(field, n, [*ca_code.codewords[:3], *lifts, *mixed])):
            calls = []
            original = ca.kernel_rules
            monkeypatch.setattr(ca, "kernel_rules", lambda subs: calls.append(1) or original(subs))
            assert code.rules is code.rules and len(calls) == 1
            monkeypatch.undo()
            assert code.rules == tuple(kernel_rule(word) for word in code)
        assert set(ca_code.rules) == set(family)
        assert all(LinearCA(f, n).kernel() == w for f, w in zip(ca_code.rules, ca_code))


def test_analyze_reads_the_codes_rules(capsys, tmp_path, monkeypatch):
    assert main(["build-code", "--q", "2", "--k", "4"]) == 0
    path = tmp_path / "code.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")

    def consistent():
        assert main(["analyze", "--code", str(path)]) == 0
        return json.loads(capsys.readouterr().out)["family_check"]["consistent"]

    assert consistent() is True
    # with the first codeword's rule forgotten, the family no longer matches
    rules = GrassmannianCode.rules.fget
    monkeypatch.setattr(GrassmannianCode, "rules", property(lambda code: (None, *rules(code)[1:])))
    assert consistent() is False


def test_every_subspace_of_gf2_cubed_loads_from_each_row_order():
    # every subspace of GF(2)^3, stored as each ordering of its RREF rows
    field, n = GF(2), 3
    vectors = list(itertools.product(range(2), repeat=n))
    subs = {Subspace(field, n, rows) for r in range(4) for rows in itertools.combinations(vectors, r)}
    assert len(subs) == 16
    for sub in subs:
        for rows in itertools.permutations([list(r) for r in sub.basis.rows]):
            assert Subspace.from_json(field, n, list(rows)) == sub
