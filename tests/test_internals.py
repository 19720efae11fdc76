"""Structural properties of the implementation, checked from outside.

* ``src/`` states its invariants as explicit checks, never ``assert``
  (which ``python -O`` strips).
* Values are validated once, where they enter: internal producers of
  polynomials, matrices and subspaces never go back through ``GF.code_of``,
  and parsed polynomials never through ``GF.element``.
* The CLI reads no packed rows: the lift layout belongs to ``ca``.
* A code's pairwise intersection table is computed once per code, by one
  walk over the coefficient vectors (every benchmark code takes it) or by
  one elimination per pair, and ``simulate`` reads the one table for D and for
  every decode: inside the unique-decoding radius a trial eliminates only
  the sent codeword.
* Each field builds its one packed row format, and the channel works on
  packed rows without unpacking any.
* Every entry point the benchmark's layer tracer wraps exists in ``src/``,
  and the CLI's constructions run through the ones it wraps.
"""

import ast
import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import cacodes
from cacodes import channel, subspaces
from cacodes.algebra import GF, Polynomial, RowFormat, poly_gcd
from cacodes.ca import LinearCA
from cacodes.channel import ChannelConfig, decode_min_distance, simulate, transmit
from cacodes.cli import main
from cacodes.families import (
    CAFamily,
    code_from_family,
    gcd_profile,
    search_max_family,
    uniform_gcd_family,
)
from cacodes.linalg import sylvester
from cacodes.subspaces import GrassmannianCode, subspace_distance

SRC = pathlib.Path(cacodes.__file__).parent
LAYERTRACE = pathlib.Path(__file__).parents[1] / "benchmarks" / "layertrace.py"
WORKLOADS = LAYERTRACE.with_name("workloads.py")


def test_no_assert_statements_in_src():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_internal_producers_skip_code_of(monkeypatch):
    calls = []
    original = GF.code_of
    monkeypatch.setattr(
        GF, "code_of", lambda self, value: calls.append(value) or original(self, value)
    )
    for field, g in ((GF(2), (1, 1)), (GF(3), (1,)), (GF(2, 2), (2, 1))):
        fam = CAFamily(uniform_gcd_family(3, Polynomial.from_codes(field, g))[0])
        code = code_from_family(fam)
        code.params()
        gcd_profile(fam)
        a, b = code[0], code[1]
        assert subspace_distance(a, b) == 2 * a.dim - 2 * code.pairwise_intersection_dims()[1][0]
        assert a <= a and not a <= b
        LinearCA(fam[0], 6).transition_matrix().nullspace_basis()
        f, h = fam[0], fam[1]
        poly_gcd(f, h)
        sylvester(f, h).rref()
        assert GrassmannianCode.from_json(code.to_json()).codewords == code.codewords
        cfg = ChannelConfig(erasures=1, error_dims=1, seed=3)
        decode_min_distance(code, transmit(a, cfg, trial=0), sent_index=0)
        simulate(code, cfg, trials=3)
    search_max_family(3, 0, GF(2))
    assert calls == []


def test_parsed_polynomials_skip_element(capsys, tmp_path, monkeypatch):
    assert main(["build-code", "--q", "2", "--k", "3", "--gcd", "1,1"]) == 0
    path = tmp_path / "code.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    calls = []
    original = GF.element
    monkeypatch.setattr(
        GF, "element", lambda self, value: calls.append(value) or original(self, value)
    )
    for field, text in ((GF(2), "1,0,1"), (GF(3), "2,0,1"), (GF(2, 2), "[1,1],[0,1]")):
        assert Polynomial.from_string(field, text).to_string() == text
    assert Polynomial.from_string(GF(2, 2), "1,0,1").to_string() == "[1,0],[0,0],[1,0]"
    assert main(["analyze", "--code", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["family_check"]["consistent"] is True
    assert calls == []


def test_cli_reads_no_packed_rows():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names & {"_echelon", "format", "width", "mask"} == set()


def test_each_field_builds_one_row_format(capsys, tmp_path, monkeypatch):
    made, built = [], []  # kept alive, so that no two share an id
    new_field, new_format = GF.__init__, RowFormat.__init__
    monkeypatch.setattr(
        GF, "__init__", lambda self, *args: made.append(self) or new_field(self, *args)
    )
    monkeypatch.setattr(
        RowFormat, "__init__", lambda self, field: built.append(field) or new_format(self, field)
    )
    for q in ("2", "3", "2^2"):
        assert main(["build-code", "--q", q, "--k", "3"]) == 0
        path = tmp_path / f"code-{q}.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["analyze", "--code", str(path)]) == 0
        argv = ["simulate", "--code", str(path), "--erasures", "1", "--errors", "1"]
        assert main([*argv, "--trials", "5"]) == 0
        capsys.readouterr()
    assert len(made) >= 6
    assert sorted(map(id, built)) == sorted(map(id, made))


def test_channel_unpacks_nothing(monkeypatch):
    codes = [
        code_from_family(CAFamily(uniform_gcd_family(3, Polynomial.from_codes(field, (1,)))[0]))
        for field in (GF(2), GF(3), GF(2, 2))
    ]
    calls = []
    for cls in (RowFormat, *RowFormat.__subclasses__()):
        if "unpack" in vars(cls):
            original = cls.unpack
            monkeypatch.setattr(
                cls, "unpack", lambda *args, _original=original: calls.append(1) or _original(*args)
            )
    cfg = ChannelConfig(erasures=1, error_dims=1, seed=3)
    for code in codes:
        for trial in range(4):
            sent = trial % len(code)
            decode_min_distance(code, transmit(code[sent], cfg, trial), sent_index=sent)
    assert calls == []


def test_analyze_of_a_lifted_code_walks_the_table_once(capsys, tmp_path, monkeypatch):
    assert main(["build-code", "--q", "2", "--k", "5"]) == 0
    document = capsys.readouterr().out
    size = len(json.loads(document)["code"]["codewords"])
    path = tmp_path / "code.json"
    path.write_text(document, encoding="utf-8")

    # the codewords share the pivots 0..k-1, and 2^5 - 1 <= 2k(N - 1): one
    # walk over the coefficient vectors, no elimination
    walks = count_calls(monkeypatch, "_shared_pivot_table")
    stacked = count_calls(monkeypatch, "_joint_rank")
    assert main(["analyze", "--code", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["family_check"]["consistent"] is True
    assert size >= 5
    assert len(walks) == 1
    assert stacked == []


def test_analyze_of_mixed_pivots_eliminates_each_pair_once(capsys, tmp_path, monkeypatch):
    # pivots {0, 1}, {0, 2}, {1, 2} and {0}: each pair is one stacked elimination
    words = [[[1, 0, 1], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]], [[1, 0, 0]]]
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": "2", "n": 3, "codewords": words}), encoding="utf-8")
    pairs = count_calls(monkeypatch, "_joint_rank")
    walks = count_calls(monkeypatch, "_shared_pivot_table")
    assert main(["analyze", "--code", str(path)]) == 0
    table = json.loads(capsys.readouterr().out)["gcd_profile"]["table"]
    assert table == [[], [0], [1, 0], [1, 0, 1]]
    assert len(pairs) == len(words) * (len(words) - 1) // 2
    assert walks == []


def test_every_benchmark_code_walks_its_table(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            return main(list(argv)), out.getvalue()

    paths = {
        op.argv[op.argv.index("--code") + 1]
        for workload in ("certify", "channel")
        for op in workloads.build_menu(workload, "full", 1, tmp_path / workload, call)
    }
    assert len(paths) == 16
    for path in sorted(paths):
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        code = GrassmannianCode.from_json(doc.get("code", doc))
        walks = count_calls(monkeypatch, "_shared_pivot_table")
        pairs = count_calls(monkeypatch, "_joint_rank")
        code.pairwise_intersection_dims()
        assert (len(walks), len(pairs)) == (1, 0), path
        monkeypatch.undo()


def test_simulate_inside_the_radius_eliminates_only_the_sent_codeword(monkeypatch):
    # pairwise coprime, so D = 2k = 6: U is 1 from the sent codeword, and every
    # other codeword is 6 > 2 * 1 from it, so the table rules each one out
    code = code_from_family(CAFamily(uniform_gcd_family(3, Polynomial.from_codes(GF(3), (1,)))[0]))
    tables = count_calls(monkeypatch, "_shared_pivot_table")
    ranks = count_calls(monkeypatch, "_joint_rank")
    decodes, walks = [], []
    nearest, meets = channel._nearest, subspaces._BlockLayout.meets
    monkeypatch.setattr(channel, "_nearest", lambda *a: decodes.append(1) or nearest(*a))
    monkeypatch.setattr(subspaces._BlockLayout, "meets", lambda *a: walks.append(1) or meets(*a))
    stats = simulate(code, ChannelConfig(erasures=1, seed=5), trials=40)
    assert len(code) >= 5 and stats["code"]["min_distance"] == 6
    assert stats["success_rate"] == 1.0
    assert len(ranks) == 40
    assert len(tables) == 1
    assert len(decodes) == 40 and walks == []


def count_calls(monkeypatch, name):
    """Count the calls of a ``subspaces`` routine, which still runs, also
    where ``channel`` imported it by name."""
    calls = []
    original = getattr(subspaces, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (subspaces, channel):
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_layer_tracer_targets_exist():
    layertrace = load_layertrace()
    missing = []
    for module, path in [*layertrace.SPANS.values(), *layertrace.DRAWS]:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer replaces the attribute found in the owner's own namespace
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}:{path}")
    assert missing == []


def test_layer_tracer_sees_the_cli_constructions(capsys):
    tracer = load_layertrace().LayerTracer()
    tracer.install()
    try:
        tracer.enabled = True
        assert main(["build-code", "--q", "2", "--k", "4"]) == 0
        assert main(["search-max", "--q", "2", "--k", "4", "--t", "0"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert tracer.calls["families.uniform_gcd"] == 1
    assert tracer.calls["families.search_max"] == 1
