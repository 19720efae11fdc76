"""Self-test of the benchmark harness on tiny menus.

Run from the root of the repository:

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def _tiny(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    report, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert report["untraced"]["host_slowdown"] > 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(workload):
    first, _ = _tiny(workload, 0, seed=11)
    second, _ = _tiny(workload, 0, seed=11)
    assert first["digest_sha256"] == second["digest_sha256"]
    assert not (ROOT / ".bench_work").exists()


def _cacodes_attributes() -> dict:
    """Every module-level and class-level attribute of the loaded cacodes modules."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "cacodes" and not name.startswith("cacodes."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_traced_run_restores_every_patched_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.chdir(ROOT)
    import run
    import cacodes.cli  # noqa: F401

    before = _cacodes_attributes()
    result, report = run.run_workload("channel", 5, 0, trace=True, size="tiny")
    after = _cacodes_attributes()
    assert result["correct"] is True
    assert report["traced"]["ops"] >= 1
    assert result["metrics"]["channel.transmit.calls"]["value"] > 0
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert isinstance(cacodes.cli.main, types.FunctionType)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
