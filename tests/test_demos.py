"""Each demo script runs to completion and prints the bytes recorded for it.

The digests were recorded from the demos' output; a change that alters any
printed number, or the text around it, shows up here.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_field_arithmetic.py": "bf82ac1d5790d6274fcb1fc65b088c385919e2758876d740e71e75c9fdb12b4d",
    "02_kernels_and_lfsr.py": "7e993cb45c7fd4be5f2532e3bd5829a25e23db0d27c2cfb3e35adf442436b27a",
    "03_distance_prediction.py": "51cb69c90b9ed3a410f775b70789c203a4c5abfa3626ecc3baf4254418cc91eb",
    "04_code_construction.py": "c7902592d4d83117c91d31186c3375f3bc38e8ec7730d9f65e4c7b1bd14c3974",
    "05_channel_simulation.py": "34d45196bd964f4ce082ae81ff8070545ea04bfa3b06aacda76e71dba6339980",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_prints_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, env=env, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
