import os
import subprocess
import sys
from pathlib import Path

import pytest

import pga

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# each demo's committed stdout; regenerate one with `python demos/<name>.py > tests/demo_output/<name>.txt`
EXPECTED = Path(__file__).with_name("demo_output")


def test_all_demos_found():
    assert len(DEMOS) == 4
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # run the same pga the tests import, installed or not
    src = str(Path(pga.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_text(encoding="utf-8")
