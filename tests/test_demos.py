"""Every demo script runs to completion with RuntimeWarnings as errors and
prints what tests/demo_output/<demo>.txt holds.

Before the comparison, every number whose magnitude is below 1e-12 (rounding
residues such as 1.11e-16, and any zero with its sign) reads as one mark,
and numpy's padding inside [...] is collapsed, since a -0. widens it.
Refresh a file with `PYTHONPATH=src python demos/<demo>.py > tests/demo_output/<demo>.txt`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _masked(text):
    text = NUMBER.sub(lambda m: "~0" if abs(float(m[0])) < 1e-12 else m[0], text)
    return re.sub(r"\[([^]]*)\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
    assert _masked(proc.stdout) == _masked(golden)


def test_masking():
    assert _masked("dev = 1.11e-16, x = -0.000000, y = 0.5") == "dev = ~0, x = ~0, y = 0.5"
    assert _masked("[ 0.5  0.   -0. ]") == _masked("[0.5 0.  0. ]") == "[0.5 ~0 ~0]"
    assert _masked("c1 r2 lambda5 = +2.0e-12 at p=0.20") == "c1 r2 lambda5 = +2.0e-12 at p=0.20"
