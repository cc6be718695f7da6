"""The six narrative demos run to the end, with RuntimeWarnings as errors.

They are the only callers of some public names outside the library
(`tightness_stat`, `free_convolve`, `eval_dT`), so a demo that breaks is a
public name that broke.  Each runs in a fresh interpreter, as a reader
would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monoclt

SRC = str(Path(monoclt.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
