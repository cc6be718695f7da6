"""scipy is loaded only on the paths that use it.

Each check runs in a fresh interpreter, since the test modules themselves
import scipy.  A top-level ``scipy.optimize``, ``scipy.integrate`` or
``scipy.special`` import anywhere under ``monoclt`` fails the first test.
"""

import os
import subprocess
import sys
from pathlib import Path

import monoclt

SRC = str(Path(monoclt.__file__).resolve().parent.parent)

HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special")


def loaded_after(code):
    """The heavy scipy submodules in ``sys.modules`` after running `code`."""
    script = (f"import sys\n{code}\n"
              f"print('loaded:' + ','.join(m for m in {HEAVY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return set(filter(None, out.splitlines()[-1].removeprefix("loaded:").split(",")))


def test_atomic_paths_load_no_heavy_scipy(tmp_path):
    code = f"""
import monoclt
from monoclt import cli
assert not [m for m in {HEAVY!r} if m in sys.modules], "import monoclt"
assert cli.run(["hopf", "--measure", "boole", "--N", "1000", "--outdir", {str(tmp_path)!r}]) == 0
assert cli.run(["orbit", "--outdir", {str(tmp_path)!r}]) == 0
"""
    assert loaded_after(code) == set()


def test_closed_form_paths_load_what_they_use():
    code = """
from monoclt import measures as ms, transforms as tf
tf.cauchy_eval(ms.power_tail(3), 1j)
assert "scipy.special" in sys.modules and "scipy.integrate" not in sys.modules, "power-tail G"
tf.cdf(ms.normal(), [0.0, 1.0])
assert "scipy.integrate" not in sys.modules
ms.harmonic_variance(ms.power_tail(3), 10.0)
"""
    # scipy.integrate itself imports scipy.optimize
    assert loaded_after(code) >= {"scipy.special", "scipy.integrate"}
