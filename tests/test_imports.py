"""scipy is loaded only on the paths that use it, the library has no
quadrature, the normal CDF on the standard library matches mpmath, and
every public name has a caller.

Each check runs in a fresh interpreter, since the test modules themselves
import scipy.  A top-level ``scipy.optimize``, ``scipy.integrate`` or
``scipy.special`` import anywhere under ``monoclt`` fails the first test.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

import monoclt
from monoclt import clt, convolve, ergodic, measures as ms, transforms as tf

SRC = str(Path(monoclt.__file__).resolve().parent.parent)
ROOT = Path(SRC).parent

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
assert cli.run(["clt-report", "--measure", "boole", "--n-list", "100,1000",
                "--outdir", {str(tmp_path)!r}]) == 0
from monoclt import measures as ms, transforms as tf
assert 0.0 < tf.ks_distance(ms.atomic([(-1.0, 0.5), (1.0, 0.5)]), ms.normal()) < 1.0
"""
    assert loaded_after(code) == set()


def test_closed_form_paths_load_what_they_use():
    code = """
import numpy as np
from monoclt import measures as ms, transforms as tf
laws = [ms.normal(), ms.arcsine(), ms.semicircle(), ms.point_mass(1.0), ms.atomic([(0.0, 0.5), (2.0, 0.5)]),
        ms.GridDensity(-1.0, 0.5, np.ones(5))] + [ms.power_tail(p) for p in (1.5, 2.0, 3.0, 3.5, 5.0)]
for m in laws:
    ms.harmonic_variance(m, np.array([1e-3, 0.5, 1.2, 10.0, 1e10]))
assert not sys.modules.keys() & {"scipy", "scipy.integrate"}, "L"
tf.cdf(ms.normal(), [0.0, 1.0])
assert "scipy" not in sys.modules, "normal CDF"
tf.cauchy_eval(ms.power_tail(3), 1j)
assert "scipy.special" in sys.modules and "scipy.integrate" not in sys.modules, "power-tail G"
"""
    assert loaded_after(code) == {"scipy.special"}


def test_no_quadrature_in_the_library():
    hits = [p.name for p in Path(SRC, "monoclt").rglob("*.py") if "integrate" in p.read_text()]
    assert hits == []


def test_normal_cdf_matches_mpmath():
    # erfc(-u/sqrt 2)/2 on the standard library, with no scipy.special.ndtr
    u = np.concatenate((np.linspace(-40.0, 40.0, 8001), np.linspace(-1.0, 1.0, 401)))
    phi = tf.cdf(ms.normal(), u)
    with mpmath.workdps(40):
        ref = [mpmath.ncdf(v) for v in u.tolist()]
        err = [abs(mpmath.mpf(p) - r) for p, r in zip(phi.tolist(), ref)]
        assert max(err) <= 2.3e-16
        assert max(e / r for e, r in zip(err, ref) if r >= 1e-300) <= 1e-12
    assert np.max(np.abs(phi + tf.cdf(ms.normal(), -u) - 1.0)) <= 2 * np.spacing(1.0)


PUBLIC = (ms, tf, convolve, clt, ergodic)


def test_every_exported_name_resolves():
    # the benchmark's tracer wraps getattr(module, name) for each of them
    stale = [f"{mod.__name__}.{name}" for mod in PUBLIC for name in mod.__all__
             if not hasattr(mod, name)]
    assert stale == []


def code_names(path: Path) -> set[str]:
    """The names a module's code reads, each top-level definition's own name
    left out of its own body (docstrings, comments and imports do not count)."""
    used = set()
    for node in ast.parse(path.read_text()).body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name is not None and name != own:
                used.add(name)
    return used


def test_every_exported_name_has_a_caller():
    # a caller is library code, a demo, the benchmark, the README or docs, or an
    # acceptance criterion; a name that only unit tests reach is surface to delete
    used = set().union(*map(code_names, Path(SRC, "monoclt").glob("*.py")))
    texts = [p.read_text() for d in ("demos", "benchmarks", "docs") for p in (ROOT / d).rglob("*")
             if p.suffix in (".py", ".md")]
    texts += [(ROOT / "README.md").read_text(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    uncalled = [f"{mod.__name__}.{name}" for mod in PUBLIC for name in mod.__all__
                if name not in used and not any(re.search(rf"\b{name}\b", t) for t in texts)]
    assert uncalled == []
