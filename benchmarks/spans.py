"""Outside-in tracing: span-recording wrappers around the library's public functions.

`install` replaces every function in the ``__all__`` of the five library
modules, plus ``cli.run``, with a wrapper that records a span (layer,
name, start, end, parent, op id) and work counts computed from the call's
arguments and result.  Classes are never wrapped: ``isinstance`` checks
inside the library depend on them.  Cross-module calls inside the library
go through module attributes (``tf.f_eval``, ``cv.classical_power``), and
calls inside one module look up the module's globals, so the wrappers see
both.  Nothing is installed in an untraced run.

Spans are recorded only while an op runs (`Tracer.op` is set); calls made
by set-up and by the untimed checks pass straight through.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from layers import LAYERS
from monoclt import cli, clt, convolve, ergodic, errors, measures, transforms

MODULES = {"measures": measures, "transforms": transforms, "convolve": convolve,
           "clt": clt, "ergodic": ergodic, "cli": cli}

# span record fields
LAYER, NAME, START, END, PARENT, OP, FAILED = range(7)


class Tracer:
    """Spans kept in memory, plus per-run work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, name: str, fn, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            parent_name = self.spans[parent][NAME] if parent >= 0 else None
            span = [layer, name, 0.0, 0.0, parent, self.op, False]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                # counted once, where the exception leaves the layer
                span[FAILED] = parent < 0 or self.spans[parent][LAYER] != layer
                self._count(hook, sig, args, kwargs, None, exc, parent_name)
                raise
            else:
                span[END] = time.perf_counter()
                self._count(hook, sig, args, kwargs, result, None, parent_name)
                return result
            finally:
                self._stack.pop()

        return traced

    def _count(self, hook, sig, args, kwargs, result, exc, parent_name):
        """Run the work-count hook on the call's bound arguments."""
        if hook is None:
            return
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:           # a malformed call raised already; count nothing
            return
        bound.apply_defaults()
        hook(self, bound.arguments, result, exc, parent_name)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {layer: {"self_s": 0.0, "calls": 0, "failed_calls": 0} for layer in LAYERS}
        for s, st in zip(self.spans, self.self_times()):
            d = out[s[LAYER]]
            d["self_s"] += st
            d["calls"] += 1
            d["failed_calls"] += int(s[FAILED])
        return out

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Work counts, computed at the boundary from arguments and results
# ---------------------------------------------------------------------------

def _poles_per_point(F) -> float:
    """Pole-sum terms one evaluation of map `F` costs per point (0 if none)."""
    if isinstance(F, transforms.MeasureMap):
        return _atoms(F.measure)
    if isinstance(F, transforms.NevanlinnaMap):
        return 0.0 if F.rep.sigma is None else float(len(F.rep.sigma))
    if isinstance(F, transforms.ComposeMap):
        return float(sum(_poles_per_point(p) for p in F.parts))
    if isinstance(F, transforms.IterateMap):
        return F.n * _poles_per_point(F.base)
    if isinstance(F, transforms.DilatedMap):
        return _poles_per_point(F.base)
    if isinstance(F, transforms.ScaledPowerMap):
        return F.n * _atoms(F.measure)
    return 0.0


def _atoms(m) -> float:
    if isinstance(m, measures.AtomicMeasure):
        return float(len(m))
    if isinstance(m, measures.GridDensity):
        return float(len(m.values))
    return 0.0


def _f_eval(tr, a, result, exc, parent):
    tr.counts["transforms.pole_evals"] += np.size(a.get("z", 0)) * _poles_per_point(a.get("F"))


def _cauchy_eval(tr, a, result, exc, parent):
    if parent != "f_eval":                      # f_eval already counted it
        tr.counts["transforms.pole_evals"] += np.size(a.get("z", 0)) * _atoms(a.get("m"))


def _measure_from_map(tr, a, result, exc, parent):
    grid = a.get("grid")
    points = len(transforms.default_grid()) if grid is None else len(grid)
    tr.counts["transforms.inversion_points"] += points * (2 if a.get("richardson", True) else 1)
    if result is not None:
        tr.maxima["transforms.clamped_mass_max"] = max(tr.maxima["transforms.clamped_mass_max"],
                                                       result.clamped_mass)


def _subordination_eval(tr, a, result, exc, parent):
    points = np.size(a.get("z", 0))
    tr.counts["convolve.subordination_solves"] += 1
    if result is not None:
        iters = result[2]
    elif isinstance(exc, errors.NonConvergence):
        iters = a.get("maxiter", 0)
        tr.counts["convolve.nonconverged"] += 1
    else:
        iters = 0
    tr.counts["convolve.subordination_iters"] += iters
    tr.counts["convolve.point_iters"] += points * iters


def _classical_convolve(tr, a, result, exc, parent):
    pairs = len(a["m"]) * len(a["n"])
    tr.counts["measures.classical_pairs"] += pairs
    if result is not None:
        tr.counts["measures.classical_pairs_ok"] += pairs
        tr.counts["measures.atoms_kept"] += len(result)
        tr.maxima["measures.pruned_mass_max"] = max(tr.maxima["measures.pruned_mass_max"],
                                                    result.pruned_mass)


def _orbits(x0_key):
    def hook(tr, a, result, exc, parent):
        starts = np.size(a.get(x0_key, 0))
        tr.counts["ergodic.start_steps"] += starts * int(a.get("N", 0))
        tr.counts["ergodic.starts"] += starts
        if result is not None:
            tr.counts["ergodic.truncated"] += int(np.count_nonzero(result.truncated_at >= 0))
    return hook


def _preimages(tr, a, result, exc, parent):
    tr.counts["ergodic.preimage_solves"] += 1


def _cli_run(tr, a, result, exc, parent):
    argv = list(a.get("argv") or [])
    if "--outdir" in argv:
        outdir = Path(argv[argv.index("--outdir") + 1])
        if outdir.is_dir():
            tr.counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in outdir.iterdir())


HOOKS = {
    ("transforms", "f_eval"): _f_eval,
    ("transforms", "cauchy_eval"): _cauchy_eval,
    ("transforms", "measure_from_map"): _measure_from_map,
    ("convolve", "subordination_eval"): _subordination_eval,
    ("measures", "classical_convolve"): _classical_convolve,
    ("ergodic", "occupation_time"): _orbits("x0_list"),
    ("ergodic", "hopf_ratio"): _orbits("x0"),
    ("ergodic", "preimages"): _preimages,
    ("cli", "run"): _cli_run,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of the five modules and ``cli.run``.

    Returns the wrapped names as ``layer.name``.
    """
    wrapped = []
    for layer in LAYERS:
        mod = MODULES[layer]
        names = ["run"] if layer == "cli" else list(mod.__all__)
        for name in names:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):     # classes stay: isinstance checks use them
                continue
            setattr(mod, name, tracer.wrap(layer, name, fn, HOOKS.get((layer, name))))
            wrapped.append(f"{layer}.{name}")
    return wrapped
