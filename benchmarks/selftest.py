"""Self-tests of the benchmark harness.

Run from the repository root (takes a few seconds)::

    python3 benchmarks/selftest.py

0. The workloads listed in BENCHMARK.json are those workloads.py defines.
1. Traced and untraced runs of one op per workload give bit-identical
   outputs.
2. Span self times are >= 0 and add up to the op's wall time within 5%.
3. Each correctness check rejects deliberately corrupted outputs, and the
   reference comparison rejects a 1e-8 relative change but accepts 1e-11.

Exits 1 on the first group with a failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402

SELF_SUM_TOL = 0.05


def first_ok_op(wl, limit=16):
    """Input and outputs of the first op of the default seed that succeeds."""
    for inp, _ in zip(wl.inputs(workloads.DEFAULT_SEED), range(limit)):
        try:
            raw = wl.op(inp)
        except Exception:
            continue
        return inp, wl.outputs(inp, raw)
    raise RuntimeError(f"{wl.name}: no successful op among the first {limit}")


def corruptions(name: str, outs: dict):
    """(label, corrupted outputs) pairs the checks must reject."""
    def edit(**changes):
        c = copy.deepcopy(outs)
        for k, fn in changes.items():
            c[k] = fn(np.array(c[k], dtype=float) if isinstance(c[k], np.ndarray) else c[k])
        return c

    def set_at(i, v):
        def f(a):
            a[i] = v
            return a
        return f

    if name == "lattice_clt":
        return [("NaN in F", edit(F0_im=lambda v: float("nan"))),
                ("Im F below Im z", edit(F0_im=lambda v: 0.5)),
                ("ratio 1.2", edit(ratio=lambda v: 1.2)),
                ("F beyond the reported sup", edit(f_dev=lambda v: 0.0))]
    if name == "density_scan":
        return [("free density with 2% of its mass removed", edit(free_mass=lambda v: 0.98 * v)),
                ("monotone density with 2% of its mass removed", edit(mono_mass=lambda v: 0.98 * v)),
                ("classical KS above Berry-Esseen", edit(ks_normal=lambda v: 0.9)),
                ("NaN KS", edit(ks_arcsine=lambda v: float("nan"))),
                ("KS to arc-sine 0.99", edit(ks_arcsine=lambda v: 0.99))]
    if name == "hopf_cli":
        return [("NaN ratio", edit(ratios=set_at(3, float("nan")))),
                ("negative ratio", edit(ratios=set_at(0, -1.0))),
                ("missing CSV row", edit(ratios=lambda a: a[:-1]))]
    return [("visits above N", edit(visits=set_at(0, 101.0))),
            ("preservation 1e-6", edit(preservation_dev=lambda v: 1e-6)),
            ("NaN preservation", edit(preservation_dev=lambda v: float("nan")))]


def main() -> int:
    failures: list[str] = []
    scratch = HERE.parent / ".bench_out" / "selftest"
    try:
        listed = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
        if listed != list(workloads.WORKLOADS):
            failures.append(f"BENCHMARK.json lists {listed}, workloads.py defines {list(workloads.WORKLOADS)}")
        _report("names", failures)
        wls = [workloads.make(n, scratch / n) for n in workloads.WORKLOADS]
        for wl in wls:
            wl.setup()

        # untraced first: nothing is installed yet
        plain = {wl.name: run_op(wl, next(wl.inputs(workloads.DEFAULT_SEED)), None, None)[0]
                 for wl in wls}
        tracer = spans.Tracer()
        spans.install(tracer)
        for op_id, wl in enumerate(wls):
            rec, _ = run_op(wl, next(wl.inputs(workloads.DEFAULT_SEED)), tracer, op_id)
            same = rec["digest"] == plain[wl.name]["digest"]
            if not same:
                failures.append(f"{wl.name}: traced output differs from untraced")
            st = [t for t, sp in zip(tracer.self_times(), tracer.spans) if sp[spans.OP] == op_id]
            if min(st, default=0.0) < 0:
                failures.append(f"{wl.name}: negative span self time {min(st)!r}")
            total, lat = sum(st), rec["lat"]
            if abs(total - lat) > SELF_SUM_TOL * lat:
                failures.append(f"{wl.name}: span self times sum to {total:.4f} s, op took {lat:.4f} s")
            print(f"{wl.name:15s} traced == untraced: {same}; {len(st)} spans, "
                  f"self-time sum {total:.4f} s of {lat:.4f} s")
        _report("trace", failures)

        for wl in wls:
            inp, outs = first_ok_op(wl)
            if wl.check(inp, outs):
                failures.append(f"{wl.name}: check rejects the real outputs: {wl.check(inp, outs)}")
            bad_cases = corruptions(wl.name, outs)
            for label, bad in bad_cases:
                if not wl.check(inp, bad):
                    failures.append(f"{wl.name}: check accepts '{label}'")
            rec = workloads.to_record(outs)
            near = {k: np.asarray(v, dtype=float) * (1 + 1e-11) for k, v in outs.items()}
            far = {k: np.asarray(v, dtype=float) * (1 + 1e-8) for k, v in outs.items()}
            if workloads.compare(near, rec):
                failures.append(f"{wl.name}: reference rejects a 1e-11 change")
            if not workloads.compare(far, rec):
                failures.append(f"{wl.name}: reference accepts a 1e-8 change")
            print(f"{wl.name:15s} checks reject all {len(bad_cases)} corruptions: "
                  f"{not any(wl.name in f for f in failures)}")
        _report("checks", failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest: all passed")
    return 0


def _report(group: str, failures: list[str]) -> None:
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        sys.exit(1)
    print(f"selftest: {group} ok")


if __name__ == "__main__":
    sys.exit(main())
