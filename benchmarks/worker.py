"""One workload in one single-threaded process: set-up, warm-up, closed loop.

Started by ``run.py`` with the thread variables pinned; prints one JSON
object with the per-op records as its last line.  Run directly only to
debug, e.g.::

    PYTHONPATH=src python3 benchmarks/worker.py --workload lattice_clt --ops 2

The machine probe is timed after the warm-up op and before every op
(calibration, see `probe`).  Modes: ``--setup-only`` stops after the
warm-up op and its probes (set-up timing); ``--trace`` installs the span
wrappers before the loop; ``--record FILE`` stores the ops' outputs as the
reference for ``--seed`` (see NOTES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: probes timed right after the warm-up op, to calibrate the set-up time
SETUP_PROBES = 10


def probe() -> float:
    """A fixed piece of work that does not touch the library (about 14 ms).

    Its time measures how fast the machine runs at the moment, on the kinds
    of work the ops do: an interpreter-bound loop (the orbit steps), numpy
    sweeps over a 64 KiB array (the pole sums and inversions), and faulting
    in 16 MiB of fresh pages (the large temporaries).  The pages come from
    mmap directly, 512 KiB at a time, and the array stays below glibc's
    mmap threshold: the probe leaves malloc's state as the ops find it and
    adds at most 0.5 MiB to the peak resident set.
    """
    x, s = 0.3, 0.0
    for _ in range(70_000):
        x = 3.7 * x * (1.0 - x)
        s += x
    z = np.linspace(0.0, 1.0, 4096) + 0.5j
    for _ in range(130):
        s += float(np.abs(1.0 / (z - 0.25)).sum())
    for _ in range(32):
        with mmap.mmap(-1, 1 << 19) as buf:
            pages = np.frombuffer(buf, dtype=np.uint8)
            pages[::mmap.PAGESIZE] = 1
            s += float(pages[-1])
            del pages
    return s


def timed_probe() -> list[float]:
    """[wall, cpu] seconds of one `probe`."""
    c0, t0 = time.process_time(), time.perf_counter()
    probe()
    return [time.perf_counter() - t0, time.process_time() - c0]


def digest(outs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outs):
        h.update(key.encode())
        h.update(np.ascontiguousarray(np.asarray(outs[key], dtype=float)).tobytes())
    return h.hexdigest()[:16]


def run_op(wl, inp, tracer, op_id):
    """Time one op; returns (record, outputs or None)."""
    if tracer is not None:
        tracer.op = op_id
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        raw = wl.op(inp)
        err = None
    except Exception as exc:        # a failed op is recorded, never fatal
        raw, err = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    c1 = time.process_time()
    if tracer is not None:
        tracer.op = None
    rec = {"lat": t1 - t0, "cpu": c1 - c0, "error": err, "problems": []}
    outs = None
    if err is None:
        outs = wl.outputs(inp, raw)
        rec["problems"] = wl.check(inp, outs)
        rec["digest"] = digest(outs)
    else:
        rec["digest"] = hashlib.sha256(err.encode()).hexdigest()[:16]
    return rec, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--record", type=Path, default=None)
    args = ap.parse_args(argv)

    import monoclt
    src = (ROOT / "src").resolve()
    if Path(monoclt.__file__).resolve().parent.parent != src:
        print(f"monoclt imported from {monoclt.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    scratch = ROOT / ".bench_out" / f"scratch-{args.workload}-{args.seed}"
    try:
        return _run(args, workloads, monoclt, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workloads, monoclt, scratch) -> int:
    wl = workloads.make(args.workload, scratch)
    wl.setup()
    warm_inp = next(wl.inputs(workloads.DEFAULT_SEED))
    warm, warm_outs = run_op(wl, warm_inp, None, None)
    setup_end = time.time()
    setup_probes = [timed_probe() for _ in range(SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"setup_end_unix": setup_end, "setup_probes": setup_probes}))
        return 0

    reference = {}
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    ref_ops = reference.get(str(args.seed), [])
    ref_default = reference.get(str(workloads.DEFAULT_SEED), [])
    mismatches = []
    compared = 0

    def against(outs, ref, label):
        nonlocal compared
        if outs is None or ref is None or "error" in ref:
            return                  # a fixed failure is not a mismatch
        compared += 1
        mismatches.extend(f"{label}: {m}" for m in workloads.compare(outs, ref))

    against(warm_outs, ref_default[0] if ref_default else None, "warm-up op")

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    records, recorded = [], []
    gen = wl.inputs(args.seed)
    start = time.perf_counter()
    i = 0
    while True:
        if args.ops is not None and i >= args.ops:
            break
        if args.ops is None and time.perf_counter() - start >= args.seconds:
            break
        inp = next(gen)
        probed = timed_probe()
        rec, outs = run_op(wl, inp, tracer, i)
        rec["probe"] = probed
        records.append(rec)
        if i < len(ref_ops):
            against(outs, ref_ops[i], f"op {i}")
        if args.record is not None:
            recorded.append({"error": rec["error"]} if outs is None else workloads.to_record(outs))
        i += 1

    result = {
        "workload": args.workload, "seed": args.seed, "ops": records,
        "warmup": warm, "setup_end_unix": setup_end, "setup_probes": setup_probes,
        "reference": {"compared": compared, "mismatches": mismatches},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "monoclt": monoclt.__version__},
    }
    if tracer is not None:
        self_t = tracer.self_times()
        per_op = [0.0] * len(records)
        for s, st in zip(tracer.spans, self_t):
            per_op[s[spans.OP]] += st
        result["trace"] = {"layers": tracer.layer_totals(), "counts": dict(tracer.counts),
                           "maxima": dict(tracer.maxima), "op_self_sum": per_op,
                           "min_self": min(self_t, default=0.0), "spans": len(tracer.spans)}
        if args.spans is not None:
            tracer.write(args.spans)
    if args.record is not None:
        doc = json.loads(args.record.read_text()) if args.record.exists() else {}
        doc.setdefault(args.workload, {})[str(args.seed)] = recorded
        args.record.write_text(json.dumps(doc, indent=None, separators=(",", ":")) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
