"""Benchmark entry point: one workload, end-to-end metrics or a traced run.

Usage, from the repository root::

    python3 benchmarks/run.py --workload lattice_clt --seed 1 --seconds 25 --trace 0

The workloads are those listed in ``BENCHMARK.json`` at the repository
root (see NOTES.md for what each exercises and why).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in its own worker process (``worker.py``): one client,
closed loop, single thread, with the BLAS/OpenMP thread variables set to 1
and ``MONOCLT_THREADS`` unset.  A closed loop with one client has no
queue, so there is no wait metric.  The library is imported from ``src/``
next to this directory; without it the run fails with exit code 2.

End-to-end timings are calibrated against a fixed probe timed between the
ops in the same process (``worker.probe``): they read as on the reference
machine, whatever speed the shared machine runs at.  The raw timings are
printed beside them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

BENCHMARK = ROOT / "BENCHMARK.json"

#: the whole run, workers included, must end within this many seconds
DEADLINE_S = 170.0
#: set-up-only workers before and after the measuring one: ``setup_s`` is
#: the median of 2 * SETUPS_AROUND + 1 samples
SETUPS_AROUND = 2
#: mean wall and CPU seconds of one ``worker.probe`` on the reference
#: machine (see NOTES.md, "Calibration"): timings are reported at its speed
PROBE_REF_S = 0.0150
#: the probe is single-threaded: CPU time well above wall time means that
#: something else in the process ran during it and skewed the calibration
PROBE_CPU_OVER_WALL_MAX = 1.2

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "NUMBA_NUM_THREADS")


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("MONOCLT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # every interpreter compiles from source: set-up time does not depend on
    # whether an earlier run left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "numba_importable": importlib.util.find_spec("numba") is not None}


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = pinned_env()
        self.spawn_unix = 0.0

    def worker(self, *extra: str) -> dict:
        """Run one worker process and return the JSON object it prints last."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, *extra]
        self.spawn_unix = time.time()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the deadline: {' '.join(extra)}") from None
        if proc.returncode != 0:
            raise BenchError(f"worker failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_time(self, res: dict) -> float:
        """Seconds from the last worker's spawn to the end of its warm-up op."""
        return res["setup_end_unix"] - self.spawn_unix


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile with at least ten ops beyond it (50 at least)."""
    if n_ops <= 20:
        return 50
    return max(50, math.floor(100.0 * (n_ops - 10) / n_ops))


def percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def speed(probes: list[list[float]]) -> tuple[float, float]:
    """Wall and CPU time of the probes, as multiples of the reference machine's."""
    n = len(probes)
    return (sum(p[0] for p in probes) / (n * PROBE_REF_S),
            sum(p[1] for p in probes) / (n * PROBE_REF_S))


def run_problems(res: dict) -> list[str]:
    """Check failures and reference mismatches of one worker result."""
    probs = [f"op {i}: {p}" for i, op in enumerate(res["ops"]) for p in op["problems"]]
    probs += [f"warm-up op: {p}" for p in res["warmup"]["problems"]]
    probs += res["reference"]["mismatches"]
    return probs


def failed_ops(res: dict) -> int:
    return sum(1 for op in res["ops"] if op["error"] is not None or op["problems"])


def end_to_end(r: Runner, seconds: float):
    """Metrics of BENCHMARK.json's end_to_end list, printed notes, result, problems.

    Timings are calibrated: each is divided by the machine's slowness,
    measured by probes timed in the same process (see `speed`), so they
    read as on the reference machine.  The raw figures are printed too.
    """
    def setup_sample(res):
        # from spawn to the end of the warm-up op (interpreter teardown
        # excluded), at the speed of the probes that follow it
        return r.setup_time(res), speed(res["setup_probes"])[0]

    # set-up samples before, during and after the timed loop, so that one
    # slow spell of the machine does not set the median
    setups = [setup_sample(r.worker("--setup-only")) for _ in range(SETUPS_AROUND)]
    res = r.worker("--seed", str(r.seed), "--seconds", str(seconds))
    setups.append(setup_sample(res))
    setups += [setup_sample(r.worker("--setup-only")) for _ in range(SETUPS_AROUND)]
    ops = res["ops"]
    n = len(ops)
    # the probes run between the ops, so they sample the same spells of the
    # machine as the ops do
    wall_x, cpu_x = speed([op["probe"] for op in ops])
    lat = [op["lat"] for op in ops]
    cpu = sum(op["cpu"] for op in ops) / n
    metrics = {
        "ops_per_s": (wall_x * n / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat) / wall_x, "ms"),
        "cpu_ms_per_op": (1e3 * cpu / cpu_x, "ms"),
        "setup_s": (statistics.median(t / x for t, x in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    # printed, not bounded: with ten ops beyond it, the tail of a workload
    # whose ops all cost the same follows the machine's slow spells
    q = tail_percentile(n)
    notes = [f"{'op_tail_ms':40s} {1e3 * percentile(lat, q) / wall_x:.6g} ms (p{q} of {n} ops)",
             f"# machine speed: probes took {wall_x:.4g}x (wall) and {cpu_x:.4g}x (CPU) "
             f"the reference time",
             f"# raw, uncalibrated: ops_per_s {n / sum(lat):.6g}, op_p50_ms "
             f"{1e3 * statistics.median(lat):.6g}, cpu_ms_per_op {1e3 * cpu:.6g}, "
             f"setup_s {statistics.median(t for t, _ in setups):.6g}",
             f"# set-up samples (raw s, speed): {[(round(t, 4), round(x, 3)) for t, x in setups]}"]
    problems = run_problems(res)
    if cpu_x > PROBE_CPU_OVER_WALL_MAX * wall_x:
        problems.append(f"probes used {cpu_x / wall_x:.3g}x their wall time in CPU: "
                        f"another thread ran during them")
    return metrics, notes, res, problems


def _error_kinds(res: dict) -> dict:
    kinds: dict[str, int] = {}
    for op in res["ops"]:
        if op["error"] is not None:
            k = op["error"].split(":", 1)[0]
            kinds[k] = kinds.get(k, 0) + 1
    return kinds


def per_layer(r: Runner, seconds: float):
    """Metrics of BENCHMARK.json's per_layer list, printed notes, result, problems."""
    spans_path = OUT / f"spans-{r.workload}-seed{r.seed}.jsonl"
    traced = r.worker("--seed", str(r.seed), "--seconds", str(seconds / 2.0),
                      "--trace", "--spans", str(spans_path))
    k = len(traced["ops"])
    # the same ops again without wrappers: the base of the overhead, and a
    # check that tracing changes no output bit
    plain = r.worker("--seed", str(r.seed), "--ops", str(k))
    problems = run_problems(traced) + run_problems(plain)
    problems += [f"op {i}: traced output differs from untraced"
                 for i, (a, b) in enumerate(zip(traced["ops"], plain["ops"]))
                 if a["digest"] != b["digest"]]

    t = traced["trace"]
    c, mx = t["counts"], t["maxima"]
    traced_wall = sum(op["lat"] for op in traced["ops"])
    plain_wall = sum(op["lat"] for op in plain["ops"])
    # the two runs are separate processes, one after the other: compare
    # their rates calibrated, so that the machine's drift between them
    # does not pass for the wrappers' cost
    traced_rate = k / traced_wall * speed([op["probe"] for op in traced["ops"]])[0]
    plain_rate = k / plain_wall * speed([op["probe"] for op in plain["ops"]])[0]

    def per_op(x):
        return x / k

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        d = t["layers"][layer]
        m[f"{layer}.self_ms_per_op"] = (1e3 * per_op(d["self_s"]), "ms")
        m[f"{layer}.calls_per_op"] = (per_op(d["calls"]), "count")
        m[f"{layer}.failed_calls_per_op"] = (per_op(d["failed_calls"]), "count")
    tf_self = t["layers"]["transforms"]["self_s"]
    cv_self = t["layers"]["convolve"]["self_s"]
    eg_self = t["layers"]["ergodic"]["self_s"]
    m.update({
        "transforms.pole_evals_per_op": (per_op(c.get("transforms.pole_evals", 0)), "count"),
        "transforms.ns_per_pole_eval": (1e9 * ratio(tf_self, c.get("transforms.pole_evals", 0)), "ns"),
        "transforms.inversion_points_per_op": (per_op(c.get("transforms.inversion_points", 0)), "count"),
        "transforms.clamped_mass_max": (mx.get("transforms.clamped_mass_max", 0.0), "mass"),
        "convolve.subordination_solves_per_op": (per_op(c.get("convolve.subordination_solves", 0)), "count"),
        "convolve.subordination_iters_per_op": (per_op(c.get("convolve.subordination_iters", 0)), "count"),
        "convolve.ns_per_point_iter": (1e9 * ratio(cv_self, c.get("convolve.point_iters", 0)), "ns"),
        "convolve.nonconverged_frac": (ratio(c.get("convolve.nonconverged", 0),
                                             c.get("convolve.subordination_solves", 0)), "fraction"),
        "measures.classical_pairs_per_op": (per_op(c.get("measures.classical_pairs", 0)), "count"),
        "measures.atoms_kept_frac": (ratio(c.get("measures.atoms_kept", 0),
                                           c.get("measures.classical_pairs_ok", 0)), "fraction"),
        "measures.pruned_mass_max": (mx.get("measures.pruned_mass_max", 0.0), "mass"),
        "ergodic.start_steps_per_op": (per_op(c.get("ergodic.start_steps", 0)), "count"),
        "ergodic.ns_per_start_step": (1e9 * ratio(eg_self, c.get("ergodic.start_steps", 0)), "ns"),
        "ergodic.truncated_frac": (ratio(c.get("ergodic.truncated", 0), c.get("ergodic.starts", 0)),
                                   "fraction"),
        "ergodic.preimage_solves_per_op": (per_op(c.get("ergodic.preimage_solves", 0)), "count"),
        "cli.artifact_bytes_per_op": (per_op(c.get("cli.artifact_bytes", 0)), "bytes"),
        "trace.overhead_frac": (1.0 - ratio(traced_rate, plain_rate), "fraction"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (plain_rate, "1/s"),
        "trace.span_sum_frac": (ratio(sum(t["op_self_sum"]), traced_wall), "fraction"),
    })
    if t["min_self"] < 0:
        problems.append(f"negative span self time {t['min_self']!r}")
    shares = ", ".join(f"{layer} {ratio(t['layers'][layer]['self_s'], traced_wall):.3f}"
                       for layer in LAYERS)
    notes = [f"# share of traced op time by layer (self time): {shares}",
             f"# {t['spans']} spans written to {spans_path.relative_to(ROOT)}"]
    return m, notes, traced, problems


def main(argv=None) -> int:
    # on SIGTERM, leave through an exception: subprocess.run then kills the
    # running worker and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not BENCHMARK.is_file():
        print(f"error: no {BENCHMARK.name} at {ROOT}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "monoclt" / "__init__.py").is_file():
        print(f"error: no monoclt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        metrics, notes, res, problems = (per_layer if args.trace else end_to_end)(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment()
    ops, failed = len(res["ops"]), failed_ops(res)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# environment: nproc={env['nproc']} affinity={env['affinity']} "
          f"cpu={env['cpu_model']!r} numba_importable={env['numba_importable']}")
    print(f"# versions: {json.dumps(res['versions'])}; thread variables pinned to 1, "
          f"MONOCLT_THREADS unset; one client, closed loop, no queue (no wait metric)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_ops_frac':40s} {failed / ops:.6g} fraction "
          f"({failed} of {ops} ops; errors {_error_kinds(res)})")
    for line in notes:
        print(line)
    print(f"# reference comparisons: {res['reference']['compared']}")
    for p in problems[:20]:
        print(f"# PROBLEM {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
