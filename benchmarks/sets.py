"""Sets of benchmark runs and their spreads: the baseline, or a stability check.

Usage, from the repository root::

    python3 benchmarks/sets.py --set 701-710 --set 801-810 --seconds 25 \
        --traced --out benchmarks/BENCH_baseline.json

Each ``--set A-B`` runs ``run.py --trace 0`` once per seed A..B on every
workload of ``BENCHMARK.json`` (or those given with ``--workloads``), the
workloads alternating seed by seed so that a slow spell of the machine
falls on all of them.  For each set and workload it reports the median,
quartiles and quartile spread ``(q3 - q1) / median`` of every end-to-end
metric (quartiles as ``statistics.quantiles(values, n=4)`` gives them),
with the raw, uncalibrated figures beside them; for every later set, the
change of each median from the first set in the worse direction, against
the metric's bound.  ``--traced`` adds one ``--trace 1`` run per workload
on the first seed.  The summary is printed and, with ``--out``, written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

RAW = re.compile(r"# raw, uncalibrated: ops_per_s (\S+), op_p50_ms (\S+), "
                 r"cpu_ms_per_op (\S+), setup_s (\S+)")
SPEED = re.compile(r"# machine speed: probes took (\S+)x \(wall\) and (\S+)x \(CPU\)")
SHARES = re.compile(r"# share of traced op time by layer \(self time\): (.*)")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def seeds_of(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--set", action="append", required=True, dest="sets", metavar="A-B")
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    runs: dict[str, dict[str, list]] = {s: {w: [] for w in workloads} for s in args.sets}
    for spec in args.sets:
        for seed in seeds_of(spec):
            for w in workloads:
                res, lines = run(w, seed, args.seconds, 0)
                raw = speed = None
                for line in lines:
                    if m := RAW.match(line):
                        raw = dict(zip(("ops_per_s", "op_p50_ms", "cpu_ms_per_op", "setup_s"),
                                       map(float, m.groups())))
                    if m := SPEED.match(line):
                        speed = [float(x) for x in m.groups()]
                runs[spec][w].append({"seed": seed, "result": res, "raw": raw, "speed": speed})
                vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                print(f"set {spec} seed {seed} {w:15s} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} speed={speed} {vals}", flush=True)

    summary: dict = {"sets": args.sets, "seconds": args.seconds, "workloads": {}}
    for w in workloads:
        per_set = {}
        for spec in args.sets:
            rs = runs[spec][w]
            per_set[spec] = {
                "runs": len(rs),
                "correct": all(r["result"]["correct"] for r in rs),
                "ops_attempted": sum(r["result"]["attempted"] for r in rs),
                "ops_failed": sum(r["result"]["failed"] for r in rs),
                "end_to_end": {k: quartiles([r["result"]["metrics"][k]["value"] for r in rs])
                               for k in e2e},
                "raw": {k: quartiles([r["raw"][k] for r in rs]) for k in rs[0]["raw"]},
                "speed_wall": quartiles([r["speed"][0] for r in rs]),
                "runs_detail": rs,
            }
        first = per_set[args.sets[0]]["end_to_end"]
        for spec in args.sets[1:]:
            cur = per_set[spec]["end_to_end"]
            per_set[spec]["vs_first_set"] = {
                k: {"worse_by": ((first[k]["median"] - cur[k]["median"]) / first[k]["median"]
                                 if e2e[k]["better"] == "higher" else
                                 (cur[k]["median"] - first[k]["median"]) / first[k]["median"]),
                    "bound": e2e[k]["bound"]}
                for k in e2e}
        summary["workloads"][w] = per_set

    if args.traced:
        seed = seeds_of(args.sets[0])[0]
        for w in workloads:
            res, lines = run(w, seed, args.seconds, 1)
            shares = next((m.group(1) for line in lines if (m := SHARES.match(line))), None)
            summary["workloads"][w]["traced"] = {"seed": seed, "result": res, "shares": shares}
            print(f"traced {w:15s} correct={res['correct']} shares: {shares}", flush=True)

    print()
    for w in workloads:
        for spec in args.sets:
            s = summary["workloads"][w][spec]
            cells = []
            for k in e2e:
                q = s["end_to_end"][k]
                flag = "" if k == "setup_s" or q["spread"] <= e2e[k]["bound"] / 3 else "!"
                cells.append(f"{k} {q['median']:.4g} ({q['spread']:.3f}{flag})")
            worse = s.get("vs_first_set", {})
            over = [k for k, d in worse.items() if d["worse_by"] > d["bound"] / 3]
            print(f"{w:15s} {spec:9s} failed {s['ops_failed']}/{s['ops_attempted']}  "
                  + "  ".join(cells) + (f"  worse beyond bound/3: {over}" if over else ""))
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
