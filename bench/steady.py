#!/usr/bin/env python3
"""Repeat benchmark runs and report each metric's median and quartiles.

    python3 bench/steady.py                     # every workload, seeds 1..10
    python3 bench/steady.py --workloads tester_mc --seeds 5
    python3 bench/steady.py --seeds 1 --traced  # one plain and one traced run each

Each run is `bench/run.py` in its own process, one after another.  For every
end-to-end metric the report gives the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the metric's
bound from BENCHMARK.json, plus the operations attempted and failed.  With
--traced, one traced run per workload follows and its per-layer metrics are
printed with the tracing overhead: its wall_s per round (trace.wall_s) minus
the median untraced wall_s.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    worst = 0
    for workload in args.workloads:
        results = []
        for seed in range(1, args.seeds + 1):
            res = run_once(workload, seed, seconds, 0)
            results.append(res)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} exit={res['exit']} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {shown}", flush=True)
            worst = max(worst, res["exit"])
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: failed share per run {shares}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {m['bound']}{flag}")
        if args.traced:
            res = run_once(workload, 1, seconds, 1)
            worst = max(worst, res["exit"])
            plain = statistics.median(r["metrics"]["wall_s"]["value"] for r in results)
            traced = res["metrics"]["trace.wall_s"]["value"]
            print(f"  traced, seed 1: attempted={res['attempted']} failed={res['failed']} "
                  f"overhead {traced - plain:.6g} s per round ({(traced - plain) / plain:.1%} of {plain:.6g} s)")
            for name, m in res["metrics"].items():
                print(f"    {name:<52} {m['value']:.6g} {m['unit']}")
        sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())
