#!/usr/bin/env python3
"""Repeat the benchmark over seeds and write a BENCH record.

    python3 perfbench/baseline.py [--seeds 0-9] [--workloads a,b]
                                  [--seconds S] [--out DIR]

Runs ``run.py`` once per (workload, seed) with tracing off and once per
workload with tracing on (first seed), then prints, per end-to-end metric,
the median, the quartiles and the quartile spread as a share of the
median, the figure BENCHMARK.json's bounds are set against.  With --out
the record goes to ``DIR/BENCH_<sha>.json`` together with the git sha,
``nproc`` and the seeds.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, parse_seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default="0-9")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {
        "sha": subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT).stdout.strip() or "unknown",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "measurement": ("wall-clock only (time.perf_counter and ru_maxrss of "
                        "the benchmark's own processes), no machine-wide "
                        f"tracing or profiling, on a shared {os.cpu_count()}-core "
                        "machine whose other tenants were not controlled; "
                        "single-threaded BLAS"),
        "workloads": {},
    }
    for name in args.workloads.split(","):
        runs = [run_once(name, seed, args.seconds, 0) for seed in args.seeds]
        traced = run_once(name, args.seeds[0], args.seconds, 1)
        entry = record["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {}, "per_layer": {
                k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{name}: {entry['attempted']} ops, {entry['failed']} failed")
        for metric in runs[0]["metrics"]:
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bounds[metric] / 3 else \
                "  (spread above a third of the bound)"
            print(f"  {metric:<12} median {stats['median']:.6g}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.3f}  bound {bounds[metric]}{flag}\n"
                  f"               values "
                  + " ".join(f"{v:.4g}" for v in stats["values"]), flush=True)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"BENCH_{record['sha'][:7]}.json"
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(path)
    return 0 if all(e["correct"] for e in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
