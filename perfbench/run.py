#!/usr/bin/env python3
"""holeburn benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one by one

One process, one closed-loop client: the next op starts only after the
previous op and its output check have finished.  The ops come from the
seeded pool of ``workloads.py`` and run against the package in ``src/``
of the checkout this file sits in.

--trace 0 runs whole passes over the pool for up to S seconds and
reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs the pool
once untraced and once with span/counter wrappers on every layer, and
reports the per-layer metrics, including the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Without the package source the runner exits 2 and
prints no result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded BLAS/LAPACK for this process and its set-up probes (set
# before numpy loads): on a shared 2-core machine threaded OpenBLAS spins
# against the other tenant and makes timings bimodal; leggauss(240) took
# either 0.01 s or 0.4 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
FINGERPRINTS = HERE / "fingerprints.json"
SETUP_SAMPLES = 3       # fresh-process set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 60
# series-store runs by hand only; BENCHMARK.json lists the other three
WORKLOAD_NAMES = ("sweep-full", "panels-light", "series-store", "crosscheck")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def parse_seeds(text):
    """'3' -> [3]; '0-4' -> [0, 1, 2, 3, 4]."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def setup_samples(name, count):
    """``count`` fresh-process (import_s, warmup_s) pairs."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((row["import_s"], row["warmup_s"]))
    return samples


# The harness modules below import numpy, so they are imported inside the
# functions that need them, after the first set-up sample has timed the
# full ``import holeburn``.

class Client:
    """Closed-loop client over one pool: runs, times and checks ops."""

    def __init__(self, workdir, pool, frozen):
        import check
        import workloads
        self.check = check
        self.workloads = workloads
        self.pool = pool
        self.frozen = frozen
        self.first_seen = {}
        self.opdirs = [workloads.prepare(op, workdir, i)
                       for i, op in enumerate(pool)]
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, index, on_written=None):
        """Run pool op ``index``; returns its latency in seconds."""
        check = self.check
        op = self.pool[index]
        self.attempted += 1
        self.workloads.clear_outputs(self.opdirs[index])
        t0 = time.perf_counter()
        try:
            result = self.workloads.execute(op, self.opdirs[index])
        except Exception:
            latency = time.perf_counter() - t0
            self._fail(index, traceback.format_exc(limit=3))
            return latency
        latency = time.perf_counter() - t0
        if result["exit_code"] != 0:
            self._fail(index, f"exit code {result['exit_code']}")
            return latency
        if on_written:
            on_written(result.get("written", ()))
        try:
            outputs = self.workloads.read_outputs(op, result)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            self._fail(index, f"unreadable output: {exc!r}")
            return latency
        bad = check.sanity(outputs)
        fp = check.fingerprint(outputs)
        ref = self.frozen[index] if self.frozen else self.first_seen.get(index)
        if ref is None:
            self.first_seen[index] = fp
        else:
            bad += check.compare(ref, fp)
        if bad:
            self._fail(index, "; ".join(bad))
        return latency

    def _fail(self, index, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"op {index} {self.pool[index]}: {why}")


def load_frozen(name, seed, pool):
    """Frozen fingerprints of (name, seed), or None when none ship.

    Raises ValueError when the shipped pool differs from the generated one
    (the generator changed, so the reference no longer applies)."""
    if not FINGERPRINTS.is_file():
        return None
    with open(FINGERPRINTS) as fh:
        entry = json.load(fh)["workloads"].get(name, {}).get(str(seed))
    if entry is None:
        return None
    if entry["ops"] != pool:
        raise ValueError(f"{name} seed {seed}: generated ops differ from the "
                         "frozen ones in fingerprints.json")
    return entry["fingerprints"]


def timed_phase(client, seconds):
    """Whole passes over the pool, at least one, while the next pass (as
    long as the last) still ends within ``seconds``.

    Whole passes keep every run's op mix equal to the pool's, so the
    latency quantiles do not depend on where a run happened to stop.  The
    pools are sized so one pass fills most of a run: every run then does
    the same work, and a run never takes twice its time."""
    latencies = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        latencies += [client.run(i) for i in range(len(client.pool))]
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return latencies, now - start


def traced_phase(client):
    """One untraced and one traced pass over the pool."""
    import tracing
    plain = [client.run(i) for i in range(len(client.pool))]
    tracer = tracing.Tracer()

    def count_bytes(paths):
        tracer.counts["cli.bytes_out"] += sum(os.path.getsize(p) for p in paths)

    patches = tracing.install(tracer)
    try:
        traced = []
        for i in range(len(client.pool)):
            tracer.op = i
            traced.append(client.run(i, on_written=count_bytes))
            tracer.op = None
    finally:
        tracing.uninstall(patches)
    return plain, traced, tracer


def fmt_table(rows):
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g} {unit}"
                     for name, value, unit in rows)


def run_one(args):
    import probe
    try:
        # this process is the first set-up sample: it imports holeburn and
        # pays the lazy set-up before the timed phase
        setup = [probe.measure(args.workload)]
        import workloads
        workload = workloads.WORKLOADS[args.workload]
        pool = workloads.make_pool(workload, args.seed)
        frozen = load_frozen(workload.name, args.seed, pool)
    except (FileNotFoundError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup += setup_samples(workload.name, SETUP_SAMPLES - 1)
    setup_s = statistics.median(a + b for a, b in setup)

    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(str(workdir), pool, frozen)
        if args.trace:
            plain, traced, tracer = traced_phase(client)
            metrics, rows = trace_report(tracer, plain, traced, setup)
            spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
        else:
            latencies, wall = timed_phase(client, args.seconds)
            metrics, rows = end_to_end_report(latencies, wall, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_frac = client.failed / client.attempted
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"frozen reference: {'yes' if frozen else 'no (self-consistency)'}")
    print(fmt_table(rows + [("fail_frac", fail_frac, "1")]))
    for line in client.failures:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": client.failed == 0,
                      "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": metrics}))
    return 0


def end_to_end_report(latencies, wall, setup_s):
    n = len(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    rows = [(k, v, END_TO_END_UNITS[k]) for k, v in values.items()]
    rows.append(("ops", n, "count"))
    # p90 only where at least ten samples lie above it
    if n >= 100:
        rows.append(("op_p90_ms",
                     statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"))
    rows.append(("timed_wall_s", wall, "s"))
    return metrics, rows


def trace_report(tracer, plain, traced, setup):
    import tracing
    values = tracing.layer_metrics(tracer.spans, tracer.counts, sum(traced))
    values["setup.import_s"] = statistics.median(a for a, _ in setup)
    values["setup.warmup_s"] = statistics.median(b for _, b in setup)
    values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    metrics = {k: {"value": values[k], "unit": unit}
               for k, (unit, _) in tracing.PER_LAYER.items()}
    # the table also shows the layer times in seconds
    rows = [(k, v, tracing.PER_LAYER.get(k, ("s",))[0])
            for k, v in values.items()]
    rows += [("traced_pass_s", sum(traced), "s"),
             ("spans", len(tracer.spans), "count")]
    return metrics, rows


def run_all(args):
    """Every workload in its own process; a summary line per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
