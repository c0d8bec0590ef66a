#!/usr/bin/env python3
"""Freeze the per-op output fingerprints of the shipped default seeds.

    python3 perfbench/freeze.py [--seeds 0-2]

Runs every op of every workload's pool once per seed against ``src/`` and
writes ``fingerprints.json``.  The benchmark then requires later commits
to reproduce these outputs within the bounds of ``check.py``.  Refreeze
only on a commit whose numbers are the accepted reference, and say so in
the change that does it.
"""

import argparse
import json
import subprocess
import sys
import tempfile

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=run.parse_seeds, default="0-2")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.SRC))
    import workloads

    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=run.ROOT).stdout.strip() or "unknown"
    frozen = {"sha": sha, "seeds": args.seeds, "workloads": {}}
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for name, workload in workloads.WORKLOADS.items():
            workload.warmup()
            per_seed = frozen["workloads"][name] = {}
            for seed in args.seeds:
                pool = workloads.make_pool(workload, seed)
                client = run.Client(workdir, pool, None)
                for i in range(len(pool)):
                    client.run(i)
                if client.failed:
                    print("\n".join(client.failures), file=sys.stderr)
                    return 1
                per_seed[str(seed)] = {
                    "ops": pool,
                    "fingerprints": [client.first_seen[i]
                                     for i in range(len(pool))]}
                print(f"{name} seed {seed}: {len(pool)} ops", flush=True)
    with open(run.FINGERPRINTS, "w") as fh:
        json.dump(frozen, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
