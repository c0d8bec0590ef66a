"""One set-up sample in a fresh process: ``python3 perfbench/probe.py NAME``.

Times ``import holeburn`` and the lazy set-up workload NAME's first op
would pay, and prints them as one JSON line.  A CLI user pays both on
every invocation.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(name):
    """(import_s, warmup_s) of this process; holeburn must not be loaded.

    Raises FileNotFoundError when the checkout holds no package source.
    """
    if not (SRC / "holeburn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC}")
    if "holeburn" in sys.modules:
        raise RuntimeError("holeburn already imported; set-up would read 0")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import holeburn
    t1 = time.perf_counter()
    if Path(holeburn.__file__).resolve().parent != SRC / "holeburn":
        raise RuntimeError(f"holeburn imported from {holeburn.__file__}, "
                           f"not from {SRC}")
    from workloads import WORKLOADS
    t2 = time.perf_counter()
    WORKLOADS[name].warmup()
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2


if __name__ == "__main__":
    import_s, warmup_s = measure(sys.argv[1])
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
