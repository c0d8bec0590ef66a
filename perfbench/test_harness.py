"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest perfbench/test_harness.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import holeburn  # noqa: E402
import holeburn.cli  # noqa: E402
import holeburn.storage  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from holeburn.cli import Scenario  # noqa: E402


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_pool_reproducible_per_seed(name):
    w = workloads.WORKLOADS[name]
    assert workloads.make_pool(w, 7) == workloads.make_pool(w, 7)
    assert workloads.make_pool(w, 7) != workloads.make_pool(w, 8)
    # JSON round trip is lossless, so frozen pools compare equal
    pool = workloads.make_pool(w, 7)
    assert json.loads(json.dumps(pool)) == pool


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_pool_rounds_hold_every_kind(name):
    w = workloads.WORKLOADS[name]
    pool = workloads.make_pool(w, 3)
    assert len(pool) == w.rounds * len(w.kinds)
    for r in range(w.rounds):
        round_ops = pool[r * len(w.kinds):(r + 1) * len(w.kinds)]
        assert [op["kind"] for op in round_ops] == list(w.kinds)


@pytest.mark.parametrize("seed", range(20))
def test_scenarios_valid_and_inside_window(seed):
    for name in ("sweep-full", "panels-light", "series-store"):
        for op in workloads.make_pool(workloads.WORKLOADS[name], seed):
            Scenario.from_dict(op["scenario"]).validate()
    for op in workloads.make_pool(workloads.WORKLOADS["panels-light"], seed):
        aL, dT = op["scenario"]["alpha0_L"], op["scenario"]["delta0_T"]
        assert 25.0 <= aL <= 340.0
        # double confinement sqrt(aL) << d0T << aL with margins >= 2
        assert dT / math.sqrt(aL) >= 2.0 and aL / dT >= 2.0
    for op in workloads.make_pool(workloads.WORKLOADS["crosscheck"], seed):
        assert 4.0 <= op["alpha0_L"] <= 12.0 and 4.0 <= op["delta0_T"] <= 7.0
        assert op["gamma_over_delta0"] == 0.0 or \
            0.01 <= op["gamma_over_delta0"] <= 0.1


def test_frozen_pools_match_generator():
    with open(run.FINGERPRINTS) as fh:
        frozen = json.load(fh)
    for name, seeds in frozen["workloads"].items():
        for seed, entry in seeds.items():
            pool = workloads.make_pool(workloads.WORKLOADS[name], int(seed))
            assert entry["ops"] == pool
            assert len(entry["fingerprints"]) == len(pool)


# ---------------------------------------------------------------------------
# checker
# ---------------------------------------------------------------------------

def _outputs(samples, eta=0.5):
    return {"waves": {"restored": {"dt": 0.25, "samples": samples}},
            "scalars": {"eta": eta}, "checks": {}}


def _pulse():
    t = np.linspace(-8.0, 8.0, 512)
    return 0.7 * np.exp(-0.5 * t * t) * np.exp(0.3j * t)


def test_checker_accepts_identical_and_rounding_level_changes():
    base = _pulse()
    ref = check.fingerprint(_outputs(base))
    assert check.compare(ref, check.fingerprint(_outputs(base.copy()))) == []
    nudged = base + 1e-14 * np.max(np.abs(base))
    assert check.compare(ref, check.fingerprint(_outputs(nudged))) == []


def test_checker_flags_waveform_perturbed_by_1e9_of_peak():
    base = _pulse()
    ref = check.fingerprint(_outputs(base))
    bumped = base + 1e-9 * np.max(np.abs(base))
    assert check.compare(ref, check.fingerprint(_outputs(bumped)))
    # a single perturbed sample on the fixed subsample is caught too
    idx = np.linspace(0, base.size - 1, check.SUBSAMPLE).round().astype(int)
    one = base.copy()
    one[idx[5]] += 1e-9 * np.max(np.abs(base))
    assert check.compare(ref, check.fingerprint(_outputs(one)))


def test_checker_flags_efficiency_shift():
    base = _pulse()
    ref = check.fingerprint(_outputs(base, eta=0.5))
    assert check.compare(ref, check.fingerprint(_outputs(base, eta=0.5 + 1e-9)))


def test_sanity_bounds():
    assert check.sanity(_outputs(_pulse())) == []
    assert check.sanity(_outputs(_pulse(), eta=1.0))
    assert check.sanity(_outputs(_pulse(), eta=float("nan")))
    bad = _pulse()
    bad[3] = np.inf
    assert check.sanity(_outputs(bad))
    oracle = {"waves": {}, "scalars": {},
              "checks": {"l2": 1e-3, "tank_energy": 1.0, "deficit": 1.04,
                         "lossless": True}}
    assert check.sanity(oracle) == []
    oracle["checks"]["l2"] = 2e-2
    assert check.sanity(oracle)
    lossy = {"waves": {}, "scalars": {},
             "checks": {"l2": 1e-3, "tank_energy": 0.2, "deficit": 1.0,
                        "lossless": False}}
    assert check.sanity(lossy) == []
    lossy["checks"]["tank_energy"] = 1.2
    assert check.sanity(lossy)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),               # 0
        _span("storage.retrieve", 1.0, 4.0, 0),         # 1
        _span("propagation.propagate", 5.0, 9.0, 0),    # 2
        _span("medium.chi_exact_gaussian", 6.0, 7.0, 2),  # 3
        _span("special.dawson", 6.5, 6.75, 3),          # 4
        _span("special.erfc", 7.5, 8.0, 2),             # 5
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 3 - 4, 3.0, 4 - 1 - 0.5, 0.75, 0.25, 0.5])
    assert sum(own) == pytest.approx(10.0)
    assert tracing.busy_time(spans, {"special.dawson", "special.erfc"}) \
        == pytest.approx(0.75)


def test_self_time_clips_overlapping_children():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 2.0, 6.0, 0),
             _span("c", 5.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_busy_time_counts_nested_spans_once():
    spans = [_span("storage.kappa", 0.0, 5.0, -1),
             _span("storage.kappa", 1.0, 2.0, 0),
             _span("storage.kappa", 6.0, 7.0, -1)]
    assert tracing.busy_time(spans, {"storage.kappa"}) == pytest.approx(6.0)


def test_install_wraps_looked_up_names_and_uninstall_restores():
    original = holeburn.storage.retrieve
    assert holeburn.cli.retrieve is original
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert holeburn.cli.retrieve is not original
        assert holeburn.storage.retrieve is holeburn.cli.retrieve
        assert holeburn.retrieve is holeburn.cli.retrieve
        holeburn.storage.kappa(np.array([0.5, 1.0]))
    finally:
        tracing.uninstall(patches)
    assert holeburn.cli.retrieve is original
    assert [s[0] for s in tracer.spans] == ["storage.kappa", "special.erfc"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert tracer.counts["special.points"] == 2


def test_every_layer_function_exists():
    for layer, names in tracing.LAYERS.items():
        module = __import__(f"holeburn.{layer}", fromlist=["_"])
        assert all(callable(getattr(module, n)) for n in names), layer


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the runner
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_runner():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == [n for n in run.WORKLOAD_NAMES if n in names]
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER
