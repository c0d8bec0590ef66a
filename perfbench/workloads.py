"""Seeded workloads of the holeburn benchmark.

A workload is a pool of ops drawn from a seed; a run makes whole passes
over it.  The pool is made of ``rounds`` rounds, each holding one op of
every kind the workload mixes.  Each kind's opacity is stratified: round
``r`` draws from its own stratum of the range (in a seeded order), so two
seeds give pools of nearly the same cost and the run-to-run spread comes
from the machine, not from the draw.

Every op goes through a name that callers look up at call time
(``holeburn.cli.main`` for scenario ops, the ``holeburn.medium`` /
``holeburn.propagation`` / ``holeburn.oracle`` functions for crosscheck),
so wrappers installed by the traced run see every layer boundary.  The
program receives only the generated scenario JSON (CLI ops) or the
generated parameters (crosscheck).
"""

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

import holeburn.cli
import holeburn.medium
import holeburn.oracle
import holeburn.propagation
import holeburn.storage
from holeburn import HoleProfile, MediumParams, PulseSpec, StorageSchedule

# Matched schedule delta0 T = b (alpha0 L)^(3/4) of the fig5/fig6 panels.
B_MATCHED = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str       # one line; BENCHMARK.json carries the same text
    kinds: tuple   # op kinds making up one round
    rounds: int    # rounds in the pool
    draw: object   # draw(kind, u, rng) -> op; u holds the stratified uniforms
    warmup: object  # pays the lazy set-up the workload's first op would pay
    dims: int = 1  # stratified dimensions per op


def _log_range(lo, hi, u):
    return lo * (hi / lo) ** u


def _r(x):
    """Round a drawn value so scenario files stay short and exact."""
    return round(float(x), 4)


def _inside_window(alpha0_L, rng):
    """delta0 T around the geometric centre of sqrt(aL) << d0T << aL.

    d0T = c * aL^(3/4) with c in [0.9, 1.1] keeps both confinement
    margins (d0T / sqrt(aL) and aL / d0T) at or above 0.9 * aL^(1/4),
    i.e. >= 2 at the smallest opacity drawn (25) and >= 3.8 at 340.
    """
    return _r(rng.uniform(0.9, 1.1) * alpha0_L ** 0.75)


# ---------------------------------------------------------------------------
# sweep-full: one single-point full-quadrature efficiency sweep per op
# ---------------------------------------------------------------------------
# Why: storage.restored_field_full does >90% of the work (seconds per
# point, most of it in the established kernel evaluated once per time
# sample); special, medium and propagation stay idle.  The sum-factorized
# restored field (ROADMAP item 2) should move ops_per_s and op_p50_ms here.

def _draw_sweep(kind, u, rng):
    aL = _r(9.0 + 91.0 * u[0])
    return {"kind": kind, "command": "sweep-efficiency",
            "scenario": {"kind": "sweep-efficiency", "alpha0_L_values": [aL],
                         "b": B_MATCHED, "method": "full_quadrature",
                         "label": "bench"}}


def _warmup_sweep():
    # Gauss-Legendre nodes for the (p, q) and u quadratures of the full route
    params = MediumParams.reduced(9.0)
    pulse, sched = holeburn.storage.default_schedule(params, b=B_MATCHED)
    holeburn.storage.restored_field_full(
        [sched.t_pi2 + 20.0], pulse, sched, HoleProfile.gaussian(), params)


# ---------------------------------------------------------------------------
# panels-light: transmit / revival store / finite-band revival / established
# ---------------------------------------------------------------------------
# Why: cheap ops (20 ms to 1 s) spread over every layer: CSV formatting in
# cli, one quad per time sample in storage.kappa_finite_bandwidth, the
# special functions and propagation.propagate.  The full-quadrature loop is
# idle, so this is the "no change" workload for ROADMAP item 2; the
# established route calls the kernel batched over 512 samples, so a kernel
# change that helps sweep-full but costs the batched use shows here.

def _draw_panel(kind, u, rng):
    if kind == "revival_fb":
        # finite conversion band: one quad per time sample, cost grows
        # steeply with opacity (3.5 s at aL = 400), so stay in 25..100
        aL = _r(_log_range(25.0, 100.0, u[0]))
    else:
        # up to 340 every grid fits in 2^14 samples, so the largest op (and
        # the peak memory) does not depend on the draw
        aL = _r(_log_range(25.0, 340.0, u[0]))
    dT = _inside_window(aL, rng)
    if kind == "transmit":
        return {"kind": kind, "command": "transmit",
                "scenario": {"kind": "transmit", "alpha0_L": aL,
                             "delta0_T": dT, "label": "bench"}}
    scenario = {"kind": "store", "alpha0_L": aL, "delta0_T": dT,
                "method": "established" if kind == "established" else "revival",
                "label": "bench"}
    if kind == "revival_fb":
        # cost triples from delta1 = 3 to 8 at aL = 100; a narrow band keeps
        # the pool's cost from hanging on this one draw
        scenario["delta1_over_delta0"] = _r(rng.uniform(4.0, 6.0))
    return {"kind": kind, "command": "store", "scenario": scenario}


def _warmup_panels():
    params = MediumParams.reduced(25.0)
    pulse = PulseSpec(duration=11.0)
    sched = StorageSchedule(t_pi1=20.0, t_pi2=30.0)
    # Gauss-Legendre nodes of the established kernel
    holeburn.storage.established_signal([sched.t_pi2 + 20.0], pulse, sched,
                                        params)
    holeburn.storage.kappa_finite_bandwidth(1.0, 5.0, HoleProfile.gaussian(),
                                            params)
    env = holeburn.propagation.auto_grid(pulse, params)
    holeburn.propagation.propagate(env, params.length,
                                   holeburn.medium.exact_gaussian_model(params),
                                   params)


# ---------------------------------------------------------------------------
# series-store: derivative-series retrieval, orders 1..3
# ---------------------------------------------------------------------------
# Why: the only workload with heavy set-up: the sympy builds of the 2n-th
# derivatives (orders 0..3) land in setup_s.  Its storage work is the
# (p, q) series loop, not the established kernel.  Jets in place of sympy
# (ROADMAP item 3) should move setup_s; item 2 should move op_p50_ms.

def _draw_series(kind, u, rng):
    aL = _r(9.0 + 91.0 * u[0])
    return {"kind": kind, "command": "store",
            "scenario": {"kind": "store", "alpha0_L": aL, "b": B_MATCHED,
                         "method": "series",
                         "series_order": int(kind[-1]), "label": "bench"}}


SERIES_MAX_ORDER = 3


def _warmup_series():
    # symbolic derivative builds for every order the pool uses
    params = MediumParams.reduced(25.0)
    pulse, sched = holeburn.storage.default_schedule(params, b=B_MATCHED)
    holeburn.storage.appendix_series_field(
        [sched.t_pi2 + 20.0], pulse, sched, params, order=SERIES_MAX_ORDER)


# ---------------------------------------------------------------------------
# crosscheck: quadrature-chi propagation against the time-domain oracle
# ---------------------------------------------------------------------------
# Why: the only workload that runs medium's adaptive-quadrature chi (one
# quad pair per frequency, halved by the symmetry cache) and the oracle.
# Without it neither would be measured.  Lossless ops (gamma = 0) are
# checked against the energy-tank identity; broad-line ops (gamma/delta0 in
# 0.01..0.1, where chi_exact_gaussian refuses to run) dissipate, so there
# the coherence tank may not exceed the field-energy deficit.
# delta0 T stays <= 7: from 8 up the auto grid cuts the input pulse and
# propagate rejects the spectrum for leakage at opacities below 12.
# Opacity, delta0 T and gamma are each stratified, so every pool spans each
# range evenly: the oracle's cost grows with opacity (0.15 to 0.6 s), the
# quadrature's depends on gamma (1.1 s lossless, 1.8 to 2.3 s broad).
# One op in four is lossless: lossless ops cost 1.0-1.7 s, broad ones mostly
# 1.8-2.8 s, and with one in three the pool's median fell in the gap between
# the two, where it moved by a fifth from seed to seed (a tenth at one in
# four, with the median inside the broad cluster).

def _draw_crosscheck(kind, u, rng):
    aL = _r(4.0 + 8.0 * u[0])
    dT = _r(4.0 + 3.0 * u[1])
    gamma = 0.0 if kind == "lossless" else _r(0.01 + 0.09 * u[2])
    return {"kind": kind, "alpha0_L": aL, "delta0_T": dT,
            "gamma_over_delta0": gamma}


def _warmup_crosscheck():
    holeburn.medium.chi_quadrature(0.5, HoleProfile.gaussian(),
                                   MediumParams.reduced(8.0, 0.05))


WORKLOADS = {w.name: w for w in (
    Workload("sweep-full",
             "full-quadrature restored field (storage) does >90% of the work; "
             "special, medium and propagation idle",
             ("sweep",), 4, _draw_sweep, _warmup_sweep),
    Workload("panels-light",
             "cheap transmit/revival/established ops spread over cli, special, "
             "propagation and kappa_finite_bandwidth; full quadrature idle",
             ("transmit", "revival", "revival_fb", "established"), 48,
             _draw_panel, _warmup_panels),
    Workload("series-store",
             "derivative-series store, orders 1-3: sympy builds land in "
             "set-up, the (p, q) series loop in the ops",
             ("order1", "order2", "order3"), 3, _draw_series, _warmup_series),
    Workload("crosscheck",
             "quadrature chi propagation against the time-domain oracle: the "
             "only load on medium's adaptive quadrature and on oracle",
             ("lossless", "broad", "broad2", "broad3"), 4, _draw_crosscheck,
             _warmup_crosscheck, dims=3),
)}


# Share of its stratum a drawn point may move from the stratum's centre.
# Op cost jumps where the auto grid doubles; full-width jitter moved ops
# across those jumps seed by seed and the pool's median latency with them.
JITTER = 0.5


def make_pool(workload, seed):
    """The workload's ops for ``seed``: ``rounds`` rounds of every kind."""
    rng = np.random.default_rng(seed)
    n = workload.rounds
    strata = {}
    for kind in workload.kinds:
        # one independently permuted stratification per dimension (a Latin
        # hypercube per kind): every stratum of every dimension used once
        strata[kind] = [
            rng.permutation((np.arange(n) + 0.5
                             + JITTER * (rng.random(n) - 0.5)) / n)
            for _ in range(workload.dims)]
    return [workload.draw(kind, tuple(float(d[r]) for d in strata[kind]), rng)
            for r in range(n) for kind in workload.kinds]


# ---------------------------------------------------------------------------
# op execution
# ---------------------------------------------------------------------------

def prepare(op, workdir, index):
    """Write the op's scenario file; returns the op's private directory."""
    opdir = os.path.join(workdir, f"op{index:03d}")
    os.makedirs(opdir, exist_ok=True)
    if "scenario" in op:
        with open(os.path.join(opdir, "scenario.json"), "w") as fh:
            json.dump(op["scenario"], fh, indent=2, sort_keys=True)
    return opdir


def clear_outputs(opdir):
    """Remove an op's previous outputs, so every run writes new files.

    Replacing existing files costs more than creating them (ext4 flushes
    data renamed over an old file); clearing keeps every pass alike.
    """
    shutil.rmtree(os.path.join(opdir, "out"), ignore_errors=True)


def execute(op, opdir):
    """Run one op; returns what ``read_outputs`` needs.  Only this is timed."""
    if "scenario" not in op:
        return _crosscheck(op)
    argv = [op["command"], "--scenario", os.path.join(opdir, "scenario.json"),
            "--out", os.path.join(opdir, "out")]
    if op["command"] == "sweep-efficiency":
        argv += ["--workers", "1"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = holeburn.cli.main(argv)
    return {"exit_code": code, "written": buf.getvalue().split()}


def _crosscheck(op):
    params = MediumParams.reduced(op["alpha0_L"], op["gamma_over_delta0"])
    env = holeburn.propagation.auto_grid(PulseSpec(duration=op["delta0_T"]),
                                         params)
    model = holeburn.medium.quadrature_model(HoleProfile.gaussian(), params)
    spectral = holeburn.propagation.propagate(env, params.length, model,
                                              params)
    oracle, diag = holeburn.oracle.time_domain_propagate(
        env, params.length, HoleProfile.gaussian(), params, n_atoms=512,
        energy_probe=True)
    return {"exit_code": 0, "input": env, "spectral": spectral,
            "oracle": oracle, "diag": diag}


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _find(files, suffix):
    return next(path for name, path in files.items() if name.endswith(suffix))


def _wave(path):
    data = _load_csv(path)
    return {"dt": float(data[1, 0] - data[0, 0]),
            "samples": data[:, 1] + 1j * data[:, 2]}


def _energy(wave):
    return float(np.sum(np.abs(wave["samples"]) ** 2) * wave["dt"])


def read_outputs(op, result):
    """Outputs of one op as {"waves", "scalars", "checks"}.

    ``waves`` and ``scalars`` are fingerprinted; ``checks`` feed the
    workload's own bounds only.
    """
    if "scenario" not in op:
        waves = {name: {"dt": result[name].dt, "samples": result[name].samples}
                 for name in ("input", "spectral", "oracle")}
        e_in = _energy(waves["input"])
        diag = result["diag"]
        ref, got = waves["spectral"]["samples"], waves["oracle"]["samples"]
        l2 = float(np.sqrt(np.sum(np.abs(got - ref) ** 2) * waves["input"]["dt"]
                           / _energy(waves["spectral"])))
        return {"waves": {k: waves[k] for k in ("spectral", "oracle")},
                "scalars": {"eta_spectral": _energy(waves["spectral"]) / e_in,
                            "eta_oracle": _energy(waves["oracle"]) / e_in,
                            "tank_energy": float(diag.tank_energy)},
                "checks": {"l2": l2, "tank_energy": float(diag.tank_energy),
                           "deficit": float(diag.energy_in - diag.energy_out),
                           "lossless": op["gamma_over_delta0"] == 0.0}}

    files = {os.path.basename(p): p for p in result["written"]}
    if op["command"] == "sweep-efficiency":
        table = _load_csv(files["efficiency.csv"])
        with open(files["efficiency.csv.json"]) as fh:
            side = json.load(fh)
        return {"waves": {}, "scalars": {"eta": float(table[0, 3])},
                "checks": {"failures": side["failures"],
                           "rows": int(table.shape[0])}}
    if op["command"] == "transmit":
        waves = {tail: _wave(_find(files, f"_{tail}.csv"))
                 for tail in ("input", "exact", "second_order")}
        e_in = _energy(waves.pop("input"))
        return {"waves": waves,
                "scalars": {f"eta_{k}": _energy(w) / e_in
                            for k, w in waves.items()},
                "checks": {}}
    restored = _find(files, "_restored.csv")
    original = _find(files, "_original.csv")
    with open(restored + ".json") as fh:
        side = json.load(fh)
    return {"waves": {"restored": _wave(restored), "original": _wave(original)},
            "scalars": {"eta": float(side["eta"])},
            "checks": {}}
