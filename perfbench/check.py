"""Output checks of the holeburn benchmark.

Every op is checked twice:

* ``sanity`` -- the op exited 0, every output is finite, every efficiency
  or transmission lies in (0, 1), a sweep recorded no failed point, and a
  crosscheck op passes the oracle bounds of the test suite.
* ``compare`` -- the op's fingerprint matches a reference: the frozen
  fingerprint of this (workload, seed, op) when one ships in
  ``fingerprints.json``, and otherwise the fingerprint of the op's first
  run in the same benchmark run (outputs are deterministic).

A fingerprint holds, per waveform, its sample count, peak |A|, energy and
a fixed subsample, plus the op's efficiencies.  Waveform values must
match within 1e-12 of the peak (the science-unchanged bound).  Energies
and efficiencies are quadratic in the waveform: a change of eps * peak in
every sample moves them by at most 2 eps peak * int|A| / int|A|^2 of
their value, sqrt(8) eps for a Gaussian, so they must match to 4e-12
relative.
"""

import math

import numpy as np

WAVE_TOL = 1e-12       # of the waveform's peak
QUADRATIC_TOL = 4e-12  # relative, energies and efficiencies
SUBSAMPLE = 8          # waveform points kept per fingerprint

# oracle bounds of tests/test_oracle.py and criterion 8
ORACLE_L2_MAX = 1e-2
TANK_REL_TOL = 0.05


def fingerprint(outputs):
    """Compact, JSON-ready fingerprint of one op's outputs."""
    waves = {}
    for name, wave in sorted(outputs["waves"].items()):
        s = np.asarray(wave["samples"], dtype=complex)
        idx = np.linspace(0, s.size - 1, SUBSAMPLE).round().astype(int)
        waves[name] = {"n": int(s.size),
                       "peak": float(np.max(np.abs(s))),
                       "energy": float(np.sum(np.abs(s) ** 2) * wave["dt"]),
                       "re": [float(v) for v in s.real[idx]],
                       "im": [float(v) for v in s.imag[idx]]}
    return {"waves": waves,
            "scalars": {k: float(v) for k, v in sorted(outputs["scalars"].items())}}


def _close_rel(ref, got):
    return abs(got - ref) <= QUADRATIC_TOL * abs(ref)


def compare(ref, got):
    """Mismatches between two fingerprints, as readable strings."""
    bad = []
    if sorted(ref["waves"]) != sorted(got["waves"]):
        bad.append(f"waveforms {sorted(got['waves'])} != {sorted(ref['waves'])}")
    for name in sorted(set(ref["waves"]) & set(got["waves"])):
        r, g = ref["waves"][name], got["waves"][name]
        if r["n"] != g["n"]:
            bad.append(f"{name}: {g['n']} samples, expected {r['n']}")
            continue
        tol = WAVE_TOL * r["peak"]
        if abs(g["peak"] - r["peak"]) > tol:
            bad.append(f"{name}: peak {g['peak']!r} != {r['peak']!r}")
        if not _close_rel(r["energy"], g["energy"]):
            bad.append(f"{name}: energy {g['energy']!r} != {r['energy']!r}")
        dev = max(np.max(np.abs(np.subtract(g["re"], r["re"]))),
                  np.max(np.abs(np.subtract(g["im"], r["im"]))))
        if dev > tol:
            bad.append(f"{name}: waveform off by {dev / r['peak']:.3e} of peak")
    if sorted(ref["scalars"]) != sorted(got["scalars"]):
        bad.append(f"scalars {sorted(got['scalars'])} != {sorted(ref['scalars'])}")
    for key in sorted(set(ref["scalars"]) & set(got["scalars"])):
        if not _close_rel(ref["scalars"][key], got["scalars"][key]):
            bad.append(f"{key}: {got['scalars'][key]!r} != "
                       f"{ref['scalars'][key]!r}")
    return bad


def sanity(outputs):
    """Workload-independent bounds every op must meet."""
    bad = []
    for name, wave in outputs["waves"].items():
        if not np.all(np.isfinite(wave["samples"])):
            bad.append(f"{name}: non-finite samples")
    for key, val in outputs["scalars"].items():
        if not math.isfinite(val):
            bad.append(f"{key}: not finite ({val!r})")
        elif key.startswith("eta") and not 0.0 < val < 1.0:
            bad.append(f"{key} = {val!r} outside (0, 1)")
    checks = outputs["checks"]
    if checks.get("failures"):
        bad.append(f"sweep points failed: {checks['failures']}")
    if "rows" in checks and checks["rows"] != 1:
        bad.append(f"sweep table has {checks['rows']} rows, expected 1")
    if "l2" in checks:
        if not checks["l2"] < ORACLE_L2_MAX:
            bad.append(f"oracle L2 difference {checks['l2']:.3e} "
                       f">= {ORACLE_L2_MAX}")
        tank, deficit = checks["tank_energy"], checks["deficit"]
        if checks["lossless"]:
            if not abs(tank - deficit) <= TANK_REL_TOL * abs(deficit):
                bad.append(f"energy tank {tank!r} != deficit {deficit!r} "
                           f"within {TANK_REL_TOL:.0%}")
        elif not tank <= (1.0 + TANK_REL_TOL) * deficit:
            bad.append(f"energy tank {tank!r} exceeds deficit {deficit!r}")
    return bad
