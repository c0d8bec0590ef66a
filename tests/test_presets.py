"""The outputs of the five presets, pinned.

Every CSV a preset run writes is pinned by its sha256.  Every sidecar is
pinned by its efficiency ``eta`` and its ``validity`` values, where it has
them (the store sidecars), to 4e-12 relative: energies and efficiencies
are quadratic in the waveform, so a shift of 1e-12 of peak moves them by
at most that much (``perfbench/check.py``).  fig6 runs at ``--workers`` 1
and 2 against the same pins.

Running this module as a script rewrites ``data/preset_fingerprints.json``
from the current code:

    PYTHONPATH=src python tests/test_presets.py

Before rewriting it prints each pin that moved, one line each: the file,
old -> new, and for a number its relative shift.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from holeburn.cli import PRESETS, main

PINS = os.path.join(os.path.dirname(__file__), "data",
                    "preset_fingerprints.json")
REL_TOL = 4e-12


def _fingerprint(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".csv"):
        return hashlib.sha256(data).hexdigest()
    side = json.loads(data)
    return {key: side[key] for key in ("eta", "validity") if key in side}


def run_preset(name, out, workers=1):
    """Run preset ``name`` in process under ``out``: {file name: pin}."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        assert main(["preset", name, "--out", out]) == 0
        code = main([PRESETS[name].kind, "--scenario",
                     os.path.join(out, f"{name}.json"),
                     "--out", os.path.join(out, name),
                     "--workers", str(workers)])
    assert code == 0
    written = quiet.getvalue().split()[1:]
    return {os.path.basename(path): _fingerprint(path) for path in written}


def _close(ref, got):
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    return abs(got - ref) <= REL_TOL * abs(ref)


@pytest.mark.parametrize("name, workers",
                         [(name, 1) for name in sorted(PRESETS)]
                         + [("fig6", 2)])
def test_preset_outputs_pinned(name, workers, tmp_path):
    with open(PINS) as fh:
        ref = json.load(fh)[name]
    got = run_preset(name, str(tmp_path), workers)
    assert sorted(got) == sorted(ref)
    for fname, pin in ref.items():
        if isinstance(pin, str):
            assert got[fname] == pin, f"{fname}: sha256 changed"
            continue
        assert sorted(got[fname]) == sorted(pin), fname
        if "eta" in pin:
            assert _close(pin["eta"], got[fname]["eta"]), \
                f"{fname}: eta {got[fname]['eta']!r} != {pin['eta']!r}"
        validity = got[fname].get("validity", {})
        assert sorted(validity) == sorted(pin.get("validity", {})), fname
        for key, val in pin.get("validity", {}).items():
            assert _close(val, validity[key]), \
                f"{fname}: {key} {validity[key]!r} != {val!r}"


def _flat(pin):
    """A file's pin as {key: value}: its sha256, or eta and each validity."""
    if isinstance(pin, str):
        return {"sha256": pin}
    flat = {key: val for key, val in pin.items() if key != "validity"}
    flat.update(pin.get("validity", {}))
    return flat


def moved(ref, got):
    """One line per pin of ``got`` that differs from ``ref``: the file,
    old -> new, and for a number its relative shift."""
    lines = []
    for name in sorted(set(ref) | set(got)):
        old, new = ref.get(name, {}), got.get(name, {})
        for fname in sorted(set(old) | set(new)):
            if fname not in new or fname not in old:
                lines.append(f"{name}/{fname}: "
                             + ("removed" if fname in old else "added"))
                continue
            was, now = _flat(old[fname]), _flat(new[fname])
            for key in sorted(set(was) | set(now)):
                a, b = was.get(key), now.get(key)
                if a == b and type(a) is type(b):
                    continue
                line = f"{name}/{fname}: {key} {a!r} -> {b!r}"
                if (isinstance(a, float) and isinstance(b, float)
                        and a != 0.0):
                    line += f" (relative {abs(b - a) / abs(a):.1e})"
                lines.append(line)
    return lines


def test_moved_names_each_shifted_pin():
    ref = {"fig5": {"a.csv": "00", "a.csv.json": {
        "eta": 0.5, "validity": {"ok": True, "fraction": 2.0}}}}
    got = {"fig5": {"a.csv": "11", "b.csv": "22", "a.csv.json": {
        "eta": 0.5, "validity": {"ok": True, "fraction": 2.5}}}}
    assert moved(ref, got) == [
        "fig5/a.csv: sha256 '00' -> '11'",
        "fig5/a.csv.json: fraction 2.0 -> 2.5 (relative 2.5e-01)",
        "fig5/b.csv: added"]
    assert moved(ref, ref) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: run_preset(name, tmp) for name in sorted(PRESETS)}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            print("\n".join(moved(json.load(fh), pins)) or "no pin moved")
    with open(PINS, "w") as fh:
        fh.write(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(PINS)
