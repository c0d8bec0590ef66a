"""Scenario runner emitting deterministic CSV/JSON data files.

Scenarios are JSON files holding only dimensionless groups (``alpha0_L``,
``delta0_T`` or ``b``, ``gamma_over_delta0``, ``v_over_c``,
``delta1_over_delta0``, ``tpi1_rule``); everything downstream runs in
reduced units (alpha0 = delta0 = 1).  Subcommands:

``transmit``
    Propagate a gaussian pulse through the slab and emit, per duration,
    the input profile together with the exact-susceptibility and the
    second-order-susceptibility outputs.
``store``
    Run the full write/hold/read protocol and emit the delayed original
    (no storage, time column t - t_pi1) and the restored waveform (time
    column t - t_pi2) with the input and stretched durations recorded in
    the JSON sidecar.  A panel writes its three files only after its
    retrieval has succeeded.
``sweep-efficiency``
    Tabulate recovery efficiency against sqrt(alpha0 L) under the
    matched schedule delta0 T = b (alpha0 L)^(3/4), t_pi1 = L/(2v).
``validate``
    Check a scenario file against every module precondition and exit.
``preset <name>``
    Write one of the pinned scenario files (fig2, fig4a, fig4b, fig5,
    fig6) into the output directory.

Every file is written here, by ``_write_csv`` (fixed ``%.12e`` columns
under a ``#  `` header) or ``_write_json`` (sorted keys, indent 2), each
to ``<name>.tmp`` and then renamed over ``<name>``; a write that fails
removes ``<name>.tmp``.  CSV values are formatted by a numpy kernel,
``_format_block``, in blocks of rows; it prints the bytes that ``%`` and
``np.savetxt`` print, and passes to ``%`` itself every value it cannot
round correctly on its own (near a rounding tie, non-finite, subnormal or
with a three-digit exponent).  Sweep points are merged in sorted
parameter order regardless of the worker count, so identical scenarios
produce byte-identical files.

Exit codes: 0 success, 2 validation failure (including a scenario file
that is missing or is not a JSON object with a ``kind``, and an ``--out``
that is not a writable directory), 3 numerical failure.
"""

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from functools import cache

import numpy as np

from .errors import (ConfigurationError, DomainError, NumericsError,
                     PreconditionError)
from .medium import (HoleProfile, MediumParams, exact_gaussian_model,
                     second_order_model, slow_light_velocity)
from .propagation import (MAX_GRID_SAMPLES, PulseSpec, SampledEnvelope,
                          auto_grid, propagate, stretched_duration)
from .storage import (_METHODS, MAX_DELTA1_OVER_DELTA0, MAX_REFINE,
                      StorageSchedule, default_schedule, retrieve)

_KINDS = ("transmit", "store", "sweep-efficiency")
_FMT = "%.12e"
# Rows formatted per ``_format_block`` call in ``_write_csv``: bounds the
# transient arrays and text to a few MB at any grid size.
_CSV_BLOCK = 4096
# Index of decimal exponent 0 in the exponent tables of ``_format_tables``,
# which cover exponents -101..99: the fast path's -99..98 plus the one-off
# estimates that ``_format_block`` corrects or sends to the fallback.
_E0 = 101
# One value's slot in ``_format_block``: its text, NUL-padded to the 20
# bytes of the longest ``_FMT`` output, then its separator word.
_SLOT = np.dtype([("text", "S20"), ("sep", "u4")])
# Scenario fields that must hold finite real numbers, those that may also be
# None, and those that must hold integers.
_REAL_FIELDS = ("gamma_over_delta0", "v_over_c", "hold_times_delta0")
_OPTIONAL_REAL_FIELDS = ("alpha0_L", "delta0_T", "b", "delta1_over_delta0")
_INT_FIELDS = ("series_order", "n_time", "refine")


def _is_real(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_finite(val):
    """A real number that a float holds finitely (JSON ints are unbounded)."""
    try:
        return _is_real(val) and math.isfinite(val)
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Dimensionless description of one run; round-trips losslessly via JSON.

    Exactly one of ``delta0_T`` / ``delta0_T_values`` / ``b`` selects the
    pulse duration; ``alpha0_L_values`` replaces ``alpha0_L`` for panel
    sweeps.  ``delta1_over_delta0 = None`` means infinite conversion
    bandwidth.  ``tpi1_rule`` is either "half-transit" or a number giving
    the write instant as a fraction of the transit time L/v.
    """

    kind: str
    alpha0_L: float = None
    alpha0_L_values: tuple = None
    delta0_T: float = None
    delta0_T_values: tuple = None
    b: float = None
    gamma_over_delta0: float = 0.0
    v_over_c: float = 0.0
    delta1_over_delta0: float = None
    tpi1_rule: object = "half-transit"
    hold_times_delta0: float = 10.0
    method: str = "full_quadrature"
    series_order: int = 2
    n_time: int = 512
    refine: int = 1
    label: str = ""

    def to_dict(self):
        d = asdict(self)
        for key in ("alpha0_L_values", "delta0_T_values"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigurationError("a scenario must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown scenario fields: {unknown}")
        if "kind" not in data:
            raise ConfigurationError("scenario field 'kind' is required")
        data = dict(data)
        for key in ("alpha0_L_values", "delta0_T_values"):
            values = data.get(key)
            if values is None:
                continue
            if not (isinstance(values, (list, tuple)) and values
                    and all(map(_is_finite, values))):
                raise ConfigurationError(
                    f"{key} must be a non-empty list of finite numbers")
            data[key] = tuple(float(v) for v in values)
        return cls(**data)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigurationError(f"cannot read scenario: {exc}") from None
        return cls.from_dict(data)

    def save(self, path):
        _write_json(path, self.to_dict())

    # -- validation ---------------------------------------------------------

    def _number_violations(self):
        """Non-numeric or non-finite values; the range checks need numbers."""
        bad = []
        values = [(name, getattr(self, name)) for name in _REAL_FIELDS]
        values += [(name, getattr(self, name)) for name in _OPTIONAL_REAL_FIELDS
                   if getattr(self, name) is not None]
        values += [(name, v) for name in ("alpha0_L_values", "delta0_T_values")
                   for v in getattr(self, name) or ()]
        if _is_real(self.tpi1_rule):
            values.append(("tpi1_rule", self.tpi1_rule))
        for name, val in values:
            if not _is_finite(val):
                bad.append(f"{name} must be a finite number, got {val!r}")
        for name in _INT_FIELDS:
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, int):
                bad.append(f"{name} must be an integer, got {val!r}")
        return bad

    def violations(self):
        """List of precondition violations; empty when the scenario is valid."""
        bad = []
        if self.kind not in _KINDS:
            bad.append(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if (self.alpha0_L is None) == (self.alpha0_L_values is None):
            bad.append("exactly one of alpha0_L / alpha0_L_values is required")
        numbers = self._number_violations()
        if numbers:
            return bad + numbers
        for aL in self._alpha0_L_list():
            if self.kind == "transmit" and aL < 0:
                bad.append(f"alpha0_L must be non-negative, got {aL}")
            elif self.kind != "transmit" and not aL > 0:
                bad.append(f"alpha0_L must be positive, got {aL}")
        dur = [name for name, val in (("delta0_T", self.delta0_T),
                                      ("delta0_T_values", self.delta0_T_values),
                                      ("b", self.b)) if val is not None]
        if len(dur) != 1:
            bad.append("exactly one of delta0_T / delta0_T_values / b is "
                       f"required, got {dur or 'none'}")
        for dT in (self.delta0_T_values or ()) + (
                () if self.delta0_T is None else (self.delta0_T,)):
            if not dT > 0:
                bad.append(f"delta0_T must be positive, got {dT}")
        if self.b is not None and not self.b > 0:
            bad.append(f"b must be positive, got {self.b}")
        if self.gamma_over_delta0 < 0:
            bad.append("gamma_over_delta0 must be non-negative")
        if not 0.0 <= self.v_over_c < 1.0:
            bad.append("v_over_c must lie in [0, 1)")
        d1 = self.delta1_over_delta0
        if d1 is not None and not 1.0 < d1 <= MAX_DELTA1_OVER_DELTA0:
            bad.append("delta1_over_delta0 must lie in "
                       f"(1, {MAX_DELTA1_OVER_DELTA0:g}] (conversion band "
                       f"wider than the hole), got {d1:g}")
        if not (self.tpi1_rule == "half-transit" or _is_real(self.tpi1_rule)):
            bad.append("tpi1_rule must be 'half-transit' or a transit fraction")
        if _is_real(self.tpi1_rule) and not self.tpi1_rule > 0:
            bad.append("tpi1_rule fraction must be positive")
        if not self.hold_times_delta0 > 0:
            bad.append("hold_times_delta0 must be positive")
        if self.method not in _METHODS:
            bad.append(f"method must be one of {_METHODS}, got {self.method!r}")
        if not 0 <= self.series_order <= 6:
            bad.append("series_order must lie in 0..6")
        if self.n_time < 2 or self.n_time & (self.n_time - 1):
            bad.append("n_time must be a power of two")
        elif self.n_time > MAX_GRID_SAMPLES:
            bad.append(f"n_time must not exceed {MAX_GRID_SAMPLES}, "
                       f"got {self.n_time}")
        if not 1 <= self.refine <= MAX_REFINE:
            bad.append(f"refine must lie in 1..{MAX_REFINE}, got {self.refine}")
        if self.kind == "transmit" and self.b is not None:
            bad.append("transmit scenarios need an explicit delta0_T")
        if self.kind != "transmit" and self.delta0_T_values is not None:
            bad.append("delta0_T_values is for transmit; store and sweep "
                       "scenarios take delta0_T or b")
        if self.kind == "transmit" and len(self._alpha0_L_list()) > 1:
            bad.append("transmit takes one opacity, got alpha0_L_values "
                       f"{list(self.alpha0_L_values)}")
        # each panel's files are named by _num of its value: equal tags
        # would overwrite one panel with the next
        field = ("alpha0_L_values" if self.kind == "store" else
                 "delta0_T_values" if self.kind == "transmit" else None)
        seen = {}
        for val in (getattr(self, field) if field else None) or ():
            tag = _num(val)
            if tag in seen:
                bad.append(f"{field} {seen[tag]!r} and {val!r} share the "
                           f"file tag {tag!r}")
            else:
                seen[tag] = val
        return bad

    def validate(self):
        bad = self.violations()
        if bad:
            raise ConfigurationError("invalid scenario: " + "; ".join(bad))

    # -- derived pieces -----------------------------------------------------

    def _alpha0_L_list(self):
        if self.alpha0_L_values is not None:
            return list(self.alpha0_L_values)
        return [self.alpha0_L] if self.alpha0_L is not None else []

    def params_for(self, alpha0_L):
        return MediumParams.reduced(alpha0_L, self.gamma_over_delta0,
                                    self.v_over_c)

    def pulse_and_schedule(self, params):
        """Build (PulseSpec, StorageSchedule) for one panel."""
        if self.b is not None:
            pulse, schedule = default_schedule(
                params, b=self.b, hold=self.hold_times_delta0 / params.delta0)
        else:
            pulse = PulseSpec(duration=self.delta0_T / params.delta0)
            t_pi1 = params.length / (2.0 * slow_light_velocity(params))
            schedule = StorageSchedule(
                t_pi1=t_pi1,
                t_pi2=t_pi1 + self.hold_times_delta0 / params.delta0)
        if self.tpi1_rule != "half-transit":
            transit = params.length / slow_light_velocity(params)
            t_pi1 = float(self.tpi1_rule) * transit
            schedule = StorageSchedule(
                t_pi1=t_pi1,
                t_pi2=t_pi1 + self.hold_times_delta0 / params.delta0,
                delta1=schedule.delta1)
        if self.delta1_over_delta0 is not None:
            schedule = StorageSchedule(
                t_pi1=schedule.t_pi1, t_pi2=schedule.t_pi2,
                delta1=self.delta1_over_delta0 * params.delta0)
        return pulse, schedule


PRESETS = {
    # transmission comparison at opacity 100 for two pulse durations
    "fig2": Scenario(kind="transmit", alpha0_L=100.0,
                     delta0_T_values=(5.0, 10.0), label="fig2"),
    # revival after readout, infinite conversion bandwidth
    "fig4a": Scenario(kind="store", alpha0_L=100.0, delta0_T=19.0,
                      method="revival", label="fig4a"),
    # same readout with the conversion band clipped at five hole widths
    "fig4b": Scenario(kind="store", alpha0_L=100.0, delta0_T=19.0,
                      method="revival", delta1_over_delta0=5.0, label="fig4b"),
    # full-protocol panels at three opacities, matched schedule b = 0.6
    "fig5": Scenario(kind="store", alpha0_L_values=(25.0, 50.0, 100.0),
                     b=0.6, method="full_quadrature", label="fig5"),
    # efficiency against sqrt(opacity) under the matched schedule
    "fig6": Scenario(kind="sweep-efficiency",
                     alpha0_L_values=(9.0, 16.0, 25.0, 36.0, 64.0, 100.0),
                     b=0.6, method="full_quadrature", label="fig6"),
}


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

@contextmanager
def _replacing(path):
    """Write ``path.tmp``, then rename it over ``path``: no partial files.

    A write that raises removes ``path.tmp`` and leaves ``path`` as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@cache
def _format_tables():
    """Lookup tables of ``_format_block``, built on its first call.

    ``scale[e + _E0]`` is 10^(12 - e), correctly rounded.  The others are
    text as native ``uint32`` words, NUL-padded: ``quad[k]`` the four
    digits of k in 0..9999, ``head[10 s + d]`` the sign (s = 1 for minus),
    the leading digit d and the point, ``tail[e + _E0]`` "e±XX", and
    ``sep`` the separator after a value inside a row (", ") and at its end
    ("\\n").
    """
    exps = range(-_E0, 100)
    scale = np.array([float(f"1e{12 - e}") for e in exps])
    k = np.arange(10000)
    quad = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    quad = (quad + ord("0")).astype(np.uint8).view(np.uint32).ravel()

    def as_words(texts):
        return np.frombuffer(b"".join(t.encode().ljust(4, b"\0")
                                      for t in texts), np.uint32)

    head = as_words(f"{s}{d}." for s in ("", "-") for d in range(10))
    # three-digit exponents are cut short here; those values fall back
    tail = as_words(f"e{e:+03d}"[:4] for e in exps)
    sep = as_words(["\0\0, ", "\0\0\n"])
    return scale, quad, head, tail, sep


def _format_block(block):
    """``_FMT`` text of each value of a 2-D float64 block, values joined by
    ", " and rows ended by "\\n": the bytes ``%`` prints for them.

    Fast path, for finite 1e-99 <= |x| < 1e99 and for ±0: with
    e = floor(log10 |x|), y = fl(|x| fl(10^(12 - e))) lies within 2.3e-3
    of the exact |x| 10^(12 - e) (two roundings of relative size 2^-53
    below 1e13).  So when m = rint(y) lies in [1e12, 1e13) and y lies 0.01
    or more from a half-integer, m is the correctly rounded 13-digit
    mantissa that ``%`` prints, and no tie is possible.  A y in
    [1e12 - 0.04, 1e12) belongs to an |x| just below 10^e, whose mantissa
    at exponent e - 1 rounds up to 1e13, so it prints as m = 1e12 at e
    too.  An e off by one (log10 near a power of ten, or a mantissa
    carried into the next decade) is corrected once.  The digits come from
    the lookup tables, one NUL-padded slot per value, and the NULs are
    dropped at the end.

    Every other value goes through ``_FMT % x`` itself: a y near a tie or
    still out of range, nan, ±inf, subnormals and three-digit exponents.
    """
    scale, quad, head, tail, sep = _format_tables()
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-99) & (a < 1e99)
    a = np.where(fast, a, 1.0)  # keeps log10 and the index cast finite
    e = np.floor(np.log10(a)).astype(np.intp)
    e += _E0
    y = a * scale[e]
    m = np.rint(y)
    low = 1e12 - 0.04
    off = np.flatnonzero((y < low) | (m >= 1e13))
    if off.size:
        e[off] += np.where(m[off] >= 1e13, 1, -1)
        y[off] = a[off] * scale[e[off]]
        m[off] = np.rint(y[off])
    fast &= (np.abs(y - m) < 0.49) & (y >= low) & (m < 1e13)
    fast &= (e >= _E0 - 99) & (e <= _E0 + 98)
    # zeros print m = 0 at e = 0; a fallback slot only needs valid indices
    m = np.where(fast, m, 0.0).astype(np.int64)
    fast |= zero

    lead = m // 10**12
    m -= lead * 10**12
    lead += 10 * np.signbit(x)
    hi = m // 10**8
    m -= hi * 10**8
    mid = m // 10**4
    m -= mid * 10**4
    nrow, ncol = block.shape
    slots = np.empty((nrow, ncol, 6), np.uint32)
    words = slots.reshape(-1, 6)
    words[:, 0] = head[lead]
    words[:, 1] = quad[hi]
    words[:, 2] = quad[mid]
    words[:, 3] = quad[m]
    words[:, 4] = tail[e]
    slots[:, :-1, 5] = sep[0]
    slots[:, -1, 5] = sep[1]
    slow = np.flatnonzero(~fast)
    if slow.size:
        words.view(_SLOT)["text"][slow, 0] = [_FMT % v
                                              for v in x[slow].tolist()]
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def _write_csv(path, header, columns):
    """``np.savetxt(fmt=_FMT, delimiter=", ")``'s bytes, formatted by
    ``_format_block`` in blocks of ``_CSV_BLOCK`` rows."""
    table = np.column_stack(columns).astype(np.float64, copy=False)
    with _replacing(path) as fh:
        fh.write(f"#  {header}\n")
        for start in range(0, len(table), _CSV_BLOCK):
            fh.write(_format_block(table[start:start + _CSV_BLOCK]))


def _write_json(path, payload):
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _num(x):
    """Tag for file names: 10.0 -> '10', 0.5 -> '0.5'."""
    return f"{x:g}"


# ---------------------------------------------------------------------------
# transmit
# ---------------------------------------------------------------------------

def _free_space_grid(pulse):
    """Sampling grid for the no-medium case (alpha0_L = 0)."""
    dt = pulse.duration / 16.0
    n = 1 << int(math.ceil(math.log2(max(8.0 * pulse.duration / dt, 1024))))
    t_start = pulse.center_time - 0.25 * n * dt
    t = t_start + dt * np.arange(n)
    return SampledEnvelope(t_start=t_start, dt=dt,
                           samples=pulse.amplitude(t))


def run_transmit(scenario: Scenario, out_dir, tol=1e-6):
    """Emit input / exact / second-order transmitted profiles per duration.

    Returns the list of files written.  ``alpha0_L = 0`` short-circuits
    to identity transport (no medium): the output files equal the input
    file apart from the time column.
    """
    scenario.validate()
    alpha0_L = scenario._alpha0_L_list()[0]
    durations = scenario.delta0_T_values or (scenario.delta0_T,)
    written = []
    for dT in durations:
        tag = f"transmit_dT{_num(dT)}"
        if alpha0_L == 0.0:
            pulse = PulseSpec(duration=float(dT))
            env = _free_space_grid(pulse)
            outputs = {"input": env, "exact": env, "second_order": env}
        else:
            params = scenario.params_for(alpha0_L)
            pulse = PulseSpec(duration=float(dT) / params.delta0)
            env = auto_grid(pulse, params)
            outputs = {
                "input": env,
                "exact": propagate(env, params.length,
                                   exact_gaussian_model(params), params,
                                   leakage_tol=tol),
                "second_order": propagate(env, params.length,
                                          second_order_model(params), params,
                                          leakage_tol=tol),
            }
        for name, out in outputs.items():
            path = os.path.join(out_dir, f"{tag}_{name}.csv")
            _write_csv(path, "t, re, im",
                       [out.times, out.samples.real, out.samples.imag])
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

def _regime_warnings(method, validity):
    """Readable warnings for the validity indicators a retrieval left out
    of regime; empty when the result is clean."""
    warnings = []
    if method == "revival" and validity["revival_condition_fraction"] > 0.5:
        warnings.append("revival product form used outside its validity "
                        "window (elapsed time not small against the pulse "
                        "duration squared)")
    if method == "established" and not validity["established_window_ok"]:
        warnings.append("established-signal kernel used before the restored "
                        "peak leaves the early window")
    if validity["spectral_margin"] < 1.0:
        warnings.append("pulse spectrum not confined inside the hole "
                        "(delta0 T below sqrt(alpha0 L))")
    if validity["temporal_margin"] < 1.0:
        warnings.append("pulse not confined inside the slab "
                        "(delta0 T above alpha0 L)")
    return warnings


def _store_panel(scenario: Scenario, alpha0_L, out_dir):
    """Write one panel's three files, only once its retrieval succeeded."""
    params = scenario.params_for(alpha0_L)
    pulse, schedule = scenario.pulse_and_schedule(params)

    # delayed original: transmitted profile with the control pulses off
    env = auto_grid(pulse, params)
    original = propagate(env, params.length, exact_gaussian_model(params),
                         params)
    result = retrieve(pulse, schedule, params, profile=HoleProfile.gaussian(),
                      method=scenario.method,
                      series_order=scenario.series_order,
                      n_time=scenario.n_time, refine=scenario.refine)
    sidecar = {
        "method": result.method, "eta": result.efficiency,
        "params": asdict(params), "validity": result.validity,
        "alpha0_L": alpha0_L,
        "delta0_T": params.delta0 * pulse.duration,
        "T": pulse.duration,
        "T_s": float(stretched_duration(params.length, pulse.duration,
                                        params)),
        "t_pi1": schedule.t_pi1,
        "t_pi2": schedule.t_pi2,
        "delta1_over_delta0": (None if schedule.infinite_bandwidth
                               else schedule.delta1 / params.delta0),
        "warnings": _regime_warnings(scenario.method, result.validity),
    }

    stem = os.path.join(out_dir, f"store_aL{_num(alpha0_L)}")
    _write_csv(f"{stem}_original.csv", "t_minus_tpi1, re, im",
               [original.times - schedule.t_pi1, original.samples.real,
                original.samples.imag])
    restored = result.envelope
    _write_csv(f"{stem}_restored.csv", "t_minus_tpi2, re, im",
               [restored.times, restored.samples.real, restored.samples.imag])
    _write_json(f"{stem}_restored.csv.json", sidecar)
    return [f"{stem}_original.csv", f"{stem}_restored.csv",
            f"{stem}_restored.csv.json"]


def run_store(scenario: Scenario, out_dir):
    """Emit original/restored profile pairs, one per opacity panel."""
    scenario.validate()
    written = []
    for alpha0_L in scenario._alpha0_L_list():
        written.extend(_store_panel(scenario, alpha0_L, out_dir))
    return written


# ---------------------------------------------------------------------------
# efficiency sweep
# ---------------------------------------------------------------------------

def _sweep_point(args):
    """One sweep point: (alpha0_L, delta0_T, eta, failure, warnings).

    Module-level so process pools can pickle it.
    """
    scenario_dict, alpha0_L, tol = args
    scenario = Scenario.from_dict(scenario_dict)
    params = scenario.params_for(alpha0_L)
    pulse, schedule = scenario.pulse_and_schedule(params)
    try:
        result = retrieve(pulse, schedule, params,
                          profile=HoleProfile.gaussian(),
                          method=scenario.method,
                          series_order=scenario.series_order,
                          n_time=scenario.n_time, refine=scenario.refine)
        eta = result.efficiency
        if tol is not None:
            eta2 = retrieve(pulse, schedule, params,
                            profile=HoleProfile.gaussian(),
                            method=scenario.method,
                            series_order=scenario.series_order,
                            n_time=scenario.n_time,
                            refine=2 * scenario.refine).efficiency
            if abs(eta2 - eta) > tol:
                raise NumericsError(
                    "efficiency not converged: doubling the quadrature "
                    f"resolution moved eta by {abs(eta2 - eta):.2e}",
                    residual=abs(eta2 - eta))
        return (alpha0_L, params.delta0 * pulse.duration, eta, None,
                _regime_warnings(scenario.method, result.validity))
    except NumericsError as exc:
        failure = {"message": f"numerical failure: {exc}",
                   "residual": None if exc.residual is None
                   else float(exc.residual)}
    except (ConfigurationError, PreconditionError, DomainError) as exc:
        failure = {"message": str(exc)}
    return alpha0_L, params.delta0 * pulse.duration, math.nan, failure, []


def run_sweep(scenario: Scenario, out_dir, workers=1, tol=None):
    """Tabulate eta against sqrt(alpha0 L).

    Per-point failures are recorded in the sidecar (``failures`` holds the
    message, ``residuals`` the residual of each numerical failure) and the
    sweep continues.  ``warnings`` lists, per point, the regime warnings a
    ``store`` of that point would carry.  After writing both files a
    NumericsError is raised if any point failed numerically.
    """
    scenario.validate()
    points = sorted(scenario._alpha0_L_list())
    jobs = [(scenario.to_dict(), aL, tol) for aL in points]
    if workers > 1:
        # multiprocessing is loaded only when a pool is asked for
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(job) for job in jobs]
    rows.sort(key=lambda row: row[0])

    path = os.path.join(out_dir, "efficiency.csv")
    _write_csv(path, "sqrt_alpha0_L, alpha0_L, delta0_T, eta",
               [[math.sqrt(r[0]) for r in rows], [r[0] for r in rows],
                [r[1] for r in rows], [r[2] for r in rows]])
    failed = {_num(r[0]): r[3] for r in rows if r[3] is not None}
    residuals = {key: f["residual"] for key, f in failed.items()
                 if "residual" in f}
    _write_json(path + ".json", {
        "method": scenario.method, "b": scenario.b,
        "convergence_tol": tol,
        "failures": {key: f["message"] for key, f in failed.items()},
        "residuals": residuals,
        "warnings": {_num(r[0]): r[4] for r in rows if r[4]},
    })
    if residuals:
        raise NumericsError(
            f"sweep points alpha0_L = {', '.join(residuals)} failed "
            f"numerically; table and sidecar written to {path}",
            residual=max((r for r in residuals.values() if r is not None),
                         default=None))
    return [path, path + ".json"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="holeburn",
        description="Slow-light storage scenario runner (data files only).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_required=True):
        p.add_argument("--scenario", required=scenario_required,
                       help="path to a scenario JSON file")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        p.add_argument("--workers", type=int, default=1,
                       help="process count for sweep points")
        p.add_argument("--tol", type=float, default=None,
                       help="numerical tolerance (spectral leakage bound for "
                            "transmit; eta convergence bound for sweeps)")

    add_common(sub.add_parser("transmit", help="input vs transmitted profiles"))
    add_common(sub.add_parser("store", help="original vs restored profiles"))
    add_common(sub.add_parser("sweep-efficiency",
                              help="eta vs sqrt(alpha0 L) table"))
    add_common(sub.add_parser("validate", help="check a scenario file"))

    preset = sub.add_parser("preset", help="write a pinned scenario file")
    preset.add_argument("name", choices=sorted(PRESETS))
    preset.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ConfigurationError(
                f"--tol must be a positive finite number, got {tol!r}")
        os.makedirs(args.out, exist_ok=True)
        if args.command == "preset":
            path = os.path.join(args.out, f"{args.name}.json")
            PRESETS[args.name].save(path)
            print(path)
            return 0

        scenario = Scenario.load(args.scenario)
        if args.command == "validate":
            scenario.validate()
            print("scenario valid")
            return 0
        if args.command == "transmit":
            if scenario.kind != "transmit":
                raise ConfigurationError(
                    f"scenario kind {scenario.kind!r} does not match 'transmit'")
            written = run_transmit(scenario, args.out,
                                   tol=1e-6 if tol is None else tol)
        elif args.command == "store":
            if scenario.kind != "store":
                raise ConfigurationError(
                    f"scenario kind {scenario.kind!r} does not match 'store'")
            written = run_store(scenario, args.out)
        else:
            if scenario.kind != "sweep-efficiency":
                raise ConfigurationError(
                    f"scenario kind {scenario.kind!r} does not match "
                    "'sweep-efficiency'")
            written = run_sweep(scenario, args.out, workers=args.workers,
                                tol=tol)
        for path in written:
            print(path)
        return 0
    except (ConfigurationError, PreconditionError, DomainError,
            OSError) as exc:  # OSError: --out is not a writable directory
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
