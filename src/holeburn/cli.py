"""Scenario runner emitting deterministic CSV/JSON data files.

Scenarios are JSON files holding only dimensionless groups (``alpha0_L``,
``delta0_T`` or ``b``, ``gamma_over_delta0``, ``v_over_c``,
``delta1_over_delta0``, ``tpi1_rule``); everything downstream runs in
reduced units (alpha0 = delta0 = 1, see ``medium``), so ``alpha0_L`` is
the slab length and ``delta0_T`` the pulse duration itself.  Subcommands:

``transmit``
    Propagate a gaussian pulse through the slab and emit, per duration,
    the input profile together with the exact-susceptibility and the
    second-order-susceptibility outputs.  The second-order model has no
    gamma term, so a run needs gamma_over_delta0 below 0.01.
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
    Check a scenario file by building the run's own objects
    (``Scenario.panels``) and exit.  It writes nothing.
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

``_READ_BY`` names the inputs only some kinds read (``--workers``, the
process count for sweep points, is one); one away from its default, given
to a kind that does not read it, is refused in one line that names it.  A
run computes with the panels ``Scenario.validate`` built, and the first
file written creates a missing ``--out`` (``_replacing``), so a run refused
before then leaves no directory behind.

Exit codes: 0 success, 2 validation failure (including a scenario file
that is missing or is not a JSON object with a ``kind``, an ``--out``
that is not a writable directory, a ``--tol`` or ``--workers`` out of
range or not read by the kind, and a ``--tol`` on a revival sweep, which
reads none), 3 numerical failure.
"""

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from functools import cache

import numpy as np

from .errors import ConfigurationError, DomainError, NumericsError
from .medium import MediumParams, exact_gaussian_model, second_order_model
from .propagation import (MAX_GRID_SAMPLES, PulseSpec, auto_grid, propagate,
                          stretched_duration)
from .storage import (MAX_DELTA1_OVER_DELTA0, MAX_REFINE, StorageSchedule,
                      check_retrieval_args, retrieve, transit_time)

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
# Inputs (scenario fields, run flags) that only some kinds read, and the
# kinds that read them; every other field is read by every kind.
_STORAGE_KINDS = ("store", "sweep-efficiency")
_READ_BY = {
    "delta0_T_values": ("transmit",),
    **dict.fromkeys(("alpha0_L_values", "b", "delta1_over_delta0",
                     "tpi1_rule", "hold_times_delta0", "method",
                     "series_order", "n_time", "refine"), _STORAGE_KINDS),
    "--tol": ("transmit", "sweep-efficiency"),
    "--workers": ("sweep-efficiency",),
}
# A transmit run needs gamma_over_delta0 below this: its second-order
# profile is the expansion of chi at gamma = 0 (``chi_second_order`` has no
# gamma term), so at a wider homogeneous line it would stand beside the
# exact profile as if both described that line.
_TRANSMIT_MAX_GAMMA = 0.01


def _is_finite(val):
    """A real number that a float holds finitely (JSON ints are unbounded)."""
    try:
        return (isinstance(val, (int, float)) and not isinstance(val, bool)
                and math.isfinite(val))
    except OverflowError:
        return False


def _unread(kind, name, value, default):
    """The refusal of an input ``kind`` does not read, away from its default;
    None for any other input or for a kind that is none of ``_KINDS``."""
    readers = _READ_BY.get(name, _KINDS)
    if value == default or kind in readers or kind not in _KINDS:
        return None
    shown = list(value) if isinstance(value, tuple) else value  # as in JSON
    return (f"{name} {shown!r} is not read by {kind}, only by "
            + " and ".join(readers))


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
        _write_json(path, asdict(self))

    # -- validation ---------------------------------------------------------

    def _field_violations(self):
        """Unread fields, and values unlike their field's type (a float is
        finite or a None default); the range checks need numbers."""
        bad = []
        for f in fields(self):
            val = getattr(self, f.name)
            unread = _unread(self.kind, f.name, val, f.default)
            if unread:
                bad.append(unread)
            elif f.type is int and (isinstance(val, bool)
                                    or not isinstance(val, int)):
                bad.append(f"{f.name} must be an integer, got {val!r}")
            elif f.type is float and not (_is_finite(val) or (
                    val is None and f.default is None)):
                bad.append(f"{f.name} must be a finite number, got {val!r}")
            elif f.type is tuple:
                bad += [f"{f.name} must be a finite number, got {v!r}"
                        for v in val or () if not _is_finite(v)]
        return bad

    def panels(self):
        """(panels, violations): each panel's run objects, built once, and
        the list of precondition violations, empty when the scenario is
        valid; ``panels`` is empty unless it is.

        Scenario-level rules and budgets are checked here, the rest by
        building each panel's objects (see ``Panel``) and, for the kinds
        that store, by ``check_retrieval_args`` (given no field that is over
        its budget); each message they raise is listed once."""
        bad = []
        if self.kind not in _KINDS:
            bad.append(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if (self.alpha0_L is None) == (self.alpha0_L_values is None):
            bad.append("exactly one of alpha0_L / alpha0_L_values is required")
        fields_bad = self._field_violations()
        if fields_bad:
            return [], bad + fields_bad
        dur = [name for name, val in (("delta0_T", self.delta0_T),
                                      ("delta0_T_values", self.delta0_T_values),
                                      ("b", self.b)) if val is not None]
        if len(dur) != 1:
            bad.append("exactly one of delta0_T / delta0_T_values / b is "
                       f"required, got {dur or 'none'}")
        if (self.kind == "transmit"
                and self.gamma_over_delta0 >= _TRANSMIT_MAX_GAMMA):
            bad.append("transmit needs gamma_over_delta0 below "
                       f"{_TRANSMIT_MAX_GAMMA:g} (its second-order profile "
                       f"has no gamma term), got {self.gamma_over_delta0:g}")
        retrieval = {"method": self.method, "series_order": self.series_order}
        d1 = self.delta1_over_delta0
        if d1 is not None and d1 > MAX_DELTA1_OVER_DELTA0:
            bad.append("delta1_over_delta0 must not exceed "
                       f"{MAX_DELTA1_OVER_DELTA0:g}, got {d1:g}")
        elif d1 is not None:
            retrieval["delta1"] = d1
        tpi1_ok = self.tpi1_rule == "half-transit" or _is_finite(self.tpi1_rule)
        if not tpi1_ok:
            bad.append("tpi1_rule must be 'half-transit' or a transit fraction")
        elif self.tpi1_rule != "half-transit" and not self.tpi1_rule > 0:
            bad.append("tpi1_rule fraction must be positive")
        for name, cap in (("n_time", MAX_GRID_SAMPLES), ("refine", MAX_REFINE)):
            val = getattr(self, name)
            if val > cap:
                bad.append(f"{name} must not exceed {cap}, got {val}")
            else:
                retrieval[name] = val
        # each panel's files, and each sweep point's sidecar entries, are
        # keyed by _num of its value: equal tags would overwrite one with
        # the next (a list the kind does not read was refused above)
        for field in ("alpha0_L_values", "delta0_T_values"):
            seen = {}
            for val in getattr(self, field) or ():
                tag = _num(val)
                if tag in seen:
                    bad.append(f"{field} {seen[tag]!r} and {val!r} share "
                               f"the file tag {tag!r}")
                else:
                    seen[tag] = val

        refused = []

        def build(make, *args, **kwargs):
            try:
                return make(*args, **kwargs)
            except (ConfigurationError, DomainError) as exc:
                refused.append(str(exc))

        panels, stores = [], self.kind in _STORAGE_KINDS
        opacities = self.alpha0_L_values or (
            (self.alpha0_L,) if self.alpha0_L is not None else ())
        for alpha0_L in opacities:
            params = build(MediumParams.reduced, alpha0_L,
                           self.gamma_over_delta0, self.v_over_c)
            if params is None:
                continue
            if self.b is not None:
                durations = (self.b * params.length ** 0.75,)
            else:
                durations = self.delta0_T_values or (self.delta0_T,)
            pulses = tuple(build(PulseSpec, duration=duration)
                           for duration in durations if duration is not None)
            schedule = None
            if stores and tpi1_ok:
                fraction = (0.5 if self.tpi1_rule == "half-transit"
                            else float(self.tpi1_rule))
                t_pi1 = fraction * transit_time(params)
                schedule = build(StorageSchedule, t_pi1=t_pi1,
                                 t_pi2=t_pi1 + self.hold_times_delta0,
                                 delta1=math.inf if d1 is None else d1)
            panels.append(Panel(alpha0_L, params, pulses, schedule))
        if stores:
            build(check_retrieval_args, **retrieval)
        bad += list(dict.fromkeys(refused))
        return ([] if bad else panels), bad

    def validate(self):
        """The scenario's panels; ConfigurationError naming every violation."""
        panels, bad = self.panels()
        if bad:
            raise ConfigurationError("invalid scenario: " + "; ".join(bad))
        return panels


# One opacity's run objects, built by ``Scenario.panels``: its MediumParams,
# a PulseSpec per duration (b (alpha0 L)^(3/4) under the matched schedule of
# ``storage.default_schedule``, else delta0_T(_values)) and a StorageSchedule
# (None for transmit): t_pi1 is the ``tpi1_rule`` fraction of the transit
# time L/v (``storage.transit_time``; one half for "half-transit"), t_pi2
# ``hold_times_delta0`` later.
Panel = namedtuple("Panel", "alpha0_L params pulses schedule")


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

    A missing directory of ``path`` is created first, so ``--out`` exists
    only once a file is written.  A write that raises removes ``path.tmp``
    and leaves ``path`` as it was.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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

def run_transmit(scenario: Scenario, out_dir, tol=1e-6):
    """Emit input / exact / second-order transmitted profiles per duration.

    Returns the list of files written.
    """
    (panel,) = scenario.validate()
    params = panel.params
    written = []
    for pulse in panel.pulses:
        tag = f"transmit_dT{_num(pulse.duration)}"
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

def _store_panel(scenario: Scenario, panel: Panel, out_dir):
    """Write one panel's three files, only once its retrieval succeeded."""
    alpha0_L, params, (pulse,), schedule = panel

    # delayed original: transmitted profile with the control pulses off
    env = auto_grid(pulse, params)
    original = propagate(env, params.length, exact_gaussian_model(params),
                         params)
    result = retrieve(pulse, schedule, params, method=scenario.method,
                      series_order=scenario.series_order,
                      n_time=scenario.n_time, refine=scenario.refine)
    sidecar = {
        "method": result.method, "eta": result.efficiency,
        "params": asdict(params), "validity": result.validity,
        "alpha0_L": alpha0_L,
        "delta0_T": pulse.duration,
        "T": pulse.duration,
        "T_s": float(stretched_duration(params.length, pulse.duration,
                                        params)),
        "t_pi1": schedule.t_pi1,
        "t_pi2": schedule.t_pi2,
        "delta1_over_delta0": (None if schedule.infinite_bandwidth
                               else schedule.delta1),
        "warnings": list(result.warnings),
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
    written = []
    for panel in scenario.validate():
        written.extend(_store_panel(scenario, panel, out_dir))
    return written


# ---------------------------------------------------------------------------
# efficiency sweep
# ---------------------------------------------------------------------------

def _sweep_point(args):
    """One sweep point: (alpha0_L, delta0_T, eta, failure, warnings).

    Module-level so process pools can pickle it.
    """
    scenario, (alpha0_L, params, (pulse,), schedule), tol = args

    def run(refine):
        return retrieve(pulse, schedule, params, method=scenario.method,
                        series_order=scenario.series_order,
                        n_time=scenario.n_time, refine=refine)

    try:
        result = run(scenario.refine)
        eta = result.efficiency
        if tol is not None:
            eta2 = run(2 * scenario.refine).efficiency
            if abs(eta2 - eta) > tol:
                raise NumericsError(
                    "efficiency not converged: doubling the quadrature "
                    f"resolution moved eta by {abs(eta2 - eta):.2e}",
                    residual=abs(eta2 - eta))
        return alpha0_L, pulse.duration, eta, None, list(result.warnings)
    except NumericsError as exc:
        failure = {"message": f"numerical failure: {exc}",
                   "residual": None if exc.residual is None
                   else float(exc.residual)}
    except (ConfigurationError, DomainError) as exc:
        failure = {"message": str(exc)}
    return alpha0_L, pulse.duration, math.nan, failure, []


def run_sweep(scenario: Scenario, out_dir, workers=1, tol=None):
    """Tabulate eta against sqrt(alpha0 L).

    Per-point failures are recorded in the sidecar (``failures`` holds the
    message, ``residuals`` the residual of each numerical failure) and the
    sweep continues.  ``warnings`` lists, per point, the regime warnings a
    ``store`` of that point would carry.  After writing both files a
    NumericsError is raised if any point failed numerically.
    """
    panels = sorted(scenario.validate(), key=lambda panel: panel.alpha0_L)
    jobs = [(scenario, panel, tol) for panel in panels]
    # a fork pool starts all its workers on the first submit: no more
    # workers than points
    workers = min(workers, len(jobs))
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

    def add_common(p):
        p.add_argument("--scenario", required=True,
                       help="path to a scenario JSON file")
        p.add_argument("--out", default=".",
                       help="output directory (created by the first file "
                            "written; validate writes none)")
        p.add_argument("--workers", type=int, default=1,
                       help="process count of sweep-efficiency (at least 1)")
        p.add_argument("--tol", type=float, default=None,
                       help="transmit's spectral leakage bound; a "
                            "non-revival sweep's eta convergence bound")

    add_common(sub.add_parser("transmit", help="input vs transmitted profiles"))
    add_common(sub.add_parser("store", help="original vs restored profiles"))
    add_common(sub.add_parser("sweep-efficiency",
                              help="eta vs sqrt(alpha0 L) table"))
    add_common(sub.add_parser("validate", help="check a scenario file"))

    preset = sub.add_parser("preset", help="write a pinned scenario file")
    preset.add_argument("name", choices=sorted(PRESETS))
    preset.add_argument("--out", default=".", help="output directory")
    return parser


def _check_out(path):
    """Raise unless ``path`` is a directory or could be made one; make nothing.

    The nearest existing ancestor of a missing ``path`` must be a directory,
    as ``os.makedirs`` would need it to be.
    """
    if not path:
        raise ConfigurationError("--out must name a directory, got ''")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigurationError(f"--out {path!r}: {probe!r} is not a directory")


def _check_flags(scenario, tol, workers):
    """Refuse a flag the scenario's kind does not read, and a ``--tol`` on a
    revival sweep: its guard doubles ``refine``, which revival never reads."""
    for flag, value, default in (("--tol", tol, None), ("--workers", workers, 1)):
        unread = _unread(scenario.kind, flag, value, default)
        if unread:
            raise ConfigurationError(unread)
    if (tol is not None and scenario.kind == "sweep-efficiency"
            and scenario.method == "revival"):
        raise ConfigurationError(
            f"--tol does not apply to {scenario.kind} with method "
            f"{scenario.method!r}: the run reads no tolerance")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ConfigurationError(
                f"--tol must be a positive finite number, got {tol!r}")
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ConfigurationError(
                f"--workers must be at least 1, got {workers}")
        if args.command == "preset":
            path = os.path.join(args.out, f"{args.name}.json")
            PRESETS[args.name].save(path)
            print(path)
            return 0
        _check_out(args.out)
        scenario = Scenario.load(args.scenario)
        if args.command not in ("validate", scenario.kind):
            raise ConfigurationError(
                f"scenario kind {scenario.kind!r} does not match {args.command!r}")
        _check_flags(scenario, tol, workers)
        if args.command == "validate":
            scenario.validate()
            print("scenario valid")
            return 0
        # the run commands are named after the scenario kinds, _KINDS; each
        # validates the scenario and computes with the panels it built
        runners = {
            "transmit": lambda: run_transmit(
                scenario, args.out, tol=1e-6 if tol is None else tol),
            "store": lambda: run_store(scenario, args.out),
            "sweep-efficiency": lambda: run_sweep(
                scenario, args.out, workers=workers, tol=tol),
        }
        written = runners[args.command]()
        for path in written:
            print(path)
        return 0
    except (ConfigurationError, DomainError,
            OSError) as exc:  # OSError: --out is not a writable directory
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
