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
    the JSON sidecar.
``sweep-efficiency``
    Tabulate recovery efficiency against sqrt(alpha0 L) under the
    matched schedule delta0 T = b (alpha0 L)^(3/4), t_pi1 = L/(2v).
``validate``
    Check a scenario file against every module precondition and exit.
``preset <name>``
    Write one of the pinned scenario files (fig2, fig4a, fig4b, fig5,
    fig6) into the output directory.

All numeric output uses a fixed ``%.12e`` format and sorted JSON keys,
and sweep points are merged in sorted parameter order regardless of the
worker count, so identical scenarios produce byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (ConfigurationError, DomainError, NumericsError,
                     PreconditionError)
from .medium import (HoleProfile, MediumParams, exact_gaussian_model,
                     second_order_model, slow_light_velocity)
from .propagation import (PulseSpec, SampledEnvelope, auto_grid, propagate,
                          stretched_duration)
from .storage import _METHODS, StorageSchedule, default_schedule, retrieve

_KINDS = ("transmit", "store", "sweep-efficiency")
_FMT = "%.12e"
# Scenario fields that must hold finite real numbers (None where optional)
# and those that must hold integers.
_REAL_FIELDS = ("alpha0_L", "delta0_T", "b", "gamma_over_delta0", "v_over_c",
                "delta1_over_delta0", "hold_times_delta0")
_INT_FIELDS = ("series_order", "n_time", "refine")


def _is_real(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


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
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown scenario fields: {unknown}")
        data = dict(data)
        for key in ("alpha0_L_values", "delta0_T_values"):
            if data.get(key) is not None:
                try:
                    data[key] = tuple(float(v) for v in data[key])
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        f"{key} must be a list of numbers") from None
                if not data[key]:
                    raise ConfigurationError(f"{key} must not be empty")
        return cls(**data)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        _atomic_write_text(path, json.dumps(self.to_dict(), indent=2,
                                            sort_keys=True) + "\n")

    # -- validation ---------------------------------------------------------

    def _number_violations(self):
        """Non-numeric or non-finite values; the range checks need numbers."""
        bad = []
        values = [(name, getattr(self, name)) for name in _REAL_FIELDS]
        values += [(name, v) for name in ("alpha0_L_values", "delta0_T_values")
                   for v in getattr(self, name) or ()]
        if _is_real(self.tpi1_rule):
            values.append(("tpi1_rule", self.tpi1_rule))
        for name, val in values:
            if val is not None and not (_is_real(val) and math.isfinite(val)):
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
        if self.delta1_over_delta0 is not None and not self.delta1_over_delta0 > 1.0:
            bad.append("delta1_over_delta0 must exceed 1 (conversion band "
                       "wider than the hole)")
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
        if self.refine < 1:
            bad.append("refine must be at least 1")
        if self.kind == "transmit" and self.b is not None:
            bad.append("transmit scenarios need an explicit delta0_T")
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

def _atomic_write_text(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, columns):
    data = np.column_stack(columns)
    tmp = str(path) + ".tmp"
    np.savetxt(tmp, data, delimiter=", ", header=" " + header, fmt=_FMT)
    os.replace(tmp, path)


def _write_json(path, payload):
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                       + "\n")


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

def _store_panel(scenario: Scenario, alpha0_L, out_dir):
    params = scenario.params_for(alpha0_L)
    pulse, schedule = scenario.pulse_and_schedule(params)
    profile = HoleProfile.gaussian()

    # delayed original: transmitted profile with the control pulses off
    env = auto_grid(pulse, params)
    original = propagate(env, params.length, exact_gaussian_model(params),
                         params)
    tag = f"store_aL{_num(alpha0_L)}"
    original_path = os.path.join(out_dir, f"{tag}_original.csv")
    _write_csv(original_path, "t_minus_tpi1, re, im",
               [original.times - schedule.t_pi1, original.samples.real,
                original.samples.imag])

    result = retrieve(pulse, schedule, params, profile=profile,
                      method=scenario.method,
                      series_order=scenario.series_order,
                      n_time=scenario.n_time, refine=scenario.refine)
    warnings = []
    if scenario.method == "revival" and \
            result.validity["revival_condition_fraction"] > 0.5:
        warnings.append("revival product form used outside its validity "
                        "window (elapsed time not small against the pulse "
                        "duration squared)")
    if scenario.method == "established" and \
            not result.validity["established_window_ok"]:
        warnings.append("established-signal kernel used before the restored "
                        "peak leaves the early window")
    extra = {
        "alpha0_L": alpha0_L,
        "delta0_T": params.delta0 * pulse.duration,
        "T": pulse.duration,
        "T_s": float(stretched_duration(params.length, pulse.duration,
                                        params)),
        "t_pi1": schedule.t_pi1,
        "t_pi2": schedule.t_pi2,
        "delta1_over_delta0": (None if schedule.infinite_bandwidth
                               else schedule.delta1 / params.delta0),
        "warnings": warnings,
    }
    restored_path = os.path.join(out_dir, f"{tag}_restored.csv")
    tmp = restored_path + ".tmp"
    result.save(tmp, params, extra=extra)
    os.replace(tmp, restored_path)
    os.replace(tmp + ".json", restored_path + ".json")
    return [original_path, restored_path, restored_path + ".json"]


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
    """One sweep point; module-level so process pools can pickle it."""
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
        return alpha0_L, params.delta0 * pulse.duration, eta, None
    except NumericsError as exc:
        failure = {"message": f"numerical failure: {exc}",
                   "residual": None if exc.residual is None
                   else float(exc.residual)}
    except (ConfigurationError, PreconditionError, DomainError) as exc:
        failure = {"message": str(exc)}
    return alpha0_L, params.delta0 * pulse.duration, math.nan, failure


def run_sweep(scenario: Scenario, out_dir, workers=1, tol=None):
    """Tabulate eta against sqrt(alpha0 L).

    Per-point failures are recorded in the sidecar (``failures`` holds the
    message, ``residuals`` the residual of each numerical failure) and the
    sweep continues.  After writing both files a NumericsError is raised
    if any point failed numerically.
    """
    scenario.validate()
    points = sorted(scenario._alpha0_L_list())
    jobs = [(scenario.to_dict(), aL, tol) for aL in points]
    if workers > 1:
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
    except (ConfigurationError, PreconditionError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
