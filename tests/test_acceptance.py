"""Acceptance gate: one pass/fail line per criterion.

Each test computes its criterion from scratch, prints a single
``criterion N: PASS|FAIL`` line, and asserts.  Reference constants are
frozen from 30-digit mpmath evaluation of the closed forms; tolerances
are pinned to the stated acceptance values.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from holeburn.medium import (HoleProfile, MediumParams, chi_second_order,
                             exact_gaussian_model, inverse_group_velocity,
                             second_order_model, slow_light_velocity)
from holeburn.oracle import time_domain_propagate
from holeburn.propagation import PulseSpec, auto_grid, propagate, transmitted_gaussian
from holeburn.storage import (StorageSchedule, appendix_series_field,
                              default_schedule, efficiency, established_signal,
                              kappa, kappa_finite_bandwidth, kappa_quadrature,
                              restored_field_full, retrieve, revival_envelope)

import holeburn.cli as cli

SQRT_PI = math.sqrt(math.pi)


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def half_transit_setup(alpha0_L, delta0_T, hold=10.0):
    params = MediumParams.reduced(alpha0_L)
    pulse = PulseSpec(duration=delta0_T)
    t_pi1 = params.length / (2.0 * slow_light_velocity(params))
    schedule = StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + hold)
    return params, pulse, schedule


def test_criterion_1_revival_constant():
    # closed form at x = 1, and the 90%-recovery statement reproduced by
    # the full-quadrature restored field at opacity 100, delta0 T = 19
    closed = kappa(1.0)
    closed_ok = abs(closed - 0.9109) <= 1e-3

    params, pulse, schedule = half_transit_setup(100.0, 19.0)
    v = slow_light_velocity(params)
    t = schedule.t_pi2 + 2.0  # x = (t - t_pi2) / 2 = 1
    full = restored_field_full(t, pulse, schedule, HoleProfile.gaussian(),
                               params)
    frozen = transmitted_gaussian(params.length - 2.0 * v, schedule.t_pi1,
                                  pulse.duration, params)
    ratio = full / frozen
    full_ok = abs(ratio - closed) / closed <= 0.02
    report(1, closed_ok and full_ok,
           f"kappa(1) = {closed:.6f} (target 0.9109 ± 1e-3); full-quadrature "
           f"recovery fraction at t_pi2 + 2/delta0 = {ratio:.4f} "
           f"(within {abs(ratio - closed) / closed:.2%} of closed form, "
           "tol 2%)")


def test_criterion_2_kappa_cross_validation():
    params = MediumParams.reduced(10.0)
    prof = HoleProfile.gaussian()
    xs = (0.1, 0.5, 1.0, 2.0, 5.0)
    devs = [abs(kappa_quadrature(x, prof, params) - kappa(x)) for x in xs]
    ok = max(devs) <= 1e-6
    report(2, ok,
           f"max |kappa_quadrature - closed form| = {max(devs):.2e} over "
           f"x in {xs} (tol 1e-6 absolute)")


def test_criterion_3_transmission_reproduction():
    # opacity 100: exact vs second-order profile deviation and the
    # closed-form peak amplitudes
    params = MediumParams.reduced(100.0)
    thresholds = {5.0: 0.03, 10.0: 0.01}
    peaks = {5.0: 0.44721359549995794, 10.0: 0.70710678118654752}
    details = []
    ok = True
    for dT, bound in thresholds.items():
        env = auto_grid(PulseSpec(duration=dT), params)
        exact = propagate(env, params.length, exact_gaussian_model(params),
                          params)
        second = propagate(env, params.length, second_order_model(params),
                           params)
        dev = float(np.max(np.abs(np.abs(exact.samples)
                                  - np.abs(second.samples))))
        pk_exact = float(np.max(np.abs(exact.samples)))
        pk_second = float(np.max(np.abs(second.samples)))
        dev_ok = dev < bound
        peaks_ok = (abs(pk_exact - peaks[dT]) / peaks[dT] <= 0.01
                    and abs(pk_second - peaks[dT]) / peaks[dT] <= 0.01)
        ok = ok and dev_ok and peaks_ok
        details.append(f"dT={dT:g}: max deviation {dev:.5f} (bound {bound}), "
                       f"peaks {pk_exact:.4f}/{pk_second:.4f} "
                       f"(target {peaks[dT]:.4f} ± 1%)")
    report(3, ok, "; ".join(details))


def test_criterion_4_group_velocity_consistency():
    # quadrature 1/v vs the second-order dispersion slope
    params = MediumParams.reduced(10.0, gamma_over_delta0=1e-3)
    quad = inverse_group_velocity(HoleProfile.gaussian(), params)
    h = 1e-6
    slope = 0.5 * chi_second_order(h, params).real / h  # = alpha0/sqrt(pi)
    rel = abs(quad - slope) / slope
    slope_ok = rel < 1e-3

    lossless = MediumParams.reduced(10.0, gamma_over_delta0=0.0)
    limit = inverse_group_velocity(HoleProfile.gaussian(), lossless)
    limit_rel = abs(limit - 1.0 / SQRT_PI) * SQRT_PI
    limit_ok = limit_rel <= 1e-4
    report(4, slope_ok and limit_ok,
           f"quadrature vs slope relative difference {rel:.2e} "
           f"(tol 1e-3 at gamma/delta0 = 1e-3); gamma -> 0 limit off by "
           f"{limit_rel:.2e} (tol 1e-4)")


def test_criterion_5_finite_bandwidth_factor():
    # long-time amplitude ratio (cutoff at 5 hole widths vs infinite) and
    # the ringing signature of the sharp cutoff
    params = MediumParams.reduced(10.0)
    prof = HoleProfile.gaussian()
    x = np.linspace(8.0, 12.0, 33)
    ratio = np.array([kappa_finite_bandwidth(xv, 5.0, prof, params)
                      / kappa(xv) for xv in x])
    mean = float(np.mean(ratio))
    mean_ok = abs(mean - 0.8872) / 0.8872 <= 0.02
    crossings = int(np.sum(np.diff(np.sign(ratio - mean)) != 0))
    report(5, mean_ok and crossings >= 3,
           f"plateau ratio {mean:.4f} (target 0.8872 ± 2%); "
           f"{crossings} sign changes of the deviation (need >= 3)")


def test_criterion_6_efficiency_property_suite():
    # matched schedule: eta monotone over sqrt(opacity), all in (0,1),
    # and the restored shape converging to the input shape
    etas = []
    for root in (3, 4, 5, 6, 8, 10):
        params = MediumParams.reduced(float(root * root))
        pulse, schedule = default_schedule(params)
        etas.append(efficiency(pulse, schedule, params,
                               method="full_quadrature"))
    monotone = all(a < b for a, b in zip(etas, etas[1:]))
    bounded = all(0.0 < e < 1.0 for e in etas)

    shape_errors = []
    for alpha0_L in (25.0, 50.0, 100.0):
        params = MediumParams.reduced(alpha0_L)
        pulse, schedule = default_schedule(params)
        result = retrieve(pulse, schedule, params, method="full_quadrature")
        env = result.envelope
        a = np.abs(env.samples)
        a = a / math.sqrt(float(np.sum(a * a) * env.dt))
        ref = np.exp(-(env.times - env.peak_time()) ** 2
                     / (2.0 * pulse.duration ** 2))
        ref = ref / math.sqrt(float(np.sum(ref * ref) * env.dt))
        shape_errors.append(math.sqrt(float(np.sum((a - ref) ** 2) * env.dt)))
    shrinking = all(x > y for x, y in zip(shape_errors, shape_errors[1:]))
    report(6, monotone and bounded and shrinking,
           f"eta = {[f'{e:.4f}' for e in etas]} monotone={monotone}, "
           f"bounded={bounded}; L2 shape error over opacity 25/50/100 = "
           f"{[f'{s:.4f}' for s in shape_errors]} decreasing={shrinking}")


def test_criterion_7_method_cross_agreement():
    prof = HoleProfile.gaussian()

    # early window: full quadrature vs revival product form
    params, pulse, schedule = half_transit_setup(25.0, 19.0)
    y = np.linspace(0.25, 2.0, 8)
    full = np.array([restored_field_full(schedule.t_pi2 + yi, pulse, schedule,
                                         prof, params) for yi in y])
    revival = revival_envelope(schedule.t_pi2 + y, pulse, schedule, params)
    early = float(np.max(np.abs(full - revival) / np.abs(full)))
    early_ok = early <= 0.02

    # late window: full quadrature vs established kernel, relative to the
    # peak of the full signal
    params, pulse, schedule = half_transit_setup(100.0, 19.0)
    y = np.linspace(6.0, 90.0, 29)
    full = np.array([restored_field_full(schedule.t_pi2 + yi, pulse, schedule,
                                         prof, params) for yi in y])
    est = established_signal(schedule.t_pi2 + y, pulse, schedule, params)
    late = float(np.max(np.abs(full - est)) / np.max(np.abs(full)))
    late_ok = late <= 1e-3

    # series N = 0 against an independent adaptive quadrature of the
    # simple depth-slice field
    params, pulse, schedule = half_transit_setup(4.0, 20.0)
    v = slow_light_velocity(params)
    a = v
    rho = params.length / v
    dT = pulse.duration
    x = schedule.t_pi1
    y0 = 1.0

    def frozen(zeta, xh):
        w1 = dT * dT + a * zeta
        return dT / math.sqrt(w1) * math.exp(-(xh - zeta) ** 2 / (2 * w1))

    ref, _ = integrate.dblquad(
        lambda p, q: math.exp(-0.25 * (p + q) ** 2)
        * frozen(rho - (y0 - q), x - p),
        max(0.0, y0 - rho), y0, 0.0, 40.0, epsabs=1e-12, epsrel=1e-10)
    ref *= 0.5
    n0 = appendix_series_field(schedule.t_pi2 + y0, pulse, schedule, params,
                               order=0)
    series_dev = abs(n0 - ref) / abs(ref)
    series_ok = series_dev <= 1e-8

    report(7, early_ok and late_ok and series_ok,
           f"early full-vs-revival max rel {early:.4f} (tol 2%); late "
           f"full-vs-established {late:.2e} of peak (tol 1e-3); series N=0 "
           f"vs independent quadrature rel {series_dev:.2e} (tol 1e-8)")


def test_criterion_8_oracle_equivalence():
    params = MediumParams.reduced(10.0)
    env = auto_grid(PulseSpec(duration=10.0), params)
    prof = HoleProfile.gaussian()
    ref = propagate(env, params.length, exact_gaussian_model(params), params)

    out = time_domain_propagate(env, params.length, prof, params, n_atoms=512)
    delay = out.peak_time() - env.peak_time()
    target = 10.0 / SQRT_PI
    delay_rel = abs(delay - target) / target
    delay_ok = delay_rel <= 0.05

    def l2(n_atoms, n_steps):
        got = time_domain_propagate(env, params.length, prof, params,
                                    n_atoms=n_atoms, n_steps=n_steps)
        return math.sqrt(float(np.sum(np.abs(got.samples - ref.samples) ** 2)
                               * env.dt) / ref.energy())

    coarse = l2(256, 200)
    fine = l2(512, 400)
    halves = fine <= 0.5 * coarse
    report(8, delay_ok and halves,
           f"peak delay off by {delay_rel:.2%} (tol 5%); L2 error "
           f"{coarse:.5f} -> {fine:.5f} under grid doubling "
           f"(ratio {fine / coarse:.3f}, need <= 0.5)")


def test_criterion_9_numerical_hygiene(tmp_path):
    # transform round-trip
    params = MediumParams.reduced(100.0)
    env = auto_grid(PulseSpec(duration=10.0), params)
    back = np.fft.ifft(np.fft.fft(env.samples))
    roundtrip = float(np.max(np.abs(back - env.samples))
                      / np.max(np.abs(env.samples)))
    roundtrip_ok = roundtrip <= 1e-12

    # lossless limit: purely dispersive susceptibility conserves energy
    model = exact_gaussian_model(params)
    dispersive = lambda w: np.asarray(model(w)).real
    out = propagate(env, params.length, dispersive, params)
    energy_rel = abs(out.energy() - env.energy()) / env.energy()
    energy_ok = energy_rel <= 1e-10

    # byte determinism across runs and worker counts
    scenario = cli.Scenario(kind="transmit", alpha0_L=10.0, delta0_T=10.0)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    f1 = cli.run_transmit(scenario, str(d1))
    f2 = cli.run_transmit(scenario, str(d2))
    same_runs = all(Path(p).read_bytes() == Path(q).read_bytes()
                    for p, q in zip(f1, f2))
    sweep = cli.Scenario(kind="sweep-efficiency", alpha0_L_values=(4.0, 9.0),
                         b=0.6, method="revival")
    d3, d4 = tmp_path / "c", tmp_path / "d"
    d3.mkdir(), d4.mkdir()
    g1 = cli.run_sweep(sweep, str(d3), workers=1)
    g2 = cli.run_sweep(sweep, str(d4), workers=2)
    same_workers = all(Path(p).read_bytes() == Path(q).read_bytes()
                       for p, q in zip(g1, g2))
    report(9, roundtrip_ok and energy_ok and same_runs and same_workers,
           f"transform round-trip {roundtrip:.1e} (tol 1e-12); lossless "
           f"energy drift {energy_rel:.1e} (tol 1e-10); byte-identical "
           f"runs={same_runs}, worker counts={same_workers}")
