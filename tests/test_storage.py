"""Storage schedules, revival factors, and the four retrieval routes.

Frozen reference values were computed with 30-digit mpmath evaluation of
the closed forms; cross-method numbers come from independent adaptive
quadrature (scipy) of the defining integrals.
"""

import json
import math
import os
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfcx

import holeburn.medium
import holeburn.storage
from holeburn.cli import Scenario
from holeburn.errors import ConfigurationError, DomainError, NumericsError
from holeburn.medium import (HoleProfile, MediumParams, absorption_coefficient,
                             chi_quadrature, inverse_group_velocity,
                             quadrature_model, slow_light_velocity)
from holeburn.propagation import (PulseSpec, confinement_report,
                                  transmitted_gaussian)
from holeburn.storage import (KERNEL_RANGE, MAX_HOLD, RetrievalResult,
                              StorageSchedule, _established_kernel,
                              _gl_interval, _memory_weight, _reduced,
                              _series_derivatives, appendix_series_field,
                              bandwidth_reduction_factor, default_schedule,
                              efficiency, established_signal, kappa,
                              kappa_finite_bandwidth, kappa_quadrature,
                              restored_field_full, retrieval_grid, retrieve,
                              revival_envelope, revival_validity)

SQRT_PI = math.sqrt(math.pi)
GAUSSIAN = HoleProfile.gaussian()
DATA = os.path.join(os.path.dirname(__file__), "data")


def reduced_setup(alpha0_L, delta0_T, hold=10.0):
    """Params, pulse, and half-transit schedule in reduced units."""
    params = MediumParams.reduced(alpha0_L)
    pulse = PulseSpec(duration=delta0_T)
    t_pi1 = params.length / (2.0 * slow_light_velocity(params))
    schedule = StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + hold)
    return params, pulse, schedule


def reference_restored_field_full(t, pulse, schedule, params, n_pq=48,
                                  n_u=200):
    """Unfactorized restored field: the established kernel evaluated on the
    full (p, q) grid at every time sample, then the weighted double sum."""
    v, a, rho, vc = _reduced(params)
    dT = pulse.duration
    x = schedule.t_pi1
    # the hole's K (its memory weight at gamma = 0), damped below on its own
    kern = _memory_weight(0.0)

    p, wp = _gl_interval(n_pq, 0.0, KERNEL_RANGE)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t_arr.shape, dtype=float)
    for i, ti in enumerate(t_arr.ravel()):
        y = ti - schedule.t_pi2
        if y <= 0:
            continue
        q, wq = _gl_interval(n_pq, 0.0, min(y, KERNEL_RANGE))
        pp = p[:, None] + q[None, :]
        weight = (np.asarray(kern(pp.ravel())).reshape(pp.shape)
                  * np.exp(-params.gamma_ab * pp))
        r = _established_kernel(x - np.broadcast_to(p[:, None], pp.shape),
                                y - np.broadcast_to(q[None, :], pp.shape),
                                rho, dT, a, n_u)
        out.ravel()[i] = (a / (2.0 * np.pi)
                          * float(np.einsum("i,j,ij->", wp, wq, weight * r)))
    return out if np.ndim(t) else float(out[0])


def reference_kappa_finite_bandwidth(x, delta1, params):
    """Per-sample adaptive quadrature of the Gaussian hole's finite-bandwidth
    revival factor over [-delta1, delta1], split at Delta = 0: the
    finite-bandwidth route as it stood before the node rule."""
    x = float(x)
    if x == 0.0:
        return 0.0
    gamma = params.gamma_ab
    v = slow_light_velocity(params)
    b = 2.0 * x

    def integrand(delta):
        if delta == 0.0 and gamma == 0.0:
            return 0.0  # g(0) b^2 / 2, and g(0) = 0
        dc = complex(gamma, -delta)
        return -float(GAUSSIAN(delta)) * ((1.0 - np.exp(-dc * b))
                                          / dc ** 2).real

    val, err = integrate.quad(integrand, -delta1, delta1, points=[0.0],
                              limit=301, epsabs=1e-12, epsrel=1e-10)
    assert err <= 1e-7
    return v / (2.0 * np.pi) * val


def in_depth_x(alpha0_L, delta0_T, gamma=0.0, n_time=512):
    """Params and the revival arguments x of the in-depth samples of the
    retrieval grid (0 < y, readout depth inside the slab)."""
    _, pulse, schedule = reduced_setup(alpha0_L, delta0_T)
    params = MediumParams.reduced(alpha0_L, gamma_over_delta0=gamma)
    elapsed = (retrieval_grid(pulse, schedule, params, n_time=n_time)
               - schedule.t_pi2)
    v = slow_light_velocity(params)
    keep = (elapsed > 0) & (params.length - v * elapsed >= 0.0)
    return params, 0.5 * elapsed[keep]


class TestStorageSchedule:
    def test_ordering_invariant(self):
        with pytest.raises(ConfigurationError):
            StorageSchedule(t_pi1=5.0, t_pi2=5.0)

    def test_bandwidth_invariant(self):
        # a finite band must be wider than the hole
        for delta1 in (-2.0, 0.5, 1.0, math.nan):
            with pytest.raises(ConfigurationError):
                StorageSchedule(t_pi1=0.0, t_pi2=1.0, delta1=delta1)
        assert StorageSchedule(t_pi1=0.0, t_pi2=1.0, delta1=1.5).delta1 == 1.5

    def test_infinite_bandwidth_default(self):
        assert StorageSchedule(t_pi1=0.0, t_pi2=1.0).infinite_bandwidth

    def test_hold_bound(self):
        # a hold up to MAX_HOLD is taken; a longer one, whose absolute
        # retrieval times would round the restored field, is refused
        # naming the hold
        assert StorageSchedule(t_pi1=2.0, t_pi2=2.0 + MAX_HOLD).t_pi2 == (
            2.0 + MAX_HOLD)
        for t_pi2 in (np.nextafter(2.0 + MAX_HOLD, math.inf), 1e308,
                      math.inf):
            with pytest.raises(ConfigurationError,
                               match=r"hold t_pi2 - t_pi1 must not exceed"):
                StorageSchedule(t_pi1=2.0, t_pi2=t_pi2)

    @pytest.mark.parametrize("method", ["full_quadrature", "revival",
                                        "established", "series"])
    def test_longest_hold_keeps_the_restored_field(self, method):
        # without Raman decoherence the hold does not change the restored
        # field: at MAX_HOLD every route's waveform stays within 1e-13 of
        # its peak, and eta within 1e-12 relative, of the default hold's
        params = MediumParams.reduced(9.0)
        pulse, schedule = default_schedule(params)
        longest = StorageSchedule(t_pi1=schedule.t_pi1,
                                  t_pi2=schedule.t_pi1 + MAX_HOLD)
        ref = retrieve(pulse, schedule, params, method=method)
        got = retrieve(pulse, longest, params, method=method)
        peak = np.max(np.abs(ref.envelope.samples))
        assert np.max(np.abs(got.envelope.samples
                             - ref.envelope.samples)) <= 1e-13 * peak
        assert got.efficiency == pytest.approx(ref.efficiency, rel=1e-12)

    def test_default_schedule(self):
        params = MediumParams.reduced(100.0)
        pulse, schedule = default_schedule(params)
        assert pulse.duration == pytest.approx(18.973665961010276, rel=1e-12)
        assert schedule.t_pi1 == pytest.approx(50.0 / SQRT_PI, rel=1e-12)
        assert schedule.t_pi2 == schedule.t_pi1 + 10.0

    def test_reduced_units_take_no_unit_arguments(self):
        # times start at the input peak and the hold is fixed: the removed
        # knobs are rejected, not ignored
        params = MediumParams.reduced(100.0)
        with pytest.raises(TypeError):
            default_schedule(params, hold=5.0)
        with pytest.raises(TypeError):
            PulseSpec(duration=1.0, center_time=2.0)
        with pytest.raises(TypeError):
            transmitted_gaussian(1.0, 0.0, 1.0, params, center_time=2.0)


def test_every_reader_of_the_medium_follows_reduced(monkeypatch):
    # _reduced is the one place the storage medium is read: doubling v
    # (and a, v/c) there halves the transit time and doubles the revival
    # prefactor in every schedule, factor, indicator and grid, the CLI's
    # write instant included
    params = MediumParams.reduced(25.0)
    pulse, schedule = default_schedule(params)
    x = np.array([0.5, 3.0])
    t = schedule.t_pi2 + np.array([1.0, 40.0])
    scenario = Scenario(kind="store", alpha0_L=25.0, b=0.6, method="revival")

    def readings():
        return {
            "default_schedule": default_schedule(params)[1].t_pi1,
            "kappa_quadrature": kappa_quadrature(x, GAUSSIAN, params),
            "kappa_finite_bandwidth": kappa_finite_bandwidth(
                x, 5.0, GAUSSIAN, params),
            "revival_validity": revival_validity(t, pulse, schedule, params),
            "retrieval_grid": retrieval_grid(pulse, schedule, params)[-1],
            "transit_time": holeburn.storage.transit_time(params),
            "cli_t_pi1": scenario.panels()[0][0].schedule.t_pi1,
        }

    real = holeburn.storage._reduced
    _, a, rho, _ = real(params)
    before = readings()
    monkeypatch.setattr(holeburn.storage, "_reduced", lambda p: tuple(
        f * r for f, r in zip((2.0, 2.0, 0.5, 2.0), real(p))))
    after = readings()
    for name in ("default_schedule", "transit_time", "cli_t_pi1"):
        assert after[name] == 0.5 * before[name], name
    for name in ("kappa_quadrature", "kappa_finite_bandwidth"):
        np.testing.assert_allclose(after[name], 2.0 * before[name],
                                   rtol=1e-15, err_msg=name)
    # y = 1 lies inside the transit, y = 40 past it
    np.testing.assert_allclose(after["revival_validity"],
                               before["revival_validity"] * [1.0, 0.5],
                               rtol=1e-15)
    span = (0.5 * rho + 5.0 * math.sqrt(2.0 * a * rho)
            + 2.0 * pulse.duration + 10.0)
    assert after["retrieval_grid"] == pytest.approx(
        schedule.t_pi2 + 511 * span / 512, rel=1e-15)
    assert before["transit_time"] == rho


class TestKappa:
    def test_trivial_endpoints(self):
        assert kappa(0.0) == 0.0
        assert kappa(40.0) == pytest.approx(1.0, abs=1e-14)

    def test_huge_argument_is_one(self):
        # x * x once overflowed to inf at x = 1e200, with numpy's warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kappa(1e200) == 1.0
            np.testing.assert_array_equal(kappa(np.array([30.0, 1e300])),
                                          [1.0, 1.0])

    # kappa(-1) once read -2.634, and kappa(nan) failed inside erfc
    @pytest.mark.parametrize("x", [-1.0, [1.0, -1.0], math.nan, math.inf,
                                   1e308])
    def test_bad_argument_rejected(self, x):
        with pytest.raises(DomainError, match="got x = "):
            kappa(x)

    def test_frozen_values(self):
        assert kappa(1.0) == pytest.approx(0.91092614410921965, abs=1e-12)
        assert kappa(0.5) == pytest.approx(0.6461451359685607, abs=1e-12)

    def test_finite_c_prefactor(self):
        assert kappa(1.0, v_over_c=0.25) == pytest.approx(
            0.75 * 0.91092614410921965, abs=1e-12)

    def test_monotone(self):
        x = np.linspace(0.0, 4.0, 81)
        vals = kappa(x)
        assert np.all(np.diff(vals) >= 0.0)

    def test_quadrature_cross_validation(self):
        prof = HoleProfile.gaussian()
        for v_over_c in (0.0, 0.3):
            params = MediumParams.reduced(10.0, v_over_c=v_over_c)
            for x in (0.1, 0.5, 1.0, 2.0, 5.0):
                assert kappa_quadrature(x, prof, params) == pytest.approx(
                    kappa(x, v_over_c), abs=1e-6)
            # an array in, one value per sample out; a scalar gives a
            # float, and x = 0 (no delay) gives exactly 0
            grid = np.array([[0.0, 0.1, 0.5], [1.0, 2.0, 5.0]])
            arr = kappa_quadrature(grid, prof, params)
            assert arr.shape == grid.shape and arr[0, 0] == 0.0
            np.testing.assert_allclose(arr, kappa(grid, v_over_c), rtol=0,
                                       atol=1e-12)
            for x, val in zip(grid.ravel(), arr.ravel()):
                one = kappa_quadrature(x, prof, params)
                assert isinstance(one, float)
                assert abs(one - val) <= 1e-15
            assert kappa_quadrature(0.0, prof, params) == 0.0

    # at x = 1e308, b = 2 x overflows: once a NaN with a numpy warning
    @pytest.mark.parametrize("x", [-1.0, [1.0, -1.0], math.nan, math.inf,
                                   1e308])
    def test_quadrature_bad_argument_rejected(self, x):
        with pytest.raises(DomainError, match="got x = "):
            kappa_quadrature(x, HoleProfile.gaussian(),
                             MediumParams.reduced(10.0))

    @pytest.mark.parametrize("v_over_c", [0.0, 0.3])
    @pytest.mark.parametrize("gamma", [1e-3, 0.009, 0.05, 0.2, 1.0])
    def test_quadrature_sees_gamma(self, gamma, v_over_c):
        # the Gaussian hole's revival factor at gamma > 0 in closed form:
        # with E = exp(-b^2/4 - gamma b) and b = 2 x,
        # I0 = sqrt(pi) (erfcx(gamma) - E erfcx(b/2 + gamma)),
        # I1 = 2 (1 - E) - 2 gamma I0,
        # kappa = (v / 2 pi) sqrt(pi) (I1 + b sqrt(pi) E erfcx(b/2 + gamma));
        # b = 15 and 40 lie past the cut at KERNEL_RANGE, where the second
        # panel has zero width
        params = MediumParams.reduced(10.0, gamma, v_over_c)
        xs = np.array([0.3, 1.0, 4.0, 7.5, 20.0])
        b = 2.0 * xs
        e = np.exp(-0.25 * b * b - gamma * b)
        i0 = SQRT_PI * (erfcx(gamma) - e * erfcx(0.5 * b + gamma))
        i1 = 2.0 * (1.0 - e) - 2.0 * gamma * i0
        v = slow_light_velocity(params)
        ref = v / (2.0 * np.pi) * SQRT_PI * (
            i1 + b * SQRT_PI * e * erfcx(0.5 * b + gamma))
        got = kappa_quadrature(xs, HoleProfile.gaussian(), params)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gamma", [30.0, 1e3, 1e4, 1e6])
    def test_quadrature_at_large_gamma(self, gamma):
        # W = sqrt(pi) e^{-s^2/4 - gamma s} lives on s < 60 / gamma, where
        # the integral is cut and both panels lie.  The reference is
        # adaptive quadrature of (v / 2 pi) integral min(s, b) W(s) ds,
        # split at b and cut at 60 / gamma (the closed form above cancels
        # in I1 at this gamma)
        params = MediumParams.reduced(25.0, gamma)
        xs = np.array([0.3, 1.0, 4.0, 20.0])
        cut = 60.0 / gamma
        v = slow_light_velocity(params)

        def ref(b):
            def f(s):
                return min(s, b) * SQRT_PI * math.exp(-0.25 * s * s
                                                      - gamma * s)
            parts = [(0.0, min(b, cut))] + ([(b, cut)] if b < cut else [])
            return v / (2.0 * np.pi) * sum(
                integrate.quad(f, lo, hi, epsabs=0.0, epsrel=2e-14,
                               limit=200)[0] for lo, hi in parts)

        got = kappa_quadrature(xs, HoleProfile.gaussian(), params)
        np.testing.assert_allclose(got, [ref(2.0 * x) for x in xs],
                                   rtol=1e-13, atol=0)


class TestBandwidthReduction:
    def test_frozen_value(self):
        assert bandwidth_reduction_factor(5.0) == pytest.approx(
            0.88716208329047837, abs=1e-12)

    def test_limits(self):
        # approaches 1 only like 1 - 1/(sqrt(pi) y); exact asymptote at
        # y = 50 (erf term is 1 to machine precision there)
        assert bandwidth_reduction_factor(50.0) == pytest.approx(
            1.0 - 1.0 / (50.0 * math.sqrt(math.pi)), abs=1e-12)
        assert bandwidth_reduction_factor(1e4) == pytest.approx(1.0, abs=1e-4)
        # linear onset y/sqrt(pi)
        assert bandwidth_reduction_factor(1e-4) == pytest.approx(
            1e-4 / math.sqrt(math.pi), rel=1e-4)

    def test_monotone_in_unit_interval(self):
        y = np.linspace(0.2, 8.0, 40)
        vals = np.array([bandwidth_reduction_factor(v) for v in y])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all((vals > 0.0) & (vals < 1.0))

    @pytest.mark.parametrize("y", [0.0, [1.0, -2.0]], ids=["zero", "negative"])
    def test_non_positive_ratio_rejected(self, y):
        with pytest.raises(DomainError, match="must be positive"):
            bandwidth_reduction_factor(y)

    def test_finite_bandwidth_kappa_long_time_ratio(self):
        # sharp cutoff at 5 hole widths scales the plateau by ~B(5)
        params = MediumParams.reduced(10.0)
        prof = HoleProfile.gaussian()
        ratio = kappa_finite_bandwidth(10.0, 5.0, prof, params) / kappa(10.0)
        assert ratio == pytest.approx(0.88716208329047837, rel=0.02)


class TestKappaFiniteBandwidth:
    PROFILES = {"gaussian": (0.0, HoleProfile.gaussian),
                "gaussian-lossy": (0.05, HoleProfile.gaussian),
                "gaussian-narrow-line": (1e-3, HoleProfile.gaussian)}

    @pytest.mark.parametrize("delta1", [1.5, 5.0, 6.0])
    @pytest.mark.parametrize("alpha0_L, delta0_T", [(25.0, 10.0),
                                                    (100.0, 19.0)])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_matches_quad_reference(self, profile, alpha0_L, delta0_T,
                                    delta1):
        gamma, make = self.PROFILES[profile]
        prof = make()
        # a 128-sample grid: the same b range, a quarter of the quad calls
        params, x = in_depth_x(alpha0_L, delta0_T, gamma, n_time=128)
        ref = np.array([reference_kappa_finite_bandwidth(xv, delta1, params)
                        for xv in x])
        peak = np.max(np.abs(ref))
        assert peak > 0.5
        got = kappa_finite_bandwidth(x, delta1, prof, params)
        assert np.max(np.abs(got - ref)) <= 1e-13 * peak

    @pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.05])
    def test_doubled_nodes_agree(self, gamma, monkeypatch):
        # every panel rule at twice its node count; the value at the
        # largest b of the grid must not move
        params, x = in_depth_x(100.0, 19.0, gamma)
        one = kappa_finite_bandwidth(x, 6.0, GAUSSIAN, params)
        gl = holeburn.storage._gl_interval
        counts = []

        def doubled(n, lo, hi):
            counts.append(n)
            return gl(2 * n, lo, hi)

        monkeypatch.setattr(holeburn.storage, "_gl_interval", doubled)
        two = kappa_finite_bandwidth(x, 6.0, GAUSSIAN, params)
        assert counts
        assert abs(two[-1] - one[-1]) <= 1e-13 * np.max(np.abs(one))

    def test_scalar_matches_array_element(self):
        params, x = in_depth_x(25.0, 10.0)
        arr = kappa_finite_bandwidth(x, 5.0, GAUSSIAN, params)
        for i in (0, len(x) // 2, len(x) - 1):
            val = kappa_finite_bandwidth(x[i], 5.0, GAUSSIAN, params)
            assert isinstance(val, float)
            assert abs(val - arr[i]) <= 1e-13 * np.max(np.abs(arr))
        assert kappa_finite_bandwidth(0.0, 5.0, GAUSSIAN, params) == 0.0

    def test_row_blocks_stitched(self, monkeypatch):
        # blocks of 4 rows, the last one partial, reproduce the single block
        params, x = in_depth_x(25.0, 10.0)
        whole = kappa_finite_bandwidth(x, 5.0, GAUSSIAN, params)
        n = 40 + math.ceil(0.7 * 5.0 * 2.0 * x[-1])
        assert len(x) % 4
        monkeypatch.setattr(holeburn.storage, "_RULE_BLOCK", 4 * n + 1)
        blocked = kappa_finite_bandwidth(x, 5.0, GAUSSIAN, params)
        np.testing.assert_array_equal(blocked, whole)

    # at x = 1e308, b = 2 x overflows: once an OverflowError
    @pytest.mark.parametrize("x", [-1.0, [1.0, -1.0], math.nan, math.inf,
                                   1e308])
    def test_bad_argument_rejected(self, x):
        params = MediumParams.reduced(10.0)
        with pytest.raises(DomainError, match="got x = "):
            kappa_finite_bandwidth(x, 5.0, GAUSSIAN, params)

    def test_node_cap(self, monkeypatch):
        # refused before the rule is built; a rule at the cap is built
        def unreachable(*args):
            raise AssertionError("rule built above the node cap")

        params = MediumParams.reduced(10.0)
        cap = holeburn.storage.MAX_RULE_NODES
        x_cap = 0.5 * (cap - 40) / (0.7 * 5.0)
        gl = holeburn.storage._gl_interval
        monkeypatch.setattr(holeburn.storage, "_gl_interval", unreachable)
        with pytest.raises(ConfigurationError):
            kappa_finite_bandwidth([1.0, 1.001 * x_cap], 5.0, GAUSSIAN, params)
        monkeypatch.setattr(holeburn.storage, "MAX_RULE_NODES", 100)
        x_100 = 0.5 * 59.5 / (0.7 * 5.0)
        with pytest.raises(ConfigurationError):
            kappa_finite_bandwidth(x_100 * 1.01, 5.0, GAUSSIAN, params)
        monkeypatch.setattr(holeburn.storage, "_gl_interval", gl)
        assert math.isfinite(kappa_finite_bandwidth(x_100, 5.0, GAUSSIAN, params))

    def test_non_finite_result(self, monkeypatch):
        # a bracket that is not finite (here at nodes made NaN) is a
        # numerical failure, with no numpy warning
        gl = holeburn.storage._gl_interval

        def nan_nodes(n, lo, hi):
            nodes, w = gl(n, lo, hi)
            return np.full_like(nodes, np.nan), w

        monkeypatch.setattr(holeburn.storage, "_gl_interval", nan_nodes)
        params = MediumParams.reduced(10.0)
        with pytest.raises(NumericsError, match="not finite"):
            kappa_finite_bandwidth([1.0, 2.0], 5.0, GAUSSIAN, params)

    @pytest.mark.parametrize("gamma", [1e-160, 1e-300])
    def test_subnormal_linewidth_takes_zero_rule(self, gamma):
        # gamma^2 is not a normal float, so D^2 would underflow at the
        # nodes |Delta| ~ gamma: the gamma = 0 rule serves, off the true
        # value by O(gamma b)
        x = [1.0, 2.0]
        zero = kappa_finite_bandwidth(x, 5.0, GAUSSIAN,
                                      MediumParams.reduced(100.0))
        tiny = kappa_finite_bandwidth(x, 5.0, GAUSSIAN,
                                      MediumParams.reduced(100.0, gamma))
        np.testing.assert_allclose(tiny, zero, rtol=1e-12, atol=0)
        np.testing.assert_allclose(zero, [0.80220017, 0.88057537], atol=1e-8)

    def test_zero_linewidth_hole_floor(self):
        # at gamma = 0 the bracket's pi b delta(Delta) part weighs the hole's
        # floor g(0), which no node rule sees; the Gaussian hole has none,
        # so the gamma = 0 rule matches gamma / delta0 = 1e-9, where the
        # node rule integrates that part itself
        assert GAUSSIAN(0.0) == 0.0
        x = np.array([1.0, 2.0, 4.0])
        zero = kappa_finite_bandwidth(x, 5.0, GAUSSIAN,
                                      MediumParams.reduced(10.0))
        tiny = kappa_finite_bandwidth(x, 5.0, GAUSSIAN,
                                      MediumParams.reduced(10.0, 1e-9))
        np.testing.assert_allclose(zero, tiny, rtol=1e-7)


class TestRevivalEnvelope:
    def test_vanishes_at_read_instant(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        assert revival_envelope(schedule.t_pi2, pulse, schedule, params) == 0.0

    def test_ninety_percent_point(self):
        # value at t_pi2 + 2 is kappa(1) times the frozen amplitude
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        v = slow_light_velocity(params)
        t = schedule.t_pi2 + 2.0
        frozen = transmitted_gaussian(params.length - 2.0 * v, schedule.t_pi1,
                                      pulse.duration, params)
        assert revival_envelope(t, pulse, schedule, params) == pytest.approx(
            0.91092614410921965 * frozen, rel=1e-9)

    def test_out_of_depth(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        v = slow_light_velocity(params)
        t = schedule.t_pi2 + params.length / v + 1.0
        assert revival_envelope(t, pulse, schedule, params) == 0.0

    def test_finite_bandwidth_plateau_and_ringing(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        clipped = StorageSchedule(t_pi1=schedule.t_pi1, t_pi2=schedule.t_pi2,
                                  delta1=5.0)
        t = schedule.t_pi2 + np.linspace(16.0, 24.0, 33)
        full = revival_envelope(t, pulse, schedule, params)
        cut = revival_envelope(t, pulse, clipped, params)
        ratio = cut / full
        assert np.mean(ratio) == pytest.approx(0.887162, rel=0.02)
        # ringing: the deviation from the smooth plateau changes sign
        assert np.sum(np.diff(np.sign(ratio - np.mean(ratio))) != 0) >= 3


    def test_lossy_line_takes_kappa_quadrature(self):
        # at infinite bandwidth and gamma > 0 the revival factor is
        # kappa_quadrature's
        _, pulse, schedule = reduced_setup(25.0, 10.0)
        params = MediumParams.reduced(25.0, 0.05)
        result = retrieve(pulse, schedule, params, method="revival")
        assert 0.0 < result.efficiency < 1.0
        v = slow_light_velocity(params)
        t = schedule.t_pi2 + np.array([1.0, 4.0])
        frozen = transmitted_gaussian(params.length - v * (t - schedule.t_pi2),
                                      schedule.t_pi1, pulse.duration, params)
        kap = kappa_quadrature(0.5 * (t - schedule.t_pi2), GAUSSIAN, params)
        got = revival_envelope(t, pulse, schedule, params)
        np.testing.assert_allclose(got, frozen * kap, rtol=1e-14)

    def test_finite_bandwidth_one_kernel_call(self, monkeypatch):
        # every in-depth sample goes to kappa_finite_bandwidth in one call
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        clipped = StorageSchedule(t_pi1=schedule.t_pi1, t_pi2=schedule.t_pi2,
                                  delta1=5.0)
        calls = []
        kfb = holeburn.storage.kappa_finite_bandwidth

        def counting(x, *args):
            calls.append(np.shape(x))
            return kfb(x, *args)

        monkeypatch.setattr(holeburn.storage, "kappa_finite_bandwidth",
                            counting)
        result = retrieve(pulse, clipped, params, method="revival")
        assert len(calls) == 1 and calls[0][0] > 1
        assert 0.0 < result.efficiency < 1.0


class TestEstablishedSignal:
    def test_zero_before_read(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        assert established_signal(schedule.t_pi2 - 1.0, pulse, schedule,
                                  params) == 0.0

    def test_peak_location_and_memory_depth(self):
        # peak near t - t_pi2 = L/(2v); truncated beyond L/v
        params = MediumParams.reduced(100.0)
        pulse, schedule = default_schedule(params)
        v = slow_light_velocity(params)
        y = np.linspace(1.0, 1.6 * params.length / v, 400)
        vals = established_signal(schedule.t_pi2 + y, pulse, schedule, params)
        peak_y = y[int(np.argmax(np.abs(vals)))]
        assert peak_y == pytest.approx(params.length / (2.0 * v), rel=0.15)
        # the retrieved pulse has a finite trailing edge; by 1.4 L/v it
        # has dropped below 1% of the peak
        beyond = np.abs(vals[y > 1.4 * params.length / v])
        assert np.max(beyond) < 0.01 * np.max(np.abs(vals))

    @pytest.mark.parametrize("v_over_c, gamma", [
        (0.0, 0.0), (0.3, 0.0), (0.6, 0.0), (0.0, 0.01), (0.0, 0.05),
        (0.0, 0.2), (0.3, 0.05)])
    def test_late_window_matches_full_quadrature(self, v_over_c, gamma):
        # the kernel's mass and mean delay follow v/c and gamma, so the
        # late window holds to 1e-3 of the peak at each (the mass and delay
        # of v/c = gamma = 0 are off by 1.5e-2 at v/c = 0.3 and 9.2e-2 at
        # gamma = 0.05)
        params = MediumParams.reduced(100.0, gamma, v_over_c)
        pulse = PulseSpec(duration=19.0)
        t_pi1 = params.length / (2.0 * slow_light_velocity(params))
        schedule = StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + 10.0)
        t = schedule.t_pi2 + np.linspace(6.0, 90.0, 29)
        full = restored_field_full(t, pulse, schedule, HoleProfile.gaussian(),
                                   params)
        est = established_signal(t, pulse, schedule, params)
        assert np.max(np.abs(full - est)) <= 1e-3 * np.max(np.abs(full))


class TestRestoredFieldFull:
    def test_vanishes_at_read_instant(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        assert restored_field_full(schedule.t_pi2, pulse, schedule,
                                   HoleProfile.gaussian(), params) == 0.0

    def test_finite_bandwidth_rejected(self):
        # no route but revival has a conversion-band term: the other three
        # refuse a finite band, each naming its method, rather than return
        # their infinite-band field
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        clipped = StorageSchedule(t_pi1=schedule.t_pi1, t_pi2=schedule.t_pi2,
                                  delta1=5.0)
        t = schedule.t_pi2 + 1.0
        routes = {
            "full_quadrature": lambda: restored_field_full(
                t, pulse, clipped, HoleProfile.gaussian(), params),
            "established": lambda: established_signal(t, pulse, clipped,
                                                      params),
            "series": lambda: appendix_series_field(
                t, pulse, clipped, params),
        }
        for name, route in routes.items():
            with pytest.raises(ConfigurationError,
                               match=f"the {name} route assumes infinite"):
                route()

    def test_time_translation_covariance(self):
        # no decoherence during the hold: moving the read instant alone
        # only shifts the restored field
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        moved = StorageSchedule(t_pi1=schedule.t_pi1,
                                t_pi2=schedule.t_pi2 + 7.3)
        prof = HoleProfile.gaussian()
        for y in (1.0, 4.0, 9.0):
            a = restored_field_full(schedule.t_pi2 + y, pulse, schedule,
                                    prof, params)
            b = restored_field_full(moved.t_pi2 + y, pulse, moved,
                                    prof, params)
            assert b == pytest.approx(a, rel=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.05],
                             ids=["gaussian", "gaussian-lossy"])
    def test_factorized_matches_unfactorized(self, gamma):
        # y straddles KERNEL_RANGE, where the q-nodes stop moving and the
        # contracted M is built once; the array call visits late, early,
        # late samples so a stale M would show
        params = MediumParams.reduced(25.0, gamma_over_delta0=gamma)
        pulse = PulseSpec(duration=10.0)
        t_pi1 = params.length / (2.0 * slow_light_velocity(params))
        schedule = StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + 10.0)
        prof = HoleProfile.gaussian()
        y = np.array([40.0, 0.5, 14.1, 7.0, 14.0, 13.9])
        t = schedule.t_pi2 + y
        ref = reference_restored_field_full(t, pulse, schedule, params)
        peak = np.max(np.abs(ref))
        assert peak > 0.0
        arr = restored_field_full(t, pulse, schedule, prof, params)
        scalars = np.array([restored_field_full(ti, pulse, schedule, prof,
                                                params) for ti in t])
        assert np.max(np.abs(arr - ref)) <= 1e-13 * peak
        assert np.max(np.abs(scalars - ref)) <= 1e-13 * peak

    @pytest.mark.parametrize("alpha0_L, gamma, v_over_c", [
        pytest.param(alpha0_L, gamma, v_over_c,
                     id=f"{alpha0_L}" + (f"-gamma{gamma}" if gamma else "")
                     + (f"-vc{v_over_c}" if v_over_c else ""))
        for alpha0_L in (9.0, 100.0)
        for gamma, v_over_c in ((0.0, 0.0), (0.05, 0.0), (0.0, 0.3))])
    def test_retrieval_grid_matches_unfactorized(self, alpha0_L, gamma,
                                                 v_over_c):
        # every 8th sample of the grid a retrieval uses: the late u-node
        # loop skips only factors below e^-U_NODE_REACH; a decay and a
        # finite c move the memory weight and the u-nodes
        params = MediumParams.reduced(alpha0_L, gamma, v_over_c)
        pulse, schedule = default_schedule(params)
        prof = HoleProfile.gaussian()
        t = retrieval_grid(pulse, schedule, params)[::8]
        ref = reference_restored_field_full(t, pulse, schedule, params)
        arr = restored_field_full(t, pulse, schedule, prof, params)
        assert np.max(np.abs(arr - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the same samples in descending order
        rev = restored_field_full(t[::-1], pulse, schedule, prof, params)
        assert np.max(np.abs(rev[::-1] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("y", [
        [13.0, 40.0, 30.0, 30.0, 20.0, 14.0, 14.0, 2.0],
        [14.0, 25.0, 60.0],
        [0.5, 3.0, 13.9],
        [[14.1, 0.5, 40.0], [7.0, 40.0, -1.0]],
        [20.0, np.nan, 14.0, 5.0],
    ], ids=["late-descending-duplicates", "late-only", "early-only", "2d",
            "nan"])
    def test_sample_order_and_shape(self, y):
        # late samples are sorted internally; the result comes back in the
        # caller's order and shape, and a NaN time stays NaN
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        prof = HoleProfile.gaussian()
        t = schedule.t_pi2 + np.array(y)
        ref = reference_restored_field_full(t, pulse, schedule, params)
        arr = restored_field_full(t, pulse, schedule, prof, params)
        assert arr.shape == t.shape
        np.testing.assert_allclose(arr, ref, rtol=0.0,
                                   atol=1e-13 * np.nanmax(np.abs(ref)))

    # early samples (0 < y < KERNEL_RANGE) are taken in blocks of
    # max(1, 2^16 // (n_pq n_u)) samples: 6 at refine 1
    BLOCK = max(1, 2 ** 16 // (48 * 200))

    def test_every_early_sample_of_retrieval_grid(self):
        # all 169 samples below KERNEL_RANGE at alpha0 L = 9: many blocks
        params = MediumParams.reduced(9.0)
        pulse, schedule = default_schedule(params)
        prof = HoleProfile.gaussian()
        t = retrieval_grid(pulse, schedule, params)
        t = t[t - schedule.t_pi2 < KERNEL_RANGE]
        assert t.size == 169
        ref = reference_restored_field_full(t, pulse, schedule, params)
        arr = restored_field_full(t, pulse, schedule, prof, params)
        assert np.max(np.abs(arr - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_early", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_edges(self, n_early):
        # a partial block, one block, and one sample past it; late samples
        # sit between the early ones in the caller's order
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        prof = HoleProfile.gaussian()
        early = np.linspace(0.3, 13.7, n_early)
        late = np.linspace(14.0, 45.0, n_early + 1)
        y = np.empty(2 * n_early + 1)
        y[0::2], y[1::2] = late, early
        t = schedule.t_pi2 + y
        ref = reference_restored_field_full(t, pulse, schedule, params)
        arr = restored_field_full(t, pulse, schedule, prof, params)
        assert np.max(np.abs(arr - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_refined_nodes_block_of_one(self):
        # at refine 2 (n_pq = 96, n_u = 400) one sample fills a block
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        prof = HoleProfile.gaussian()
        t = schedule.t_pi2 + np.array([0.4, 20.0, 6.5, 13.9, 30.0, 2.0])
        ref = reference_restored_field_full(t, pulse, schedule, params,
                                            n_pq=96, n_u=400)
        arr = restored_field_full(t, pulse, schedule, prof, params, refine=2)
        assert np.max(np.abs(arr - ref)) <= 1e-13 * np.max(np.abs(ref))

class TestRestoredFieldFullHalves:
    """One helper thread starts on the early blocks while the calling
    thread runs the late u-node loop and then takes the early blocks the
    helper has not; both draw block starts from one iterator.  A call with
    only one half starts no thread.  Whichever thread takes a block, the
    result is bit-identical to the early-only and late-only calls."""

    @staticmethod
    def count_threads(monkeypatch, order="free"):
        """Started helpers, with the helper run ``order``: "free" as it
        comes, "caller" only once the caller joins it (the caller takes
        every block), "helper" to its end inside ``start`` (it does)."""
        threads = []

        class CountingThread(threading.Thread):
            def start(self):
                threads.append(self)
                if order != "caller":
                    super().start()
                if order == "helper":
                    super().join()

            def join(self, timeout=None):
                if order == "caller":
                    super().start()
                super().join(timeout)

        monkeypatch.setattr(holeburn.storage, "threading",
                            SimpleNamespace(Thread=CountingThread))
        return threads

    @pytest.fixture
    def started(self, monkeypatch):
        return self.count_threads(monkeypatch)

    @pytest.mark.parametrize("alpha0_L", [9.0, 100.0])
    def test_split_is_bit_identical(self, alpha0_L, started):
        params = MediumParams.reduced(alpha0_L)
        pulse, schedule = default_schedule(params)
        prof = HoleProfile.gaussian()
        t = retrieval_grid(pulse, schedule, params)
        y = t - schedule.t_pi2
        early = (y > 0) & (y < KERNEL_RANGE)
        assert early.any() and (y >= KERNEL_RANGE).any()
        before = threading.active_count()
        whole = restored_field_full(t, pulse, schedule, prof, params)
        assert len(started) == 1
        assert threading.active_count() == before
        alone = restored_field_full(t[early], pulse, schedule, prof, params)
        rest = restored_field_full(t[~early], pulse, schedule, prof, params)
        assert len(started) == 1
        assert np.array_equal(whole[early], alone)
        assert np.array_equal(whole[~early], rest)

    @pytest.mark.parametrize("order", ["caller", "helper"])
    def test_one_thread_takes_every_early_block(self, order, monkeypatch):
        # 169 early samples at alpha0 L = 9, 29 blocks: the memory weight
        # is built once per block and once for the late half
        started = self.count_threads(monkeypatch, order)
        callers = []
        gaussian = _memory_weight(0.0)

        def kernel(s):
            callers.append(threading.current_thread())
            return gaussian(s)

        monkeypatch.setattr(holeburn.storage, "_memory_weight",
                            lambda gamma: kernel)
        params = MediumParams.reduced(9.0)
        pulse, schedule = default_schedule(params)
        t = retrieval_grid(pulse, schedule, params)
        early = (t - schedule.t_pi2 > 0) & (t - schedule.t_pi2 < KERNEL_RANGE)
        n_blocks = -(-int(early.sum()) // TestRestoredFieldFull.BLOCK)
        before = threading.active_count()
        whole = restored_field_full(t, pulse, schedule, GAUSSIAN, params)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before
        by_caller = callers.count(threading.current_thread())
        assert by_caller == (1 + n_blocks if order == "caller" else 1)
        assert len(callers) == 1 + n_blocks
        alone = restored_field_full(t[early], pulse, schedule, GAUSSIAN,
                                    params)
        rest = restored_field_full(t[~early], pulse, schedule, GAUSSIAN,
                                   params)
        assert len(started) == 1
        assert np.array_equal(whole[early], alone)
        assert np.array_equal(whole[~early], rest)

    def test_concurrent_callers(self):
        # four callers, each with its own helper (eight threads), at a
        # short switch interval: every result equals the lone call's
        params = MediumParams.reduced(25.0)
        pulse, schedule = default_schedule(params)
        prof = HoleProfile.gaussian()
        t = retrieval_grid(pulse, schedule, params)[::4]
        want = restored_field_full(t, pulse, schedule, prof, params)
        got = [None] * 4

        def call(i):
            got[i] = restored_field_full(t, pulse, schedule, prof, params)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(out, want) for out in got)

    def test_helper_thread_silences_degenerate_arithmetic(self, started):
        # at a degenerate opacity the early half overflows, which retrieve
        # reports as a restored-energy failure; numpy's errstate does not
        # carry into a new thread, so the helper must set its own
        params = MediumParams.reduced(1e-300)
        pulse, schedule = default_schedule(params)
        t = schedule.t_pi2 + np.array([13.0, 20.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            restored_field_full(t, pulse, schedule, HoleProfile.gaussian(),
                                params)
        assert len(started) == 1

    def test_early_half_exception_reaches_caller(self, monkeypatch):
        # the error is raised in the caller, not only printed through
        # threading.excepthook; the helper runs first, so it takes a block
        started = self.count_threads(monkeypatch, "helper")

        class EarlyHalfError(RuntimeError):
            pass

        caller = threading.current_thread()
        gaussian = _memory_weight(0.0)

        def kernel(s):
            if threading.current_thread() is not caller:
                raise EarlyHalfError("raised on the helper thread")
            return gaussian(s)

        hooked = []
        monkeypatch.setattr(holeburn.storage, "_memory_weight",
                            lambda gamma: kernel)
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        t = schedule.t_pi2 + np.array([3.0, 20.0, 7.5, 40.0])
        before = threading.active_count()
        with pytest.raises(EarlyHalfError):
            restored_field_full(t, pulse, schedule, HoleProfile.gaussian(),
                                params)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before
        assert hooked == []


class TestAppendixSeries:
    def test_vanishes_at_read_instant(self):
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        for order in (0, 2):
            assert appendix_series_field(schedule.t_pi2, pulse, schedule,
                                         params, order=order) == 0.0

    def test_order_cap(self):
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        with pytest.raises(ConfigurationError,
                           match=r"series_order must be an integer in 0\.\.6"):
            appendix_series_field(schedule.t_pi2 + 1.0, pulse, schedule,
                                  params, order=7)

    def test_order_zero_against_independent_quadrature(self):
        # n = 0 truncation is the simple depth-slice field; reproduce it
        # with adaptive quadrature of the same integrand
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        v = slow_light_velocity(params)
        a = v
        rho = params.length / v
        dT = pulse.duration
        x = schedule.t_pi1
        y = 1.0

        def frozen(zeta, xh):
            w1 = dT * dT + a * zeta
            return dT / math.sqrt(w1) * math.exp(-(xh - zeta) ** 2 / (2 * w1))

        ref, err = integrate.dblquad(
            lambda p, q: math.exp(-0.25 * (p + q) ** 2)
            * frozen(rho - (y - q), x - p),
            max(0.0, y - rho), y, 0.0, 40.0, epsabs=1e-12, epsrel=1e-10)
        ref *= 0.5
        val = appendix_series_field(schedule.t_pi2 + y, pulse, schedule,
                                    params, order=0)
        assert val == pytest.approx(ref, rel=1e-8)

    def test_derivatives_match_frozen_symbolic_values(self):
        # 2n-th derivatives for n = 0..6 frozen from symbolic
        # differentiation; compared per order and per (dT, a, rho) set
        with open(os.path.join(DATA, "series_derivatives.json")) as fh:
            frozen = json.load(fh)
        points = np.array(frozen["points"])
        sets = np.unique(points[:, 2:], axis=0)
        assert len(sets) == 3 and sorted(frozen["values"]) == list("0123456")
        got = np.array([_series_derivatives(6, *pt) for pt in points])
        for n, ref in frozen["values"].items():
            ref = np.array(ref)
            for dT, a, rho in sets:
                sel = np.all(points[:, 2:] == (dT, a, rho), axis=1)
                scale = np.max(np.abs(ref[sel]))
                np.testing.assert_allclose(got[sel, int(n)], ref[sel],
                                           rtol=0, atol=1e-12 * scale)

    def test_order_six_finite(self):
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        t = schedule.t_pi2 + np.array([0.5, 1.0, 3.0, 8.0])
        vals = appendix_series_field(t, pulse, schedule, params, order=6)
        assert np.all(np.isfinite(vals)) and np.all(vals != 0.0)

    def test_successive_order_ratio(self):
        # with condition min(t - t_pi2, L/v) << T^2 the
        # N = 2 correction is bounded by that small parameter
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        t = schedule.t_pi2 + 1.0
        n0 = appendix_series_field(t, pulse, schedule, params, order=0)
        n2 = appendix_series_field(t, pulse, schedule, params, order=2)
        v = slow_light_velocity(params)
        bound = min(1.0, params.length / v) / pulse.duration ** 2
        assert abs(n2 - n0) / abs(n0) < bound


class TestRetrieve:
    def test_truncated_tail_refused(self, monkeypatch):
        # a waveform still at full height at the grid's end is refused, not
        # integrated as if it had ended there
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        monkeypatch.setattr(holeburn.storage, "restored_field_full",
                            lambda t, *args, **kwargs: np.ones_like(t))
        with pytest.raises(ConfigurationError,
                           match=r"retrieval grid truncates the restored "
                                 r"waveform \(tail fraction 1\.56e-02\)"):
            retrieve(pulse, schedule, params)

    def test_result_contract(self):
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        result = retrieve(pulse, schedule, params, method="established")
        assert 0.0 <= result.efficiency <= 1.0
        assert result.method == "established"
        assert result.envelope.samples[0] == 0.0  # t = t_pi2
        assert set(result.validity) >= {"revival_condition_fraction",
                                        "established_window_ok"}

    def test_series_method_label(self):
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        result = retrieve(pulse, schedule, params, method="series",
                          series_order=1)
        assert result.method == "series(1)"

    @pytest.mark.parametrize("method", ["revival", "established",
                                        "full_quadrature", "series"])
    def test_margins_from_confinement_report(self, method):
        # the opacity and the pulse duration away from round numbers, so
        # that the order of the operations shows in the last bit
        params = MediumParams(gamma_ab=0.0, length=25.0 / 1.3)
        pulse = PulseSpec(duration=11.1 / 0.7)
        t_pi1 = params.length / (2.0 * slow_light_velocity(params))
        schedule = StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + 3.0)
        validity = retrieve(pulse, schedule, params, method=method).validity
        spectral, temporal = confinement_report(pulse.duration, params)
        assert validity["spectral_margin"] == spectral
        assert validity["temporal_margin"] == temporal

    @pytest.mark.parametrize("method, alpha0_L, delta0_T, expected", [
        # revival fraction 1.16 and spectral margin 0.5
        ("revival", 100.0, 5.0, ["revival product form",
                                 "spectrum not confined"]),
        # b = 0.6: the restored peak is still in the early window
        ("established", 9.0, 0.6 * 9.0 ** 0.75, ["established-signal kernel"]),
        # temporal margin 25 / 30
        ("full_quadrature", 25.0, 30.0, ["not confined inside the slab"]),
        ("established", 100.0, 19.0, []),
    ])
    def test_warnings_name_each_violation(self, method, alpha0_L, delta0_T,
                                          expected):
        # one line per out-of-regime indicator, in the order of validity
        params, pulse, schedule = reduced_setup(alpha0_L, delta0_T)
        lines = retrieve(pulse, schedule, params, method=method).warnings
        assert isinstance(lines, tuple)
        assert len(lines) == len(expected)
        assert all(part in line for part, line in zip(expected, lines))

    @pytest.mark.parametrize("method", ["full_quadrature", "series",
                                        "revival", "established"])
    @pytest.mark.parametrize("gamma, refine, unresolved", [
        (100.0, 1, True), (100.0, 2, False), (30.0, 1, False)])
    def test_warns_of_unresolved_memory_decay(self, method, gamma, refine,
                                              unresolved):
        # at alpha0 L 25 the (p, q) rule misses eta by 2.3% at gamma/delta0
        # 100 and refine 1, by 1e-10 at refine 2 and by 8e-9 at gamma/delta0
        # 30 (against refine 4); revival and established have no such rule
        params = MediumParams.reduced(25.0, gamma)
        pulse, schedule = default_schedule(params)
        lines = retrieve(pulse, schedule, params, method=method,
                         refine=refine).warnings
        warned = [line for line in lines if "memory decay" in line]
        assert len(warned) == (unresolved and method in ("full_quadrature",
                                                         "series"))

    def test_gaussian_only_routes_refuse_other_holes(self, monkeypatch):
        # every route models the Gaussian hole only: the storage routes and
        # the susceptibility routines that take a profile refuse anything
        # but a HoleProfile before any work, where a table once gave its
        # own K with the Gaussian hole's v, dispersion and frozen field;
        # the other storage routes take no profile at all
        params = MediumParams.reduced(25.0, gamma_over_delta0=0.05)
        pulse, schedule = default_schedule(params)
        t = schedule.t_pi2 + np.array([3.0, 20.0])

        def unreachable(*args, **kwargs):
            raise AssertionError("work done for a refused hole")

        for name in ("_gl", "_memory_weight", "_reduced", "_revival_b",
                     "check_retrieval_args"):
            monkeypatch.setattr(holeburn.storage, name, unreachable)
        for name in ("_quad", "chi_quadrature"):
            monkeypatch.setattr(holeburn.medium, name, unreachable)
        routes = {
            "restored_field_full": lambda hole: restored_field_full(
                t, pulse, schedule, hole, params),
            "kappa_quadrature": lambda hole: kappa_quadrature(
                [0.5, 1.0], hole, params),
            "kappa_finite_bandwidth": lambda hole: kappa_finite_bandwidth(
                [0.5, 1.0], 5.0, hole, params),
            "chi_quadrature": lambda hole: chi_quadrature(0.5, hole, params),
            "absorption_coefficient": lambda hole: absorption_coefficient(
                0.3, hole, params),
            "inverse_group_velocity": lambda hole: inverse_group_velocity(
                hole, params),
            "quadrature_model": lambda hole: quadrature_model(hole, params),
        }
        # a bare callable g, and an object that only claims the old
        # Gaussian kind
        holes = (lambda delta: 1.0 - np.exp(-delta ** 4),
                 SimpleNamespace(kind="gaussian"))
        for name, route in routes.items():
            for hole in holes:
                with pytest.raises(ConfigurationError,
                                   match=r"the Gaussian hole only"):
                    route(hole)
        monkeypatch.undo()
        for route in (retrieve, efficiency):
            with pytest.raises(TypeError, match="profile"):
                route(pulse, schedule, params, profile=GAUSSIAN)
        with pytest.raises(TypeError, match="profile"):
            revival_envelope(t, pulse, schedule, params, profile=GAUSSIAN)
        with pytest.raises(TypeError, match="profile"):
            holeburn.storage.check_retrieval_args(profile=GAUSSIAN)

    def test_unknown_method(self):
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        with pytest.raises(ConfigurationError):
            retrieve(pulse, schedule, params, method="magic")

    # every method refuses a refine the routes cannot scale their node
    # counts by, before numpy's leggauss sees it: not an int, a bool, or
    # outside 1..16; revival, which scales none, refuses the same values
    @pytest.mark.parametrize("refine", [0, -1, 2.5, True, 17, "x"])
    @pytest.mark.parametrize("method", ["full_quadrature", "established",
                                        "series", "revival"])
    def test_bad_refine_refused(self, method, refine):
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        with pytest.raises(ConfigurationError, match="refine must be an "
                           r"integer in 1\.\.16, got"):
            retrieve(pulse, schedule, params, method=method, refine=refine)

    # the CLI's rule: an int, at least 64, and a power of two (at 32, eta
    # is off by up to 10%; at 2 to 8 the revival samples can miss the
    # waveform)
    @pytest.mark.parametrize("n_time", [0, 1, 3, True, 32])
    def test_bad_n_time_refused(self, n_time):
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        with pytest.raises(ConfigurationError, match="n_time must be a power "
                           f"of two of at least 64, got {n_time!r}"):
            retrieve(pulse, schedule, params, method="revival",
                     n_time=n_time)

    def test_refine_cap_accepted(self):
        # the sweep guard doubles the scenario cap: 2 MAX_REFINE is run
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        t = schedule.t_pi2 + 20.0
        cap = 2 * holeburn.storage.MAX_REFINE
        assert established_signal(t, pulse, schedule, params, refine=cap) \
            == pytest.approx(established_signal(t, pulse, schedule, params),
                             rel=1e-10)

    def test_efficiency_bounds_invariant(self):
        with pytest.raises(ConfigurationError):
            RetrievalResult(envelope=None, efficiency=1.5, method="revival")

    def test_efficiency_golden_regression(self):
        # frozen full-quadrature reference at opacity 100, b = 0.6 schedule
        params = MediumParams.reduced(100.0)
        pulse, schedule = default_schedule(params)
        eta = efficiency(pulse, schedule, params, method="full_quadrature")
        assert eta == pytest.approx(0.8038156508928471, rel=1e-4)

    def test_efficiency_pinned(self):
        # value of the unfactorized full quadrature (refine 1) at opacity
        # 100, b = 0.6; the factorized sums may only move it by rounding
        params = MediumParams.reduced(100.0)
        pulse, schedule = default_schedule(params)
        eta = efficiency(pulse, schedule, params, method="full_quadrature")
        assert eta == pytest.approx(0.8038156508928593, rel=1e-12)

    @pytest.mark.parametrize("method", ["revival", "established",
                                        "full_quadrature", "series"])
    @pytest.mark.parametrize("alpha0_L, b", [(9.0, 1e-300), (1e-300, 0.6)],
                             ids=["duration", "opacity"])
    def test_degenerate_point_is_numerical_failure(self, alpha0_L, b, method):
        # the restored waveform underflows to zero, and the revival
        # fraction divides by T^2 = 0: never a clean eta = 0
        params = MediumParams.reduced(alpha0_L)
        pulse, schedule = default_schedule(params, b=b)
        with np.errstate(all="ignore"), \
                pytest.raises(NumericsError, match="restored energy is 0"):
            retrieve(pulse, schedule, params, method=method)

    def test_non_finite_indicator_is_numerical_failure(self, monkeypatch):
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        monkeypatch.setattr(holeburn.storage, "revival_validity",
                            lambda *args: math.inf)
        with pytest.raises(NumericsError, match="revival_condition_fraction"):
            retrieve(pulse, schedule, params, method="established")

    def test_overshoot_is_numerical_failure(self, monkeypatch):
        # doubled amplitudes quadruple the energy: eta > 1 is reported with
        # its excess, never clamped to 1
        params = MediumParams.reduced(100.0)
        pulse, schedule = default_schedule(params)
        eta = efficiency(pulse, schedule, params, method="full_quadrature")
        full = holeburn.storage.restored_field_full
        monkeypatch.setattr(holeburn.storage, "restored_field_full",
                            lambda *args, **kw: 2.0 * full(*args, **kw))
        with pytest.raises(NumericsError) as err:
            retrieve(pulse, schedule, params, method="full_quadrature")
        assert err.value.residual == pytest.approx(4.0 * eta - 1.0, rel=1e-12)


def test_gl_keeps_every_rule_size():
    # a 32-entry cache thrashed on runs that ask for ~45 rule sizes; a
    # second round over more sizes than that must be served from the cache
    sizes = range(2, 42)
    for n in sizes:
        holeburn.storage._gl(n)
    before = holeburn.storage._gl.cache_info()
    for n in sizes:
        holeburn.storage._gl(n)
    after = holeburn.storage._gl.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + len(sizes)


def test_lossy_storage_routes_leave_integrate_unloaded(fresh_python):
    # at gamma > 0 the revival factor and the full quadrature evaluate the
    # memory weight on their own Gauss-Legendre nodes: scipy.integrate is
    # never imported for them
    code = """
import sys
import numpy as np
from holeburn.medium import HoleProfile, MediumParams
from holeburn.storage import (default_schedule, kappa_quadrature,
                              restored_field_full, retrieve)
hole = HoleProfile.gaussian()
params = MediumParams.reduced(25.0, 0.05)
pulse, schedule = default_schedule(params)
kappa_quadrature([0.5, 1.0], hole, params)
retrieve(pulse, schedule, params, method="revival")
restored_field_full(schedule.t_pi2 + np.array([3.0, 20.0]), pulse, schedule,
                    hole, params)
sys.exit("scipy.integrate" in sys.modules)
"""
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr


def test_import_leaves_sympy_out(fresh_python):
    # the series route differentiates with numpy Taylor jets; sympy must
    # not come back as a runtime dependency
    code = ("import sys, holeburn, holeburn.cli, holeburn.oracle; "
            "sys.exit('sympy' in sys.modules)")
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr
