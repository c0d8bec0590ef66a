"""Storage schedules, revival factors, and the four retrieval routes.

Frozen reference values were computed with 30-digit mpmath evaluation of
the closed forms; cross-method numbers come from independent adaptive
quadrature (scipy) of the defining integrals.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import integrate

import holeburn.storage
from holeburn.errors import (ConfigurationError, DomainError, NumericsError,
                             PreconditionError)
from holeburn.medium import HoleProfile, MediumParams, slow_light_velocity
from holeburn.propagation import PulseSpec, transmitted_gaussian
from holeburn.storage import (KERNEL_RANGE, RetrievalResult, StorageSchedule,
                              _deficit_kernel, _established_kernel,
                              _gl_interval, _reduced, _series_derivatives,
                              appendix_series_field,
                              bandwidth_reduction_factor, default_schedule,
                              efficiency, established_signal, kappa,
                              kappa_finite_bandwidth, kappa_quadrature,
                              restored_field_full, retrieval_grid, retrieve,
                              revival_envelope)

SQRT_PI = math.sqrt(math.pi)
DATA = os.path.join(os.path.dirname(__file__), "data")


def reduced_setup(alpha0_L, delta0_T, hold=10.0):
    """Params, pulse, and half-transit schedule in reduced units."""
    params = MediumParams.reduced(alpha0_L)
    pulse = PulseSpec(duration=delta0_T)
    t_pi1 = params.length / (2.0 * slow_light_velocity(params))
    schedule = StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + hold)
    return params, pulse, schedule


def reference_restored_field_full(t, pulse, schedule, profile, params,
                                  n_pq=48, n_u=200):
    """Unfactorized restored field: the established kernel evaluated on the
    full (p, q) grid at every time sample, then the weighted double sum."""
    v, a, rho, vc = _reduced(params)
    d0 = params.delta0
    dT = d0 * pulse.duration
    x = d0 * (schedule.t_pi1 - pulse.center_time)
    gamma_red = params.gamma_ab / d0
    kern = _deficit_kernel(profile, d0)

    p, wp = _gl_interval(n_pq, 0.0, KERNEL_RANGE)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t_arr.shape, dtype=float)
    for i, ti in enumerate(t_arr.ravel()):
        y = d0 * (ti - schedule.t_pi2)
        if y <= 0:
            continue
        q, wq = _gl_interval(n_pq, 0.0, min(y, KERNEL_RANGE))
        pp = p[:, None] + q[None, :]
        ktil = np.asarray(kern(pp.ravel())).reshape(pp.shape) / d0
        weight = ktil * np.exp(-gamma_red * pp)
        r = _established_kernel(x - np.broadcast_to(p[:, None], pp.shape),
                                y - np.broadcast_to(q[None, :], pp.shape),
                                rho, dT, a, n_u)
        out.ravel()[i] = (a / (2.0 * np.pi) * pulse.peak
                          * float(np.einsum("i,j,ij->", wp, wq, weight * r)))
    return out if np.ndim(t) else float(out[0])


def reference_kappa_finite_bandwidth(x, delta1, profile, params, knots=()):
    """Per-sample adaptive quadrature of the finite-bandwidth revival factor
    over [-delta1, delta1], split at Delta = 0 and at the in-band ``knots``.

    Without knots this is the finite-bandwidth route as it stood before the
    node rule.  A tabulated hole needs its spline knots: across them the
    integrand is only twice differentiable, and the unsplit quadrature is
    off by up to 1e-8 of peak."""
    x = float(x)
    if x == 0.0:
        return 0.0
    g = HoleProfile.gaussian() if profile is None else profile
    d0, gamma = params.delta0, params.gamma_ab
    v = slow_light_velocity(params)
    b = 2.0 * x / d0

    def integrand(delta):
        if delta == 0.0 and gamma == 0.0:
            return float(g(0.0, d0)) * 0.5 * b * b
        dc = complex(gamma, -delta)
        return -float(g(delta, d0)) * ((1.0 - np.exp(-dc * b)) / dc ** 2).real

    points = [0.0] + [k for k in knots if 0.0 < abs(k) < delta1]
    val, err = integrate.quad(integrand, -delta1, delta1, points=points,
                              limit=300 + len(points), epsabs=1e-12,
                              epsrel=1e-10)
    assert err <= 1e-7
    return params.alpha0 * v / (2.0 * np.pi) * val


def lorentzian_hole(delta, delta0):
    """A bare callable g (no HoleProfile): a Lorentzian-shaped hole."""
    u = np.asarray(delta, dtype=float) / delta0
    return u * u / (1.0 + u * u)


def in_depth_x(alpha0_L, delta0_T, gamma=0.0, n_time=512):
    """Params and the revival arguments x of the in-depth samples of the
    retrieval grid (0 < y, readout depth inside the slab)."""
    _, pulse, schedule = reduced_setup(alpha0_L, delta0_T)
    params = MediumParams.reduced(alpha0_L, gamma_over_delta0=gamma)
    elapsed = (retrieval_grid(pulse, schedule, params, n_time=n_time)
               - schedule.t_pi2)
    v = slow_light_velocity(params)
    keep = (elapsed > 0) & (params.length - v * elapsed >= 0.0)
    return params, 0.5 * params.delta0 * elapsed[keep]


def tabulated_gaussian_hole():
    x = np.linspace(-8, 8, 321)
    return HoleProfile.tabulated(x, 1.0 - np.exp(-x * x))


class TestStorageSchedule:
    def test_ordering_invariant(self):
        with pytest.raises(ConfigurationError):
            StorageSchedule(t_pi1=5.0, t_pi2=5.0)

    def test_bandwidth_invariant(self):
        with pytest.raises(ConfigurationError):
            StorageSchedule(t_pi1=0.0, t_pi2=1.0, delta1=-2.0)
        params = MediumParams.reduced(10.0)
        with pytest.raises(ConfigurationError):
            StorageSchedule(t_pi1=0.0, t_pi2=1.0, delta1=0.5).validate(params)

    def test_infinite_bandwidth_default(self):
        assert StorageSchedule(t_pi1=0.0, t_pi2=1.0).infinite_bandwidth

    def test_default_schedule(self):
        params = MediumParams.reduced(100.0)
        pulse, schedule = default_schedule(params)
        assert pulse.duration == pytest.approx(18.973665961010276, rel=1e-12)
        assert schedule.t_pi1 == pytest.approx(50.0 / SQRT_PI, rel=1e-12)


class TestKappa:
    def test_trivial_endpoints(self):
        assert kappa(0.0) == 0.0
        assert kappa(40.0) == pytest.approx(1.0, abs=1e-14)

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
        params = MediumParams.reduced(10.0)
        prof = HoleProfile.gaussian()
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert kappa_quadrature(x, prof, params) == pytest.approx(
                kappa(x), abs=1e-6)


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

    def test_finite_bandwidth_kappa_long_time_ratio(self):
        # sharp cutoff at 5 hole widths scales the plateau by ~B(5)
        params = MediumParams.reduced(10.0)
        prof = HoleProfile.gaussian()
        ratio = kappa_finite_bandwidth(10.0, 5.0, prof, params) / kappa(10.0)
        assert ratio == pytest.approx(0.88716208329047837, rel=0.02)


class TestKappaFiniteBandwidth:
    PROFILES = {"gaussian": (0.0, HoleProfile.gaussian),
                "gaussian-lossy": (0.05, HoleProfile.gaussian),
                "gaussian-narrow-line": (1e-3, HoleProfile.gaussian),
                "tabulated": (0.0, tabulated_gaussian_hole),
                "callable": (0.0, lambda: lorentzian_hole)}

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
        knots = prof.detuning_samples if profile == "tabulated" else ()
        ref = np.array([reference_kappa_finite_bandwidth(xv, delta1, prof,
                                                         params, knots)
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
        one = kappa_finite_bandwidth(x, 6.0, None, params)
        gl = holeburn.storage._gl_interval
        counts = []

        def doubled(n, lo, hi):
            counts.append(n)
            return gl(2 * n, lo, hi)

        monkeypatch.setattr(holeburn.storage, "_gl_interval", doubled)
        two = kappa_finite_bandwidth(x, 6.0, None, params)
        assert counts
        assert abs(two[-1] - one[-1]) <= 1e-13 * np.max(np.abs(one))

    def test_scalar_matches_array_element(self):
        params, x = in_depth_x(25.0, 10.0)
        arr = kappa_finite_bandwidth(x, 5.0, None, params)
        for i in (0, len(x) // 2, len(x) - 1):
            val = kappa_finite_bandwidth(x[i], 5.0, None, params)
            assert isinstance(val, float)
            assert abs(val - arr[i]) <= 1e-13 * np.max(np.abs(arr))
        assert kappa_finite_bandwidth(0.0, 5.0, None, params) == 0.0

    def test_row_blocks_stitched(self, monkeypatch):
        # blocks of 4 rows, the last one partial, reproduce the single block
        params, x = in_depth_x(25.0, 10.0)
        whole = kappa_finite_bandwidth(x, 5.0, None, params)
        n = 40 + math.ceil(0.7 * 5.0 * 2.0 * x[-1] / params.delta0)
        assert len(x) % 4
        monkeypatch.setattr(holeburn.storage, "_RULE_BLOCK", 4 * n + 1)
        blocked = kappa_finite_bandwidth(x, 5.0, None, params)
        np.testing.assert_array_equal(blocked, whole)

    @pytest.mark.parametrize("x", [-1.0, [1.0, -1.0], math.nan, math.inf])
    def test_bad_argument_rejected(self, x):
        params = MediumParams.reduced(10.0)
        with pytest.raises(DomainError):
            kappa_finite_bandwidth(x, 5.0, None, params)

    def test_node_cap(self, monkeypatch):
        # refused before the rule is built; a rule at the cap is built
        def unreachable(*args):
            raise AssertionError("rule built above the node cap")

        params = MediumParams.reduced(10.0)
        cap = holeburn.storage.MAX_RULE_NODES
        x_cap = 0.5 * (cap - 40) / (0.7 * 5.0) * params.delta0
        gl = holeburn.storage._gl_interval
        monkeypatch.setattr(holeburn.storage, "_gl_interval", unreachable)
        with pytest.raises(ConfigurationError):
            kappa_finite_bandwidth([1.0, 1.001 * x_cap], 5.0, None, params)
        monkeypatch.setattr(holeburn.storage, "MAX_RULE_NODES", 100)
        x_100 = 0.5 * 59.5 / (0.7 * 5.0) * params.delta0
        with pytest.raises(ConfigurationError):
            kappa_finite_bandwidth(x_100 * 1.01, 5.0, None, params)
        monkeypatch.setattr(holeburn.storage, "_gl_interval", gl)
        assert math.isfinite(kappa_finite_bandwidth(x_100, 5.0, None, params))

    def test_non_finite_result(self):
        params = MediumParams.reduced(10.0)
        with pytest.raises(NumericsError):
            kappa_finite_bandwidth(
                [1.0, 2.0], 5.0,
                lambda d, d0: np.where(np.abs(d) < 1.0, np.nan, 1.0), params)

    def test_zero_linewidth_hole_floor(self):
        # at gamma = 0 the bracket's pi b delta(Delta) part weighs g(0);
        # at gamma / delta0 = 1e-9 the node rule integrates it itself
        def floored_hole(delta, delta0):
            u = np.asarray(delta, dtype=float) / delta0
            return 0.1 + 0.9 * (1.0 - np.exp(-u * u))

        x = [1.0, 2.0, 4.0]
        zero = kappa_finite_bandwidth(x, 5.0, floored_hole,
                                      MediumParams.reduced(10.0))
        tiny = kappa_finite_bandwidth(x, 5.0, floored_hole,
                                      MediumParams.reduced(10.0, 1e-9))
        np.testing.assert_allclose(zero, tiny, rtol=1e-7)
        np.testing.assert_allclose(zero, [0.711108, 0.780749, 0.784975],
                                   rtol=1e-6)
        # the Gaussian hole has no floor, so its results do not move
        assert HoleProfile.gaussian()(0.0) == 0.0


class TestRevivalEnvelope:
    def test_vanishes_at_read_instant(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        assert revival_envelope(schedule.t_pi2, pulse, schedule, params) == 0.0

    def test_ninety_percent_point(self):
        # value at t_pi2 + 2/delta0 is kappa(1) times the frozen amplitude
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
        cut = revival_envelope(t, pulse, clipped, params,
                               profile=HoleProfile.gaussian())
        ratio = cut / full
        assert np.mean(ratio) == pytest.approx(0.887162, rel=0.02)
        # ringing: the deviation from the smooth plateau changes sign
        assert np.sum(np.diff(np.sign(ratio - np.mean(ratio))) != 0) >= 3


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


class TestRestoredFieldFull:
    def test_vanishes_at_read_instant(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        assert restored_field_full(schedule.t_pi2, pulse, schedule,
                                   HoleProfile.gaussian(), params) == 0.0

    def test_finite_bandwidth_rejected(self):
        params, pulse, schedule = reduced_setup(100.0, 19.0)
        clipped = StorageSchedule(t_pi1=schedule.t_pi1, t_pi2=schedule.t_pi2,
                                  delta1=5.0)
        with pytest.raises(PreconditionError):
            restored_field_full(schedule.t_pi2 + 1.0, pulse, clipped,
                                HoleProfile.gaussian(), params)

    def test_time_translation_covariance(self):
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        shift = 7.3
        moved_pulse = PulseSpec(duration=pulse.duration,
                                center_time=pulse.center_time + shift)
        moved = StorageSchedule(t_pi1=schedule.t_pi1 + shift,
                                t_pi2=schedule.t_pi2 + shift)
        prof = HoleProfile.gaussian()
        for y in (1.0, 4.0, 9.0):
            a = restored_field_full(schedule.t_pi2 + y, pulse, schedule,
                                    prof, params)
            b = restored_field_full(moved.t_pi2 + y, moved_pulse, moved,
                                    prof, params)
            assert b == pytest.approx(a, rel=1e-10)

    def test_matches_tabulated_profile(self):
        # the analytic gaussian kernel and the tabulated cosine-transform
        # kernel describe the same hole
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        tab = tabulated_gaussian_hole()
        t = schedule.t_pi2 + 5.0
        a = restored_field_full(t, pulse, schedule, HoleProfile.gaussian(),
                                params)
        b = restored_field_full(t, pulse, schedule, tab, params)
        assert b == pytest.approx(a, rel=1e-3)

    @pytest.mark.parametrize("gamma, tabulated", [
        (0.0, False), (0.05, False), (0.0, True)],
        ids=["gaussian", "gaussian-lossy", "tabulated"])
    def test_factorized_matches_unfactorized(self, gamma, tabulated):
        # y straddles KERNEL_RANGE, where the q-nodes stop moving and the
        # contracted M is built once; the array call visits late, early,
        # late samples so a stale M would show
        params = MediumParams.reduced(25.0, gamma_over_delta0=gamma)
        pulse = PulseSpec(duration=10.0)
        t_pi1 = params.length / (2.0 * slow_light_velocity(params))
        schedule = StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + 10.0)
        prof = tabulated_gaussian_hole() if tabulated else HoleProfile.gaussian()
        y = np.array([40.0, 0.5, 14.1, 7.0, 14.0, 13.9])
        t = schedule.t_pi2 + y
        ref = reference_restored_field_full(t, pulse, schedule, prof, params)
        peak = np.max(np.abs(ref))
        assert peak > 0.0
        arr = restored_field_full(t, pulse, schedule, prof, params)
        scalars = np.array([restored_field_full(ti, pulse, schedule, prof,
                                                params) for ti in t])
        assert np.max(np.abs(arr - ref)) <= 1e-13 * peak
        assert np.max(np.abs(scalars - ref)) <= 1e-13 * peak

    @pytest.mark.parametrize("alpha0_L", [9.0, 100.0])
    def test_retrieval_grid_matches_unfactorized(self, alpha0_L):
        # every 8th sample of the grid a retrieval uses: the late u-node
        # loop skips only factors below e^-U_NODE_REACH
        params = MediumParams.reduced(alpha0_L)
        pulse, schedule = default_schedule(params)
        prof = HoleProfile.gaussian()
        t = retrieval_grid(pulse, schedule, params)[::8]
        ref = reference_restored_field_full(t, pulse, schedule, prof, params)
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
        ref = reference_restored_field_full(t, pulse, schedule, prof, params)
        arr = restored_field_full(t, pulse, schedule, prof, params)
        assert arr.shape == t.shape
        np.testing.assert_allclose(arr, ref, rtol=0.0,
                                   atol=1e-13 * np.nanmax(np.abs(ref)))


class TestAppendixSeries:
    def test_vanishes_at_read_instant(self):
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        for order in (0, 2):
            assert appendix_series_field(schedule.t_pi2, pulse, schedule,
                                         params, order=order) == 0.0

    def test_order_cap(self):
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        with pytest.raises(DomainError):
            appendix_series_field(schedule.t_pi2 + 1.0, pulse, schedule,
                                  params, order=7)

    def test_order_zero_against_independent_quadrature(self):
        # n = 0 truncation is the simple depth-slice field; reproduce it
        # with adaptive quadrature of the same integrand
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        v = slow_light_velocity(params)
        a = params.alpha0 * v / params.delta0
        rho = params.delta0 * params.length / v
        dT = params.delta0 * pulse.duration
        x = params.delta0 * schedule.t_pi1
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
        # with condition delta0 min(t - t_pi2, L/v) << (delta0 T)^2 the
        # N = 2 correction is bounded by that small parameter
        params, pulse, schedule = reduced_setup(4.0, 20.0)
        t = schedule.t_pi2 + 1.0
        n0 = appendix_series_field(t, pulse, schedule, params, order=0)
        n2 = appendix_series_field(t, pulse, schedule, params, order=2)
        v = slow_light_velocity(params)
        bound = min(1.0, params.length / v) / (params.delta0 * pulse.duration) ** 2
        assert abs(n2 - n0) / abs(n0) < bound


class TestRetrieve:
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

    def test_unknown_method(self):
        params, pulse, schedule = reduced_setup(25.0, 10.0)
        with pytest.raises(ConfigurationError):
            retrieve(pulse, schedule, params, method="magic")

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
        # fraction divides by (delta0 T)^2 = 0: never a clean eta = 0
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


def test_import_leaves_sympy_out(fresh_python):
    # the series route differentiates with numpy Taylor jets; sympy must
    # not come back as a runtime dependency
    code = ("import sys, holeburn, holeburn.cli, holeburn.oracle; "
            "sys.exit('sympy' in sys.modules)")
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr
