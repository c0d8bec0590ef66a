"""Spectral-domain propagation and the slowed-Gaussian closed forms."""

import math

import numpy as np
import pytest

from holeburn.errors import ConfigurationError
from holeburn.medium import MediumParams, exact_gaussian_model, second_order_model
from holeburn.propagation import (PulseSpec, SampledEnvelope, auto_grid,
                                  confinement_report, propagate,
                                  stretched_duration, transmitted_gaussian,
                                  undistorted_solution)

SQRT_PI = math.sqrt(math.pi)


class TestSampledEnvelope:
    def test_power_of_two_contract(self):
        with pytest.raises(ConfigurationError):
            SampledEnvelope(t_start=0.0, dt=0.1, samples=np.zeros(100))
        with pytest.raises(ConfigurationError):
            SampledEnvelope(t_start=0.0, dt=-0.1, samples=np.zeros(128))

    def test_energy(self):
        env = SampledEnvelope(t_start=0.0, dt=0.5, samples=np.ones(8))
        assert env.energy() == pytest.approx(4.0)

    def test_peak_time_refinement(self):
        pulse = PulseSpec(duration=2.0)
        t = -20.0 + 0.25 * np.arange(256)
        env = SampledEnvelope(t_start=-20.0, dt=0.25,
                              samples=pulse.amplitude(t - 0.37))
        assert env.peak_time() == pytest.approx(0.37, abs=1e-3)

    def test_peak_time_at_first_sample(self):
        # no neighbour on the left to fit a parabola through
        env = SampledEnvelope(t_start=-3.0, dt=0.5,
                              samples=np.exp(-np.arange(8.0)))
        assert env.peak_time() == -3.0


class TestPulseSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PulseSpec(duration=0.0)


class TestAutoGrid:
    def test_grid_holds_the_input_front(self):
        # a pulse long against the slab delay: the grid starts 3 T or more
        # ahead of the peak, where one starting 2.7 T ahead let a v/c > 0
        # shift wrap the cut front onto the trailing edge
        params = MediumParams.reduced(1.0, v_over_c=0.125)
        env = auto_grid(PulseSpec(duration=9.5), params)
        assert env.t_start <= -3.0 * 9.5
        propagate(env, params.length, exact_gaussian_model(params), params)


class TestPropagate:
    def test_wraparound_refused(self):
        # a field that reaches the trailing grid edge is a configuration
        # error, not a result with a warning: here the input front, 3.2 T
        # ahead of the peak, spreads across the grid's periodic boundary
        params = MediumParams.reduced(0.3)
        env = auto_grid(PulseSpec(duration=8.0), params)
        with pytest.raises(ConfigurationError, match="trailing grid edge"):
            propagate(env, params.length, second_order_model(params), params)

    def test_zero_chi_identity(self):
        params = MediumParams.reduced(100.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        out = propagate(env, params.length, lambda w: np.zeros_like(w), params)
        np.testing.assert_allclose(out.samples, env.samples, atol=1e-12)

    def test_second_order_peak_and_delay(self):
        # opacity 100, delta0 T = 10: peak 10/sqrt(200) at delay L/v
        params = MediumParams.reduced(100.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        out = propagate(env, params.length, second_order_model(params), params)
        peak = float(np.max(np.abs(out.samples)))
        assert peak == pytest.approx(0.70710678118654752, rel=1e-4)
        assert out.peak_time() == pytest.approx(100.0 / SQRT_PI, rel=1e-3)

    def test_exact_vs_second_order_stay_close(self):
        params = MediumParams.reduced(100.0)
        env = auto_grid(PulseSpec(duration=5.0), params)
        exact = propagate(env, params.length, exact_gaussian_model(params), params)
        second = propagate(env, params.length, second_order_model(params), params)
        dev = float(np.max(np.abs(np.abs(exact.samples) - np.abs(second.samples))))
        assert dev < 0.03

    def test_matches_closed_form(self):
        params = MediumParams.reduced(100.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        out = propagate(env, params.length, second_order_model(params), params)
        ref = transmitted_gaussian(params.length, out.times, 10.0, params)
        assert float(np.max(np.abs(np.abs(out.samples) - ref))) < 1e-6

    def test_leakage_precondition(self):
        # deliberately under-resolved grid: dt too coarse for the pulse
        pulse = PulseSpec(duration=0.05)
        t = -12.8 + 0.1 * np.arange(256)
        env = SampledEnvelope(t_start=-12.8, dt=0.1, samples=pulse.amplitude(t))
        params = MediumParams.reduced(10.0)
        with pytest.raises(ConfigurationError):
            propagate(env, params.length, second_order_model(params), params)

    def test_energy_never_grows(self):
        params = MediumParams.reduced(100.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        out = propagate(env, params.length, exact_gaussian_model(params), params)
        assert out.energy() <= env.energy() * (1.0 + 1e-12)

    def test_causality_surrogate(self):
        params = MediumParams.reduced(50.0)
        env = auto_grid(PulseSpec(duration=8.0), params)
        out = propagate(env, params.length, second_order_model(params), params)
        assert out.peak_time() >= env.peak_time()


class TestTransmittedGaussian:
    def test_input_recovered_at_origin(self):
        params = MediumParams.reduced(100.0)
        t = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(
            transmitted_gaussian(0.0, t, 2.0, params),
            np.exp(-t * t / 8.0), rtol=1e-12)

    def test_matched_schedule_peak(self):
        # b = 0.6 schedule at opacity 100: delta0 T = 18.9737, peak 0.88465
        params = MediumParams.reduced(100.0)
        T = 0.6 * 100.0 ** 0.75
        v = 1.0 / (params.inv_c + 1.0 / SQRT_PI)
        peak = transmitted_gaussian(params.length, params.length / v, T, params)
        assert peak == pytest.approx(0.8846517369293828, rel=1e-10)

    def test_stretched_duration(self):
        params = MediumParams.reduced(100.0)
        T = 0.6 * 100.0 ** 0.75
        assert stretched_duration(params.length, T, params) == pytest.approx(
            T * math.sqrt(1.0 + 100.0 / T ** 2), rel=1e-12)


class TestUndistortedSolution:
    def test_pure_delay(self):
        params = MediumParams.reduced(100.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        out = undistorted_solution(env, params.length, params)
        delay = params.length / (1.0 / (params.inv_c + 1.0 / SQRT_PI))
        assert out.peak_time() == pytest.approx(env.peak_time() + delay, rel=1e-6)
        assert out.energy() == pytest.approx(env.energy(), rel=1e-10)

    def test_attenuation_factor(self):
        # alpha0 L gamma/delta0 = 0.1 -> amplitude factor e^{-0.05}
        params = MediumParams.reduced(100.0, gamma_over_delta0=1e-3)
        env = auto_grid(PulseSpec(duration=10.0), params)
        alpha_center = 0.1 / params.length
        out = undistorted_solution(env, params.length, params,
                                   alpha_center=alpha_center)
        # the delay shift is unitary, so the energy carries the exact
        # amplitude factor squared
        ratio = math.sqrt(out.energy() / env.energy())
        assert ratio == pytest.approx(0.95122942450071401, rel=1e-9)

    def test_matches_propagate_with_constant_chi(self):
        params = MediumParams.reduced(100.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        alpha_center = 0.002

        def constant_chi(omega):
            # pure delay slope plus flat absorption, in units alpha0/k
            return (2.0 / SQRT_PI) * omega - 1j * alpha_center

        via_propagate = propagate(env, params.length, constant_chi, params)
        direct = undistorted_solution(env, params.length, params,
                                      alpha_center=alpha_center)
        np.testing.assert_allclose(via_propagate.samples, direct.samples,
                                   atol=1e-12)


class TestConfinementReport:
    def test_short_pulse_numbers(self):
        params = MediumParams.reduced(100.0)
        spectral, temporal = confinement_report(5.0, params)
        assert spectral == pytest.approx(0.5, rel=1e-15)
        assert temporal == pytest.approx(20.0, rel=1e-15)

    def test_matched_schedule_numbers(self):
        # T = 0.6 (a0 L)^(3/4): both margins are (a0 L)^(1/4) up to 0.6
        params = MediumParams.reduced(100.0)
        spectral, temporal = confinement_report(0.6 * 100.0 ** 0.75, params)
        assert spectral == pytest.approx(0.6 * 100.0 ** 0.25, rel=1e-14)
        assert temporal == pytest.approx(100.0 ** 0.25 / 0.6, rel=1e-14)

    def test_low_opacity_flag(self):
        # at a0 L = T = 1 neither confinement condition holds
        params = MediumParams.reduced(1.0)
        assert confinement_report(1.0, params) == (1.0, 1.0)
