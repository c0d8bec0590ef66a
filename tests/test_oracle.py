"""Brute-force time-domain co-integration used to validate the spectral core."""

import math

import numpy as np
import pytest

from holeburn.errors import ConfigurationError, DomainError
from holeburn.medium import (HoleProfile, MediumParams, exact_gaussian_model,
                             slow_light_velocity)
from holeburn.oracle import (PROBE_BLOCK_STEPS, _filon_kernels, adiabatic_uv,
                             coherence_convolution, detuning_grid,
                             time_domain_propagate)
from holeburn.propagation import PulseSpec, SampledEnvelope, auto_grid, propagate

SQRT_PI = math.sqrt(math.pi)


def reference_probe_march(env, z, profile, params, n_atoms, n_steps):
    """The lossless co-integration with the energy probe taken step by step:
    one kernel-matrix dot with the time-reversed field before each z step."""
    dz = z / n_steps
    nodes, weights = detuning_grid(n_atoms)
    gvals = np.asarray(profile(nodes), dtype=float)
    n = env.n
    kernels = _filon_kernels(nodes, params.gamma_ab, env.dt, n)
    combined_f = np.fft.fft(np.einsum("k,k,kj->j", weights, gvals, kernels),
                            2 * n)
    a = env.samples.astype(complex)
    tank = 0.0
    for _ in range(n_steps):
        sigma_star = -0.5j * kernels @ a[::-1]
        tank += (2.0 / np.pi) * dz * float(
            np.sum(weights * gvals * np.abs(sigma_star) ** 2))
        source = np.fft.ifft(np.fft.fft(a, 2 * n) * combined_f)[:n]
        a = a + dz * (-1j / np.pi) * (-0.5j * source)
    return a, tank


def smooth_turn_on_envelope(delta0_T=40.0, n=2048, dt=0.25):
    """Unit-amplitude field with an adiabatic error-function turn-on."""
    t = dt * np.arange(n)
    ramp = 0.5 * (1.0 + np.vectorize(math.erf)((t - 5.0 * delta0_T) / delta0_T))
    return SampledEnvelope(t_start=0.0, dt=dt, samples=ramp)


class TestCoherenceConvolution:
    def test_zero_field(self):
        params = MediumParams.reduced(10.0)
        env = SampledEnvelope(t_start=0.0, dt=0.1, samples=np.zeros(512))
        assert coherence_convolution(2.0, env, 25.0, params) == 0.0

    def test_constant_field_limit(self):
        # A -> A0 long after an adiabatic turn-on, gamma = 0:
        # sigma = +A0/(2 Delta) from the convolution integral.  The
        # trapezoid kernel is accurate to (Delta dt)^2/12, so keep
        # Delta dt small.
        params = MediumParams.reduced(10.0)
        env = smooth_turn_on_envelope(n=8192, dt=0.0625)
        t = env.t_start + 0.95 * env.n * env.dt
        sigma = coherence_convolution(2.0, env, t, params)
        assert sigma == pytest.approx(0.25, rel=1e-2)

    def test_history_window_check(self):
        # pulse energy piled at the first samples -> onset not covered
        params = MediumParams.reduced(10.0)
        samples = np.zeros(512)
        samples[:4] = 1.0
        env = SampledEnvelope(t_start=0.0, dt=0.1, samples=samples)
        with pytest.raises(ConfigurationError):
            coherence_convolution(2.0, env, 20.0, params)

    def test_free_rotation_after_pulse(self):
        # once the field is gone the coherence rotates at e^{i Delta t}
        params = MediumParams.reduced(10.0)
        pulse = PulseSpec(duration=3.0)
        t = 0.05 * np.arange(4096)
        env = SampledEnvelope(t_start=0.0, dt=0.05,
                              samples=pulse.amplitude(t - 20.0))
        delta = 1.7
        t1, t2 = 60.0, 75.0
        s1 = coherence_convolution(delta, env, t1, params)
        s2 = coherence_convolution(delta, env, t2, params)
        assert s2 == pytest.approx(s1 * np.exp(1j * delta * (t2 - t1)),
                                   rel=1e-6)


class TestAdiabaticUV:
    def test_quadrature_vanishes_at_extremum(self):
        u, v = adiabatic_uv(2.0, 1.0, 0.0)
        assert v == 0.0

    def test_component_ratio(self):
        amp, damp = 0.8, 0.06
        u, v = adiabatic_uv(2.5, amp, damp)
        assert v / u == pytest.approx((damp / amp) / 2.5)

    def test_sign_convention(self):
        u, _ = adiabatic_uv(3.0, 1.0, 0.0)
        assert u < 0.0

    def test_on_resonance_rejected(self):
        with pytest.raises(DomainError):
            adiabatic_uv(0.0, 1.0, 0.0)

    def test_matches_convolution_up_to_sign(self):
        # Two-term expansion vs the convolution at Delta T = 20.
        # Integrating the convolution by parts twice gives
        # sigma ~ A/(2 Delta) - i A'/(2 Delta^2) = (-u + i v)/2, i.e.
        # only the in-phase coordinate carries the opposite sign
        # convention.  Residual bound (Delta T)^-2.
        params = MediumParams.reduced(10.0)
        T = 10.0
        pulse, center = PulseSpec(duration=T), 60.0
        t_grid = 0.1 * np.arange(2048)
        env = SampledEnvelope(t_start=0.0, dt=0.1,
                              samples=pulse.amplitude(t_grid - center))
        delta = 2.0  # Delta T = 20
        t = 55.0
        sigma = coherence_convolution(delta, env, t, params)
        amp = float(pulse.amplitude(t - center))
        damp = float(amp * (center - t) / T ** 2)
        u, v = adiabatic_uv(delta, amp, damp)
        assert abs(sigma - (-u + 1j * v) / 2.0) / abs(sigma) < 0.0025

    def test_equator_symmetry_during_pulse(self):
        # u odd, v even in Delta for a real envelope
        params = MediumParams.reduced(10.0)
        pulse = PulseSpec(duration=8.0)
        t_grid = 0.1 * np.arange(2048)
        env = SampledEnvelope(t_start=0.0, dt=0.1,
                              samples=pulse.amplitude(t_grid - 50.0))
        for delta in (0.8, 1.5, 3.0):
            sp = coherence_convolution(delta, env, 48.0, params)
            sm = coherence_convolution(-delta, env, 48.0, params)
            up, vp = 2.0 * sp.real, 2.0 * sp.imag
            um, vm = 2.0 * sm.real, 2.0 * sm.imag
            assert um == pytest.approx(-up, abs=1e-6)
            assert vm == pytest.approx(vp, abs=1e-6)


class TestDetuningGrid:
    def test_symmetry_and_weights(self):
        nodes, weights = detuning_grid(128)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-9)
        assert np.all(weights > 0.0)
        # about half the nodes resolve the hole region
        assert 0.3 < np.mean(np.abs(nodes) < 1.0) < 0.7

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            detuning_grid(4)


class TestTimeDomainPropagate:
    def test_no_atoms_identity(self):
        params = MediumParams.reduced(10.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        empty = lambda delta: np.zeros_like(
            np.asarray(delta, dtype=float))
        out = time_domain_propagate(env, params.length, empty, params,
                                    n_atoms=128)
        np.testing.assert_allclose(out.samples, env.samples, atol=1e-12)

    def test_atom_cap(self):
        params = MediumParams.reduced(10.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        with pytest.raises(ConfigurationError):
            time_domain_propagate(env, params.length, HoleProfile.gaussian(),
                                  params, n_atoms=1024)

    def test_cfl_guard(self):
        params = MediumParams.reduced(10.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        with pytest.raises(ConfigurationError, match="z step"):
            time_domain_propagate(env, params.length, HoleProfile.gaussian(),
                                  params, n_atoms=128, n_steps=10)

    def test_recurrence_guard(self):
        # tan-spaced classes rephase after 2 pi / min(diff(nodes)), about
        # 2 n_atoms: 128 classes (~256) on the 410-long window of v/c = 0.6
        # gave an L2 error of 0.17 with no error, 256 classes 1.35e-3
        params = MediumParams.reduced(25.0, v_over_c=0.6)
        env = auto_grid(PulseSpec(duration=10.0), params)
        assert 256 < env.n * env.dt < 512
        with pytest.raises(ConfigurationError, match="recurrence"):
            time_domain_propagate(env, 0.05, HoleProfile.gaussian(), params,
                                  n_atoms=128)
        time_domain_propagate(env, 0.05, HoleProfile.gaussian(), params,
                              n_atoms=256)

    def test_group_delay(self):
        params = MediumParams.reduced(10.0)
        env = auto_grid(PulseSpec(duration=10.0), params)
        out = time_domain_propagate(env, params.length,
                                    HoleProfile.gaussian(), params,
                                    n_atoms=256)
        delay = out.peak_time() - env.peak_time()
        assert delay == pytest.approx(10.0 / SQRT_PI, rel=0.05)

    # v/c > 0: a march that shifted the field by dz/c at every step was
    # unstable below 512 classes (L2 error 2.4 at v/c = 0.3, 1e11 at 0.6)
    V_OVER_C = (0.0, 0.3, 0.6)

    def test_energy_tank_identity(self):
        # field-energy deficit matches the summed coherence growth to 5%,
        # the probe taken in retarded time
        for v_over_c in self.V_OVER_C:
            params = MediumParams.reduced(10.0, v_over_c=v_over_c)
            env = auto_grid(PulseSpec(duration=10.0), params)
            out, diag = time_domain_propagate(env, params.length,
                                              HoleProfile.gaussian(), params,
                                              n_atoms=256, energy_probe=True)
            deficit = diag.energy_in - diag.energy_out
            assert diag.tank_energy == pytest.approx(deficit, rel=0.05), \
                v_over_c

    def test_matches_spectral_propagator(self):
        for v_over_c in self.V_OVER_C:
            params = MediumParams.reduced(10.0, v_over_c=v_over_c)
            env = auto_grid(PulseSpec(duration=10.0), params)
            ref = propagate(env, params.length, exact_gaussian_model(params),
                            params)
            out = time_domain_propagate(env, params.length,
                                        HoleProfile.gaussian(), params,
                                        n_atoms=256, n_steps=200)
            err = math.sqrt(float(np.sum(np.abs(out.samples - ref.samples)
                                         ** 2) * env.dt) / ref.energy())
            assert err < 0.01, (v_over_c, err)

    @pytest.mark.parametrize("n_steps", [10, PROBE_BLOCK_STEPS,
                                         2 * PROBE_BLOCK_STEPS + 16])
    def test_energy_probe_matches_per_step_reference(self, n_steps):
        # history blocks of PROBE_BLOCK_STEPS = 32 steps: 10 steps fit one
        # block, 32 fill it exactly, 80 take two full blocks and a partial
        # one.  64 classes recur after ~128, beyond the 102-long window.
        params = MediumParams.reduced(2.0, gamma_over_delta0=0.05)
        env = auto_grid(PulseSpec(duration=5.0), params)
        prof = HoleProfile.gaussian()
        z = 0.5  # within the Euler step limit at 10 steps
        ref_a, ref_tank = reference_probe_march(env, z, prof, params, 64,
                                                n_steps)
        out, diag = time_domain_propagate(env, z, prof, params,
                                          n_atoms=64, n_steps=n_steps,
                                          energy_probe=True)
        assert diag.tank_energy == pytest.approx(ref_tank, rel=1e-13)
        peak = np.max(np.abs(ref_a))
        assert np.max(np.abs(out.samples - ref_a)) <= 1e-13 * peak
