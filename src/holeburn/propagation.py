"""Spectral-domain envelope propagation and the Gaussian closed forms.

The envelope is advanced through the slab in the frequency domain:

    A(z, Omega) = A(0, Omega) * exp[-i Omega z / c - (i/2) z chi_hat(Omega)]

with chi_hat from any of the three medium models, the depth z an optical
depth (see ``medium``) and t = 0 the input peak.  Sign conventions
follow the forward transform integral A(t) exp(-i Omega t) dt, so the
positive real slope of the second-order susceptibility produces a positive
group delay.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .medium import MediumParams, slow_light_velocity
from .special import SQRT_PI

# Largest grid auto_grid builds.  Every preset, test and benchmark
# workload fits in 2^14 samples (panels-light at alpha0 L = 340); 2^20
# leaves a factor of 64 and keeps one complex grid at 16 MB.
MAX_GRID_SAMPLES = 1 << 20


@dataclass(frozen=True)
class SampledEnvelope:
    """Complex slowly varying envelope on a uniform time grid.

    The sample count must be a power of two (transform efficiency contract).
    """

    t_start: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        n = s.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigurationError(f"sample count {n} is not a power of two")
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n)

    @property
    def omega(self) -> np.ndarray:
        """Angular-frequency grid conjugate to the time grid (fft order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dt)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt)

    def with_samples(self, samples) -> "SampledEnvelope":
        return replace(self, samples=np.asarray(samples, dtype=complex))

    def peak_time(self) -> float:
        """Time of maximum |A|, refined by a parabolic fit around the peak."""
        mag = np.abs(self.samples)
        i = int(np.argmax(mag))
        if 0 < i < self.n - 1:
            y0, y1, y2 = mag[i - 1], mag[i], mag[i + 1]
            denom = y0 - 2.0 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
            return self.t_start + (i + shift) * self.dt
        return self.t_start + i * self.dt


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian input pulse of unit peak, A(0, t) = exp(-t^2 / (2 T^2)).

    The model is linear and time-invariant, so a peak would only scale
    every field and a centre only shift it; efficiencies depend on neither.
    """

    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ConfigurationError(
                f"pulse duration must be positive, got {self.duration!r}")

    def amplitude(self, t):
        arg = np.asarray(t, dtype=float) / self.duration
        return np.exp(-0.5 * arg * arg)


def auto_grid(pulse: PulseSpec, params: MediumParams) -> SampledEnvelope:
    """Sample a pulse on a grid sized so delayed replicas never wrap.

    Window = max(12 T, 4 L/v + 8 T) for the slab length L, the input peak
    a quarter of the way in, so the grid starts 3 T or more ahead of it.
    dt resolves the hole at ten samples per unit time 1/delta0 (and T at
    eight), and the grid holds at least 1024 samples.  Raises a
    configuration error, before allocating, when the grid would exceed
    MAX_GRID_SAMPLES.
    """
    delay = params.length / slow_light_velocity(params)
    window = max(12.0 * pulse.duration, 4.0 * delay + 8.0 * pulse.duration)
    dt = min(0.1, pulse.duration / 8.0)
    # a subnormal duration overflows window / dt to inf, or underflows dt
    # to 0 and divides by it: over the budget either way
    with np.errstate(over="ignore", divide="ignore"):
        samples = max(window / dt, 1024)
    if not samples <= MAX_GRID_SAMPLES:
        raise ConfigurationError(
            f"grid of {samples:.3g} samples exceeds the budget of "
            f"{MAX_GRID_SAMPLES} (window {window:.3g}, dt {dt:.3g})")
    n = 1 << int(np.ceil(np.log2(samples)))
    t_start = -0.25 * n * dt
    t = t_start + dt * np.arange(n)
    return SampledEnvelope(t_start=t_start, dt=dt, samples=pulse.amplitude(t))


def propagate(env: SampledEnvelope, z, chi_model, params: MediumParams,
              leakage_tol=1e-6) -> SampledEnvelope:
    """Advance an envelope an optical depth z through the medium.

    ``chi_model`` maps an angular-frequency array to chi_hat (units
    alpha0/k).  Raises ConfigurationError when spectral energy beyond half
    the Nyquist frequency exceeds ``leakage_tol`` of the total, and when
    the output's last n/128 samples hold more than 1e-8 of its energy (the
    field has wrapped around the grid).
    """
    spec = np.fft.fft(env.samples)
    omega = env.omega
    power = np.abs(spec) ** 2
    nyq = np.pi / env.dt
    leak = float(power[np.abs(omega) > 0.5 * nyq].sum() / power.sum())
    if leak > leakage_tol:
        raise ConfigurationError(
            f"grid does not resolve the envelope spectrum: leakage fraction {leak:.3e}")

    chi = np.asarray(chi_model(omega), dtype=complex)
    # A passive medium can only absorb; discard any positive-imaginary noise.
    chi = chi.real + 1j * np.minimum(chi.imag, 0.0)
    transfer = np.exp(-1j * omega * z * params.inv_c - 0.5j * z * chi)
    out = env.with_samples(np.fft.ifft(spec * transfer))

    tail = float(np.sum(np.abs(out.samples[-max(2, out.n // 128):]) ** 2) * out.dt)
    if out.energy() > 0 and tail / out.energy() > 1e-8:
        raise ConfigurationError(
            "output envelope reaches the trailing grid edge (tail fraction "
            f"{tail / out.energy():.2e}): the grid does not hold the pulse")
    return out


def transmitted_gaussian(z, t, T, params: MediumParams):
    """Closed-form slowed Gaussian after depth z (second-order regime).

    A(z, t) = [T / sqrt(T^2 + z)] * exp[- (t - z/v)^2 / (2 (T^2 + z))]
    """
    v = slow_light_velocity(params)
    width2 = T * T + z
    arg = np.asarray(t, dtype=float) - z / v
    return T / np.sqrt(width2) * np.exp(-0.5 * arg * arg / width2)


def stretched_duration(z, T, params: MediumParams) -> float:
    """Elongated pulse width T_s = T sqrt(1 + z / T^2)."""
    return T * np.sqrt(1.0 + z / T ** 2)


def undistorted_solution(env: SampledEnvelope, z, params: MediumParams,
                         alpha_center=0.0) -> SampledEnvelope:
    """Distortionless transport A(z,t) = A(0, t - z/v) exp(-alpha(omega0) z / 2).

    ``alpha_center`` is the flat absorption coefficient the caller declares
    valid across the pulse spectrum (e.g. from absorption_coefficient at
    Omega = 0).
    """
    v = slow_light_velocity(params)
    spec = np.fft.fft(env.samples)
    shift = np.exp(-1j * env.omega * z / v)
    out = np.fft.ifft(spec * shift) * np.exp(-0.5 * alpha_center * z)
    return env.with_samples(out)


def confinement_report(T, params: MediumParams):
    """Margins (T / sqrt(L), L / T) of the double confinement sqrt(L) << T << L.

    The spectral margin is above 1 when the pulse spectrum fits inside the
    hole, the temporal margin when the pulse fits inside the slab.  The one
    definition of the two margins, which ``storage.retrieve`` reports as
    validity indicators and warns on below 1.
    """
    return T / math.sqrt(params.length), params.length / T
