"""Spectral-domain envelope propagation and the Gaussian closed forms.

The envelope is advanced through the slab in the frequency domain:

    A(z, Omega) = A(0, Omega) * exp[-i Omega z / c - (i/2) alpha0 z chi_hat(Omega)]

with chi_hat supplied by any of the three medium models.  Sign conventions
follow the forward transform integral A(t) exp(-i Omega t) dt, so the
positive real slope of the second-order susceptibility produces a positive
group delay.
"""

import warnings
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

    def save_csv(self, path):
        data = np.column_stack([self.times, self.samples.real, self.samples.imag])
        np.savetxt(path, data, delimiter=", ", header=" t, re, im", fmt="%.12e")

    @classmethod
    def load_csv(cls, path) -> "SampledEnvelope":
        data = np.loadtxt(path, delimiter=",", comments="#")
        t = data[:, 0]
        return cls(t_start=float(t[0]), dt=float(t[1] - t[0]),
                   samples=data[:, 1] + 1j * data[:, 2])


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian input pulse A(0, t) = peak * exp(-(t - center)^2 / (2 T^2))."""

    duration: float
    peak: float = 1.0
    center_time: float = 0.0
    shape: str = "gaussian"

    def __post_init__(self):
        if self.shape != "gaussian":
            raise ConfigurationError(f"unsupported pulse shape {self.shape!r}")
        if not self.duration > 0:
            raise ConfigurationError("pulse duration must be positive")

    def fits_hole(self, params: MediumParams) -> bool:
        """Spectral width 1/T must sit inside the hole width."""
        return 1.0 / self.duration < params.delta0

    def amplitude(self, t):
        arg = (np.asarray(t, dtype=float) - self.center_time) / self.duration
        return self.peak * np.exp(-0.5 * arg * arg)


def auto_grid(pulse: PulseSpec, params: MediumParams, z=None,
              max_spectral_feature=None, min_samples=1024) -> SampledEnvelope:
    """Sample a pulse on a grid sized so delayed replicas never wrap.

    Window = max(8 T, 4 L/v + 8 T); dt resolves the largest spectral
    feature (default: the hole width) at ten samples per 1/feature.
    Raises a configuration error, before allocating, when the grid would
    exceed MAX_GRID_SAMPLES.
    """
    z = params.length if z is None else z
    delay = z / slow_light_velocity(params)
    window = max(8.0 * pulse.duration, 4.0 * delay + 8.0 * pulse.duration)
    feature = max_spectral_feature or params.delta0
    dt = min(0.1 / feature, pulse.duration / 8.0)
    samples = max(window / dt, min_samples)
    if not samples <= MAX_GRID_SAMPLES:
        raise ConfigurationError(
            f"grid of {samples:.3g} samples exceeds the budget of "
            f"{MAX_GRID_SAMPLES} (window {window:.3g}, dt {dt:.3g})")
    n = 1 << int(np.ceil(np.log2(samples)))
    t_start = pulse.center_time - 0.25 * n * dt
    t = t_start + dt * np.arange(n)
    return SampledEnvelope(t_start=t_start, dt=dt, samples=pulse.amplitude(t))


def propagate(env: SampledEnvelope, z, chi_model, params: MediumParams,
              leakage_tol=1e-6) -> SampledEnvelope:
    """Advance an envelope a distance z through the medium.

    ``chi_model`` maps an angular-frequency array to chi_hat (units
    alpha0/k).  Raises ConfigurationError when spectral energy beyond half
    the Nyquist frequency exceeds ``leakage_tol`` of the total.
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
    transfer = np.exp(-1j * omega * z * params.inv_c
                      - 0.5j * params.alpha0 * z * chi)
    out = env.with_samples(np.fft.ifft(spec * transfer))

    tail = float(np.sum(np.abs(out.samples[-max(2, out.n // 128):]) ** 2) * out.dt)
    if out.energy() > 0 and tail / out.energy() > 1e-8:
        warnings.warn("output envelope reaches the trailing grid edge; "
                      "possible wraparound", RuntimeWarning)
    return out


def transmitted_gaussian(z, t, T, params: MediumParams, center_time=0.0):
    """Closed-form slowed Gaussian after distance z (second-order regime).

    A(z, t) = [d0 T / sqrt(d0^2 T^2 + alpha0 z)]
              * exp[- d0^2 (t - z/v)^2 / (2 (d0^2 T^2 + alpha0 z))]
    """
    d0 = params.delta0
    v = slow_light_velocity(params)
    width2 = d0 * d0 * T * T + params.alpha0 * z
    arg = d0 * (np.asarray(t, dtype=float) - center_time - z / v)
    return d0 * T / np.sqrt(width2) * np.exp(-0.5 * arg * arg / width2)


def stretched_duration(z, T, params: MediumParams) -> float:
    """Elongated pulse width T_s = T sqrt(1 + alpha0 z / (d0 T)^2)."""
    return T * np.sqrt(1.0 + params.alpha0 * z / (params.delta0 * T) ** 2)


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


@dataclass(frozen=True)
class ConfinementReport:
    """Diagnostics of pulse confinement inside the slab."""

    group_delay: float
    delay_over_duration: float
    spectral_margin: float   # d0 T / sqrt(alpha0 L): pulse spectrum inside hole
    temporal_margin: float   # alpha0 L / (d0 T): pulse inside slab
    opacity_ok: bool         # sqrt(alpha0 L) >= threshold


def confinement_report(T, params: MediumParams, threshold=3.0) -> ConfinementReport:
    """Evaluate the double confinement condition sqrt(a0 L) << d0 T << a0 L."""
    delay = params.length / slow_light_velocity(params)
    d0T = params.delta0 * T
    rootod = np.sqrt(params.opacity)
    return ConfinementReport(
        group_delay=delay,
        delay_over_duration=delay / T,
        spectral_margin=d0T / rootod,
        temporal_margin=params.opacity / d0T,
        opacity_ok=bool(rootod >= threshold),
    )
