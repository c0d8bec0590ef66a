"""Brute-force time-domain co-integration of field and atomic coherences.

This module is the independent check on the spectral propagator: the
envelope and the off-diagonal coherence of every detuning class are
marched together through the slab with no susceptibility in sight.  The
coherence is the causal convolution

    sigma(Delta; z, t) = -(i/2) * integral_0^inf A(z, t - tau)
                          e^{(i Delta - gamma_ab) tau} dtau

(normalized units, dipole moment folded into the field), and the envelope
obeys

    dA/dz = -(1/c) dA/dt - i (alpha0 / pi) * integral dDelta g(Delta) sigma.

Small instances only; the production path is propagation.propagate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .medium import MediumParams, _profile_g
from .propagation import SampledEnvelope

# Euler step limit: absorption change per z step must stay small.
MAX_STEP_OPACITY = 0.05


@dataclass(frozen=True)
class AtomState:
    """Bloch-equator coordinates of one detuning class.

    sigma_ab = (u + i v) / 2 by construction.
    """

    detuning: float
    u: float
    v: float

    @property
    def sigma(self) -> complex:
        return 0.5 * complex(self.u, self.v)

    @classmethod
    def from_sigma(cls, detuning, sigma) -> "AtomState":
        return cls(detuning=detuning, u=2.0 * sigma.real, v=2.0 * sigma.imag)


def coherence_convolution(delta, env: SampledEnvelope, t, params: MediumParams,
                          onset_tol=1e-6):
    """Coherence of the ``delta`` class at time ``t`` from the field history.

    Trapezoidal sum over the grid of ``env`` back to its first sample; the
    envelope must have effectively turned on inside the window, otherwise
    the discarded tail is not negligible and a configuration error is
    raised.
    """
    total = env.energy()
    head = float(np.sum(np.abs(env.samples[: max(2, env.n // 128)]) ** 2) * env.dt)
    if total > 0 and head / total > onset_tol:
        raise ConfigurationError(
            "envelope history window too short: the pulse onset lies before "
            f"the first sample (leading energy fraction {head / total:.2e})")
    t = float(t)
    n_tau = int(np.floor((t - env.t_start) / env.dt))
    if n_tau < 1:
        return 0.0 + 0.0j
    n_tau = min(n_tau, env.n - 1)
    tau = env.dt * np.arange(n_tau + 1)
    hist_t = t - tau
    re = np.interp(hist_t, env.times, env.samples.real, left=0.0, right=0.0)
    im = np.interp(hist_t, env.times, env.samples.imag, left=0.0, right=0.0)
    kernel = np.exp((1j * delta - params.gamma_ab) * tau)
    weights = np.full(n_tau + 1, env.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return -0.5j * np.sum((re + 1j * im) * kernel * weights)


def adiabatic_uv(delta, amplitude, time_derivative):
    """First-order adiabatic-following coordinates u = -A/Delta, v = -A'/Delta^2.

    The in-phase coordinate u follows the opposite sign convention from
    :func:`coherence_convolution`: in the slowly varying limit the
    convolution integral equals ``(-u + 1j * v) / 2``.
    """
    if delta == 0.0:
        raise DomainError("adiabatic following is undefined on resonance")
    return -amplitude / delta, -time_derivative / delta ** 2


def detuning_grid(n_atoms, params: MediumParams, span=4000.0):
    """Detuning nodes and weights, clustered where the hole edge dominates.

    Nodes Delta = delta0 tan(theta) with theta uniform put about half of
    them inside |Delta| < delta0 while the weights delta0 sec^2(theta)
    dtheta keep the flat far wings integrable out to span * delta0.  The
    far wings contribute to the dispersion slope as 1/span, so the span
    must stay large even though the hole structure ends at a few delta0.
    """
    if n_atoms < 8:
        raise ConfigurationError("need at least 8 detuning classes")
    theta_max = np.arctan(span)
    dtheta = 2.0 * theta_max / n_atoms
    theta = -theta_max + dtheta * (np.arange(n_atoms) + 0.5)
    nodes = params.delta0 * np.tan(theta)
    weights = params.delta0 * dtheta / np.cos(theta) ** 2
    return nodes, weights


def _filon_weights(x):
    """Per-node quadrature weights for integral_0^1 f(u) e^{i x u} du.

    alpha weights the left node, beta the right one, with f piecewise
    linear; exact for arbitrarily fast oscillation, so far-detuned kernels
    are integrated correctly even when x = Delta dt >> 1.
    """
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    ex = np.exp(1j * xs)
    beta = (ex * (1j * xs - 1.0) + 1.0) / (1j * xs) ** 2
    alpha = (ex - 1.0) / (1j * xs) - beta
    alpha = np.where(small, 0.5 + 1j * x / 6.0 - x * x / 24.0, alpha)
    beta = np.where(small, 0.5 + 1j * x / 3.0 - x * x / 8.0, beta)
    return alpha, beta


def _filon_kernels(nodes, gamma, dt, n):
    """Discrete convolution kernels K_k(tau_j), one row per detuning class.

    Each row realizes integral_0^inf A(t - tau) e^{(i Delta - gamma) tau}
    dtau for a piecewise-linear A: node j collects the left weight of
    interval j and the right weight of interval j-1.
    """
    x = (nodes + 1j * gamma) * dt
    alpha, beta = _filon_weights(x)
    tau = dt * np.arange(n)
    # one (classes x n) array, built in place: the phase, then the node
    # weights, multiplied from the left (numpy's complex product is not
    # bitwise symmetric in its operands)
    kernels = np.multiply.outer(1j * nodes - gamma, tau)
    np.exp(kernels, out=kernels)
    np.multiply(dt * alpha, kernels[:, 0], out=kernels[:, 0])
    np.multiply((dt * (alpha + beta * np.exp(-1j * x)))[:, None],
                kernels[:, 1:], out=kernels[:, 1:])
    return kernels


@dataclass(frozen=True)
class TransitDiagnostics:
    """Energy bookkeeping of one co-integration run.

    ``tank_energy`` is the coherence sum (2 alpha0 / pi) integral dz
    integral dDelta g |sigma|^2 evaluated at the final grid time; for a
    lossless transit it matches the field-energy deficit.
    """

    energy_in: float
    energy_out: float
    tank_energy: float


def time_domain_propagate(env: SampledEnvelope, z, profile, params: MediumParams,
                          n_atoms=256, n_steps=None, energy_probe=False):
    """March the envelope through depth z with explicit atomic coherences.

    First-order (Euler) in z; the per-step coherence is the exact discrete
    convolution of the current envelope with each class's free-evolution
    kernel, evaluated with one FFT per step by summing the kernels over
    the detuning grid first.  Raises a configuration error when the z step
    violates dz * alpha0 <= MAX_STEP_OPACITY.

    With ``energy_probe`` the time-reversed field entering every step is
    kept (in blocks of at most ``n_atoms`` steps, so the extra memory never
    exceeds the kernel matrix) and contracted with all class kernels in one
    matrix product per block; the per-step coherence energies at the final
    grid time are summed into ``tank_energy`` in step order.
    """
    if n_atoms > 512:
        raise ConfigurationError("oracle instances are capped at 512 detunings")
    g = _profile_g(profile)
    z = float(z)
    if n_steps is None:
        n_steps = max(1, int(np.ceil(z * params.alpha0 / MAX_STEP_OPACITY)))
    dz = z / n_steps
    if dz * params.alpha0 > MAX_STEP_OPACITY + 1e-12:
        raise ConfigurationError(
            f"z step too coarse: dz * alpha0 = {dz * params.alpha0:.3f} "
            f"> {MAX_STEP_OPACITY}")

    nodes, weights = detuning_grid(n_atoms, params)
    gvals = np.asarray(g(nodes, params.delta0), dtype=float)

    n = env.n
    tau = env.dt * np.arange(n)
    kernels = _filon_kernels(nodes, params.gamma_ab, env.dt, n)
    combined = np.einsum("k,k,kj->j", weights, gvals, kernels)
    combined_f = np.fft.fft(combined, 2 * n)

    shift = None
    if params.inv_c > 0:
        omega = 2.0 * np.pi * np.fft.fftfreq(n, d=env.dt)
        shift = np.exp(-1j * omega * dz * params.inv_c)

    a = env.samples.astype(complex)
    energy_in = env.energy()
    tank = 0.0
    if energy_probe:
        # time-reversed field entering each step, kept for at most n_atoms
        # steps; its dot product with a class's kernel is that class's
        # coherence at the final grid time t*, one matrix product per block
        history = np.empty((min(n_steps, n_atoms), n), dtype=complex)
        class_weights = weights * gvals
        tank_scale = (2.0 * params.alpha0 / np.pi) * dz
    for step in range(n_steps):
        if energy_probe:
            row = step % len(history)
            history[row] = a[::-1]
            if row == len(history) - 1 or step == n_steps - 1:
                for sigma_star in -0.5j * (history[:row + 1] @ kernels.T):
                    tank += tank_scale * float(
                        np.sum(class_weights * np.abs(sigma_star) ** 2))
        source = np.fft.ifft(np.fft.fft(a, 2 * n) * combined_f)[:n]
        sigma_sum = -0.5j * source
        a = a + dz * (-1j * params.alpha0 / np.pi) * sigma_sum
        if shift is not None:
            a = np.fft.ifft(np.fft.fft(a) * shift)
    out = env.with_samples(a)
    if energy_probe:
        return out, TransitDiagnostics(energy_in=energy_in,
                                       energy_out=out.energy(),
                                       tank_energy=tank)
    return out
