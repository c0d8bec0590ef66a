"""Medium description and linear-susceptibility models.

The absorber is an inhomogeneously broadened line with a spectral hole of
width ``delta0`` around the carrier.  Three susceptibility models are
provided, all returning the dimensionless value chi_hat such that
chi = (alpha0 / k) * chi_hat:

* ``chi_exact_gaussian``  -- closed form for the Gaussian hole
  (Dawson-integral dispersion, valid for gamma_ab << delta0)
* ``chi_quadrature``      -- adaptive quadrature for any hole profile and
  any homogeneous width: one frequency per call, with plain-float real and
  imaginary integrands (the imaginary one skipped at gamma_ab = 0)
* ``chi_second_order``    -- second-order expansion around the hole center

plus the absorption-coefficient and inverse-group-velocity integrals.

Internally everything is expressed in reduced units: frequencies in delta0,
lengths in 1/alpha0, so scenarios are fully specified by the dimensionless
groups (alpha0 L, delta0 T, gamma_ab/delta0, v/c).

``scipy.integrate`` and ``scipy.interpolate`` are imported on first use:
the first by ``_quad``, the one adaptive-quadrature helper (here and in
``storage.kappa_quadrature``), the second by a tabulated ``HoleProfile``.
The Gaussian-hole paths load neither.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericsError, PreconditionError
from .special import SQRT_PI, dawson, erfcx

_QUAD_LIMIT = 300


@dataclass(frozen=True)
class MediumParams:
    """Physical constants of the absorbing slab.

    alpha0   : background absorption outside the hole (inverse length)
    gamma_ab : homogeneous half-width (angular frequency)
    delta0   : hole width (angular frequency)
    length   : slab length
    inv_c    : 1/c; the default 0 selects the infinite-c limit used by the
               reference figures
    """

    alpha0: float
    gamma_ab: float
    delta0: float
    length: float
    inv_c: float = 0.0

    def __post_init__(self):
        if not (self.alpha0 > 0 and self.delta0 > 0 and self.length > 0):
            raise ValueError("alpha0, delta0 and length must be strictly positive")
        if self.gamma_ab < 0 or self.inv_c < 0:
            raise ValueError("gamma_ab and inv_c must be non-negative")

    @property
    def narrow_homogeneous(self) -> bool:
        """True when gamma_ab << delta0 (threshold 1%)."""
        return self.gamma_ab < 0.01 * self.delta0

    @property
    def opacity(self) -> float:
        return self.alpha0 * self.length

    @classmethod
    def reduced(cls, alpha0_L, gamma_over_delta0=0.0, v_over_c=0.0):
        """Build params in reduced units (alpha0 = delta0 = 1).

        ``v_over_c`` fixes 1/c from the Gaussian-hole slow-light velocity
        1/v = 1/c + alpha0/(sqrt(pi) delta0).
        """
        if not 0.0 <= v_over_c < 1.0:
            raise ValueError("v_over_c must lie in [0, 1)")
        inv_c = v_over_c / (1.0 - v_over_c) / SQRT_PI
        return cls(alpha0=1.0, gamma_ab=gamma_over_delta0, delta0=1.0,
                   length=float(alpha0_L), inv_c=inv_c)


def slow_light_velocity(params: MediumParams) -> float:
    """Gaussian-hole group velocity in the narrow-line limit.

    1/v = 1/c + alpha0 / (sqrt(pi) delta0); the general quadrature lives in
    :func:`inverse_group_velocity`.
    """
    return 1.0 / (params.inv_c + params.alpha0 / (SQRT_PI * params.delta0))


@dataclass(frozen=True)
class HoleProfile:
    """Normalized inhomogeneous distribution g(Delta) in [0, 1].

    ``gaussian`` means g = 1 - exp(-Delta^2/delta0^2) exactly (unit hole
    width; callers scale detunings by their delta0).  ``tabulated`` holds
    samples interpolated by a cubic spline, with g == 1 assumed beyond the
    sampled range.  ``uniform`` is the no-hole background g == 1 used for
    flat-line limits.
    """

    kind: str = "gaussian"
    detuning_samples: np.ndarray | None = field(default=None, repr=False)
    g_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("gaussian", "tabulated", "uniform"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "tabulated":
            d = np.asarray(self.detuning_samples, dtype=float)
            g = np.asarray(self.g_values, dtype=float)
            if d.ndim != 1 or d.shape != g.shape or d.size < 4:
                raise ValueError("tabulated profile needs matching 1-d arrays, >= 4 points")
            if np.any(np.diff(d) <= 0):
                raise ValueError("detuning samples must be strictly increasing")
            if np.any(g < -1e-12) or np.any(g > 1.0 + 1e-12):
                raise ValueError("g values must lie in [0, 1]")
            object.__setattr__(self, "detuning_samples", d)
            object.__setattr__(self, "g_values", np.clip(g, 0.0, 1.0))
            from scipy.interpolate import CubicSpline

            spline = CubicSpline(d, self.g_values, bc_type="natural")
            object.__setattr__(self, "_spline", spline)
            if d[0] < 0.0 < d[-1] and abs(float(spline(0.0))) > 1e-6:
                raise ValueError("hole profile must satisfy g(0) = 0")

    @classmethod
    def gaussian(cls):
        return cls(kind="gaussian")

    @classmethod
    def uniform(cls):
        return cls(kind="uniform")

    @classmethod
    def tabulated(cls, detunings, g_values):
        return cls(kind="tabulated", detuning_samples=detunings, g_values=g_values)

    @classmethod
    def from_file(cls, path):
        """Read a two-column text table ``# delta_over_delta0, g``."""
        data = np.loadtxt(path, delimiter=",", comments="#")
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigurationError(f"{path}: expected two columns (delta_over_delta0, g)")
        return cls.tabulated(data[:, 0], data[:, 1])

    def __call__(self, delta, delta0=1.0):
        """g at physical detuning ``delta`` for hole width ``delta0``."""
        x = np.asarray(delta, dtype=float) / delta0
        if self.kind == "gaussian":
            out = 1.0 - np.exp(-x * x)
        elif self.kind == "uniform":
            out = np.ones_like(x)
        else:
            out = np.clip(self._spline(x), 0.0, 1.0)
            out = np.where((x < self.detuning_samples[0]) | (x > self.detuning_samples[-1]),
                           1.0, out)
        return out if out.ndim else float(out)

    def deficit(self, delta, delta0=1.0):
        """1 - g, the hole deficit; decays to zero away from the hole."""
        return 1.0 - self(delta, delta0)

    def second_derivative(self, delta, delta0=1.0):
        """d^2 g / d Delta^2 at physical detuning (spline for tabulated)."""
        x = np.asarray(delta, dtype=float) / delta0
        if self.kind == "gaussian":
            out = (2.0 - 4.0 * x * x) * np.exp(-x * x) / delta0**2
        elif self.kind == "uniform":
            out = np.zeros_like(x)
        else:
            out = self._spline(x, 2) / delta0**2
            out = np.where((x < self.detuning_samples[0]) | (x > self.detuning_samples[-1]),
                           0.0, out)
        return out if out.ndim else float(out)

    def sample_range(self, delta0=1.0):
        if self.kind == "tabulated":
            return self.detuning_samples[0] * delta0, self.detuning_samples[-1] * delta0
        return -8.0 * delta0, 8.0 * delta0


def _profile_g(profile):
    """``None`` selects the Gaussian hole; anything else passes through.

    The susceptibility, absorption and group-velocity routines read
    ``kind``, ``deficit`` and ``second_derivative`` and so need a
    :class:`HoleProfile`; only the time-domain oracle and the storage
    detuning kernel also accept a bare callable g(delta, delta0).
    """
    if profile is None:
        return HoleProfile.gaussian()
    return profile


def _scalar_deficit(profile: HoleProfile, d0):
    """Plain-float 1 - g(u) for the quadrature integrands."""
    if profile.kind == "gaussian":
        return lambda u: math.exp(-(u / d0) ** 2)
    return lambda u: float(profile.deficit(u, d0))


def _quad(func, a, b, epsabs, epsrel, points=None):
    """Adaptive ``scipy.integrate.quad`` of a real integrand: (value, error).

    The one adaptive-quadrature entry point; ``scipy.integrate`` (and the
    ``scipy.optimize`` it pulls in) is imported on the first call, so a run
    that never integrates adaptively never loads it.  ``IntegrationWarning``
    is silenced: every caller checks the returned error estimate instead.
    """
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(func, a, b, points=points, limit=_QUAD_LIMIT,
                              epsabs=epsabs, epsrel=epsrel)


def chi_exact_gaussian(omega_offset, params: MediumParams):
    """Closed-form Gaussian-hole susceptibility (units alpha0/k).

    chi_hat(Omega) = -i (1 - exp(-Omega^2/delta0^2)) + (2/sqrt(pi)) F(Omega/delta0)
    Requires the narrow-homogeneous regime gamma_ab << delta0.
    """
    if not params.narrow_homogeneous:
        raise PreconditionError(
            "chi_exact_gaussian assumes gamma_ab << delta0 "
            f"(gamma_ab/delta0 = {params.gamma_ab / params.delta0:.3g})")
    x = np.asarray(omega_offset, dtype=float) / params.delta0
    with np.errstate(over="ignore"):  # x^2 = inf far out: exp(-x^2) = 0
        out = (2.0 / SQRT_PI) * dawson(x) - 1j * (1.0 - np.exp(-x * x))
    return out if np.ndim(omega_offset) else complex(out)


def chi_second_order(omega_offset, params: MediumParams):
    """Second-order expansion of the hole-center susceptibility (units alpha0/k)."""
    x = np.asarray(omega_offset, dtype=float) / params.delta0
    out = (2.0 / SQRT_PI) * x - 1j * x * x
    return out if np.ndim(omega_offset) else complex(out)


def chi_quadrature(omega_offset, profile, params: MediumParams, tol=1e-11):
    """Susceptibility chi_hat = (1/pi) * integral dDelta g(Delta+Omega)/(Delta + i gamma).

    The flat background is taken analytically (-i); only the hole deficit
    1 - g is integrated, with the near-resonant structure regularized by
    subtracting a Gaussian that carries the exactly-known principal value:

        integral exp(-t^2/W^2) / (t + i gamma) dt = -i pi erfcx(gamma / W)

    With v = u - Omega and N(u) = (1 - g(u)) - h(Omega) exp(-(v/W)^2), the
    real and imaginary parts of N/(v + i gamma) are integrated separately
    as plain-float functions, N v/(v^2 + gamma^2) and -N gamma/(v^2 + gamma^2);
    the imaginary part vanishes identically at gamma = 0 and is not
    integrated there.
    """
    profile = _profile_g(profile)
    omega = float(omega_offset)
    d0, gamma = params.delta0, params.gamma_ab
    window = 50.0 * max(d0, gamma, abs(omega))

    if profile.kind == "uniform":
        return complex(0.0, -1.0)

    deficit = _scalar_deficit(profile, d0)
    h_at = deficit(omega)
    gamma2 = gamma * gamma

    def real_part(u):
        v = u - omega
        return (deficit(u) - h_at * math.exp(-(v / d0) ** 2)) * v / (v * v + gamma2)

    def imag_part(u):
        v = u - omega
        return -(deficit(u) - h_at * math.exp(-(v / d0) ** 2)) * gamma / (v * v + gamma2)

    a, b = omega - window, omega + window
    re, err = _quad(real_part, a, b, tol, tol, points=[omega])
    im = 0.0
    if gamma > 0.0:
        im, im_err = _quad(imag_part, a, b, tol, tol, points=[omega])
        err = max(err, im_err)
    if err > 1e-6:
        raise NumericsError("susceptibility quadrature did not converge", residual=err)
    return complex(-re / np.pi, (h_at * erfcx(gamma / d0) - 1.0) - im / np.pi)


def absorption_coefficient(omega_offset, profile, params: MediumParams):
    """Two-term absorption alpha(omega0 + Omega) (inverse length).

    alpha = alpha0 [ integral g L dDelta + (Omega^2/2) integral g'' L dDelta ]
    with L the Lorentzian of half-width gamma_ab.  For gamma_ab = 0 the
    Lorentzian collapses to a delta function at the hole center.
    """
    profile = _profile_g(profile)
    omega = float(omega_offset)
    d0, gamma = params.delta0, params.gamma_ab

    if gamma == 0.0:
        g0 = float(profile(0.0, d0))
        if g0 > 1e-9:
            raise NumericsError(
                "gamma_ab = 0 with a profile not vanishing at the hole center "
                "makes the Lorentzian integral singular")
        term1 = 0.0
        term2 = float(profile.second_derivative(0.0, d0))
    else:
        # substitution Delta = gamma tan(psi) turns the Lorentzian weight into
        # a flat measure: integral f L dDelta = (1/pi) integral f(gamma tan psi) dpsi
        half = np.pi / 2.0
        deficit, e1 = _quad(
            lambda psi: profile.deficit(gamma * np.tan(psi), d0) / np.pi,
            -half, half, 1e-12, 1e-10)
        term1 = 1.0 - deficit
        term2, e2 = _quad(
            lambda psi: profile.second_derivative(gamma * np.tan(psi), d0) / np.pi,
            -half, half, 1e-12, 1e-10)
        if max(e1, e2) > 1e-7:
            raise NumericsError("absorption quadrature did not converge",
                                residual=max(e1, e2))
    return params.alpha0 * (term1 + 0.5 * omega * omega * term2)


def inverse_group_velocity(profile, params: MediumParams):
    """1/v = 1/c + (alpha0 / 2 pi) * integral g(Delta) Delta^2/(Delta^2+gamma^2)^2 dDelta."""
    profile = _profile_g(profile)
    d0, gamma = params.delta0, params.gamma_ab
    window = 50.0 * max(d0, gamma)

    def integrand(t):
        if t == 0.0 and gamma == 0.0:
            lim = profile.second_derivative(0.0, d0) / 2.0
            return float(lim)
        return profile(t, d0) * t * t / (t * t + gamma * gamma) ** 2

    val, err = _quad(integrand, -window, window, 1e-13, 1e-11, points=[0.0])
    if err > 1e-7:
        raise NumericsError("group-velocity quadrature did not converge", residual=err)
    # analytic tail for the flat background g -> 1 beyond the window
    if gamma == 0.0:
        tail = 2.0 / window
    else:
        tail = (np.pi / 2.0 - np.arctan(window / gamma)) / gamma + window / (window**2 + gamma**2)
    g_edge = 0.5 * (float(profile(window, d0)) + float(profile(-window, d0)))
    val += g_edge * tail
    return params.inv_c + params.alpha0 * val / (2.0 * np.pi)


def exact_gaussian_model(params: MediumParams):
    """chi_hat(Omega) callable for the closed-form Gaussian-hole model."""
    return lambda omega: chi_exact_gaussian(omega, params)


def second_order_model(params: MediumParams):
    """chi_hat(Omega) callable for the second-order expansion."""
    return lambda omega: chi_second_order(omega, params)


def quadrature_model(profile, params: MediumParams, tol=1e-10):
    """chi_hat(Omega) callable backed by adaptive quadrature.

    Calls :func:`chi_quadrature` once per distinct frequency of the array
    it is given (a Python loop; repeated frequencies hit a per-call
    cache).  Uses the even/odd symmetry chi_hat(-Omega) = -conj(chi_hat(Omega))
    valid for symmetric profiles to halve the work on symmetric grids.
    """
    symmetric = _profile_g(profile).kind in ("gaussian", "uniform")

    def model(omega):
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        out = np.empty(om.shape, dtype=complex)
        cache: dict[float, complex] = {}
        for i, w in enumerate(om):
            key = abs(w) if symmetric else w
            if key not in cache:
                val = chi_quadrature(key, profile, params, tol=tol)
                # quadrature noise must not beat the flat-background
                # attenuation exp(-alpha0 z / 2) of the far wings
                cache[key] = complex(val.real, max(val.imag, -1.0))
            val = cache[key]
            if symmetric and w < 0:
                val = -np.conj(val)
            out[i] = val
        return out if np.ndim(omega) else complex(out[0])

    return model
