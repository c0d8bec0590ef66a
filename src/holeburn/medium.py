"""Medium description and linear-susceptibility models.

The absorber is an inhomogeneously broadened line with a spectral hole
around the carrier.  Three susceptibility models are provided, all
returning the dimensionless value chi_hat such that
chi = (alpha0 / k) * chi_hat:

* ``chi_exact_gaussian``  -- closed form for the Gaussian hole at any
  homogeneous width (the Faddeeva function; the Dawson integral at
  gamma_ab = 0)
* ``chi_quadrature``      -- adaptive quadrature of the same hole at any
  homogeneous width: one frequency per call, with plain-float real and
  imaginary integrands (the imaginary one skipped at gamma_ab = 0)
* ``chi_second_order``    -- second-order expansion around the hole center

plus the absorption-coefficient and inverse-group-velocity integrals.

Everything is in reduced units.  Detunings, frequencies and gamma_ab are
in units of the hole width delta0 and times in units of 1/delta0, so the
hole has unit width and delta0 appears nowhere.  Lengths are in units of
1/alpha0, so a length is an optical depth (the slab length is alpha0 L)
and alpha0 appears nowhere either.  A run is then fixed by the
dimensionless groups (alpha0 L, delta0 T, gamma_ab/delta0, v/c).

The hole is the Gaussian one, ``HoleProfile``; every routine here that
takes a ``profile`` refuses anything else (``check_gaussian_hole``).
``scipy.integrate`` is imported on first use, by ``_quad``, the package's
one adaptive-quadrature helper; the closed-form paths never load it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericsError
from .special import SQRT_PI, dawson, erfcx, faddeeva

_QUAD_LIMIT = 300


@dataclass(frozen=True)
class MediumParams:
    """Physical constants of the absorbing slab, in reduced units.

    gamma_ab : homogeneous half-width, in hole widths
    length   : slab length in units of 1/alpha0, i.e. the opacity alpha0 L
    inv_c    : 1/c; the default 0 selects the infinite-c limit used by the
               reference figures
    alpha0   : the unit of inverse length, 1: a class constant, not a field,
               that the library never reads
    """

    alpha0 = 1.0  # unannotated: a class attribute, not a field
    gamma_ab: float
    length: float
    inv_c: float = 0.0

    def __post_init__(self):
        if not self.length > 0:
            raise DomainError(f"alpha0 L must be positive, got {self.length!r}")
        if not (self.gamma_ab >= 0 and self.inv_c >= 0):
            raise DomainError(
                "gamma_ab and inv_c must be non-negative, got gamma_ab = "
                f"{float(self.gamma_ab)!r}, inv_c = {float(self.inv_c)!r}")

    @classmethod
    def reduced(cls, alpha0_L, gamma_over_delta0=0.0, v_over_c=0.0):
        """Build params of opacity ``alpha0_L``.

        ``v_over_c`` fixes 1/c from the Gaussian-hole slow-light velocity
        1/v = 1/c + 1/sqrt(pi).
        """
        if not 0.0 <= v_over_c < 1.0:
            raise DomainError(f"v_over_c must lie in [0, 1), got {v_over_c!r}")
        inv_c = v_over_c / (1.0 - v_over_c) / SQRT_PI
        return cls(gamma_ab=gamma_over_delta0, length=float(alpha0_L),
                   inv_c=inv_c)


def slow_light_velocity(params: MediumParams) -> float:
    """Gaussian-hole group velocity in the narrow-line limit.

    1/v = 1/c + 1/sqrt(pi); the general quadrature lives in
    :func:`inverse_group_velocity`.
    """
    return 1.0 / (params.inv_c + 1.0 / SQRT_PI)


@dataclass(frozen=True)
class HoleProfile:
    """The spectral hole: g(Delta) = 1 - exp(-Delta^2), in [0, 1].

    The paper burns one hole at the centre of the inhomogeneous band, and
    every route models it as this Gaussian, so a profile has no fields.
    The routines of ``medium`` and ``storage`` that take a ``profile`` take
    this hole only (``check_gaussian_hole``); the oracle, which only
    evaluates g, also takes a bare callable g(Delta).
    """

    @classmethod
    def gaussian(cls):
        return cls()

    def __call__(self, delta):
        """g at detuning ``delta``."""
        x = np.asarray(delta, dtype=float)
        out = 1.0 - np.exp(-x * x)
        return out if out.ndim else float(out)

    def deficit(self, delta):
        """1 - g, the hole deficit; decays to zero away from the hole."""
        return 1.0 - self(delta)

    def second_derivative(self, delta):
        """d^2 g / d Delta^2."""
        x = np.asarray(delta, dtype=float)
        out = (2.0 - 4.0 * x * x) * np.exp(-x * x)
        return out if out.ndim else float(out)


def check_gaussian_hole(profile):
    """ConfigurationError unless ``profile`` is a ``HoleProfile``: the one
    refusal of every routine in ``medium`` and ``storage`` that takes a
    profile, made once per call before any work."""
    if not isinstance(profile, HoleProfile):
        raise ConfigurationError(
            "the susceptibility and storage routes take the Gaussian hole "
            f"only (HoleProfile.gaussian()), got {profile!r}")


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

    chi_hat(Omega) = -i + i conj(w(Omega + i gamma_ab)), w the Faddeeva
    function.  At gamma_ab = 0 this is evaluated as
    -i (1 - exp(-Omega^2)) + (2/sqrt(pi)) F(Omega), F the Dawson integral:
    the two forms differ in the last bit of about a fifth of the real
    parts, and the lossless runs keep the Dawson values.  The Faddeeva
    form is exact at every gamma_ab (Abramowitz & Stegun 7.1.3-7.1.4), so
    no homogeneous width is refused.
    """
    x = np.asarray(omega_offset, dtype=float)
    if params.gamma_ab > 0.0:
        out = -1j + 1j * np.conj(faddeeva(x + 1j * params.gamma_ab))
    else:
        with np.errstate(over="ignore"):  # x^2 = inf far out: exp(-x^2) = 0
            out = (2.0 / SQRT_PI) * dawson(x) - 1j * (1.0 - np.exp(-x * x))
    return out if np.ndim(omega_offset) else complex(out)


def chi_second_order(omega_offset, params: MediumParams):
    """Second-order expansion of the hole-center susceptibility (units alpha0/k)."""
    x = np.asarray(omega_offset, dtype=float)
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
    integrated there.  ``profile`` must be the Gaussian hole, whose deficit
    is exp(-u^2).
    """
    check_gaussian_hole(profile)
    omega = float(omega_offset)
    gamma = params.gamma_ab
    window = 50.0 * max(1.0, gamma, abs(omega))

    h_at = math.exp(-omega ** 2)
    gamma2 = gamma * gamma

    def real_part(u):
        v = u - omega
        return (math.exp(-u ** 2) - h_at * math.exp(-v ** 2)) * v / (v * v + gamma2)

    def imag_part(u):
        v = u - omega
        return -(math.exp(-u ** 2) - h_at * math.exp(-v ** 2)) * gamma / (v * v + gamma2)

    a, b = omega - window, omega + window
    re, err = _quad(real_part, a, b, tol, tol, points=[omega])
    im = 0.0
    if gamma > 0.0:
        im, im_err = _quad(imag_part, a, b, tol, tol, points=[omega])
        err = max(err, im_err)
    if err > 1e-6:
        raise NumericsError("susceptibility quadrature did not converge", residual=err)
    return complex(-re / np.pi, (h_at * erfcx(gamma) - 1.0) - im / np.pi)


def absorption_coefficient(omega_offset, profile, params: MediumParams):
    """Two-term absorption alpha(omega0 + Omega) in units of alpha0.

    alpha = integral g L dDelta + (Omega^2/2) integral g'' L dDelta
    with L the Lorentzian of half-width gamma_ab.  For gamma_ab = 0 the
    Lorentzian collapses to a delta function at the hole center, where the
    Gaussian hole, the only ``profile`` taken, has g = 0.
    """
    check_gaussian_hole(profile)
    omega = float(omega_offset)
    gamma = params.gamma_ab

    if gamma == 0.0:
        term1 = 0.0
        term2 = float(profile.second_derivative(0.0))
    else:
        # substitution Delta = gamma tan(psi) turns the Lorentzian weight into
        # a flat measure: integral f L dDelta = (1/pi) integral f(gamma tan psi) dpsi
        half = np.pi / 2.0
        deficit, e1 = _quad(
            lambda psi: profile.deficit(gamma * np.tan(psi)) / np.pi,
            -half, half, 1e-12, 1e-10)
        term1 = 1.0 - deficit
        term2, e2 = _quad(
            lambda psi: profile.second_derivative(gamma * np.tan(psi)) / np.pi,
            -half, half, 1e-12, 1e-10)
        if max(e1, e2) > 1e-7:
            raise NumericsError("absorption quadrature did not converge",
                                residual=max(e1, e2))
    return term1 + 0.5 * omega * omega * term2


def inverse_group_velocity(profile, params: MediumParams):
    """1/v = 1/c + (1 / 2 pi) * integral g(Delta) Delta^2/(Delta^2+gamma^2)^2 dDelta."""
    check_gaussian_hole(profile)
    gamma = params.gamma_ab
    window = 50.0 * max(1.0, gamma)

    # QUADPACK never evaluates the break point t = 0, where the integrand
    # reads 0/0 at gamma = 0
    def integrand(t):
        return profile(t) * t * t / (t * t + gamma * gamma) ** 2

    val, err = _quad(integrand, -window, window, 1e-13, 1e-11, points=[0.0])
    if err > 1e-7:
        raise NumericsError("group-velocity quadrature did not converge", residual=err)
    # analytic tail for the flat background g -> 1 beyond the window
    if gamma == 0.0:
        tail = 2.0 / window
    else:
        tail = (np.pi / 2.0 - np.arctan(window / gamma)) / gamma + window / (window**2 + gamma**2)
    g_edge = 0.5 * (float(profile(window)) + float(profile(-window)))
    val += g_edge * tail
    return params.inv_c + val / (2.0 * np.pi)


def exact_gaussian_model(params: MediumParams):
    """chi_hat(Omega) callable for the closed-form Gaussian-hole model."""
    return lambda omega: chi_exact_gaussian(omega, params)


def second_order_model(params: MediumParams):
    """chi_hat(Omega) callable for the second-order expansion."""
    return lambda omega: chi_second_order(omega, params)


def quadrature_model(profile, params: MediumParams):
    """chi_hat(Omega) callable backed by adaptive quadrature.

    Calls :func:`chi_quadrature` at tolerance 1e-10 once per distinct
    |frequency| of the array it is given (``np.unique``): the Gaussian hole
    is even, so chi_hat(-Omega) = -conj(chi_hat(Omega)) halves the work on
    symmetric grids.
    """
    check_gaussian_hole(profile)

    def model(omega):
        om = np.asarray(omega, dtype=float)
        keys, inverse = np.unique(np.abs(om), return_inverse=True)
        vals = np.empty(keys.shape, dtype=complex)
        for i, key in enumerate(keys):
            val = chi_quadrature(key, profile, params, tol=1e-10)
            # quadrature noise must not beat the flat-background
            # attenuation exp(-z / 2) of the far wings
            vals[i] = complex(val.real, max(val.imag, -1.0))
        out = vals[inverse].reshape(om.shape)
        out = np.where(om < 0, -np.conj(out), out)
        return out if np.ndim(omega) else complex(out)

    return model
