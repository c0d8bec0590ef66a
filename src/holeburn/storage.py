"""Retrieval of a stored pulse: revival, established signal, full quadrature.

After the write pulse freezes the slowed signal inside the slab, the read
pulse re-creates the optical dipoles in a field-free medium and the slab
radiates the stored waveform.  Four routes to the restored field are
implemented, ordered by generality:

* ``revival_envelope``      -- early-time product form, frozen field times
  the revival factor kappa
* ``established_signal``    -- late-time single-quadrature kernel
* ``appendix_series_field`` -- truncated derivative series (birth regime)
* ``restored_field_full``   -- double time quadrature against the analytic
  detuning kernel; the reference the other three are checked against

Throughout, reduced variables are

    x = delta0 * (t_w - t_center),  y = delta0 * (t - t_r),
    rho = delta0 * L / v,           a = alpha0 * v / delta0,

with t_w, t_r the write/read instants.  For the Gaussian hole
a = sqrt(pi) (1 - v/c).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, DomainError, NumericsError, PreconditionError
from .medium import (HoleProfile, MediumParams, _profile_g, _quad,
                     slow_light_velocity)
from .propagation import PulseSpec, SampledEnvelope, transmitted_gaussian
from .special import SQRT_PI, erf, erfc

# Reduced-time reach of the detuning kernel exp(-(p+q)^2/4); beyond this the
# weight is < 1e-21 and the (p, q) quadrature can be truncated.
KERNEL_RANGE = 14.0

# Reach of one u-node's Gaussian in the late-sample loop of
# restored_field_full, in units of its exponent: factors below e^-50
# (about 2e-22, under the KERNEL_RANGE truncation) are skipped.
U_NODE_REACH = 50.0

# Largest conversion bandwidth a scenario may ask for, in hole widths.  The
# finite-bandwidth rule needs nodes in proportion to delta1 times the
# readout time; at this cap the bandwidth factor is within 1.2% of 1.
MAX_DELTA1_OVER_DELTA0 = 50.0

# Node cap of one panel of the finite-bandwidth rule.  Building the rule
# (numpy's leggauss) costs O(n^2) memory and O(n^3) time: 0.8 s at 2048.
MAX_RULE_NODES = 2048

# Entries of one (time sample x node) block of the finite-bandwidth rule:
# 2^20 complex values, 16 MB.
_RULE_BLOCK = 1 << 20

# Largest ``refine`` a scenario may ask for.  Full quadrature builds
# (48 refine) x (200 refine) arrays, and the sweep's convergence guard
# doubles refine: at the cap those arrays hold 20 MB each.
MAX_REFINE = 8


@dataclass(frozen=True)
class StorageSchedule:
    """Write/read timing and conversion bandwidth of the protocol.

    t_pi1  : write instant (pulse confined in the slab)
    t_pi2  : read instant
    delta1 : conversion half-bandwidth; atoms beyond |Delta| > delta1 are
             never stored.  math.inf selects infinite-bandwidth operation.
    """

    t_pi1: float
    t_pi2: float
    delta1: float = math.inf

    def __post_init__(self):
        if not self.t_pi2 > self.t_pi1:
            raise ConfigurationError("read instant t_pi2 must follow write instant t_pi1")
        if not self.delta1 > 0:
            raise ConfigurationError("conversion bandwidth delta1 must be positive")

    @property
    def infinite_bandwidth(self) -> bool:
        return math.isinf(self.delta1)

    def validate(self, params: MediumParams):
        if not self.infinite_bandwidth and self.delta1 <= params.delta0:
            raise ConfigurationError(
                "finite conversion bandwidth must exceed the hole width")


def default_schedule(params: MediumParams, b=0.6, hold=None):
    """Protocol defaults matched to the opacity.

    Pulse duration T = b (alpha0 L)^(3/4) / delta0, write instant at half
    transit t_pi1 = L/(2v) with the input peak crossing the entrance at
    t = 0.  ``hold`` is the storage interval t_pi2 - t_pi1 (its value is
    irrelevant to the restored field since Raman decoherence is not
    modeled); returns (PulseSpec, StorageSchedule).
    """
    v = slow_light_velocity(params)
    T = b * params.opacity ** 0.75 / params.delta0
    t_pi1 = params.length / (2.0 * v)
    if hold is None:
        hold = 10.0 / params.delta0
    return (PulseSpec(duration=T),
            StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + hold))


@dataclass(frozen=True)
class RetrievalResult:
    """Restored waveform at the slab output with its energy bookkeeping.

    The envelope time axis is t - t_pi2; efficiency is restored over
    incoming energy.
    """

    envelope: SampledEnvelope
    efficiency: float
    method: str
    validity: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must lie in [0, 1]")


def _reduced(params: MediumParams):
    """(v, a, rho, v/c) for the Gaussian-hole group velocity."""
    v = slow_light_velocity(params)
    a = params.alpha0 * v / params.delta0
    rho = params.delta0 * params.length / v
    return v, a, rho, params.inv_c * v


@lru_cache(maxsize=32)
def _gl(n):
    return leggauss(n)


def _gl_interval(n, lo, hi):
    x, w = _gl(n)
    return 0.5 * (hi - lo) * (x + 1.0) + lo, 0.5 * (hi - lo) * w


# ---------------------------------------------------------------------------
# revival factor
# ---------------------------------------------------------------------------

def kappa(x, v_over_c=0.0):
    """Closed-form revival factor (1 - v/c)(1 - e^{-x^2} + x sqrt(pi) erfc(x)).

    x = delta0 (t - t_pi2) / 2; monotone from 0 to (1 - v/c).
    """
    x = np.asarray(x, dtype=float)
    val = (1.0 - v_over_c) * (1.0 - np.exp(-x * x) + x * SQRT_PI * erfc(x))
    return val if val.ndim else float(val)


def _deficit_kernel(profile, delta0):
    """K(s) = integral dDelta (1 - g) e^{i Delta s}, the stored-dipole sum.

    Returns a callable of the reduced delay sigma = delta0 * s.  Gaussian
    hole: K = sqrt(pi) delta0 exp(-sigma^2/4).  Tabulated profiles are
    transformed numerically on the sampled support (real part only; the
    tiny odd-part imaginary component of an asymmetric hole is dropped).
    """
    profile = _profile_g(profile)
    if getattr(profile, "kind", None) == "gaussian":
        return lambda sigma: SQRT_PI * delta0 * np.exp(-0.25 * np.asarray(sigma) ** 2)
    if getattr(profile, "kind", None) == "uniform":
        return lambda sigma: np.zeros_like(np.asarray(sigma, dtype=float))
    lo, hi = profile.sample_range(delta0) if hasattr(profile, "sample_range") \
        else (-8.0 * delta0, 8.0 * delta0)
    u = np.linspace(lo, hi, 4097)
    h = np.asarray(1.0 - profile(u, delta0), dtype=float)

    def kernel(sigma):
        sig = np.atleast_1d(np.asarray(sigma, dtype=float)) / delta0
        vals = np.trapezoid(h * np.cos(np.outer(sig, u / delta0)), u, axis=-1)
        return vals if np.ndim(sigma) else float(vals[0])

    return kernel


def kappa_quadrature(x, profile, params: MediumParams):
    """Revival factor from the double time integral (independent of Eq.-28 form).

    kappa = (alpha0 v / 2 pi) * integral_0^inf min(s, b) K(s) e^{-gamma s} ds
    with b = 2 x / delta0; the min(s, b) weight is the area of the
    tau + tau' = s strip inside [0, inf) x [0, b].
    """
    x = float(x)
    if x < 0:
        raise DomainError("revival argument x must be non-negative")
    if x == 0.0:
        return 0.0
    d0, gamma = params.delta0, params.gamma_ab
    v = slow_light_velocity(params)
    b = 2.0 * x / d0
    kern = _deficit_kernel(profile, d0)

    def f(s):
        return min(s, b) * float(kern(d0 * s)) * math.exp(-gamma * s)

    cut = 30.0 / d0
    val1, e1 = _quad(f, 0.0, min(b, cut), 1e-13, 1e-12)
    val2, e2 = (0.0, 0.0)
    if b < cut:
        val2, e2 = _quad(f, b, cut, 1e-13, 1e-12)
    if max(e1, e2) > 1e-8:
        raise NumericsError("revival-factor quadrature did not converge",
                            residual=max(e1, e2))
    return params.alpha0 * v / (2.0 * np.pi) * (val1 + val2)


def bandwidth_reduction_factor(y):
    """Long-time recovery loss from a sharp conversion cutoff at delta1.

    y = delta1/delta0; returns erf(y) - (1 - e^{-y^2}) / (sqrt(pi) y),
    rising from 0 to 1.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("bandwidth ratio must be positive")
    val = erf(y) - (1.0 - np.exp(-y * y)) / (SQRT_PI * y)
    return val if val.ndim else float(val)


def _band_panels(delta1, gamma, g, d0):
    """Panel ends of the finite-bandwidth rule on [-delta1, delta1].

    The integrand is analytic on each panel.  The band is split at 0, at
    the knots of a tabulated hole, and at +-gamma 4^k (k >= 0), so that a
    panel near 0 stays about its own length away from the poles of the
    bracket at Delta = +-i gamma.
    """
    ends = [0.0, delta1]
    step = gamma
    while 0.0 < step < delta1:
        ends.append(step)
        step *= 4.0
    ends = np.concatenate([np.negative(ends), ends])
    if getattr(g, "kind", None) == "tabulated":
        ends = np.append(ends, g.detuning_samples * d0)
    return np.unique(np.clip(ends, -delta1, delta1))


def kappa_finite_bandwidth(x, delta1, profile, params: MediumParams):
    """Revival factor when only |Delta| <= delta1 dipoles are converted.

    kappa_eff = -(alpha0 v / 2 pi) * integral_{|Delta|<=delta1} g(Delta)
                Re[(1 - e^{-D b}) / D^2] dDelta,  D = gamma_ab - i Delta,
    b = 2 x / delta0.  The sharp cutoff produces the characteristic
    ringing superposed on the plateau.

    ``x`` may be an array (a float is returned for a scalar).  Every
    sample shares one Gauss-Legendre rule per panel (``_band_panels``; for
    the Gaussian hole at gamma_ab = 0 the two half bands [-delta1, 0] and
    [0, delta1]), with n = 40 + 0.7 (panel length) b_max nodes, b_max the
    largest b of the call: n keeps about four nodes per period of
    e^{i Delta b_max}.  g is evaluated at the nodes once, and the integral
    for all b is one (n_b x n) @ (g w) product per panel, taken in row
    blocks of at most ``_RULE_BLOCK`` entries.  A panel rule of more than
    ``MAX_RULE_NODES`` nodes is refused before anything is built.

    At gamma_ab = 0 the bracket's part b gamma / (gamma^2 + Delta^2) is
    pi b delta(Delta), which no node rule sees; it is added as pi b g(0)
    (zero for the Gaussian hole).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise DomainError("revival argument x must be finite and non-negative")
    g = _profile_g(profile)
    d0, gamma = params.delta0, params.gamma_ab
    v = slow_light_velocity(params)
    b = 2.0 * x.ravel() / d0
    b_max = b.max(initial=0.0)
    ends = _band_panels(delta1, gamma, g, d0)
    counts = [40 + math.ceil(0.7 * (hi - lo) * b_max)
              for lo, hi in zip(ends[:-1], ends[1:])]
    if max(counts) > MAX_RULE_NODES:
        raise ConfigurationError(
            f"conversion band delta1 = {delta1:g} needs {max(counts)} "
            f"Gauss-Legendre nodes at b = {b_max:g}, above {MAX_RULE_NODES}; "
            "narrow the band or use infinite bandwidth")
    val = np.zeros(b.shape)
    for lo, hi, n in zip(ends[:-1], ends[1:], counts):
        nodes, w = _gl_interval(n, lo, hi)
        gw = np.asarray(g(nodes, d0), dtype=float) * w
        dc = gamma - 1j * nodes
        rows = _RULE_BLOCK // n
        for start in range(0, b.size, rows):
            bracket = -np.expm1(-b[start:start + rows, None] * dc) / (dc * dc)
            val[start:start + rows] -= bracket.real @ gw
    if gamma == 0.0:
        val -= np.pi * b * float(g(0.0, d0))
    if not np.all(np.isfinite(val)):
        raise NumericsError("finite-bandwidth revival factor is not finite")
    out = params.alpha0 * v / (2.0 * np.pi) * val.reshape(x.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# restored-field routes
# ---------------------------------------------------------------------------

def revival_envelope(t, pulse: PulseSpec, schedule: StorageSchedule,
                     params: MediumParams, profile=None):
    """Early-time restored field: frozen slowed pulse times the revival factor.

    A(L, t) = A_in(L - v (t - t_pi2), t_pi1) * kappa[delta0 (t - t_pi2) / 2];
    zero before the read instant and once the readout depth v (t - t_pi2)
    exceeds the slab.

    kappa is the closed form for the Gaussian hole at infinite bandwidth.
    A finite conversion band takes ``kappa_finite_bandwidth`` in one call
    for all in-depth samples; other holes at infinite bandwidth take the
    independent ``kappa_quadrature`` sample by sample.
    """
    schedule.validate(params)
    v, a, rho, vc = _reduced(params)
    d0 = params.delta0
    t = np.asarray(t, dtype=float)
    y = d0 * (t - schedule.t_pi2)
    depth = params.length - v * (t - schedule.t_pi2)
    in_depth = (y > 0) & (depth >= 0.0)

    # A degenerate duration underflows the Gaussian's width^2 to 0; the
    # inf/nan samples that follow are retrieve's restored-energy failure,
    # not a numpy warning on stderr.
    with np.errstate(divide="ignore", invalid="ignore"):
        frozen = np.where(
            in_depth,
            transmitted_gaussian(np.where(in_depth, depth, 0.0),
                                 schedule.t_pi1, pulse.duration, params,
                                 center_time=pulse.center_time) * pulse.peak,
            0.0)
    xs = 0.5 * y
    if schedule.infinite_bandwidth and _profile_g(profile).kind == "gaussian":
        kap = kappa(np.where(in_depth, xs, 0.0), v_over_c=vc)
    else:
        kap = np.zeros(np.shape(xs))
        if schedule.infinite_bandwidth:
            kap[in_depth] = [kappa_quadrature(xv, profile, params)
                             for xv in xs[in_depth]]
        else:
            kap[in_depth] = kappa_finite_bandwidth(
                xs[in_depth], schedule.delta1, profile, params)
    out = frozen * kap
    return out if np.ndim(t) else float(out)


def revival_validity(t, pulse: PulseSpec, schedule: StorageSchedule,
                     params: MediumParams):
    """Smallness parameter delta0 min(t - t_pi2, L/v) / (delta0 T)^2.

    The product form holds where this fraction is << 1.
    """
    v = slow_light_velocity(params)
    d0 = params.delta0
    elapsed = np.minimum(np.asarray(t, dtype=float) - schedule.t_pi2,
                         params.length / v)
    return d0 * np.maximum(elapsed, 0.0) / (d0 * pulse.duration) ** 2


def _u_nodes(rho, dT, a, n_nodes):
    """Gauss-Legendre u-nodes of the established kernel R(xh, yh).

    R = integral_0^rho du  dT / (sqrt(2 pi a (rho - u)) sqrt(dT^2 + a u))
        * exp[-(xh - u)^2 / (2 (dT^2 + a u)) - (rho - u - yh)^2 / (2 a (rho - u))]

    The endpoint singularity at u = rho is removed by u = rho - s^2, which
    also regularizes the integrand for Gauss-Legendre nodes in s.  Returns
    (s2, u, w1, c) with s2 = s^2 = rho - u, w1 = dT^2 + a u and the node
    weight times prefactor c = w_s 2 dT / sqrt(2 pi a w1), so that

    R = sum_u c exp[-(xh - u)^2 / (2 w1)] exp[-(s2 - yh)^2 / (2 a s2)].
    """
    s, w = _gl_interval(n_nodes, 0.0, math.sqrt(rho))
    s2 = s * s
    u = rho - s2
    w1 = dT * dT + a * u
    return s2, u, w1, w * 2.0 * dT / np.sqrt(2.0 * np.pi * a * w1)


def _established_kernel(xh, yh, rho, dT, a, n_nodes=240):
    """Reduced single-quadrature kernel R(xh, yh) of the established signal
    (equation and nodes in ``_u_nodes``)."""
    s2, u, w1, c = _u_nodes(rho, dT, a, n_nodes)
    xh = np.asarray(xh, dtype=float)[..., None]
    yh = np.asarray(yh, dtype=float)[..., None]
    return (c * np.exp(-(xh - u) ** 2 / (2.0 * w1)
                       - (s2 - yh) ** 2 / (2.0 * a * s2))).sum(axis=-1)


def established_signal(t, pulse: PulseSpec, schedule: StorageSchedule,
                       params: MediumParams, n_nodes=240):
    """Late-time restored field from the single-quadrature kernel.

    A(L, t) = (1 - v/c) R(x - a/2, y - a/2) in reduced variables.  The
    half-kernel shift a/2 = sqrt(pi)(1 - v/c)/2 is the mean revival delay
    of the stored dipoles; with it the kernel agrees with the full double
    quadrature to about 1e-3 of the peak over the late window
    delta0 (t - t_pi2) > 5.
    """
    schedule.validate(params)
    v, a, rho, vc = _reduced(params)
    d0 = params.delta0
    dT = d0 * pulse.duration
    x = d0 * (schedule.t_pi1 - pulse.center_time)
    y = d0 * (np.asarray(t, dtype=float) - schedule.t_pi2)
    beta = 0.5 * a
    val = (1.0 - vc) * pulse.peak * _established_kernel(
        x - beta, y - beta, rho, dT, a, n_nodes)
    out = np.where(y > 0, val, 0.0)
    return out if np.ndim(t) else float(out)


def restored_field_full(t, pulse: PulseSpec, schedule: StorageSchedule,
                        profile, params: MediumParams,
                        n_pq=48, n_u=200):
    """Reference restored field: double time quadrature over the dipole memory.

    A(L, t) = (a / 2 pi) * integral_0^inf dp integral_0^y dq
              ktil(p + q) e^{-gamma (p+q)/delta0} R(x - p, y - q)

    where ktil is the dimensionless detuning kernel of the hole deficit
    (sqrt(pi) e^{-(p+q)^2/4} for the Gaussian hole) and R the established
    kernel.  Both time integrals are truncated at KERNEL_RANGE.  Finite
    conversion bandwidth is not supported on this route; use
    revival_envelope for the cutoff dynamics.

    The sums are factorized over the u-nodes of R (see ``_u_nodes``):
    R(x - p, y - q) = sum_u c_u f_u(x - p) g_u(y - q) with
    f_u(xh) = exp[-(xh - u)^2 / (2 w1)] and g_u(yh) = exp[-(s2 - yh)^2 /
    (2 a s2)].  F[p, u] = w_p c_u f_u(x - p) is built once per call, and
    for one set of q-nodes the p-sum is contracted into

        M[q, u] = w_q sum_p W[p, q] F[p, u],
        W[p, q] = ktil(p + q) e^{-gamma (p+q)/delta0},

    so that A ~ sum_{q,u} G[q, u] M[q, u] with G[q, u] = g_u(y - q).

    Below KERNEL_RANGE the q-interval is [0, y]: M is rebuilt per sample
    and each sample costs one n_q x n_u exponential.  For y >= KERNEL_RANGE
    the q-nodes span [0, KERNEL_RANGE] at every sample, M is built once and
    the loop runs over u-nodes instead: the late samples are sorted by y,
    and node u adds g_u(y - q) M[:, u] only to the contiguous run of
    samples with s2 + q_first - h < y < s2 + q_last + h, where
    h^2 = U_NODE_REACH * 2 a s2.  Every factor left out is below
    e^{-U_NODE_REACH}, about 2e-22, under the 1e-21 at which KERNEL_RANGE
    already truncates the kernel.
    """
    schedule.validate(params)
    if not schedule.infinite_bandwidth:
        raise PreconditionError(
            "full-quadrature restored field assumes infinite conversion "
            "bandwidth; model the cutoff with revival_envelope")
    v, a, rho, vc = _reduced(params)
    d0 = params.delta0
    dT = d0 * pulse.duration
    x = d0 * (schedule.t_pi1 - pulse.center_time)
    gamma_red = params.gamma_ab / d0
    kern = _deficit_kernel(profile, d0)

    p, wp = _gl_interval(n_pq, 0.0, KERNEL_RANGE)
    s2, u, w1, c = _u_nodes(rho, dT, a, n_u)
    f = wp[:, None] * c * np.exp(-(x - p[:, None] - u) ** 2 / (2.0 * w1))
    neg_inv = -1.0 / (2.0 * a * s2)

    def contract(y_top):
        q, wq = _gl_interval(n_pq, 0.0, y_top)
        pp = p[:, None] + q[None, :]
        weight = (np.asarray(kern(pp.ravel())).reshape(pp.shape) / d0
                  * np.exp(-gamma_red * pp))
        return q, wq[:, None] * (weight.T @ f)

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    y = d0 * (t_arr.ravel() - schedule.t_pi2)
    sums = np.zeros(y.shape, dtype=float)
    for i in np.flatnonzero((y > 0) & (y < KERNEL_RANGE)):
        q, m = contract(y[i])
        g = np.exp((s2 + q[:, None] - y[i]) ** 2 * neg_inv)
        sums[i] = np.vdot(g, m)

    # a NaN time joins the late samples and comes out NaN
    late = np.flatnonzero(~(y < KERNEL_RANGE))
    if late.size:
        late = late[np.argsort(y[late], kind="stable")]
        y_late = y[late]
        q, m = contract(KERNEL_RANGE)
        sq = s2[:, None] + q
        m_rows = np.ascontiguousarray(m.T)
        h = np.sqrt(U_NODE_REACH * 2.0 * a * s2)
        lo = np.searchsorted(y_late, sq[:, 0] - h, side="right")
        hi = np.searchsorted(y_late, sq[:, -1] + h, side="left")
        acc = np.zeros(late.size, dtype=float)
        for j in np.flatnonzero(hi > lo):
            d = y_late[lo[j]:hi[j], None] - sq[j]
            acc[lo[j]:hi[j]] += np.exp(d * d * neg_inv[j]) @ m_rows[j]
        acc[np.isnan(y_late)] = np.nan
        sums[late] = acc

    out = (a / (2.0 * np.pi) * pulse.peak * sums).reshape(t_arr.shape)
    return out if np.ndim(t) else float(out[0])


def _series_derivatives(order, zeta, xh, dT, a, rho):
    """d^{2n}/dzeta^{2n} [dT w^{-1/2} exp(-(xh - zeta)^2 / 2w) (rho - zeta)^n]
    for n = 0..order, with w = dT^2 + a zeta.

    Truncated Taylor ("jet") arithmetic in the offset h from zeta
    (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13): binomial
    jets for w^{-1/2} and (rho - zeta - h)^n, a geometric jet for 1/w, and
    the recurrence e_k = (1/k) sum_j j g_j e_{k-j} for e = exp(g).
    """
    n_coef = 2 * order + 1
    w = dT * dT + a * zeta
    d = xh - zeta
    r = -a / w
    inv_w, inv_sqrt = [1.0 / w], [dT / np.sqrt(w)]
    for k in range(1, n_coef):
        inv_w.append(inv_w[-1] * r)
        inv_sqrt.append(inv_sqrt[-1] * r * (2 * k - 1) / (2 * k))
    # exponent -(d - h)^2 / 2w = (-d^2/2 + d h - h^2/2) / w
    g = [-0.5 * d * d * inv_w[k] + (d * inv_w[k - 1] if k > 0 else 0.0)
         - (0.5 * inv_w[k - 2] if k > 1 else 0.0) for k in range(n_coef)]
    e = [np.exp(g[0])]
    for k in range(1, n_coef):
        e.append(sum(j * g[j] * e[k - j] for j in range(1, k + 1)) / k)
    f = [sum(inv_sqrt[j] * e[k - j] for j in range(k + 1))
         for k in range(n_coef)]
    rz = rho - zeta
    return [math.factorial(2 * n)
            * sum(math.comb(n, k) * (-1) ** k * rz ** (n - k) * f[2 * n - k]
                  for k in range(n + 1))
            for n in range(order + 1)]


def appendix_series_field(t, pulse: PulseSpec, schedule: StorageSchedule,
                          params: MediumParams, order=2, n_pq=48):
    """Derivative-series restored field for the Gaussian hole.

    Expanding the second-order propagator around a pure delay turns the
    depth integral into a series of spatial derivatives of the frozen
    field evaluated at the readout depth:

        A = ((1 - v/c)/2) * sum_n (beta^n / n!) * [double (p, q) quadrature
            of e^{-(p+q)^2/4} d^{2n}/dzeta^{2n} (frozen * (rho - zeta)^n)]

    with beta = a/2 and zeta = rho - (y - q).  The n = 0 truncation is the
    simple depth-slice field whose factorized limit is revival_envelope.
    The derivatives come from ``_series_derivatives`` (Taylor jets, O(order^2)
    array operations per time sample).  Orders above 6 are rejected, the
    same range a scenario's ``series_order`` accepts; the jets themselves
    would allow more.
    """
    if order < 0 or order > 6:
        raise DomainError("series order must lie in 0..6")
    schedule.validate(params)
    v, a, rho, vc = _reduced(params)
    d0 = params.delta0
    dT = d0 * pulse.duration
    x = d0 * (schedule.t_pi1 - pulse.center_time)
    gamma_red = params.gamma_ab / d0
    beta = 0.5 * a

    p, wp = _gl_interval(n_pq, 0.0, KERNEL_RANGE)

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t_arr.shape, dtype=float)
    for i, ti in enumerate(t_arr.ravel()):
        y = d0 * (ti - schedule.t_pi2)
        qlo = max(0.0, y - rho)
        qhi = min(y, qlo + KERNEL_RANGE)
        if y <= 0 or qhi <= qlo:
            continue
        q, wq = _gl_interval(n_pq, qlo, qhi)
        pp = p[:, None] + q[None, :]
        weight = np.exp(-0.25 * pp * pp - gamma_red * pp)
        zeta0 = rho - (y - q)[None, :]
        xh = (x - p)[:, None]
        derivs = _series_derivatives(order, zeta0, xh, dT, a, rho)
        total = sum(beta ** n / math.factorial(n) * deriv
                    for n, deriv in enumerate(derivs))
        out.ravel()[i] = (0.5 * (1.0 - vc) * pulse.peak
                          * float(np.einsum("i,j,ij->", wp, wq, weight * total)))
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# retrieval driver and efficiency
# ---------------------------------------------------------------------------

_METHODS = ("full_quadrature", "established", "revival", "series")


def _method_field(method, series_order):
    if method not in _METHODS:
        raise ConfigurationError(
            f"unknown retrieval method {method!r}; choose from {_METHODS}")
    if method == "series":
        return f"series({series_order})"
    return method


def retrieval_grid(pulse: PulseSpec, schedule: StorageSchedule,
                   params: MediumParams, n_time=512) -> np.ndarray:
    """Absolute-time grid covering the restored waveform and its tails."""
    if n_time & (n_time - 1):
        raise ConfigurationError("n_time must be a power of two")
    v, a, rho, _ = _reduced(params)
    dT = params.delta0 * pulse.duration
    ymax = rho + 5.0 * math.sqrt(2.0 * a * rho) + 2.0 * dT + 10.0
    return schedule.t_pi2 + np.arange(n_time) * (ymax / n_time) / params.delta0


def retrieve(pulse: PulseSpec, schedule: StorageSchedule, params: MediumParams,
             profile=None, method="full_quadrature", series_order=2,
             n_time=512, refine=1) -> RetrievalResult:
    """Compute the restored waveform on an auto grid and wrap it up.

    ``refine`` scales the quadrature node counts (deterministic for a
    given value); method validity indicators are attached rather than
    enforced, mirroring how the figure panels mix regimes.  A restored
    energy that is not finite and positive, or a validity indicator that
    is not finite, raises NumericsError: a degenerate pulse duration or
    opacity is never reported as eta = 0.
    """
    label = _method_field(method, series_order)
    t = retrieval_grid(pulse, schedule, params, n_time=n_time)
    refine = int(refine)
    if method == "full_quadrature":
        amp = restored_field_full(t, pulse, schedule, profile, params,
                                  n_pq=48 * refine, n_u=200 * refine)
    elif method == "established":
        amp = established_signal(t, pulse, schedule, params,
                                 n_nodes=240 * refine)
    elif method == "revival":
        amp = revival_envelope(t, pulse, schedule, params, profile=profile)
    else:
        amp = appendix_series_field(t, pulse, schedule, params,
                                    order=series_order, n_pq=48 * refine)

    dt = float(t[1] - t[0])
    env = SampledEnvelope(t_start=float(t[0] - schedule.t_pi2), dt=dt,
                          samples=np.asarray(amp, dtype=complex))
    total = env.energy()
    if not (math.isfinite(total) and total > 0.0):
        raise NumericsError(
            f"restored energy is {total:g}: the waveform is zero or not "
            "finite (degenerate pulse duration or opacity)")
    tail = float(np.sum(np.abs(env.samples[-max(2, env.n // 64):]) ** 2) * dt)
    if tail / total > 1e-3:
        raise ConfigurationError(
            "retrieval grid truncates the restored waveform "
            f"(tail fraction {tail / total:.2e})")

    d0 = params.delta0
    v = slow_light_velocity(params)
    eta = total / (pulse.peak ** 2 * SQRT_PI * pulse.duration)
    if eta > 1.0:
        raise NumericsError(
            f"restored energy exceeds the input energy (eta = {eta:.6g}); "
            "the quadrature overshoots", residual=eta - 1.0)
    peak_t = env.peak_time() + schedule.t_pi2
    validity = {
        "revival_condition_fraction": float(
            revival_validity(peak_t, pulse, schedule, params)),
        "established_window_ok": bool(d0 * (peak_t - schedule.t_pi2) > 5.0),
        "spectral_margin": float(d0 * pulse.duration / math.sqrt(params.opacity)),
        "temporal_margin": float(params.opacity / (d0 * pulse.duration)),
    }
    bad = sorted(key for key, val in validity.items() if not math.isfinite(val))
    if bad:
        raise NumericsError(f"validity indicators {bad} are not finite")
    return RetrievalResult(envelope=env, efficiency=eta,
                           method=label, validity=validity)


def efficiency(pulse: PulseSpec, schedule: StorageSchedule, params: MediumParams,
               method="full_quadrature", profile=None, series_order=2,
               n_time=512, refine=1) -> float:
    """Recovery efficiency: restored over incoming pulse energy."""
    return retrieve(pulse, schedule, params, profile=profile, method=method,
                    series_order=series_order, n_time=n_time,
                    refine=refine).efficiency
