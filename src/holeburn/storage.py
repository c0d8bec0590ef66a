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

Units are those of ``medium`` and times run from the input peak, so the
reduced variables are

    x = t_w,  y = t - t_r,  rho = L / v,  a = v,

with t_w, t_r the write/read instants.  For the Gaussian hole
a = sqrt(pi) (1 - v/c).  These come from ``_reduced`` (rho also from
``transit_time``), and the memory the read pulse recalls, the hole's
deficit spectrum K decayed over the delay s, W(s) = K(s) e^{-gamma s},
from ``_memory_weight``.  The routes take the Gaussian hole only; the three
that accept a ``profile`` refuse any other before any work
(``check_gaussian_hole``).
"""

import math
import threading
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, DomainError, NumericsError
from .medium import (HoleProfile, MediumParams, check_gaussian_hole,
                     slow_light_velocity)
from .propagation import (PulseSpec, SampledEnvelope, confinement_report,
                          transmitted_gaussian)
from .special import SQRT_PI, erf, erfc, erfcx

# Reduced-time reach of the detuning kernel exp(-(p+q)^2/4); beyond this the
# weight is < 1e-21 and the (p, q) quadrature can be truncated.
KERNEL_RANGE = 14.0

# The memory weight W has one truncation, KERNEL_RANGE, in full quadrature,
# the series and the revival factor alike; where the dipole decay
# e^{-gamma s} falls below e^-60 sooner, at DECAY_REACH / gamma, the
# revival-factor integral is cut there.  W is entire, and the two
# Gauss-Legendre panels of kappa_quadrature take _KAPPA_NODES nodes each:
# kappa is within 7e-15 of the closed form (gamma / delta0 0 to 1) and of
# adaptive quadrature (to 1e6).
DECAY_REACH = 60.0
_KAPPA_NODES = 48

# Reach of one u-node's Gaussian in the late-sample loop of
# restored_field_full, in units of its exponent: factors below e^-50
# (about 2e-22, under the KERNEL_RANGE truncation) are skipped.
U_NODE_REACH = 50.0

# Largest gamma / delta0, per refine^2, at which the (p, q) rule of full
# quadrature and of the derivative series resolves the memory decay
# e^{-gamma s}: the Gauss-Legendre nodes nearest s = 0 lie ~1/n^2 apart.
# Above it eta moves by more than 1e-6 relative against refine 4 or 8;
# bisected at 37.1 to 39.0 per refine^2 (refine 1 to 4, alpha0 L 9 to 400,
# b 0.3 to 1.2).  retrieve warns above it.
DECAY_RESOLVED = 37.0

# Floor of the Gaussian-factor exponents of the early samples in
# restored_field_full.  numpy's exp runs up to ~100x slower on a lane whose
# result is subnormal or zero, and a dot product ~25x slower on a product
# that is subnormal.  A factor below e^-300 (5e-131) is taken as e^-300:
# each such factor adds at most 5e-131 |M[q, u]| to its sample, and since
# the entries of M lie above 1e-29 (alpha0 L 1 to 1000, b 0.3 to 1) every
# product stays a normal number.
_EXP_FLOOR = -300.0

# The one hole the storage routes model.
_GAUSSIAN = HoleProfile.gaussian()

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

# Longest hold t_pi2 - t_pi1.  The routes take absolute times t_pi2 + y,
# which round y more the later the read: at this bound each route's
# waveform moves by <= 5e-14 of peak and eta by <= 4e-13 relative against a
# hold of 10 (alpha0 L 9 to 100, b 0.6); at 1e6, by 3e-11 of peak.
MAX_HOLD = 1e3

# Largest ``refine`` a scenario may ask for.  The sweep's convergence guard
# doubles it, so ``check_retrieval_args`` accepts up to 2 MAX_REFINE;
# there full quadrature's (48 refine) x (200 refine) arrays hold 20 MB each.
MAX_REFINE = 8

# Fewest samples of a retrieval grid.  eta is a sum over the grid: against
# 512 samples (b 0.6, alpha0 L 9 to 340) it is off by up to 9.9% at 32, and
# at 2 to 8 the revival samples can all miss the waveform (energy 0), while
# at 64 it is within 0.12% (full quadrature), 0.49% (series), 1.7%
# (established) and 2.5% (revival).
MIN_TIME_SAMPLES = 64


@dataclass(frozen=True)
class StorageSchedule:
    """Write/read timing and conversion bandwidth of the protocol.

    t_pi1  : write instant (pulse confined in the slab)
    t_pi2  : read instant, at most ``MAX_HOLD`` after t_pi1
    delta1 : conversion half-bandwidth, wider than the hole (delta1 > 1);
             atoms beyond |Delta| > delta1 are never stored.  math.inf
             selects infinite-bandwidth operation.
    """

    t_pi1: float
    t_pi2: float
    delta1: float = math.inf

    def __post_init__(self):
        if not self.t_pi2 > self.t_pi1:
            raise ConfigurationError(
                "read instant t_pi2 must follow write instant t_pi1, got t_pi1 "
                f"= {float(self.t_pi1)!r}, t_pi2 = {float(self.t_pi2)!r}")
        # rounding is monotone, so t_pi2 = t_pi1 + hold passes for every
        # hold up to MAX_HOLD
        if not self.t_pi2 <= self.t_pi1 + MAX_HOLD:
            raise ConfigurationError(
                f"hold t_pi2 - t_pi1 must not exceed {MAX_HOLD:g}, got "
                f"{float(self.t_pi2 - self.t_pi1)!r}: past it the retrieval "
                "times t_pi2 + y round the restored field")
        if not self.delta1 > 1.0:
            raise ConfigurationError(
                "conversion bandwidth delta1 must exceed the hole width, got "
                f"{float(self.delta1)!r}")

    @property
    def infinite_bandwidth(self) -> bool:
        return math.isinf(self.delta1)


def default_schedule(params: MediumParams, b=0.6):
    """(PulseSpec, StorageSchedule) matched to the opacity.

    Pulse duration T = b (alpha0 L)^(3/4), write instant at half transit
    t_pi1 = L/(2v) and read instant 10 later (without Raman decoherence
    the hold does not change the restored field).
    """
    T = b * params.length ** 0.75
    t_pi1 = 0.5 * transit_time(params)
    return (PulseSpec(duration=T),
            StorageSchedule(t_pi1=t_pi1, t_pi2=t_pi1 + 10.0))


@dataclass(frozen=True)
class RetrievalResult:
    """Restored waveform at the slab output with its energy bookkeeping.

    The envelope time axis is t - t_pi2; efficiency is restored over
    incoming energy.  ``validity`` holds the regime indicators and
    ``warnings`` the lines ``retrieve`` writes for those out of regime.
    """

    envelope: SampledEnvelope
    efficiency: float
    method: str
    validity: dict = field(default_factory=dict)
    warnings: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must lie in [0, 1]")


def _reduced(params: MediumParams):
    """(v, a, rho, v/c), Python floats: an overflowing rho is inf, unwarned."""
    v = float(slow_light_velocity(params))
    return v, v, float(params.length) / v, float(params.inv_c) * v


def transit_time(params: MediumParams) -> float:
    """Transit time rho = L/v of the slab (``_reduced``)."""
    return _reduced(params)[2]


# Unbounded, so that each rule size is built once per process: one pass of
# the panels-light benchmark asks for 45 sizes.  A scenario's sizes are bounded
# by MAX_RULE_NODES and MAX_REFINE; all 2048 sizes together hold ~33 MB.
@cache
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

    x = (t - t_pi2) / 2, in ``_revival_b``'s domain; monotone from 0 to
    (1 - v/c), which floats reach past x = 27.3: x is capped at 30.
    """
    x = np.minimum(0.5 * _revival_b(x), 30.0)
    val = (1.0 - v_over_c) * (1.0 - np.exp(-x * x) + x * SQRT_PI * erfc(x))
    return val if val.ndim else float(val)


def _memory_weight(gamma):
    """W(s) = K(s) e^{-gamma s} = sqrt(pi) exp((-s/4 - gamma) s): the
    Gaussian hole's stored-dipole sum K(s) = integral dDelta (1 - g)
    e^{i Delta s}, decayed over the delay s (at gamma = 0 the bits of
    -s^2/4)."""
    return lambda s: SQRT_PI * np.exp((-0.25 * np.asarray(s) - gamma) * s)


def _revival_b(x):
    """b = 2 x as a float array; DomainError naming an x for which b is
    negative or not finite."""
    x = np.asarray(x, dtype=float)
    bad = ~((x >= 0) & (x <= 0.5 * np.finfo(float).max))
    if bad.any():
        raise DomainError("revival argument x must be non-negative with 2x "
                          f"finite, got x = {float(x[bad].flat[0])!r}")
    return 2.0 * x


def kappa_quadrature(x, profile, params: MediumParams):
    """Revival factor from the double time integral (independent of Eq.-28 form).

    kappa = (v / 2 pi) * integral_0^inf min(s, b) W(s) ds
    with b = 2 x and W the memory weight (``_memory_weight``); min(s, b) is
    the area of the tau + tau' = s strip inside [0, inf) x [0, b].  Cut at
    S = KERNEL_RANGE, or DECAY_REACH / gamma_ab where that is nearer, with
    m = min(b, S):

        kappa = (v / 2 pi) [integral_0^m s W ds + b integral_m^S W ds],

    each integral by one Gauss-Legendre panel of _KAPPA_NODES nodes per
    sample.  ``x`` may be an array.  ``profile`` must be the Gaussian hole.
    """
    check_gaussian_hole(profile)
    b = _revival_b(x)
    gamma = params.gamma_ab
    span = (KERNEL_RANGE if gamma * KERNEL_RANGE <= DECAY_REACH
            else DECAY_REACH / gamma)
    memory = _memory_weight(gamma)
    m = np.minimum(b, span)[..., None]
    s, ws = _gl_interval(_KAPPA_NODES, 0.0, m)
    r, wr = _gl_interval(_KAPPA_NODES, m, span)
    val = (np.sum(s * memory(s) * ws, axis=-1)
           + b * np.sum(memory(r) * wr, axis=-1))
    out = _reduced(params)[0] / (2.0 * np.pi) * val
    return out if out.ndim else float(out)


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


def _band_panels(delta1, gamma):
    """Panel ends of the finite-bandwidth rule on [-delta1, delta1].

    The integrand is analytic on each panel.  The band is split at 0 and
    at +-gamma 4^k (k >= 0), so that a panel near 0 stays about its own
    length away from the poles of the bracket at Delta = +-i gamma.
    """
    ends = [0.0, delta1]
    step = gamma
    while 0.0 < step < delta1:
        ends.append(step)
        step *= 4.0
    ends = np.concatenate([np.negative(ends), ends])
    return np.unique(np.clip(ends, -delta1, delta1))


# a bracket that is not finite is a NumericsError, not a warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def kappa_finite_bandwidth(x, delta1, profile, params: MediumParams):
    """Revival factor when only |Delta| <= delta1 dipoles are converted.

    kappa_eff = -(v / 2 pi) * integral_{|Delta|<=delta1} g(Delta)
                Re[(1 - e^{-D b}) / D^2] dDelta,  D = gamma_ab - i Delta,
    b = 2 x.  The sharp cutoff produces the characteristic
    ringing superposed on the plateau.

    ``x`` may be an array (a float is returned for a scalar).  Every
    sample shares one Gauss-Legendre rule per panel (``_band_panels``; at
    gamma_ab = 0 the two half bands [-delta1, 0] and [0, delta1]), with n =
    40 + 0.7 (panel length) b_max nodes, b_max the largest b of the call:
    n keeps about four nodes per period of e^{i Delta b_max}.  g is
    evaluated at the nodes once, and the integral for all b is one
    (n_b x n) @ (g w) product per panel, taken in row blocks of at most
    ``_RULE_BLOCK`` entries.  A panel rule of more than
    ``MAX_RULE_NODES`` nodes is refused before anything is built.

    At gamma_ab = 0 the bracket's part b gamma / (gamma^2 + Delta^2) is
    pi b delta(Delta), which no node rule sees; it weighs g(0), zero for
    the Gaussian hole, the only ``profile`` taken.  This gamma = 0 rule also
    serves where gamma_ab^2 is not a normal float: D^2 would underflow at
    |Delta| ~ gamma.
    """
    check_gaussian_hole(profile)
    b = _revival_b(x).ravel()
    gamma = params.gamma_ab
    if gamma * gamma < np.finfo(float).tiny:
        gamma = 0.0
    b_max = b.max(initial=0.0)
    ends = _band_panels(delta1, gamma)
    # float counts: one that overflows is refused, not an OverflowError
    counts = 40.0 + np.ceil(0.7 * np.diff(ends) * b_max)
    if counts.max() > MAX_RULE_NODES:
        raise ConfigurationError(
            f"conversion band delta1 = {delta1:g} needs {counts.max():.0f} "
            f"Gauss-Legendre nodes at b = {b_max:g}, above {MAX_RULE_NODES}; "
            "narrow the band or use infinite bandwidth")
    val = np.zeros(b.shape)
    for lo, hi, n in zip(ends[:-1], ends[1:], counts.astype(int).tolist()):
        nodes, w = _gl_interval(n, lo, hi)
        gw = np.asarray(profile(nodes), dtype=float) * w
        dc = gamma - 1j * nodes
        rows = _RULE_BLOCK // n
        for start in range(0, b.size, rows):
            bracket = -np.expm1(-b[start:start + rows, None] * dc) / (dc * dc)
            val[start:start + rows] -= bracket.real @ gw
    if not np.all(np.isfinite(val)):
        raise NumericsError("finite-bandwidth revival factor is not finite")
    out = _reduced(params)[0] / (2.0 * np.pi) * val.reshape(np.shape(x))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# restored-field routes
# ---------------------------------------------------------------------------

def revival_envelope(t, pulse: PulseSpec, schedule: StorageSchedule,
                     params: MediumParams):
    """Early-time restored field: frozen slowed pulse times the revival factor.

    A(L, t) = A_in(L - v (t - t_pi2), t_pi1) * kappa[(t - t_pi2) / 2];
    zero before the read instant and once the readout depth v (t - t_pi2)
    exceeds the slab.

    kappa is the closed form at infinite bandwidth and gamma_ab = 0.  A
    finite conversion band takes ``kappa_finite_bandwidth``, and gamma_ab >
    0 ``kappa_quadrature``, each in one call for all in-depth samples.
    """
    v, a, rho, vc = _reduced(params)
    t = np.asarray(t, dtype=float)
    y = t - schedule.t_pi2
    depth = params.length - v * (t - schedule.t_pi2)
    in_depth = (y > 0) & (depth >= 0.0)

    # A degenerate duration underflows the Gaussian's width^2 to 0; the
    # inf/nan samples that follow are retrieve's restored-energy failure,
    # not a numpy warning on stderr.
    with np.errstate(divide="ignore", invalid="ignore"):
        frozen = np.where(
            in_depth,
            transmitted_gaussian(np.where(in_depth, depth, 0.0),
                                 schedule.t_pi1, pulse.duration, params),
            0.0)
    xs = 0.5 * y
    kap = np.zeros(np.shape(xs))
    if not schedule.infinite_bandwidth:
        kap[in_depth] = kappa_finite_bandwidth(
            xs[in_depth], schedule.delta1, _GAUSSIAN, params)
    elif params.gamma_ab == 0.0:
        kap = kappa(np.where(in_depth, xs, 0.0), v_over_c=vc)
    else:
        kap[in_depth] = kappa_quadrature(xs[in_depth], _GAUSSIAN, params)
    out = frozen * kap
    return out if np.ndim(t) else float(out)


def revival_validity(t, pulse: PulseSpec, schedule: StorageSchedule,
                     params: MediumParams):
    """Smallness parameter min(t - t_pi2, L/v) / T^2.

    The product form holds where this fraction is << 1.
    """
    elapsed = np.minimum(np.asarray(t, dtype=float) - schedule.t_pi2,
                         transit_time(params))
    return np.maximum(elapsed, 0.0) / pulse.duration ** 2


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


def _established_kernel(xh, yh, rho, dT, a, n_nodes):
    """Reduced single-quadrature kernel R(xh, yh) of the established signal
    (equation and nodes in ``_u_nodes``)."""
    xh = np.asarray(xh, dtype=float)[..., None]
    yh = np.asarray(yh, dtype=float)[..., None]
    # A degenerate opacity or duration overflows this arithmetic to inf or
    # nan; that is retrieve's restored-energy failure, not a numpy warning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s2, u, w1, c = _u_nodes(rho, dT, a, n_nodes)
        return (c * np.exp(-(xh - u) ** 2 / (2.0 * w1)
                           - (s2 - yh) ** 2 / (2.0 * a * s2))).sum(axis=-1)


def established_signal(t, pulse: PulseSpec, schedule: StorageSchedule,
                       params: MediumParams, refine=1):
    """Late-time restored field from the single-quadrature kernel.

    A(L, t) = m0 R(x - beta, y - beta): the memory kernel (a / 2 pi)
    W(p + q) of ``restored_field_full`` as its mass m0 at beta, half the
    mean of s = p + q under s W(s): two moments of the memory weight
    (``_memory_weight``).  For the Gaussian hole, with I0 = sqrt(pi)
    erfcx(gamma) and I1 = 2 - 2 gamma I0, m0 = (1 - v/c)(1 - gamma I0) and
    beta = (I0 - gamma I1) / I1: at gamma = 0, 1 - v/c and sqrt(pi)/2
    (taken as a / (2 (1 - v/c))).  The late window t - t_pi2 > 5 then holds
    to about 1e-3 of the full-quadrature peak at any v/c and gamma
    (alpha0 L = 100, delta0 T = 19).  R takes 240 refine u-nodes; infinite
    conversion bandwidth only.
    """
    check_retrieval_args(method="established", refine=refine,
                         delta1=schedule.delta1)
    v, a, rho, vc = _reduced(params)
    dT = pulse.duration
    x = schedule.t_pi1
    y = np.asarray(t, dtype=float) - schedule.t_pi2
    gamma = params.gamma_ab
    if gamma:
        i0 = SQRT_PI * erfcx(gamma)
        i1 = 2.0 - 2.0 * gamma * i0
        mass, beta = (1.0 - vc) * (1.0 - gamma * i0), (i0 - gamma * i1) / i1
    else:
        mass, beta = 1.0 - vc, 0.5 * a / (1.0 - vc)
    val = _established_kernel(x - beta, y - beta, rho, dT, a, 240 * refine)
    out = np.where(y > 0, mass * val, 0.0)
    return out if np.ndim(t) else float(out)


def restored_field_full(t, pulse: PulseSpec, schedule: StorageSchedule,
                        profile, params: MediumParams, refine=1):
    """Reference restored field: double time quadrature over the dipole memory.

    A(L, t) = (a / 2 pi) * integral_0^inf dp integral_0^y dq
              W(p + q) R(x - p, y - q)

    where W = K e^{-gamma s} is the memory weight of the Gaussian hole
    (``_memory_weight``), the only ``profile`` taken, and R the established
    kernel.  Both time integrals are truncated at KERNEL_RANGE, each on
    n_pq = 48 refine nodes, and R takes n_u = 200 refine u-nodes.  No
    finite conversion band: revival_envelope models the cutoff.

    The sums are factorized over the u-nodes of R (see ``_u_nodes``):
    R(x - p, y - q) = sum_u c_u f_u(x - p) g_u(y - q) with
    f_u(xh) = exp[-(xh - u)^2 / (2 w1)] and g_u(yh) = exp[-(s2 - yh)^2 /
    (2 a s2)].  F[p, u] = w_p c_u f_u(x - p) is built once per call, and
    for one set of q-nodes the p-sum is contracted into

        M[q, u] = w_q sum_p W(p + q) F[p, u],

    so that A ~ sum_{q,u} G[q, u] M[q, u] with G[q, u] = g_u(y - q).

    Below KERNEL_RANGE the q-interval is [0, y] and M belongs to one
    sample.  These early samples are taken in blocks of B = max(1, 2^16 //
    (n_pq n_u)) (6 at refine 1, 1 from refine 2 on): the block's
    weights w_q W are contracted with F in one (B n_q x n_p) @ (n_p x n_u)
    product, and each sample then costs one n_q x n_u exponential (its
    exponents floored at ``_EXP_FLOOR``) and one dot product.  Blocks stay
    small because the Gaussian factor and the per-call overhead, not the
    product, bound the cost: every (B, n_q, n_u) array stays within 512 KB,
    and blocks of 2 to 6 samples ran equally fast, 8 and 12 slower.

    For y >= KERNEL_RANGE the q-nodes span [0, KERNEL_RANGE] at every
    sample, M is built once and the loop runs over u-nodes instead: the
    late samples are sorted by y, and node u adds g_u(y - q) M[:, u] only
    to the contiguous run of samples with s2 + q_first - h < y < s2 +
    q_last + h, where h^2 = U_NODE_REACH * 2 a s2.  Every factor left out
    is below e^{-U_NODE_REACH}, about 2e-22, under the 1e-21 at which
    KERNEL_RANGE already truncates the kernel.  The differences y - q are
    taken once per call; each u-node subtracts its scalar s2 from its run
    of them into one reused buffer, so its exponent is ((y - q) - s2)^2.

    When a call has both early and late samples, both threads draw early
    block starts from one iterator: a helper thread starts on the blocks
    while the calling thread runs the u-node loop, then takes the blocks
    the helper has not; numpy releases the interpreter lock inside both.
    A block keeps its operation order whichever thread takes it, and every
    block and the late half write only their own samples, so the result is
    bit-identical to a serial run.  The helper is joined before the call
    returns, and an exception it raised is raised again in the caller.
    """
    check_gaussian_hole(profile)
    check_retrieval_args(refine=refine, delta1=schedule.delta1)
    n_pq, n_u = 48 * refine, 200 * refine
    v, a, rho, vc = _reduced(params)
    dT = pulse.duration
    x = schedule.t_pi1
    memory = _memory_weight(params.gamma_ab)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    y = t_arr.ravel() - schedule.t_pi2
    sums = np.zeros(y.shape, dtype=float)

    p, wp = _gl_interval(n_pq, 0.0, KERNEL_RANGE)
    # A degenerate opacity or duration overflows this arithmetic to inf or
    # nan; that is retrieve's restored-energy failure, not a numpy warning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s2, u, w1, c = _u_nodes(rho, dT, a, n_u)
        f = wp[:, None] * c * np.exp(-(x - p[:, None] - u) ** 2 / (2.0 * w1))
        neg_inv = -1.0 / (2.0 * a * s2)

        def contract(y_top):
            # q-nodes on [0, y_top[b]]; M[b] = (w_q W[b]^T) @ F, one GEMM
            q, wq = _gl_interval(n_pq, 0.0, y_top[:, None])
            weight = memory(q[:, :, None] + p) * wq[:, :, None]
            m = weight.reshape(-1, n_pq) @ f
            return q, m.reshape(y_top.size, n_pq, n_u)

        early = np.flatnonzero((y > 0) & (y < KERNEL_RANGE))
        block = max(1, 2 ** 16 // (n_pq * n_u))
        # one iterator of block starts, drawn from by both threads; under
        # the interpreter lock each next() hands out a start exactly once
        starts = iter(range(0, early.size, block))

        def early_half():
            for start in starts:
                idx = early[start:start + block]
                q, m = contract(y[idx])
                g = (s2 - y[idx, None])[:, None, :] + q[:, :, None]
                np.square(g, out=g)
                g *= neg_inv
                np.maximum(g, _EXP_FLOOR, out=g)
                np.exp(g, out=g)
                sums[idx] = np.matmul(g.reshape(idx.size, 1, -1),
                                      m.reshape(idx.size, -1, 1)).ravel()

        # a NaN time joins the late samples and comes out NaN
        late = np.flatnonzero(~(y < KERNEL_RANGE))
        late = late[np.argsort(y[late], kind="stable")]

        def late_half():
            y_late = y[late]
            (q,), (m,) = contract(np.array([KERNEL_RANGE]))
            yq = y_late[:, None] - q
            buf = np.empty_like(yq)
            m_rows = np.ascontiguousarray(m.T)
            h = np.sqrt(U_NODE_REACH * 2.0 * a * s2)
            lo = np.searchsorted(y_late, s2 + q[0] - h, side="right")
            hi = np.searchsorted(y_late, s2 + q[-1] + h, side="left")
            acc = np.zeros(late.size, dtype=float)
            for j, (i0, i1) in enumerate(zip(lo.tolist(), hi.tolist())):
                if i1 > i0:
                    d = np.subtract(yq[i0:i1], s2[j], out=buf[:i1 - i0])
                    np.square(d, out=d)
                    d *= neg_inv[j]
                    np.exp(d, out=d)
                    acc[i0:i1] += d @ m_rows[j]
            acc[np.isnan(y_late)] = np.nan
            sums[late] = acc

        if not late.size:
            early_half()
        elif not early.size:
            late_half()
        else:
            caught = []

            def run_early():
                # numpy's errstate does not carry into a new thread
                try:
                    with np.errstate(over="ignore", divide="ignore",
                                     invalid="ignore"):
                        early_half()
                except BaseException as exc:
                    caught.append(exc)

            helper = threading.Thread(target=run_early)
            helper.start()
            try:
                late_half()
                early_half()  # the blocks the helper has not taken
            finally:
                helper.join()
            if caught:
                raise caught[0]

    out = (a / (2.0 * np.pi) * sums).reshape(t_arr.shape)
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
                          params: MediumParams, order=2, refine=1):
    """Derivative-series restored field for the Gaussian hole.

    Expanding the second-order propagator around a pure delay turns the
    depth integral into a series of spatial derivatives of the frozen
    field evaluated at the readout depth:

        A = (a / 2 pi) * sum_n (beta^n / n!) * [double (p, q) quadrature
            of W(p + q) d^{2n}/dzeta^{2n} (frozen * (rho - zeta)^n)]

    with W the memory weight (``_memory_weight``), beta = a/2 and
    zeta = rho - (y - q).  The n = 0 truncation is the simple depth-slice
    field whose factorized limit is revival_envelope.  The derivatives come
    from ``_series_derivatives`` (Taylor jets, O(order^2) array operations
    per time sample); p and q take 48 refine nodes each.
    Orders above 6 are refused (``check_retrieval_args``); the jets would
    allow more.  Infinite conversion bandwidth only.
    """
    check_retrieval_args(method="series", series_order=order, refine=refine,
                         delta1=schedule.delta1)
    n_pq = 48 * refine
    _, a, rho, _ = _reduced(params)
    dT = pulse.duration
    x = schedule.t_pi1
    memory = _memory_weight(params.gamma_ab)
    beta = 0.5 * a

    p, wp = _gl_interval(n_pq, 0.0, KERNEL_RANGE)

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t_arr.shape, dtype=float)
    for i, ti in enumerate(t_arr.ravel()):
        y = ti - schedule.t_pi2
        qlo = max(0.0, y - rho)
        qhi = min(y, qlo + KERNEL_RANGE)
        if y <= 0 or qhi <= qlo:
            continue
        q, wq = _gl_interval(n_pq, qlo, qhi)
        weight = memory(p[:, None] + q[None, :])
        zeta0 = rho - (y - q)[None, :]
        xh = (x - p)[:, None]
        derivs = _series_derivatives(order, zeta0, xh, dT, a, rho)
        total = sum(beta ** n / math.factorial(n) * deriv
                    for n, deriv in enumerate(derivs))
        out.ravel()[i] = (a / (2.0 * np.pi)
                          * float(np.einsum("i,j,ij->", wp, wq, weight * total)))
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# retrieval driver and efficiency
# ---------------------------------------------------------------------------

METHODS = ("full_quadrature", "established", "revival", "series")


def check_retrieval_args(*, method="full_quadrature", series_order=2,
                         n_time=512, refine=1, delta1=math.inf):
    """Raise one ConfigurationError naming each argument ``retrieve`` would
    refuse; ``retrieve`` calls it before any work, and each route and
    ``retrieval_grid`` for its own arguments (the defaults pass).  Only
    revival models a finite conversion band ``delta1``."""
    bad = []
    if method not in METHODS:
        bad.append(f"method must be one of {METHODS}, got {method!r}")
    elif method != "revival" and not math.isinf(delta1):
        bad.append(f"the {method} route assumes infinite conversion "
                   f"bandwidth, got delta1 = {delta1:g}; only revival "
                   "models a finite band")
    if type(series_order) is not int or not 0 <= series_order <= 6:
        bad.append(f"series_order must be an integer in 0..6, got "
                   f"{series_order!r}")
    if (type(n_time) is not int or n_time < MIN_TIME_SAMPLES
            or n_time & (n_time - 1)):
        bad.append("n_time must be a power of two of at least "
                   f"{MIN_TIME_SAMPLES}, got {n_time!r}")
    if type(refine) is not int or not 1 <= refine <= 2 * MAX_REFINE:
        bad.append(f"refine must be an integer in 1..{2 * MAX_REFINE}, "
                   f"got {refine!r}")
    if bad:
        raise ConfigurationError("; ".join(bad))


def retrieval_grid(pulse: PulseSpec, schedule: StorageSchedule,
                   params: MediumParams, n_time=512) -> np.ndarray:
    """Absolute-time grid of ``n_time`` samples (``check_retrieval_args``)
    covering the restored waveform and its tails."""
    check_retrieval_args(n_time=n_time)
    v, a, rho, _ = _reduced(params)
    dT = pulse.duration
    ymax = rho + 5.0 * math.sqrt(2.0 * a * rho) + 2.0 * dT + 10.0
    return schedule.t_pi2 + np.arange(n_time) * (ymax / n_time)


def retrieve(pulse: PulseSpec, schedule: StorageSchedule, params: MediumParams,
             method="full_quadrature", series_order=2, n_time=512,
             refine=1) -> RetrievalResult:
    """Compute the restored waveform on an auto grid and wrap it up.

    ``refine`` scales the route's quadrature node counts; any but an int
    in 1..2 MAX_REFINE is refused for every method, revival included,
    though revival has no node count to scale (``check_retrieval_args``).
    The regime is reported, not enforced, as the figure panels mix
    regimes: ``validity`` holds the four indicators (the
    margins are those of ``propagation.confinement_report``) and
    ``warnings`` one line per indicator out of regime, and one where the
    (p, q) rule of full quadrature or the series does not resolve the
    memory decay (gamma/delta0 above DECAY_RESOLVED refine^2): the lines a
    CLI sidecar holds.  A restored energy that is not finite and positive, or
    a validity indicator that is not finite, raises NumericsError: a
    degenerate pulse duration or opacity is never reported as eta = 0.
    Every route computes with the Gaussian hole.  What
    ``check_retrieval_args`` refuses, a finite band included, raises
    ConfigurationError before any work.
    """
    check_retrieval_args(method=method, series_order=series_order,
                         n_time=n_time, refine=refine, delta1=schedule.delta1)
    t = retrieval_grid(pulse, schedule, params, n_time=n_time)
    if method == "full_quadrature":
        amp = restored_field_full(t, pulse, schedule, _GAUSSIAN, params,
                                  refine=refine)
    elif method == "established":
        amp = established_signal(t, pulse, schedule, params, refine=refine)
    elif method == "revival":
        amp = revival_envelope(t, pulse, schedule, params)
    else:
        amp = appendix_series_field(t, pulse, schedule, params,
                                    order=series_order, refine=refine)

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

    eta = total / (SQRT_PI * pulse.duration)
    if eta > 1.0:
        raise NumericsError(
            f"restored energy exceeds the input energy (eta = {eta:.6g}); "
            "the quadrature overshoots", residual=eta - 1.0)
    peak_t = env.peak_time() + schedule.t_pi2
    spectral, temporal = confinement_report(pulse.duration, params)
    validity = {
        "revival_condition_fraction": float(
            revival_validity(peak_t, pulse, schedule, params)),
        "established_window_ok": bool(peak_t - schedule.t_pi2 > 5.0),
        "spectral_margin": float(spectral),
        "temporal_margin": float(temporal),
    }
    bad = sorted(key for key, val in validity.items() if not math.isfinite(val))
    if bad:
        raise NumericsError(f"validity indicators {bad} are not finite")
    warnings = []
    if method == "revival" and validity["revival_condition_fraction"] > 0.5:
        warnings.append("revival product form used outside its validity "
                        "window (elapsed time not small against the pulse "
                        "duration squared)")
    if method == "established" and not validity["established_window_ok"]:
        warnings.append("established-signal kernel used before the restored "
                        "peak leaves the early window")
    if spectral < 1.0:
        warnings.append("pulse spectrum not confined inside the hole "
                        "(delta0 T below sqrt(alpha0 L))")
    if temporal < 1.0:
        warnings.append("pulse not confined inside the slab "
                        "(delta0 T above alpha0 L)")
    if (method in ("full_quadrature", "series")
            and params.gamma_ab > DECAY_RESOLVED * refine ** 2):
        warnings.append("memory decay not resolved by the (p, q) rule "
                        f"(gamma/delta0 above {DECAY_RESOLVED:g} refine^2); "
                        "raise refine")
    label = f"series({series_order})" if method == "series" else method
    return RetrievalResult(envelope=env, efficiency=eta, method=label,
                           validity=validity, warnings=tuple(warnings))


def efficiency(pulse: PulseSpec, schedule: StorageSchedule, params: MediumParams,
               method="full_quadrature", series_order=2, n_time=512,
               refine=1) -> float:
    """Recovery efficiency: restored over incoming pulse energy."""
    return retrieve(pulse, schedule, params, method=method,
                    series_order=series_order, n_time=n_time,
                    refine=refine).efficiency
