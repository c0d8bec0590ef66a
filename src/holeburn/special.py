"""Real-argument special functions used by the susceptibility and retrieval kernels.

All functions accept scalars or numpy arrays and evaluate elementwise.  The
implementations are self-contained (no library special functions) so that the
test suite can check them against independent series / quadrature oracles:

* ``dawson``  -- F(x) = exp(-x^2) * integral_0^x exp(t^2) dt
* ``erf`` / ``erfc`` -- the error function pair, with ``erfc`` computed
  without cancellation for large arguments
* ``erfcx``  -- scaled complement exp(x^2) * erfc(x), needed for the
  Voigt-center absorption value without overflow

Evaluation is split by argument magnitude: Maclaurin series near the origin,
a sampled-Gaussian sum (Rybicki) or a Lentz continued fraction in the middle
range, and the asymptotic expansion far out.  The split keeps every branch
free of catastrophic cancellation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SQRT_PI = np.sqrt(np.pi)

# Rybicki sampled-Gaussian parameters for the Dawson middle range.  The
# sampling error scales as exp(-(pi/(2h))^2); h = 0.25 gives ~7e-18.
_RYBICKI_H = 0.25
_RYBICKI_TERMS = 16  # one-sided; covers |x - nh| <= 8

# Continued-fraction iteration cap for erfc.
_CF_MAX_ITER = 120
_TINY = 1e-300


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy contract for the special functions.

    ``abs_tol`` is capped at 1e-8 because downstream second-order
    cancellations (susceptibility expansions) amplify absolute errors.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.abs_tol > 1e-8:
            raise ValueError("abs_tol must not exceed 1e-8")


DEFAULT_BUDGET = AccuracyBudget()


def _as_checked_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: input must be finite")
    return arr


def _scalar_like(x, result):
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(result)
    return result


def _dawson_series(x):
    # F(x) = sum_n (-1)^n 2^n x^(2n+1) / (2n+1)!!, |x| <~ 2.5
    term = x.copy()
    total = x.copy()
    for n in range(60):
        term = term * (-2.0 * x * x) / (2 * n + 3)
        total += term
    return total


def _dawson_rybicki(x):
    # Sampled-Gaussian representation (x > 0):
    #   F(x) ~= (1/sqrt(pi)) * sum_{n odd} exp(-(x - n h)^2) / n
    h = _RYBICKI_H
    n0 = np.rint((x / h - 1.0) / 2.0).astype(int) * 2 + 1  # nearest odd
    offsets = np.arange(-2 * _RYBICKI_TERMS, 2 * _RYBICKI_TERMS + 1, 2)
    n = n0[..., None] + offsets
    z = x[..., None] - n * h
    return np.sum(np.exp(-z * z) / n, axis=-1) / SQRT_PI


def _dawson_asymptotic(x):
    # F(x) ~ 1/(2x) * (1 + 1/(2x^2) + 3/(4x^4) + 15/(8x^6) + ...)
    inv2 = 1.0 / (2.0 * x * x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 6):
        term = term * (2 * k - 1) * inv2
        total += term
    return total / (2.0 * x)


def dawson(x, budget: AccuracyBudget = DEFAULT_BUDGET):
    """Dawson integral F(x), odd in x, accurate to the budget everywhere."""
    arr = _as_checked_array(x, "dawson")
    ax = np.abs(arr)
    out = np.empty_like(ax)

    small = ax < 2.5
    large = ax >= 1e4
    mid = ~small & ~large
    if np.any(small):
        out[small] = _dawson_series(ax[small])
    if np.any(mid):
        out[mid] = _dawson_rybicki(ax[mid])
    if np.any(large):
        out[large] = _dawson_asymptotic(ax[large])
    out = np.copysign(out, arr) if out.ndim else np.copysign(out, arr)
    return _scalar_like(x, out)


def _erf_series(x):
    # erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1)), |x| <= 2
    x2 = x * x
    term = x.copy()
    total = x / 1.0
    for n in range(64):
        term = term * (-x2) / (n + 1)
        total += term / (2 * n + 3)
    return (2.0 / SQRT_PI) * total


def _erfcx_cf(x):
    # Modified Lentz evaluation of the continued fraction
    #   erfcx(x) = (1/sqrt(pi)) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # valid and rapidly convergent for x >= 2.
    b = x.copy()
    f = b.copy()  # first convergent: f0 = x
    c = b.copy()
    d = np.zeros_like(x)
    for k in range(1, _CF_MAX_ITER):
        a = 0.5 * k
        d = b + a * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + a / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = c * d
        f = f * delta
        if np.all(np.abs(delta - 1.0) < 1e-17):
            break
    return 1.0 / (SQRT_PI * f)


def erf(x, budget: AccuracyBudget = DEFAULT_BUDGET):
    """Error function, odd symmetry exact."""
    arr = _as_checked_array(x, "erf")
    ax = np.abs(arr)
    out = np.empty_like(ax)
    small = ax <= 2.0
    if np.any(small):
        out[small] = _erf_series(ax[small])
    if np.any(~small):
        xs = ax[~small]
        out[~small] = 1.0 - np.exp(-xs * xs) * _erfcx_cf(xs)
    out = np.copysign(out, arr)
    return _scalar_like(x, out)


def erfc(x, budget: AccuracyBudget = DEFAULT_BUDGET):
    """Complementary error function without cancellation for large x."""
    arr = _as_checked_array(x, "erfc")
    out = np.empty_like(arr, dtype=float)
    neg = arr < 0.0
    ax = np.abs(arr)
    small = ax <= 2.0
    pos_small = small
    if np.any(pos_small):
        out[pos_small] = 1.0 - _erf_series(ax[pos_small])
    big = ~small
    if np.any(big):
        xs = ax[big]
        out[big] = np.exp(-xs * xs) * _erfcx_cf(xs)
    out = np.where(neg, 2.0 - out, out)
    return _scalar_like(x, out)


def erfcx(x, budget: AccuracyBudget = DEFAULT_BUDGET):
    """Scaled complement exp(x^2) erfc(x); stays finite for large positive x."""
    arr = _as_checked_array(x, "erfcx")
    ax = np.abs(arr)
    out = np.empty_like(ax)
    small = ax <= 2.0
    if np.any(small):
        xs = ax[small]
        out[small] = np.exp(xs * xs) * (1.0 - _erf_series(xs))
    if np.any(~small):
        out[~small] = _erfcx_cf(ax[~small])
    neg = arr < 0.0
    if np.any(neg):
        out = np.where(neg, 2.0 * np.exp(np.minimum(arr * arr, 700.0)) - out, out)
    return _scalar_like(x, out)
