"""Special functions used by the susceptibility and retrieval kernels.

Thin wrappers over ``scipy.special`` that reject non-finite input with a
``DomainError`` and return a Python scalar for scalar input:

* ``dawson``  -- F(x) = exp(-x^2) * integral_0^x exp(t^2) dt
* ``erf`` / ``erfc`` -- the error function pair
* ``erfcx``  -- scaled complement exp(x^2) * erfc(x), needed for the
  Voigt-center absorption value without overflow
* ``faddeeva`` -- w(z) = exp(-z^2) erfc(-i z) of a complex argument, the
  Gaussian-hole susceptibility at gamma_ab > 0

``scipy.special`` (~0.3 s and ~18 MB with the numpy submodules it pulls
in) is imported on the first call of any of the five, through ``_scipy``;
importing this module loads numpy only.  A run that never evaluates one,
such as a full-quadrature sweep, never loads it.  This is the only module
that names ``scipy.special``.
"""

from functools import cache

import numpy as np

from .errors import DomainError

SQRT_PI = np.sqrt(np.pi)


@cache
def _scipy():
    """``scipy.special``, imported on the first call."""
    from scipy import special

    return special


def _apply(ufunc, x, name, dtype=float):
    arr = np.asarray(x, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: input must be finite")
    out = getattr(_scipy(), ufunc)(arr)
    return out.item() if out.ndim == 0 else out


def dawson(x):
    """Dawson integral F(x)."""
    return _apply("dawsn", x, "dawson")


def erf(x):
    """Error function."""
    return _apply("erf", x, "erf")


def erfc(x):
    """Complementary error function, without cancellation for large x."""
    return _apply("erfc", x, "erfc")


def erfcx(x):
    """Scaled complement exp(x^2) erfc(x); stays finite for large positive x."""
    return _apply("erfcx", x, "erfcx")


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z) (complex argument)."""
    return _apply("wofz", z, "faddeeva", dtype=complex)
