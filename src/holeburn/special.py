"""Real-argument special functions used by the susceptibility and retrieval kernels.

Thin wrappers over ``scipy.special`` that reject non-finite input with a
``DomainError`` and return a float for scalar input:

* ``dawson``  -- F(x) = exp(-x^2) * integral_0^x exp(t^2) dt
* ``erf`` / ``erfc`` -- the error function pair
* ``erfcx``  -- scaled complement exp(x^2) * erfc(x), needed for the
  Voigt-center absorption value without overflow
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError

SQRT_PI = np.sqrt(np.pi)


def _apply(func, x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: input must be finite")
    out = func(arr)
    return float(out) if out.ndim == 0 else out


def dawson(x):
    """Dawson integral F(x)."""
    return _apply(_sp.dawsn, x, "dawson")


def erf(x):
    """Error function."""
    return _apply(_sp.erf, x, "erf")


def erfc(x):
    """Complementary error function, without cancellation for large x."""
    return _apply(_sp.erfc, x, "erfc")


def erfcx(x):
    """Scaled complement exp(x^2) erfc(x); stays finite for large positive x."""
    return _apply(_sp.erfcx, x, "erfcx")
