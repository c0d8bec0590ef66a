"""Special-function accuracy tests against frozen independent oracles.

Frozen reference values were computed with 30-digit mpmath quadrature of
the defining integrals; the defining integrals are also checked directly
with adaptive quadrature.
"""

import inspect
import json
import math

import numpy as np
import pytest
import scipy.special
from scipy import integrate

from holeburn.errors import DomainError
from holeburn.special import dawson, erf, erfc, erfcx, faddeeva


class TestDawson:
    def test_zero(self):
        assert dawson(0.0) == 0.0

    def test_frozen_values(self):
        assert dawson(0.924139) == pytest.approx(0.54104422463517297, abs=1e-12)
        assert dawson(10.0) == pytest.approx(0.050253847187598528, abs=1e-12)
        assert dawson(1.0) == pytest.approx(0.53807950691276842, abs=1e-12)

    def test_odd_symmetry_exact(self):
        x = np.array([0.1, 0.7, 2.5, 8.0, 30.0])
        assert np.array_equal(dawson(-x), -dawson(x))

    def test_ode_property(self):
        # F'(x) = 1 - 2 x F(x), checked by central differences
        h = 1e-5
        for x in [0.2, 0.9, 1.7, 4.0, 7.5]:
            deriv = (dawson(x + h) - dawson(x - h)) / (2 * h)
            assert deriv == pytest.approx(1.0 - 2.0 * x * dawson(x), abs=1e-8)

    def test_maximum_location(self):
        x = np.linspace(0.85, 1.0, 3001)
        f = dawson(x)
        i = int(np.argmax(f))
        assert 0.92 <= x[i] <= 0.93
        assert 0.5410 <= f[i] <= 0.5411

    def test_against_scipy(self):
        x = np.linspace(-12.0, 12.0, 4001)
        np.testing.assert_allclose(dawson(x), scipy.special.dawsn(x),
                                   atol=1e-12, rtol=1e-10)

    def test_against_defining_integral(self):
        for x in [-3.0, 0.3, 0.924139, 2.5, 6.0]:
            ref, _ = integrate.quad(lambda t: math.exp(t * t - x * x), 0.0, x,
                                    epsabs=1e-14, epsrel=1e-13)
            assert dawson(x) == pytest.approx(ref, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            dawson(np.nan)
        with pytest.raises(DomainError):
            dawson(np.inf)


class TestErfFamily:
    def test_trivial(self):
        assert erf(0.0) == 0.0

    def test_frozen_values(self):
        assert erf(1.0) == pytest.approx(0.84270079294971487, abs=1e-12)
        assert erfc(5.0) == pytest.approx(1.5374597944280349e-12, rel=1e-10)

    def test_complement_identity(self):
        x = np.linspace(-10.0, 10.0, 2001)
        np.testing.assert_allclose(erf(x) + erfc(x), 1.0, atol=1e-14)

    def test_erfc_relative_accuracy_large_x(self):
        for x in [3.0, 6.0, 8.0, 10.0]:
            assert erfc(x) == pytest.approx(float(scipy.special.erfc(x)),
                                            rel=1e-10)

    def test_erfcx_consistency(self):
        x = np.linspace(0.0, 26.0, 801)
        np.testing.assert_allclose(erfcx(x), scipy.special.erfcx(x),
                                   rtol=1e-10, atol=1e-12)

    def test_against_scipy(self):
        x = np.linspace(-6.0, 6.0, 2401)
        np.testing.assert_allclose(erf(x), scipy.special.erf(x),
                                   atol=1e-12, rtol=1e-10)

    def test_against_defining_integral(self):
        for x in [-2.0, 0.4, 1.0, 3.0, 5.5]:
            tail, _ = integrate.quad(lambda t: math.exp(-t * t), abs(x),
                                     np.inf, epsabs=0.0, epsrel=1e-13)
            tail *= 2.0 / math.sqrt(math.pi)
            ref = 2.0 - tail if x < 0 else tail
            assert erfc(x) == pytest.approx(ref, rel=1e-12)
            assert erf(x) == pytest.approx(1.0 - ref, rel=1e-12, abs=1e-15)
            assert erfcx(x) == pytest.approx(math.exp(x * x) * ref, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            erf(np.inf)
        with pytest.raises(DomainError):
            erfc(np.nan)


class TestFaddeeva:
    def test_axes_identities(self):
        # w(x) = e^{-x^2} + (2i/sqrt(pi)) F(x) on the real axis and
        # w(iy) = erfcx(y) on the imaginary one
        x = np.array([-4.0, -0.3, 0.0, 0.8, 2.5, 12.0])
        want = np.exp(-x * x) + 2j / math.sqrt(math.pi) * dawson(x)
        np.testing.assert_allclose(faddeeva(x), want, rtol=1e-14, atol=1e-16)
        y = np.array([0.001, 0.3, 5.0])
        np.testing.assert_allclose(faddeeva(1j * y), erfcx(y), rtol=1e-14)

    def test_scalar_in_complex_out(self):
        assert type(faddeeva(0.5 + 0.01j)) is complex

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            faddeeva(complex(1.0, np.inf))


@pytest.mark.parametrize("func", [dawson, erf, erfc, erfcx])
def test_scalar_in_float_out_and_one_parameter_x(func):
    # callers rely on a plain float for scalar input; wrappers that bind
    # arguments by name rely on the single parameter being called x
    assert type(func(0.5)) is float
    assert func(np.array([0.5, 1.0])).shape == (2,)
    assert list(inspect.signature(func).parameters) == ["x"]


def first_call_values():
    # the four functions on scalars and on one array, as JSON-exact floats
    from holeburn import special

    x = [-5.0, -0.1, 0.0, 1e-8, 0.7, 2.5, 9.0, 27.0]
    return {name: [getattr(special, name)(v) for v in x]
            + getattr(special, name)(np.array(x)).tolist()
            for name in ("dawson", "erf", "erfc", "erfcx")}


def test_first_call_loads_scipy_special(fresh_python):
    # scipy.special loads on the first call of a special function; called
    # first thing in a fresh interpreter, every function must give the
    # in-process values bit for bit
    code = ("import numpy as np\n" + inspect.getsource(first_call_values)
            + """
import json, sys
import holeburn
before = "scipy.special" in sys.modules
values = first_call_values()
print(json.dumps({"before": before, "after": "scipy.special" in sys.modules,
                  "values": values}))
""")
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr
    fresh = json.loads(result.stdout)
    assert (fresh["before"], fresh["after"]) == (False, True)
    assert fresh["values"] == first_call_values()
