"""The Gauss-Kronrod engine against an independent oracle.

Oracle: mpmath.quad at 30 significant digits on explicitly written
integrands (tanh-sinh, nothing shared with the package).  Each package
value must agree with the oracle to 1e-12 relative and lie within the
error the engine reported for it; the reported errors are read by
wrapping tail_integral where radial_model looks it up.
"""

import math

import mpmath
import numpy as np
import pytest

from specgap import (
    ball_potential,
    build_measure,
    cauchy_potential,
    exp_power_potential,
    expectation,
    gaussian_potential,
    moment,
    tail_mass,
)
from specgap import radial_model
from specgap.errors import NonIntegrable
from specgap.quadrature import (GK_GAUSS, GK_KRONROD, GK_NODES,
                                gauss_kronrod, tail_integral)

mpmath.mp.dps = 30


@pytest.fixture
def reported(monkeypatch):
    """Absolute (value, error) of every engine call radial_model makes."""
    calls = []

    def spy_tail(*args, **kwargs):
        val, err, log_scale = tail_integral(*args, **kwargs)
        calls.append((val * math.exp(log_scale), err * math.exp(log_scale)))
        return val, err, log_scale

    monkeypatch.setattr(radial_model, "tail_integral", spy_tail)
    return calls


def _check(got, oracle, value_err):
    value, err = value_err
    assert abs(got - oracle) <= 1e-12 * abs(oracle), (got, oracle)
    assert abs(value - oracle) <= err, (value, err, oracle)


def test_gaussian_normalization(reported):
    mu = build_measure(3, gaussian_potential())
    oracle = float(mpmath.quad(lambda r: r ** 2 * mpmath.exp(-r ** 2 / 2),
                               [0, mpmath.inf]))
    _check(mu.z, oracle, reported[0])


def test_exp_power_fourth_moment(reported):
    a = mpmath.mpf(3) / 2
    dens = lambda r, k: r ** (3 + k) * mpmath.exp(-r ** a / a)
    oracle = float(mpmath.quad(lambda r: dens(r, 4), [0, mpmath.inf])
                   / mpmath.quad(lambda r: dens(r, 0), [0, mpmath.inf]))
    mu = build_measure(4, exp_power_potential(1.5))
    reported.clear()
    _check(moment(mu, 4), oracle, reported[-1])


def test_cauchy_tail_mass(reported):
    dens = lambda r: r ** 2 / (1 + r ** 2) ** 3
    oracle = float(mpmath.quad(dens, [10, mpmath.inf])
                   / mpmath.quad(dens, [0, mpmath.inf]))
    mu = build_measure(3, cauchy_potential(3.0))
    reported.clear()
    _check(tail_mass(mu, 10.0), oracle, reported[-1])


def test_ball_second_moment(reported):
    oracle = float(mpmath.quad(lambda r: r ** 9, [0, 1])
                   / mpmath.quad(lambda r: r ** 7, [0, 1]))
    mu = build_measure(8, ball_potential())
    reported.clear()
    _check(moment(mu, 2), oracle, reported[-1])


def test_ball_signed_log_expectation(reported):
    # E[log r] = -1/3 on the ball n = 3: signed, and still live at the wall
    oracle = float(mpmath.quad(lambda r: 3 * r ** 2 * mpmath.log(r), [0, 1]))
    assert abs(oracle + 1.0 / 3.0) < 1e-25
    mu = build_measure(3, ball_potential())
    reported.clear()
    _check(expectation(mu, lambda r: np.log(r)), oracle, reported[-1])


def test_signed_expectation(reported):
    # g = r - 3/2 changes sign inside the bulk of the chi_3 law
    dens = lambda r: r ** 2 * mpmath.exp(-r ** 2 / 2)
    oracle = float(mpmath.quad(lambda r: (r - 1.5) * dens(r), [0, mpmath.inf])
                   / mpmath.quad(dens, [0, mpmath.inf]))
    mu = build_measure(3, gaussian_potential())
    reported.clear()
    _check(expectation(mu, lambda r: r - 1.5), oracle, reported[-1])


def test_tail_integral_calls_integrand_with_arrays_only():
    # a signed heavy-tail integrand, so the sign of the extrapolated tail
    # is looked up too
    calls = {"log_abs": [], "sign": []}

    def log_abs(r):
        calls["log_abs"].append(np.ndim(r))
        return (2.0 * np.log(r) - 3.0 * np.log1p(r * r)
                + np.log(np.abs(r - 1.0)))

    def sign(r):
        calls["sign"].append(np.ndim(r))
        return np.sign(r - 1.0)

    tail_integral(log_abs, sign_fn=sign, rel_tol=1e-12, accept_rel=1e-10)
    assert set(calls["log_abs"]) == {1}
    assert set(calls["sign"]) == {1}


def test_tail_integral_hard_end_takes_no_tail_charge():
    # integrands still live at a finite r_hi: the domain ends there, so
    # nothing past it is extrapolated, whether the integrand falls (an
    # open end would charge a tail) or rises (an open end would diverge)
    for log_abs, lo, exact in ((lambda r: -r, 0.0, -math.expm1(-2.0)),
                               (lambda r: 2.0 * np.log(r), 0.5, 21.0 / 8.0)):
        val, err, log_scale = tail_integral(log_abs, lo, 2.0, rel_tol=1e-13)
        assert abs(val * math.exp(log_scale) - exact) <= 1e-13 * exact
        assert err * math.exp(log_scale) <= 1e-13 * exact
    with pytest.raises(NonIntegrable):
        tail_integral(lambda r: 2.0 * np.log(r), 0.5, rel_tol=1e-13)


def test_kronrod_rule_exact_to_degree_31():
    x, wk, wg = GK_NODES, GK_KRONROD, GK_GAUSS
    for d in range(32):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(wk @ x ** d - exact) < 1e-15
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.allclose(x[wg > 0], gx, rtol=0, atol=1e-15)
    assert np.allclose(wg[wg > 0], gw, rtol=0, atol=1e-15)


def test_gauss_kronrod_bisects_a_kink_to_tolerance():
    # |u - 1/3| has a kink no panel edge hits; the estimate must still
    # be honest after adaptive bisection
    val, err = gauss_kronrod(lambda u: np.abs(u - 1.0 / 3.0), 0.0, 1.0,
                             rel_tol=1e-12)
    exact = 5.0 / 18.0
    assert abs(val - exact) <= err <= 1e-12 * exact
