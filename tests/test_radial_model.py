"""Radial measures: moments, coefficients, CDF machinery, validation.

Moment oracles are closed forms computed independently of the package:

  gaussian            E[r^k] has the chi-distribution moments,
                      m2 = n, m4 = n (n + 2)
  exponential power   E[r^k] = alpha^{k/alpha} Gamma((n+k)/alpha) / Gamma(n/alpha)
  uniform ball        E[r^k] = n / (n + k)
  heavy polynomial    E[r^2] = n / (2 beta - n - 2),
  tail                E[r^4] = n (n+2) / ((2 beta - n - 2)(2 beta - n - 4))
"""

import math

import numpy as np
import pytest
from scipy import integrate

from specgap import (
    BoundBracket,
    InvalidInput,
    NonIntegrable,
    RadialPotential,
    Weight,
    build_measure,
    cauchy_potential,
    diagnostic_grid,
    drift,
    drift_derivative,
    effective_potential,
    exp_power_potential,
    expectation,
    gaussian_potential,
    make_weight,
    moment,
    one_plus_r2_weight,
    tail_mass,
    truncation_radius,
    validate_weight,
    weighted_moment,
)


def _gaussian(n):
    return build_measure(n, gaussian_potential())


# ---------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------


def test_gaussian_moments():
    for n in (2, 3, 5, 8):
        mu = _gaussian(n)
        assert abs(moment(mu, 2) - n) <= 1e-9 * n
        assert abs(moment(mu, 4) - n * (n + 2)) <= 1e-9 * n * (n + 2)


def test_exp_power_moments():
    for n, alpha in ((3, 1.0), (2, 1.5), (5, 4.0)):
        mu = build_measure(n, exp_power_potential(alpha))
        exact = (alpha ** (2.0 / alpha)
                 * math.exp(math.lgamma((n + 2.0) / alpha)
                            - math.lgamma(n / alpha)))
        assert abs(moment(mu, 2) - exact) <= 1e-9 * exact
    # alpha = 1, n = 3 in closed form: Gamma(5)/Gamma(3) = 12
    mu = build_measure(3, exp_power_potential(1.0))
    assert abs(moment(mu, 2) - 12.0) <= 1e-8


def test_ball_moments():
    from specgap import ball_potential
    for n in (2, 5):
        mu = build_measure(n, ball_potential())
        assert abs(moment(mu, 2) - n / (n + 2.0)) <= 1e-10
        assert abs(moment(mu, 4) - n / (n + 4.0)) <= 1e-10


def test_heavy_tail_moments():
    mu = build_measure(3, cauchy_potential(4.0))
    assert abs(moment(mu, 2) - 1.0) <= 1e-9
    assert abs(moment(mu, 4) - 5.0) <= 5e-9
    with pytest.raises(NonIntegrable):
        moment(mu, 6)  # needs 2 beta > n + 6
    thin = build_measure(3, cauchy_potential(2.0))
    with pytest.raises(NonIntegrable):
        moment(thin, 2)  # needs 2 beta > n + 2


def test_moment_rejects_bad_order():
    mu = _gaussian(2)
    for bad in (-1, 2.5, "2", True):
        if bad is True:
            # bool is an int subclass; order True means order 1, allowed
            continue
        with pytest.raises(InvalidInput):
            moment(mu, bad)


def test_weighted_moments_gaussian_one_plus():
    mu = _gaussian(3)
    w = one_plus_r2_weight()
    # independent quadrature oracles against the chi_3 radial density
    dens = lambda r: mu.density(r)
    ref_r2s2, _ = integrate.quad(lambda r: r * r / (1 + r * r) * dens(r),
                                 0, 60, limit=300)
    ref_s2, _ = integrate.quad(lambda r: (1 + r * r) * dens(r),
                               0, 60, limit=300)
    assert abs(weighted_moment(mu, w, "r2_over_s2") - ref_r2s2) <= 1e-8
    assert abs(weighted_moment(mu, w, "s2") - ref_s2) <= 1e-8
    assert abs(ref_s2 - 4.0) <= 1e-9  # 1 + m2
    with pytest.raises(InvalidInput):
        weighted_moment(mu, w, "s4")


# ---------------------------------------------------------------------
# generator coefficients
# ---------------------------------------------------------------------


def test_effective_potential_gaussian():
    mu = _gaussian(5)
    u, du, d2u = effective_potential(mu)
    r = np.linspace(0.2, 6.0, 40)
    assert np.allclose(u(r), r * r / 2 - 4 * np.log(r), rtol=1e-12)
    assert np.allclose(du(r), r - 4 / r, rtol=1e-12)
    assert np.allclose(d2u(r), 1 + 4 / (r * r), rtol=1e-12)


def test_drift_formulas():
    mu = _gaussian(3)
    r = np.linspace(0.3, 5.0, 30)
    b_unit = drift(mu, make_weight("unit"))
    assert np.allclose(b_unit(r), -(r - 2 / r), rtol=1e-12)
    b_w = drift(mu, one_plus_r2_weight())
    expect = 2 * r - (1 + r * r) * (r - 2 / r)
    assert np.allclose(b_w(r), expect, rtol=1e-12)


def test_drift_derivative_matches_finite_differences():
    mu = build_measure(3, cauchy_potential(4.0))
    w = one_plus_r2_weight()
    b = drift(mu, w)
    db = drift_derivative(mu, w)
    h = 1e-6
    for r in (0.4, 1.0, 3.7, 20.0):
        fd = (b(r + h) - b(r - h)) / (2 * h)
        assert abs(db(r) - fd) <= 1e-5 * (1 + abs(fd))


def test_drift_rejects_nonpositive_radius():
    from specgap import DomainError
    b = drift(_gaussian(2), make_weight("unit"))
    with pytest.raises(DomainError):
        b(np.array([0.5, -1.0]))
    with pytest.raises(DomainError):
        b(0.0)


# ---------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------


def test_validate_weight_catches_wrong_derivative():
    mu = _gaussian(3)
    w = one_plus_r2_weight()
    broken = Weight(s2=w.s2, ds2=lambda r: 3.0 * np.asarray(r), d2s2=w.d2s2,
                    s=w.s, ds=w.ds, d2s=w.d2s, name="broken")
    with pytest.raises(InvalidInput):
        validate_weight(mu, broken)
    # the genuine weight passes
    validate_weight(mu, w)


def test_bound_bracket_validation():
    ok = BoundBracket(1.0, 2.0, "a", "b")
    assert ok.lower == 1.0 and ok.upper == 2.0
    with pytest.raises(InvalidInput):
        BoundBracket(2.0, 1.0, "a", "b")
    with pytest.raises(InvalidInput):
        BoundBracket(-1.0, 1.0, "a", "b")
    # +inf upper is a legitimate one-sided statement
    one_sided = BoundBracket(1.0, math.inf, "a", "none")
    assert math.isinf(one_sided.upper)


def test_radial_potential_validation():
    with pytest.raises(InvalidInput):
        RadialPotential(v=lambda r: r, dv=lambda r: 1.0,
                        d2v=lambda r: 0.0, domain_end=0.0)


# ---------------------------------------------------------------------
# measure construction: normalization, CDF, truncation
# ---------------------------------------------------------------------


def test_normalization_and_cdf():
    for pot, hi in ((gaussian_potential(), 40.0),
                    (cauchy_potential(4.0), None)):
        mu = build_measure(3, pot)
        top = hi if hi is not None else mu.r_max
        total, _ = integrate.quad(lambda r: mu.density(r), 0, top,
                                  limit=400)
        assert abs(total - 1.0) <= 1e-7, f"density of {pot.name} not normalized"
        assert mu.cdf(mu.r_max) >= 1.0 - 1e-9
        assert mu.cdf(0.0) <= 1e-12


def test_quantile_cdf_round_trip():
    mu = build_measure(4, gaussian_potential())
    ps = np.linspace(0.001, 0.999, 41)
    rs = mu.quantile(ps)
    back = mu.cdf(rs)
    assert np.max(np.abs(back - ps)) <= 1e-6
    # scalar in, scalar out
    assert isinstance(mu.quantile(0.5), float)
    with pytest.raises(InvalidInput):
        mu.quantile(1.5)


def test_truncation_radius_monotone_in_tolerance():
    mu = build_measure(3, cauchy_potential(4.0))
    r8 = truncation_radius(mu, 1e-8)
    r12 = truncation_radius(mu, 1e-12)
    assert r12 > r8 > 0
    assert tail_mass(mu, r8) <= 2e-8


def test_tail_mass_consistent_with_cdf():
    mu = _gaussian(3)
    for r in (0.5, 2.0, 4.0):
        assert abs(tail_mass(mu, r) - (1.0 - mu.cdf(r))) <= 1e-6


def test_ball_cdf_and_tail_mass_at_the_wall():
    # nu((r, 1)) = 1 - r^n right up to the wall, where the density of a
    # bounded law is still n, not zero
    from specgap import ball_potential
    mu = build_measure(8, ball_potential())
    for gap in (1e-3, 1e-6, 1e-9):
        r = 1.0 - gap
        exact = -np.expm1(8.0 * np.log(r))
        assert abs((1.0 - mu.cdf(r)) - exact) <= 1e-6 * exact
        assert abs(tail_mass(mu, r) - exact) <= 1e-6 * exact


def test_diagnostic_grid_inside_support():
    from specgap import ball_potential
    ball = build_measure(4, ball_potential())
    g = diagnostic_grid(ball, count=101)
    assert g.shape == (101,)
    assert np.all(g > 0) and np.all(g <= 1.0)
    assert np.all(np.diff(g) > 0)


def test_expectation_log_scale_heavy_tail():
    # E[r^2] of a slowly decaying law needs the log-scale tail probe
    mu = build_measure(2, cauchy_potential(2.6))
    # closed form n/(2 beta - n - 2) = 2/(5.2 - 4)
    exact = 2.0 / 1.2
    got = expectation(mu, lambda r: r * r,
                      log_abs_g=lambda r: 2.0 * np.log(r), positive=True)
    assert abs(got - exact) <= 1e-8 * exact


def test_build_measure_rejects_bad_dimension():
    with pytest.raises(InvalidInput):
        build_measure(1, gaussian_potential())
    with pytest.raises(InvalidInput):
        build_measure(True, gaussian_potential())
