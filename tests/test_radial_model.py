"""Radial measures: moments, coefficients, quantile table, validation.

Moment oracles are closed forms computed independently of the package:

  gaussian            E[r^k] has the chi-distribution moments,
                      m2 = n, m4 = n (n + 2)
  exponential power   E[r^k] = alpha^{k/alpha} Gamma((n+k)/alpha) / Gamma(n/alpha)
  uniform ball        E[r^k] = n / (n + k)
  heavy polynomial    E[r^2] = n / (2 beta - n - 2),
  tail                E[r^4] = n (n+2) / ((2 beta - n - 2)(2 beta - n - 4))
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from specgap import radial_model
from specgap import (
    BoundBracket,
    DomainError,
    InvalidInput,
    NonIntegrable,
    RadialPotential,
    Weight,
    ball_potential,
    build_measure,
    cauchy_potential,
    diagnostic_grid,
    exp_power_potential,
    expectation,
    make_weight,
    moment,
    power_law_candidate,
    power_weight,
    tail_mass,
    truncation_radius,
    validate_candidate,
    validate_weight,
    variational_potential,
    weighted_curvature,
    weighted_moment,
)
from specgap.catalog import catalog_grid, make_family


def _gaussian(n):
    return build_measure(n, exp_power_potential(2.0))


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
    w = power_weight(1)
    # independent quadrature oracles against the chi_3 radial density
    dens = lambda r: math.exp(mu.log_density(r))
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
# generator coefficients, as the bounds engine evaluates them
# ---------------------------------------------------------------------


@pytest.mark.parametrize("case", ["cauchy", "gaussian"])
def test_variational_potential_matches_generator_differences(case):
    # -(Lf)'/f' for f = r^2.5, with L f = sigma^2 f'' + b f' written out
    # here (n = 3, b = (sigma^2)' - sigma^2 (V' - 2/r)) and its derivative
    # taken by central differences: this checks the drift b and b'
    if case == "cauchy":
        mu, w = build_measure(3, cauchy_potential(4.0)), power_weight(1)
        s2 = lambda r: 1.0 + r * r
        b = lambda r: 2.0 * r - (1.0 + r * r) * (8.0 * r / (1.0 + r * r)
                                                 - 2.0 / r)
    else:
        mu, w = _gaussian(3), make_weight("unit")
        s2 = lambda r: 1.0
        b = lambda r: -(r - 2.0 / r)
    lf = lambda r: s2(r) * 3.75 * r ** 0.5 + b(r) * 2.5 * r ** 1.5
    vf = variational_potential(mu, w, power_law_candidate(2.5))
    for r in (0.4, 1.0, 3.7, 20.0):
        h = 1e-5 * r
        want = -(lf(r + h) - lf(r - h)) / (2.0 * h) / (2.5 * r ** 1.5)
        assert abs(vf(r) - want) <= 1e-7 * (1.0 + abs(want)), (r, want)


def test_drift_rejects_nonpositive_radius():
    # the coefficient callables a caller can hand radii to
    mu, w = _gaussian(2), make_weight("unit")
    for fn in (variational_potential(mu, w, power_law_candidate(2.0)),
               weighted_curvature(mu, w)):
        with pytest.raises(DomainError):
            fn(np.array([0.5, -1.0]))
        with pytest.raises(DomainError):
            fn(0.0)


# ---------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------


def test_validate_weight_catches_wrong_derivative():
    mu = _gaussian(3)
    w = power_weight(1)
    broken = Weight(s2=w.s2, ds2=lambda r: 3.0 * np.asarray(r), d2s2=w.d2s2,
                    name="broken")
    with pytest.raises(InvalidInput):
        validate_weight(mu, broken)
    # the genuine weight passes
    validate_weight(mu, w)


def _nan_past(fn, r0=1.5):
    """fn, but NaN at radii above r0."""
    def broken(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > r0, np.nan, fn(r))
    return broken


@pytest.mark.parametrize("derivative", ["V'", "(sigma^2)'", "f'"])
def test_nan_derivative_is_rejected(derivative):
    # a NaN deviation is not <= the tolerance: each derivative check
    # (build, weight, candidate) rejects a derivative that is NaN past
    # r = 1.5, inside the gaussian n = 3 grid, and names the radius
    pot = exp_power_potential(2.0)
    weight = power_weight(1)
    cand = power_law_candidate(2.0)
    with pytest.raises(InvalidInput, match=r"deviation not finite at "
                                           r"r ~ 1\.[5-9]"):
        if derivative == "V'":
            build_measure(3, replace(pot, dv=_nan_past(pot.dv)))
        elif derivative == "(sigma^2)'":
            validate_weight(_gaussian(3), replace(weight,
                                                  ds2=_nan_past(weight.ds2)))
        else:
            validate_candidate(_gaussian(3),
                               replace(cand, df=_nan_past(cand.df)))


def test_derivative_check_differences_values_near_the_overflow():
    # f = r^2 near 3e307: the stencil's differences over h would pass
    # 1.8e308, so the check differences before it divides
    grid = np.geomspace(1e153, 5.5e153, 9)
    radial_model._fd_check(lambda r: r * r, lambda r: 2.0 * r, "f'", grid)


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
# measure construction: normalization, quantile, truncation
# ---------------------------------------------------------------------


def test_normalization_and_cdf():
    for pot, hi in ((exp_power_potential(2.0), 40.0),
                    (cauchy_potential(4.0), None)):
        mu = build_measure(3, pot)
        top = hi if hi is not None else truncation_radius(mu, 1e-12)
        total, _ = integrate.quad(lambda r: math.exp(mu.log_density(r)),
                                  0, top, limit=400)
        assert abs(total - 1.0) <= 1e-7, f"density of {pot.name} not normalized"
        # the quantile table spans the law, with CDF = 1 - tail_mass
        assert tail_mass(mu, mu.quantile(1.0)) <= 1e-9
        assert tail_mass(mu, mu.quantile(0.0)) >= 1.0 - 1e-12


def test_quantile_cdf_round_trip():
    # the CDF at the quantile of p, by quadrature: 1 - tail_mass = p
    for mu in (build_measure(4, exp_power_potential(2.0)),
               build_measure(3, cauchy_potential(4.0))):
        for p in np.linspace(0.001, 0.999, 41):
            assert abs(tail_mass(mu, mu.quantile(p)) - (1.0 - p)) <= 1e-8
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
    # the gaussian n=3 CDF in closed form: erf(r/sqrt 2) - sqrt(2/pi) r e^{-r^2/2}
    mu = _gaussian(3)
    for r in (0.5, 2.0, 4.0):
        cdf = (math.erf(r / math.sqrt(2.0))
               - math.sqrt(2.0 / math.pi) * r * math.exp(-0.5 * r * r))
        assert abs(tail_mass(mu, r) - (1.0 - cdf)) <= 1e-10


def test_ball_cdf_and_tail_mass_at_the_wall():
    # the ball's CDF is r^n right up to the wall, where the density of a
    # bounded law is still n, not zero: its quantile is p^(1/n) and
    # nu((r, 1)) = 1 - r^n
    from specgap import ball_potential
    mu = build_measure(8, ball_potential())
    for gap in (1e-3, 1e-6, 1e-9):
        p = 1.0 - gap
        assert abs(mu.quantile(p) - p ** 0.125) <= 1e-10 * p ** 0.125
        r = 1.0 - gap
        exact = -np.expm1(8.0 * np.log(r))
        assert abs(tail_mass(mu, r) - exact) <= 1e-6 * exact


def test_nan_arguments_are_invalid_input():
    mu = _gaussian(3)
    for p in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(InvalidInput, match="quantile probabilities p"):
            mu.quantile(p)
    with pytest.raises(InvalidInput, match="tail_mass requires r"):
        tail_mass(mu, math.nan)


@pytest.mark.parametrize("r", [np.array([1.0, 2.0]), "1", True],
                         ids=["array", "str", "bool"])
def test_tail_mass_rejects_non_scalar_radius(r):
    with pytest.raises(InvalidInput, match="tail_mass requires r"):
        tail_mass(_gaussian(3), r)


@pytest.mark.parametrize("tail_tol", ["1e-10", np.array([1e-10, 1e-9]),
                                      np.array([1e-10])],
                         ids=["str", "array", "array1"])
def test_truncation_radius_rejects_non_scalar_tail_tol(tail_tol):
    with pytest.raises(InvalidInput, match="tail_tol must lie"):
        truncation_radius(_gaussian(3), tail_tol)


def test_bool_orders_are_invalid_input():
    mu = _gaussian(3)
    with pytest.raises(InvalidInput, match="moment order"):
        moment(mu, True)


def test_diagnostic_grid_inside_support():
    ball = build_measure(4, ball_potential())
    g = diagnostic_grid(ball, count=101)
    assert g.shape == (101,)
    assert np.all(g > 0) and np.all(g <= 1.0)
    assert np.all(np.diff(g) > 0)


def test_diagnostic_grid_is_computed_once_and_read_only():
    mu = _gaussian(3)
    grid = diagnostic_grid(mu, count=101)
    assert diagnostic_grid(mu, count=101) is grid
    assert diagnostic_grid(mu, count=101, p_lo=1e-3) is not grid
    with pytest.raises(ValueError):
        grid[0] = 1.0
    # a replaced measure caches nothing of the original's
    assert replace(mu, name="copy")._tables == {}


def test_each_catalog_law_builds_one_quantile_table(monkeypatch):
    # build_measure reads its one table off the normalization's rule; no
    # second integration of the law, and no lazy table on the first draw
    built = []
    real = radial_model.rule_cdf

    def spy(rule):
        built.append(rule.lo.size)
        return real(rule)

    monkeypatch.setattr(radial_model, "rule_cdf", spy)
    for spec in catalog_grid():
        measure = make_family(spec)[0]
        measure.quantile(np.linspace(0.0, 1.0, 11))
    assert len(built) == len(catalog_grid())
    assert not hasattr(radial_model, "log_integrals_exp")


def test_sampling_table_is_the_same_whichever_thread_builds_it():
    # a measure made by dataclasses.replace builds its table on first use,
    # from its own weight integrated afresh: the bits of build_measure's
    p = np.linspace(0.0, 1.0, 1001)
    want = build_measure(3, cauchy_potential(4.0)).quantile(p)
    mu = replace(build_measure(3, cauchy_potential(4.0)), name="copy")
    assert "quantile" not in mu._tables
    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(lambda _: mu.quantile(p), range(4)))
    assert all(np.array_equal(g, want) for g in got)
    assert "quantile" in mu._tables


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
        build_measure(1, exp_power_potential(2.0))
    with pytest.raises(InvalidInput):
        build_measure(True, exp_power_potential(2.0))
