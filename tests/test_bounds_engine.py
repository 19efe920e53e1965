"""Closed-form bounds vs. independent oracles.

Families and candidates are hand-built (no catalog imports beyond the
weights) so the two layers cannot share a mistake; the weights are the
catalog's power_weight(k), whose formulas test_catalog checks against
closed forms written out there.  Oracle sources, computed outside
the package: scipy quadrature of explicitly written integrands, the
exponential-integral closed form 1/(1 - (e^{1/2}/2) E_1(1/2)) for the
n=2 gaussian curvature integral, and Gamma-function moment identities
for heavy polynomial tails.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import exp1, gamma as sp_gamma, gammaln

from specgap import bounds_engine
from specgap.bounds_engine import (
    CandidateFunction,
    curvature_lower,
    exp_power_explicit,
    gamma_ratio_bounds,
    moment_bracket,
    radial_moment_lower,
    rayleigh_upper,
    spectral_comparison,
    validate_candidate,
    variational_lower,
    variational_potential,
    weighted_comparison,
    weighted_curvature,
    weighted_curvature_lower,
)
from specgap.catalog import power_weight
from specgap.errors import (
    DegenerateFunction,
    HypothesisFailed,
    InvalidInput,
    NonIntegrable,
    TruncationWarning,
)
from specgap.radial_model import (RadialPotential, build_measure,
                                  diagnostic_grid, moment, truncation_radius)
from specgap.sl_eigensolver import spectral_gap


def gaussian_pot():
    return RadialPotential(
        v=lambda r: 0.5 * r * r, dv=lambda r: np.asarray(r, float),
        d2v=lambda r: np.ones_like(np.asarray(r, float)),
        name="gaussian", convex=True)


def cauchy_pot(beta):
    return RadialPotential(
        v=lambda r: beta * np.log1p(r * r),
        dv=lambda r: 2.0 * beta * r / (1.0 + r * r),
        d2v=lambda r: 2.0 * beta * (1.0 - r * r) / (1.0 + r * r) ** 2,
        name=f"cauchy({beta})")


def ball_pot():
    zero = lambda r: np.zeros_like(np.asarray(r, float))
    return RadialPotential(v=zero, dv=zero, d2v=zero, name="ball",
                           domain_end=1.0, convex=True)


def exp_power_pot(alpha):
    a = float(alpha)
    return RadialPotential(
        v=lambda r: np.asarray(r, float) ** a / a,
        dv=lambda r: np.asarray(r, float) ** (a - 1.0),
        d2v=lambda r: (a - 1.0) * np.asarray(r, float) ** (a - 2.0),
        name=f"exp-power({a})", convex=a >= 1.0)


def r2_candidate():
    arr = lambda r: np.asarray(r, float)
    return CandidateFunction(
        f=lambda r: arr(r) ** 2, df=lambda r: 2.0 * arr(r),
        d2f=lambda r: 2.0 * np.ones_like(arr(r)),
        d3f=lambda r: np.zeros_like(arr(r)),
        monotone=True, name="r^2",
        log_abs_f=lambda r: 2.0 * np.log(arr(r)),
        log_abs_df=lambda r: np.log(2.0 * arr(r)))


def power_1pr2_candidate(p):
    p = float(p)
    arr = lambda r: np.asarray(r, float)

    def d2f(r):
        q = arr(r) ** 2
        return 2.0 * p * (1.0 + q) ** (p - 2.0) * (1.0 + (2.0 * p - 1.0) * q)

    def d3f(r):
        rr = arr(r)
        q = rr * rr
        return (4.0 * p * (p - 1.0) * rr * (1.0 + q) ** (p - 3.0)
                * (3.0 + (2.0 * p - 1.0) * q))

    return CandidateFunction(
        f=lambda r: (1.0 + arr(r) ** 2) ** p,
        df=lambda r: 2.0 * p * arr(r) * (1.0 + arr(r) ** 2) ** (p - 1.0),
        d2f=d2f, d3f=d3f, monotone=p > 0, name=f"(1+r^2)^{p}",
        log_abs_f=lambda r: p * np.log1p(arr(r) ** 2),
        log_abs_df=lambda r: (np.log(2.0 * abs(p) * arr(r))
                              + (p - 1.0) * np.log1p(arr(r) ** 2)))


GAUSS = {n: build_measure(n, gaussian_pot()) for n in range(2, 9)}
UNIT, ONEP, INVW = (power_weight(k) for k in (0, 1, -1))
CAU34 = build_measure(3, cauchy_pot(4.0))
RGRID = np.geomspace(1e-3, 1e3, 301)


# --------------------------------------------------------- moment_bracket


def test_moment_bracket_values():
    br = moment_bracket(3, 3.0)
    assert abs(br.lower - 2 / 3) < 1e-15 and abs(br.upper - 1.0) < 1e-15
    br = moment_bracket(2, 1.0)
    assert br.lower == 1.0 and br.upper == 2.0
    br = moment_bracket(4, 4.0 / 6.0)  # ball n=4: m2 = n/(n+2)
    assert abs(br.lower - 4.5) < 1e-12 and abs(br.upper - 6.0) < 1e-12


@pytest.mark.parametrize("n,m2", [(3, 0.0), (3, -1.0), (1, 1.0), (3.0, 1.0)])
def test_moment_bracket_rejects(n, m2):
    with pytest.raises(InvalidInput):
        moment_bracket(n, m2)


# --------------------------------------------------------- curvature_lower


def test_curvature_lower_ball():
    # U'' = (n-1)/r^2 on (0,1); 1/E[r^2/(n-1)] = 10/3 for n = 3
    lb = curvature_lower(build_measure(3, ball_pot()))
    assert abs(float(lb) - 10.0 / 3.0) < 1e-9


def test_curvature_lower_gaussian_n2_exp1_closed_form():
    # E[1/(1+1/r^2)] for the n=2 radial gaussian in closed form:
    # 1 - (e^{1/2}/2) E_1(1/2)
    lb = curvature_lower(GAUSS[2])
    oracle = 1.0 / (1.0 - 0.5 * math.exp(0.5) * exp1(0.5))
    assert abs(float(lb) - oracle) < 1e-9 * oracle
    assert float(lb) >= 1.0


def test_curvature_lower_gaussian_n3_quadrature():
    z3 = quad(lambda r: r * r * math.exp(-r * r / 2.0), 0.0, 40.0,
              epsabs=1e-14)[0]
    i3 = quad(lambda r: (r * r / (r * r + 2.0)) * r * r
              * math.exp(-r * r / 2.0), 0.0, 40.0, epsabs=1e-14)[0] / z3
    lb = curvature_lower(GAUSS[3])
    assert abs(float(lb) - 1.0 / i3) < 1e-9 / i3
    # the radial gap is 2: the bound must stay below it
    assert float(lb) <= 2.0 + 1e-9


@pytest.mark.parametrize("alpha", (1.0, 1.5, 2.0, 4.0))
@pytest.mark.parametrize("n", (2, 3, 6))
def test_curvature_dominates_moment_bound_for_convex(alpha, n):
    # U'' >= (n-1)/r^2 pointwise, so the harmonic-mean bound dominates
    mu = build_measure(n, exp_power_pot(alpha))
    a = float(curvature_lower(mu))
    b = float(radial_moment_lower(n, moment(mu, 2)))
    assert a >= b - 1e-10 * (1 + abs(b)), f"{a!r} < {b!r}"


def test_curvature_lower_heavy_tail_hypothesis_fails():
    with pytest.raises(HypothesisFailed):
        curvature_lower(CAU34)
    # U'' ~ (n - 1 - 2 beta) / r^2 turns negative near r = 1.6 and stays
    # resolved: a sign change, not rounding noise to integrate past
    with pytest.raises(HypothesisFailed):
        curvature_lower(build_measure(7, cauchy_pot(11.06)))


# ----------------------------------------------------- radial_moment_lower


def test_radial_moment_lower_values():
    lb = radial_moment_lower(3, moment(GAUSS[3], 2))
    assert abs(float(lb) - 2 / 3) < 1e-10
    mu13 = build_measure(3, exp_power_pot(1.0))
    lb = radial_moment_lower(3, moment(mu13, 2))
    assert abs(float(lb) - 1.0 / 6.0) < 1e-9
    ball2 = build_measure(2, ball_pot())
    assert abs(float(radial_moment_lower(2, moment(ball2, 2))) - 2.0) < 1e-10
    assert abs(float(radial_moment_lower(3, moment(CAU34, 2))) - 2.0) < 1e-8


def test_radial_moment_lower_divergent_m2():
    with pytest.raises(NonIntegrable):
        radial_moment_lower(3, moment(build_measure(3, cauchy_pot(2.0)), 2))


@pytest.mark.parametrize("n,m2", [(2, 0.5), (3, 3.0), (7, 1.0e-3),
                                  (128, 4.2e5)])
def test_radial_moment_lower_is_the_bracket_lower_end(n, m2):
    got = radial_moment_lower(n, m2)
    assert got.informative
    assert got.value == moment_bracket(n, m2).lower


@pytest.mark.parametrize("n,m2", [(1, 1.0), (True, 1.0), (3.0, 1.0),
                                  (3, 0.0), (3, -1.0), (3, math.inf),
                                  (3, math.nan)])
def test_radial_moment_lower_rejects(n, m2):
    with pytest.raises(InvalidInput):
        radial_moment_lower(n, m2)


# ------------------------------------------- weighted curvature + bound


@pytest.mark.parametrize("case, k", [
    ("gaussian", 0), ("gaussian", 1), ("gaussian", -1), ("cauchy", 1)])
def test_weighted_curvature_summands_match_sigma_form(case, k):
    # the summands, written in sigma^2, against
    # sigma^2 U'' + sigma sigma' U' - sigma sigma'' with sigma = (1+r^2)^(k/2)
    # and its derivatives in closed form
    mu = {"gaussian": GAUSS[3], "cauchy": CAU34}[case]
    r = diagnostic_grid(mu)
    q = 1.0 + r * r
    s = q ** (0.5 * k)
    ds = k * r * q ** (0.5 * k - 1.0)
    d2s = k * q ** (0.5 * k - 2.0) * (1.0 + (k - 1.0) * r * r)
    du = mu.potential.dv(r) - 2.0 / r
    d2u = mu.potential.d2v(r) + 2.0 / (r * r)
    want = np.array([s * s * d2u, s * ds * du, -s * d2s])
    got = np.array(bounds_engine._weighted_curvature_terms(
        mu, power_weight(k))(r))
    size = np.sum(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * size)


def test_weighted_curvature_closed_forms():
    cv = weighted_curvature(GAUSS[4], ONEP)(RGRID)
    ref = ((2.0 * RGRID ** 4 + 3.0 * RGRID ** 2) / (1.0 + RGRID ** 2)
           + 3.0 / RGRID ** 2)
    assert np.max(np.abs(cv - ref) / (1.0 + np.abs(ref))) < 1e-11

    n = 4
    cv = weighted_curvature(GAUSS[n], INVW)(RGRID)
    ref = (((2 * n - 3) * RGRID ** 4 + (3 * n - 1) * RGRID ** 2 + (n - 1))
           / ((1.0 + RGRID ** 2) ** 3 * RGRID ** 2))
    assert np.max(np.abs(cv - ref) / (1.0 + np.abs(ref))) < 1e-11

    beta = 4.0
    cv = weighted_curvature(CAU34, ONEP)(RGRID)
    ref = (2.0 * beta - 1.0) / (1.0 + RGRID ** 2) + 2.0 / RGRID ** 2
    assert np.max(np.abs(cv - ref) / (1.0 + np.abs(ref))) < 1e-11


@pytest.mark.parametrize("n", (2, 3, 4))
def test_unit_weight_reduces_to_curvature_lower(n):
    a = float(weighted_curvature_lower(GAUSS[n], UNIT))
    b = float(curvature_lower(GAUSS[n]))
    assert abs(a - b) < 1e-9 * (1 + b)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_weighted_curvature_lower_gaussian_quadrature(n):
    def curv_ref(r):
        return ((2.0 * r ** 4 + 3.0 * r ** 2) / (1.0 + r ** 2)
                + (n - 1.0) / r ** 2)

    zn = quad(lambda r: r ** (n - 1) * math.exp(-r * r / 2.0), 0.0, 45.0,
              epsabs=1e-14)[0]
    integ = quad(lambda r: (1.0 / curv_ref(r)) * r ** (n - 1)
                 * math.exp(-r * r / 2.0), 0.0, 45.0, epsabs=1e-14)[0] / zn
    got = float(weighted_curvature_lower(GAUSS[n], ONEP))
    assert abs(got - 1.0 / integ) < 1e-8 / integ


def test_weighted_curvature_lower_gaussian_small_n_floors():
    # for n = 2 the curvature stays above 4; the harmonic mean follows
    assert float(weighted_curvature_lower(GAUSS[2], ONEP)) >= 4.0
    for n in (3, 4):
        g = float(weighted_curvature_lower(GAUSS[n], ONEP))
        assert g >= 4.0 * (n - 2), f"n={n}: {g!r}"
    # NOTE: the analogous floor 4(n-2) fails for n >= 5 -- the bound is
    # sound (below the solver gap) but smaller than that expression; the
    # acceptance gate reports this honestly, and test_catalog pins the
    # solver gaps that show why.


def test_weighted_curvature_lower_heavy_tail_quadrature():
    zc = quad(lambda r: r ** 2 / (1.0 + r * r) ** 4, 0.0, np.inf,
              epsabs=1e-14)[0]
    ic = quad(lambda r: (1.0 / ((2 * 4.0 - 1) / (1 + r * r) + 2.0 / r ** 2))
              * r ** 2 / (1.0 + r * r) ** 4, 0.0, np.inf,
              epsabs=1e-14)[0] / zc
    got = float(weighted_curvature_lower(CAU34, ONEP))
    assert abs(got - 1.0 / ic) < 1e-8 / ic
    # the weighted gap here is exactly 6
    assert got <= 6.0 + 6e-6


def test_weighted_curvature_lower_divergent_is_non_informative():
    # tail margin t = beta - n/2 = 1/2: the integrand of 1/curv behaves
    # like r^(1 - 2t) = r^0, so the integral diverges in every dimension;
    # past r ~ 2e6 the computed curvature is rounding noise and must not
    # cut the divergence off into a finite (or spurious) value
    for n, beta in ((3, 2.0), (2, 1.5), (4, 2.5), (6, 3.5)):
        lb = weighted_curvature_lower(build_measure(n, cauchy_pot(beta)),
                                      ONEP)
        assert float(lb) == 0.0 and not lb.informative, (n, beta, lb)


def test_weighted_curvature_lower_unit_heavy_tail_fails():
    with pytest.raises(HypothesisFailed):
        weighted_curvature_lower(CAU34, UNIT)


# --------------------------------------------------- variational_lower


def test_variational_gaussian_eigenfunction():
    lb = variational_lower(GAUSS[3], UNIT, r2_candidate())
    assert 2.0 - 1e-4 <= float(lb) <= 2.0 + 1e-9
    assert lb.grid_inf


def test_variational_heavy_tail_eigenfunction():
    lb = variational_lower(CAU34, ONEP, r2_candidate())
    assert 6.0 - 7e-4 <= float(lb) <= 6.0 + 1e-9


@pytest.mark.parametrize("n,t", [(3, 1.5), (6, 0.5), (2, 0.5), (4, 1.5)])
def test_variational_low_beta_essential_bottom(n, t):
    beta = n / 2 + t
    mu = build_measure(n, cauchy_pot(beta))
    lb = variational_lower(mu, ONEP, power_1pr2_candidate(t / 2.0))
    want = t * t
    assert -1e-12 <= float(lb) - want < 1e-6 * (1 + want), (
        f"{float(lb)!r} vs {want}")


def test_variational_potential_low_beta_closed_form():
    n, t = 3, 1.5
    beta = n / 2 + t
    mu = build_measure(n, cauchy_pot(beta))
    vf = variational_potential(mu, ONEP, power_1pr2_candidate(t / 2.0))(RGRID)
    cconst = 2 * beta + n - n * beta + n * n / 2.0
    ref = (t * t * RGRID ** 2 + cconst) / (1.0 + RGRID ** 2)
    assert np.max(np.abs(vf - ref) / (1.0 + np.abs(ref))) < 1e-9


def _ball_slow_increase_candidate(n):
    arr = lambda r: np.asarray(r, float)
    if n == 3:
        return CandidateFunction(
            f=lambda r: np.log(arr(r)), df=lambda r: 1.0 / arr(r),
            d2f=lambda r: -arr(r) ** -2.0, d3f=lambda r: 2.0 * arr(r) ** -3.0,
            monotone=True, name="log r")
    p = (3.0 - n) / 2.0
    return CandidateFunction(
        f=lambda r: arr(r) ** p / p,
        df=lambda r: arr(r) ** (-(n - 1.0) / 2.0),
        d2f=lambda r: (-(n - 1.0) / 2.0) * arr(r) ** (-(n + 1.0) / 2.0),
        d3f=lambda r: ((n - 1.0) * (n + 1.0) / 4.0)
        * arr(r) ** (-(n + 3.0) / 2.0),
        monotone=True, name="slow-increase")


@pytest.mark.parametrize("n", (2, 3, 4))
def test_variational_ball_candidate(n):
    mub = build_measure(n, ball_pot())
    lb = variational_lower(mub, UNIT, _ball_slow_increase_candidate(n))
    want = (n * n - 1.0) / 4.0
    assert abs(float(lb) - want) < 1e-9 * (1 + want), f"{float(lb)!r} vs {want}"


def test_variational_requires_third_derivative():
    arr = lambda r: np.asarray(r, float)
    cand = CandidateFunction(f=lambda r: arr(r),
                             df=lambda r: np.ones_like(arr(r)),
                             d2f=lambda r: np.zeros_like(arr(r)))
    with pytest.raises(InvalidInput):
        variational_lower(GAUSS[3], UNIT, cand)


def test_variational_rejects_decreasing_candidate():
    arr = lambda r: np.asarray(r, float)
    dec = CandidateFunction(f=lambda r: -arr(r),
                            df=lambda r: -np.ones_like(arr(r)),
                            d2f=lambda r: np.zeros_like(arr(r)),
                            d3f=lambda r: np.zeros_like(arr(r)),
                            name="decreasing")
    with pytest.raises(HypothesisFailed):
        variational_lower(GAUSS[3], UNIT, dec)


def test_variational_flattening_candidate_non_informative():
    arr = lambda r: np.asarray(r, float)
    flat = CandidateFunction(
        f=lambda r: np.arctan(arr(r)),
        df=lambda r: 1.0 / (1.0 + arr(r) ** 2),
        d2f=lambda r: -2.0 * arr(r) / (1.0 + arr(r) ** 2) ** 2,
        d3f=lambda r: (6.0 * arr(r) ** 2 - 2.0) / (1.0 + arr(r) ** 2) ** 3,
        monotone=True, name="arctan")
    lb = variational_lower(GAUSS[3], UNIT, flat)
    assert float(lb) == 0.0 and not lb.informative and lb.grid_inf


# ------------------------------------------------------- rayleigh_upper


def test_rayleigh_at_eigenfunctions():
    assert abs(rayleigh_upper(GAUSS[3], UNIT, r2_candidate()) - 2.0) < 1e-9
    assert abs(rayleigh_upper(CAU34, ONEP, r2_candidate()) - 6.0) < 1e-8


def _cauchy_1pr2_moment(n, beta, k):
    # E[(1+r^2)^k] for the radial heavy-tail law, valid for beta - k > n/2
    return math.exp(gammaln(beta - k - n / 2.0) + gammaln(beta)
                    - gammaln(beta - n / 2.0) - gammaln(beta - k))


def test_rayleigh_epsilon_sequence_decreases_to_essential_bottom():
    # (1+r^2)^eps with eps -> t/2 = 0.75: quotient has an exact
    # Gamma-moment closed form and decreases toward t^2 = 2.25
    mu33 = build_measure(3, cauchy_pot(3.0))
    prev = None
    for eps in (0.55, 0.65, 0.72):
        got = rayleigh_upper(mu33, ONEP, power_1pr2_candidate(eps))
        g1 = _cauchy_1pr2_moment(3, 3.0, eps)
        g2 = _cauchy_1pr2_moment(3, 3.0, 2 * eps)
        g2m = _cauchy_1pr2_moment(3, 3.0, 2 * eps - 1.0)
        oracle = (4 * eps * eps * (g2 - g2m)) / (g2 - g1 * g1)
        assert abs(got - oracle) < 1e-7 * oracle, f"eps={eps}"
        assert got > 2.25
        if prev is not None:
            assert got < prev
        prev = got


def test_rayleigh_ball_linear_candidate():
    # f = r on the n=2 ball: energy 1, Var = 1/2 - (2/3)^2 = 1/18
    arr = lambda r: np.asarray(r, float)
    lin = CandidateFunction(f=lambda r: arr(r),
                            df=lambda r: np.ones_like(arr(r)),
                            d2f=lambda r: np.zeros_like(arr(r)),
                            d3f=lambda r: np.zeros_like(arr(r)),
                            monotone=True, name="r")
    got = rayleigh_upper(build_measure(2, ball_pot()), UNIT, lin)
    assert abs(got - 18.0) < 1e-9


def test_rayleigh_rejects_constant():
    arr = lambda r: np.asarray(r, float)
    const = CandidateFunction(f=lambda r: np.ones_like(arr(r)),
                              df=lambda r: np.zeros_like(arr(r)),
                              d2f=lambda r: np.zeros_like(arr(r)),
                              name="const")
    with pytest.raises(DegenerateFunction):
        rayleigh_upper(GAUSS[3], UNIT, const)


def test_rayleigh_sound_against_solver():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for mu, w in ((GAUSS[3], UNIT), (CAU34, ONEP), (GAUSS[4], ONEP)):
            est = spectral_gap(mu, w)
            up = rayleigh_upper(mu, w, r2_candidate())
            assert up >= est.value - 1e-6 * (1 + est.value), (
                f"{mu.name} {w.name}: {up!r} < solver {est.value!r}")


# --------------------------------------------------- gamma_ratio_bounds


def test_gamma_ratio_bounds_spot_values():
    lo, val, hi = gamma_ratio_bounds(1.5, 0.5)
    oracle = sp_gamma(1.5) * 1.5 ** 0.5 / sp_gamma(2.0)
    assert abs(val - oracle) < 1e-13
    assert lo == 1.0 and abs(hi - (2.0 / 1.5) ** 0.5) < 1e-13

    lo, val, hi = gamma_ratio_bounds(2.0, 1.0)
    assert abs(val - 1.0) < 1e-13 and lo - 1e-12 <= val <= hi + 1e-12

    lo, val, hi = gamma_ratio_bounds(1.0, 2.0)
    assert abs(val - 0.5) < 1e-13 and abs(lo - 0.5) < 1e-13 and hi == 1.0


def test_gamma_ratio_bounds_grid_slack():
    worst = 0.0
    for a in (0.25, 0.5, 1.0, 2.0, 5.0, 20.0):
        for b in np.arange(0.0, 2.0001, 0.25):
            lo, val, hi = gamma_ratio_bounds(a, float(b))
            worst = min(worst, val - lo, hi - val)
    assert worst >= -1e-12, f"worst slack {worst!r}"


def test_gamma_ratio_bounds_rejects():
    with pytest.raises(InvalidInput):
        gamma_ratio_bounds(1.0, 2.5)
    with pytest.raises(InvalidInput):
        gamma_ratio_bounds(0.0, 1.0)


# --------------------------------------------------- exp_power_explicit


def test_exp_power_explicit_spot_values():
    ex = exp_power_explicit(3, 2.0)
    assert abs(ex.exact.lower - 2 / 3) < 1e-13
    assert abs(ex.exact.upper - 1.0) < 1e-13

    ex = exp_power_explicit(3, 1.0)
    assert abs(ex.exact.lower - 1 / 6) < 1e-13
    assert abs(ex.exact.upper - 0.25) < 1e-13

    ex = exp_power_explicit(16, 4.0)
    assert abs(ex.simplified.lower - 15 / 17 * 4) < 1e-12
    assert abs(ex.simplified.upper - 4.5) < 1e-12


def test_exp_power_explicit_nesting():
    for n in range(2, 33):
        for alpha in (1.0, 1.5, 2.0, 3.0, 4.0, 8.0):
            ex = exp_power_explicit(n, alpha)
            tol = 1e-12 * (1 + ex.exact.upper)
            assert ex.simplified.lower <= ex.exact.lower + tol, (n, alpha)
            assert ex.exact.upper <= ex.simplified.upper + tol, (n, alpha)


def test_exp_power_explicit_rejects_alpha_below_one():
    with pytest.raises(InvalidInput):
        exp_power_explicit(3, 0.5)


# --------------------------------------------------------- comparisons


def test_spectral_comparison():
    br = spectral_comparison(2.0, 3, 3.0)
    assert abs(br.lower - 2 / 3) < 1e-15 and abs(br.upper - 1.0) < 1e-15
    br = spectral_comparison(0.1, 5, 1.0)
    assert br.lower == 0.1 and br.upper == 0.1
    br = spectral_comparison(0.0, 3, 1.0)
    assert br.lower == 0.0 and br.upper == 0.0


def test_weighted_comparison():
    # heavy tail n=3, beta=4: E[r^2/s^2] = m2/(2 beta) reciprocal wise:
    # (n-1)/(3/8) = 16/3, upper min{6, n E[s^2]/m2 = 3*2/1 = 6} = 6
    br = weighted_comparison(6.0, 3, 3.0 / 8.0, 2.0, 1.0)
    assert abs(br.lower - 16 / 3) < 1e-12 and abs(br.upper - 6.0) < 1e-12
    # weighted gaussian n=3: n E[s^2]/m2 = 3*4/3 = n+1
    br = weighted_comparison(7.4219317, 3, 0.5, 4.0, 3.0)
    assert abs(br.upper - 4.0) < 1e-12
    with pytest.raises(InvalidInput):
        weighted_comparison(1.0, 3, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("side", (-1.0, 1.0))
def test_comparison_ties_take_the_radial_gap_label(side):
    # an endpoint term 4 ulp off the gap is a tie, whichever side it falls
    tie = 1.0 + side * 4.0 * np.finfo(float).eps
    lam = 6.0
    br = spectral_comparison(lam, 3, 2.0 / (lam * tie))
    assert br.lower_source == "radial gap"
    br = spectral_comparison(lam, 3, 3.0 / (lam * tie))
    assert br.upper_source == "radial gap"
    br = weighted_comparison(lam, 3, 2.0 / (lam * tie), 10.0, 1.0)
    assert br.lower_source == "weighted radial gap"
    br = weighted_comparison(lam, 3, 1.0, lam * tie / 3.0, 1.0)
    assert br.upper_source == "weighted radial gap"


# --------------------------------------------------- validate_candidate


def test_validate_candidate_catches_wrong_derivative():
    arr = lambda r: np.asarray(r, float)
    bad = CandidateFunction(f=lambda r: arr(r) ** 2,
                            df=lambda r: 3.0 * arr(r),
                            d2f=lambda r: 3.0 * np.ones_like(arr(r)))
    with pytest.raises(InvalidInput):
        validate_candidate(GAUSS[3], bad)


def test_validate_candidate_checks_up_to_the_wall():
    # on ball n=1000 the law sits within 1% of the wall; a wrong f' (3r
    # given for r^2) must still be caught there
    mub = build_measure(1000, ball_pot())
    arr = lambda r: np.asarray(r, float)
    bad = CandidateFunction(f=lambda r: arr(r) ** 2, df=lambda r: 3.0 * arr(r),
                            d2f=lambda r: 3.0 * np.ones_like(arr(r)),
                            monotone=True, name="wrong")
    with pytest.raises(InvalidInput):
        validate_candidate(mub, bad)


def test_validate_candidate_catches_false_monotone_claim():
    arr = lambda r: np.asarray(r, float)
    dec = CandidateFunction(f=lambda r: -arr(r),
                            df=lambda r: -np.ones_like(arr(r)),
                            d2f=lambda r: np.zeros_like(arr(r)),
                            monotone=True)
    with pytest.raises(HypothesisFailed):
        validate_candidate(GAUSS[3], dec)


def test_only_an_underflowed_derivative_counts_as_positive():
    # f' = 0 passes the monotonicity check only where log|f'| is finite,
    # i.e. where f' is positive and merely below double range; a finite
    # log|f'| never excuses a negative f'
    arr = lambda r: np.asarray(r, float)
    zeros = lambda r: np.zeros_like(arr(r))

    def flat(log_abs_df):
        return CandidateFunction(f=lambda r: np.ones_like(arr(r)), df=zeros,
                                 d2f=zeros, d3f=zeros, monotone=True,
                                 log_abs_df=log_abs_df)

    validate_candidate(GAUSS[3], flat(lambda r: -800.0 + np.log(arr(r))))
    for log_abs_df in (None, lambda r: np.full_like(arr(r), -np.inf)):
        with pytest.raises(HypothesisFailed, match="is <= 0"):
            validate_candidate(GAUSS[3], flat(log_abs_df))
    dec = CandidateFunction(f=lambda r: -arr(r),
                            df=lambda r: -np.ones_like(arr(r)),
                            d2f=zeros, d3f=zeros, monotone=True,
                            log_abs_df=lambda r: np.zeros_like(arr(r)))
    with pytest.raises(HypothesisFailed, match="is <= 0"):
        validate_candidate(GAUSS[3], dec)
    # where f' underflowed the decay rate is not evaluable: NaN, and no
    # RuntimeWarning (the suite turns those into errors)
    rate = variational_potential(GAUSS[3], UNIT, flat(
        lambda r: -800.0 + np.log(arr(r))))(np.array([0.5, 2.0]))
    assert np.all(np.isnan(rate))



def _grid_minimum(measure, weight, cand):
    """The variational potential's least value on variational_lower's grid,
    and the bracket of the two cells around it."""
    r_max = truncation_radius(measure, bounds_engine._CHEN_TAIL_TOL)
    radii = np.geomspace(r_max * 1e-6, r_max,
                         bounds_engine._CHEN_GRID_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = variational_potential(measure, weight, cand)(radii)
    k = int(np.nanargmin(vals))
    return (float(vals[k]), radii[max(k - 1, 0)],
            radii[min(k + 1, radii.size - 1)])


def _r_plus_cubic_candidate():
    arr = lambda r: np.asarray(r, float)
    return CandidateFunction(
        f=lambda r: arr(r) + 0.1 * arr(r) ** 3,
        df=lambda r: 1.0 + 0.3 * arr(r) ** 2,
        d2f=lambda r: 0.6 * arr(r), d3f=lambda r: np.full_like(arr(r), 0.6),
        monotone=True, name="r + r^3/10")


@pytest.mark.parametrize("case", [
    # exact eigenfunctions: a constant decay rate, its grid minimum noise
    lambda: (GAUSS[3], UNIT, r2_candidate()),
    lambda: (CAU34, ONEP, r2_candidate()),
    lambda: (build_measure(4, ball_pot()), UNIT,
             _ball_slow_increase_candidate(4)),
    # minimum at the grid's end, and in its interior
    lambda: (build_measure(3, cauchy_pot(3.0)), ONEP,
             power_1pr2_candidate(0.75)),
    lambda: (GAUSS[3], UNIT, _r_plus_cubic_candidate()),
], ids=["gaussian-r2", "cauchy-r2", "ball-slow", "cauchy-t1.5", "r-plus-cubic"])
def test_variational_refinement_never_exceeds_grid_minimum(case):
    measure, weight, cand = case()
    grid_min, _, _ = _grid_minimum(measure, weight, cand)
    assert float(variational_lower(measure, weight, cand)) <= grid_min


def test_variational_refinement_reaches_interior_minimum():
    # f = r + r^3/10 under the gaussian n=3: the decay rate
    # (2/r^2 + 0.9 r^2 - 0.2)/(1 + 0.3 r^2) has one interior minimum near
    # r = 1.46, which scipy's bounded Brent search on the grid minimizer's
    # two cells locates as well
    cand = _r_plus_cubic_candidate()
    grid_min, lo, hi = _grid_minimum(GAUSS[3], UNIT, cand)
    vf = variational_potential(GAUSS[3], UNIT, cand)
    ref = minimize_scalar(lambda r: float(vf(r)), bounds=(lo, hi),
                          method="bounded",
                          options={"xatol": 1e-12 * (hi - lo)})
    value = float(variational_lower(GAUSS[3], UNIT, cand))
    assert value < grid_min
    assert abs(value - ref.fun) <= 1e-12 * abs(ref.fun)
    r = np.linspace(1.0, 2.0, 100001)
    assert abs(value - np.min((2 / r**2 + 0.9 * r**2 - 0.2)
                              / (1 + 0.3 * r**2))) <= 1e-9
