"""Eigensolver vs. independent oracles.

Families, weights, and candidates are hand-built here rather than taken
from the catalog, so a catalog bug cannot mask a solver bug.  Oracle
sources:

  ball          lambda = j_{n/2,1}^2, the squared first positive zero of
                the Bessel function J_{n/2} (Neumann radial problem on
                the unit ball); values frozen from scipy.special.jn_zeros
                at build time of this suite
  gaussian      radial gap 2, eigenfunction r^2 - n
  heavy tail    weighted gap (beta - n/2)^2 for beta <= n/2 + 2, else
                4 (beta - n/2 - 1) with eigenfunction r^2 - const
"""

import math
import warnings

import numpy as np
import pytest

from specgap.errors import InvalidInput, TruncationWarning
from specgap.radial_model import (RadialPotential, Weight, build_measure,
                                  truncation_radius)
from specgap.sl_eigensolver import (GridSpec, discretize, residual_check,
                                    spectral_gap)


def gaussian_pot():
    return RadialPotential(v=lambda r: 0.5 * r * r, dv=lambda r: 1.0 * r,
                           d2v=lambda r: np.ones_like(np.asarray(r, float)),
                           convex=True, name="gaussian")


def cauchy_pot(beta):
    return RadialPotential(v=lambda r: beta * np.log1p(r * r),
                           dv=lambda r: 2.0 * beta * r / (1.0 + r * r),
                           d2v=lambda r: 2.0 * beta * (1.0 - r * r)
                           / (1.0 + r * r) ** 2,
                           name=f"cauchy({beta})")


def ball_pot():
    zero = lambda r: np.zeros_like(np.asarray(r, float))
    return RadialPotential(v=zero, dv=zero, d2v=zero, domain_end=1.0,
                           convex=True, name="ball")


def exp_power_pot(alpha):
    return RadialPotential(
        v=lambda r: r ** alpha / alpha,
        dv=lambda r: r ** (alpha - 1.0),
        d2v=lambda r: (alpha - 1.0) * r ** (alpha - 2.0),
        convex=alpha >= 1.0, name=f"exp-power({alpha})")


def unit_w():
    one = lambda r: np.ones_like(np.asarray(r, float))
    zero = lambda r: np.zeros_like(np.asarray(r, float))
    ident = lambda x: np.asarray(x, float)
    return Weight(s2=one, ds2=zero, d2s2=zero, s=one, ds=zero, d2s=zero,
                  name="unit", to_metric=ident, from_metric=ident)


def one_plus_w():
    return Weight(
        s2=lambda r: 1.0 + r * r, ds2=lambda r: 2.0 * np.asarray(r, float),
        d2s2=lambda r: 2.0 * np.ones_like(np.asarray(r, float)),
        s=lambda r: np.sqrt(1.0 + r * r),
        ds=lambda r: r / np.sqrt(1.0 + r * r),
        d2s=lambda r: (1.0 + r * r) ** -1.5,
        name="one-plus-r2", to_metric=np.arcsinh, from_metric=np.sinh)


def inv_one_plus_w():
    # no closed-form metric maps: exercises the quadrature fallback
    return Weight(
        s2=lambda r: 1.0 / (1.0 + r * r),
        ds2=lambda r: -2.0 * r / (1.0 + r * r) ** 2,
        d2s2=lambda r: (6.0 * r * r - 2.0) / (1.0 + r * r) ** 3,
        s=lambda r: 1.0 / np.sqrt(1.0 + r * r),
        ds=lambda r: -r * (1.0 + r * r) ** -1.5,
        d2s=lambda r: (2.0 * r * r - 1.0) * (1.0 + r * r) ** -2.5,
        name="inv-one-plus-r2")


class Cand:
    def __init__(self, f, df, d2f):
        self.f, self.df, self.d2f = f, df, d2f


def _quiet_gap(measure, weight, opts=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return spectral_gap(measure, weight, opts)


# squared first positive zeros of J_{n/2} (frozen scipy.special values)
BALL_ORACLE = {
    2: 14.681970642123895,
    3: 20.190728556426629,
    4: 26.374616427163392,
    8: 57.582940903291124,
    16: 149.4528808634265,
    32: 444.58338660928814,
}


@pytest.mark.parametrize("n", sorted(BALL_ORACLE))
def test_ball_matches_bessel_zero(n):
    est = spectral_gap(build_measure(n, ball_pot()), unit_w())
    lam = BALL_ORACLE[n]
    rel = abs(est.value - lam) / lam
    assert rel < 1e-6, (
        f"ball n={n}: got {est.value!r}, Bessel-zero oracle {lam!r}, "
        f"rel {rel:.2e}")


@pytest.mark.parametrize("n", (2, 3, 5, 8))
def test_gaussian_radial_gap_is_two(n):
    est = spectral_gap(build_measure(n, gaussian_pot()), unit_w())
    assert abs(est.value - 2.0) / 2.0 < 1e-6, f"n={n}: {est.value!r}"


@pytest.mark.parametrize("beta,want", [
    (1.6, 0.01), (2.5, 1.0), (3.5, 4.0), (4.0, 6.0), (6.0, 14.0)])
def test_heavy_tail_weighted_gap_n3(beta, want):
    mu = build_measure(3, cauchy_pot(beta), tail_tol=1e-12)
    est = _quiet_gap(mu, one_plus_w())
    rel = abs(est.value - want) / want
    assert rel < 1e-3, (
        f"beta={beta}: got {est.value!r} want {want} rel {rel:.2e}")


@pytest.mark.parametrize("beta,want", [
    (1.5, 0.25), (2.0, 1.0),
    # the regime threshold t = 2 sits at beta = 3 for n = 2; this golden
    # value beta = t^2 = 4(t-1) iff t = 2, checked off-threshold too
    (2.61803398875, 2.61803398875), (4.0, 8.0)])
def test_heavy_tail_weighted_gap_n2(beta, want):
    mu = build_measure(2, cauchy_pot(beta), tail_tol=1e-12)
    est = _quiet_gap(mu, one_plus_w())
    rel = abs(est.value - want) / want
    assert rel < 1e-3, (
        f"beta={beta}: got {est.value!r} want {want} rel {rel:.2e}")


@pytest.mark.parametrize("alpha,n", [(1.0, 2), (1.5, 3), (4.0, 3), (4.0, 8)])
def test_exp_power_solves(alpha, n):
    est = spectral_gap(build_measure(n, exp_power_pot(alpha)), unit_w())
    assert est.value > 0.0
    assert est.error_estimate < 1e-4 * (1.0 + est.value)


def test_weighted_gaussian_stable_under_refinement():
    mu = build_measure(3, gaussian_pot())
    est = spectral_gap(mu, one_plus_w())
    est_hi = spectral_gap(mu, one_plus_w(), GridSpec(n_cells=2048))
    assert est.value > 7.0
    assert abs(est.value - est_hi.value) < 1e-5, (
        f"{est.value!r} vs {est_hi.value!r} at 2048 cells")


def test_inv_weight_quadrature_metric_solves():
    # sigma -> 0 at infinity makes the far field slow: the truncation
    # audit warns and the error model stays conservative, but the value
    # itself must be stable under refinement
    mu = build_measure(3, gaussian_pot())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        est = spectral_gap(mu, inv_one_plus_w())
        est_hi = spectral_gap(mu, inv_one_plus_w(), GridSpec(n_cells=2048))
    assert est.value > 0.0
    assert abs(est.value - est_hi.value) <= 1e-7 * (1.0 + est.value), (
        f"{est.value!r} vs {est_hi.value!r}")


# --- discretization contract ------------------------------------------


def test_discretize_conserves_constants_and_mass():
    disc = discretize(build_measure(2, ball_pot()), unit_w(),
                      GridSpec(n_cells=128))
    ones = np.ones(disc.mass.size)
    kv = disc.stiffness @ ones
    # constants are in the kernel of the Neumann stiffness *exactly*
    assert float(np.max(np.abs(kv))) == 0.0
    assert disc.r_edges[0] == 0.0
    assert abs(disc.r_edges[-1] - 1.0) < 1e-12
    assert np.all(np.diff(disc.r_edges) > 0.0)
    assert np.all(disc.mass > 0.0)
    assert abs(disc.mass.sum() - 1.0) < 1e-9


def test_coarse_rayleigh_quotient_near_gap():
    disc = discretize(build_measure(3, gaussian_pot()), unit_w(),
                      GridSpec(n_cells=64))
    v = disc.r_centers ** 2
    v = v - (disc.mass @ v) / disc.mass.sum()
    rq = disc.stiffness.quadratic_form(v) / float(disc.mass @ (v * v))
    assert abs(rq - 2.0) < 0.05, f"coarse quotient {rq!r}"


@pytest.mark.parametrize("pin", [50.0, 1e200])
def test_discretize_caps_pinned_radius_like_spectral_gap(pin):
    # a pin past the representable radius is capped, not meshed as given
    mu = build_measure(3, gaussian_pot())
    grid = GridSpec(n_cells=64, r_max_override=pin)
    disc = discretize(mu, unit_w(), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        est = spectral_gap(mu, unit_w(), grid)
    assert disc.r_edges[-1] == est.r_max_used
    assert est.r_max_used < pin
    assert np.all(disc.mass > 0.0)


# --- convergence order -------------------------------------------------


@pytest.mark.parametrize("name,builder,weight", [
    ("gaussian n=3", lambda: build_measure(3, gaussian_pot()), unit_w),
    ("cauchy n=3 b=4", lambda: build_measure(3, cauchy_pot(4.0)), one_plus_w),
    ("ball n=4", lambda: build_measure(4, ball_pot()), unit_w),
])
def test_richardson_error_shrinks_by_factor_three(name, builder, weight):
    # pin the domain so only the mesh error varies under refinement
    mu = builder()
    pin = (mu.potential.domain_end
           if math.isfinite(mu.potential.domain_end)
           else truncation_radius(mu, 1e-10))
    errs = []
    for cells in (128, 256, 512):
        est = _quiet_gap(mu, weight(),
                         GridSpec(n_cells=cells, r_max_override=pin))
        errs.append(est.error_estimate)
    ratios = [errs[i] / errs[i + 1] for i in range(2) if errs[i + 1] > 0]
    assert ratios, f"{name}: error estimates hit zero: {errs}"
    assert all(r >= 3.0 for r in ratios), (
        f"{name}: second-order refinement expected, ratios {ratios}")


@pytest.mark.parametrize("n,beta,exact", [
    (3, 4.0, 6.0), (3, 6.0, 14.0), (2, 4.0, 8.0), (4, 5.0, 8.0),
    (6, 7.0, 12.0)])
def test_heavy_tail_eigenvalue_regime_tight(n, beta, exact):
    # in the eigenfunction regime the escalation audit must leave no
    # visible truncation bias
    mu = build_measure(n, cauchy_pot(beta), tail_tol=1e-12)
    est = _quiet_gap(mu, one_plus_w())
    assert abs(est.value - exact) <= 5e-6 * (1.0 + exact), (
        f"n={n} beta={beta}: {est.value!r} vs exact {exact}")


# --- eigenfunction and residuals ---------------------------------------


def test_eigenfunction_invariants():
    est = spectral_gap(build_measure(3, gaussian_pot()), unit_w())
    fn = est.eigenfunction
    assert abs(fn.nu_mean()) < 1e-8
    assert abs(fn.nu_norm() - 1.0) < 1e-8
    # the gaussian radial eigenfunction is r^2 - n up to scale
    ref = fn.r ** 2 - 3.0
    corr = float(fn.masses @ (fn.values * ref)) / math.sqrt(
        float(fn.masses @ (ref * ref)))
    assert abs(abs(corr) - 1.0) < 1e-6, f"|corr| = {abs(corr)!r}"


def test_residual_check_accepts_true_pairs():
    mu = build_measure(3, gaussian_pot())
    res = residual_check(mu, unit_w(),
                         Cand(lambda r: r * r - 3.0, lambda r: 2.0 * r,
                              lambda r: 2.0 * np.ones_like(r)), 2.0)
    assert res <= 1e-10, f"gaussian residual {res!r}"

    mu_c = build_measure(3, cauchy_pot(4.0))
    res = residual_check(mu_c, one_plus_w(),
                         Cand(lambda r: r * r - 1.0, lambda r: 2.0 * r,
                              lambda r: 2.0 * np.ones_like(r)), 6.0)
    assert res <= 1e-10, f"heavy-tail residual {res!r}"


def test_residual_check_flags_wrong_eigenvalue():
    mu = build_measure(3, gaussian_pot())
    res = residual_check(mu, unit_w(),
                         Cand(lambda r: r * r, lambda r: 2.0 * r,
                              lambda r: 2.0 * np.ones_like(r)), 1.0)
    assert res > 0.1


# --- truncation control -------------------------------------------------


def test_r_max_override_pins_domain_and_warns():
    mu = build_measure(3, cauchy_pot(1.6), tail_tol=1e-10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = spectral_gap(mu, one_plus_w(),
                           GridSpec(n_cells=256, r_max_override=50.0))
    trunc = [w for w in caught if issubclass(w.category, TruncationWarning)]
    assert len(trunc) == 1, f"{len(trunc)} truncation warnings"
    assert est.r_max_used <= 50.0 + 1e-9


def test_gaussian_default_solve_is_warning_free():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectral_gap(build_measure(3, gaussian_pot()), unit_w())
    assert not any(issubclass(w.category, TruncationWarning)
                   for w in caught), [str(w.message) for w in caught]


@pytest.mark.parametrize("bad", (0, 63, 96, 100, 65))
def test_grid_spec_rejects_non_multiple_of_64(bad):
    with pytest.raises(InvalidInput) as exc:
        GridSpec(n_cells=bad)
    assert "64" in str(exc.value)
