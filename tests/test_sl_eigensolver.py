"""Eigensolver vs. independent oracles.

Families and candidates are hand-built here rather than taken from the
catalog, so a catalog bug cannot mask a solver bug; the weights are the
catalog's power_weight(k), whose formulas test_catalog checks against
closed forms written out there.  Oracle sources:

  ball          lambda = j_{n/2,1}^2, the squared first positive zero of
                the Bessel function J_{n/2} (Neumann radial problem on
                the unit ball); values frozen from scipy.special.jn_zeros
                at build time of this suite, and computed by it for the
                large-dimension sweep
  gaussian      radial gap 2, eigenfunction r^2 - n
  exp-power     alpha = 1: radial gap n/(n+1)^2
  heavy tail    weighted gap (beta - n/2)^2 for beta <= n/2 + 2, else
                4 (beta - n/2 - 1) with eigenfunction r^2 - const
  edge          essential-spectrum bottom lim W: (beta - n/2)^2 for the
                heavy tail with sigma^2 = 1+r^2, 1/4 for the gaussian
                with sigma^2 = 1/(1+r^2) and for exp-power alpha = 1,
                0 for exp-power alpha = 1.5 with sigma^2 = 1/(1+r^2),
                and +inf where W grows or the law is bounded
"""

import functools
import importlib.machinery
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln, jn_zeros, logsumexp

from specgap import sl_eigensolver
from specgap.catalog import power_weight
from specgap.errors import (ConvergenceError, DiscretizationError,
                            HypothesisFailed, InvalidInput, TruncationWarning)
from specgap.radial_model import (RadialPotential, build_measure,
                                  truncation_radius)
from specgap.sl_eigensolver import (GridSpec, _ground_state, residual_check,
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
    return power_weight(0)


def one_plus_w():
    return power_weight(1)


def inv_one_plus_w():
    # no closed-form metric maps: exercises the tabulated fallback
    return power_weight(-1)


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
    mu = build_measure(3, cauchy_pot(beta))
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
    mu = build_measure(2, cauchy_pot(beta))
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
    # sigma -> 0 at infinity makes the far field slow: the domain grows
    # until its truncation bracket closes, and the value must be stable
    # under refinement
    mu = build_measure(3, gaussian_pot())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        est = spectral_gap(mu, inv_one_plus_w())
        est_hi = spectral_gap(mu, inv_one_plus_w(), GridSpec(n_cells=2048))
    assert est.value > 0.0
    assert abs(est.value - est_hi.value) <= 1e-7 * (1.0 + est.value), (
        f"{est.value!r} vs {est_hi.value!r}")


# --- discretization contract ------------------------------------------


def _first_domain_mesh(mu, w):
    """(mesh, from_metric) of the first domain spectral_gap solves, with
    mesh(n) its n-cell edges."""
    r0, r_cap = sl_eigensolver._radii(mu)
    to_metric, from_metric = sl_eigensolver._metric_maps(
        w, min(r_cap, sl_eigensolver._R_CAP))
    mesh = functools.partial(sl_eigensolver._mesh, mu, w, from_metric,
                             float(to_metric(r0)))
    return mesh, from_metric


def _first_domain_pencil(mu, w, n_cells):
    """(edges, log conductances, log masses) of the n_cells mesh of the
    first domain, assembled directly."""
    mesh, from_metric = _first_domain_mesh(mu, w)
    edges = mesh(n_cells)
    log_c, log_m = sl_eigensolver._nested_pencils(mu, w, edges,
                                                  from_metric)[-1]
    return edges, log_c, log_m


def test_discretize_conserves_mass():
    # under the unit weight the natural-coordinate edges are radii; the
    # masses are of the unnormalized density, so they sum to Z
    mu = build_measure(2, ball_pot())
    edges, log_c, log_m = _first_domain_pencil(mu, unit_w(), 128)
    assert log_c.size == log_m.size - 1
    assert np.all(np.isfinite(log_c))
    assert edges[0] == 0.0
    assert abs(edges[-1] - 1.0) < 1e-12
    assert np.all(np.diff(edges) > 0.0)
    assert np.all(np.isfinite(log_m))
    assert abs(logsumexp(log_m) - mu.log_z) < 1e-9


@pytest.mark.parametrize("r1", [1e-3, 0.5, 2.0])
@pytest.mark.parametrize("alpha,n", [(1.0, 2), (1.0, 8), (1.5, 3), (2.0, 3)])
def test_first_cell_mass_matches_incomplete_gamma(alpha, n, r1):
    # integral_0^r1 r^(n-1) e^(-r^alpha/alpha) dr
    #   = alpha^(n/alpha - 1) Gamma(n/alpha) P(n/alpha, r1^alpha/alpha);
    # in tau = (r/r1)^n the integrand is not smooth at 0
    s = n / alpha
    exact = ((s - 1.0) * math.log(alpha) + gammaln(s)
             + math.log(gammainc(s, r1 ** alpha / alpha)))
    got = sl_eigensolver._first_cell_log_mass(
        build_measure(n, exp_power_pot(alpha)), r1)
    assert abs(got - exact) <= 1e-13, (alpha, n, r1, got - exact)


def test_coarse_rayleigh_quotient_near_gap():
    edges, log_c, log_m = _first_domain_pencil(
        build_measure(3, gaussian_pot()), unit_w(), 64)
    cond, masses = np.exp(log_c), np.exp(log_m)
    # under the unit weight the cell centers are the edge midpoints
    v = (0.5 * (edges[:-1] + edges[1:])) ** 2
    v = v - (masses @ v) / masses.sum()
    energy = float(cond @ np.diff(v) ** 2)
    rq = energy / float(masses @ (v * v))
    assert abs(rq - 2.0) < 0.05, f"coarse quotient {rq!r}"


@pytest.mark.parametrize("name,builder,weight", [
    ("gaussian n=3", lambda: build_measure(3, gaussian_pot()), unit_w),
    ("ball n=4", lambda: build_measure(4, ball_pot()), unit_w),
    ("cauchy n=3 b=4", lambda: build_measure(3, cauchy_pot(4.0)), one_plus_w),
])
def test_ground_state_matches_dense_generalized_eigh(name, builder, weight):
    # oracle: the second eigenvalue of the dense Neumann pencil
    # K g = lambda M g, with K = B^T C B built from the same conductances
    _, log_c, log_m = _first_domain_pencil(builder(), weight(), 64)
    c, m = np.exp(log_c), np.exp(log_m)
    b = np.diff(np.eye(m.size), axis=0)
    vals = scipy.linalg.eigh(b.T @ (c[:, None] * b), np.diag(m),
                             eigvals_only=True)
    lam = _ground_state(log_c, log_m)
    assert abs(lam - vals[1]) <= 1e-10 * vals[1], (name, lam, vals[1])


@pytest.mark.parametrize("term,shift", [
    (1, 800.0), (0, -800.0), (0, 800.0), (0, math.nan)],
    ids=["mass-up", "conductance-down", "conductance-up", "conductance-nan"])
def test_pencil_out_of_double_range_is_refused(term, shift):
    # one log mass or log conductance moved out of range.  A huge mass
    # leaves every diagonal entry positive and finite, but both ratios c/m
    # at that cell underflow, and the zero off-diagonal would decouple T
    # and give a silently wrong value; ratios that underflow, overflow or
    # are NaN are refused by the one range check
    pencil = [terms.copy() for terms in _first_domain_pencil(
        build_measure(4, ball_pot()), unit_w(), 64)[1:]]
    pencil[term][pencil[term].size // 2] += shift
    log_c, log_m = pencil
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiscretizationError, match="normal double range"):
            _ground_state(log_c, log_m)


@pytest.mark.parametrize("label,builder,weight", [
    ("cauchy n=8 b=4.1", lambda: build_measure(8, cauchy_pot(4.1)), unit_w),
    ("cauchy n=2 b=1.5", lambda: build_measure(2, cauchy_pot(1.5)), unit_w),
    ("cauchy n=2 b=6", lambda: build_measure(2, cauchy_pot(6.0)), unit_w),
    ("cauchy n=3 b=3.5", lambda: build_measure(3, cauchy_pot(3.5)),
     inv_one_plus_w),
])
def test_heavy_tail_without_gap_is_a_typed_outcome(label, builder, weight):
    # these generators have no spectral gap: their essential spectrum
    # reaches zero, and the refusal says so
    measure = builder()
    edge, err = sl_eigensolver.essential_edge(measure, weight())
    assert abs(edge) <= err, (label, edge, err)
    with pytest.raises(HypothesisFailed) as exc:
        _quiet_gap(measure, weight())
    assert "no spectral gap" in str(exc.value), label


def test_unresolved_gap_raises_after_the_domain_loop(monkeypatch):
    # cauchy t = 2.5 with sigma^2 = 1+r^2 has gap 6 below the edge 6.25.
    # At 64 cells its first domain now brackets 6 within its error.  A
    # lower end that cannot rise above 0 (the floor of W~ held there)
    # keeps the bracket open: the domain grows to the representable
    # radius, and the
    # estimate is refused because it does not exceed its own error.  The
    # law has a gap, so the refusal does not deny one, and a refused
    # estimate is not audited
    solves = []
    real = sl_eigensolver._solve_domain

    def spy(*args):
        solves.append(args[2])
        return real(*args)

    law = (build_measure(4, cauchy_pot(4.5)), one_plus_w(),
           GridSpec(n_cells=64))
    est = spectral_gap(*law)
    assert abs(est.value - 6.0) <= est.error_estimate < 1.0, est
    monkeypatch.setattr(sl_eigensolver, "_solve_domain", spy)
    monkeypatch.setattr(sl_eigensolver, "_tail_floor", lambda *args: 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError,
                           match="spectral gap not resolved") as exc:
            spectral_gap(*law)
    assert "does not exceed its error" in str(exc.value)
    assert "no spectral gap" not in str(exc.value)
    r_cap = sl_eigensolver._radii(law[0])[1]
    assert len(solves) >= 3 and solves[-1] == pytest.approx(r_cap), solves
    assert not any(issubclass(w.category, TruncationWarning)
                   for w in caught), [str(w.message) for w in caught]


# --- essential-spectrum edge ---------------------------------------------


@pytest.mark.parametrize("label,builder,weight,want", [
    ("cauchy n=2 b=1.5", lambda: build_measure(2, cauchy_pot(1.5)),
     one_plus_w, 0.25),
    ("cauchy n=3 b=3", lambda: build_measure(3, cauchy_pot(3.0)),
     one_plus_w, 2.25),
    ("cauchy n=6 b=3.5", lambda: build_measure(6, cauchy_pot(3.5)),
     one_plus_w, 0.25),
    ("cauchy n=4 b=4.5", lambda: build_measure(4, cauchy_pot(4.5)),
     one_plus_w, 6.25),
    ("gaussian n=2", lambda: build_measure(2, gaussian_pot()),
     inv_one_plus_w, 0.25),
    ("gaussian n=6", lambda: build_measure(6, gaussian_pot()),
     inv_one_plus_w, 0.25),
    ("exp-power a=1 n=2", lambda: build_measure(2, exp_power_pot(1.0)),
     unit_w, 0.25),
    ("exp-power a=1 n=8", lambda: build_measure(8, exp_power_pot(1.0)),
     unit_w, 0.25),
])
def test_essential_edge_finite_limits(label, builder, weight, want):
    # cauchy with sigma^2 = 1+r^2: W -> t^2, t = beta - n/2, like 1/r^2;
    # gaussian with sigma^2 = 1/(1+r^2) -> 1/4 like 1/r^2; exp-power
    # alpha = 1 -> 1/4 only like (n-1)/(2r), which its error must cover
    edge, err = sl_eigensolver.essential_edge(builder(), weight())
    assert abs(edge - want) <= err, (label, edge, err)
    assert err <= 1e-5 * want, (label, err)


@pytest.mark.parametrize("label,builder,weight", [
    ("exp-power a=1.2 n=3", lambda: build_measure(3, exp_power_pot(1.2)),
     unit_w),
    ("exp-power a=1.5 n=4", lambda: build_measure(4, exp_power_pot(1.5)),
     unit_w),
    ("exp-power a=4 n=2", lambda: build_measure(2, exp_power_pot(4.0)),
     unit_w),
    ("gaussian n=3", lambda: build_measure(3, gaussian_pot()), unit_w),
    ("gaussian n=3 1+r^2", lambda: build_measure(3, gaussian_pot()),
     one_plus_w),
    ("ball n=4", lambda: build_measure(4, ball_pot()), unit_w),
])
def test_essential_edge_infinite(label, builder, weight):
    # W grows along the ladder (like r^0.4 for alpha = 1.2, r/4 for
    # alpha = 1.5), or the law is bounded: the spectrum is discrete
    assert sl_eigensolver.essential_edge(builder(), weight()) == (
        math.inf, 0.0), label


def test_gapless_edge_raises_before_any_domain_solve(monkeypatch):
    # exp-power alpha = 1.5 with sigma^2 = 1/(1+r^2): W ~ 1/(4r) -> 0, so
    # the essential spectrum reaches 0 and the law has no gap
    mu, w = build_measure(4, exp_power_pot(1.5)), inv_one_plus_w()
    edge, err = sl_eigensolver.essential_edge(mu, w)
    assert 0.0 <= edge <= err
    calls = []
    monkeypatch.setattr(sl_eigensolver, "_solve_domain",
                        lambda *args: calls.append(args))
    with pytest.raises(HypothesisFailed, match="no spectral gap"):
        spectral_gap(mu, w)
    assert calls == []


def test_ground_state_skips_the_repeated_finite_check(monkeypatch):
    # d and e are checked finite once, by _ground_state's range check, and
    # go to LAPACK's bisection as they are: on the cold first pencil of a
    # solve, and on a warm start that falls back
    stebz = _stebz_spy(monkeypatch)
    spectral_gap(build_measure(4, ball_pot()), unit_w(), GridSpec(n_cells=64))
    assert stebz == [31]
    _, c, m = _first_domain_pencil(build_measure(4, ball_pot()), unit_w(), 64)
    _ground_state(c, m, 1e6)
    assert stebz == [31, c.size]


# --- warm-started Newton ------------------------------------------------


def _stebz_spy(monkeypatch):
    """Count the bisection calls _ground_state makes."""
    calls = []
    real = sl_eigensolver.eigh_tridiagonal

    def spy(*args, **kw):
        calls.append(np.size(args[0]))
        return real(*args, **kw)

    monkeypatch.setattr(sl_eigensolver, "eigh_tridiagonal", spy)
    return calls


def _flux_tridiagonal(log_c, log_m):
    """(d, e): the diagonal and off-diagonal of the flux pencil."""
    lo = np.exp(log_c - log_m[:-1])
    hi = np.exp(log_c - log_m[1:])
    return lo + hi, -np.sqrt(hi[:-1]) * np.sqrt(lo[1:])


def _tight_spectrum(log_c, log_m):
    """((lambda_1, lambda_2, lambda_3) of the flux pencil, bisected to the
    underflow threshold; eps |T|_1)."""
    d, e = _flux_tridiagonal(log_c, log_m)
    vals = scipy.linalg.eigh_tridiagonal(
        d, e, select="i", select_range=(0, 2), lapack_driver="stebz",
        eigvals_only=True, tol=2.0 * np.finfo(float).tiny)
    off = np.abs(e)
    norm1 = np.max(d + np.append(off, 0.0) + np.append(0.0, off))
    return vals, np.finfo(float).eps * norm1


_WARM_LAWS = [
    ("ball n=4", lambda: build_measure(4, ball_pot()), unit_w),
    ("gaussian n=3", lambda: build_measure(3, gaussian_pot()), unit_w),
    ("exp-power a=1 n=2", lambda: build_measure(2, exp_power_pot(1.0)),
     unit_w),
    ("gaussian n=2 inv", lambda: build_measure(2, gaussian_pot()),
     inv_one_plus_w),
    ("cauchy n=4 b=4.5", lambda: build_measure(4, cauchy_pot(4.5)),
     one_plus_w),
    ("cauchy n=4 b=2.5", lambda: build_measure(4, cauchy_pot(2.5)),
     one_plus_w),
]


@pytest.mark.parametrize("n_cells", [64, 1024])
@pytest.mark.parametrize("name,builder,weight", _WARM_LAWS,
                         ids=[law[0] for law in _WARM_LAWS])
def test_warm_ground_state_matches_tight_bisection(monkeypatch, name, builder,
                                                   weight, n_cells):
    # every pencil of a solve, warm-started or not, lands within
    # eps |T|_1 of lambda_1 resolved to the underflow threshold
    pencils = []
    real = sl_eigensolver._ground_state

    def spy(log_c, log_m, start=None):
        lam = real(log_c, log_m, start)
        pencils.append((log_c, log_m, start, lam))
        return lam

    monkeypatch.setattr(sl_eigensolver, "_ground_state", spy)
    stebz = _stebz_spy(monkeypatch)
    _quiet_gap(builder(), weight(), GridSpec(n_cells=n_cells))
    # only each domain's first pencil is solved cold: six pencils per
    # domain of an unbounded law (a Robin and a Dirichlet pencil per
    # mesh), three on the ball.  At 1024 cells Newton solves at least half
    # of every law's pencils
    per_domain = 3 if name.startswith("ball") else 6
    assert [p[2] is None for p in pencils] == [
        i % per_domain == 0 for i in range(len(pencils))], name
    if n_cells == 1024:
        assert 2 * len(stebz) <= len(pencils), (name, stebz)
    for log_c, log_m, start, lam in pencils:
        (lam1, _, _), tol = _tight_spectrum(log_c, log_m)
        assert abs(lam - lam1) <= tol, (name, log_m.size, start, lam, lam1)


@pytest.mark.parametrize("name,builder,weight", _WARM_LAWS,
                         ids=[law[0] for law in _WARM_LAWS])
def test_lapack_calls_match_scipy_linalg_bit_for_bit(name, builder, weight):
    # the solver loads scipy's LAPACK extension from its file, past the
    # scipy.linalg package; its dpttrf and bisection must give the bits
    # of the scipy.linalg calls they replace
    _, c, m = _first_domain_pencil(builder(), weight(), 256)
    d, e = _flux_tridiagonal(c, m)
    (lam1, lam2, _), _ = _tight_spectrum(c, m)
    for shift, definite in ((0.5 * lam1, True), (0.5 * (lam1 + lam2), False)):
        ours = sl_eigensolver.dpttrf(d - shift, e)
        theirs = scipy.linalg.lapack.dpttrf(d - shift, e)
        assert (ours[2] == 0) == definite and ours[2] == theirs[2], name
        for got, want in zip(ours[:2], theirs[:2]):
            assert got.tobytes() == want.tobytes(), (name, shift)
    want = scipy.linalg.eigh_tridiagonal(
        d, e, select="i", select_range=(0, 0), lapack_driver="stebz",
        eigvals_only=True)[0]
    got = sl_eigensolver.eigh_tridiagonal(d, e)
    assert np.float64(got).tobytes() == want.tobytes(), (name, got, want)


def test_bisection_failure_is_a_convergence_error():
    # dstebz gives info 4 on an infinite diagonal entry
    with pytest.raises(ConvergenceError, match="dstebz info=4"):
        sl_eigensolver.eigh_tridiagonal(np.array([np.inf, 1.0, 2.0]),
                                        np.ones(2))


def test_missing_lapack_extension_is_an_import_error_naming_it(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".missing.so"])
    with pytest.raises(ImportError, match=r"linalg.?_flapack\.missing\.so"):
        sl_eigensolver._load_flapack()


def _factorization_spy(monkeypatch):
    """Record the info of every LDL^T factorization Newton makes."""
    infos = []
    real = sl_eigensolver.dpttrf

    def spy(*args, **kw):
        out = real(*args, **kw)
        infos.append(out[-1])
        return out

    monkeypatch.setattr(sl_eigensolver, "dpttrf", spy)
    return infos


def test_warm_start_past_the_ground_state_falls_back(monkeypatch):
    # a prediction between lambda_2 and lambda_3 must not converge to a
    # higher state: T - sigma I is indefinite there, so the first
    # factorization fails, no pivot is read, and bisection returns lambda_1
    _, c, m = _first_domain_pencil(build_measure(3, gaussian_pot()), unit_w(),
                                   256)
    (lam1, lam2, lam3), tol = _tight_spectrum(c, m)
    stebz = _stebz_spy(monkeypatch)
    infos = _factorization_spy(monkeypatch)
    lam = _ground_state(c, m, 0.5 * (lam2 + lam3))
    assert len(infos) == 1 and infos[0] > 0, infos
    assert stebz == [c.size]
    assert abs(lam - lam1) <= tol, (lam, lam1)


def test_warm_start_margin_that_fails_certification_falls_back(monkeypatch):
    # a start above lambda_1 fails at once
    _, c, m = _first_domain_pencil(build_measure(4, ball_pot()), unit_w(), 256)
    (lam1, _, _), tol = _tight_spectrum(c, m)
    stebz = _stebz_spy(monkeypatch)
    infos = _factorization_spy(monkeypatch)
    lam = _ground_state(c, m, 1.01 * lam1 - 0.005 * lam1)
    assert len(infos) == 1 and infos[0] > 0, infos
    assert stebz == [c.size]
    assert abs(lam - lam1) <= tol, (lam, lam1)


def test_warm_start_that_hits_the_step_cap_falls_back(monkeypatch):
    # Newton always takes two steps before it can stop, so a cap of one
    # step hands every warm start to bisection
    _, c, m = _first_domain_pencil(build_measure(4, ball_pot()), unit_w(), 256)
    (lam1, _, _), tol = _tight_spectrum(c, m)
    stebz = _stebz_spy(monkeypatch)
    assert abs(_ground_state(c, m, lam1 - 0.01 * lam1) - lam1) <= tol
    assert stebz == []
    monkeypatch.setattr(sl_eigensolver, "_NEWTON_CAP", 1)
    assert abs(_ground_state(c, m, lam1 - 0.01 * lam1) - lam1) <= tol
    assert stebz == [c.size]


@pytest.mark.parametrize("prediction,margin", [
    (1e300, 0.0), (-1e308, 1e308), (0.0, -1e308), (1e-300, 0.0),
    (0.0, 0.0)])
def test_warm_start_raises_no_floating_point_warning(prediction, margin):
    # extreme starts either certify and climb, or fall back; no numpy
    # warning escapes (the suite also turns RuntimeWarning into errors)
    _, c, m = _first_domain_pencil(build_measure(3, gaussian_pot()), unit_w(),
                                   64)
    (lam1, _, _), tol = _tight_spectrum(c, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = _ground_state(c, m, prediction - margin)
    assert abs(lam - lam1) <= tol, (prediction, margin, lam, lam1)


def test_start_at_the_ground_state_to_rounding_climbs_without_bisection(
        monkeypatch):
    # a start that equals lambda_1 to rounding -- the coarsest Dirichlet
    # pencil starts from the Robin one, which lies below it only by the
    # truncation -- certifies once lowered by eps |T|_1, and a
    # factorization that fails after the first step has met lambda_1
    _, c, m = _first_domain_pencil(build_measure(4, gaussian_pot()), unit_w(),
                                   1024)
    (lam1, _, _), tol = _tight_spectrum(c, m)
    stebz = _stebz_spy(monkeypatch)
    for start in (lam1 - tol, lam1, lam1 + 0.5 * tol):
        assert abs(_ground_state(c, m, start) - lam1) <= tol, start
    assert stebz == []


def _walled_pencils(mu, w, n_cells):
    """The first domain's three nested pencils with the outer wall's face
    (coarsest first), those without it, and the ghost cell's log mass."""
    mesh, from_metric = _first_domain_mesh(mu, w)
    edges = mesh(2 * n_cells)
    r_hi = float(from_metric(edges[-1]))
    slope = sl_eigensolver._potentials(mu, w, np.array([r_hi]))[2][0]
    ghost = np.log(2.0 / -slope) + mu.log_weight(r_hi)
    return (sl_eigensolver._nested_pencils(mu, w, edges, from_metric, True),
            sl_eigensolver._nested_pencils(mu, w, edges, from_metric),
            ghost)


@pytest.mark.parametrize("name,builder,weight", [
    law for law in _WARM_LAWS if not law[0].startswith("ball")],
    ids=[law[0] for law in _WARM_LAWS if not law[0].startswith("ball")])
def test_robin_pencil_interlaces_below_the_dirichlet_one(name, builder,
                                                         weight):
    # the wall adds one face and one ghost cell and changes nothing else:
    # the Dirichlet pencil is the Robin pencil's leading block, so by
    # Cauchy interlacing the Robin ground state lies below it on every mesh
    walled, plain, ghost = _walled_pencils(builder(), weight(), 256)
    for (log_c, log_m), (plain_c, plain_m) in zip(walled, plain):
        assert np.array_equal(log_c[:-1], plain_c), name
        assert np.array_equal(log_m, plain_m), name
        (robin, _, _), tol = _tight_spectrum(log_c, np.append(log_m, ghost))
        (dirichlet, _, _), _ = _tight_spectrum(plain_c, plain_m)
        assert robin <= dirichlet + tol, (name, robin, dirichlet)


@pytest.mark.parametrize("fraction", [0.5, 0.75])
@pytest.mark.parametrize("label,builder,weight,gap", [
    ("exp-power a=1 n=2", lambda: build_measure(2, exp_power_pot(1.0)),
     unit_w, 2.0 / 9.0),
    ("gaussian n=3", lambda: build_measure(3, gaussian_pot()), unit_w, 2.0),
    ("cauchy n=3 b=4", lambda: build_measure(3, cauchy_pot(4.0)),
     one_plus_w, 6.0),
    ("cauchy n=4 b=4.5", lambda: build_measure(4, cauchy_pot(4.5)),
     one_plus_w, 6.0),
    ("cauchy n=3 b=2", lambda: build_measure(3, cauchy_pot(2.0)),
     one_plus_w, 0.25),
])
def test_a_shorter_domain_still_brackets_the_gap(monkeypatch, label, builder,
                                                 weight, gap, fraction):
    # on a domain of 1/2 or 3/4 of the default natural length, with no
    # growth, the bracket widens but still holds the gap within the mesh
    # error: the lower end is a bound, not a fit
    mu, w = builder(), weight()
    r0, r_cap = sl_eigensolver._radii(mu)
    to_metric, from_metric = sl_eigensolver._metric_maps(w, r_cap)
    short = float(from_metric(fraction * float(to_metric(r0))))
    monkeypatch.setattr(sl_eigensolver, "_radii", lambda m: (short, r_cap))
    monkeypatch.setattr(sl_eigensolver, "_MAX_GROWTH", 0)
    est = _quiet_gap(mu, w)
    assert est.domains == (short,)
    assert abs(est.value - gap) <= est.error_estimate, (label, est)


# --- convergence order -------------------------------------------------


@pytest.mark.parametrize("name,builder,weight", [
    ("gaussian n=3", lambda: build_measure(3, gaussian_pot()), unit_w),
    ("cauchy n=3 b=4", lambda: build_measure(3, cauchy_pot(4.0)), one_plus_w),
    ("ball n=4", lambda: build_measure(4, ball_pot()), unit_w),
])
def test_richardson_error_shrinks_by_factor_three(name, builder, weight):
    # solve one fixed domain so only the mesh error varies under refinement
    mu = builder()
    r_hi = (mu.potential.domain_end
            if math.isfinite(mu.potential.domain_end)
            else truncation_radius(mu, 1e-10))
    maps = sl_eigensolver._metric_maps(weight(), r_hi)
    errs = []
    for cells in (64, 128, 256, 512):
        _, err, _ = sl_eigensolver._solve_domain(
            mu, weight(), r_hi, GridSpec(n_cells=cells), *maps)
        errs.append(err)
    ratios = [errs[i] / errs[i + 1] for i in range(3) if errs[i + 1] > 0]
    assert ratios, f"{name}: error estimates hit zero: {errs}"
    assert all(r >= 3.0 for r in ratios), (
        f"{name}: second-order refinement expected, ratios {ratios}")


def test_every_domain_solve_uses_three_nested_meshes(monkeypatch):
    # a bounded law is solved on one domain, at 32, 64 and 128 cells
    calls = []
    real = sl_eigensolver._ground_state

    def spy(log_c, log_m, *start):
        calls.append(log_m.size)
        return real(log_c, log_m, *start)

    monkeypatch.setattr(sl_eigensolver, "_ground_state", spy)
    est = spectral_gap(build_measure(4, ball_pot()), unit_w(),
                       GridSpec(n_cells=64))
    assert calls == [32, 64, 128]
    assert abs(est.value - BALL_ORACLE[4]) <= est.error_estimate


@pytest.mark.parametrize("n_cells", [64, 1024])
@pytest.mark.parametrize("name,builder,weight", [
    ("gaussian n=3", lambda: build_measure(3, gaussian_pot()), unit_w),
    ("ball n=4", lambda: build_measure(4, ball_pot()), unit_w),
    ("cauchy n=3 b=4", lambda: build_measure(3, cauchy_pot(4.0)), one_plus_w),
])
def test_restricted_pencils_match_direct_assembly(name, builder, weight,
                                                  n_cells):
    # the n_cells/2 and n_cells pencils of a domain solve are restrictions
    # of the 2 n_cells assembly; each must be the pencil a direct
    # assembly of that mesh gives
    mu, w = builder(), weight()
    mesh, from_metric = _first_domain_mesh(mu, w)
    fine = mesh(2 * n_cells)
    pencils = sl_eigensolver._nested_pencils(mu, w, fine, from_metric)
    for step, (log_c, log_m) in zip((4, 2, 1), pencils):
        edges = mesh(2 * n_cells // step)
        assert np.array_equal(fine[::step], edges), (name, step)
        log_flux_d, log_m_d = sl_eigensolver._mesh_terms(mu, w, edges,
                                                         from_metric)
        log_c_d = sl_eigensolver._pencil(edges, log_flux_d, from_metric)
        assert np.array_equal(log_c, log_c_d), (name, step)
        # a relative mass error of 1e-12 is a log error of 1e-12
        np.testing.assert_allclose(log_m, log_m_d, rtol=0.0, atol=1e-12,
                                   err_msg=f"{name} step {step}")
        lam_r = _ground_state(log_c, log_m)
        lam_d = _ground_state(log_c_d, log_m_d)
        # the tridiagonal bisection resolves each eigenvalue to
        # eps |T|_1 absolute, which on ball n=4 at 1024 cells is 2.2e-10
        # relative; two such solves may differ by twice that
        lo = np.exp(log_c_d - log_m_d[:-1])
        hi = np.exp(log_c_d - log_m_d[1:])
        off = np.sqrt(hi[:-1] * lo[1:])
        norm1 = np.max(lo + hi + np.append(off, 0.0) + np.append(0.0, off))
        tol = max(1e-10 * lam_d, 2.0 * np.finfo(float).eps * norm1)
        assert abs(lam_r - lam_d) <= tol, (name, step, lam_r, lam_d)


def test_one_mass_integration_per_domain_solve(monkeypatch):
    # only the finest mesh of a domain solve integrates its cell masses:
    # 2 n_cells - 1 intervals (the first cell has its own rule)
    intervals, solves = [], []
    real_integrals = sl_eigensolver.log_integrals_exp
    real_ground = sl_eigensolver._ground_state

    def spy_integrals(log_f, lo, hi):
        intervals.append(np.size(lo))
        return real_integrals(log_f, lo, hi)

    def spy_ground(log_c, log_m, *start):
        solves.append(log_m.size)
        return real_ground(log_c, log_m, *start)

    monkeypatch.setattr(sl_eigensolver, "log_integrals_exp", spy_integrals)
    monkeypatch.setattr(sl_eigensolver, "_ground_state", spy_ground)
    spectral_gap(build_measure(4, ball_pot()), unit_w(), GridSpec(n_cells=64))
    # a bounded law is one domain solve: three meshes, one integration
    assert solves == [32, 64, 128]
    assert intervals == [2 * 64 - 1]


def _bracket_spy(monkeypatch):
    """Record each domain solve's (r_hi, value, mesh error, robin) and
    each tail floor read."""
    solves, floors = [], []
    real_solve = sl_eigensolver._solve_domain
    real_floor = sl_eigensolver._tail_floor

    def solve(measure, weight, r_hi, *rest):
        out = real_solve(measure, weight, r_hi, *rest)
        solves.append((r_hi, *out))
        return out

    def floor(*args):
        floors.append(real_floor(*args))
        return floors[-1]

    monkeypatch.setattr(sl_eigensolver, "_solve_domain", solve)
    monkeypatch.setattr(sl_eigensolver, "_tail_floor", floor)
    return solves, floors


def test_unsettled_trace_returns_last_domain(monkeypatch):
    # the estimate is the last domain's bracket.  This edge law (t = 1/2,
    # W_inf = 1/4) closes it on its first domain: the value is W_inf,
    # below the Dirichlet end, and the error is the width down to the
    # Robin end or the floor of W~, whichever is lower, plus the mesh
    # error and W_inf's own error
    solves, floors = _bracket_spy(monkeypatch)
    mu = build_measure(3, cauchy_pot(2.0))
    est = spectral_gap(mu, one_plus_w())
    edge, edge_err = sl_eigensolver.essential_edge(mu, one_plus_w())
    assert len(solves) == len(floors) == 1
    [(r_last, val, mesh_err, robin)] = solves
    assert est.at_edge and est.value == est.upper == edge < val
    assert est.lower == min(robin, floors[0]) <= est.upper
    assert est.error_estimate == (est.upper - est.lower) + mesh_err + edge_err
    assert est.r_max_used == r_last and est.domains == (r_last,)


def test_fitted_limit_only_widens_the_error(monkeypatch):
    # a modelled tail value -- the floor of W~ past the wall, which stands
    # where the inverse-square limit of the domain trace used to -- only
    # widens the error.  Held 10% below each domain's Robin end, it keeps
    # the bracket open: the domain grows to the representable radius, the
    # value is still the last domain's upper end (here W_inf, as on one
    # domain), and the error grows by the width
    mu = build_measure(3, cauchy_pot(2.0))
    plain = spectral_gap(mu, one_plus_w())
    solves = []
    real = sl_eigensolver._solve_domain

    def spy(*args):
        out = real(*args)
        solves.append(out)
        return out

    monkeypatch.setattr(sl_eigensolver, "_solve_domain", spy)
    monkeypatch.setattr(sl_eigensolver, "_tail_floor",
                        lambda *args: 0.9 * solves[-1][2])
    est = _quiet_gap(mu, one_plus_w())
    _, edge_err = sl_eigensolver.essential_edge(mu, one_plus_w())
    val, mesh_err, robin = solves[-1]
    assert len(solves) > 1
    assert est.value == plain.value == min(val, est.upper)
    assert est.lower == 0.9 * robin
    assert est.error_estimate == (est.upper - est.lower) + mesh_err + edge_err
    assert est.error_estimate > 0.05 * est.value > plain.error_estimate


def _brentq_inverse_square(points):
    """The inverse-square fit lambda_inf + A/(S + phi)^2 through three
    points, with scipy's brentq solving for phi."""
    (s1, l1), (s2, l2), (s3, l3) = points
    target = (l1 - l2) / (l2 - l3)

    def mismatch(phi):
        w1, w2, w3 = (s1 + phi) ** -2, (s2 + phi) ** -2, (s3 + phi) ** -2
        return (w1 - w2) / (w2 - w3) - target

    phi = brentq(mismatch, -0.999 * s1, 100.0 * s3, xtol=1e-12 * s3,
                 rtol=1e-14)
    w2, w3 = (s2 + phi) ** -2, (s3 + phi) ** -2
    return l3 - (l2 - l3) / (w2 - w3) * w3


@pytest.mark.parametrize("lam_inf, amp, phi, s_first", [
    (6.0, 3.0, 0.5, 4.0), (6.0, -3.0, 0.5, 4.0), (0.25, 40.0, -1.2, 2.0),
    (14.0, -0.02, 7.0, 1.5), (2.25, 1e3, 0.0, 30.0), (1e-3, 5e-4, 3.0, 8.0),
])
def test_inverse_square_fit_matches_brentq(monkeypatch, lam_inf, amp, phi,
                                           s_first):
    # inverse-square tails W~(r) = lam_inf + A/(r + phi)^2 from the wall
    # r = s_first on, the algebraic approach the edge laws' W~ takes.  The
    # floor the lower end is capped by lies at or below the infimum over
    # [s_first, inf) -- W~ at the wall when it rises, else the limit that
    # brentq's inverse-square fit through the first three rungs recovers
    # -- and within the ladder's last step of it
    rungs = []

    def tail(measure, weight, r):
        rungs.append(r)
        return None, lam_inf + amp / (r + phi) ** 2, None

    monkeypatch.setattr(sl_eigensolver, "_potentials", tail)
    got = sl_eigensolver._tail_floor(None, None, s_first)
    [r] = rungs
    points = [(x, lam_inf + amp / (x + phi) ** 2) for x in r[:3]]
    limit = _brentq_inverse_square(points)
    assert abs(limit - lam_inf) <= 1e-9 * (abs(lam_inf) + abs(amp))
    inf = min(points[0][1], limit)
    last_step = abs(amp / (r[-2] + phi) ** 2 - amp / (r[-1] + phi) ** 2)
    assert inf - last_step - 1e-12 * abs(inf) <= got <= inf + 1e-12 * abs(inf)
    assert r[0] == s_first and r[-1] >= 1e8 and np.all(r <= 1e150)


@pytest.mark.parametrize("n,beta,exact", [
    (3, 4.0, 6.0), (3, 6.0, 14.0), (2, 4.0, 8.0), (4, 5.0, 8.0),
    (6, 7.0, 12.0)])
def test_heavy_tail_eigenvalue_regime_tight(n, beta, exact):
    # in the eigenfunction regime the truncation bracket must leave no
    # visible truncation bias
    mu = build_measure(n, cauchy_pot(beta))
    est = _quiet_gap(mu, one_plus_w())
    assert abs(est.value - exact) <= 5e-6 * (1.0 + exact), (
        f"n={n} beta={beta}: {est.value!r} vs exact {exact}")


# --- large dimensions --------------------------------------------------


def _large_n_laws():
    """(label, n, potential, weight, closed form or None) over
    n in {128, 256, 512, 1024}: gaussian 2, exp-power alpha = 1
    n/(n+1)^2 (and alpha = 2, the gaussian), ball j_{n/2,1}^2, and cauchy
    with sigma^2 = 1+r^2 at t = beta - n/2: t^2 for t <= 2, else 4(t-1);
    plus exp-power alpha = 1 at n = 192."""
    laws = [("exp-power a=1 n=192", 192, exp_power_pot(1.0), unit_w,
             192.0 / 193.0 ** 2)]
    for n in (128, 256, 512, 1024):
        laws += [(f"gaussian n={n}", n, gaussian_pot(), unit_w, 2.0),
                 (f"ball n={n}", n, ball_pot(), unit_w,
                  float(jn_zeros(n // 2, 1)[0]) ** 2)]
        exact = {1.0: n / (n + 1.0) ** 2, 2.0: 2.0}
        laws += [(f"exp-power a={a:g} n={n}", n, exp_power_pot(a), unit_w,
                  exact.get(a)) for a in (1.0, 1.5, 2.0, 4.0, 16.0)]
        laws += [(f"cauchy n={n} t={t:g}", n, cauchy_pot(n / 2.0 + t),
                  one_plus_w, t * t if t <= 2.0 else 4.0 * (t - 1.0))
                 for t in (0.5, 1.5, 2.5, 4.5)]
    return laws


_LARGE_N = _large_n_laws()


@pytest.mark.parametrize("n_cells", [256, 1024])
@pytest.mark.parametrize("label,n,pot,weight,exact", _LARGE_N,
                         ids=[law[0] for law in _LARGE_N])
def test_large_dimensions_solve(label, n, pot, weight, exact, n_cells):
    # the pencil is assembled from logs, so no mass or conductance
    # underflows as n grows; each closed form lies within the error
    est = _quiet_gap(build_measure(n, pot), weight(),
                     GridSpec(n_cells=n_cells))
    assert 0.0 < est.error_estimate < est.value, (label, est)
    if exact is not None:
        assert abs(est.value - exact) <= est.error_estimate, (
            label, n_cells, est, exact)


@pytest.mark.parametrize("n,pot", [(2048, ball_pot()),
                                   (8192, gaussian_pot())],
                         ids=["ball n=2048", "gaussian n=8192"])
def test_dimension_past_double_range_is_refused(n, pot):
    # the ratios c/m of these pencils leave the normal double range
    with pytest.raises(DiscretizationError, match="normal double range"):
        spectral_gap(build_measure(n, pot), unit_w())


# --- residuals ---------------------------------------------------------


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


def _audited_gap(monkeypatch, measure, weight, n_cells):
    """(estimate, last domain's mesh error, TruncationWarning messages)."""
    errs = []
    real = sl_eigensolver._solve_domain

    def spy(*args):
        out = real(*args)
        errs.append(out[1])
        return out

    monkeypatch.setattr(sl_eigensolver, "_solve_domain", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = spectral_gap(measure, weight, GridSpec(n_cells=n_cells))
    return est, errs[-1], [str(w.message) for w in caught
                           if issubclass(w.category, TruncationWarning)]


def test_truncation_audit_warns_once(monkeypatch):
    # with no growth allowed, this essential-spectrum law still closes
    # its bracket on the first domain, and nothing warns; gaussian n=2
    # with sigma^2 = 1/(1+r^2) needs three domains, and on its first the
    # bracket is far wider than the mesh error: the audit of that estimate
    # warns once, naming the case, the bracket, the domain, the width and
    # the mesh error
    monkeypatch.setattr(sl_eigensolver, "_MAX_GROWTH", 0)
    mu = build_measure(3, cauchy_pot(2.0))
    _, _, trunc = _audited_gap(monkeypatch, mu, one_plus_w(), 1024)
    assert trunc == []
    mu = build_measure(2, gaussian_pot(), name="gaussian n=2 1/(1+r^2)")
    est, mesh_err, trunc = _audited_gap(monkeypatch, mu, inv_one_plus_w(),
                                        1024)
    assert len(trunc) == 1, trunc
    width = est.upper - est.lower
    assert width > mesh_err and len(est.domains) == 1, est
    assert est.error_estimate == width + mesh_err
    for text in (mu.name, f"[{est.lower:.6g}, {est.upper:.6g}]",
                 f"(0, {est.r_max_used:.6g})", f"{width:.3e}",
                 f"{mesh_err:.3e}"):
        assert text in trunc[0], (text, trunc[0])


def test_truncation_audit_reads_the_returned_estimate(monkeypatch):
    # at 256 cells this law's domain trace used to end unsettled, and the
    # audit warned on the estimate it returned.  Its first domain now
    # brackets the gap 14 within the mesh error: one domain, no warning,
    # and an error that is the width plus the mesh error
    mu = build_measure(6, cauchy_pot(7.5), name="cauchy b=7.5 n=6 1+r^2")
    est, mesh_err, trunc = _audited_gap(monkeypatch, mu, one_plus_w(), 256)
    assert trunc == [] and len(est.domains) == 1, (trunc, est)
    assert 0.0 <= est.upper - est.lower <= 0.01 * mesh_err, est
    assert est.error_estimate == est.upper - est.lower + mesh_err
    assert abs(est.value - 14.0) <= est.error_estimate < 0.05, est


@pytest.mark.parametrize("t", (2.003, 2.01, 2.03))
@pytest.mark.parametrize("n", (2, 3, 6, 16))
def test_heavy_tail_just_above_t2_solves(n, t):
    # just above t = beta - n/2 = 2, E r^4 converges too slowly for its
    # quadrature to accept it; it only places the first domain, so the
    # bare law's radius stands in and the bracket audits the truncation:
    # the gap 4(t-1) within the error, with no warning
    mu = build_measure(n, cauchy_pot(n / 2.0 + t))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        est = spectral_gap(mu, one_plus_w())
    assert abs(est.value - 4.0 * (t - 1.0)) <= est.error_estimate, est


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


def test_grid_spec_rejects_more_than_the_cell_cap():
    # checked before any allocation: memory grows with the cell count
    cap = sl_eigensolver._MAX_CELLS
    assert GridSpec(n_cells=cap).n_cells == cap
    with pytest.raises(InvalidInput, match=f"at most {cap}, got {2 * cap}"):
        GridSpec(n_cells=2 * cap)
