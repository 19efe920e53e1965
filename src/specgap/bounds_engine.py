"""Closed-form lower and upper bounds for radial spectral gaps.

This module hosts the analytic side of the toolkit: one-sided lower
bounds obtained by integrating the inverse curvature felt by the radial
(or weighted radial) dynamics, grid-certified variational lower bounds
built from monotone candidate functions, Rayleigh-quotient upper bounds,
exact Gamma-ratio brackets for exponential-power laws, and the comparison
step that folds a radial gap into a bracket for the full n-dimensional
dynamics.

Everything here is a pure function of immutable inputs and none of it
touches the mesh eigensolver, so agreement between the two routes is a
meaningful cross-check rather than a shared-code tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    DegenerateFunction,
    HypothesisFailed,
    InvalidInput,
    NonIntegrable,
)
from .loggamma import log_gamma
from .radial_model import (
    BoundBracket,
    _fd_check,
    diagnostic_grid,
    drift,
    drift_derivative,
    effective_potential,
    expectation,
    moment,
    truncation_radius,
    validate_weight,
)

__all__ = [
    "CandidateFunction",
    "LowerBound",
    "ExpPowerBrackets",
    "validate_candidate",
    "moment_bracket",
    "curvature_lower",
    "radial_moment_lower",
    "weighted_curvature",
    "weighted_curvature_lower",
    "variational_potential",
    "variational_lower",
    "rayleigh_upper",
    "spectral_comparison",
    "weighted_comparison",
    "gamma_ratio_bounds",
    "exp_power_explicit",
]

_VARIANCE_FLOOR = 1e-14
_CHEN_TAIL_TOL = 1e-10
# evaluation grid of the variational bound: 10 points per cell of the
# eigensolver's default 1024-cell mesh, plus one
_CHEN_GRID_POINTS = 10 * 1024 + 1
# endpoint terms within this relative distance of the radial gap are ties,
# labelled as the radial gap
_TIE_REL = 1e-12
# a curvature below this multiple of its summands' total size is
# rounding noise (see _resolution_radius)
_CURV_RESOLUTION = 1e3 * np.finfo(float).eps
# probe of the resolution radius: the representable half-line, uniform in
# log(1+r) like the tail probe of the quadrature
_PROBE_U_CAP = 708.0
_PROBE_POINTS = 8193


# ---------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateFunction:
    """A smooth trial function of the radius with explicit derivatives.

    ``d3f`` is required by :func:`variational_lower` (the bound
    differentiates the generator applied to f).  ``log_abs_f`` /
    ``log_abs_df`` are optional vectorized log-magnitudes letting
    integrals of f against heavy tails be probed on the log scale at
    radii where f itself overflows doubles.  ``monotone`` claims f' > 0
    on the interior of the domain; the claim is checked pointwise by
    :func:`validate_candidate` and on the refinement grid by
    :func:`variational_lower`.
    """

    f: Callable
    df: Callable
    d2f: Callable
    d3f: Optional[Callable] = None
    monotone: bool = False
    name: str = ""
    log_abs_f: Optional[Callable] = None
    log_abs_df: Optional[Callable] = None


@dataclass(frozen=True)
class LowerBound:
    """One-sided lower bound on a spectral gap; float(x) gives the value.

    ``informative=False`` marks the zero returned when the defining
    integral diverges: no information, by design not an error.
    ``grid_inf`` marks values certified only as the infimum over a
    finite evaluation grid (plus one local refinement), not over the
    whole half-line.
    """

    value: float
    informative: bool = True
    grid_inf: bool = False
    method: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise InvalidInput(
                f"lower bound value must be finite and >= 0, got {self.value!r}")
        if not self.informative and self.value != 0.0:
            raise InvalidInput("a non-informative bound must carry value 0")

    def __float__(self):
        return float(self.value)


class ExpPowerBrackets(NamedTuple):
    """Exact Gamma-ratio bracket and its dimension-power simplification."""

    exact: BoundBracket
    simplified: BoundBracket


# ---------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------


def _check_dimension(n):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidInput(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def _check_positive(name, x):
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise InvalidInput(f"{name} must be finite and > 0, got {x!r}")
    return x


def _check_gap(name, x):
    x = float(x)
    if not (math.isfinite(x) and x >= 0.0):
        raise InvalidInput(f"{name} must be finite and >= 0, got {x!r}")
    return x


def _require_increasing(cand, radii, claim):
    """HypothesisFailed naming the first radius where f' > 0 fails."""
    with np.errstate(over="ignore"):
        dvals = np.asarray(cand.df(radii), dtype=float)
    bad = ~np.isfinite(dvals) | (dvals <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        found = ("is not finite" if not np.isfinite(dvals[k])
                 else "is <= 0")
        raise HypothesisFailed(
            f"{claim}, but f'({radii[k]:.6g}) = {dvals[k]:.6g} {found}")


def validate_candidate(measure, cand):
    """Consistency checks for a CandidateFunction against one measure.

    Finite-differences each supplied derivative pair on a diagnostic
    grid (InvalidInput on disagreement) and, when the candidate claims
    monotonicity, checks f' > 0 there (HypothesisFailed otherwise).
    """
    if not isinstance(cand, CandidateFunction):
        raise InvalidInput("candidate must be a CandidateFunction")
    grid = diagnostic_grid(measure, count=41, p_lo=1e-3)
    end = measure.potential.domain_end
    if math.isfinite(end):
        grid = grid[grid * 1.01 < end]
    _fd_check(cand.f, cand.df, f"{cand.name or 'candidate'} f'", grid)
    _fd_check(cand.df, cand.d2f, f"{cand.name or 'candidate'} f''", grid)
    if cand.d3f is not None:
        _fd_check(cand.d2f, cand.d3f, f"{cand.name or 'candidate'} f'''", grid)
    if cand.monotone:
        _require_increasing(
            cand, grid, f"candidate {cand.name or '<anon>'} claims f' > 0")


# ---------------------------------------------------------------------
# second-moment brackets and comparisons
# ---------------------------------------------------------------------


def moment_bracket(n, m2):
    """Two-sided bracket of the full spectral gap from the second moment.

    For a spherically symmetric log-concave law in dimension n with
    m2 = E[|x|^2], the gap of the full dynamics lies in
    [(n-1)/m2, n/m2].
    """
    n = _check_dimension(n)
    m2 = _check_positive("m2", m2)
    return BoundBracket((n - 1.0) / m2, float(n) / m2,
                        lower_source="(n-1)/m2 second-moment bound",
                        upper_source="n/m2 second-moment bound")


def _gap_wins(lam, term):
    """Whether the radial gap lam supplies min(lam, term): it is smaller,
    or ties with term to within the rounding of the two computations."""
    return lam - term <= _TIE_REL * term


def spectral_comparison(lambda_nu, n, m2):
    """Fold a radial gap into a bracket for the full dynamics.

    The full gap equals the minimum of the radial gap and the gap of the
    angular component, and the latter lies in [(n-1)/m2, n/m2]; hence
    [min(lambda_nu, (n-1)/m2), min(lambda_nu, n/m2)].
    """
    lam = _check_gap("lambda_nu", lambda_nu)
    n = _check_dimension(n)
    m2 = _check_positive("m2", m2)
    term_lo = (n - 1.0) / m2
    term_hi = float(n) / m2
    return BoundBracket(
        min(lam, term_lo), min(lam, term_hi),
        lower_source=("radial gap" if _gap_wins(lam, term_lo)
                      else "(n-1)/m2 second-moment bound"),
        upper_source=("radial gap" if _gap_wins(lam, term_hi)
                      else "n/m2 second-moment bound"))


def weighted_comparison(lambda_nu_sigma, n, m_r2_over_s2, m_s2, m2):
    """Weighted analogue of spectral_comparison.

    The angular component of the weighted dynamics is bracketed by
    [(n-1)/E[r^2/sigma^2], n E[sigma^2]/E[r^2]], so the full weighted
    gap lies in [min(lam, (n-1)/m_r2_over_s2), min(lam, n m_s2/m2)],
    with ties labelled as in spectral_comparison.
    """
    lam = _check_gap("lambda_nu_sigma", lambda_nu_sigma)
    n = _check_dimension(n)
    m_r2_over_s2 = _check_positive("m_r2_over_s2", m_r2_over_s2)
    m_s2 = _check_positive("m_s2", m_s2)
    m2 = _check_positive("m2", m2)
    term_lo = (n - 1.0) / m_r2_over_s2
    term_hi = float(n) * m_s2 / m2
    return BoundBracket(
        min(lam, term_lo), min(lam, term_hi),
        lower_source=("weighted radial gap" if _gap_wins(lam, term_lo)
                      else "(n-1)/E[r^2/sigma^2] angular bound"),
        upper_source=("weighted radial gap" if _gap_wins(lam, term_hi)
                      else "n E[sigma^2]/E[r^2] angular bound"))


# ---------------------------------------------------------------------
# integrated-curvature lower bounds
# ---------------------------------------------------------------------


def _resolution_radius(terms):
    """First probed radius where the summed curvature terms no longer
    resolve the curvature, or None.

    A curvature assembled from terms of total size S carries a rounding
    error of order eps * S; where |curv| falls below
    ``_CURV_RESOLUTION`` * S the computed value is mostly that error (and
    may change sign), so the inverse-curvature integrand cannot be
    trusted past this radius.  (Farther out, intermediate overflow can
    make the terms stop cancelling altogether, so only the first such
    radius is meaningful.)  A genuinely negative curvature is resolved
    and left to the positivity check.  Probes where a term overflows or
    every term underflows are left to the integral's own handling of
    non-finite and non-positive values.
    """
    radii = np.expm1(np.linspace(0.0, _PROBE_U_CAP, _PROBE_POINTS))[1:]
    with np.errstate(all="ignore"):
        parts = np.array(terms(radii), dtype=float)
        size = np.sum(np.abs(parts), axis=0)
        curv = np.sum(parts, axis=0)
        lost = (np.isfinite(size) & (size > 0.0)
                & ~(np.abs(curv) > _CURV_RESOLUTION * size))
    if not np.any(lost):
        return None
    return float(radii[int(np.argmax(lost))])


def _inverse_curvature_bound(measure, terms, label):
    """1 / integral of 1/curv against nu, with hypothesis checking.

    ``terms`` maps radii to the summands of the curvature curv.  On an
    unbounded domain everything below happens inside the resolution
    radius, the first radius where the summands cancel below their
    rounding error (see _resolution_radius).  Positivity of curv is
    certified on a dense quantile grid (HypothesisFailed otherwise);
    the integral then treats stray non-finite or non-positive
    evaluations in the far numerical tail -- where composite
    coefficient formulas can overflow doubles -- as vanishing
    contributions of 1/curv.  An integrand still live at the resolution
    radius is either divergent, which yields the non-informative zero
    bound, or extrapolated with its tail charged to the error, which
    then fails the acceptance check as a ConvergenceError naming that
    radius.
    """
    def curv(r):
        # nan at the origin, where the coefficients are undefined
        rr = np.asarray(r, dtype=float)
        out = np.full(rr.shape, np.nan)
        pos = rr > 0.0
        out[pos] = sum(terms(rr[pos]))
        return out

    r_stop = None
    if not math.isfinite(measure.potential.domain_end):
        r_stop = _resolution_radius(terms)
    grid = diagnostic_grid(measure, count=401, p_lo=1e-6)
    if r_stop is not None:
        grid = grid[grid < r_stop]
    vals = np.asarray(curv(grid), dtype=float)
    bad = ~np.isfinite(vals) | (vals <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise HypothesisFailed(
            f"{label} requires positive curvature, but the curvature at "
            f"r = {grid[k]:.6g} is {vals[k]:.6g}")

    def log_inv(r):
        with np.errstate(all="ignore"):
            v = np.asarray(curv(r), dtype=float)
            return np.where(np.isfinite(v) & (v > 0.0),
                            -np.log(np.maximum(v, 5e-324)), -np.inf)

    def inv(r):
        with np.errstate(all="ignore"):
            v = np.asarray(curv(r), dtype=float)
            return np.where(np.isfinite(v) & (v > 0.0), 1.0 / v, 0.0)

    try:
        integral = expectation(measure, inv, positive=True,
                               log_abs_g=log_inv, r_stop=r_stop)
    except NonIntegrable:
        return LowerBound(0.0, informative=False, method=label)
    return LowerBound(1.0 / integral, informative=True, method=label)


def curvature_lower(measure):
    """Lower bound 1 / E[1/U''] from the curvature of the radial well.

    U(r) = V(r) - (n-1) log r is the effective potential of the radial
    dynamics; when its curvature U'' is positive the gap is at least the
    harmonic mean of U'' against nu.  Heavy tails make U'' negative at
    large radii and fail the hypothesis.
    """
    d2v = measure.potential.d2v
    nm1 = measure.n - 1

    def terms(r):
        rr = np.asarray(r, dtype=float)
        return d2v(rr), nm1 / (rr * rr)

    return _inverse_curvature_bound(
        measure, terms, "integrated inverse curvature of the radial well")


def radial_moment_lower(measure):
    """Lower bound (n-1)/m2 for the radial gap (m2 the second moment)."""
    m2 = moment(measure, 2)
    return LowerBound((measure.n - 1.0) / m2, informative=True,
                      method="(n-1)/m2 second-moment bound")


def _weighted_curvature_terms(measure, weight):
    _, du, d2u = effective_potential(measure)

    def terms(r):
        rr = np.asarray(r, dtype=float)
        s = weight.s(rr)
        return (weight.s2(rr) * d2u(rr), s * weight.ds(rr) * du(rr),
                -s * weight.d2s(rr))

    return terms


def weighted_curvature(measure, weight):
    """Curvature analogue seen by the weighted dynamics, as a callable.

    curv(r) = (sigma^2 sigma'' + b sigma') / sigma - b' with b the drift
    of the weighted radial generator; it plays the role U'' plays for
    the unit weight (to which it reduces when sigma is constant 1).  It
    is evaluated in the algebraically equal form
    sigma^2 U'' + sigma sigma' U' - sigma sigma'' (U the effective
    potential).  Under a weight growing like r these summands stay O(1)
    for heavy tails while curv decays like 1/r^2, so far enough out the
    sum is rounding noise; _inverse_curvature_bound reads the summands
    to find where that starts.
    """
    terms = _weighted_curvature_terms(measure, weight)

    def curv(r):
        return sum(terms(r))

    return curv


def weighted_curvature_lower(measure, weight):
    """Lower bound 1 / E[1/curv] for the weighted radial gap.

    Requires the weighted curvature (see weighted_curvature) to be
    positive on the diagnostic grid; a divergent integral of its inverse
    yields the non-informative zero.  Unlike curvature_lower this can be
    informative for heavy-tailed laws when the weight grows with r.
    The integral stops where the curvature's summands no longer resolve
    it (see _inverse_curvature_bound); heavy tails decaying too slowly
    to be negligible there raise ConvergenceError.
    """
    validate_weight(measure, weight)
    return _inverse_curvature_bound(
        measure, _weighted_curvature_terms(measure, weight),
        "integrated inverse curvature felt by the weighted flow")


# ---------------------------------------------------------------------
# variational lower bound from a monotone candidate
# ---------------------------------------------------------------------


def variational_potential(measure, weight, cand):
    """The local decay rate -(L f)'/f' of a monotone candidate, callable.

    L is the weighted radial generator sigma^2 d^2/dr^2 + b d/dr.  For
    any candidate with f' > 0 the infimum of this quantity over the
    domain is a lower bound for the gap, with equality at the gap
    eigenfunction when one exists.
    """
    if cand.d3f is None:
        raise InvalidInput(
            "variational bounds differentiate L f and need d3f; "
            f"candidate {cand.name or '<anon>'} does not supply it")
    b = drift(measure, weight)
    db = drift_derivative(measure, weight)

    def vf(r):
        rr = np.asarray(r, dtype=float)
        f1 = np.asarray(cand.df(rr), dtype=float)
        return -(weight.s2(rr) * np.asarray(cand.d3f(rr), dtype=float)
                 + (weight.ds2(rr) + b(rr))
                 * np.asarray(cand.d2f(rr), dtype=float)
                 + db(rr) * f1) / f1

    return vf


def variational_lower(measure, weight, cand):
    """Grid infimum of the candidate's variational potential.

    Evaluates -(L f)'/f' on a geometric grid of 10 * 1024 + 1 points
    spanning (r_max * 1e-6, r_max), with r_max the domain end or the
    radius leaving a tail mass of 1e-10, refines around the grid minimizer
    with one bounded golden-section search, and returns the smaller of
    the two as a grid-certified lower bound (grid_inf flag set).  A
    non-positive infimum carries no information and returns the flagged
    zero; f' <= 0 anywhere on the grid fails the monotonicity
    hypothesis.
    """
    validate_weight(measure, weight)
    validate_candidate(measure, cand)
    vf = variational_potential(measure, weight, cand)

    r_max = truncation_radius(measure, _CHEN_TAIL_TOL)
    radii = np.geomspace(r_max * 1e-6, r_max, _CHEN_GRID_POINTS)

    _require_increasing(
        cand, radii,
        f"variational candidate {cand.name or '<anon>'} must have f' > 0")

    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(vf(radii), dtype=float)
    usable = ~np.isnan(vals)
    if not np.any(usable):
        raise HypothesisFailed(
            f"variational potential of {cand.name or '<anon>'} is not "
            "evaluable anywhere on the grid")
    masked = np.where(usable, vals, np.inf)
    k = int(np.argmin(masked))
    inf_val = float(masked[k])

    lo = radii[max(k - 1, 0)]
    hi = radii[min(k + 1, radii.size - 1)]
    if hi > lo:
        def scalar_vf(r):
            with np.errstate(over="ignore", invalid="ignore"):
                v = float(vf(float(r)))
            return v if math.isfinite(v) else math.inf

        res = minimize_scalar(scalar_vf, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12 * (hi - lo) + 1e-300})
        if res.success and math.isfinite(res.fun):
            inf_val = min(inf_val, float(res.fun))

    label = "grid infimum of the candidate's local decay rate"
    if not math.isfinite(inf_val) or inf_val <= 0.0:
        return LowerBound(0.0, informative=False, grid_inf=True,
                          method=label)
    return LowerBound(inf_val, informative=True, grid_inf=True, method=label)


# ---------------------------------------------------------------------
# Rayleigh-quotient upper bound
# ---------------------------------------------------------------------


def rayleigh_upper(measure, weight, cand):
    """Upper bound E[sigma^2 f'^2] / Var(f) for the weighted radial gap.

    Any square-integrable candidate with finite weighted energy gives an
    upper bound through the variational characterization of the gap.
    DegenerateFunction flags variance below 1e-14 (f essentially
    constant on nu); NonIntegrable propagates when either integral
    diverges.
    """
    validate_weight(measure, weight)
    validate_candidate(measure, cand)

    def log_abs_f(r):
        with np.errstate(all="ignore"):
            if cand.log_abs_f is not None:
                lf = np.asarray(cand.log_abs_f(r), dtype=float)
            else:
                lf = np.log(np.abs(np.asarray(cand.f(r), dtype=float)))
        return lf

    def log_abs_df(r):
        with np.errstate(all="ignore"):
            if cand.log_abs_df is not None:
                ldf = np.asarray(cand.log_abs_df(r), dtype=float)
            else:
                ldf = np.log(np.abs(np.asarray(cand.df(r), dtype=float)))
        return ldf

    def log_s2(r):
        with np.errstate(all="ignore"):
            return np.log(np.clip(np.asarray(weight.s2(r), dtype=float),
                                  5e-324, 1.7e308))

    mean = expectation(measure, cand.f, log_abs_g=log_abs_f)
    second = expectation(measure, lambda r: np.square(cand.f(r)),
                         positive=True,
                         log_abs_g=lambda r: 2.0 * log_abs_f(r))
    variance = second - mean * mean
    if not (variance >= _VARIANCE_FLOOR):
        raise DegenerateFunction(
            f"candidate {cand.name or '<anon>'} has variance "
            f"{variance:.3e} below {_VARIANCE_FLOOR:g}; the Rayleigh "
            "quotient is meaningless")

    energy = expectation(
        measure,
        lambda r: weight.s2(r) * np.square(cand.df(r)),
        positive=True,
        log_abs_g=lambda r: log_s2(r) + 2.0 * log_abs_df(r))
    return energy / variance


# ---------------------------------------------------------------------
# exponential-power laws: exact and simplified brackets
# ---------------------------------------------------------------------


def gamma_ratio_bounds(a, b):
    """Elementary bounds for Gamma(a) a^b / Gamma(a+b), b in [0, 2].

    Returns (lower, value, upper).  For b in [0, 1] the ratio lies in
    [1, ((a+b)/a)^(1-b)]; for b in [1, 2] it lies in
    [a/(a+b-1), ((a+b-1)/a)^(2-b)].  The directly evaluated ratio is
    checked against its bounds before returning.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and a > 0.0):
        raise InvalidInput(f"gamma_ratio_bounds requires a > 0, got {a!r}")
    if not (math.isfinite(b) and 0.0 <= b <= 2.0):
        raise InvalidInput(
            f"gamma_ratio_bounds requires b in [0, 2], got {b!r}")
    value = math.exp(log_gamma(a) + b * math.log(a) - log_gamma(a + b))
    if b <= 1.0:
        lower = 1.0
        upper = ((a + b) / a) ** (1.0 - b)
    else:
        lower = a / (a + b - 1.0)
        upper = ((a + b - 1.0) / a) ** (2.0 - b)
    slack = 1e-12 * max(1.0, abs(value))
    if not (lower - slack <= value <= upper + slack):
        raise InvalidInput(
            f"gamma ratio {value!r} escapes its bounds "
            f"[{lower!r}, {upper!r}] at a={a!r}, b={b!r}")
    return lower, value, upper


def exp_power_explicit(n, alpha):
    """Gap brackets for the exponential-power law with V = r^alpha/alpha.

    Returns the exact bracket [(n-1)/m2, n/m2] with
    m2 = alpha^(2/alpha) Gamma((n+2)/alpha) / Gamma(n/alpha) evaluated
    through log-Gamma, together with the closed-form simplification
    [(n-1)/(n+1), (n+2)/n] * n^(1-2/alpha), and checks that the
    simplified bracket encloses the exact one.
    """
    n = _check_dimension(n)
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise InvalidInput(f"alpha must be >= 1, got {alpha!r}")
    log_m2 = ((2.0 / alpha) * math.log(alpha)
              + log_gamma((n + 2.0) / alpha) - log_gamma(n / alpha))
    m2 = math.exp(log_m2)
    exact = BoundBracket(
        (n - 1.0) / m2, float(n) / m2,
        lower_source="(n-1)/m2 with the exact Gamma-ratio second moment",
        upper_source="n/m2 with the exact Gamma-ratio second moment")
    scale = float(n) ** (1.0 - 2.0 / alpha)
    simplified = BoundBracket(
        (n - 1.0) / (n + 1.0) * scale, (n + 2.0) / float(n) * scale,
        lower_source="dimension-power simplification of (n-1)/m2",
        upper_source="dimension-power simplification of n/m2")
    tol = 1e-12 * (1.0 + exact.upper)
    if (simplified.lower > exact.lower + tol
            or exact.upper > simplified.upper + tol):
        raise InvalidInput(
            f"simplified bracket {simplified} fails to enclose the exact "
            f"bracket {exact} at n={n}, alpha={alpha}")
    return ExpPowerBrackets(exact=exact, simplified=simplified)
