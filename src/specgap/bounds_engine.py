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
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DegenerateFunction,
    DomainError,
    HypothesisFailed,
    InvalidInput,
    NonIntegrable,
)
from .quadrature import _PROBE_POINTS, _U_CAP
from .radial_model import (
    BoundBracket,
    _fd_check,
    _fd_grid,
    _finite_real,
    _log_s2,
    diagnostic_grid,
    expectation,
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
# refinement around the grid minimizer: rounds of 65 points, each keeping
# the two cells next to the sampled minimum (1/32 of the bracket), so
# eight rounds narrow it to 1e-12 of its first width
_REFINE_POINTS = 65
_REFINE_ROUNDS = 8
# endpoint terms within this relative distance of the radial gap are ties,
# labelled as the radial gap
_TIE_REL = 1e-12
# a curvature below this multiple of its summands' total size is
# rounding noise (see _resolution_radius)
_CURV_RESOLUTION = 1e3 * np.finfo(float).eps


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

    ``informative=False`` marks the zero returned when the bound holds
    no information (a defining integral diverges, or a grid infimum is
    not positive): by design not an error, and ``void_reason`` says
    which.  ``grid_inf`` marks values certified only as the infimum over
    a finite evaluation grid (plus one local refinement), not over the
    whole half-line.
    """

    value: float
    informative: bool = True
    grid_inf: bool = False
    method: str = ""
    void_reason: str = ""

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
    x = _finite_real(name, x)
    if not x > 0.0:
        raise InvalidInput(f"{name} must be finite and > 0, got {x!r}")
    return x


def _check_gap(name, x):
    x = _finite_real(name, x)
    if not x >= 0.0:
        raise InvalidInput(f"{name} must be finite and >= 0, got {x!r}")
    return x


def _require_increasing(cand, radii, claim):
    """HypothesisFailed naming the first radius where f' > 0 fails.

    An f' of exactly 0 where the candidate's log_abs_df is finite is
    positive: only its double underflowed."""
    with np.errstate(over="ignore"):
        dvals = np.asarray(cand.df(radii), dtype=float)
    bad = ~np.isfinite(dvals) | (dvals <= 0.0)
    if np.any(dvals == 0.0) and cand.log_abs_df is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_df = np.asarray(cand.log_abs_df(radii), dtype=float)
        bad &= ~((dvals == 0.0) & np.isfinite(log_df))
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
    grid = _fd_grid(measure)
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
    [(n-1)/m2, n/m2].  The other routes read both ends from here.
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
    angular = moment_bracket(n, m2)
    return BoundBracket(
        min(lam, angular.lower), min(lam, angular.upper),
        lower_source=("radial gap" if _gap_wins(lam, angular.lower)
                      else angular.lower_source),
        upper_source=("radial gap" if _gap_wins(lam, angular.upper)
                      else angular.upper_source))


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
    resolve the curvature, or None.  The probe is every point of the
    quadrature's probe grid: the representable half-line, uniform in
    log(1+r).  (The quadrature itself reads that grid in full only
    inside its integrand's live window; a first-hit rule like this one
    has no such window.)

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
    radii = np.expm1(np.linspace(0.0, _U_CAP, _PROBE_POINTS))[1:]
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
    with np.errstate(all="ignore"):  # far-out overflow is judged below
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
        return LowerBound(0.0, informative=False, method=label,
                          void_reason="defining integral diverges")
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


def radial_moment_lower(n, m2):
    """Lower bound (n-1)/m2 for the radial gap in dimension n.

    Like moment_bracket, it takes the second moment m2 = E[|x|^2] of the
    law rather than integrating it: it is that bracket's lower end.
    """
    bracket = moment_bracket(n, m2)
    return LowerBound(bracket.lower, method=bracket.lower_source)


def _weighted_curvature_terms(measure, weight):
    pot = measure.potential
    nm1 = measure.n - 1

    def terms(r):
        rr = np.asarray(r, dtype=float)
        s2, ds2 = weight.s2(rr), weight.ds2(rr)
        return (s2 * (pot.d2v(rr) + nm1 / (rr * rr)),
                0.5 * ds2 * (pot.dv(rr) - nm1 / rr),
                0.25 * ds2 * ds2 / s2 - 0.5 * weight.d2s2(rr))

    return terms


def weighted_curvature(measure, weight):
    """Curvature analogue seen by the weighted dynamics, as a callable.

    curv(r) = (sigma^2 sigma'' + b sigma') / sigma - b' with b the drift
    of the weighted radial generator; it plays the role U'' plays for
    the unit weight (to which it reduces when sigma is constant 1).  It
    is evaluated from sigma^2 alone, in the algebraically equal form
    sigma^2 U'' + (sigma^2)' U'/2 + ((sigma^2)')^2/(4 sigma^2)
    - (sigma^2)''/2 (U the effective potential; the last two summands
    are -sigma sigma'').  Under a weight growing like r these summands
    stay O(1) for heavy tails while curv decays like 1/r^2, so far
    enough out the sum is rounding noise; _inverse_curvature_bound reads
    the summands to find where that starts.
    """
    terms = _weighted_curvature_terms(measure, weight)

    def curv(r):
        return sum(terms(_require_positive_radii(r)))

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


def _require_positive_radii(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("radial coefficients are defined for r > 0 only")
    return arr


def variational_potential(measure, weight, cand):
    """The local decay rate -(L f)'/f' of a monotone candidate, callable.

    L is the weighted radial generator sigma^2 d^2/dr^2 + b d/dr, with
    drift b = (sigma^2)' - sigma^2 U' and U(r) = V(r) - (n-1) log r the
    effective potential.  For any candidate with f' > 0 the infimum of
    this quantity over the domain is a lower bound for the gap, with
    equality at the gap eigenfunction when one exists.  The callable
    raises DomainError at radii r <= 0, and gives NaN (not evaluable)
    where f' underflows to 0.  The (n-1)/r parts of b and b' are summed as
    (n-1)/r (sigma^2 (f'' - f'/r) + (sigma^2)' f'), exactly 0 for f = r^2/2
    where the terms apart leave rounding noise of size (n-1)/r^2.
    """
    if cand.d3f is None:
        raise InvalidInput(
            "variational bounds differentiate L f and need d3f; "
            f"candidate {cand.name or '<anon>'} does not supply it")
    pot = measure.potential
    nm1 = measure.n - 1

    def vf(r):
        rr = _require_positive_radii(r)
        s2, ds2 = weight.s2(rr), weight.ds2(rr)
        dv = pot.dv(rr)
        f1 = np.asarray(cand.df(rr), dtype=float)
        f2 = np.asarray(cand.d2f(rr), dtype=float)
        num = -(s2 * np.asarray(cand.d3f(rr), dtype=float)
                + (2.0 * ds2 - s2 * dv) * f2
                + (weight.d2s2(rr) - ds2 * dv - s2 * pot.d2v(rr)) * f1
                + nm1 / rr * (s2 * (f2 - f1 / rr) + ds2 * f1))
        # where f' underflowed to 0 the rate is not evaluable
        return np.divide(num, f1, out=np.full(np.shape(num), np.nan),
                         where=f1 != 0.0)

    return vf


def variational_lower(measure, weight, cand):
    """Grid infimum of the candidate's variational potential.

    Evaluates -(L f)'/f' on a geometric grid of 10 * 1024 + 1 points
    spanning (r_max * 1e-6, r_max), with r_max the domain end or the
    radius leaving a tail mass of 1e-10, refines the bracket of the two
    grid cells around the grid minimizer (_refine_minimum: eight rounds
    of 65 vectorized evaluations, to 1e-12 of the bracket), and returns the
    smaller of the two minima as a grid-certified lower bound (grid_inf
    flag set).  A non-positive infimum carries no information and returns
    the flagged zero; f' <= 0 anywhere on the grid fails the monotonicity
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

    inf_val = min(inf_val, _refine_minimum(
        vf, radii[max(k - 1, 0)], radii[min(k + 1, radii.size - 1)]))

    label = "grid infimum of the candidate's local decay rate"
    if not math.isfinite(inf_val) or inf_val <= 0.0:
        return LowerBound(0.0, informative=False, grid_inf=True,
                          method=label,
                          void_reason=("grid infimum of the decay rate is not "
                                       "finite and positive"))
    return LowerBound(inf_val, informative=True, grid_inf=True, method=label)


def _refine_minimum(fn, lo, hi):
    """Least finite value of the vectorized fn seen while narrowing
    [lo, hi] around its sampled minimizer (inf if none is finite).

    Each round evaluates fn once on _REFINE_POINTS equally spaced points
    and keeps the two cells next to the least value.
    """
    best = math.inf
    for _ in range(_REFINE_ROUNDS):
        r = np.linspace(lo, hi, _REFINE_POINTS)
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.asarray(fn(r), dtype=float)
        v = np.where(np.isfinite(v), v, np.inf)
        j = int(np.argmin(v))
        best = min(best, float(v[j]))
        lo, hi = r[max(j - 1, 0)], r[min(j + 1, r.size - 1)]
    return best


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
        log_abs_g=lambda r: _log_s2(weight, r) + 2.0 * log_abs_df(r))
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
    a = _finite_real("a", a)
    b = _finite_real("b", b)
    if not a > 0.0:
        raise InvalidInput(f"gamma_ratio_bounds requires a > 0, got {a!r}")
    if not 0.0 <= b <= 2.0:
        raise InvalidInput(
            f"gamma_ratio_bounds requires b in [0, 2], got {b!r}")
    value = math.exp(math.lgamma(a) + b * math.log(a) - math.lgamma(a + b))
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
    alpha = _finite_real("alpha", alpha)
    if not alpha >= 1.0:
        raise InvalidInput(f"alpha must be >= 1, got {alpha!r}")
    log_m2 = ((2.0 / alpha) * math.log(alpha)
              + math.lgamma((n + 2.0) / alpha) - math.lgamma(n / alpha))
    exact = replace(
        moment_bracket(n, math.exp(log_m2)),
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
