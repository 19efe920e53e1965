"""Radial potentials, weights, and the radial law of the norm.

A spherically symmetric probability measure on R^n with density
proportional to exp(-V(||x||)) pushes forward, under x -> ||x||, to the
one-dimensional measure with density proportional to r^{n-1} exp(-V(r))
on (0, R).  This module owns that one-dimensional object: normalization,
truncation radius, a tabulated monotone CDF (for inverse sampling),
moments and tail masses by adaptive quadrature, the effective potential
U = V - (n-1) log r, and the drift coefficient of the weighted radial
generator.

All callables supplied in a RadialPotential or Weight must accept floats
and numpy arrays and be analytically correct derivatives of each other: a
central finite-difference self-check (h = 1e-5 relative, tolerance 1e-5
relative) runs on a quantile grid at build/validation time and rejects
inconsistent inputs.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from .errors import (ConvergenceError, DomainError, InvalidInput,
                     NonIntegrable)
from .quadrature import log_integrals_exp, tail_integral

# past this radius no family of interest carries any mass; probing stops here
_HORIZON = 1e120
# integrability requires the log-density log-log slope below -1 - margin
_SLOPE_MARGIN = 5e-3

_CDF_CELLS = 4096
_FD_REL_STEP = 1e-5
_FD_REL_TOL = 1e-5
_CONVEXITY_SLACK = 1e-10


@dataclass(frozen=True)
class RadialPotential:
    """Radial potential V on (0, domain_end) with analytic derivatives."""

    v: Callable
    dv: Callable
    d2v: Callable
    domain_end: float = math.inf
    convex: bool = False
    name: str = ""

    def __post_init__(self):
        if not (self.domain_end > 0.0):
            raise InvalidInput("domain_end must be positive (or inf)")


@dataclass(frozen=True)
class Weight:
    """Diffusion weight sigma, supplied both as sigma^2 and sigma.

    s2/ds2/d2s2 are sigma^2 and its derivatives; s/ds/d2s are sigma and
    its derivatives.  ``to_metric``/``from_metric`` optionally supply the
    natural-coordinate map s(r) = int_0^r du/sigma(u) and its inverse in
    closed form; the eigensolver falls back to quadrature without them.
    """

    s2: Callable
    ds2: Callable
    d2s2: Callable
    s: Callable
    ds: Callable
    d2s: Callable
    name: str = ""
    to_metric: Optional[Callable] = None
    from_metric: Optional[Callable] = None


@dataclass(frozen=True)
class BoundBracket:
    """A two-sided spectral-gap bracket with provenance labels."""

    lower: float
    upper: float
    lower_source: str
    upper_source: str

    def __post_init__(self):
        if not (self.lower >= 0.0):
            raise InvalidInput(f"bracket lower {self.lower} must be >= 0")
        if not (self.upper >= 0.0):
            raise InvalidInput(f"bracket upper {self.upper} must be >= 0")
        if self.lower > self.upper:
            raise InvalidInput(
                f"bracket is empty: lower {self.lower} > upper {self.upper}")


@dataclass(frozen=True)
class RadialMeasure:
    """Normalized radial law nu with cached truncation and CDF table."""

    n: int
    potential: RadialPotential
    tail_tol: float
    z: float
    log_z: float
    r_max: float
    name: str = ""
    _cdf_spline: object = field(default=None, repr=False, compare=False)
    _quantile_spline: object = field(default=None, repr=False, compare=False)

    # -- densities ---------------------------------------------------

    def log_weight(self, r):
        """log of the unnormalized density r^{n-1} exp(-V(r)).

        Returns -inf wherever the density vanishes (r = 0, V = +inf, or
        outside the supported domain, where whatever the formula gives is
        discarded)."""
        arr = np.asarray(r, dtype=float)
        inside = (arr > 0.0) & (arr < self.potential.domain_end)
        with np.errstate(all="ignore"):
            vals = (self.n - 1) * np.log(arr) - self.potential.v(arr)
        out = np.where(inside & ~np.isnan(vals), vals, -np.inf)
        if arr.ndim == 0:
            return float(out)
        return out

    def log_density(self, r):
        """log of the normalized density of nu."""
        return self.log_weight(r) - self.log_z

    def density(self, r):
        with np.errstate(over="ignore"):
            return np.exp(self.log_density(r))

    # -- cumulative distribution -------------------------------------

    def cdf(self, r):
        arr = np.asarray(r, dtype=float)
        u = np.log1p(np.clip(arr, 0.0, self.r_max))
        vals = np.clip(self._cdf_spline(u), 0.0, 1.0)
        # the table stops at r_max; beyond it the cdf stays at its cap
        if arr.ndim == 0:
            return float(vals)
        return vals

    def quantile(self, p):
        """Generalized inverse of the tabulated CDF (used for sampling)."""
        arr = np.asarray(p, dtype=float)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise InvalidInput("quantile probabilities must lie in [0, 1]")
        lo = self._quantile_spline.x[0]
        hi = self._quantile_spline.x[-1]
        clipped = np.clip(arr, lo, hi)
        u = self._quantile_spline(clipped)
        vals = np.clip(np.expm1(u), 0.0, self.r_max)
        if arr.ndim == 0:
            return float(vals)
        return vals


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------


def _tail_slope(potential, n, r):
    """d log(unnormalized density) / d log r."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = (n - 1) - r * potential.dv(r)
    return np.where(np.isnan(p), -np.inf, p)


def _pick_r_max(measure_logw, potential, n, log_z, tail_tol):
    """Smallest grid radius whose estimated normalized tail mass is below
    tail_tol.  The tail is estimated by integrating a log-linear (in
    log r) extrapolation of the log-density, which over-estimates the
    tail of any density decaying faster than a power law."""
    grid = np.expm1(np.linspace(0.0, np.log1p(_HORIZON), 4001))[1:]
    lw = measure_logw(grid)
    slopes = _tail_slope(potential, n, grid)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # int_r^inf rho dr ~= rho(r) * r / (-(p+1)) for slope p < -1
        log_tail = lw + np.log(grid) - np.log(-(slopes + 1.0)) - log_z
    log_tail = np.where(slopes < -1.0 - _SLOPE_MARGIN, log_tail, np.inf)
    ok = log_tail < math.log(tail_tol) + math.log(0.5)
    idx = np.argmax(ok)
    if not ok[idx]:
        raise NonIntegrable(
            "could not locate a truncation radius with tail mass below "
            f"{tail_tol:g} inside the probe horizon")
    return float(grid[idx])


def build_measure(n, potential, tail_tol=1e-12, name=""):
    """Construct the radial measure nu for dimension n and potential V.

    The normalization z, the truncation radius r_max (estimated tail mass
    below tail_tol) and a 4096-cell monotone CDF table (graded in
    log(1+r), denser near both ends) are computed here; the supplied
    derivatives are finite-difference checked on a quantile grid.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidInput(f"dimension n must be an integer >= 2, got {n!r}")
    if not (0.0 < tail_tol < 1e-3):
        raise InvalidInput("tail_tol must lie in (0, 1e-3)")
    n = int(n)
    finite_domain = math.isfinite(potential.domain_end)

    # sanity: the potential must evaluate finitely inside its domain
    r_hi = potential.domain_end if finite_domain else 1.0
    trial = np.geomspace(r_hi * 1e-8, r_hi * (1.0 - 1e-9) if finite_domain else r_hi, 17)
    for fn in (potential.v, potential.dv, potential.d2v):
        vals = np.asarray(fn(trial), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DomainError(
                f"potential {potential.name or '<anon>'} not finite on its domain")

    # the unnormalized law: its log_weight is all the normalization reads
    measure = RadialMeasure(
        n=n, potential=potential, tail_tol=float(tail_tol), z=1.0,
        log_z=0.0, r_max=potential.domain_end, name=name or potential.name)
    try:
        val, _, shift = tail_integral(measure.log_weight, 0.0,
                                      potential.domain_end, rel_tol=1e-13,
                                      accept_rel=5e-11)
    except NonIntegrable as exc:
        raise NonIntegrable(
            f"r^{{n-1}} exp(-V) is not integrable for potential "
            f"{potential.name or '<anon>'} (n = {n}): {exc}") from None
    if not (val > 0.0 and math.isfinite(val)):
        raise NonIntegrable("normalization integral did not converge")
    log_z = shift + math.log(val)
    measure = replace(measure, z=math.exp(log_z), log_z=log_z)
    r_max = truncation_radius(measure, tail_tol)

    # CDF table: Chebyshev-extrema grading in u = log(1+r) clusters nodes
    # at both ends, where the density factor r^{n-1} and the tail live
    u_max = math.log1p(r_max)
    x = np.linspace(0.0, 1.0, _CDF_CELLS + 1)
    u_nodes = u_max * (1.0 - np.cos(math.pi * x)) / 2.0
    u_nodes[0], u_nodes[-1] = 0.0, u_max

    def log_dens_u(u):
        # density of nu transported to u = log(1+r); jacobian dr/du = 1+r = e^u
        return measure.log_density(np.expm1(u)) + u

    masses = np.exp(log_integrals_exp(log_dens_u, u_nodes[:-1], u_nodes[1:]))
    f_nodes = np.concatenate(([0.0], np.cumsum(masses)))
    f_nodes = np.minimum(f_nodes, 1.0)
    if f_nodes[-1] < 1.0 - max(100.0 * tail_tol, 1e-9) or f_nodes[-1] > 1.0:
        raise ConvergenceError(
            f"CDF table mass {f_nodes[-1]!r} inconsistent with normalization")

    # exact node derivatives, clamped to the Fritsch-Carlson monotone region;
    # the last node is read from just inside, where a bounded law's density
    # has not yet dropped to zero at its wall
    deriv = np.exp(log_dens_u(np.minimum(u_nodes, np.nextafter(u_max, 0.0))))
    sec = np.diff(f_nodes) / np.diff(u_nodes)
    sec_lo = np.concatenate(([sec[0]], np.minimum(sec[:-1], sec[1:]), [sec[-1]]))
    deriv = np.clip(deriv, 0.0, 3.0 * np.maximum(sec_lo, 0.0))
    cdf_spline = CubicHermiteSpline(u_nodes, f_nodes, deriv)

    # in high dimension the CDF is astronomically flat at the left end
    # (r^{n-1} vanishing) and the inverse slopes there break the monotone
    # interpolant; uniform doubles never resolve probabilities below 2^-53,
    # so the quantile table starts at 1e-18 and clips below it
    keep = (f_nodes >= 1e-18) & np.concatenate(([False],
                                                np.diff(f_nodes) > 0.0))
    quantile_spline = PchipInterpolator(f_nodes[keep], u_nodes[keep])

    measure = replace(measure, r_max=r_max, _cdf_spline=cdf_spline,
                      _quantile_spline=quantile_spline)

    _check_potential_derivatives(measure)
    return measure


def truncation_radius(measure, tail_tol, poly_power=0):
    """Truncation radius for the given tail mass budget (measure unchanged).

    Same conservative log-linear tail estimate used at build time; lets a
    consumer (the eigensolver truncates at 1e-10 rather than the measure's
    own tail_tol) pick its own budget.

    With poly_power = k > 0 the budget applies to the normalized
    r^k-weighted law instead: the radius where the tail of r^k against nu
    drops below tail_tol times the k-th moment.  Truncating a domain
    biases an eigenvalue through the mass its (polynomially growing)
    eigenfunction sees, not through the bare tail mass, so eigensolvers
    provision domains this way.  Raises NonIntegrable when the k-th
    moment diverges or the weighted tail never meets the budget inside
    the probe horizon.
    """
    if not (0.0 < tail_tol < 1e-3):
        raise InvalidInput("tail_tol must lie in (0, 1e-3)")
    if not isinstance(poly_power, (int, np.integer)) or poly_power < 0:
        raise InvalidInput("poly_power must be an integer >= 0")
    pot = measure.potential
    if math.isfinite(pot.domain_end):
        return float(pot.domain_end)
    if poly_power == 0:
        return _pick_r_max(measure.log_weight, pot, measure.n,
                           measure.log_z, tail_tol)
    log_mk = math.log(moment(measure, poly_power))
    k = float(poly_power)

    def logw_k(r):
        return measure.log_weight(r) + k * np.log(r)

    # the weighted law r^k w(r) has the log-log slope of dimension n + k
    return _pick_r_max(logw_k, pot, measure.n + poly_power,
                       measure.log_z + log_mk, tail_tol)


def diagnostic_grid(measure, count=201, p_lo=1e-4):
    """Quantile-based radii covering the bulk of nu, from probability p_lo
    to 1 - p_lo (used for pointwise positivity/consistency checks)."""
    r = measure.quantile(np.linspace(p_lo, 1.0 - p_lo, count))
    r = np.unique(r[r > 0.0])
    if r.size < 8:
        raise ConvergenceError("diagnostic grid degenerate")
    return r


def _fd_reject(name, r, got, expect):
    worst = float(np.max(np.abs(got - expect) / (1.0 + np.abs(expect))))
    raise InvalidInput(
        f"supplied derivative {name} disagrees with finite differences "
        f"(worst relative deviation {worst:.2e} at r ~ {float(r):.6g})")


def _fd_check(fn, dfn, name, grid):
    h = _FD_REL_STEP
    fd = (fn(grid * (1.0 + h)) - fn(grid * (1.0 - h))) / (2.0 * grid * h)
    exact = dfn(grid)
    err = np.abs(fd - exact) / (1.0 + np.abs(exact))
    if np.any(err > _FD_REL_TOL):
        _fd_reject(name, grid[int(np.argmax(err))], fd, exact)


def _check_potential_derivatives(measure):
    pot = measure.potential
    grid = diagnostic_grid(measure, count=41, p_lo=1e-3)
    if math.isfinite(pot.domain_end):
        grid = grid[grid * (1.0 + _FD_REL_STEP) < pot.domain_end]
    _fd_check(pot.v, pot.dv, "V'", grid)
    _fd_check(pot.dv, pot.d2v, "V''", grid)
    if pot.convex:
        if np.any(pot.d2v(grid) < -_CONVEXITY_SLACK):
            raise InvalidInput(
                f"potential {pot.name or '<anon>'} declared convex but V'' < 0 "
                "on the diagnostic grid")


def validate_weight(measure, weight):
    """Ellipticity and derivative consistency checks for a Weight."""
    grid = diagnostic_grid(measure, count=41, p_lo=1e-3)
    s2 = weight.s2(grid)
    if np.any(~np.isfinite(s2)) or np.any(s2 <= 0.0):
        raise InvalidInput(f"weight {weight.name or '<anon>'} is not elliptic")
    s = weight.s(grid)
    if np.any(np.abs(s * s - s2) > 1e-12 * np.abs(s2)):
        raise InvalidInput("weight fields sigma and sigma^2 are inconsistent")
    _fd_check(weight.s2, weight.ds2, "(sigma^2)'", grid)
    _fd_check(weight.ds2, weight.d2s2, "(sigma^2)''", grid)
    _fd_check(weight.s, weight.ds, "sigma'", grid)
    _fd_check(weight.ds, weight.d2s, "sigma''", grid)


# ---------------------------------------------------------------------
# integral functionals
# ---------------------------------------------------------------------


def expectation(measure, g, *, log_abs_g=None, positive=False, r_stop=None):
    """integral of g(r) nu(dr) over the whole domain, to relative 1e-10.

    g must be vectorized and defined on (0, R); the quadrature
    (tail_integral up to the domain end R) calls it (and ``log_abs_g``)
    with arrays of radii only.  The default probe requires |g| to stay
    within float range at every radius where the density has not yet
    decayed 5000 e-folds below scale; functions
    that overflow doubles earlier (high powers of r against heavy tails,
    or negative powers at the origin, say) must supply ``log_abs_g``
    (vectorized log |g|) so the probe can work on the log scale, and
    otherwise fail with NonIntegrable rather than risk a corrupted value.
    ``positive`` skips the sign bookkeeping for g >= 0.  ``r_stop`` is
    the radius past which g is not resolved in floating point (see
    tail_integral); the tail beyond it is extrapolated and charged to the
    error.  NonIntegrable is also raised when no integrable decay of g
    times the density is established at radii where the integrand still
    carries mass on an unbounded domain.
    """
    scale = max(1.0, float(np.max(np.abs(
        g(diagnostic_grid(measure, count=33))))))
    if log_abs_g is None:
        def log_abs_g(r):
            with np.errstate(all="ignore"):
                return np.log(np.abs(np.asarray(g(r), dtype=float)))

    def log_abs_integrand(r):
        arr = np.asarray(r, dtype=float)
        with np.errstate(all="ignore"):
            lg = np.asarray(log_abs_g(arr), dtype=float)
            ld = np.asarray(measure.log_density(arr), dtype=float)
            # |g| overflowing doubles is harmless where the density has been
            # dead for thousands of e-folds (any float-range-in-the-bulk g
            # contributes nothing there); where the density is not long
            # dead the +inf is kept and rejected as untrustworthy upstream
            out = np.where(np.isposinf(lg) & (ld < -5000.0),
                           -np.inf, lg + ld)
        return np.where(np.isnan(out), -np.inf, out)

    sign_fn = None
    if not positive:
        def sign_fn(r):
            with np.errstate(all="ignore"):
                return np.sign(np.asarray(g(r), dtype=float))

    val, _, log_scale = tail_integral(
        log_abs_integrand, 0.0, measure.potential.domain_end,
        sign_fn=sign_fn, rel_tol=1e-12, accept_rel=1e-10,
        abs_floor=1e-12 * scale, r_stop=r_stop)
    return val * math.exp(log_scale)


def moment(measure, k):
    """k-th moment of nu, integral of r^k nu(dr), to relative 1e-10."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise InvalidInput(f"moment order must be an integer >= 0, got {k!r}")
    if k == 0:
        return 1.0
    kf = float(k)
    return expectation(measure, lambda r: r ** kf,
                       log_abs_g=lambda r: kf * np.log(r), positive=True)


def weighted_moment(measure, weight, kind):
    """integral of r^2/sigma^2 or of sigma^2 against nu, to relative 1e-10.

    The log-magnitude handed to the tail probe clips sigma^2 into float
    range, so weights that under/overflow doubles in the far tail (where
    the density no longer carries mass) stay harmless.
    """
    def log_s2(r):
        with np.errstate(all="ignore"):
            return np.log(np.clip(np.asarray(weight.s2(r), dtype=float),
                                  5e-324, 1.7e308))

    if kind == "r2_over_s2":
        return expectation(
            measure, lambda r: r * r / weight.s2(r),
            log_abs_g=lambda r: 2.0 * np.log(r) - log_s2(r),
            positive=True)
    if kind == "s2":
        return expectation(measure, lambda r: weight.s2(r),
                           log_abs_g=log_s2, positive=True)
    raise InvalidInput(f"unknown weighted moment kind {kind!r}")


def tail_mass(measure, r):
    """nu((r, R)), by quadrature (consistent with 1 - cdf within 1e-8)."""
    if r < 0.0:
        raise InvalidInput("tail_mass requires r >= 0")
    if r == 0.0:
        return 1.0
    val, _, log_scale = tail_integral(
        measure.log_density, r, measure.potential.domain_end, rel_tol=1e-12,
        accept_rel=1e-9, abs_floor=1e-15)
    return min(max(val * math.exp(log_scale), 0.0), 1.0)


# ---------------------------------------------------------------------
# generator coefficients
# ---------------------------------------------------------------------


def _require_positive_radii(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("radial coefficients are defined for r > 0 only")
    return arr


def effective_potential(measure):
    """(U, U', U'') with U(r) = V(r) - (n-1) log r, as callables."""
    pot = measure.potential
    nm1 = measure.n - 1

    def u(r):
        rr = _require_positive_radii(r)
        return pot.v(rr) - nm1 * np.log(rr)

    def du(r):
        rr = _require_positive_radii(r)
        return pot.dv(rr) - nm1 / rr

    def d2u(r):
        rr = _require_positive_radii(r)
        return pot.d2v(rr) + nm1 / (rr * rr)

    return u, du, d2u


def drift(measure, weight):
    """b(r) = (sigma^2)'(r) - sigma^2(r) (V'(r) - (n-1)/r)."""
    pot = measure.potential
    nm1 = measure.n - 1

    def b(r):
        rr = _require_positive_radii(r)
        return weight.ds2(rr) - weight.s2(rr) * (pot.dv(rr) - nm1 / rr)

    return b


def drift_derivative(measure, weight):
    """b'(r), differentiating the displayed drift formula term by term."""
    pot = measure.potential
    nm1 = measure.n - 1

    def db(r):
        rr = _require_positive_radii(r)
        return (weight.d2s2(rr)
                - weight.ds2(rr) * (pot.dv(rr) - nm1 / rr)
                - weight.s2(rr) * (pot.d2v(rr) + nm1 / (rr * rr)))

    return db
