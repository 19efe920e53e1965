"""Radial potentials, weights, and the radial law of the norm.

A spherically symmetric probability measure on R^n with density
proportional to exp(-V(||x||)) pushes forward, under x -> ||x||, to the
one-dimensional measure with density proportional to r^{n-1} exp(-V(r))
on (0, R).  This module owns that one-dimensional object: normalization,
truncation radius, a quantile table (for inverse sampling and for
diagnostic grids), and expectations (moments, tail masses, the bounds'
integrals), each a dot product on the Gauss-Kronrod rule that the
normalization leaves on the measure (see quadrature).  The law is
integrated once: the quantile table is read off that same rule.

The quantile table is a PCHIP monotone cubic (_MonotoneCubic, numpy
only, also used by the eigensolver's coordinate maps and mesh placement)
of u = log(1+r) against the CDF at the rule's knots (quadrature.rule_cdf),
and a guide table maps a uniform draw straight to its knot interval.
build_measure builds it before any expectation refines the rule, and
sampling and every diagnostic grid read it.

All callables supplied in a RadialPotential or Weight must accept floats
and numpy arrays and be analytically correct derivatives of each other: a
central finite-difference self-check (h = 1e-5 relative, tolerance 1e-5
relative) runs on a quantile grid at build/validation time and rejects
inconsistent inputs.  A Weight is sigma^2 with its first two derivatives
(the catalog's are sigma^2 = (1+r^2)^k); whoever needs sigma takes the
square root of sigma^2.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ConvergenceError, DomainError, InvalidInput,
                     NonIntegrable)
from .quadrature import (_BLOCK, _LIVE_SLOPE, rule_cdf, rule_integral,
                         sorted_unique, tail_integral)

# past this radius no family of interest carries any mass; probing stops here
_HORIZON = 1e120

_FD_REL_STEP = 1e-5
_FD_REL_TOL = 1e-5
_CONVEXITY_SLACK = 1e-10
# guide-table buckets per knot interval of a _MonotoneCubic
_GUIDE_DENSITY = 8


# ---------------------------------------------------------------------
# monotone cubic interpolation
# ---------------------------------------------------------------------


def _pchip_slopes(h, m):
    """PCHIP knot slopes from the knot spacings h and secants m.

    Fritsch-Carlson: the weighted harmonic mean of the adjacent secants,
    zero where they change sign or vanish; at each end the one-sided
    three-point estimate, made shape-preserving as in Moler's pchiptx.
    """
    if h.size == 1:
        return np.array([m[0], m[0]])
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.concatenate(([0.0], np.where(flat, 0.0, inner), [0.0]))
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            e = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            e = 3.0 * m0
        d[end] = e
    return d


class _MonotoneCubic:
    """PCHIP cubic Hermite interpolant through (x, y).

    The knot slopes are PCHIP's, which keep monotone data monotone.  The
    coefficients and their evaluation repeat scipy's PchipInterpolator
    operation for operation, so values agree bit for bit; outside
    [x[0], x[-1]] the end cubics extrapolate.

    The knot search is a guide table (Chen & Asau 1974; Devroye 1986,
    III.2.4): buckets uniform over [x[0], x[-1]] give each point its knot
    interval directly, and only points whose bucket holds a knot fall
    back to a binary search.  The bucket map is monotone and applied to
    knots and points alike, so the lookup is exact.

    Lookup and power sum run per block of points (_blockwise).
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        if x.size < 2 or not (np.all(np.isfinite(x)) and np.all(h > 0.0)):
            raise ValueError("knots must be finite and strictly increasing")
        m = np.diff(y) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self._c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])
        self._buckets = _GUIDE_DENSITY * h.size
        self._scale = self._buckets / (x[-1] - x[0])
        # the knot interval of every point in a knot-free bucket: buckets
        # kx[j-1] < b <= kx[j] lie in interval j - 1; -1 marks the buckets
        # that hold a knot
        kx = self._bucket(x)
        self._guide = np.repeat(
            np.minimum(np.arange(-1, x.size), h.size - 1),
            np.diff(kx, prepend=-1, append=self._buckets))
        self._guide[kx] = -1

    def _bucket(self, v):
        t = v - self.x[0]
        t *= self._scale
        np.fmax(t, 0.0, out=t)
        np.fmin(t, self._buckets, out=t)
        return t.astype(np.intp)

    def _interval(self, v):
        """searchsorted(x, v, side="right") - 1, clipped to [0, len(x) - 2]."""
        i = self._guide[self._bucket(v)]
        mixed = np.flatnonzero(i < 0)
        if mixed.size:
            i[mixed] = np.clip(
                np.searchsorted(self.x, v[mixed], side="right") - 1,
                0, self.x.size - 2)
        return i

    def __call__(self, v):
        return _blockwise(self._fill, v)

    def _fill(self, blk, res):
        """The interpolant at the points ``blk``, written into ``res``."""
        c0, c1, c2, c3 = self._c
        i = self._interval(blk)
        # PPoly's power sum: res += c[3-k] * s^k, the powers by z *= s
        with np.errstate(all="ignore"):
            s = blk - self.x.take(i)
            np.add(0.0, c3.take(i), out=res)
            res += c2.take(i) * s
            z = s * s
            res += c1.take(i) * z
            z *= s
            res += c0.take(i) * z


def _blockwise(fill, v):
    """fill(block, out) over blocks of ``_BLOCK`` points of v into one
    array of v's shape: a block's temporaries reuse heap memory, where
    100k-point ones would be mapped and page-faulted anew on every call.
    Every operation is elementwise, so the blocking keeps the bits."""
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _BLOCK):
        fill(flat[start:start + _BLOCK], out[start:start + _BLOCK])
    return out.reshape(v.shape)


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
    """Diffusion weight, given by sigma^2 alone.

    s2/ds2/d2s2 are sigma^2 and its first two derivatives, all the
    weighted dynamics reads; sigma itself is sqrt(s2).
    ``to_metric``/``from_metric`` optionally supply the natural-coordinate
    map s(r) = int_0^r du/sigma(u) and its inverse in closed form; the
    eigensolver tabulates them otherwise.
    """

    s2: Callable
    ds2: Callable
    d2s2: Callable
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
    """Normalized radial law nu with its quadrature rule, quantile table
    and diagnostic grids.

    ``_tables`` caches them per measure object: the rule (see _rule), the
    one quantile table read off it, and each diagnostic grid.  It is not
    an __init__ field, so ``dataclasses.replace`` starts it empty.
    """

    n: int
    potential: RadialPotential
    tail_tol: float
    log_z: float
    r_max: float
    name: str = ""
    _tables: dict = field(init=False, default_factory=dict, repr=False,
                          compare=False)

    def _cached(self, key, build):
        """The table under ``key``, built once per measure.  Two threads
        that race on a first use build the same bits, and both return
        the one that was stored first."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables.setdefault(key, build())
        return table

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

    # -- inverse sampling ---------------------------------------------

    def quantile(self, p):
        """Generalized inverse of the CDF, by the measure's quantile table
        (from probability 1e-18 up; p outside its range is clipped into
        it), whose guide table finds each p's knot interval without a
        binary search.  Clip, table, expm1 and clip run per block of
        probabilities, so a large draw makes no count-sized temporaries."""
        arr = np.asarray(p, dtype=float)
        outside = ~((arr >= 0.0) & (arr <= 1.0))
        if np.any(outside):
            raise InvalidInput(
                "quantile probabilities p must lie in [0, 1], got "
                f"{float(arr[outside].flat[0])}")
        table = self._cached("quantile", lambda: _quantile_table(self))

        def fill(blk, res):
            table._fill(np.clip(blk, table.x[0], table.x[-1]), res)
            np.expm1(res, out=res)
            np.clip(res, 0.0, self.r_max, out=res)

        vals = _blockwise(fill, arr)
        if arr.ndim == 0:
            return float(vals)
        return vals


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------


def _finite_real(name, value):
    """value as a float; bool, non-real and non-finite values raise
    InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInput(f"{name} must be finite, got {value}")
    return value


def _check_tail_tol(tail_tol):
    if (isinstance(tail_tol, bool) or not isinstance(tail_tol, numbers.Real)
            or not 0.0 < tail_tol < 1e-3):
        raise InvalidInput(f"tail_tol must lie in (0, 1e-3), got {tail_tol!r}")


def _quantile_table(measure):
    """PCHIP table of u = log(1+r) against the CDF at the knots of the
    measure's rule (quadrature.rule_cdf)."""
    u, cdf = rule_cdf(_rule(measure))
    cdf = np.minimum(cdf, 1.0)
    # in high dimension the CDF is astronomically flat at the left end
    # (r^{n-1} vanishing), too flat to invert; uniform doubles never
    # resolve probabilities below 2^-53, so the table starts at 1e-18
    keep = (cdf >= 1e-18) & np.append(False, np.diff(cdf) > 0.0)
    if np.count_nonzero(keep) < 2:
        raise ConvergenceError(
            f"no quantile table: the law (n = {measure.n}) rises at "
            f"fewer than two of its {u.size} knots in log(1+r)")
    return _MonotoneCubic(cdf[keep], u[keep])


def build_measure(n, potential, tail_tol=1e-12, name=""):
    """Construct the radial measure nu for dimension n and potential V.

    The log-normalization log_z with its quadrature rule, the truncation
    radius r_max (estimated tail mass below tail_tol) and the quantile
    table read off the rule are computed here, and the supplied
    derivatives are finite-difference checked on a grid from that table.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidInput(f"dimension n must be an integer >= 2, got {n!r}")
    _check_tail_tol(tail_tol)
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
        n=n, potential=potential, tail_tol=float(tail_tol),
        log_z=0.0, r_max=potential.domain_end, name=name or potential.name)
    log_z, rule = _normalization(measure)
    measure = replace(measure, log_z=log_z)
    measure = replace(measure, r_max=truncation_radius(measure, tail_tol))
    measure._tables["rule"] = rule._replace(logs=rule.logs - log_z)

    _check_potential_derivatives(measure)
    return measure


def _normalization(measure):
    """(log Z, PanelRule) of the integral Z of r^{n-1} exp(-V), from
    scratch; the rule holds log_weight + u at its nodes (log nu in u
    = log(1+r) once log Z is subtracted)."""
    pot = measure.potential
    try:
        val, _, shift, rule = tail_integral(measure.log_weight,
                                            pot.domain_end, rel_tol=1e-13,
                                            accept_rel=5e-11)
    except NonIntegrable as exc:
        raise NonIntegrable(
            f"r^{{n-1}} exp(-V) is not integrable for potential "
            f"{pot.name or '<anon>'} (n = {measure.n}): {exc}") from None
    if not (val > 0.0 and math.isfinite(val)):
        raise NonIntegrable("normalization integral did not converge")
    return shift + math.log(val), rule


def truncation_radius(measure, tail_tol):
    """Smallest probe radius whose estimated tail mass of nu is below
    tail_tol (the measure's own domain end if it is bounded).

    The tail is estimated by integrating a log-linear (in log r)
    extrapolation of the log-density, which over-estimates the tail of
    any density decaying faster than a power law.  build_measure reads
    this at the measure's tail_tol for r_max; the bounds read it at
    their own budget, and the eigensolver at 1e-10 on the law in
    dimension n + 4 (see sl_eigensolver._radii).  Raises NonIntegrable
    when no probe radius inside the horizon meets the budget.
    """
    _check_tail_tol(tail_tol)
    pot = measure.potential
    if math.isfinite(pot.domain_end):
        return float(pot.domain_end)
    grid = np.expm1(np.linspace(0.0, np.log1p(_HORIZON), 4001))[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the log-log slope p of the density; for p < -1 the tail is
        # int_r^inf rho dr ~= rho(r) * r / (-(p+1))
        slopes = (measure.n - 1) - grid * pot.dv(grid)
        slopes = np.where(np.isnan(slopes), -np.inf, slopes)
        log_tail = (measure.log_weight(grid) + np.log(grid)
                    - np.log(-(slopes + 1.0)) - measure.log_z)
    # integrable: a log-log slope below -1 by the quadrature's margin
    log_tail = np.where(slopes < -1.0 + _LIVE_SLOPE, log_tail, np.inf)
    ok = log_tail < math.log(tail_tol) + math.log(0.5)
    idx = np.argmax(ok)
    if not ok[idx]:
        raise NonIntegrable(
            "could not locate a truncation radius with tail mass below "
            f"{tail_tol:g} inside the probe horizon")
    return float(grid[idx])


def diagnostic_grid(measure, count=201, p_lo=1e-4):
    """Quantile-based radii covering the bulk of nu, from probability p_lo
    to 1 - p_lo (used for pointwise positivity/consistency checks).

    The radii come from the measure's quantile table, the one sampling
    reads, and each (count, p_lo) grid is computed once per measure and
    returned as a read-only array."""
    def build():
        r = measure.quantile(np.linspace(p_lo, 1.0 - p_lo, count))
        r = sorted_unique(r[r > 0.0])
        if r.size < 8:
            raise ConvergenceError("diagnostic grid degenerate")
        r.flags.writeable = False
        return r

    return measure._cached(("grid", count, p_lo), build)


def _fd_reject(name, r, got, expect):
    worst = float(np.max(np.abs(got - expect) / (1.0 + np.abs(expect))))
    raise InvalidInput(
        f"supplied derivative {name} disagrees with finite differences "
        f"(worst relative deviation {worst:.2e} at r ~ {float(r):.6g})")


def _fd_check(fn, dfn, name, grid):
    # central differences at steps h and h/2 (one call of fn on all four
    # stencils), Richardson-combined: one difference's truncation error,
    # m(m-1)h^2/6 on r^m, passes the tolerance once |m| > ~775 (ball
    # n = 2048, exp-power alpha = 1024)
    h = _FD_REL_STEP
    steps = np.array([[h], [-h], [0.5 * h], [-0.5 * h]])
    f = np.reshape(fn((grid * (1.0 + steps)).ravel()), (4, grid.size))
    fd = (4.0 * (f[2] - f[3]) / h - (f[0] - f[1]) / (2.0 * h)) / (3.0 * grid)
    exact = dfn(grid)
    err = np.abs(fd - exact) / (1.0 + np.abs(exact))
    if np.any(err > _FD_REL_TOL):
        _fd_reject(name, grid[int(np.argmax(err))], fd, exact)


def _fd_grid(measure):
    """The 41-point diagnostic grid, less radii whose stencil crosses a wall."""
    grid = diagnostic_grid(measure, count=41, p_lo=1e-3)
    return grid[grid * (1.0 + _FD_REL_STEP) < measure.potential.domain_end]


def _check_potential_derivatives(measure):
    pot = measure.potential
    grid = _fd_grid(measure)
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
    _fd_check(weight.s2, weight.ds2, "(sigma^2)'", grid)
    _fd_check(weight.ds2, weight.d2s2, "(sigma^2)''", grid)


# ---------------------------------------------------------------------
# integral functionals
# ---------------------------------------------------------------------


def _rule(measure):
    """The measure's rule (log nu + u at its nodes): build_measure's, or
    for a measure made by ``dataclasses.replace`` its own, normalized."""
    def build():
        rule = _normalization(measure)[1]
        return rule._replace(logs=rule.logs - measure.log_z)

    return measure._cached("rule", build)


def _integrate(measure, log_abs_g, sign_fn=None, *, r_lo=0.0, r_stop=None,
               **tolerances):
    """integral of g nu(dr) over (r_lo, R) by rule_integral on the
    measure's rule (_rule), keeping a refinement of the whole rule for the
    integrals after it."""
    val, _, log_scale, rule = rule_integral(
        _rule(measure), lambda u: measure.log_density(np.expm1(u)) + u,
        log_abs_g, sign_fn, u_lo=math.log1p(r_lo),
        u_stop=None if r_stop is None else math.log1p(r_stop), **tolerances)
    if rule is not None:
        measure._tables["rule"] = rule
    return val * math.exp(log_scale)


def expectation(measure, g, *, log_abs_g=None, positive=False, r_stop=None):
    """integral of g(r) nu(dr) over the whole domain, to relative 1e-10.

    A dot product on the measure's Gauss-Kronrod rule (see _integrate):
    g times the density at its nodes, panels refined where this g needs
    it, plus the closed-form tail past the rule's window.  The rule keeps
    earlier expectations' refinements, so the value's last digits
    (within its error) depend on which ran before it.  g is
    vectorized, defined on (0, R) and called with arrays of radii only.
    Functions that overflow doubles inside the window (high powers of r
    against heavy tails, negative powers at the origin) must supply
    ``log_abs_g`` (vectorized log |g|), and otherwise fail with
    NonIntegrable rather than risk a corrupted value.  ``positive`` skips
    the sign bookkeeping for g >= 0.  ``r_stop`` is the radius past which
    g is not resolved in floating point: the integral stops there and the
    extrapolated tail beyond it is charged to the error.  NonIntegrable
    is raised where g times the density does not decay at the window's
    open end (log slope in log(1+r) not below -5e-3): a divergence,
    logarithmic ones included.
    """
    scale = max(1.0, float(np.max(np.abs(
        g(diagnostic_grid(measure, count=33))))))
    if log_abs_g is None:
        def log_abs_g(r):
            with np.errstate(all="ignore"):
                return np.log(np.abs(np.asarray(g(r), dtype=float)))

    sign_fn = None
    if not positive:
        def sign_fn(r):
            with np.errstate(all="ignore"):
                return np.sign(np.asarray(g(r), dtype=float))

    return _integrate(measure, log_abs_g, sign_fn, r_stop=r_stop,
                      rel_tol=1e-12, accept_rel=1e-10,
                      abs_floor=1e-12 * scale)


def moment(measure, k):
    """k-th moment of nu, integral of r^k nu(dr), to relative 1e-10: an
    expectation on the measure's rule, NonIntegrable where r^k nu does
    not decay past its window (E r^2 of cauchy beta = 2.5, n = 3)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise InvalidInput(f"moment order must be an integer >= 0, got {k!r}")
    if k == 0:
        return 1.0
    kf = float(k)
    return expectation(measure, lambda r: r ** kf,
                       log_abs_g=lambda r: kf * np.log(r), positive=True)


def _log_s2(weight, r):
    """log sigma^2(r) for the tail probe, with sigma^2 clipped into float
    range, so weights that under/overflow doubles in the far tail (where
    the density no longer carries mass) stay harmless."""
    with np.errstate(all="ignore"):
        return np.log(np.clip(np.asarray(weight.s2(r), dtype=float),
                              5e-324, 1.7e308))


def weighted_moment(measure, weight, kind):
    """integral of r^2/sigma^2 or of sigma^2 against nu, to relative 1e-10."""
    if kind == "r2_over_s2":
        return expectation(
            measure, lambda r: r * r / weight.s2(r),
            log_abs_g=lambda r: 2.0 * np.log(r) - _log_s2(weight, r),
            positive=True)
    if kind == "s2":
        return expectation(measure, lambda r: weight.s2(r),
                           log_abs_g=lambda r: _log_s2(weight, r),
                           positive=True)
    raise InvalidInput(f"unknown weighted moment kind {kind!r}")


def tail_mass(measure, r):
    """nu((r, R)) = 1 - CDF(r), on the measure's rule, for a real scalar r."""
    if (isinstance(r, bool) or not isinstance(r, numbers.Real)
            or not r >= 0.0):
        raise InvalidInput(f"tail_mass requires r >= 0, got {r!r}")
    if r == 0.0:
        return 1.0
    mass = _integrate(measure, np.zeros_like, r_lo=r, rel_tol=1e-12,
                      accept_rel=1e-9, abs_floor=1e-15)
    return min(max(mass, 0.0), 1.0)
