"""Quadrature utilities.

Two layers are used throughout the package:

* one adaptive Gauss-Kronrod engine (G10K21 panels with QUADPACK's error
  estimate, the worst panels bisected first, every refinement round's
  nodes evaluated in one call of a vectorized integrand) behind
  tail_integral, the one routine for normalizations, moments and tail
  masses on bounded and unbounded domains alike; it works in the
  variable u = log(1+r), where the r^{n-1} vanishing at the origin stays
  polynomial and every integrable tail (power law or faster) becomes an
  exponential decay, and the integrand is assembled as
  sign * exp(log-magnitude - peak) so that partial under/overflow of its
  factors cannot corrupt it.  The probe that locates the peak and the
  tail also seeds the engine's starting partition, a breakpoint every
  few e-folds of the live integrand, so few refinement rounds remain.
  It works in two levels: every 8th point of its grid first, then the
  whole grid only inside the window where that coarse pass found the
  integrand live.  Its one assumption is that no live feature narrower
  than a coarse step sits outside that window;
* variation-adaptive Gauss-Legendre panels for many cell integrals of
  the form exp(g) with g of large dynamic range (finite-volume cell
  masses, cumulative distribution tables), carried out entirely on the
  log scale.  Each cell's one-panel rule doubles as its variation probe,
  and only the cells that vary too much are evaluated again, split.
  The cells go in blocks of ``_BLOCK`` one-panel nodes, the block size
  the per-point kernels of the package share: a 4096-cell table makes
  no 32,768-node temporaries, and each cell keeps its bits.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, NonIntegrable

_GL_CACHE = {}


def gl_rule(order):
    """Gauss-Legendre nodes/weights on [0, 1], cached per order."""
    rule = _GL_CACHE.get(order)
    if rule is None:
        x, w = leggauss(order)
        rule = ((x + 1.0) / 2.0, w / 2.0)
        _GL_CACHE[order] = rule
    return rule


def sorted_unique(x):
    """The distinct values of the NaN-free 1-d array x, ascending: what
    np.unique returns, without its masked-array check (which imports
    numpy.ma)."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


# 21-point Kronrod extension of the 10-point Gauss rule on [-1, 1]
# (QUADPACK dqk21): nodes and Kronrod weights from the left end to the
# centre; the Gauss nodes are the odd-indexed ones
_XK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980222911, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
GK_NODES = np.concatenate((-_XK_HALF, _XK_HALF[-2::-1]))
GK_KRONROD = np.concatenate((_WK_HALF, _WK_HALF[-2::-1]))
GK_GAUSS = np.zeros(21)
GK_GAUSS[1:10:2] = _WG_HALF
GK_GAUSS[11:20:2] = _WG_HALF[::-1]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# subinterval budget of one adaptive integral
_LIMIT = 400


def _gk_panels(fn, lo, hi):
    """G10K21 value and QUADPACK error estimate on each panel [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * GK_NODES[None, :]
    f = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    res_k = f @ GK_KRONROD
    res_g = f @ GK_GAUSS
    res_abs = np.abs(f) @ GK_KRONROD
    res_asc = np.abs(f - 0.5 * res_k[:, None]) @ GK_KRONROD
    val = res_k * half
    res_abs *= half
    res_asc *= half
    err = np.abs(res_k - res_g) * half
    with np.errstate(all="ignore"):
        ratio = np.minimum(1.0, (200.0 * err / res_asc) ** 1.5)
    err = np.where((res_asc != 0.0) & (err != 0.0), res_asc * ratio, err)
    floor = np.where(res_abs > _TINY / (50.0 * _EPS), 50.0 * _EPS * res_abs,
                     0.0)
    return val, np.maximum(err, floor)


def gauss_kronrod(fn, a, b, rel_tol, abs_tol=0.0, points=()):
    """Adaptive G10K21 integral of a vectorized ``fn`` over [a, b].

    ``points`` are breakpoints (a peak, say) that start the subdivision;
    those outside (a, b) are ignored.  Every round bisects the panels
    carrying the largest error estimates -- as few as can bring the total
    under max(abs_tol, rel_tol * |value|) if each bisection removed its
    panel's error -- and evaluates all of their new nodes in one call of
    ``fn`` on a 1-d array.  Stops when the tolerance is met, the value
    is not finite, or the 400-subinterval budget is spent.  Returns
    (value, error_estimate) unchecked; callers judge acceptance.
    """
    points = np.asarray(points, dtype=float)
    edges = sorted_unique(np.concatenate(
        ([a, b], points[(points > a) & (points < b)])))
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk_panels(fn, lo, hi)
    while True:
        total = float(np.sum(vals))
        err = float(np.sum(errs))
        excess = err - max(abs_tol, rel_tol * abs(total))
        if excess <= 0.0 or not math.isfinite(total) or lo.size >= _LIMIT:
            return total, err
        order = np.argsort(-errs, kind="stable")
        count = int(np.searchsorted(np.cumsum(errs[order]), excess)) + 1
        split = order[:min(count, _LIMIT - lo.size)]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_vals, new_errs = _gk_panels(fn, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))


# log(1+r) beyond which r itself leaves double range; integration windows
# never extend past it and the remainder is handled analytically
_U_CAP = 708.0
# e-folds below the peak past which the integrand is considered dead
_DROP = 320.0
# u-slopes above this are treated as "no integrable decay established";
# in terms of the log-log slope p of the r-space integrand this is the
# usual p >= -1.005 margin (the u-integrand carries slope p + 1)
_LIVE_SLOPE = -5e-3
# density peaks of interest all sit at moderate radii; a global maximum
# beyond this u with no decay behind it signals overflow corruption of a
# genuinely divergent integrand, not a real concentration of mass
_U_PEAK_SANE = 30.0


# probe grid of the integrand, uniform in u
_PROBE_POINTS = 8193
# the probe's first pass reads every _COARSE_STRIDE-th grid point (it
# divides _PROBE_POINTS - 1, so both ends are read)
_COARSE_STRIDE = 8
# seed of the Gauss-Kronrod partition: a breakpoint wherever the probe's
# log-integrand has varied by another _SEED_EFOLDS, counting only steps
# between probe points within _SEED_FLOOR e-folds of the peak, and at most
# _SEED_CAP of them (the step widens instead)
_SEED_FLOOR = 40.0
_SEED_EFOLDS = 4.0
_SEED_CAP = 64


def _seed_points(us, rel_li):
    """Probe abscissae that cut the live part of the integrand into
    panels of about _SEED_EFOLDS of log-variation each."""
    live = rel_li >= -_SEED_FLOOR
    steps = np.abs(np.diff(np.where(live, rel_li, 0.0)))
    steps[~(live[1:] & live[:-1])] = 0.0
    walked = np.cumsum(np.concatenate(([0.0], steps)))
    step = max(_SEED_EFOLDS, float(walked[-1]) / _SEED_CAP)
    return us[1 + np.nonzero(np.diff(np.floor(walked / step)))[0]]


def _probe(log_abs_fn, us):
    """(abscissae, log u-integrand) of the probe grid ``us`` inside its
    live window, found by a coarse first pass (see tail_integral).  The
    points left out sit more than _DROP e-folds below the peak at their
    coarse neighbours, so every rule of tail_integral reads them as dead.
    """
    def log_u_integrand(u):
        with np.errstate(all="ignore"):
            la = np.asarray(log_abs_fn(np.expm1(u)), dtype=float)
        return np.where(np.isnan(la), -np.inf, la) + u

    coarse = log_u_integrand(us[::_COARSE_STRIDE])
    top = float(np.max(coarse))
    if math.isfinite(top):
        live = np.nonzero(coarse >= top - _DROP)[0]
        lo = max(int(live[0]) - 1, 0) * _COARSE_STRIDE
        hi = min(int(live[-1]) + 1, coarse.size - 1) * _COARSE_STRIDE + 1
        us = us[lo:hi]
    return us, log_u_integrand(us)


def tail_integral(log_abs_fn, r_lo=0.0, r_hi=math.inf, *, sign_fn=None,
                  rel_tol=1e-12, accept_rel=None, abs_floor=0.0, r_stop=None):
    """integral_{r_lo}^{r_hi} s(r) exp(L(r)) dr, L = log_abs_fn, s = sign_fn.

    Carried out in u = log(1+r).  Returns (value, error, log_scale) as
    Python floats: the integral is value * exp(log_scale) and the error
    bound scales the same way.  ``log_abs_fn`` and ``sign_fn`` are called
    with 1-d arrays of radii only and must be vectorized; ``log_abs_fn``
    may return -inf where the integrand vanishes (isolated zeros of a
    signed integrand included), and ``sign_fn`` (radii -> +-1 or 0)
    defaults to a positive integrand.

    The u-axis is probed on a fine grid up to ``r_hi`` (up to the
    float-representability cap when it is infinite), or up to ``r_stop``
    when that comes first and the caller knows its integrand is only
    resolved below that radius.  A finite ``r_hi`` is a hard end: the
    domain stops there, so the integral runs up to it and nothing past
    it is estimated.  Before an open end the quadrature window ends where
    the integrand has permanently dropped ``_DROP`` e-folds below its
    peak; mass beyond the window (or beyond the probe's end) is estimated
    from the fitted log-linear tail slope and the estimate is charged to
    the error bound, so near-threshold tails fail the acceptance check
    honestly instead of being silently dropped.  That estimate matters
    where the window ends because the integrand's own evaluation
    overflows (r^2 past 1.3e154) while it is still live.  The window's
    adaptive Gauss-Kronrod integral starts from the probe's peak plus a
    breakpoint wherever the probe's log-integrand has varied by another
    ``_SEED_EFOLDS`` within ``_SEED_FLOOR`` e-folds of the peak (at most
    ``_SEED_CAP`` of them).

    The probe evaluates ``log_abs_fn`` on every ``_COARSE_STRIDE``-th
    grid point first, and on the whole grid only from one coarse step
    before the first to one coarse step after the last coarse point
    within ``_DROP`` e-folds of the coarse maximum (everywhere when that
    maximum is -inf or +inf).  Peak, cut, tail slope and seeds read only
    that window, so they are the whole grid's, provided no live feature
    narrower than a coarse step (a spike, or a +inf) lies outside it.

    Raises NonIntegrable when no integrable decay is established while the
    integrand is still live at an open end (slope above ``_LIVE_SLOPE`` at
    the probe's end, a peak at the representability cap, or a float-range
    overflow), and ConvergenceError when the final error violates
    max(abs_floor, accept_rel * |value|); its message gives the
    quadrature error and the extrapolated-tail charge apart.
    """
    if accept_rel is None:
        accept_rel = 100.0 * rel_tol
    u0 = math.log1p(r_lo)
    u_end = _U_CAP if r_stop is None else min(math.log1p(r_stop), _U_CAP)
    hard_end = math.log1p(r_hi) <= u_end
    if hard_end:
        u_end = math.log1p(r_hi)
    if u0 >= u_end:
        return 0.0, 0.0, 0.0
    us, li = _probe(log_abs_fn, np.linspace(u0, u_end, _PROBE_POINTS))
    shift = float(np.max(li))
    if shift == -np.inf:
        return 0.0, 0.0, 0.0
    if math.isinf(shift):
        raise NonIntegrable(
            "integrand log-magnitude reaches +inf: the integral diverges, "
            "or overflows float range and needs a log-form integrand")
    rel_li = li - shift
    i_pk = int(np.argmax(li))

    # window end: first index past the peak from which on everything is dead
    suffix_max = np.maximum.accumulate(rel_li[::-1])[::-1]
    dead = np.nonzero(suffix_max[i_pk + 1:] < -_DROP)[0]
    cut = (i_pk + 1 + dead[0]) if dead.size else None

    # decay slope on the (post-peak) approach to the window end
    stop = cut if cut is not None else us.size
    approach = np.arange(i_pk + 1, stop)
    approach = approach[np.isfinite(rel_li[approach])][-32:]
    slope = None
    if approach.size >= 4:
        slope = float(np.polyfit(us[approach], rel_li[approach], 1)[0])

    live = cut is None and not hard_end
    corr = 0.0
    r_last = float(np.expm1(us[approach[-1]])) if approach.size else None
    u_hi = u_end
    if live:
        if slope is None or slope >= _LIVE_SLOPE:
            where = ("the representability cap" if r_stop is None
                     else f"r = {r_stop:.6g} (its resolution limit)")
            raise NonIntegrable(
                f"integrand tail is still live at {where} "
                + (f"with log slope {slope:.3e}" if slope is not None
                   else "with no decay established"))
        corr = math.exp(float(rel_li[approach[-1]])) / (-slope)
    elif not hard_end:
        u_hi = float(us[cut])
        if us[i_pk] > _U_PEAK_SANE and (slope is None or slope >= _LIVE_SLOPE):
            raise NonIntegrable(
                "integrand rises out to extreme radii and then vanishes "
                "abruptly; this is float-range corruption of a divergent "
                "integral, not decay")
        if slope is not None and slope < _LIVE_SLOPE and approach.size:
            tail_top = float(rel_li[approach[-1]])
            if tail_top > -340.0:
                corr = math.exp(tail_top) / (-slope)
    sg_corr = 1.0
    if sign_fn is not None and corr > 0.0 and r_last is not None:
        sg_corr = float(sign_fn(np.array([r_last]))[0])

    def integrand(u):
        r = np.expm1(u)
        with np.errstate(all="ignore"):
            v = np.asarray(log_abs_fn(r), dtype=float) + u - shift
            # nan and dead values alike contribute nothing
            val = np.where(v > -745.0, np.exp(np.minimum(v, 705.0)), 0.0)
            if sign_fn is not None:
                val = np.where(val != 0.0, val * sign_fn(r), 0.0)
        return val

    # a peak whose live neighbour lies more than _SEED_EFOLDS below it is
    # narrower than a probe step: that neighbour becomes a breakpoint too,
    # so the panel that ends at the peak is one step wide and its Kronrod
    # nodes reach the peak (from a wider panel none may)
    near = us[max(i_pk - 1, 0):i_pk + 2]
    flank = rel_li[max(i_pk - 1, 0):i_pk + 2]
    steep = np.isfinite(flank) & (flank < -_SEED_EFOLDS)
    pts = np.concatenate((_seed_points(us, rel_li), [us[i_pk]], near[steep]))
    abs_floor_scaled = 0.0
    if abs_floor > 0.0:
        abs_floor_scaled = min(abs_floor * math.exp(min(-shift, 690.0)), 1e280)
    val, qerr = gauss_kronrod(integrand, u0, u_hi, rel_tol, abs_floor_scaled,
                              pts)
    total = val + sg_corr * corr
    charge = 0.6 * corr
    err = qerr + charge
    if not math.isfinite(total):
        raise ConvergenceError("tail integral did not converge")
    if err > max(abs_floor_scaled, accept_rel * abs(total)) + 1e-300:
        past = ""
        if live and r_stop is not None:
            past = f" past the integrand's resolution limit r = {r_stop:.6g}"
        elif charge > 0.0:
            past = f" past r = {r_last:.6g}"
        raise ConvergenceError(
            f"tail-integral error exceeds tolerance for value {total:.6e} "
            f"(log scale {shift:.3f}): quadrature error {qerr:.1e}, "
            f"extrapolated-tail charge {charge:.1e}{past}")
    return total, err, shift


# points per block of a per-point kernel: a float temporary is 64 KiB, half
# of glibc's default 128 KiB mmap threshold, so a block reuses heap memory
# instead of mapping (and page-faulting) fresh pages on every call
_BLOCK = 8192
# log_integrals_exp: Gauss-Legendre order per panel, variation of log_f
# per panel, and the panel budget of one interval
_PANEL_ORDER = 8
_PANEL_VARIATION = 2.0
_MAX_PANELS = 64


def log_integrals_exp(log_f, lo, hi):
    """log of integral_{lo_i}^{hi_i} exp(log_f(t)) dt for many intervals.

    ``log_f`` is a vectorized callable.  Every interval first gets the
    8-point Gauss-Legendre rule on one panel.  Its nodes are also the
    variation probe: the summed |jumps| of log_f between them, scaled from
    the nodes' span to the whole interval, decide.  Intervals varying by
    at most 2 keep the one-panel sum; the rest are split into enough equal
    panels (at most 64) that log_f varies by about 2 per panel, and the
    rule is applied per panel.  All arithmetic on the integrand happens
    relative to the largest log_f summed for the interval, so the dynamic
    range of exp(log_f) never matters; only the *log* of each integral is
    returned.

    The intervals are evaluated in blocks of ``_BLOCK // _PANEL_ORDER``,
    so one call of ``log_f`` reads at most ``_BLOCK`` one-panel nodes.
    No interval's arithmetic reads another's, so every result has the
    bits of one evaluation of all intervals at once.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.empty(lo.size)
    step = _BLOCK // _PANEL_ORDER
    for start in range(0, lo.size, step):
        out[start:start + step] = _log_integrals_block(
            log_f, lo[start:start + step], hi[start:start + step])
    return out


def _log_integrals_block(log_f, lo, hi):
    """log_integrals_exp on one block of intervals (1-d float arrays)."""
    m = lo.size
    x, w = gl_rule(_PANEL_ORDER)
    width = hi - lo

    # the one-panel rule of every interval; its nodes span x[-1] - x[0] of
    # the interval, so their variation is scaled up to all of it
    g = log_f((lo[:, None] + width[:, None] * x[None, :]).ravel()).reshape(
        m, _PANEL_ORDER)
    with np.errstate(invalid="ignore"):  # -inf - -inf between dead nodes
        variation = np.sum(np.abs(np.diff(g, axis=1)), axis=1) / (x[-1] - x[0])
    # nan (dead nodes), inf and cliffs (up to ~1e300) get the whole panel
    # budget, capped before the int cast
    variation = np.fmin(variation, _MAX_PANELS * _PANEL_VARIATION)
    panels = np.clip(np.ceil(variation / _PANEL_VARIATION).astype(int), 1,
                     _MAX_PANELS)
    # an interval dead (-inf) at every node is shifted by 0, so its log-mass
    # is log 0 = -inf, not the nan of -inf - -inf
    shift = np.max(g, axis=1)
    shift[np.isneginf(shift)] = 0.0
    sums = width * (np.exp(g - shift[:, None]) @ w)

    # re-split the intervals that vary too much into equal panels
    split = np.nonzero(panels > 1)[0]
    if split.size:
        count = panels[split]
        owner = np.repeat(np.arange(split.size), count)
        first = np.cumsum(count) - count
        pw = (width[split] / count)[owner]                 # panel widths
        p_lo = lo[split][owner] + (np.arange(owner.size) - first[owner]) * pw
        gs = log_f((p_lo[:, None] + pw[:, None] * x[None, :]).ravel()
                   ).reshape(owner.size, _PANEL_ORDER)
        top = np.maximum.reduceat(np.max(gs, axis=1), first)
        top[np.isneginf(top)] = 0.0
        shift[split] = top
        sums[split] = np.bincount(
            owner, weights=pw * (np.exp(gs - shift[split][owner, None]) @ w),
            minlength=split.size)
    with np.errstate(divide="ignore"):
        return shift + np.log(sums)
