"""Quadrature utilities.

Three layers are used throughout the package:

* one adaptive Gauss-Kronrod engine (G10K21 panels with QUADPACK's error
  estimate, the worst panels bisected first, every refinement round's
  nodes evaluated in one call of a vectorized integrand) for
  normalizations, moments and tail masses; integrals over (a, infinity)
  are carried out in the variable u = log(1+r), where the r^{n-1}
  vanishing at the origin stays polynomial and every integrable tail
  (power law or faster) becomes an exponential decay, and the integrand
  is assembled as sign * exp(log-magnitude - peak) so that partial
  under/overflow of its factors cannot corrupt it;
* fixed-order Gauss-Legendre panels over the cells of a prescribed grid
  (cumulative distribution tables);
* variation-adaptive Gauss-Legendre panels for integrands of the form
  exp(g) with g of large dynamic range (finite-volume assembly), carried
  out entirely on the log scale.
"""

import math

import numpy as np

from .errors import ConvergenceError, NonIntegrable

_GL_CACHE = {}


def gl_rule(order):
    """Gauss-Legendre nodes/weights on [0, 1], cached per order."""
    rule = _GL_CACHE.get(order)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(order)
        rule = ((x + 1.0) / 2.0, w / 2.0)
        _GL_CACHE[order] = rule
    return rule


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

    ``points`` are interior breakpoints (a peak, say) that start the
    subdivision.  Every round bisects the panels carrying the largest
    error estimates -- as few as can bring the total under
    max(abs_tol, rel_tol * |value|) if each bisection removed its
    panel's error -- and evaluates all of their new nodes in one call of
    ``fn`` on a 1-d array.  Stops when the tolerance is met, the value
    is not finite, or the 400-subinterval budget is spent.  Returns
    (value, error_estimate) unchecked; callers judge acceptance.
    """
    edges = np.unique(np.concatenate(([a, b], [p for p in points
                                                 if a < p < b])))
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


def quad_finite(fn, a, b, rel_tol=1e-12, abs_tol=0.0, accept_rel=None):
    """Adaptive integral of a vectorized ``fn`` over the finite [a, b].

    Returns (value, error_estimate); raises ConvergenceError when the
    value is not finite or the error estimate violates
    max(abs_tol, accept_rel * |value|) (``accept_rel`` defaults to 100x
    the requested relative tolerance -- the Kronrod estimate is
    conservative).
    """
    if accept_rel is None:
        accept_rel = 100.0 * rel_tol
    val, err = gauss_kronrod(fn, a, b, rel_tol, abs_tol)
    if not math.isfinite(val):
        raise ConvergenceError(f"integral over [{a}, {b}] is not finite")
    if err > max(abs_tol, accept_rel * abs(val)) + 1e-300:
        raise ConvergenceError(
            f"quadrature error {err:.3e} exceeds tolerance for value {val:.6e}")
    return val, err


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


def tail_integral(log_abs_fn, r_lo=0.0, *, sign_fn=None, rel_tol=1e-12,
                  accept_rel=None, abs_floor=0.0, points=8193, r_stop=None):
    """integral_{r_lo}^inf s(r) exp(L(r)) dr with L = log_abs_fn, s = sign_fn.

    Carried out in u = log(1+r).  Returns (value, error, log_scale) as
    Python floats: the integral is value * exp(log_scale) and the error
    bound scales the same way.  ``log_abs_fn`` and ``sign_fn`` are called
    with 1-d arrays of radii only and must be vectorized; ``log_abs_fn``
    may return -inf where the integrand vanishes (isolated zeros of a
    signed integrand included), and ``sign_fn`` (radii -> +-1 or 0)
    defaults to a positive integrand.

    The u-axis is probed on a fine grid up to the float-representability
    cap, or up to ``r_stop`` when the caller knows its integrand is only
    resolved below that radius.  The quadrature window ends where the
    integrand has permanently dropped ``_DROP`` e-folds below its peak;
    mass beyond the window (or beyond the probe's end) is estimated from
    the fitted log-linear tail slope and the estimate is charged to the
    error bound, so near-threshold tails fail the acceptance check
    honestly instead of being silently dropped.

    Raises NonIntegrable when no integrable decay is established while the
    integrand is still live (slope above ``_LIVE_SLOPE`` at the probe's
    end, a peak at the representability cap, or a float-range overflow),
    and ConvergenceError when the final error violates
    max(abs_floor, accept_rel * |value|).
    """
    if accept_rel is None:
        accept_rel = 100.0 * rel_tol
    u0 = math.log1p(r_lo)
    u_end = _U_CAP if r_stop is None else min(math.log1p(r_stop), _U_CAP)
    if u0 >= u_end:
        return 0.0, 0.0, 0.0
    us = np.linspace(u0, u_end, points)
    with np.errstate(all="ignore"):
        la = np.asarray(log_abs_fn(np.expm1(us)), dtype=float)
    li = np.where(np.isnan(la), -np.inf, la) + us
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
    stop = cut if cut is not None else points
    approach = np.arange(i_pk + 1, stop)
    approach = approach[np.isfinite(rel_li[approach])][-32:]
    slope = None
    if approach.size >= 4:
        slope = float(np.polyfit(us[approach], rel_li[approach], 1)[0])

    live = cut is None
    corr = 0.0
    r_last = float(np.expm1(us[approach[-1]])) if approach.size else None
    if live:
        if slope is None or slope >= _LIVE_SLOPE:
            where = ("the representability cap" if r_stop is None
                     else f"r = {r_stop:.6g} (its resolution limit)")
            raise NonIntegrable(
                f"integrand tail is still live at {where} "
                + (f"with log slope {slope:.3e}" if slope is not None
                   else "with no decay established"))
        corr = math.exp(float(rel_li[approach[-1]])) / (-slope)
        u_hi = u_end
    else:
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

    pts = (float(us[i_pk]),)
    abs_floor_scaled = 0.0
    if abs_floor > 0.0:
        abs_floor_scaled = min(abs_floor * math.exp(min(-shift, 690.0)), 1e280)
    val, qerr = gauss_kronrod(integrand, u0, u_hi, rel_tol, abs_floor_scaled,
                              pts)
    total = val + sg_corr * corr
    err = qerr + 0.6 * corr
    if not math.isfinite(total):
        raise ConvergenceError("tail integral did not converge")
    if err > max(abs_floor_scaled, accept_rel * abs(total)) + 1e-300:
        unresolved = ""
        if live and r_stop is not None:
            unresolved = (f"; the integrand is resolved only up to "
                          f"r = {r_stop:.6g}")
        raise ConvergenceError(
            f"tail-integral error {err:.3e} exceeds tolerance for value "
            f"{total:.6e} (log scale {shift:.3f}){unresolved}")
    return total, err, shift


def cell_integrals(fn, edges, order=16):
    """Per-cell Gauss-Legendre integrals of a vectorized integrand.

    edges is an increasing array of m+1 cell boundaries; the return value
    has m entries, one integral per cell.  Intended for smooth, already
    normalized integrands (no overflow protection).
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gl_rule(order)
    widths = np.diff(edges)
    nodes = edges[:-1, None] + widths[:, None] * x[None, :]
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    return widths * (vals @ w)


def log_integrals_exp(log_f, lo, hi, order=8, var_target=2.0, max_panels=64):
    """log of integral_{lo_i}^{hi_i} exp(log_f(t)) dt for many intervals.

    ``log_f`` is a vectorized callable.  Each interval is probed at five
    points and split into enough equal panels that the variation of log_f
    per panel is about ``var_target``; a fixed Gauss-Legendre rule is then
    applied per panel.  All arithmetic on the integrand happens relative
    to the per-interval maximum of log_f, so the dynamic range of exp(log_f)
    never matters; only the *log* of each integral is returned.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m = lo.size
    if m == 0:
        return np.empty(0)

    # probe the variation of log_f on every interval
    probe_x = np.linspace(0.0, 1.0, 5)
    probe_t = lo[:, None] + (hi - lo)[:, None] * probe_x[None, :]
    probe_g = log_f(probe_t.ravel()).reshape(m, 5)
    variation = np.sum(np.abs(np.diff(probe_g, axis=1)), axis=1)
    variation = np.where(np.isfinite(variation), variation, float(max_panels) * var_target)
    panels = np.clip(np.ceil(variation / var_target).astype(int), 1, max_panels)

    # flatten all panels of all intervals into one node array
    x, w = gl_rule(order)
    total = int(panels.sum())
    interval_of_panel = np.repeat(np.arange(m), panels)
    # index of each panel within its interval
    starts = np.concatenate(([0], np.cumsum(panels)))[:-1]
    within = np.arange(total) - np.repeat(starts, panels)
    pw = ((hi - lo) / panels)[interval_of_panel]          # panel widths
    p_lo = lo[interval_of_panel] + within * pw            # panel left edges
    nodes = p_lo[:, None] + pw[:, None] * x[None, :]
    g = log_f(nodes.ravel()).reshape(total, order)

    shift = np.max(probe_g, axis=1)                        # per-interval scale
    g_shifted = g - shift[interval_of_panel, None]
    panel_vals = pw * (np.exp(g_shifted) @ w)
    interval_vals = np.zeros(m)
    np.add.at(interval_vals, interval_of_panel, panel_vals)
    with np.errstate(divide="ignore"):
        return shift + np.log(interval_vals)
