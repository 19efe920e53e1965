"""Quadrature utilities.

Two layers are used throughout the package:

* one adaptive Gauss-Kronrod engine, rule_integral (G10K21 panels with
  QUADPACK's error estimate, the worst panels bisected first, each
  round's nodes evaluated in one call), in u = log(1+r), where r^{n-1}
  stays polynomial at the origin and every integrable tail becomes an
  exponential decay; integrands are sign * exp(log-magnitude - peak), so
  partial under/overflow of their factors cannot corrupt them.  Only a
  law's normalization starts from scratch (tail_integral, whose probe
  seeds the partition); its final panels, nodes and log-integrand are
  the law's PanelRule, and every further expectation is a Kronrod dot
  product on them, refined where needed, plus the closed-form tail
  e^L / (-s) past the window, whose end slope s also decides divergence.
  The law's CDF table is read off the same rule (rule_cdf), so the law
  is integrated once;
* variation-adaptive Gauss-Legendre panels for many cell integrals of
  the form exp(g) with g of large dynamic range (the finite-volume cell
  masses of the eigensolver), carried out entirely on the log scale.
  Each cell's one-panel rule doubles as its variation probe, and only
  the cells that vary too much are evaluated again, split.  The cells go
  in blocks of ``_BLOCK`` one-panel nodes, the block size the per-point
  kernels of the package share, and each cell keeps its bits.
"""

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

from .errors import ConvergenceError, NonIntegrable


@functools.lru_cache(maxsize=None)
def gl_rule(order):
    """Gauss-Legendre nodes/weights on [0, 1], cached per order."""
    x, w = leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


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
# panels one integral on a rule may add
_LIMIT = 400


class PanelRule(NamedTuple):
    """G10K21 panels [lo_i, hi_i] in u = log(1+r), ascending, their nodes
    and the log-integrand there (one row per panel); ``open_end``: the
    domain goes on past hi[-1], where _closed_tail takes over."""

    lo: np.ndarray
    hi: np.ndarray
    nodes: np.ndarray
    logs: np.ndarray
    open_end: bool


def _panel_nodes(lo, hi):
    """The 21 Kronrod nodes of every panel [lo_i, hi_i], one row each."""
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi)[:, None] + half[:, None] * GK_NODES[None, :]


def _gk_sums(f, half):
    """G10K21 value and QUADPACK error estimate of every panel from the
    integrand ``f`` at its nodes."""
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


# log(1+r) beyond which r itself leaves double range: the probe grid ends
# there
_U_CAP = 708.0
# log(1+r) short of where r^2 leaves double range (r = 1.34e154), past
# which formulas in r^2 are corrupted: a window's open end at the latest
_U_SQUARE = 354.0
# e-folds below the peak past which the integrand is considered dead, and
# past which a window's end leaves no tail that a double resolves
_DROP = 320.0
_TAIL_DEAD = 300.0
# u-slopes above this are treated as "no integrable decay established";
# in terms of the log-log slope p of the r-space integrand this is the
# usual p >= -1.005 margin (the u-integrand carries slope p + 1)
_LIVE_SLOPE = -5e-3
# the end slope is fitted on _FIT_POINTS equally spaced points over the
# window's last _FIT_WIDTH of u (less where the window is shorter)
_FIT_WIDTH = 16.0
_FIT_POINTS = 17
# the refusal of an integrand whose log-magnitude reaches +inf
_OVERFLOW = ("integrand log-magnitude reaches +inf: the integral diverges, "
             "or overflows float range and needs a log-form integrand")


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


def _probe(log_u_integrand, us):
    """(abscissae, log u-integrand) of the probe grid ``us`` inside its
    live window: every ``_COARSE_STRIDE``-th point first, then the whole
    grid from one coarse step before the first to one after the last
    coarse point within ``_DROP`` e-folds of the coarse maximum
    (everywhere when that is -inf or +inf).  The points left out read as
    dead to every rule of tail_integral, so peak, window and seeds are the
    whole grid's unless a live feature narrower than a coarse step (a
    spike, or a +inf) lies outside.
    """
    coarse = log_u_integrand(us[::_COARSE_STRIDE])
    top = float(np.max(coarse))
    if math.isfinite(top):
        live = np.nonzero(coarse >= top - _DROP)[0]
        lo = max(int(live[0]) - 1, 0) * _COARSE_STRIDE
        hi = min(int(live[-1]) + 1, coarse.size - 1) * _COARSE_STRIDE + 1
        us = us[lo:hi]
    return us, log_u_integrand(us)


def _slope(u, y):
    """Least-squares slope of y against u."""
    du = u - np.mean(u)
    return float(du @ (y - np.mean(y)) / (du @ du))


def _closed_tail(u, lv, u_end, where):
    """(integral, error) past ``u_end`` of exp(lv), lv the log-integrand
    (relative to its peak) at the ascending points ``u`` before it.

    e^L / (-s) for the least-squares line L + s (u - u_end) through the
    finite points past the maximum, exact for the power laws (and faster
    decays) that u = log(1+r) makes log-linear; the error is the tail's
    response to the two halves' slope disagreement, as a slope error and
    as the curvature it measures.  A dead last point leaves no tail.
    Raises NonIntegrable, naming ``where``, when no decay is established:
    under two points past the maximum in either half of their span, or a
    slope not below _LIVE_SLOPE.
    """
    if not lv[-1] > -_TAIL_DEAD:
        return 0.0, 0.0
    live = np.isfinite(lv)
    live[:int(np.argmax(lv))] = False
    u, lv = u[live], lv[live]
    first = u < 0.5 * (u[0] + u[-1])
    if min(np.count_nonzero(first), np.count_nonzero(~first)) < 2:
        raise NonIntegrable(f"integrand tail is still live at {where} with "
                            "no decay established")
    s = _slope(u, lv)
    if not s < _LIVE_SLOPE:
        raise NonIntegrable(f"integrand tail is still live at {where} with "
                            f"log slope {s:.3e}")
    tail = math.exp(float(np.mean(lv)) + s * (u_end - float(np.mean(u)))) / -s
    gap = abs(_slope(u[first], lv[first]) - _slope(u[~first], lv[~first]))
    return tail, tail * gap * (1.0 + 2.0 / ((u[-1] - u[0]) * -s)) / -s


def tail_integral(log_abs_fn, r_hi=math.inf, *, rel_tol=1e-12,
                  accept_rel=None):
    """integral_0^{r_hi} exp(L(r)) dr, L = log_abs_fn, from scratch:
    rule_integral on the partition a probe seeds, in u = log(1+r).
    Returns its (value, error, log_scale, rule), the rule holding
    L(r) + u at its nodes.  ``log_abs_fn`` is vectorized, called with 1-d
    arrays of radii only, and -inf where the integrand vanishes.  A finite
    ``r_hi`` is a hard end: nothing past it is estimated.

    The probe grid is uniform in u up to ``r_hi`` (the representability
    cap when it is infinite), read inside its live window (_probe).
    Before an open end the window ends where the integrand has dropped
    ``_DROP`` e-folds below its peak for good, or at u = ``_U_SQUARE``.
    The partition breaks at the peak and wherever the log-integrand has
    varied by another ``_SEED_EFOLDS`` within ``_SEED_FLOOR`` e-folds of
    the peak (at most ``_SEED_CAP`` times).  Raises NonIntegrable when the
    integrand reaches +inf or peaks past the window, and as rule_integral
    does.
    """
    hard_end = math.log1p(r_hi) <= _U_CAP
    u_end = math.log1p(r_hi) if hard_end else _U_CAP

    def log_base(u):
        with np.errstate(all="ignore"):
            la = np.asarray(log_abs_fn(np.expm1(u)), dtype=float)
        return np.where(np.isnan(la), -np.inf, la) + u

    us, li = _probe(log_base, np.linspace(0.0, u_end, _PROBE_POINTS))
    shift = float(np.max(li))
    if shift == -np.inf:
        return 0.0, 0.0, 0.0, None
    if math.isinf(shift):
        raise NonIntegrable(_OVERFLOW)
    rel_li = li - shift
    i_pk = int(np.argmax(li))
    u_hi = u_end
    if not hard_end:
        # the first probe point past the peak from which on all is dead
        suffix_max = np.maximum.accumulate(rel_li[::-1])[::-1]
        dead = np.nonzero(suffix_max[i_pk + 1:] < -_DROP)[0]
        if dead.size:
            u_hi = float(us[i_pk + 1 + dead[0]])
        u_hi = min(u_hi, _U_SQUARE)
        if us[i_pk] > u_hi:
            raise NonIntegrable(
                f"integrand peaks at r = {math.expm1(us[i_pk]):.6g}, past "
                "the window's end where r^2 leaves double range")

    # a peak whose live neighbour lies more than _SEED_EFOLDS below it is
    # narrower than a probe step: that neighbour becomes a breakpoint too,
    # so the panel that ends at the peak is one step wide and its Kronrod
    # nodes reach the peak (from a wider panel none may)
    near = us[max(i_pk - 1, 0):i_pk + 2]
    flank = rel_li[max(i_pk - 1, 0):i_pk + 2]
    steep = np.isfinite(flank) & (flank < -_SEED_EFOLDS)
    pts = np.concatenate((_seed_points(us, rel_li), [us[i_pk]], near[steep]))
    edges = sorted_unique(np.concatenate(
        ([0.0, u_hi], pts[(pts > 0.0) & (pts < u_hi)])))
    nodes = _panel_nodes(edges[:-1], edges[1:])
    rule = PanelRule(edges[:-1], edges[1:], nodes,
                     log_base(nodes.ravel()).reshape(nodes.shape),
                     not hard_end)
    return rule_integral(rule, log_base, shift=shift, rel_tol=rel_tol,
                         accept_rel=accept_rel)


def rule_integral(rule, log_base, log_factor=None, sign_fn=None, *,
                  u_lo=0.0, u_stop=None, shift=None, rel_tol=1e-12,
                  accept_rel=None, abs_floor=0.0):
    """integral over u > u_lo of s(r) exp(B(u) + F(r)) du, r = e^u - 1, on
    the panels of ``rule``, whose logs B = ``log_base`` gave; F =
    ``log_factor`` (0 if None; +inf counts as 0 where B is 5000 e-folds
    below the rule's top) and s = ``sign_fn`` (+1 if None), vectorized.

    The Kronrod dot product in units of exp(``shift``) (by default the
    largest log-integrand), plus _closed_tail past an open end.  While the
    error estimates exceed max(abs_floor, rel_tol |value|), the panels
    carrying the largest are bisected (as few as could meet it if
    bisection removed their error; at most ``_LIMIT`` more panels).  Past
    ``u_stop``, where F is not resolved, the panels stop and the tail is
    charged in full.  Returns (value, error, log_scale, rule): value and
    error times exp(log_scale), and the refined rule (None when ``u_lo``
    or ``u_stop`` cut it).  Raises NonIntegrable at a +inf or as
    _closed_tail does, and ConvergenceError when the error exceeds
    max(abs_floor, accept_rel |value|) (accept_rel: 100 rel_tol) or a
    refined panel rises 705 e-folds over the scale.
    """
    lo, hi, nodes, logs, open_end = rule
    u_end = float(hi[-1])
    stopped = u_stop is not None and u_stop < u_end
    if stopped:
        u_end, open_end = u_stop, True
    cut = stopped or u_lo > lo[0]
    if cut:
        keep = (hi > u_lo) & (lo < u_end)
        lo, hi = np.maximum(lo[keep], u_lo), np.minimum(hi[keep], u_end)
        nodes, logs = nodes[keep], logs[keep]
        redo = (lo != rule.lo[keep]) | (hi != rule.hi[keep])
        nodes[redo] = _panel_nodes(lo[redo], hi[redo])
        logs[redo] = log_base(nodes[redo].ravel()).reshape(-1, GK_NODES.size)
    dead = float(np.max(rule.logs)) - 5000.0

    def log_integrand(u, lb):
        if log_factor is None:
            return lb
        with np.errstate(all="ignore"):
            lf = np.asarray(log_factor(np.expm1(u)), dtype=float)
            out = lb + np.where(np.isposinf(lf) & (lb < dead), -np.inf, lf)
        return np.where(np.isnan(out), -np.inf, out)

    def sums(u, li, half):
        if np.max(li, initial=-np.inf) - shift > 705.0:
            raise ConvergenceError("integrand rises 705 e-folds over its "
                                   "scale: a peak narrower than the probe")
        # nan and dead values alike contribute nothing
        f = np.where(li - shift > -745.0, np.exp(li - shift), 0.0)
        if sign_fn is not None:
            with np.errstate(all="ignore"):
                f = np.where(f != 0.0, f * sign_fn(np.expm1(u)), 0.0)
        return _gk_sums(f.reshape(-1, GK_NODES.size), half)

    li = log_integrand(nodes.ravel(), logs.ravel())
    if open_end:
        u_fit = np.linspace(max(u_end - _FIT_WIDTH, float(rule.lo[0])),
                            u_end, _FIT_POINTS)
        lv_fit = log_integrand(u_fit, log_base(u_fit))
        li = np.concatenate((li, lv_fit))
    if shift is None:
        shift = float(np.max(li, initial=-np.inf))
    if shift == -np.inf:
        return 0.0, 0.0, 0.0, None
    if math.isinf(shift):
        raise NonIntegrable(_OVERFLOW)
    floor = min(abs_floor * math.exp(min(-shift, 690.0)), 1e280)
    limit = lo.size + _LIMIT
    vals, errs = sums(nodes.ravel(), li[:nodes.size], 0.5 * (hi - lo))
    while True:
        total = float(np.sum(vals))
        qerr = float(np.sum(errs))
        excess = qerr - max(floor, rel_tol * abs(total))
        if excess <= 0.0 or not math.isfinite(total) or lo.size >= limit:
            break
        order = np.argsort(-errs, kind="stable")
        count = int(np.searchsorted(np.cumsum(errs[order]), excess)) + 1
        split = order[:min(count, limit - lo.size)]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        u = _panel_nodes(new_lo, new_hi)
        lb = log_base(u.ravel())
        new = (new_lo, new_hi, u, lb.reshape(u.shape), *sums(
            u.ravel(), log_integrand(u.ravel(), lb), 0.5 * (new_hi - new_lo)))
        lo, hi, nodes, logs, vals, errs = (
            np.concatenate((old[keep], part)) for old, part in
            zip((lo, hi, nodes, logs, vals, errs), new))
    tail, tail_err, past = 0.0, 0.0, ""
    if open_end:
        where = f"r = {math.expm1(u_end):.6g}" + (
            " (its resolution limit)" if stopped else "")
        tail, tail_err = _closed_tail(u_fit, lv_fit - shift,
                                      max(u_end, u_lo), where)
        if stopped:
            tail_err = 0.6 * tail
        if tail != 0.0 and sign_fn is not None:
            tail *= float(sign_fn(np.expm1(u_fit[-1:]))[0])
        if tail_err > 0.0:
            past = f" past {where}"
    total += tail
    if not math.isfinite(total):
        raise ConvergenceError("tail integral did not converge")
    if qerr + tail_err > max(floor, (accept_rel or 100.0 * rel_tol)
                             * abs(total)) + 1e-300:
        raise ConvergenceError(
            f"tail-integral error exceeds tolerance for value {total:.6e} "
            f"(log scale {shift:.3f}): quadrature error {qerr:.1e}, "
            f"extrapolated-tail charge {tail_err:.1e}{past}")
    if cut:
        return total, qerr + tail_err, shift, None
    order = np.argsort(lo, kind="stable")
    return total, qerr + tail_err, shift, PanelRule(
        lo[order], hi[order], nodes[order], logs[order], rule.open_end)


# the knots of a rule's CDF number about this many
_CDF_KNOTS = 4096
# the Legendre coefficients (rows) of the integral from -1 of the degree-20
# interpolant through the 21 node values (columns)
_GK_ANTIDERIVATIVE = legint(np.linalg.inv(legvander(GK_NODES, 20)), lbnd=-1)


@functools.lru_cache(maxsize=None)
def _panel_knots(per):
    """The per - 1 Chebyshev points x inside [-1, 1], and the integral from
    -1 to each x of the 21 nodes' interpolant, per node value."""
    x = -np.cos(np.pi * np.arange(1, per) / per)
    return x, (legvander(x, 21) @ _GK_ANTIDERIVATIVE).T


def rule_cdf(rule):
    """(u, F): the integral F of exp(logs) from rule.lo[0] to u, at about
    ``_CDF_KNOTS`` knots u Chebyshev-spaced inside each panel: the Kronrod
    values of the panels below plus the integral of the panel's node
    interpolant, exp taken relative to the largest log; F made monotone."""
    lo, hi, _, logs, _ = rule
    x, integrals = _panel_knots(-(-_CDF_KNOTS // lo.size))
    top = float(np.max(logs))
    f = np.exp(logs - top)
    half = 0.5 * (hi - lo)
    ends = np.append(0.0, np.cumsum((f @ GK_KRONROD) * half))
    inner = (f @ integrals) * half[:, None]
    u = np.column_stack((lo, 0.5 * (lo + hi)[:, None] + half[:, None] * x))
    cdf = np.column_stack((ends[:-1], ends[:-1, None] + inner)).ravel()
    cdf = np.maximum.accumulate(np.append(cdf, ends[-1])) * math.exp(top)
    return np.append(u.ravel(), hi[-1]), cdf


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
