"""Both quadrature layers against an independent oracle, and their work.

Oracle: mpmath.quad at 30 significant digits on explicitly written
integrands (tanh-sinh, nothing shared with the package).  Each
Gauss-Kronrod value must agree with the oracle to 1e-12 relative and lie
within the error the engine reported for it; the reported errors are read
by wrapping tail_integral (the normalization) and rule_integral (every
integral on a law's rule) where radial_model looks them up.  Each
Gauss-Legendre cell log-integral must agree with the oracle to 1e-13
absolute (2 ulp where that is finer than a double resolves); its oracles
are closed forms evaluated by mpmath (incomplete gamma, exponential),
because tanh-sinh misjudges integrands as steep as u^127.  The work
counts (refinement rounds, integrand points) are
read by spies, not timers.  The probe's live window is checked bit for
bit against the same call probing its whole grid (coarse stride 1).
"""

import json
import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest

from specgap import (
    GridSpec,
    TruncationWarning,
    ball_potential,
    build_measure,
    catalog_grid,
    cauchy_potential,
    curvature_lower,
    exp_power_potential,
    expectation,
    make_family,
    moment,
    rayleigh_upper,
    spectral_gap,
    tail_mass,
    weighted_curvature_lower,
    weighted_moment,
)
from specgap import quadrature, radial_model, sl_eigensolver
from specgap.errors import ConvergenceError, NonIntegrable, SpecGapError
from specgap.quadrature import (GK_GAUSS, GK_KRONROD, GK_NODES,
                                log_integrals_exp, rule_cdf, rule_integral,
                                tail_integral)

mpmath.mp.dps = 30


@pytest.fixture
def reported(monkeypatch):
    """Absolute (value, error) of every engine call radial_model makes:
    the normalization's and every integral on a law's rule."""
    calls = []

    def spy(engine):
        def wrapped(*args, **kwargs):
            out = engine(*args, **kwargs)
            val, err, log_scale = out[:3]
            calls.append((val * math.exp(log_scale),
                          err * math.exp(log_scale)))
            return out
        return wrapped

    monkeypatch.setattr(radial_model, "tail_integral", spy(tail_integral))
    monkeypatch.setattr(radial_model, "rule_integral", spy(rule_integral))
    return calls


def _check(got, oracle, value_err):
    value, err = value_err
    assert abs(got - oracle) <= 1e-12 * abs(oracle), (got, oracle)
    assert abs(value - oracle) <= err, (value, err, oracle)


def test_gaussian_normalization(reported):
    mu = build_measure(3, exp_power_potential(2.0))
    oracle = float(mpmath.quad(lambda r: r ** 2 * mpmath.exp(-r ** 2 / 2),
                               [0, mpmath.inf]))
    _check(math.exp(mu.log_z), oracle, reported[0])


def test_exp_power_fourth_moment(reported):
    a = mpmath.mpf(3) / 2
    dens = lambda r, k: r ** (3 + k) * mpmath.exp(-r ** a / a)
    oracle = float(mpmath.quad(lambda r: dens(r, 4), [0, mpmath.inf])
                   / mpmath.quad(lambda r: dens(r, 0), [0, mpmath.inf]))
    mu = build_measure(4, exp_power_potential(1.5))
    reported.clear()
    _check(moment(mu, 4), oracle, reported[-1])


def test_cauchy_tail_mass(reported):
    dens = lambda r: r ** 2 / (1 + r ** 2) ** 3
    oracle = float(mpmath.quad(dens, [10, mpmath.inf])
                   / mpmath.quad(dens, [0, mpmath.inf]))
    mu = build_measure(3, cauchy_potential(3.0))
    reported.clear()
    _check(tail_mass(mu, 10.0), oracle, reported[-1])


def test_ball_second_moment(reported):
    oracle = float(mpmath.quad(lambda r: r ** 9, [0, 1])
                   / mpmath.quad(lambda r: r ** 7, [0, 1]))
    mu = build_measure(8, ball_potential())
    reported.clear()
    _check(moment(mu, 2), oracle, reported[-1])


def test_ball_signed_log_expectation(reported):
    # E[log r] = -1/3 on the ball n = 3: signed, and still live at the wall
    oracle = float(mpmath.quad(lambda r: 3 * r ** 2 * mpmath.log(r), [0, 1]))
    assert abs(oracle + 1.0 / 3.0) < 1e-25
    mu = build_measure(3, ball_potential())
    reported.clear()
    _check(expectation(mu, lambda r: np.log(r)), oracle, reported[-1])


def test_signed_expectation(reported):
    # g = r - 3/2 changes sign inside the bulk of the chi_3 law
    dens = lambda r: r ** 2 * mpmath.exp(-r ** 2 / 2)
    oracle = float(mpmath.quad(lambda r: (r - 1.5) * dens(r), [0, mpmath.inf])
                   / mpmath.quad(dens, [0, mpmath.inf]))
    mu = build_measure(3, exp_power_potential(2.0))
    reported.clear()
    _check(expectation(mu, lambda r: r - 1.5), oracle, reported[-1])


def test_integrands_are_called_with_arrays_only():
    # a heavy-tailed normalization and a signed expectation on its rule,
    # so the sign of the closed-form tail is looked up too
    calls = {"log_weight": [], "log_abs": [], "sign": []}

    def log_weight(r):
        calls["log_weight"].append(np.ndim(r))
        return (2.0 * np.log(r) - 3.0 * np.log1p(r * r))

    def log_abs(r):
        calls["log_abs"].append(np.ndim(r))
        return np.log(np.abs(r - 1.0))

    def sign(r):
        calls["sign"].append(np.ndim(r))
        return np.sign(r - 1.0)

    _, _, _, rule = tail_integral(log_weight, rel_tol=1e-12)
    rule_integral(rule, lambda u: log_weight(np.expm1(u)) + u, log_abs, sign,
                  rel_tol=1e-12, accept_rel=1e-10)
    assert all(set(dims) == {1} for dims in calls.values()), calls


def test_tail_integral_hard_end_takes_no_tail_charge():
    # integrands still live at a finite r_hi: the domain ends there, so
    # nothing past it is extrapolated, whether the integrand falls (an
    # open end would charge a tail) or rises (an open end would diverge)
    for log_abs, exact in ((lambda r: -r, -math.expm1(-2.0)),
                           (lambda r: 2.0 * np.log(r), 8.0 / 3.0)):
        val, err, log_scale, rule = tail_integral(log_abs, 2.0,
                                                  rel_tol=1e-13)
        assert abs(val * math.exp(log_scale) - exact) <= 1e-13 * exact
        assert err * math.exp(log_scale) <= 1e-13 * exact
        assert not rule.open_end and rule.hi[-1] == math.log1p(2.0)
    with pytest.raises(NonIntegrable, match="integrand peaks at r = "):
        tail_integral(lambda r: 2.0 * np.log(r), rel_tol=1e-13)
    with pytest.raises(NonIntegrable, match="log slope"):
        tail_integral(lambda r: -1.002 * np.log1p(r), rel_tol=1e-13)


def test_tail_integral_closes_the_tail_past_the_overflow_cut():
    # r^2 overflows past r ~ 1.34e154, so r (1+r^2)^(-1.01), whose
    # integral is 50, is not resolved past it while still within ~7
    # e-folds of its peak.  The window ends short of that cut, at
    # u = _U_SQUARE, and the 2% of the mass past it is the closed-form
    # tail of a power law: exact, not charged as an unknown
    def log_abs(r):
        return np.log(r) - 1.01 * np.log1p(r * r)

    val, err, log_scale, rule = tail_integral(log_abs, rel_tol=1e-12)
    assert rule.open_end and rule.hi[-1] == quadrature._U_SQUARE
    value = val * math.exp(log_scale)
    assert abs(value - 50.0) <= 1e-12 * 50.0
    assert abs(value - 50.0) <= err * math.exp(log_scale) <= 1e-10 * 50.0


def test_log_divergent_moments_are_refused():
    # r^k nu is flat in u = log(1+r) when 2 beta = n + k: the moment
    # diverges logarithmically, and the end slope refuses it (the
    # representability cut of r^2 once truncated it to a finite value)
    for n, beta, k in ((3, 2.5, 2), (3, 3.5, 4)):
        mu = build_measure(n, cauchy_potential(beta))
        with pytest.raises(NonIntegrable, match="tail is still live at r ="):
            moment(mu, k)
    # the same rule serves E r^2 of the second law, finite
    assert abs(moment(mu, 2) - 1.5) <= 1e-12 * 1.5


def _cauchy_moment(n, beta, k):
    """E r^k of cauchy(beta) in dimension n, a ratio of Beta functions:
    integral_0^inf r^(a-1) (1+r^2)^(-beta) dr = B(a/2, beta - a/2) / 2."""
    def log_beta(a):
        b = beta - a / 2.0
        return math.lgamma(a / 2.0) + math.lgamma(b) - math.lgamma(beta)

    return math.exp(log_beta(n + k) - log_beta(n))


def test_near_threshold_values_match_beta_functions():
    # laws whose integrand decays like r^(-1.02) or r^(-1.04) in r-space,
    # so 1-8% of the mass lies past the window's end at u = log(1+r) of
    # 150-354: the closed-form tail carries it exactly.  cauchy 1.01
    # n = 2 has no truncation radius inside the probe horizon (its tail
    # mass reaches 1e-12 only near r = 1e600), so its normalization is
    # read from the engine; the others are moments of built measures
    law = radial_model.RadialMeasure(
        n=2, potential=cauchy_potential(1.01), tail_tol=1e-12, log_z=0.0,
        r_max=math.inf)
    z = math.exp(radial_model._normalization(law)[0])
    assert abs(z - 50.0) <= 1e-12 * 50.0
    for n, beta, exact in ((2, 2.01, 100.0), (5, 3.51, 250.0),
                           (3, 2.52, 75.0)):
        assert abs(_cauchy_moment(n, beta, 2) - exact) <= 1e-12 * exact
        value = moment(build_measure(n, cauchy_potential(beta)), 2)
        assert abs(value - exact) <= 1e-12 * exact, (n, beta, value)


def test_catalog_moments_match_the_per_integral_quadrature():
    # tests/data/catalog_moments.json holds E r^2, E r^4, E sigma^2 and
    # E r^2/sigma^2 of the 62 catalog laws as a separate adaptive
    # integral per moment gave them (commit 1266df9), or the error type
    # it raised; the rule's dot products agree to 1e-12 and refuse the
    # same ones
    table = json.loads((pathlib.Path(__file__).parent / "data"
                        / "catalog_moments.json").read_text())
    assert len(table) == 62
    for spec in catalog_grid():
        measure, weight, _ = make_family(spec)
        for key, fn in (
                ("E r^2", lambda: moment(measure, 2)),
                ("E r^4", lambda: moment(measure, 4)),
                ("E sigma^2", lambda: weighted_moment(measure, weight, "s2")),
                ("E r^2/sigma^2",
                 lambda: weighted_moment(measure, weight, "r2_over_s2"))):
            want = table[spec.label()][key]
            if isinstance(want, str):
                with pytest.raises(SpecGapError) as err:
                    fn()
                assert type(err.value).__name__ == want, (spec.label(), key)
            else:
                got = fn()
                assert abs(got - want) <= 1e-12 * abs(want), (
                    spec.label(), key, got, want)


# ---------------------------------------------------------------------
# the probe's live window: the same bits as the full-grid probe
# ---------------------------------------------------------------------


def _bits(outcome):
    """An engine outcome as comparable bits: (value, error, log_scale) in
    hex, or the exception's type and text."""
    if isinstance(outcome, SpecGapError):
        return f"{type(outcome).__name__}: {outcome}"
    return tuple(float(x).hex() for x in outcome[:3])


def _probe_outcomes(monkeypatch, stride, run):
    """Outcome bits of every engine call ``run`` makes through
    radial_model (normalizations and integrals on their rules), with the
    probe's coarse pass reading every ``stride``-th grid point (stride 1
    reads the whole grid, as the full probe does)."""
    outcomes = []

    def spy(engine):
        def wrapped(*args, **kwargs):
            try:
                out = engine(*args, **kwargs)
            except SpecGapError as exc:
                outcomes.append(_bits(exc))
                raise
            outcomes.append(_bits(out))
            return out
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_COARSE_STRIDE", stride)
        m.setattr(radial_model, "tail_integral", spy(tail_integral))
        m.setattr(radial_model, "rule_integral", spy(rule_integral))
        run()
    return outcomes


def _catalog_integrals(spec):
    """The normalization, moments 2 and 4, both weighted moments, the
    Rayleigh quotient's three expectations and both curvature integrals
    (the r_stop path) of one catalog law."""
    try:
        measure, weight, cand = make_family(spec)
    except SpecGapError:
        return
    for bound in (lambda: moment(measure, 2), lambda: moment(measure, 4),
                  lambda: weighted_moment(measure, weight, "r2_over_s2"),
                  lambda: weighted_moment(measure, weight, "s2"),
                  lambda: rayleigh_upper(measure, weight, cand),
                  lambda: curvature_lower(measure),
                  lambda: weighted_curvature_lower(measure, weight)):
        try:
            bound()
        except SpecGapError:
            pass


def test_windowed_probe_matches_full_probe_on_the_catalog(monkeypatch):
    calls = 0
    for spec in catalog_grid():
        windowed = _probe_outcomes(monkeypatch, 8,
                                   lambda: _catalog_integrals(spec))
        full = _probe_outcomes(monkeypatch, 1,
                               lambda: _catalog_integrals(spec))
        assert windowed == full, spec.label()
        calls += len(full)
    assert calls >= 62 * 9


def _spike_log_abs(u_c, width=1e-3, reach=math.inf):
    """log of a Gaussian bump of ``width`` in u = log(1+r) at ``u_c``,
    dead (-inf) farther than ``reach`` from it.  The engine's u-integrand
    exp(L + u) then peaks at log scale u_c."""
    def log_abs(r):
        d = (np.log1p(r) - u_c) / width
        return np.where(np.abs(d) * width < reach, -0.5 * d * d, -np.inf)
    return log_abs


def _sizes_and_bits(monkeypatch, stride, log_abs):
    """(sizes of the integrand calls, outcome bits) of one open-ended
    tail_integral with the coarse stride ``stride``."""
    sizes = []

    def counted(r):
        sizes.append(np.size(r))
        return log_abs(r)

    monkeypatch.setattr(quadrature, "_COARSE_STRIDE", stride)
    try:
        out = tail_integral(counted, rel_tol=1e-12)
    except SpecGapError as exc:
        out = exc
    return sizes, _bits(out)


def test_windowed_probe_matches_full_probe_on_synthetic_integrands(
        monkeypatch):
    grid = np.linspace(0.0, quadrature._U_CAP, quadrature._PROBE_POINTS)
    # on a grid point halfway between two coarse points, so only the
    # full pass sees the bump's top
    u_c = float(grid[8 * 10 + 4])

    # a spike narrower than a fine step: its coarse neighbours are still
    # the coarse maximum, so the window holds it
    sizes, bits = _sizes_and_bits(monkeypatch, 8, _spike_log_abs(u_c))
    assert sizes[0] == 1025 and sizes[1] < 64
    assert bits == _sizes_and_bits(monkeypatch, 1, _spike_log_abs(u_c))[1]
    value, _, log_scale = (float.fromhex(b) for b in bits)
    assert value > 0.0 and abs(log_scale - u_c) <= 1e-9

    # dead at every coarse point: the full grid is probed
    dead_coarse = _spike_log_abs(u_c, reach=0.01)
    sizes, bits = _sizes_and_bits(monkeypatch, 8, dead_coarse)
    assert sizes[:2] == [1025, quadrature._PROBE_POINTS]
    assert bits == _sizes_and_bits(monkeypatch, 1, dead_coarse)[1]
    value, _, log_scale = (float.fromhex(b) for b in bits)
    assert value > 0.0 and abs(log_scale - u_c) <= 1e-9

    # dead near the origin and still live at the probe's end (u-slope
    # -0.4): the window starts past the origin, runs to the end, and the
    # closed-form tail is fitted on its last nodes
    def late_heavy_tail(r):
        with np.errstate(divide="ignore"):
            return 500.0 * np.log(r / (1.0 + r)) - 1.4 * np.log1p(r)

    sizes, bits = _sizes_and_bits(monkeypatch, 8, late_heavy_tail)
    assert sizes[0] == 1025 and sizes[1] < quadrature._PROBE_POINTS
    assert bits == _sizes_and_bits(monkeypatch, 1, late_heavy_tail)[1]
    assert float.fromhex(bits[0]) > 0.0

    # +inf far out, past a live bulk: still rejected, with the same text
    def overflow(r):
        return np.where(r > 1e250, np.inf, -r)

    sizes, bits = _sizes_and_bits(monkeypatch, 8, overflow)
    assert sizes == [1025, quadrature._PROBE_POINTS]
    assert bits.startswith("NonIntegrable: integrand log-magnitude reaches "
                           "+inf"), bits
    assert bits == _sizes_and_bits(monkeypatch, 1, overflow)[1]


def _count_gk_points(monkeypatch):
    """A list that the Gauss-Kronrod engine's panel sums append their
    node counts to."""
    points = []
    real_sums = quadrature._gk_sums

    def spy_sums(f, half):
        points.append(np.size(f))
        return real_sums(f, half)

    monkeypatch.setattr(quadrature, "_gk_sums", spy_sums)
    return points


def test_normalization_probes_only_the_live_window(monkeypatch):
    # gaussian n = 3 is live (within _DROP e-folds of its peak) on 37 of
    # the 8193 probe points: the probe reads the 1025 coarse points and a
    # window of those plus a coarse step or two on either side, not the
    # whole grid
    points = []

    def spy_tail(log_abs_fn, *args, **kwargs):
        def counted(r):
            points.append(np.size(r))
            return log_abs_fn(r)

        return tail_integral(counted, *args, **kwargs)

    nodes = _count_gk_points(monkeypatch)
    monkeypatch.setattr(radial_model, "tail_integral", spy_tail)
    build_measure(3, exp_power_potential(2.0))
    grid = np.linspace(0.0, quadrature._U_CAP, quadrature._PROBE_POINTS)
    r = np.expm1(grid)
    with np.errstate(divide="ignore", over="ignore"):
        li = 2.0 * np.log(r) - 0.5 * r * r + grid
    live = np.nonzero(li >= np.max(li) - quadrature._DROP)[0]
    assert live.size == 37
    window = live[-1] - live[0] + 1 + 4 * 8
    # build_measure's only engine call is the normalization
    assert sum(points) <= 1025 + window + sum(nodes), (points, nodes)


def test_kronrod_rule_exact_to_degree_31():
    x, wk, wg = GK_NODES, GK_KRONROD, GK_GAUSS
    for d in range(32):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(wk @ x ** d - exact) < 1e-15
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.allclose(x[wg > 0], gx, rtol=0, atol=1e-15)
    assert np.allclose(wg[wg > 0], gw, rtol=0, atol=1e-15)


def test_rule_integral_bisects_a_kink_to_tolerance():
    # |u - 1/3| has a kink no panel edge hits; the estimate must still
    # be honest after adaptive bisection
    def log_base(u):
        return np.log(np.abs(u - 1.0 / 3.0))

    lo, hi = np.array([0.0]), np.array([1.0])
    nodes = quadrature._panel_nodes(lo, hi)
    rule = quadrature.PanelRule(lo, hi, nodes, log_base(nodes), False)
    val, err, log_scale, (lo, hi, nodes, logs, _) = rule_integral(
        rule, log_base, rel_tol=1e-12)
    val, err = val * math.exp(log_scale), err * math.exp(log_scale)
    exact = 5.0 / 18.0
    assert abs(val - exact) <= err <= 1e-12 * exact
    # the refined rule comes back in order, nodes and logs with it
    assert lo.size > 1 and lo[0] == 0.0 and hi[-1] == 1.0
    assert np.all(lo[1:] == hi[:-1])
    assert np.array_equal(logs, log_base(nodes))


def test_rule_cdf_is_the_chi3_cdf_for_gaussian_n3():
    # the CDF read off build_measure's rule, to 1e-12 at every knot
    measure = build_measure(3, exp_power_potential(2.0))
    u, cdf = rule_cdf(measure._tables["rule"])
    r = np.expm1(u)
    exact = np.array([math.erf(x / math.sqrt(2.0)) for x in r]) - (
        math.sqrt(2.0 / math.pi) * r * np.exp(-r * r / 2.0))
    assert u.size >= 4096 and np.all(np.diff(u) > 0.0)
    assert np.max(np.abs(cdf - exact)) <= 1e-12


@pytest.mark.parametrize("n", [2, 16, 128])
def test_rule_cdf_is_r_to_the_n_for_the_ball(n):
    u, cdf = rule_cdf(build_measure(n, ball_potential())._tables["rule"])
    assert u[-1] == math.log(2.0)
    assert np.max(np.abs(cdf - np.expm1(u) ** n)) <= 1e-12


@pytest.mark.parametrize("n, potential", [
    (3, exp_power_potential(2.0)), (3, cauchy_potential(4.0))],
    ids=["gaussian", "cauchy"])
def test_rule_cdf_panel_ends_are_the_running_kronrod_sums(n, potential):
    rule = build_measure(n, potential)._tables["rule"]
    u, cdf = rule_cdf(rule)
    per = (u.size - 1) // rule.lo.size
    assert np.array_equal(u[::per], np.append(rule.lo, rule.hi[-1]))
    sums = np.cumsum((np.exp(rule.logs) @ GK_KRONROD)
                     * 0.5 * (rule.hi - rule.lo))
    assert cdf[0] == 0.0
    assert np.max(np.abs(cdf[per::per] / sums - 1.0)) <= 1e-14


# ---------------------------------------------------------------------
# log_integrals_exp: variation-adaptive Gauss-Legendre cells
# ---------------------------------------------------------------------


def _table_cells(measure):
    """(log_f, lo, hi) of 4096 cells in u = log(1+r) from 0 to the
    truncation radius, Chebyshev-graded toward both ends, and log_f the
    law's log-density in u: the cells of a graded CDF table of the law."""
    u_max = math.log1p(measure.r_max)
    u = u_max * (1.0 - np.cos(math.pi * np.linspace(0.0, 1.0, 4097))) / 2.0
    u[0], u[-1] = 0.0, u_max

    def log_f(t):
        return measure.log_density(np.expm1(t)) + t

    return log_f, u[:-1], u[1:]


def _gaussian_log_f(n):
    """log of r^{n-1} exp(-r^2/2) dr/du in u = log(1+r)."""
    def log_f(u):
        r = np.expm1(u)
        with np.errstate(divide="ignore"):
            return (n - 1) * np.log(r) - r * r / 2.0 + u
    return log_f


def _gaussian_oracle(n, lo, hi):
    # u = log(1+r) carries the cell to r-space, where it is an
    # incomplete gamma: 2^{n/2-1} (gamma(n/2, r_b^2/2) - gamma(n/2, r_a^2/2))
    ra, rb = mpmath.expm1(lo), mpmath.expm1(hi)
    return float((n / 2 - 1) * mpmath.log(2) + mpmath.log(
        mpmath.gammainc(mpmath.mpf(n) / 2, ra ** 2 / 2, rb ** 2 / 2)))


def _check_cells(log_f, lo, hi, oracle):
    got = log_integrals_exp(log_f, lo, hi)
    for g, a, b in zip(got, lo, hi):
        want = oracle(mpmath.mpf(float(a)), mpmath.mpf(float(b)))
        # 1e-13, or 2 ulp where a log-integral is too large in magnitude
        # (beyond about 450) for 1e-13 to be resolved in a double
        assert abs(g - want) <= max(1e-13, 2.0 * np.spacing(abs(want))), (
            a, b, g, want)


def _points(log_f, lo, hi):
    """Integrand points log_integrals_exp evaluates on the cells."""
    count = [0]

    def counted(t):
        count[0] += np.size(t)
        return log_f(t)

    log_integrals_exp(counted, lo, hi)
    return count[0]


def test_log_integrals_gaussian_table_cells():
    # every 128th cell of the 4096-cell table, its first and last
    # included; the first starts at u = 0, where log_f is -inf
    _, lo, hi = _table_cells(build_measure(3, exp_power_potential(2.0)))
    pick = np.linspace(0, lo.size - 1, 33).astype(int)
    log_f = _gaussian_log_f(3)
    assert lo[0] == 0.0 and log_f(np.array([0.0]))[0] == -np.inf
    _check_cells(log_f, lo[pick], hi[pick],
                 lambda a, b: _gaussian_oracle(3, a, b))


def test_log_integrals_wide_first_cell_from_zero():
    # a first cell from u = 0 wide enough to be split into panels
    log_f = _gaussian_log_f(3)
    lo, hi = np.array([0.0, 0.0]), np.array([0.25, 1.5])
    assert _points(log_f, lo, hi) > 8 * lo.size
    _check_cells(log_f, lo, hi, lambda a, b: _gaussian_oracle(3, a, b))


def test_log_integrals_ball_cell_at_the_wall():
    # the solver's cell masses in t = log r; the ball's density is -inf
    # at the wall r = 1 (t = 0), where the last cell ends
    n = 8
    measure = build_measure(n, ball_potential())

    def log_f(t):
        return np.asarray(measure.log_weight(np.exp(t)), dtype=float) + t

    assert log_f(np.array([0.0]))[0] == -np.inf
    lo, hi = np.log([0.999, 0.9, 0.5, 1e-3]), np.zeros(4)
    _check_cells(log_f, lo, hi, lambda a, b: float(
        mpmath.log((mpmath.exp(n * b) - mpmath.exp(n * a)) / n)))


def test_log_integrals_steep_cells_at_the_panel_clip():
    # the n = 128 table starts with r^127: its first cells, and wider
    # cells from or near u = 0, vary by hundreds of e-folds and are cut
    # into the full 64 panels
    n = 128
    _, lo, hi = _table_cells(build_measure(n, exp_power_potential(2.0)))
    lo = np.concatenate((lo[:16], [0.0, 0.0, 1e-3]))
    hi = np.concatenate((hi[:16], [0.01, 1.0, 0.5]))
    log_f = _gaussian_log_f(n)
    clipped = [k for k in range(lo.size)
               if _points(log_f, lo[k:k + 1], hi[k:k + 1]) >= 64 * 8]
    assert len(clipped) >= 5, clipped
    _check_cells(log_f, lo[clipped], hi[clipped],
                 lambda a, b: _gaussian_oracle(n, a, b))


_NORMALIZED = ((3, exp_power_potential(2.0)), (4, exp_power_potential(1.5)),
               (3, cauchy_potential(4.0)))


def _blocks_keep_the_bits(calls):
    """Every recorded (log_f, lo, hi): the blocked evaluation against one
    block of all intervals, bit for bit."""
    assert calls
    for log_f, lo, hi in calls:
        assert lo.size > quadrature._BLOCK // quadrature._PANEL_ORDER
        assert log_integrals_exp(log_f, lo, hi).tobytes() == (
            quadrature._log_integrals_block(log_f, lo, hi).tobytes())


def test_log_integrals_blocks_keep_table_bits():
    # the 4096 table cells of every catalog law are four blocks
    calls = [_table_cells(make_family(spec)[0]) for spec in catalog_grid()]
    assert len(calls) == len(catalog_grid())
    _blocks_keep_the_bits(calls)


def test_log_integrals_blocks_keep_mesh_mass_bits(monkeypatch):
    # the eigensolver's cell masses at 1024 cells: 2047 intervals each
    calls = []

    def spy(log_f, lo, hi):
        calls.append((log_f, np.array(lo), np.array(hi)))
        return log_integrals_exp(log_f, lo, hi)

    monkeypatch.setattr(sl_eigensolver, "log_integrals_exp", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for spec in catalog_grid():
            measure, weight, _ = make_family(spec)
            spectral_gap(measure, weight, GridSpec(n_cells=1024))
    monkeypatch.undo()
    _blocks_keep_the_bits(calls)


def test_normalization_takes_at_most_two_rounds(monkeypatch):
    # the probe seeds the Gauss-Kronrod partition, so the starting panels
    # (nearly) meet the tolerance; unseeded it took 3 to 8 rounds
    rounds = _count_gk_points(monkeypatch)
    for n, potential in _NORMALIZED:
        rounds.clear()
        build_measure(n, potential)
        # build_measure's only engine call is the normalization
        assert 1 <= len(rounds) <= 2, (potential.name, rounds)


def test_cdf_table_evaluates_few_points_per_cell():
    # each cell's one-panel rule is its own variation probe: 8 points for
    # most cells (a separate 5-point probe made it 13.1)
    for n, potential in _NORMALIZED:
        log_f, lo, hi = _table_cells(build_measure(n, potential))
        assert lo.size == 4096
        points = _points(log_f, lo, hi)
        assert points <= 8.5 * lo.size, (potential.name, points / lo.size)


@pytest.mark.parametrize("offset", [0.0, 0.03], ids=["on-grid", "off-grid"])
def test_tail_integral_keeps_both_halves_of_a_peak_narrower_than_a_step(
        offset):
    # a gaussian bump of width 1e-3 in u = log(1+r), 86x narrower than a
    # probe step, on a probe grid point (index 84) and between two.  On
    # the grid point the peak is a breakpoint, and the panels that end
    # there used to read 0 with error 0: log 2 of the mass went missing
    grid = np.linspace(0.0, quadrature._U_CAP, quadrature._PROBE_POINTS)
    u_c = float(grid[84]) + offset

    def log_abs(r):
        u = np.log1p(r)
        return -(u - u_c) ** 2 / 2e-6 - u

    value, err, log_scale, _ = tail_integral(log_abs)
    exact = 0.5 * math.log(2.0 * math.pi * 1e-6)
    assert abs(math.log(value) + log_scale - exact) <= 1e-10
    assert err <= 1e-10 * value
