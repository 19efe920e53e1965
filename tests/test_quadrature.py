"""Both quadrature layers against an independent oracle, and their work.

Oracle: mpmath.quad at 30 significant digits on explicitly written
integrands (tanh-sinh, nothing shared with the package).  Each
Gauss-Kronrod value must agree with the oracle to 1e-12 relative and lie
within the error the engine reported for it; the reported errors are read
by wrapping tail_integral where radial_model looks it up.  Each
Gauss-Legendre cell log-integral must agree with the oracle to 1e-13
absolute (2 ulp where that is finer than a double resolves); its oracles
are closed forms evaluated by mpmath (incomplete gamma, exponential),
because tanh-sinh misjudges integrands as steep as u^127.  The work
counts (refinement rounds, integrand points) are
read by spies, not timers.  The probe's live window is checked bit for
bit against the same call probing its whole grid (coarse stride 1).
"""

import math
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
                                gauss_kronrod, log_integrals_exp,
                                tail_integral)

mpmath.mp.dps = 30


@pytest.fixture
def reported(monkeypatch):
    """Absolute (value, error) of every engine call radial_model makes."""
    calls = []

    def spy_tail(*args, **kwargs):
        val, err, log_scale = tail_integral(*args, **kwargs)
        calls.append((val * math.exp(log_scale), err * math.exp(log_scale)))
        return val, err, log_scale

    monkeypatch.setattr(radial_model, "tail_integral", spy_tail)
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


def test_tail_integral_calls_integrand_with_arrays_only():
    # a signed heavy-tail integrand, so the sign of the extrapolated tail
    # is looked up too
    calls = {"log_abs": [], "sign": []}

    def log_abs(r):
        calls["log_abs"].append(np.ndim(r))
        return (2.0 * np.log(r) - 3.0 * np.log1p(r * r)
                + np.log(np.abs(r - 1.0)))

    def sign(r):
        calls["sign"].append(np.ndim(r))
        return np.sign(r - 1.0)

    tail_integral(log_abs, sign_fn=sign, rel_tol=1e-12, accept_rel=1e-10)
    assert set(calls["log_abs"]) == {1}
    assert set(calls["sign"]) == {1}


def test_tail_integral_hard_end_takes_no_tail_charge():
    # integrands still live at a finite r_hi: the domain ends there, so
    # nothing past it is extrapolated, whether the integrand falls (an
    # open end would charge a tail) or rises (an open end would diverge)
    for log_abs, lo, exact in ((lambda r: -r, 0.0, -math.expm1(-2.0)),
                               (lambda r: 2.0 * np.log(r), 0.5, 21.0 / 8.0)):
        val, err, log_scale = tail_integral(log_abs, lo, 2.0, rel_tol=1e-13)
        assert abs(val * math.exp(log_scale) - exact) <= 1e-13 * exact
        assert err * math.exp(log_scale) <= 1e-13 * exact
    with pytest.raises(NonIntegrable):
        tail_integral(lambda r: 2.0 * np.log(r), 0.5, rel_tol=1e-13)


def test_tail_integral_charges_the_mass_past_an_overflow_cut():
    # r^2 overflows past r ~ 1.34e154, so r (1+r^2)^(-1.01), whose
    # integral is 50, vanishes there abruptly while still within ~7
    # e-folds of its peak.  The window ends at that cut, and the 2% of the
    # mass past it is extrapolated and charged to the error, not dropped
    def log_abs(r):
        return np.log(r) - 1.01 * np.log1p(r * r)

    with pytest.raises(ConvergenceError, match=(
            r"value 4\.22\d*e\+01 \(log scale 0\.169\).*"
            r"extrapolated-tail charge 2\.1e-02 past r = 1\.30494e\+154")):
        tail_integral(log_abs, rel_tol=1e-12)


# ---------------------------------------------------------------------
# the probe's live window: the same bits as the full-grid probe
# ---------------------------------------------------------------------


def _bits(outcome):
    """An engine outcome as comparable bits: (value, error, log_scale) in
    hex, or the exception's type and text."""
    if isinstance(outcome, SpecGapError):
        return f"{type(outcome).__name__}: {outcome}"
    return tuple(float(x).hex() for x in outcome)


def _probe_outcomes(monkeypatch, stride, run):
    """Outcome bits of every engine call ``run`` makes through
    radial_model, with the probe's coarse pass reading every ``stride``-th
    grid point (stride 1 reads the whole grid, as the full probe does)."""
    outcomes = []

    def spy_tail(*args, **kwargs):
        try:
            out = tail_integral(*args, **kwargs)
        except SpecGapError as exc:
            outcomes.append(_bits(exc))
            raise
        outcomes.append(_bits(out))
        return out

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_COARSE_STRIDE", stride)
        m.setattr(radial_model, "tail_integral", spy_tail)
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
    # extrapolated tail is read from its last points
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


def test_normalization_probes_only_the_live_window(monkeypatch):
    # gaussian n = 3 is live (within _DROP e-folds of its peak) on 37 of
    # the 8193 probe points: the probe reads the 1025 coarse points and a
    # window of those plus a coarse step or two on either side, not the
    # whole grid
    points, nodes = [], []
    real_panels = quadrature._gk_panels

    def spy_panels(fn, lo, hi):
        nodes[-1] += 21 * np.size(lo)
        return real_panels(fn, lo, hi)

    def spy_tail(log_abs_fn, *args, **kwargs):
        points.append(0)
        nodes.append(0)

        def counted(r):
            points[-1] += np.size(r)
            return log_abs_fn(r)

        return tail_integral(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_gk_panels", spy_panels)
    monkeypatch.setattr(radial_model, "tail_integral", spy_tail)
    build_measure(3, exp_power_potential(2.0))
    grid = np.linspace(0.0, quadrature._U_CAP, quadrature._PROBE_POINTS)
    r = np.expm1(grid)
    with np.errstate(divide="ignore", over="ignore"):
        li = 2.0 * np.log(r) - 0.5 * r * r + grid
    live = np.nonzero(li >= np.max(li) - quadrature._DROP)[0]
    assert live.size == 37
    window = live[-1] - live[0] + 1 + 4 * 8
    # the first engine call of build_measure is the normalization
    assert points[0] <= 1025 + window + nodes[0], (points[0], nodes[0])


def test_kronrod_rule_exact_to_degree_31():
    x, wk, wg = GK_NODES, GK_KRONROD, GK_GAUSS
    for d in range(32):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(wk @ x ** d - exact) < 1e-15
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.allclose(x[wg > 0], gx, rtol=0, atol=1e-15)
    assert np.allclose(wg[wg > 0], gw, rtol=0, atol=1e-15)


def test_gauss_kronrod_bisects_a_kink_to_tolerance():
    # |u - 1/3| has a kink no panel edge hits; the estimate must still
    # be honest after adaptive bisection
    val, err = gauss_kronrod(lambda u: np.abs(u - 1.0 / 3.0), 0.0, 1.0,
                             rel_tol=1e-12)
    exact = 5.0 / 18.0
    assert abs(val - exact) <= err <= 1e-12 * exact


# ---------------------------------------------------------------------
# log_integrals_exp: variation-adaptive Gauss-Legendre cells
# ---------------------------------------------------------------------


def _table_cells(monkeypatch, n, potential):
    """(log_f, lo, hi) of the 4096-cell CDF table that a measure's first
    quantile call makes, in u = log(1+r)."""
    calls = []

    def spy(log_f, lo, hi):
        calls.append((log_f, np.array(lo), np.array(hi)))
        return log_integrals_exp(log_f, lo, hi)

    measure = build_measure(n, potential)
    with monkeypatch.context() as m:
        m.setattr(radial_model, "log_integrals_exp", spy)
        measure.quantile(0.5)
    call, = calls
    return call


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


def test_log_integrals_gaussian_table_cells(monkeypatch):
    # every 128th cell of the 4096-cell table, its first and last
    # included; the first starts at u = 0, where log_f is -inf
    _, lo, hi = _table_cells(monkeypatch, 3, exp_power_potential(2.0))
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


def test_log_integrals_steep_cells_at_the_panel_clip(monkeypatch):
    # the n = 128 table starts with r^127: its first cells, and wider
    # cells from or near u = 0, vary by hundreds of e-folds and are cut
    # into the full 64 panels
    n = 128
    _, lo, hi = _table_cells(monkeypatch, n, exp_power_potential(2.0))
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


def test_log_integrals_blocks_keep_table_bits(monkeypatch):
    # the 4096-cell sampling table of every catalog law is four blocks
    calls = []

    def spy(log_f, lo, hi):
        if len(lo) == 4096:
            calls.append((log_f, np.array(lo), np.array(hi)))
        return log_integrals_exp(log_f, lo, hi)

    monkeypatch.setattr(radial_model, "log_integrals_exp", spy)
    for spec in catalog_grid():
        make_family(spec)[0].quantile(0.5)
    monkeypatch.undo()
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
    rounds = []
    real_panels = quadrature._gk_panels

    def spy_panels(fn, lo, hi):
        rounds[-1] += 1
        return real_panels(fn, lo, hi)

    def spy_tail(*args, **kwargs):
        rounds.append(0)
        return tail_integral(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_gk_panels", spy_panels)
    monkeypatch.setattr(radial_model, "tail_integral", spy_tail)
    for n, potential in _NORMALIZED:
        rounds.clear()
        build_measure(n, potential)
        # the first engine call of build_measure is the normalization
        assert 1 <= rounds[0] <= 2, (potential.name, rounds)


def test_cdf_table_evaluates_few_points_per_cell(monkeypatch):
    # each cell's one-panel rule is its own variation probe: 8 points for
    # most cells (a separate 5-point probe made it 13.1)
    for n, potential in _NORMALIZED:
        log_f, lo, hi = _table_cells(monkeypatch, n, potential)
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

    value, err, log_scale = tail_integral(log_abs)
    exact = 0.5 * math.log(2.0 * math.pi * 1e-6)
    assert abs(math.log(value) + log_scale - exact) <= 1e-10
    assert err <= 1e-10 * value
