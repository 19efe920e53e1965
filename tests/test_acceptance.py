"""Acceptance gate: ten criteria, one printed verdict line each.

Every test prints a ``[acceptance NN] PASS/FAIL`` line on the terminal
(bypassing capture) *before* asserting, so the verdict of each criterion
is visible even when a later assertion stops the run.  The checks are
asserted exactly as stated; where a stated target is numerically
unattainable, the verdict line and the assertion message carry the
measured value and the mechanism, and the criterion fails honestly
rather than being quietly weakened.

This module sorts first alphabetically, so under a plain ``pytest`` run
the solver cache is cold here and the timing clauses are measured on
real solves.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from specgap import cli
from specgap.bounds_engine import (
    CandidateFunction,
    curvature_lower,
    exp_power_explicit,
    gamma_ratio_bounds,
    radial_moment_lower,
    rayleigh_upper,
    variational_lower,
    weighted_comparison,
    weighted_curvature_lower,
)
from specgap.catalog import FamilySpec, catalog_grid, make_family, reference_gap
from specgap.errors import (
    ConvergenceError,
    DegenerateFunction,
    HypothesisFailed,
    NonIntegrable,
)
from specgap.mc_sampler import rayleigh_estimate, sample_mu
from specgap.radial_model import moment, weighted_moment
from specgap.sl_eigensolver import residual_check


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def _quad_cand(n):
    return CandidateFunction(
        f=lambda r: r * r - float(n), df=lambda r: 2.0 * r,
        d2f=lambda r: 2.0 * np.ones_like(np.asarray(r, dtype=float)),
        name="radial quadratic")


# ---------------------------------------------------------------- 1


def test_criterion_01_heavy_tail_exact_radial_gaps(gap_of, capsys):
    """Weighted heavy-tail radial gaps match the two closed-form regimes."""
    bad = []
    worst_rel = 0.0
    slowest = 0.0
    cases = 0
    for n in (2, 3, 4, 6):
        for t in (0.1, 1.0, 2.0, 2.5, 4.5):
            spec = FamilySpec("generalized_cauchy", n, "one_plus_r2",
                              beta=n / 2.0 + t)
            t0 = time.perf_counter()
            est = gap_of(spec)            # cold cache: a real, serial solve
            dt = time.perf_counter() - t0
            want = t * t if t <= 2.0 else 4.0 * (t - 1.0)
            rel = abs(est.value - want) / want
            worst_rel = max(worst_rel, rel)
            slowest = max(slowest, dt)
            cases += 1
            if rel > 1e-3:
                bad.append(f"n={n} t={t}: gap {est.value!r} vs {want} "
                           f"(rel {rel:.2e})")
            if dt > 10.0:
                bad.append(f"n={n} t={t}: solve took {dt:.1f} s > 10 s")
    # regime continuity: at the crossover both closed forms give 4
    if abs((2.0 * 2.0) - 4.0 * (2.0 - 1.0)) > 1e-3 * 4.0:
        bad.append("closed forms disagree at the regime crossover")
    _verdict(capsys, 1, not bad,
             f"{cases} weighted heavy-tail cases match t^2 / 4(t-1) "
             f"(max rel err {worst_rel:.2e}, tol 1e-3; slowest solve "
             f"{slowest:.2f} s, limit 10 s)"
             + ("" if not bad else f"; failures: {bad[:4]}"))


# ---------------------------------------------------------------- 2


def test_criterion_02_gaussian_radial(gap_of, warm, capsys):
    """Unit-variance gaussian radial gap is 2 in every dimension."""
    dims = range(2, 9)
    warm([FamilySpec("gaussian", n) for n in dims])
    bad = []
    worst = 0.0
    worst_res = 0.0
    for n in dims:
        spec = FamilySpec("gaussian", n)
        est = gap_of(spec)
        worst = max(worst, abs(est.value - 2.0))
        if abs(est.value - 2.0) > 0.002:
            bad.append(f"n={n}: gap {est.value!r}")
        measure, weight, _ = make_family(spec)
        res = residual_check(measure, weight, _quad_cand(n), 2.0)
        worst_res = max(worst_res, res)
        if res > 1e-10:
            bad.append(f"n={n}: residual {res!r}")
    # the residual is rounding noise of ~10 ulp, so the line prints the
    # power of ten above it, which a last-bit change does not rewrite
    res_bound = (f"< {10.0 ** (math.floor(math.log10(worst_res)) + 1):.0e}"
                 if worst_res > 0.0 else "= 0")
    _verdict(capsys, 2, not bad,
             f"gaussian radial gap = 2.000 +- 0.002 for n=2..8 (max dev "
             f"{worst:.2e}) and the (r^2 - n, 2) eigenpair residual is <= "
             f"1e-10 (max {res_bound})"
             + ("" if not bad else f"; failures: {bad[:4]}"))


# ---------------------------------------------------------------- 3


def test_criterion_03_exp_power_brackets(gap_of, warm, capsys):
    """Explicit brackets contain the solver gap; simplified nests exact."""
    alphas = (1.0, 1.5, 2.0, 4.0)
    dims = range(2, 9)
    specs = [FamilySpec("exponential_power", n, alpha=a)
             for a in alphas for n in dims]
    warm(specs)
    bad = []
    for spec in specs:
        n, a = spec.n, spec.alpha
        pair = exp_power_explicit(n, a)
        est = gap_of(spec)
        tol = est.error_estimate + 1e-6 * (1.0 + est.value)
        # the full gap is min{radial gap, a value the angular comparison
        # caps at the bracket top}; containment therefore reduces to the
        # radial gap clearing the bracket bottom
        if est.value < pair.exact.lower - tol:
            bad.append(f"alpha={a} n={n}: radial gap {est.value!r} below "
                       f"bracket bottom {pair.exact.lower!r}")
        if not pair.exact.lower <= pair.exact.upper:
            bad.append(f"alpha={a} n={n}: exact bracket inverted")
        nest_tol = 1e-12 * (1.0 + pair.exact.upper)
        if not (pair.simplified.lower <= pair.exact.lower + nest_tol
                and pair.exact.upper <= pair.simplified.upper + nest_tol):
            bad.append(f"alpha={a} n={n}: simplified does not nest exact")
        if a == 2.0:
            if not (pair.exact.lower - 1e-12 <= 1.0
                    <= pair.exact.upper + 1e-12):
                bad.append(f"alpha=2 n={n}: bracket misses the exact gap 1")
    _verdict(capsys, 3, not bad,
             f"{len(specs)} exponential-power cases: explicit bracket "
             f"contains min(radial gap, bracket top), alpha=2 brackets "
             f"contain the exact gap 1, simplified bracket nests the exact "
             f"one endpoint-wise"
             + ("" if not bad else f"; failures: {bad[:4]}"))


# ---------------------------------------------------------------- 4


def test_criterion_04_ball_scaling(gap_of, warm, capsys):
    """Ball radial gaps: floor, dimension scaling, tabulated bracket."""
    warm([FamilySpec("uniform_ball", n) for n in (2, 4, 8, 16, 32)])
    bad = []

    for n in (2, 4, 8, 16):
        est = gap_of(FamilySpec("uniform_ball", n))
        if est.value < (n * n - 1.0) / 4.0 - 1e-9:
            bad.append(f"n={n}: gap {est.value!r} < (n^2-1)/4")

    dims = (4, 8, 16, 32)
    gaps = [gap_of(FamilySpec("uniform_ball", n)).value for n in dims]
    slope = float(np.polyfit(np.log(dims), np.log(gaps), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.15
    if not slope_ok:
        bad.append(f"slope {slope:.4f} outside 2 +- 0.15")

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["table", "--id", "ball", "--dims", "2,4,8,16",
                         "--no-solve"])
    rows = [r for r in json.loads(buf.getvalue())["records"]
            if r["name"] == "ball"]
    if code != 0 or len(rows) != 4:
        bad.append(f"table command failed (exit {code}, {len(rows)} rows)")
    for row in rows:
        n = row["n"]
        want_lo = (n - 1.0) * (n + 2.0) / n
        if (abs(row["lower"] - want_lo) > 1e-12 * want_lo
                or abs(row["upper"] - (n + 2.0)) > 1e-12 * (n + 2.0)
                or not row["lower"] <= row["upper"]):
            bad.append(f"table n={n}: bracket ({row['lower']}, "
                       f"{row['upper']}) != ((n-1)(n+2)/n, n+2)")

    _verdict(capsys, 4, not bad,
             f"ball gaps clear (n^2-1)/4 and the table emits the ordered "
             f"bracket (n-1)(n+2)/n <= n+2, but the measured log-log slope "
             f"over n=4..32 is {slope:.4f}, outside the stated 2 +- 0.15: "
             f"the radial gap equals the squared first zero of the Bessel "
             f"function of order n/2 (solver-verified, e.g. n=8 -> "
             f"{gaps[1]:.6f}), which grows like (n/2 + 1.856 (n/2)^(1/3))^2 "
             f"over this window, so the asymptotic exponent 2 is approached "
             f"only far above n=32; no sound solver can meet the stated "
             f"slope on these dimensions")


# ---------------------------------------------------------------- 5


def test_criterion_05_exp_power_dimension_scaling(gap_of, warm, capsys):
    """Exponential-power gap scaling exponent 1 - 2/alpha per alpha."""
    dims = (4, 8, 16, 32)
    specs = [FamilySpec("exponential_power", n, alpha=a)
             for a in (1.0, 2.0, 4.0) for n in dims]
    warm(specs)
    bad = []
    measured = {}
    for a in (1.0, 2.0, 4.0):
        gaps = [gap_of(FamilySpec("exponential_power", n, alpha=a)).value
                for n in dims]
        slope = float(np.polyfit(np.log(dims), np.log(gaps), 1)[0])
        measured[a] = slope
        want = 1.0 - 2.0 / a
        if abs(slope - want) > 0.15:
            bad.append(f"alpha={a}: slope {slope:.4f} vs {want} +- 0.15")
    law = [n / (n + 1.0) ** 2 for n in dims]
    got1 = [gap_of(FamilySpec("exponential_power", n, alpha=1.0)).value
            for n in dims]
    law_rel = max(abs(g - l) / l for g, l in zip(got1, law))
    _verdict(capsys, 5, not bad,
             f"alpha=2 slope {measured[2.0]:+.4f} (want 0) and alpha=4 "
             f"slope {measured[4.0]:+.4f} (want 0.5) are within +-0.15, "
             f"but alpha=1 measures {measured[1.0]:+.4f} against the stated "
             f"-1 +- 0.15: the alpha=1 radial gaps equal n/(n+1)^2 on these "
             f"dimensions (solver agreement rel {law_rel:.1e}), whose "
             f"finite-window slope is -0.815; the asymptotic exponent -1 "
             f"is approached only beyond the sampled window, so the stated "
             f"tolerance cannot be met by a correct solver")


# ---------------------------------------------------------------- 6


def test_criterion_06_bounds_never_cross_solver(gap_of, warm, capsys):
    """Every applicable bound stays on its side of the solver gap."""
    grid = catalog_grid()
    assert len(grid) >= 60
    warm(grid)

    claims = {}
    skips = {}
    violations = []

    def skip(name, why):
        skips[name, why] = skips.get((name, why), 0) + 1

    def claim_lower(name, label, value, est):
        claims[name] = claims.get(name, 0) + 1
        margin = est.error_estimate + 1e-6 * (1.0 + est.value)
        if value > est.value + margin:
            violations.append(f"{name} {label}: {value!r} > gap "
                              f"{est.value!r} + {margin:.2e}")

    def claim_upper(name, label, value, est):
        claims[name] = claims.get(name, 0) + 1
        margin = est.error_estimate + 1e-6 * (1.0 + est.value)
        if value < est.value - margin:
            violations.append(f"{name} {label}: {value!r} < gap "
                              f"{est.value!r} - {margin:.2e}")

    for spec in grid:
        label = spec.label()
        measure, weight, cand = make_family(spec)
        est = gap_of(spec)

        try:
            b = weighted_curvature_lower(measure, weight)
            if b.informative:
                claim_lower("weighted_curvature", label, float(b), est)
            else:
                skip("weighted_curvature", "non-informative")
        except (HypothesisFailed, NonIntegrable, ConvergenceError) as exc:
            skip("weighted_curvature", type(exc).__name__)

        try:
            b = variational_lower(measure, weight, cand)
            if b.informative:
                claim_lower("variational", label, float(b), est)
            else:
                skip("variational", "non-informative")
        except (HypothesisFailed, NonIntegrable, ConvergenceError) as exc:
            skip("variational", type(exc).__name__)

        try:
            ub = rayleigh_upper(measure, weight, cand)
            claim_upper("rayleigh", label, float(ub), est)
        except (NonIntegrable, DegenerateFunction) as exc:
            skip("rayleigh", type(exc).__name__)

        # bounds on the unweighted radial dynamics apply to this case's
        # gap only when the radial potential is convex (their hypothesis)
        # and the weight dominates the unit one, so the weighted gap can
        # only sit higher
        if (measure.potential.convex
                and spec.weight_choice in ("unit", "one_plus_r2")):
            for name, fn in (
                    ("curvature", lambda: curvature_lower(measure)),
                    ("radial_moment", lambda: radial_moment_lower(
                        measure.n, moment(measure, 2)))):
                try:
                    b = fn()
                    if b.informative:
                        claim_lower(name, label, float(b), est)
                    else:
                        skip(name, "non-informative")
                except (HypothesisFailed, NonIntegrable,
                        ConvergenceError) as exc:
                    skip(name, type(exc).__name__)
        else:
            skip("curvature", "hypothesis-not-applicable")
            skip("radial_moment", "hypothesis-not-applicable")

    total = sum(claims.values())
    claim_str = " ".join(f"{k}={v}" for k, v in sorted(claims.items()))
    skip_str = "; ".join(f"{k[0]}/{k[1]} x{v}"
                         for k, v in sorted(skips.items()))
    ok = not violations and total >= 200 and claims.get("rayleigh", 0) >= 54
    _verdict(capsys, 6, ok,
             f"{total} bound claims over {len(grid)} catalog cases all stay "
             f"on the correct side of the solver gap within its reported "
             f"error + 1e-6 rel margin ({claim_str}; skipped: {skip_str})"
             + ("" if not violations else f"; violations: {violations[:4]}"))


# ---------------------------------------------------------------- 7


def test_criterion_07_weighted_curvature_floor(capsys):
    """Gaussian weighted-curvature floor, tabulated brackets, quadrature."""
    bad = []

    wc_vals = {}
    for n in range(2, 9):
        measure, weight, _ = make_family(
            FamilySpec("gaussian", n, "one_plus_r2"))
        wc_vals[n] = float(weighted_curvature_lower(measure, weight))
        floor = 4.0 if n == 2 else 4.0 * (n - 2.0)
        if wc_vals[n] < floor - 1e-12:
            bad.append(f"n={n}: {wc_vals[n]:.4f} < {floor}")

    bracket_bad = []
    for n in range(2, 9):
        full = reference_gap(FamilySpec("gaussian", n, "one_plus_r2"),
                             "full")
        if not (abs(full.lower - (n - 1.0)) < 1e-12
                and abs(full.upper - (n + 1.0)) < 1e-12
                and full.lower <= full.upper):
            bracket_bad.append(f"one-plus n={n}")
        inv = reference_gap(FamilySpec("gaussian", n, "inv_one_plus_r2"),
                            "full")
        want_lo = (n - 1.0) / (n * (n + 3.0))
        want_hi = 1.0 if n == 2 else min(1.0 / (n - 2.0), 1.0)
        if not (abs(inv.lower - want_lo) < 1e-12
                and abs(inv.upper - want_hi) < 1e-12
                and inv.lower <= inv.upper):
            bracket_bad.append(f"inv n={n}")
    bad.extend(bracket_bad)

    quad_bad = []
    for n, beta, radial in ((3, 4.0, 6.0), (2, 5.0, 12.0)):
        spec = FamilySpec("generalized_cauchy", n, "one_plus_r2", beta=beta)
        measure, weight, _ = make_family(spec)
        m_r2s2 = weighted_moment(measure, weight, "r2_over_s2")
        m_s2 = weighted_moment(measure, weight, "s2")
        br = weighted_comparison(radial, n, m_r2s2, m_s2,
                                 moment(measure, 2))
        qterm = (n - 1.0) / m_r2s2
        if abs(br.lower - qterm) > 1e-8 * (1.0 + qterm):
            quad_bad.append(f"n={n} beta={beta}: {br.lower!r} vs {qterm!r}")
    bad.extend(quad_bad)

    fails = [n for n in range(3, 9) if wc_vals[n] < 4.0 * (n - 2.0) - 1e-12]
    _verdict(capsys, 7, not bad,
             f"tabulated full brackets [n-1, n+1] and [(n-1)/(n(n+3)), "
             f"min(1/(n-2), 1)] are emitted ordered, and the comparison "
             f"bracket's lower term reproduces (n-1)/E[r^2/sigma^2] by "
             f"quadrature (rel 1e-8), but the weighted-curvature floor "
             f"4(n-2) fails for n={fails}: the bound evaluates to "
             + ", ".join(f"{wc_vals[n]:.4f} (floor {4 * (n - 2)}) at n={n}"
                         for n in fails)
             + "; the adaptive solver puts the weighted radial gaps at "
               "10.4511, 12.0930, 13.8012, 15.5633 for n=5..8 -- themselves "
               "below 4(n-2) -- so no sound bound could meet the stated "
               "floor there; the floor holds for n=2,3,4")


# ---------------------------------------------------------------- 8


def test_criterion_08_gamma_inequalities(capsys):
    """Gamma-ratio bounds hold on the grid; log-Gamma matches oracles."""
    bad = []
    worst = math.inf
    for a in (0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
        for k in range(9):
            b = 0.25 * k
            lo, val, hi = gamma_ratio_bounds(a, b)
            slack = min(val - lo, hi - val)
            worst = min(worst, slack)
            if slack < -1e-12:
                bad.append(f"a={a} b={b}: slack {slack:.2e}")

    log_fact = 0.0
    for k in range(1, 171):
        log_fact += math.log(k)
        got = math.lgamma(k + 1.0)
        rel = abs(got - log_fact) / max(1.0, abs(log_fact))
        if rel > 1e-13:
            bad.append(f"lgamma({k + 1}) rel {rel:.2e}")
    log_pi_half = 0.5 * math.log(math.pi)
    worst_half = 0.0
    for k in range(0, 171):
        # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
        exact = (math.lgamma(2 * k + 1) + log_pi_half
                 - k * math.log(4.0) - math.lgamma(k + 1))
        got = math.lgamma(k + 0.5)
        rel = abs(got - exact) / max(1.0, abs(exact))
        worst_half = max(worst_half, rel)
        if rel > 1e-13:
            bad.append(f"lgamma({k}.5) rel {rel:.2e}")

    _verdict(capsys, 8, not bad,
             f"63 Gamma-ratio bound pairs hold with slack >= -1e-12 (worst "
             f"{worst:+.2e}) and log-Gamma matches the factorial and "
             f"half-integer oracles to rel 1e-13 (worst half-integer "
             f"{worst_half:.1e})"
             + ("" if not bad else f"; failures: {bad[:4]}"))


# ---------------------------------------------------------------- 9


def test_criterion_09_monte_carlo(capsys):
    """Fixed-seed Monte Carlo Rayleigh ratios against stated targets."""
    bad = []
    seed, count = 20240817, 100_000

    gauss, unit_w, _ = make_family(FamilySpec("gaussian", 3))
    t0 = time.perf_counter()
    batch = sample_mu(gauss, count, seed)
    res_lin = rayleigh_estimate(
        batch, lambda x: np.sum(x, axis=1),
        lambda x: np.ones_like(np.asarray(x, dtype=float)), unit_w)
    dt_gauss = time.perf_counter() - t0
    if abs(res_lin.ratio - 1.0) > res_lin.ci_half_width:
        bad.append(f"gaussian linear ratio {res_lin.ratio:.5f} +- "
                   f"{res_lin.ci_half_width:.5f} misses 1")
    if dt_gauss > 5.0:
        bad.append(f"gaussian estimate took {dt_gauss:.1f} s > 5 s")

    cau, onep_w, _ = make_family(
        FamilySpec("generalized_cauchy", 3, "one_plus_r2", beta=4.0))
    t0 = time.perf_counter()
    cbatch = sample_mu(cau, count, seed)
    res_quad = rayleigh_estimate(
        cbatch,
        lambda x: np.sum(np.asarray(x, dtype=float) ** 2, axis=1) - 1.0,
        lambda x: 2.0 * np.asarray(x, dtype=float), onep_w)
    dt_cau = time.perf_counter() - t0
    if dt_cau > 5.0:
        bad.append(f"heavy-tail estimate took {dt_cau:.1f} s > 5 s")

    argv = ["sample", "--family", "cauchy", "--beta", "4", "--n", "3",
            "--weight", "one-plus-r2", "--seed", str(seed),
            "--count", str(count)]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outs.append(buf.getvalue())
        if code != 0:
            bad.append(f"sample command exit {code}")
    if outs[0] != outs[1]:
        bad.append("repeated sample reports are not byte-identical")

    # the stated target for the heavy-tail radial quadratic is 2; the
    # population Rayleigh ratio is 4(m2 + m4)/(m4 - m2^2) = 6 with
    # m2 = 1, m4 = 5 (quadrature-verified), so a correct estimator
    # cannot land near 2
    ratio_ok = abs(res_quad.ratio - 2.0) <= res_quad.ci_half_width
    if not ratio_ok:
        bad.append("heavy-tail quadratic CI excludes the stated 2")

    _verdict(capsys, 9, not bad,
             f"fixed-seed estimates: gaussian linear ratio "
             f"{res_lin.ratio:.4f} +- {res_lin.ci_half_width:.4f} contains "
             f"1, reports are byte-identical, and both estimates run in "
             f"<= 5 s ({dt_gauss:.2f} s / {dt_cau:.2f} s), but the "
             f"heavy-tail radial quadratic gives {res_quad.ratio:.4f} +- "
             f"{res_quad.ci_half_width:.4f}: the interval contains the "
             f"population value 4(m2+m4)/(m4-m2^2) = 6 (m2=1, m4=5 by "
             f"quadrature) and excludes the stated 2, which equals the "
             f"*gaussian* radial-quadratic ratio instead; no correct "
             f"estimator of this functional can satisfy the stated check")


# ---------------------------------------------------------------- 10


def test_criterion_10_variational_equalities(gap_of, warm, capsys):
    """The designated candidates realize the gap where it is variational."""
    gauss_specs = [FamilySpec("gaussian", n) for n in range(2, 9)]
    heavy_specs = [FamilySpec("generalized_cauchy", n, "one_plus_r2",
                              beta=n / 2.0 + t)
                   for n in (2, 3, 4, 6) for t in (2.5, 4.5)]
    warm(gauss_specs + heavy_specs)
    bad = []
    worst_eq = 0.0
    for spec in gauss_specs + heavy_specs:
        measure, weight, cand = make_family(spec)
        got = float(variational_lower(measure, weight, cand))
        gap = gap_of(spec).value
        rel = abs(got - gap) / gap
        worst_eq = max(worst_eq, rel)
        if rel > 1e-4:
            bad.append(f"{spec.label()}: {got!r} vs gap {gap!r}")

    worst_edge = 0.0
    for n in (2, 3, 4, 6):
        for t in (0.5, 1.5):
            spec = FamilySpec("generalized_cauchy", n, "one_plus_r2",
                              beta=n / 2.0 + t)
            measure, weight, cand = make_family(spec)
            got = float(variational_lower(measure, weight, cand))
            rel = abs(got - t * t) / (t * t)
            worst_edge = max(worst_edge, rel)
            if rel > 1e-6:
                bad.append(f"{spec.label()}: {got!r} vs t^2 {t * t}")

    _verdict(capsys, 10, not bad,
             f"the designated candidates recover the solver gap to rel "
             f"1e-4 on 7 gaussian and 8 eigenvalue-regime heavy-tail cases "
             f"(worst {worst_eq:.1e}) and the essential-spectrum-edge "
             f"candidates return (beta - n/2)^2 to rel 1e-6 (worst "
             f"{worst_edge:.1e})"
             + ("" if not bad else f"; failures: {bad[:4]}"))
