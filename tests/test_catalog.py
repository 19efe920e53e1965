"""Catalog: case validation, recorded references, metric maps, the grid.

The recorded reference table is cross-checked three ways: spot values
recomputed by hand, the closed-form eigenfunctions behind the exact full
gaps, and ordering consistency over dense parameter sweeps.  Solver agreement for selected
cases closes the loop between the table and the eigensolver.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from specgap import sl_eigensolver
from specgap.bounds_engine import (exp_power_explicit, gamma_ratio_bounds,
                                   moment_bracket, radial_moment_lower,
                                   rayleigh_upper, spectral_comparison,
                                   validate_candidate)
from specgap.catalog import (
    FamilySpec,
    ReferenceGap,
    catalog_grid,
    cauchy_potential,
    exp_power_potential,
    make_family,
    power_candidate,
    power_law_candidate,
    power_weight,
    reference_gap,
)
from specgap.errors import InvalidInput, SpecGapError
from specgap.radial_model import (moment, tail_mass, validate_weight,
                                  weighted_moment)
from specgap.sl_eigensolver import residual_check, spectral_gap


# ------------------------------------------------------------ FamilySpec


@pytest.mark.parametrize("ctor", [
    lambda: FamilySpec("pareto", 3),
    lambda: FamilySpec("gaussian", 3, "huh"),
    lambda: FamilySpec("gaussian", 1),
    lambda: FamilySpec("gaussian", 3.0),
    lambda: FamilySpec("gaussian", True),
    lambda: FamilySpec("exponential_power", 3),
    lambda: FamilySpec("exponential_power", 3, alpha=0.5),
    lambda: FamilySpec("generalized_cauchy", 3),
    lambda: FamilySpec("generalized_cauchy", 4, beta=2.0),
    lambda: FamilySpec("gaussian", 3, alpha=2.0),
    lambda: FamilySpec("uniform_ball", 3, beta=3.0),
])
def test_family_spec_rejects(ctor):
    with pytest.raises(InvalidInput):
        ctor()


@pytest.mark.parametrize("kwargs, message", [
    (dict(family="exponential_power", alpha=math.inf),
     "alpha must be finite, got inf"),
    (dict(family="generalized_cauchy", beta=math.inf),
     "beta must be finite, got inf"),
    (dict(family="generalized_cauchy", beta=math.nan),
     "beta must be finite, got nan"),
], ids=["alpha-inf", "beta-inf", "beta-nan"])
def test_family_spec_rejects_non_finite_parameter_by_name(kwargs, message):
    # inf meets both alpha >= 1 and beta > n/2, so the hypothesis messages
    # must not be the reason given
    with pytest.raises(InvalidInput) as exc:
        FamilySpec(n=3, **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("family, name, value", [
    ("exponential_power", "alpha", True),
    ("exponential_power", "alpha", "2"),
    ("exponential_power", "alpha", np.array([2.0])),
    ("generalized_cauchy", "beta", True),
    ("generalized_cauchy", "beta", "4"),
    ("generalized_cauchy", "beta", 4 + 0j),
], ids=["alpha-bool", "alpha-str", "alpha-array", "beta-bool", "beta-str",
        "beta-complex"])
def test_family_spec_rejects_non_real_parameter(family, name, value):
    # bool is an int subclass and "2" converts by float(); neither may
    # pass for a real parameter
    with pytest.raises(InvalidInput) as exc:
        FamilySpec(family, 3, **{name: value})
    assert str(exc.value).startswith(f"{name} must be a real number")


def test_family_spec_normalization_and_label():
    sp = FamilySpec("generalized_cauchy", 3, "one_plus_r2", beta=4)
    assert isinstance(sp.beta, float)
    assert sp.label() == "generalized_cauchy beta=4 n=3 weight=one_plus_r2"


# ------------------------------------------------- real-valued parameters


@pytest.mark.parametrize("bad", ("2", True, None, [2.0]), ids=repr)
@pytest.mark.parametrize("call", [
    exp_power_potential,
    cauchy_potential,
    power_candidate,
    power_law_candidate,
    power_weight,
    lambda x: exp_power_explicit(3, x),
    lambda x: moment_bracket(3, x),
    lambda x: radial_moment_lower(3, x),
    lambda x: spectral_comparison(x, 3, 1.0),
    lambda x: gamma_ratio_bounds(x, 1),
    lambda x: residual_check(*make_family(FamilySpec("gaussian", 3)), x),
], ids=["exp_power_potential", "cauchy_potential", "power_candidate",
        "power_law_candidate", "power_weight", "exp_power_explicit",
        "moment_bracket", "radial_moment_lower", "spectral_comparison",
        "gamma_ratio_bounds", "residual_check"])
def test_real_parameters_reject_non_reals(call, bad):
    # each raises InvalidInput rather than coercing "2" or True through
    # float() or leaking a TypeError
    with pytest.raises(InvalidInput):
        call(bad)


# ----------------------------------------------------------------- weights


@pytest.mark.parametrize("k", (0, 1, -1))
def test_power_weight_reproduces_closed_forms(k):
    # sigma^2 = 1, 1+r^2, 1/(1+r^2) and their derivatives written out: bit
    # for bit at k = 0, 1, within 4 ulp at k = -1, and nan only where the
    # written-out forms give nan (r^2 overflows past r ~ 1.3e154)
    r = np.geomspace(1e-300, 1e300, 4001)
    with np.errstate(all="ignore"):
        q = 1.0 + r ** 2
        closed = {
            0: (np.ones_like(r), np.zeros_like(r), np.zeros_like(r)),
            1: (1.0 + r ** 2, 2.0 * r, 2.0 * np.ones_like(r)),
            -1: (1.0 / q, -2.0 * r / q ** 2, (6.0 * r ** 2 - 2.0) / q ** 3),
        }[k]
        w = power_weight(k)
        got = [np.asarray(f(r), dtype=float) for f in (w.s2, w.ds2, w.d2s2)]
    for new, old in zip(got, closed):
        assert not np.any(np.isnan(new) & ~np.isnan(old))
        if k in (0, 1):
            assert new.tobytes() == old.tobytes()
        else:
            ok = ~np.isnan(old)
            ulp = np.spacing(np.maximum(np.abs(new), np.abs(old)))
            assert np.all(np.abs(new - old)[ok] <= 4.0 * ulp[ok])
    assert (w.to_metric is None) == (k == -1)
    if k == 0:
        # ones of the radius' shape, a numpy scalar for a scalar radius,
        # and 1 at inf and nan as pow(x, 0) gives
        assert type(w.s2(2.0)) is np.float64 and w.s2(2.0) == 1.0
        assert w.s2(np.array([[np.inf], [np.nan]])).tolist() == [[1.0], [1.0]]


# ----------------------------------------------------------- ReferenceGap


@pytest.mark.parametrize("ctor", [
    lambda: ReferenceGap(kind="guess"),
    lambda: ReferenceGap(kind="exact"),
    lambda: ReferenceGap(kind="exact", value=1.0, lower=0.5),
    lambda: ReferenceGap(kind="bracket", lower=1.0),
    lambda: ReferenceGap(kind="bracket", lower=2.0, upper=1.0),
    lambda: ReferenceGap(kind="order_only"),
])
def test_reference_gap_rejects(ctor):
    with pytest.raises(InvalidInput):
        ctor()


def test_reference_gap_one_sided_with_order():
    rg = ReferenceGap(kind="bracket", lower=1.0, upper=math.inf,
                      order_exponent=2.0, source="s")
    assert rg.upper == math.inf


# ------------------------------------------------- recorded reference values


def test_recorded_reference_spot_values():
    r = reference_gap(FamilySpec("generalized_cauchy", 3, "one_plus_r2",
                                 beta=3), "radial")
    assert r.kind == "exact" and abs(r.value - 2.25) < 1e-15

    r = reference_gap(FamilySpec("generalized_cauchy", 2, "one_plus_r2",
                                 beta=5), "full")
    assert r.kind == "exact" and r.value == 8.0  # 2(beta-1), x_i

    r = reference_gap(FamilySpec("gaussian", 4, "inv_one_plus_r2"), "full")
    assert r.kind == "bracket"
    assert abs(r.lower - 3.0 / 28.0) < 1e-15 and r.upper == 0.5

    r = reference_gap(FamilySpec("gaussian", 2, "inv_one_plus_r2"), "full")
    assert r.upper == 1.0  # min{1/(n-2), 1} caps at 1 for n = 2

    r = reference_gap(FamilySpec("gaussian", 5, "one_plus_r2"), "full")
    assert r.lower == 4.0 and r.upper == 6.0  # [n-1, n+1]

    r = reference_gap(FamilySpec("gaussian", 2, "one_plus_r2"), "radial")
    assert r.lower == 4.0 and r.upper == math.inf

    r = reference_gap(FamilySpec("gaussian", 6, "one_plus_r2"), "radial")
    assert r.lower == 16.0  # 4(n-2), the recorded claim

    r = reference_gap(FamilySpec("gaussian", 4, "unit"), "full")
    assert r.kind == "exact" and r.value == 1.0
    r = reference_gap(FamilySpec("gaussian", 4, "unit"), "radial")
    assert r.kind == "exact" and r.value == 2.0

    r = reference_gap(FamilySpec("exponential_power", 3, alpha=2.0), "full")
    assert r.kind == "exact" and r.value == 1.0
    r = reference_gap(FamilySpec("exponential_power", 3, alpha=1.0), "full")
    assert r.kind == "exact" and r.value == 3.0 / 16.0  # x_i e^(r/(n+1))
    r = reference_gap(FamilySpec("exponential_power", 3, alpha=4.0), "radial")
    assert r.kind == "order_only" and abs(r.order_exponent - 0.5) < 1e-15
    # n/(n+1)^2, eigenfunction (1 - r/(n+1)) e^(r/(n+1)); the exponent
    # keeps the tables' scaling column
    r = reference_gap(FamilySpec("exponential_power", 3, alpha=1.0), "radial")
    assert r.kind == "exact" and r.value == 3.0 / 16.0
    assert r.order_exponent == -1.0

    r = reference_gap(FamilySpec("uniform_ball", 5), "full")
    assert abs(r.lower - 28.0 / 5.0) < 1e-12 and r.upper == 7.0
    r = reference_gap(FamilySpec("uniform_ball", 4), "radial")
    assert r.lower == 15.0 / 4.0 and r.upper == math.inf
    assert r.order_exponent == 2.0


@pytest.mark.parametrize("spec,which", [
    (FamilySpec("generalized_cauchy", 3, beta=4.0), "full"),
    (FamilySpec("gaussian", 3, "inv_one_plus_r2"), "radial"),
    (FamilySpec("uniform_ball", 3, "one_plus_r2"), "full"),
    (FamilySpec("gaussian", 3), "both"),
])
def test_reference_gap_untabulated_combinations(spec, which):
    with pytest.raises(InvalidInput):
        reference_gap(spec, which)


# ------------------------------------------------- closed-form full gaps


def _l1_generator(potential, weight, n, h, dh, d2h, r):
    """The generator on x_i h(r)/r, read off in h:
    sigma^2 (h'' + (n-1)h'/r - (n-1)h/r^2) + ((sigma^2)' - sigma^2 V')h',
    with the sum of its terms' magnitudes, the scale of its rounding.
    Both closed forms below hold to 2.6e-16 of that scale."""
    s2, ds2, dv = weight.s2(r), weight.ds2(r), potential.dv(r)
    terms = (s2 * d2h, s2 * (n - 1) * dh / r, -s2 * (n - 1) * h / r ** 2,
             ds2 * dh, -s2 * dv * dh)
    return sum(terms), sum(np.abs(term) for term in terms)


@pytest.mark.parametrize("n", (2, 3, 4, 6))
@pytest.mark.parametrize("t", (0.5, 1.0, 1.5, 2.5, 4.5))
def test_cauchy_full_gap_from_coordinate_eigenfunctions(n, t):
    # under sigma^2 = 1+r^2, L x_i = -2(beta-1) x_i, and r has no node:
    # the full gap is min(radial gap, 2(beta-1)); for t <= 1, where x_i
    # leaves L^2(mu), it is the radial essential-spectrum bottom t^2
    beta = n / 2.0 + t
    r = np.geomspace(1e-3, 1e3, 601)
    got, scale = _l1_generator(cauchy_potential(beta), power_weight(1), n,
                               r, np.ones_like(r), np.zeros_like(r), r)
    assert np.all(np.abs(got + 2.0 * (beta - 1.0) * r) <= 1e-14 * scale)
    spec = FamilySpec("generalized_cauchy", n, "one_plus_r2", beta=beta)
    full = reference_gap(spec, "full")
    radial = reference_gap(spec, "radial").value
    assert full.kind == "exact"
    assert full.value == min(radial, 2.0 * (beta - 1.0))
    if t <= 1.0:
        assert full.value == t * t


@pytest.mark.parametrize("n", (2, 3, 4, 6, 8))
def test_exp_power_alpha1_full_gap_from_l1_eigenfunction(n):
    # V'' = 0, so h = r e^(r/(n+1)) solves the l=1 equation at n/(n+1)^2,
    # the radial gap too
    c = 1.0 / (n + 1.0)
    r = np.geomspace(1e-3, 40.0 * (n + 1.0), 601)
    e = np.exp(c * r)
    h, dh, d2h = r * e, (1.0 + c * r) * e, (2.0 * c + c * c * r) * e
    got, scale = _l1_generator(exp_power_potential(1.0), power_weight(0), n,
                               h, dh, d2h, r)
    gap = n / (n + 1.0) ** 2
    assert np.all(np.abs(got + gap * h) <= 1e-14 * scale)
    spec = FamilySpec("exponential_power", n, alpha=1.0)
    for which in ("full", "radial"):
        ref = reference_gap(spec, which)
        assert ref.kind == "exact" and ref.value == gap


@pytest.mark.parametrize("spec", [
    spec for spec in catalog_grid()
    if spec.family == "generalized_cauchy" and spec.beta - spec.n / 2.0 > 1.0
], ids=FamilySpec.label)
def test_cauchy_coordinate_rayleigh_quotient_by_quadrature(spec):
    # x_i lies in L^2(mu) for t > 1, so its Rayleigh quotient
    # E[sigma^2 |grad x_i|^2]/E[x_i^2] = n E[sigma^2]/E[r^2] is its
    # eigenvalue 2(beta-1); measured within 4.5e-16 on all 12 laws
    measure, weight, _ = make_family(spec)
    quotient = (spec.n * weighted_moment(measure, weight, "s2")
                / moment(measure, 2))
    assert abs(quotient / (2.0 * (spec.beta - 1.0)) - 1.0) <= 1e-12


def test_heavy_tail_reference_brackets_ordered_dense_sweep():
    bad = []
    for n in (2, 3, 4, 5, 6, 8, 12):
        for t in np.linspace(0.01, 40.0, 400):
            spec = FamilySpec("generalized_cauchy", n, "one_plus_r2",
                              beta=n / 2.0 + float(t))
            for which in ("radial", "full"):
                ref = reference_gap(spec, which)
                if ref.kind == "bracket" and not ref.lower <= ref.upper:
                    bad.append((n, float(t), which))
                if ref.kind == "exact" and not ref.value >= 0.0:
                    bad.append((n, float(t), which))
    assert not bad, f"{len(bad)} violations, first {bad[:4]}"


def test_full_reference_never_exceeds_radial_reference():
    bad = []
    for n in (2, 3, 4, 6):
        for t in np.linspace(0.05, 30.0, 240):
            spec = FamilySpec("generalized_cauchy", n, "one_plus_r2",
                              beta=n / 2.0 + float(t))
            rad = reference_gap(spec, "radial")
            full = reference_gap(spec, "full")
            up = full.value if full.kind == "exact" else full.upper
            if up > rad.value + 1e-12 * (1.0 + rad.value):
                bad.append((n, float(t)))
    assert not bad, f"{len(bad)} violations, first {bad[:4]}"


# ------------------------------------------------------------ metric maps


@pytest.mark.parametrize("n", (2, 5, 8))
def test_inv_weight_tabulated_metric_maps(n):
    # sigma^2 = 1/(1+r^2) has no closed-form inverse natural coordinate,
    # so the solver tabulates s(r) = int_0^r sqrt(1+u^2) du on the case's
    # domain.  Measured on the 2049-point table graded toward r = 0:
    # 3.7e-6 relative at worst (near r_hi) and 2.8e-9 on the round trip.
    # The bounds date from a 16385-point uniform table, whose first cell
    # gave 1.64e-4 and 1.20e-8 at r = 1e-8.
    measure, _, _ = make_family(FamilySpec("gaussian", n, "inv_one_plus_r2"))
    r_hi = sl_eigensolver._radii(measure)[1]
    to_metric, from_metric = sl_eigensolver._metric_maps(
        power_weight(-1), r_hi)
    rs = np.geomspace(1e-8, r_hi, 2001)
    exact = 0.5 * (rs * np.sqrt(1.0 + rs * rs) + np.arcsinh(rs))
    assert np.max(np.abs(to_metric(rs) - exact) / exact) < 3e-4
    assert np.max(np.abs(from_metric(to_metric(rs)) - rs) / rs) < 3e-8
    assert from_metric(0.0) == 0.0
    assert np.ndim(from_metric(2.5)) == 0


# ------------------------------------------------ the solver's first domain


def test_first_domain_meets_the_solver_tail_budget():
    # past the first domain's radius the r^4-weighted law keeps at most
    # 1e-10 of its mass, and so does the bare law where E r^4 diverges
    # (cauchy with t = beta - n/2 <= 2); on the 57 unbounded laws the
    # largest share of the budget is 0.495, bare, at cauchy beta=2 n=3
    unbounded = 0
    for spec in catalog_grid():
        measure = make_family(spec)[0]
        if math.isfinite(measure.potential.domain_end):
            continue
        unbounded += 1
        r0 = sl_eigensolver._radii(measure)[0]
        k = 0 if (spec.family == "generalized_cauchy"
                  and spec.beta - spec.n / 2.0 <= 2.0) else 4
        # r^k nu is nu's own potential in dimension n + k
        law = replace(measure, n=measure.n + k,
                      log_z=measure.log_z + math.log(moment(measure, k)))
        ratio = tail_mass(law, r0) / sl_eigensolver._SOLVER_TAIL_TOL
        assert ratio <= 1.0, (spec.label(), k, ratio)
    assert unbounded == 57


# ------------------------------------------------------------- the grid


def test_catalog_grid_shape():
    grid = catalog_grid()
    assert len(grid) == 62
    assert all(isinstance(g, FamilySpec) for g in grid)
    labels = [g.label() for g in grid]
    assert len(set(labels)) == 62
    fams = {f: sum(1 for g in grid if g.family == f) for f in
            ("exponential_power", "uniform_ball", "gaussian",
             "generalized_cauchy")}
    assert fams == {"exponential_power": 20, "uniform_ball": 5,
                    "gaussian": 21, "generalized_cauchy": 16}


@pytest.mark.parametrize("n", (2, 3, 4, 8, 16, 128))
def test_ball_candidate_rayleigh_closed_form(n):
    # f = r^p/p (log r at n = 3) on the ball: E[f'^2] = n and
    # Var f = (n/p^2)(1/3 - n/(p+n)^2), p = (3-n)/2; Var log r = 1/9
    measure, weight, cand = make_family(FamilySpec("uniform_ball", n))
    if n == 3:
        want = 27.0
    else:
        p = (3.0 - n) / 2.0
        want = n / ((n / p ** 2) * (1.0 / 3.0 - n / (p + n) ** 2))
    got = rayleigh_upper(measure, weight, cand)
    assert abs(got - want) <= 1e-12 * want, (got, want)


@pytest.mark.parametrize("n", (2, 4, 8, 16, 128))
def test_power_law_candidate_is_the_ball_probe_bit_for_bit(n):
    # the ball's slow-increase probe as it was written, exponents in n
    p = (3.0 - n) / 2.0
    old = (lambda r: r ** p / p,
           lambda r: r ** (-(n - 1.0) / 2.0),
           lambda r: (-(n - 1.0) / 2.0) * r ** (-(n + 1.0) / 2.0),
           lambda r: ((n - 1.0) * (n + 1.0) / 4.0) * r ** (-(n + 3.0) / 2.0),
           lambda r: p * np.log(r) - math.log(abs(p)),
           lambda r: (-(n - 1.0) / 2.0) * np.log(r))
    cand = power_law_candidate(p)
    new = (cand.f, cand.df, cand.d2f, cand.d3f, cand.log_abs_f,
           cand.log_abs_df)
    r = np.geomspace(1e-6, 1.0, 2001)
    with np.errstate(over="ignore"):
        for got, want in zip(new, old):
            assert np.asarray(got(r)).tobytes() == want(r).tobytes()
    assert cand.monotone and cand.name == f"r^{p:g}/{p:g}"


def test_power_law_candidate_is_log_at_zero():
    cand = power_law_candidate(0.0)
    r = np.geomspace(1e-3, 1e3, 100)  # even count: r = 1, where f = 0, is out
    assert cand.f(r).tobytes() == np.log(r).tobytes()
    assert cand.log_abs_f(r).tobytes() == np.log(np.abs(np.log(r))).tobytes()
    assert np.array_equal(cand.df(r), 1.0 / r)
    assert cand.name == "log r"


@pytest.mark.parametrize("a", (-6.5, -1.0, -0.5, 0.0, 0.5, 1.5, 2.0, 16.0))
def test_power_law_candidate_derivatives(a):
    # f = r^a/a for every finite a: the finite-difference checks of
    # validate_candidate hold, f' = r^(a-1) > 0, and the log forms agree
    measure, _, _ = make_family(FamilySpec("gaussian", 3))
    cand = power_law_candidate(a)
    validate_candidate(measure, cand)
    r = np.geomspace(1e-2, 1e2, 200)  # even count: r = 1 is out
    df = cand.df(r)
    assert np.all(df > 0.0) and np.allclose(df, r ** (a - 1.0), rtol=1e-15)
    assert np.allclose(cand.log_abs_df(r), np.log(df), rtol=1e-13, atol=1e-13)
    assert np.allclose(cand.log_abs_f(r), np.log(np.abs(cand.f(r))),
                       rtol=1e-13, atol=1e-13)


def test_exp_power_two_is_the_gaussian_potential_bit_for_bit():
    # V = r^2/2, V' = r, V'' = 1 as the Gaussian builder wrote them
    r = np.concatenate(([0.0, math.inf], np.geomspace(1e-200, 1e200, 10 ** 5)))
    pot = exp_power_potential(2.0)
    with np.errstate(over="ignore"):
        for got, want in ((pot.v, 0.5 * r ** 2), (pot.dv, r),
                          (pot.d2v, np.ones_like(r))):
            assert np.asarray(got(r)).tobytes() == want.tobytes()
    assert pot.convex and math.isinf(pot.domain_end)


@pytest.mark.parametrize("spec", [
    FamilySpec("uniform_ball", 10 ** 7),
    FamilySpec("exponential_power", 10 ** 6, alpha=4.0),
], ids=["ball-1e7", "exp-power-4-1e6"])
def test_law_too_narrow_for_the_table_raises_typed_error(spec):
    # a law narrower than the normalization's probe grid, whose refined
    # panels rise hundreds of e-folds above the probed peak, gives neither
    # a normalization nor a table; the build says so in a SpecGapError and
    # emits no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpecGapError):
            make_family(spec)


def test_ball_in_a_million_dimensions_samples_its_quantiles():
    # the ball's radius has CDF r^n: in n = 1e6 the law sits within 4e-5
    # of the wall from probability 1e-18 up, and the table still reads it
    n = 10 ** 6
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        measure = make_family(FamilySpec("uniform_ball", n))[0]
    # Z = 1/n to 1e-9 relative (1.8e-10 measured)
    assert abs(measure.log_z + math.log(n)) <= 1e-9
    p = np.linspace(1e-12, 1.0, 10001)
    assert np.max(np.abs(measure.quantile(p) - p ** (1.0 / n))) <= 1e-12


def test_catalog_grid_materializes_and_validates():
    bad = []
    for g in catalog_grid():
        try:
            measure, weight, cand = make_family(g)
            validate_weight(measure, weight)
            validate_candidate(measure, cand)
        except Exception as e:  # noqa: BLE001
            bad.append((g.label(), f"{type(e).__name__}: {e}"))
    assert not bad, f"first failures: {bad[:4]}"


# ------------------------------------------------- solver spot agreements


@pytest.mark.parametrize("n,beta,want", [
    (3, 3.0, 2.25), (2, 5.0, 12.0), (4, 6.5, 14.0)])
def test_heavy_tail_solver_matches_radial_reference(n, beta, want, gap_of):
    spec = FamilySpec("generalized_cauchy", n, "one_plus_r2", beta=beta)
    est = gap_of(spec)
    assert abs(est.value - want) < 1e-3 * (1.0 + want), (
        f"{est.value!r} vs {want}")


def _inv_weight_to_metric(r):
    # natural coordinate of sigma^2 = 1/(1+r^2): int_0^r sqrt(1+u^2) du
    r = np.asarray(r, dtype=float)
    return 0.5 * (r * np.sqrt(1.0 + r * r) + np.arcsinh(r))


def _inv_weight_from_metric(s):
    # s(r) >= r, so the root lies in [0, s]; 200 bisections of the bracket
    s = np.asarray(s, dtype=float)
    lo, hi = np.zeros_like(s), s.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = _inv_weight_to_metric(mid) < s
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_gaussian_inv_analytic_vs_quadrature_metric():
    spec = FamilySpec("gaussian", 3, "inv_one_plus_r2")
    measure, weight, _ = make_family(spec)
    assert weight.to_metric is None and weight.from_metric is None
    est_a = spectral_gap(measure, replace(
        weight, to_metric=_inv_weight_to_metric,
        from_metric=_inv_weight_from_metric))
    est_q = spectral_gap(measure, weight)
    tol = (est_a.error_estimate + est_q.error_estimate
           + 1e-9 * (1.0 + est_a.value))
    assert abs(est_a.value - est_q.value) <= tol, (
        f"{est_a.value!r} vs {est_q.value!r}")
    full = reference_gap(spec, "full")
    assert est_a.value >= full.lower - 1e-9


# frozen adaptive-solver gaps; the recorded one-sided claim 4(n-2) is
# numerically false from n = 5 on, which the acceptance gate reports
GAUSSIAN_ONE_PLUS_GAPS = {
    2: None,  # no tabulated discrepancy below n = 5; solved for coverage
    5: 10.451099786984825,
    6: 12.09303315937088,
    7: 13.801160953363771,
    8: 15.563279273065458,
}


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_gaussian_one_plus_radial_gap_vs_recorded_claim(n, gap_of):
    spec = FamilySpec("gaussian", n, "one_plus_r2")
    est = gap_of(spec)
    frozen = GAUSSIAN_ONE_PLUS_GAPS[n]
    assert abs(est.value - frozen) <= 1e-6 * (1.0 + frozen), (
        f"n={n}: {est.value!r} vs frozen {frozen!r}")
    claim = reference_gap(spec, "radial").lower
    assert est.value < claim, (
        f"n={n}: solver {est.value!r} unexpectedly satisfies the recorded "
        f"lower bound {claim}; the acceptance report needs updating")
