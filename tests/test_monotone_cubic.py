"""The numpy monotone cubic behind the quantile, metric and mesh tables.

Oracles are scipy's own splines, kept as test references only: every
interpolant the package builds must equal ``PchipInterpolator`` bit for
bit, and the guide-table knot search must equal
``searchsorted(side="right") - 1`` clipped to the interval range, which
is PPoly's interval rule.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from specgap import radial_model, sl_eigensolver
from specgap.catalog import FamilySpec, make_family

CASES = [
    FamilySpec("gaussian", 3),
    FamilySpec("uniform_ball", 16),
    FamilySpec("generalized_cauchy", 3, "one_plus_r2", beta=4.0),
]


@pytest.fixture
def built(monkeypatch):
    """Every _MonotoneCubic built while the test runs, with its inputs."""
    made = []

    class Recorded(radial_model._MonotoneCubic):
        def __init__(self, x, y):
            super().__init__(x, y)
            made.append((self, np.array(x), np.array(y)))

    monkeypatch.setattr(radial_model, "_MonotoneCubic", Recorded)
    monkeypatch.setattr(sl_eigensolver, "_MonotoneCubic", Recorded)
    return made


_B = radial_model._BLOCK
_BLOCK_SHAPES = (1, _B - 1, _B, _B + 1, 3 * _B + 5, (3, _B + 1))


def _probe_points(x, rng):
    return np.concatenate([
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        rng.uniform(x[0], x[-1], 20000),
        [x[0] - 1.0, x[-1] + 1.0]])


def _assert_matches_scipy(made):
    rng = np.random.default_rng(7)
    for fn, x, y in made:
        ref = PchipInterpolator(x, y)
        pts = _probe_points(x, rng)
        got, want = fn(pts), ref(pts)
        assert np.array_equal(got, want), (
            f"{int(np.sum(got != want))} of {pts.size} values differ")
        assert np.array_equal(fn(x[3]), ref(x[3]))
        assert fn(x[3]).shape == ()
        # the evaluation runs in blocks: sizes at and across a boundary,
        # and a 2-D input whose rows straddle one
        for shape in _BLOCK_SHAPES:
            v = np.resize(pts, shape)
            got = fn(v)
            assert got.shape == v.shape
            assert np.array_equal(got, ref(v)), f"shape {shape}"


@pytest.mark.parametrize("spec", CASES, ids=lambda s: s.label())
def test_cdf_and_quantile_tables_match_scipy_bit_for_bit(built, spec):
    measure, _, _ = make_family(spec)
    # one table per measure, a quantile whose knots are CDF values, built
    # with the measure; sampling reads the same table
    assert [fn for fn, _, _ in built] == [measure._tables["quantile"]]
    measure.quantile(0.5)
    assert [fn for fn, _, _ in built] == [measure._tables["quantile"]]
    for _, probs, _ in built:
        assert probs[0] >= 1e-18 and probs[-1] <= 1.0
        assert np.all(np.diff(probs) > 0.0)
    _assert_matches_scipy(built)
    # the blocked inversion keeps quantile's scalar and array shapes and
    # the bits of clip, table, expm1 and clip over the whole array
    assert isinstance(measure.quantile(0.5), float)
    table = measure._tables["quantile"]
    ref = PchipInterpolator(table.x, built[0][2])
    p = np.linspace(0.0, 1.0, 3 * (_B + 1)).reshape(3, _B + 1)
    want = np.clip(np.expm1(ref(np.clip(p, table.x[0], table.x[-1]))),
                   0.0, measure.r_max)
    got = measure.quantile(p)
    assert got.shape == p.shape
    assert np.array_equal(got, want)


def test_mesh_placement_and_metric_tables_match_scipy_bit_for_bit(built):
    measure, weight, _ = make_family(
        FamilySpec("gaussian", 3, "one_plus_r2"))
    built.clear()
    # the tabulated natural coordinate: no closed-form maps
    to_metric, from_metric = sl_eigensolver._metric_maps(
        replace(weight, to_metric=None, from_metric=None), 40.0)
    mesh = sl_eigensolver._mesh_family(measure, weight, from_metric,
                                       float(to_metric(40.0)))
    assert len(built) == 3  # s(u), u(s), and the placement table
    _assert_matches_scipy(built)
    edges = mesh(256)
    assert np.all(np.diff(edges) > 0.0)
    assert np.array_equal(edges[::2], mesh(128))


def test_guide_lookup_equals_searchsorted():
    measure, _, _ = make_family(FamilySpec("gaussian", 3))
    table = measure._tables["quantile"]
    x = table.x
    m = table._buckets
    edges = x[0] + (x[-1] - x[0]) * np.arange(m + 1) / m
    pts = np.concatenate([
        [0.0, 1.0, 1e-18],
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        np.arange(m + 1) / m, edges,
        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.random.Generator(np.random.Philox(key=11)).random(100000)])
    want = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, x.size - 2)
    assert np.array_equal(table._interval(pts), want)


def test_pchip_slopes_match_scipy_on_data_that_turns():
    # sign changes, plateaus and end overshoots exercise every branch of
    # the Fritsch-Carlson rule and the shape-preserving end rule
    rng = np.random.default_rng(5)
    for size in (2, 3, 4, 7, 60):
        for _ in range(20):
            x = np.cumsum(rng.uniform(0.05, 2.0, size))
            y = np.round(rng.normal(size=size), 1)
            fn = radial_model._MonotoneCubic(x, y)
            pts = _probe_points(x, rng)
            assert np.array_equal(fn(pts), PchipInterpolator(x, y)(pts))


def test_rejects_knots_that_do_not_increase():
    with pytest.raises(ValueError):
        radial_model._MonotoneCubic([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        radial_model._MonotoneCubic([0.0, 1.0, np.inf], [0.0, 1.0, 2.0])
