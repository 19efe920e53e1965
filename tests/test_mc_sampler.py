"""Monte Carlo sampler vs closed-form moments and the quadrature route.

Statistical checks use 4-standard-error windows at a fixed seed, so they
are deterministic in practice; exact determinism itself is asserted at
the byte level.
"""

import math
import tracemalloc

import numpy as np
import pytest

from specgap import mc_sampler
from specgap.bounds_engine import rayleigh_upper
from specgap.catalog import FamilySpec, make_family, power_law_candidate
from specgap.cli import _POINT_FUNCTIONS, _RADIAL_FUNCTIONS
from specgap.errors import DegenerateFunction, InvalidInput
from specgap.mc_sampler import (
    SampleBatch,
    radial_rayleigh_estimate,
    rayleigh_estimate,
    sample_mu,
    sample_radius,
)
from specgap.radial_model import moment

SEED = 20240817
COUNT = 100_000

GAUSS3, UNIT, _ = make_family(FamilySpec("gaussian", 3))
BALL2, _, _ = make_family(FamilySpec("uniform_ball", 2))
BALL4, _, _ = make_family(FamilySpec("uniform_ball", 4))
CAU34, ONEP, _ = make_family(
    FamilySpec("generalized_cauchy", 3, "one_plus_r2", beta=4.0))

LIN_F = lambda x: np.sum(x, axis=1)  # noqa: E731
LIN_DF = lambda x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731


# ----------------------------------------------------------- sample_radius


@pytest.mark.parametrize("measure,m2_true,label", [
    (BALL2, 0.5, "ball n=2"),
    (GAUSS3, 3.0, "gaussian n=3"),
    (CAU34, 1.0, "cauchy n=3 beta=4"),
], ids=["ball2", "gauss3", "cauchy34"])
def test_radius_second_moment(measure, m2_true, label):
    r = sample_radius(measure, COUNT, SEED)
    r2 = r * r
    se = r2.std(ddof=1) / math.sqrt(COUNT)
    assert abs(r2.mean() - m2_true) <= 4.0 * se, (
        f"{label}: {r2.mean():.5f} vs {m2_true} (se {se:.5f})")
    # and the quadrature moment agrees with the closed form independently
    assert abs(moment(measure, 2) - m2_true) < 1e-8 * (1.0 + m2_true)


def test_radius_determinism_and_support():
    r1 = sample_radius(GAUSS3, 1000, 7)
    r2 = sample_radius(GAUSS3, 1000, 7)
    assert r1.tobytes() == r2.tobytes()
    r3 = sample_radius(GAUSS3, 1000, 8)
    assert r1.tobytes() != r3.tobytes()
    assert np.all(r1 >= 0.0)


@pytest.mark.parametrize("bad_call", [
    lambda: sample_radius(GAUSS3, 0, 1),
    lambda: sample_radius(GAUSS3, 10, -1),
    lambda: sample_radius(GAUSS3, 10, True),
    lambda: sample_radius(GAUSS3, 10, 2 ** 64),
], ids=["count0", "negseed", "boolseed", "hugeseed"])
def test_radius_rejects(bad_call):
    with pytest.raises(InvalidInput):
        bad_call()


# --------------------------------------------------------------- sample_mu


@pytest.fixture(scope="module")
def gauss_batch():
    return sample_mu(GAUSS3, COUNT, SEED)


def test_batch_shape_and_determinism(gauss_batch):
    assert gauss_batch.points.shape == (COUNT, 3)
    assert gauss_batch.seed == SEED
    assert gauss_batch.count == COUNT
    assert gauss_batch.n == 3
    again = sample_mu(GAUSS3, COUNT, SEED)
    assert gauss_batch.points.tobytes() == again.points.tobytes()


def test_gaussian_coordinate_statistics(gauss_batch):
    pts = gauss_batch.points
    for k in range(3):
        col = pts[:, k]
        se = col.std(ddof=1) / math.sqrt(COUNT)
        assert abs(col.mean()) <= 4.0 * se, f"coordinate {k} mean"
        assert abs(col.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / COUNT), (
            f"coordinate {k} variance {col.var(ddof=1):.5f}")
    prod = pts[:, 0] * pts[:, 1]
    se = prod.std(ddof=1) / math.sqrt(COUNT)
    assert abs(prod.mean()) <= 4.0 * se, "cross moment E[x1 x2]"


def test_ball_support_and_heavy_tail_finiteness():
    bb = sample_mu(BALL4, COUNT, SEED)
    assert float(np.linalg.norm(bb.points, axis=1).max()) <= 1.0
    cb = sample_mu(CAU34, COUNT, SEED)
    assert np.all(np.isfinite(cb.points))


# -------------------------------------------------------- rayleigh_estimate


def test_gaussian_linear_unit_ratio(gauss_batch):
    res = rayleigh_estimate(gauss_batch, LIN_F, LIN_DF, UNIT)
    assert abs(res.ratio - 1.0) <= res.ci_half_width, (
        f"{res.ratio:.5f} +- {res.ci_half_width:.5f}")
    assert res.batches == 16 and res.ci_half_width >= 0.0


def test_gaussian_linear_weighted_ratio(gauss_batch):
    # E[sigma^2] = E[1 + x_1^2 + ... + x_n^2] = n + 1 for a linear function
    res = rayleigh_estimate(gauss_batch, LIN_F, LIN_DF, ONEP)
    assert abs(res.ratio - 4.0) <= res.ci_half_width, (
        f"{res.ratio:.5f} +- {res.ci_half_width:.5f}")


def test_heavy_tail_radial_quadratic_ratio():
    cb = sample_mu(CAU34, COUNT, SEED)
    f = lambda x: np.sum(np.asarray(x, dtype=float) ** 2, axis=1) - 1.0  # noqa: E731
    df = lambda x: 2.0 * np.asarray(x, dtype=float)  # noqa: E731
    res = rayleigh_estimate(cb, f, df, ONEP)
    # moments m2 = 1, m4 = 5 give ratio 4 (m2 + m4) / (m4 - m2^2) = 6
    oracle = 4.0 * (1.0 + 5.0) / (5.0 - 1.0)
    assert abs(res.ratio - oracle) <= res.ci_half_width, (
        f"{res.ratio:.5f} +- {res.ci_half_width:.5f} vs {oracle}")


def test_mc_matches_quadrature_route_and_solver(gauss_batch, gap_of):
    f = lambda x: np.sum(np.asarray(x, dtype=float) ** 2, axis=1)  # noqa: E731
    df = lambda x: 2.0 * np.asarray(x, dtype=float)  # noqa: E731
    res = rayleigh_estimate(gauss_batch, f, df, UNIT)
    exact = rayleigh_upper(GAUSS3, UNIT, power_law_candidate(2.0))
    assert abs(res.ratio - float(exact)) <= res.ci_half_width, (
        f"{res.ratio:.5f} vs {float(exact):.8f}")
    est = gap_of(FamilySpec("gaussian", 3))
    assert res.ratio >= est.value - 3.0 * res.ci_half_width


@pytest.mark.parametrize("bad_call,exc", [
    (lambda b: rayleigh_estimate(
        b, lambda x: np.ones(len(x)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)), UNIT),
     DegenerateFunction),
    (lambda b: rayleigh_estimate(
        b, lambda x: np.asarray(x, dtype=float), LIN_DF, UNIT),
     InvalidInput),
    (lambda b: rayleigh_estimate(
        SampleBatch(points=np.ones((4, 3)), radii=np.full(4, math.sqrt(3.0)),
                    seed=1, count=4),
        LIN_F, LIN_DF, UNIT),
     InvalidInput),
    (lambda b: rayleigh_estimate("nope", LIN_F, LIN_DF, UNIT),
     InvalidInput),
], ids=["constant-f", "vector-f", "tiny-batch", "non-batch"])
def test_rayleigh_rejects(gauss_batch, bad_call, exc):
    with pytest.raises(exc):
        bad_call(gauss_batch)


# ------------------------------------------------ row kernels vs reference


def _reference_sample(measure, count, seed):
    # the sampler written with np.linalg.norm and a (count, n) temporary
    radii = sample_radius(measure, count, seed)
    z = mc_sampler._stream(seed, 1).standard_normal((count, measure.n))
    norms = np.linalg.norm(z, axis=1)
    norms = np.where(norms > 0.0, norms, 1.0)
    return (radii / norms)[:, None] * z, radii


def _reference_rayleigh(points, radii, f, grad_f, weight):
    # the batch-means estimate with np.sum(axis=1) reductions
    s2 = np.asarray(weight.s2(radii), dtype=float)
    energy = s2 * np.sum(grad_f(points) ** 2, axis=1)
    fv = f(points)
    centered_sq = (fv - fv.mean()) ** 2
    num, den = energy.mean(), centered_sq.mean()
    batch_num = [c.mean() for c in np.array_split(energy, 16)]
    batch_den = [c.mean() for c in np.array_split(centered_sq, 16)]
    cov = np.cov(np.vstack([batch_num, batch_den])) / 16
    grad = np.array([1.0 / den, -num / den ** 2])
    return num / den, 1.959963984540054 * math.sqrt(grad @ cov @ grad)


_REFERENCE_FUNCTIONS = {
    "linear": (lambda x: np.sum(x, axis=1), np.ones_like),
    "radial-quadratic": (lambda x: np.sum(x * x, axis=1), lambda x: 2.0 * x),
}


@pytest.mark.parametrize("function",
                         sorted((*_POINT_FUNCTIONS, *_RADIAL_FUNCTIONS)))
@pytest.mark.parametrize("spec", [
    FamilySpec("gaussian", 2), FamilySpec("gaussian", 3),
    FamilySpec("gaussian", 8), FamilySpec("gaussian", 16),
    FamilySpec("uniform_ball", 4),
    FamilySpec("exponential_power", 6, alpha=1.0),
], ids=["gauss2", "gauss3", "gauss8", "gauss16", "ball4", "exp-power1-n6"])
def test_row_kernels_match_reference(spec, function):
    # the CLI's evaluation of each --function against the reference
    # estimate on reference points: a radial function streams the radii
    # of sample_radius alone, any other reads the points of sample_mu
    count, seed = 20_000, 11
    measure, weight, _ = make_family(spec)
    ref_points, ref_radii = _reference_sample(measure, count, seed)
    if function in _RADIAL_FUNCTIONS:
        res = radial_rayleigh_estimate(measure, count, seed,
                                       *_RADIAL_FUNCTIONS[function], weight)
    else:
        batch = sample_mu(measure, count, seed)
        assert batch.radii.tobytes() == ref_radii.tobytes()
        np.testing.assert_allclose(batch.points, ref_points, rtol=1e-15,
                                   atol=0)
        np.testing.assert_allclose(np.linalg.norm(batch.points, axis=1),
                                   batch.radii, rtol=1e-14, atol=0)
        res = rayleigh_estimate(batch, *_POINT_FUNCTIONS[function], weight)
    ratio, half = _reference_rayleigh(ref_points, ref_radii,
                                      *_REFERENCE_FUNCTIONS[function], weight)
    assert abs(res.ratio - ratio) <= 1e-14 * abs(ratio)
    assert abs(res.ci_half_width - half) <= 1e-9 * half


# ------------------------------------------------- radial_rayleigh_estimate


_SQ = (lambda r: r * r, lambda r: 2.0 * r)


def test_radial_estimate_matches_points_path(gauss_batch):
    # |grad F|^2 = f'(r)^2 for F(x) = f(|x|): on the same radii, the
    # points path's quotient up to rounding, here under a non-unit weight
    res = radial_rayleigh_estimate(GAUSS3, COUNT, SEED, *_SQ, ONEP)
    ref = rayleigh_estimate(gauss_batch, lambda x: np.sum(x * x, axis=1),
                            lambda x: 2.0 * x, ONEP)
    assert abs(res.ratio - ref.ratio) <= 1e-14 * ref.ratio
    assert abs(res.ci_half_width - ref.ci_half_width) <= (
        1e-9 * ref.ci_half_width)


def test_radial_heavy_tail_ratio():
    # m2 = 1, m4 = 5 give 4 (m2 + m4) / (m4 - m2^2) = 6 under sigma^2 = 1+r^2
    res = radial_rayleigh_estimate(CAU34, COUNT, SEED, *_SQ, ONEP)
    assert abs(res.ratio - 6.0) <= res.ci_half_width, (
        f"{res.ratio:.5f} +- {res.ci_half_width:.5f}")


@pytest.mark.parametrize("count", [16, 8191, 8193, 24581, 100_003, 200_000])
def test_streamed_radii_are_sample_radius_bits(monkeypatch, count):
    # the estimator draws batch by batch in blocks of at most _BLOCK; the
    # blocks joined are the radii of one sample_radius call, bit for bit
    blocks = []
    real = type(GAUSS3).quantile

    def spy(measure, p):
        radii = real(measure, p)
        blocks.append(radii.copy())
        return radii

    monkeypatch.setattr(type(GAUSS3), "quantile", spy)
    radial_rayleigh_estimate(GAUSS3, count, 5, *_SQ, UNIT)
    monkeypatch.undo()
    streamed = np.concatenate(blocks)
    assert streamed.tobytes() == sample_radius(GAUSS3, count, 5).tobytes()
    # each block lies inside one batch of np.array_split
    sizes = [b.size for b in blocks]
    assert max(sizes) <= mc_sampler._BLOCK
    ends = np.cumsum([c.size for c in np.array_split(np.empty(count), 16)])
    assert set(ends) <= set(np.cumsum(sizes))


@pytest.mark.parametrize("bad_call,exc", [
    (lambda: radial_rayleigh_estimate(GAUSS3, COUNT, 1, np.ones_like,
                                      np.zeros_like, UNIT),
     DegenerateFunction),
    (lambda: radial_rayleigh_estimate(GAUSS3, 15, 1, *_SQ, UNIT),
     InvalidInput),
    (lambda: radial_rayleigh_estimate(GAUSS3, 100.0, 1, *_SQ, UNIT),
     InvalidInput),
    (lambda: radial_rayleigh_estimate(GAUSS3, COUNT, -1, *_SQ, UNIT),
     InvalidInput),
    (lambda: radial_rayleigh_estimate(
        GAUSS3, COUNT, 1, lambda x: x[:-1], lambda x: 2.0 * x, UNIT),
     InvalidInput),
    (lambda: radial_rayleigh_estimate(
        GAUSS3, COUNT, 1, lambda x: x * x, lambda x: np.full_like(x, np.inf),
        UNIT),
     InvalidInput),
], ids=["constant-f", "tiny", "float-count", "negseed", "short-f",
        "infinite-df"])
def test_radial_rejects(bad_call, exc):
    with pytest.raises(exc):
        bad_call()


# ------------------------------------------------------------------ memory


def _traced_peak(call):
    """(result, peak bytes traced by tracemalloc above the start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count", [COUNT, 4 * COUNT])
def test_sample_path_traced_peak_memory(count):
    # the radial estimate streams its draws in blocks and keeps four
    # numbers per batch, so its peak does not grow with count (8.9 MB
    # for the draw alone, and 4 MB more for the estimator, when every
    # operation made a count-sized temporary at 100k points)
    GAUSS3.quantile(0.5)  # one warm draw, outside the traced window
    _, peak = _traced_peak(lambda: radial_rayleigh_estimate(
        GAUSS3, count, 0, *_RADIAL_FUNCTIONS["radial-quadratic"], UNIT))
    assert peak <= 1.0e6, (
        f"radial_rayleigh_estimate peaked at {peak / 1e6:.2f} MB")
