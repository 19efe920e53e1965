"""Monte Carlo sampling of spherically symmetric laws and Rayleigh ratios.

Points are drawn by composing an inverse-CDF radial draw with an
independent uniform direction on the sphere (the same radius-times-angle
factorization the comparison bounds are built on).  Rayleigh quotients of
full n-dimensional test functions against the weighted Dirichlet form
then give statistical upper bounds on the spectral gap, with a batch-means
confidence interval.

A radial test function F(x) = f(|x|) needs no directions: its quotient
E[sigma^2(r) f'(r)^2] / Var f(r) depends on the law of the radius alone,
so ``radial_rayleigh_estimate`` reads the radii only, and its draws are
O(count) at any n.  Its memory is a handful of count-sized arrays: the
uniforms, the radii, f, f' and the energy.  The quantile lookup runs in
fixed blocks and the estimator squares and scales in place, because
every fresh count-sized temporary is a new memory mapping whose pages
fault on first touch.  A non-radial function such as the linear one
still needs the n-dimensional points of ``sample_mu``.

Randomness comes from the counter-based Philox4x64-10 bit generator keyed
by the caller's 64-bit seed: radii use the base stream, directions the
once-jumped stream, so draws are reproducible bit-for-bit for a given
(measure, n, count, seed) regardless of how the work is scheduled.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it lazily; a first draw would pay for it

from .errors import DegenerateFunction, InvalidInput

__all__ = [
    "SampleBatch",
    "RayleighResult",
    "sample_radius",
    "sample_mu",
    "rayleigh_estimate",
    "radial_rayleigh_estimate",
]

_BATCHES = 16
_VARIANCE_FLOOR = 1e-12
# two-sided 95% normal quantile used for the batch-means half width
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible sample of mu: rows of ``points`` are draws in R^n,
    and ``radii`` their norms as drawn."""

    points: np.ndarray = field(repr=False, compare=False)
    radii: np.ndarray = field(repr=False, compare=False)
    seed: int
    count: int

    @property
    def n(self):
        return int(self.points.shape[1])


@dataclass(frozen=True)
class RayleighResult:
    """Monte Carlo Rayleigh quotient with a 95% batch-means half width."""

    ratio: float
    ci_half_width: float
    batches: int

    def __post_init__(self):
        if not math.isfinite(self.ratio):
            raise InvalidInput(f"ratio must be finite, got {self.ratio!r}")
        if not (self.ci_half_width >= 0.0):
            raise InvalidInput(
                f"ci_half_width must be >= 0, got {self.ci_half_width!r}")
        if self.batches < _BATCHES:
            raise InvalidInput(f"at least {_BATCHES} batches required")


def _check_seed(seed):
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidInput(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not (0 <= seed < 2 ** 64):
        raise InvalidInput("seed must fit in an unsigned 64-bit integer")
    return seed


def _check_count(count, minimum=1):
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise InvalidInput(f"count must be an integer, got {count!r}")
    count = int(count)
    if count < minimum:
        raise InvalidInput(f"count must be >= {minimum}, got {count}")
    return count


def _stream(seed, stream_index):
    """Philox stream #stream_index for this seed (counter-space split)."""
    bits = np.random.Philox(key=np.uint64(seed))
    if stream_index:
        bits = bits.jumped(stream_index)
    return np.random.Generator(bits)


def sample_radius(measure, count, seed):
    """i.i.d. radii of nu via the tabulated monotone-cubic inverse CDF.

    One Philox uniform per radius, mapped through ``measure.quantile``:
    the measure's PCHIP table of log(1+r) against probability, whose
    guide table locates each uniform's knot interval directly.
    """
    count = _check_count(count)
    seed = _check_seed(seed)
    u = _stream(seed, 0).random(count)
    return measure.quantile(u)


def sample_mu(measure, count, seed):
    """Sample of the n-dimensional law: radius times uniform direction.

    Directions are standard normal vectors normalized to unit length,
    drawn from a stream independent of the radii.
    """
    count = _check_count(count)
    seed = _check_seed(seed)
    radii = sample_radius(measure, count, seed)
    points = _stream(seed, 1).standard_normal((count, measure.n))
    # row kernels: one pass per reduction and no (count, n) temporary
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    # a zero normal vector has probability zero; keep the guard anyway
    norms = np.where(norms > 0.0, norms, 1.0)
    points *= (radii / norms)[:, None]
    return SampleBatch(points=points, radii=radii, seed=seed, count=count)


def _check_batches(count):
    if count < _BATCHES:
        raise InvalidInput(
            f"need at least {_BATCHES} points for batch means, got {count}")


def _batch_means(fv, energy):
    """mean(energy) / Var(fv) with the batch-means half width described
    in ``rayleigh_estimate``; both estimators end here."""
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(energy))):
        raise InvalidInput(
            "f and sigma^2 |grad f|^2 must be finite at all sample points")

    centered_sq = fv - fv.mean()
    np.square(centered_sq, out=centered_sq)
    denominator = float(centered_sq.mean())
    if denominator < _VARIANCE_FLOOR:
        raise DegenerateFunction(
            f"empirical variance {denominator:.3e} below "
            f"{_VARIANCE_FLOOR:.0e}; f is constant on the sample")
    numerator = float(energy.mean())

    batch_num = np.array([c.mean() for c in np.array_split(energy, _BATCHES)])
    batch_den = np.array([c.mean() for c in
                          np.array_split(centered_sq, _BATCHES)])
    # covariance of the overall means, estimated from the batch spread
    cov = np.cov(np.vstack([batch_num, batch_den])) / _BATCHES
    grad = np.array([1.0 / denominator, -numerator / denominator ** 2])
    var_ratio = float(grad @ cov @ grad)
    half = _Z95 * math.sqrt(max(var_ratio, 0.0))
    return RayleighResult(ratio=numerator / denominator,
                          ci_half_width=half, batches=_BATCHES)


def rayleigh_estimate(batch, f, grad_f, weight):
    """Monte Carlo Rayleigh quotient of f for the weighted Dirichlet form.

    ratio = mean(sigma^2(|x|) |grad f(x)|^2) / Var(f(x)), a statistical
    upper bound on the spectral gap of the weighted dynamics.  f maps a
    (count, n) array to (count,) values and grad_f to (count, n)
    gradients; both must be finite at every sample point.  The 95% half
    width comes from sixteen batch means via the delta method on the
    (numerator, denominator) pair.
    """
    if not isinstance(batch, SampleBatch):
        raise InvalidInput("rayleigh_estimate expects a SampleBatch")
    _check_batches(batch.count)
    pts = batch.points
    with np.errstate(all="ignore"):
        s2 = np.asarray(weight.s2(batch.radii), dtype=float)
    fv = np.asarray(f(pts), dtype=float)
    gv = np.asarray(grad_f(pts), dtype=float)
    if fv.shape != (batch.count,):
        raise InvalidInput(
            f"f must map (count, n) points to (count,) values, "
            f"got shape {fv.shape}")
    if gv.shape != pts.shape:
        raise InvalidInput(
            f"grad_f must map (count, n) points to (count, n) gradients, "
            f"got shape {gv.shape}")
    energy = np.einsum("ij,ij->i", gv, gv)
    energy *= s2
    return _batch_means(fv, energy)


def radial_rayleigh_estimate(radii, f, df, weight):
    """Rayleigh quotient of the radial function F(x) = f(|x|), from radii.

    |grad F(x)| = |f'(|x|)|, so the quotient of ``rayleigh_estimate``
    becomes mean(sigma^2(r) f'(r)^2) / Var(f(r)) over a sample of the
    radius (``sample_radius``): no direction is drawn.  f and df map the
    1-D array of radii to (count,) values, finite at every radius; the
    half width is the same batch-means interval.
    """
    if not (isinstance(radii, np.ndarray) and radii.ndim == 1
            and radii.dtype.kind == "f"):
        raise InvalidInput(
            "radial_rayleigh_estimate expects a 1-D float array of radii")
    _check_batches(radii.shape[0])
    with np.errstate(all="ignore"):
        s2 = np.asarray(weight.s2(radii), dtype=float)
    fv = np.asarray(f(radii), dtype=float)
    dv = np.asarray(df(radii), dtype=float)
    if fv.shape != radii.shape or dv.shape != radii.shape:
        raise InvalidInput(
            f"f and df must map (count,) radii to (count,) values, "
            f"got shapes {fv.shape} and {dv.shape}")
    energy = dv * dv
    energy *= s2
    # drop s2 and f' before _batch_means adds its centred copy of f
    del s2, dv
    return _batch_means(fv, energy)
