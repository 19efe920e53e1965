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
O(count) at any n.  It streams them: uniforms, radii, f, f' and the
energy exist one block of at most ``_BLOCK`` points at a time, and each
batch keeps four running numbers, so no array grows with count.  Every
fresh count-sized array would be a new memory mapping whose pages fault
on first touch; a block's temporaries reuse heap memory.  A non-radial
function such as the linear one still needs the n-dimensional points of
``sample_mu``.

Randomness comes from the counter-based Philox4x64-10 bit generator keyed
by the caller's 64-bit seed: radii use the base stream, directions the
once-jumped stream, so draws are reproducible bit-for-bit for a given
(measure, n, count, seed) regardless of how the work is scheduled.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it lazily; a first draw would pay for it

from .errors import DegenerateFunction, InvalidInput, NonIntegrable
from .quadrature import _BLOCK

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


def _check_count(count):
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise InvalidInput(f"count must be an integer, got {count!r}")
    count = int(count)
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
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
    """count as an int; InvalidInput unless it is at least the number of
    batch means."""
    count = _check_count(count)
    if count < _BATCHES:
        raise InvalidInput(
            f"need at least {_BATCHES} points for batch means, got {count}")
    return count


def _check_finite(fv, energy):
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(energy))):
        raise InvalidInput(
            "f and sigma^2 |grad f|^2 must be finite at all sample points")


def _ratio_result(batch_num, batch_den, num, den):
    """num / den with the 95% delta-method half width from the batch
    means of numerator and denominator; both estimators end here, with
    floating-point errors ignored.  NonIntegrable where the moments or
    the ratio's variance overflowed (draws far out in a heavy tail)."""
    if den < _VARIANCE_FLOOR:
        raise DegenerateFunction(
            f"empirical variance {den:.3e} below "
            f"{_VARIANCE_FLOOR:.0e}; f is constant on the sample")
    # covariance of the overall means, estimated from the batch spread
    cov = np.cov(np.vstack([batch_num, batch_den])) / _BATCHES
    grad = np.array([1.0 / den, -num / np.float64(den) ** 2])
    var_ratio = float(grad @ cov @ grad)
    if not all(map(math.isfinite, (num, den, var_ratio))):
        raise NonIntegrable(
            f"sample moments overflow doubles (energy {num:.3g}, variance "
            f"{den:.3g}): f or its energy has no finite mean under this law")
    half = _Z95 * math.sqrt(max(var_ratio, 0.0))
    return RayleighResult(ratio=num / den, ci_half_width=half,
                          batches=_BATCHES)


@np.errstate(all="ignore")
def _batch_means(fv, energy):
    """mean(energy) / Var(fv) with the batch-means half width described
    in ``rayleigh_estimate``."""
    _check_finite(fv, energy)
    centered_sq = fv - fv.mean()
    np.square(centered_sq, out=centered_sq)
    batch_num = np.array([c.mean() for c in np.array_split(energy, _BATCHES)])
    batch_den = np.array([c.mean() for c in
                          np.array_split(centered_sq, _BATCHES)])
    return _ratio_result(batch_num, batch_den, float(energy.mean()),
                         float(centered_sq.mean()))


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


def _radial_block(radii, f, df, weight):
    """(mean of f, squared deviations of f from that mean summed, and
    sigma^2 f'^2 summed) over one block of radii, floating-point errors
    ignored (radial_rayleigh_estimate's)."""
    s2 = np.asarray(weight.s2(radii), dtype=float)
    fv = np.asarray(f(radii), dtype=float)
    dv = np.asarray(df(radii), dtype=float)
    if fv.shape != radii.shape or dv.shape != radii.shape:
        raise InvalidInput(
            f"f and df must map (count,) radii to (count,) values, "
            f"got shapes {fv.shape} and {dv.shape}")
    energy = dv * dv
    energy *= s2
    _check_finite(fv, energy)
    mean = float(fv.mean())
    dev = fv - mean
    np.square(dev, out=dev)
    return mean, float(dev.sum()), float(energy.sum())


@np.errstate(all="ignore")
def radial_rayleigh_estimate(measure, count, seed, f, df, weight):
    """Rayleigh quotient of the radial function F(x) = f(|x|), streamed.

    |grad F(x)| = |f'(|x|)|, so the quotient of ``rayleigh_estimate``
    becomes mean(sigma^2(r) f'(r)^2) / Var f(r) over radii of the law:
    no direction is drawn.  The radii are those of
    ``sample_radius(measure, count, seed)``, bit for bit, drawn for one
    of the sixteen batches of ``np.array_split`` at a time, in blocks of
    at most ``_BLOCK``.  f and df map each block of radii to values of
    its shape, finite at every radius.  A batch keeps its size, the
    mean of f, the squared deviations from that mean summed (M2) and the
    energy summed; blocks merge into it by the pairwise update of Chan,
    Golub and LeVeque (1983), and the denominator's batch sums are
    M2 + size (batch mean - overall mean)^2.  So no array grows with
    count.  The half width is the batch-means interval of
    ``rayleigh_estimate``.  Overflow raises no warning: _check_finite
    judges f and the energy, _ratio_result the sums.
    """
    count = _check_batches(count)
    seed = _check_seed(seed)
    draw = _stream(seed, 0).random
    base, extra = divmod(count, _BATCHES)
    # per batch: size, mean of f, M2 of f, energy sum
    size, mean, m2, energy = np.zeros((4, _BATCHES))
    for b in range(_BATCHES):
        batch = base + (b < extra)
        for start in range(0, batch, _BLOCK):
            k = min(_BLOCK, batch - start)
            mean_k, m2_k, energy_k = _radial_block(
                measure.quantile(draw(k)), f, df, weight)
            n = size[b]
            delta = mean_k - mean[b]
            mean[b] += delta * k / (n + k)
            m2[b] += m2_k + delta * delta * n * k / (n + k)
            energy[b] += energy_k
            size[b] = n + k
    mu = float(size @ mean) / count
    centred = m2 + size * (mean - mu) ** 2
    return _ratio_result(energy / size, centred / size,
                         float(energy.sum()) / count,
                         float(centred.sum()) / count)
