"""Concrete radial families with analytic derivatives and reference gaps.

Each catalog entry bundles a radial measure (potential with closed-form
V, V', V''), a diffusion weight sigma^2 = (1+r^2)^k (sigma^2 with its
first two derivatives, sigma derived from it, and the natural-coordinate
map in closed form at k = 0 and 1), and a designated candidate function
for the variational and Rayleigh routes.  Known
exact values and two-sided brackets for the spectral gaps are recorded
as ``ReferenceGap`` entries so the eigensolver and the bound engine can
be regression-tested against them.  The full gap is the lesser of the
radial gap and the l=1 ground state; it is exact where the coordinates
carry a closed-form l=1 eigenfunction: x_i for the Gaussian and for heavy
tails under sigma^2 = 1+r^2, x_i e^(r/(n+1)) for exponential power at
alpha = 1.

Families
--------
``exponential_power(alpha)``
    density proportional to exp(-r^alpha / alpha); log-concave for
    alpha >= 1.  alpha = 2 is the standard Gaussian, alpha -> inf
    approaches the uniform ball.
``uniform_ball``
    normalized Lebesgue measure on the unit ball (V = 0 on (0, 1),
    reflecting boundary).
``generalized_cauchy(beta)``
    density proportional to (1 + r^2)^(-beta); normalizable for
    beta > n/2.  Heavy-tailed, so all gap statements use the weight
    sigma^2 = 1 + r^2.
``gaussian``
    the alpha = 2 exponential power (``exp_power_potential(2.0)``), named
    apart because the weighted variants are studied on it.

One probe, ``power_law_candidate(a)`` (f = r^a/a), serves every family
but heavy tails with t = beta - n/2 <= 2 (``power_candidate``): a = alpha
for exponential power, 2 for the Gaussian and t > 2, (3-n)/2 for the ball.

For the heavy-tailed family an alternative lower bound of the form
2(beta-1)/(sqrt(1 + 2/(beta-1)) + sqrt(2/(beta-1)))^2 is known in the
literature; it is quoted here for comparison only and is never computed
or asserted by this package.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds_engine import CandidateFunction, exp_power_explicit
from .errors import InvalidInput
from .radial_model import (RadialMeasure, RadialPotential, Weight,
                           _finite_real, build_measure)

__all__ = [
    "FamilySpec",
    "ReferenceGap",
    "FAMILY_NAMES",
    "WEIGHT_NAMES",
    "cauchy_potential",
    "ball_potential",
    "exp_power_potential",
    "power_weight",
    "make_weight",
    "power_candidate",
    "power_law_candidate",
    "make_family",
    "reference_gap",
    "catalog_grid",
]

FAMILY_NAMES = ("exponential_power", "uniform_ball", "generalized_cauchy",
                "gaussian")
# each named weight is sigma^2 = (1+r^2)^k for its k
_WEIGHT_POWERS = {"unit": 0, "one_plus_r2": 1, "inv_one_plus_r2": -1}
WEIGHT_NAMES = tuple(_WEIGHT_POWERS)


# ---------------------------------------------------------------------
# specification records
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Identifies one catalog case: family, dimension, weight, parameters."""

    family: str
    n: int
    weight_choice: str = "unit"
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise InvalidInput(
                f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}")
        if self.weight_choice not in WEIGHT_NAMES:
            raise InvalidInput(
                f"unknown weight {self.weight_choice!r}; expected one of {WEIGHT_NAMES}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise InvalidInput(f"dimension must be an integer, got {self.n!r}")
        if self.n < 2:
            raise InvalidInput(f"dimension must be >= 2, got {self.n}")
        if self.family == "exponential_power":
            if self.alpha is None:
                raise InvalidInput("exponential_power requires alpha")
            object.__setattr__(self, "alpha",
                               _finite_real("alpha", self.alpha))
            if self.alpha < 1.0:
                raise InvalidInput(
                    f"exponential_power requires alpha >= 1 (log-concavity), "
                    f"got {self.alpha}")
        elif self.alpha is not None:
            raise InvalidInput(
                f"alpha is only meaningful for exponential_power, not {self.family}")
        if self.family == "generalized_cauchy":
            if self.beta is None:
                raise InvalidInput("generalized_cauchy requires beta")
            object.__setattr__(self, "beta", _finite_real("beta", self.beta))
            if self.beta <= self.n / 2.0:
                raise InvalidInput(
                    f"generalized_cauchy requires beta > n/2 = {self.n / 2.0} "
                    f"(normalizability), got {self.beta}")
        elif self.beta is not None:
            raise InvalidInput(
                f"beta is only meaningful for generalized_cauchy, not {self.family}")

    def label(self):
        """Short human-readable case label used in reports."""
        bits = [self.family]
        if self.alpha is not None:
            bits.append(f"alpha={self.alpha:g}")
        if self.beta is not None:
            bits.append(f"beta={self.beta:g}")
        bits.append(f"n={self.n}")
        if self.weight_choice != "unit":
            bits.append(f"weight={self.weight_choice}")
        return " ".join(bits)


@dataclass(frozen=True)
class ReferenceGap:
    """A recorded spectral-gap fact: exact value, bracket, or growth order.

    kind "exact" carries ``value``; kind "bracket" carries ``lower`` and
    ``upper`` (upper may be +inf for a one-sided statement); kind
    "order_only" carries just ``order_exponent``: the gap grows like
    n**order_exponent with the dimension, constant unknown.  An exact
    value or a bracket may additionally carry the order exponent of its
    growth in the dimension.
    """

    kind: str
    value: Optional[float] = None
    lower: Optional[float] = None
    upper: Optional[float] = None
    order_exponent: Optional[float] = None
    source: str = ""

    def __post_init__(self):
        if self.kind not in ("exact", "bracket", "order_only"):
            raise InvalidInput(f"unknown reference kind {self.kind!r}")
        if self.kind == "exact":
            if self.value is None or not math.isfinite(self.value) or self.value < 0:
                raise InvalidInput(
                    f"exact reference needs a finite value >= 0, got {self.value!r}")
            if self.lower is not None or self.upper is not None:
                raise InvalidInput("exact reference must not carry a bracket")
        elif self.kind == "bracket":
            if self.value is not None:
                raise InvalidInput("bracket reference must not carry a value")
            if (self.lower is None or self.upper is None
                    or not math.isfinite(self.lower) or self.lower < 0):
                raise InvalidInput(
                    f"bracket needs finite lower >= 0 and an upper, got "
                    f"[{self.lower!r}, {self.upper!r}]")
            if math.isnan(self.upper) or self.upper < self.lower:
                raise InvalidInput(
                    f"bracket is empty: [{self.lower}, {self.upper}]")
        else:
            if self.order_exponent is None:
                raise InvalidInput("order_only reference needs order_exponent")
            if self.value is not None or self.lower is not None or self.upper is not None:
                raise InvalidInput(
                    "order_only reference carries only the exponent")
        if self.order_exponent is not None and not math.isfinite(self.order_exponent):
            raise InvalidInput(
                f"order_exponent must be finite, got {self.order_exponent!r}")


# ---------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------


def cauchy_potential(beta):
    """V(r) = beta log(1 + r^2): polynomial tails of index 2 beta."""
    b = _finite_real("beta", beta)
    if b <= 0.0:
        raise InvalidInput(f"cauchy exponent must be positive, got {beta!r}")
    return RadialPotential(
        v=lambda r: b * np.log1p(np.asarray(r, dtype=float) ** 2),
        dv=lambda r: 2.0 * b * np.asarray(r, dtype=float)
        / (1.0 + np.asarray(r, dtype=float) ** 2),
        d2v=lambda r: 2.0 * b * (1.0 - np.asarray(r, dtype=float) ** 2)
        / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2,
        name=f"generalized_cauchy(beta={b:g})")


def ball_potential():
    """V = 0 on (0, 1): uniform measure on the unit ball, reflecting wall."""
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return RadialPotential(v=zero, dv=zero, d2v=zero, domain_end=1.0,
                           convex=True, name="uniform_ball")


def exp_power_potential(alpha):
    """V(r) = r^alpha / alpha; convex (log-concave measure) for alpha >= 1.

    V, V' and V'' are the f, f' and f'' of ``power_law_candidate(alpha)``.
    """
    a = _finite_real("alpha", alpha)
    if a < 1.0:
        raise InvalidInput(
            f"exponential_power requires alpha >= 1, got {alpha!r}")
    probe = power_law_candidate(a)
    return RadialPotential(v=probe.f, dv=probe.df, d2v=probe.d2f, convex=True,
                           name=f"exponential_power(alpha={a:g})")


# ---------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------


def _identity(x):
    return np.asarray(x, dtype=float)


def power_weight(k):
    """sigma^2 = (1 + r^2)^k with its first two derivatives.

    k = 0 is the plain (unweighted) dynamics, k = 1 the weight taming
    polynomial tails and k = -1 probes bounds below the plain Dirichlet
    form.  The natural coordinate s(r) = int_0^r (1+u^2)^(-k/2) du is
    carried in closed form at k = 0 (s = r) and k = 1 (s = arcsinh r);
    elsewhere the solver tabulates it (at k = -1,
    s = (r sqrt(1+r^2) + arcsinh r)/2 has no elementary inverse).
    """
    k = _finite_real("k", k)
    c, c1 = 2.0 * k, 4.0 * k * k - 2.0 * k

    def q(r):
        return 1.0 + np.asarray(r, dtype=float) ** 2

    def s2(r):
        if k == 0.0:
            # the unit weight: pow(x, 0) = 1 even for inf and nan
            return np.ones_like(np.asarray(r, dtype=float))[()]
        return q(r) ** k

    def d2s2(r):
        x = np.asarray(r, dtype=float) ** 2
        out = (c + c1 * x) / (1.0 + x) ** (2.0 - k)
        if not np.all(np.isfinite(out)):
            # past r ~ 1.3e154 r^2 overflows and the quotient reads inf/inf
            # or 0 * inf; there (sigma^2)'' is its leading term c1 r^(2k-2)
            with np.errstate(all="ignore"):
                out = np.where(np.isfinite(out), out, c1 * x ** (k - 1.0))
        return out

    maps = {0.0: (_identity, _identity), 1.0: (np.arcsinh, np.sinh)}
    to_metric, from_metric = maps.get(k, (None, None))
    return Weight(
        s2=s2,
        ds2=lambda r: c * np.asarray(r, dtype=float) / q(r) ** (1.0 - k),
        d2s2=d2s2, name=f"(1+r^2)^{k:g}",
        to_metric=to_metric, from_metric=from_metric)


def make_weight(weight_choice):
    """Weight object for one of the named weight choices."""
    if weight_choice not in WEIGHT_NAMES:
        raise InvalidInput(
            f"unknown weight {weight_choice!r}; expected one of {WEIGHT_NAMES}")
    return power_weight(_WEIGHT_POWERS[weight_choice])


# ---------------------------------------------------------------------
# candidate functions
# ---------------------------------------------------------------------


def power_candidate(p):
    """f = (1 + r^2)^p with exact derivatives up to third order.

    f, f' and f'' are the sigma^2 and its derivatives of ``power_weight(p)``.

    For the heavy-tailed family with weight 1 + r^2 and p = (beta - n/2)/2
    this is the slow-growth candidate whose decay-rate infimum reaches the
    essential-spectrum bottom.
    """
    p = _finite_real("p", p)
    if p == 0.0:
        raise InvalidInput(f"power candidate needs a finite nonzero p, got {p!r}")

    weight = power_weight(p)

    def d3f(r):
        rr = np.asarray(r, dtype=float)
        q = rr * rr
        return (4.0 * p * (p - 1.0) * rr * (1.0 + q) ** (p - 3.0)
                * (3.0 + (2.0 * p - 1.0) * q))

    return CandidateFunction(
        f=weight.s2, df=weight.ds2, d2f=weight.d2s2, d3f=d3f,
        monotone=p > 0.0, name=weight.name,
        log_abs_f=lambda r: p * np.log1p(np.asarray(r, dtype=float) ** 2),
        log_abs_df=lambda r: (np.log(2.0 * abs(p) * np.asarray(r, dtype=float))
                              + (p - 1.0) * np.log1p(np.asarray(r, dtype=float) ** 2)))


def power_law_candidate(a):
    """f = r^a/a (log r at a = 0), the antiderivative of f' = r^(a-1).

    a = 2 is the light-tailed eigenfunction, a = alpha the exp-power probe
    and a = (3-n)/2 the ball's slow-increase probe, whose decay rate
    (n^2 - 1)/(4 r^2) is least, (n^2 - 1)/4, at the wall.
    """
    a = _finite_real("a", a)
    if a == 0.0:
        f = lambda r: np.log(np.asarray(r, dtype=float))
        log_abs_f = lambda r: np.log(np.abs(f(r)))
    else:
        f = lambda r: np.asarray(r, dtype=float) ** a / a
        log_abs_f = lambda r: (a * np.log(np.asarray(r, dtype=float))
                               - math.log(abs(a)))
    return CandidateFunction(
        f=f, df=lambda r: np.asarray(r, dtype=float) ** (a - 1.0),
        d2f=lambda r: (a - 1.0) * np.asarray(r, dtype=float) ** (a - 2.0),
        d3f=lambda r: (a - 1.0) * (a - 2.0)
        * np.asarray(r, dtype=float) ** (a - 3.0),
        monotone=True, name="log r" if a == 0.0 else f"r^{a:g}/{a:g}",
        log_abs_f=log_abs_f,
        log_abs_df=lambda r: (a - 1.0) * np.log(np.asarray(r, dtype=float)))


# ---------------------------------------------------------------------
# family assembly
# ---------------------------------------------------------------------


def _potential_for(spec):
    if spec.family == "uniform_ball":
        return ball_potential()
    if spec.family == "generalized_cauchy":
        return cauchy_potential(spec.beta)
    return exp_power_potential(spec.alpha or 2.0)  # gaussian: alpha = 2


def _candidate_for(spec):
    if spec.family == "uniform_ball":
        return power_law_candidate((3.0 - spec.n) / 2.0)
    if spec.family == "generalized_cauchy":
        t = spec.beta - spec.n / 2.0
        if t <= 2.0:
            return power_candidate(t / 2.0)
    return power_law_candidate(spec.alpha or 2.0)  # gaussian, t > 2: a = 2


def make_family(spec, tail_tol=1e-12):
    """Materialize a catalog case: (measure, weight, designated candidate).

    The measure carries the analytic potential derivatives and is
    truncated at tail mass ``tail_tol`` (see build_measure); the weight
    carries sigma^2 = (1+r^2)^k, its derivatives, and closed-form natural
    coordinates where available; the candidate is the family's standard
    probe for the variational lower bound and the Rayleigh upper bound.
    """
    if not isinstance(spec, FamilySpec):
        raise InvalidInput("make_family expects a FamilySpec")
    measure = build_measure(spec.n, _potential_for(spec), tail_tol=tail_tol,
                            name=spec.label())
    return measure, make_weight(spec.weight_choice), _candidate_for(spec)


# ---------------------------------------------------------------------
# recorded reference gaps
# ---------------------------------------------------------------------

def _cauchy_radial_reference(spec):
    t = spec.beta - spec.n / 2.0
    if t <= 2.0:
        return ReferenceGap(
            kind="exact", value=t * t,
            source="weighted radial essential-spectrum bottom "
                   "(no eigenfunction)")
    return ReferenceGap(
        kind="exact", value=4.0 * (t - 1.0),
        source="weighted radial quadratic eigenfunction")


def _cauchy_full_reference(spec):
    """The full gap min(radial gap, 2(beta-1)).

    Under sigma^2 = 1+r^2 each coordinate is an exact eigenfunction,
    L x_i = -2(beta-1) x_i, and its radial part r has no node, so for
    t = beta - n/2 > 1, where x_i lies in L^2(mu), 2(beta-1) is the l=1
    ground state.  For t <= 1 the positive solution x_i still holds the
    l=1 spectrum at or above 2(beta-1) = 2t + n - 2 > t^2, so the full gap
    is the radial essential-spectrum bottom t^2.
    """
    radial = _cauchy_radial_reference(spec)
    linear = 2.0 * (spec.beta - 1.0)
    if linear < radial.value:
        return ReferenceGap(kind="exact", value=linear,
                            source="coordinate linear eigenfunctions x_i")
    return ReferenceGap(kind="exact", value=radial.value,
                        source=f"equals the radial gap ({radial.source})")


def _gaussian_reference(spec, which):
    n = spec.n
    if spec.weight_choice == "unit":
        return _exp_power_reference(spec, which)
    if spec.weight_choice == "one_plus_r2":
        if which == "radial":
            return ReferenceGap(
                kind="bracket",
                lower=4.0 * (n - 2.0) if n >= 3 else 4.0,
                upper=math.inf,
                source="weighted curvature route (recorded claim)")
        return ReferenceGap(kind="bracket", lower=n - 1.0, upper=n + 1.0,
                            source="weighted comparison bracket")
    if which == "radial":
        raise InvalidInput(
            "no recorded radial reference for the gaussian family with "
            "weight inv_one_plus_r2")
    upper = 1.0 if n == 2 else min(1.0 / (n - 2.0), 1.0)
    return ReferenceGap(
        kind="bracket", lower=(n - 1.0) / (n * (n + 3.0)), upper=upper,
        source="weighted comparison bracket")


def _exp_power_reference(spec, which):
    n, alpha = spec.n, spec.alpha or 2.0  # gaussian: alpha = 2
    if spec.weight_choice != "unit":
        raise InvalidInput(
            "exponential_power references are recorded for the unit weight only")
    if which == "radial":
        if alpha == 2.0:
            return ReferenceGap(kind="exact", value=2.0,
                                source="radial quadratic eigenfunction r^2 - n")
        if alpha == 1.0:
            return ReferenceGap(
                kind="exact", value=n / (n + 1.0) ** 2, order_exponent=-1.0,
                source="radial eigenfunction (1 - r/(n+1)) e^(r/(n+1))")
        return ReferenceGap(
            kind="order_only", order_exponent=1.0 - 2.0 / alpha,
            source="large-dimension radial scaling")
    if alpha == 2.0:
        return ReferenceGap(kind="exact", value=1.0,
                            source="coordinate linear eigenfunctions")
    if alpha == 1.0:
        # V'' = 0, so x_i e^(r/(n+1)), whose radial part r e^(r/(n+1)) has
        # no node, is the l=1 ground state; it ties with the radial gap
        return ReferenceGap(
            kind="exact", value=n / (n + 1.0) ** 2,
            source="l=1 eigenfunctions x_i e^(r/(n+1)), tied with the "
                   "radial gap")
    exact = exp_power_explicit(n, alpha).exact
    return ReferenceGap(kind="bracket", lower=exact.lower, upper=exact.upper,
                        source="second-moment comparison (exact Gamma form)")


def _ball_reference(spec, which):
    n = spec.n
    if spec.weight_choice != "unit":
        raise InvalidInput(
            "uniform_ball references are recorded for the unit weight only")
    if which == "radial":
        return ReferenceGap(
            kind="bracket", lower=(n * n - 1.0) / 4.0, upper=math.inf,
            order_exponent=2.0,
            source="slow-increase probe decay rate; quadratic growth in n")
    return ReferenceGap(
        kind="bracket", lower=(n - 1.0) * (n + 2.0) / n, upper=n + 2.0,
        source="sphere-radius tensorization bracket")


def reference_gap(spec, which):
    """Recorded gap fact for one catalog case.

    which = "radial" asks about the one-dimensional (weighted) radial
    dynamics; "full" about the dynamics on R^n.  Raises InvalidInput for
    combinations with no recorded entry (e.g. heavy tails with the unit
    weight, where no gap statement is recorded).
    """
    if not isinstance(spec, FamilySpec):
        raise InvalidInput("reference_gap expects a FamilySpec")
    if which not in ("radial", "full"):
        raise InvalidInput(f"which must be 'radial' or 'full', got {which!r}")
    if spec.family == "generalized_cauchy":
        if spec.weight_choice != "one_plus_r2":
            raise InvalidInput(
                "generalized_cauchy references are recorded for the weight "
                "one_plus_r2 only")
        if which == "radial":
            return _cauchy_radial_reference(spec)
        return _cauchy_full_reference(spec)
    if spec.family == "gaussian":
        return _gaussian_reference(spec, which)
    if spec.family == "exponential_power":
        return _exp_power_reference(spec, which)
    return _ball_reference(spec, which)


# ---------------------------------------------------------------------
# the regression grid
# ---------------------------------------------------------------------


def catalog_grid():
    """The standard regression grid: 62 cases across all four families.

    Light tails with the unit weight, the ball, the Gaussian under all
    three weights, and heavy tails (indexed by the tail margin
    t = beta - n/2) under the taming weight.
    """
    cases = []
    for alpha in (1.0, 1.5, 2.0, 4.0):
        for n in (2, 3, 4, 6, 8):
            cases.append(FamilySpec("exponential_power", n, "unit", alpha=alpha))
    for n in (2, 3, 4, 8, 16):
        cases.append(FamilySpec("uniform_ball", n, "unit"))
    for n in range(2, 9):
        for weight in WEIGHT_NAMES:
            cases.append(FamilySpec("gaussian", n, weight))
    for n in (2, 3, 4, 6):
        for t in (0.5, 1.5, 2.5, 4.5):
            cases.append(FamilySpec("generalized_cauchy", n, "one_plus_r2",
                                    beta=n / 2.0 + t))
    return tuple(cases)
