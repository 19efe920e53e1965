"""Sturm-Liouville eigensolver for the weighted radial generator.

The diffusion with generator L g = sigma^2 g'' + b g' and drift
b = (sigma^2)' - sigma^2 (V' - (n-1)/r) is self-adjoint in L^2(nu), and
its spectral gap is the smallest nonzero eigenvalue of the Neumann
problem -(w sigma^2 g')' = lambda w g on (0, R), where w is the radial
density r^{n-1} e^{-V}/Z.  This module discretizes that problem with a
mass-conservative finite-volume scheme on a graded mesh, extracts the
two lowest eigenvalues of the resulting symmetric tridiagonal pencil by
bisection with Sturm-sequence counting (inverse iteration for the
eigenvector), and removes the leading O(h^2) mesh error by Richardson
extrapolation across a nested mesh pair.

Coordinates.  Meshes are laid out in the natural coordinate of the
diffusion, s(r) = int_0^r du/sigma(u), in which the operator has unit
diffusion coefficient.  Cell widths follow a local density^(-1/2)
grading rule (clipped to a 50:1 width ratio) expressed in that
coordinate: the radius itself spans hundreds of decades for heavy-tailed
laws, where no clipped grading in r could resolve both the bulk and the
reflecting wall, while the natural coordinate stays numerically tame.

Truncation.  Unbounded laws are truncated where the solver's own tail
budget (1e-10) is met.  The Neumann wall is then audited by re-solving
on a domain of twice the natural length; a shift larger than ten times
the mesh error raises TruncationWarning and triggers escalation.  The
escalation doubles the *natural length* of the domain rather than the
radius -- for sigma^2 = 1 + r^2 a radius doubling moves the wall by only
log 2 in the natural coordinate, which can never resolve the 1/S^2
truncation bias of a law whose generator has essential spectrum.  When
the truncation bias is algebraic, the limit is recovered from the last
domain doublings by fitting lambda(S) = lambda_inf + A/(S + phi)^2.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.optimize import brentq

from .errors import (ConvergenceError, DiscretizationError, DomainError,
                     InvalidInput, NonIntegrable, TruncationWarning)
from .quadrature import gl_rule, log_integrals_exp
from .radial_model import (diagnostic_grid, drift, expectation,
                           truncation_radius, validate_weight)

# width ratio cap of the graded mesh (widest cell / narrowest cell)
_RATIO_CLIP = 50.0
# tail-mass budget used to pick the default truncation radius
_SOLVER_TAIL_TOL = 1e-10
# the domain never extends past the radius where the density has decayed
# this many e-folds below its peak (cell masses stay representable) ...
_DENSITY_DROP = 600.0
# ... nor past this radius (sigma^2, conductances stay within range)
_R_CAP = 1e150
# domain-escalation budget (metric-length doublings)
_MAX_GROWTH = 8
# |lambda(2S) - lambda(S)| <= this multiple of the mesh error passes the
# truncation audit
_AUDIT_FACTOR = 10.0


# ---------------------------------------------------------------------
# public containers
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Resolution/truncation options for one eigensolve.

    n_cells must be a power of two times 64 so that mesh pairs nest and
    resolution doublings stay cheap to reason about; the cells are graded
    (see _mesh_family).  r_max_override pins the truncation radius; the
    truncation audit still runs and warns, but no escalation happens.
    """

    n_cells: int = 1024
    r_max_override: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.n_cells, (int, np.integer)):
            raise InvalidInput("n_cells must be an integer")
        k, rem = divmod(int(self.n_cells), 64)
        if self.n_cells < 64 or rem or (k & (k - 1)):
            raise InvalidInput(
                f"n_cells must be a power of two times 64, got {self.n_cells}")
        if self.r_max_override is not None and not (self.r_max_override > 0.0):
            raise InvalidInput("r_max_override must be positive")


class TridiagonalStiffness:
    """Neumann stiffness matrix assembled from face conductances.

    The matrix is symmetric tridiagonal with rows
    [-C_{i-1}, C_{i-1} + C_i, -C_i]; its action is evaluated in flux form
    y_i = C_{i-1} (g_i - g_{i-1}) + C_i (g_i - g_{i+1}), so constants are
    annihilated exactly in floating point (every flux is a difference of
    equal numbers), and the quadratic form g' K g = sum_i C_i (dg_i)^2 is
    nonnegative by construction.
    """

    def __init__(self, conductances):
        c = np.asarray(conductances, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise DiscretizationError("need at least one interior face")
        self.conductances = c
        n = c.size + 1
        self.shape = (n, n)

    def matvec(self, g):
        g = np.asarray(g, dtype=float)
        c = self.conductances
        flux = c * (g[:-1] - g[1:])
        out = np.zeros_like(g)
        out[:-1] += flux
        out[1:] -= flux
        return out

    def __matmul__(self, g):
        return self.matvec(g)

    def quadratic_form(self, g):
        g = np.asarray(g, dtype=float)
        d = np.diff(g)
        return float(self.conductances @ (d * d))


@dataclass(frozen=True)
class Discretization:
    """One finite-volume discretization: pencil plus its grid."""

    stiffness: TridiagonalStiffness
    mass: np.ndarray
    r_centers: np.ndarray
    r_edges: np.ndarray
    s_edges: np.ndarray


@dataclass(frozen=True)
class GridFunction:
    """Function tabulated on cell centers, with the cell masses of nu.

    Calling the object evaluates by linear interpolation; the mean and
    norm methods integrate against the tabulated cell masses.
    """

    r: np.ndarray
    values: np.ndarray
    masses: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.r, self.values)

    def nu_mean(self):
        return float(self.masses @ self.values)

    def nu_norm(self):
        return float(math.sqrt(self.masses @ (self.values * self.values)))


@dataclass(frozen=True)
class GapEstimate:
    """Spectral-gap estimate with its own error model.

    value is the Richardson-extrapolated eigenvalue; error_estimate is
    |lambda_N - lambda_2N| / 3 (the size of the correction the
    extrapolation applied), plus a truncation term when the domain had
    to be escalated.  The eigenfunction is tabulated on the cell centers
    of the finest mesh used, mean-zero and unit-norm in L^2(nu).
    """

    value: float
    error_estimate: float
    n_cells_used: int
    r_max_used: float
    eigenfunction: GridFunction = field(repr=False)


# ---------------------------------------------------------------------
# coordinates, domains, meshes
# ---------------------------------------------------------------------


def _metric_maps(weight, r_hi):
    """(to_metric, from_metric) callables valid on [0, r_hi].

    Uses the closed-form maps when the weight carries them, otherwise
    tabulates s(r) = int_0^r du/sigma(u) on a log-spaced grid and
    interpolates monotonically in both directions.
    """
    if weight.to_metric is not None and weight.from_metric is not None:
        return weight.to_metric, weight.from_metric
    u = np.linspace(0.0, math.log1p(r_hi), 16385)
    r = np.expm1(u)
    with np.errstate(all="ignore"):
        slope = (1.0 + r) / np.asarray(weight.s(r), dtype=float)
    if not np.all(np.isfinite(slope[1:])) or np.any(slope[1:] <= 0.0):
        raise DomainError(
            f"weight {weight.name or '<anon>'} has no usable natural "
            "coordinate on (0, r_max): 1/sigma is not finite and positive")
    slope[0] = slope[1]
    s_tab = np.concatenate(
        ([0.0], np.cumsum((u[1:] - u[:-1]) * 0.5 * (slope[1:] + slope[:-1]))))
    u_of_s = PchipInterpolator(s_tab, u)
    s_of_u = PchipInterpolator(u, s_tab)

    def to_metric(x):
        return s_of_u(np.log1p(x))

    def from_metric(s):
        return np.expm1(u_of_s(s))

    return to_metric, from_metric


def _default_radius(measure):
    """Default truncation radius: the solver's tail budget applied to the
    r^4-weighted law (eigenfunctions of the heavy-tailed families grow
    like r^2, so the eigenvalue's truncation bias tracks the r^4 tail),
    falling back to the bare tail mass when r^4 is not integrable --
    those are essential-spectrum cases that escalate and extrapolate."""
    try:
        return truncation_radius(measure, _SOLVER_TAIL_TOL, poly_power=4)
    except NonIntegrable:
        return truncation_radius(measure, _SOLVER_TAIL_TOL)


def _representable_radius(measure):
    """Largest radius the solver is willing to mesh: the density must not
    have decayed more than _DENSITY_DROP e-folds below its peak, and the
    radius must leave sigma^2 and face conductances inside double range."""
    u = np.linspace(0.0, math.log1p(_R_CAP), 8193)
    r = np.expm1(u[1:])
    with np.errstate(all="ignore"):
        lw = np.asarray(measure.log_weight(r), dtype=float)
    lw = np.where(np.isnan(lw), -np.inf, lw)
    peak = float(np.max(lw))
    alive = np.nonzero(lw >= peak - _DENSITY_DROP)[0]
    if alive.size == 0:
        raise DiscretizationError("density peak is not representable")
    return float(r[alive[-1]])


def _radii(measure, spec):
    """(r0, r_cap): the radius the first solve truncates at, and the
    largest radius any solve may mesh.

    r_cap is the domain end of a bounded law and the representable radius
    of an unbounded one.  r0 is r_max_override when given, else the domain
    end or the solver's default truncation radius, never past r_cap.
    """
    domain_end = measure.potential.domain_end
    if math.isfinite(domain_end):
        r_cap = float(domain_end)
    else:
        r_cap = _representable_radius(measure)
    if spec.r_max_override is not None:
        r0 = float(spec.r_max_override)
    elif math.isfinite(domain_end):
        r0 = r_cap
    else:
        r0 = _default_radius(measure)
    return min(r0, r_cap), r_cap


def _mesh_family(measure, weight, from_metric, s_max):
    """Return mesh(n) -> n+1 edges in the natural coordinate on [0, s_max].

    Edges are placed by equidistributing density^(1/2) (expressed in the
    natural coordinate) clipped to a 50:1 width ratio, so meshes for n
    and 2n cells share every coarse edge exactly -- the nesting
    Richardson assumes.
    """
    sp = np.linspace(0.0, s_max, 4097)
    rp = np.asarray(from_metric(sp), dtype=float)
    rp[0] = 0.0
    with np.errstate(all="ignore"):
        lw = np.asarray(measure.log_weight(rp), dtype=float)
        lsig = np.log(np.asarray(weight.s(rp), dtype=float))
    lrho = np.where(np.isnan(lw + lsig), -np.inf, lw + lsig)
    lq = 0.5 * (lrho - np.max(lrho))
    # widths ~ 1/q with q in [q_max/50, q_max]: the 50:1 width-ratio clip
    q = np.exp(np.maximum(lq, -math.log(_RATIO_CLIP)))
    cum = np.concatenate(
        ([0.0], np.cumsum((sp[1:] - sp[:-1]) * 0.5 * (q[1:] + q[:-1]))))
    cum /= cum[-1]
    place = PchipInterpolator(cum, sp)

    def mesh(n):
        edges = np.asarray(place(np.linspace(0.0, 1.0, n + 1)), dtype=float)
        edges[0] = 0.0
        edges[-1] = s_max
        return edges

    return mesh


# ---------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------


def _first_cell_log_mass(measure, r1):
    """log integral_0^{r1} r^{n-1} e^{-V} dr via tau = (r/r1)^n, which
    absorbs the vanishing r^{n-1} factor into the measure exactly."""
    n = measure.n
    x, wq = gl_rule(32)
    radii = r1 * x ** (1.0 / n)
    vals = -np.asarray(measure.potential.v(radii), dtype=float)
    top = float(np.max(vals))
    if not math.isfinite(top):
        raise DiscretizationError(
            "potential is not finite inside the first cell")
    total = float(wq @ np.exp(vals - top))
    return n * math.log(r1) - math.log(n) + top + math.log(total)


def _assemble(measure, weight, s_edges, from_metric):
    """Conductances, cell masses, and grid radii for one mesh."""
    s_edges = np.asarray(s_edges, dtype=float)
    s_centers = 0.5 * (s_edges[:-1] + s_edges[1:])
    r_edges = np.asarray(from_metric(s_edges), dtype=float)
    r_edges[0] = 0.0
    r_centers = np.asarray(from_metric(s_centers), dtype=float)
    if (np.any(~np.isfinite(r_edges)) or np.any(np.diff(r_edges) <= 0.0)
            or np.any(~np.isfinite(r_centers)) or not r_centers[0] > 0.0
            or np.any(np.diff(r_centers) <= 0.0)):
        raise DiscretizationError(
            "mesh degenerated: grid radii are not strictly increasing")

    # midpoint-face conductances sigma^2(r_f) w(r_f) / (center distance)
    faces = r_edges[1:-1]
    with np.errstate(over="ignore", under="ignore"):
        log_w_face = (np.asarray(measure.log_weight(faces), dtype=float)
                      - measure.log_z)
        cond = (np.asarray(weight.s2(faces), dtype=float)
                * np.exp(log_w_face) / np.diff(r_centers))
    if np.any(~np.isfinite(cond)) or np.any(cond <= 0.0):
        raise DiscretizationError(
            "a face conductance underflowed to zero or overflowed; the "
            "domain extends past the representable range of the density")

    log_m = np.empty(s_edges.size - 1)
    log_m[0] = _first_cell_log_mass(measure, r_edges[1]) - measure.log_z
    t_lo = np.log(r_edges[1:-1])
    t_hi = np.log(r_edges[2:])

    def log_f(t):
        return np.asarray(measure.log_weight(np.exp(t)), dtype=float) + t

    log_m[1:] = log_integrals_exp(log_f, t_lo, t_hi) - measure.log_z
    with np.errstate(under="ignore"):
        masses = np.exp(log_m)
    if np.any(~np.isfinite(masses)) or np.any(masses <= 0.0):
        raise DiscretizationError(
            "a cell mass underflowed to zero; refine the grading or "
            "shrink the domain")
    return cond, masses, r_centers, r_edges


def discretize(measure, weight, grid):
    """Finite-volume Neumann discretization of the weighted radial
    generator on cell centers: stiffness K (symmetric tridiagonal,
    positive semidefinite, K 1 = 0 exactly) and diagonal mass M.

    The conductance of the face between cells i and i+1 is
    sigma^2(r_face) w(r_face) / (r-distance between the cell centers);
    cell masses are the exact integrals of the normalized density over
    each cell (the first cell by a substitution exact for r^{n-1}).
    Raises DiscretizationError if any cell mass underflows to zero.
    """
    if not isinstance(grid, GridSpec):
        raise InvalidInput("grid must be a GridSpec")
    validate_weight(measure, weight)
    r0, r_cap = _radii(measure, grid)
    to_metric, from_metric = _metric_maps(weight, min(r_cap, _R_CAP))
    s_max = float(to_metric(r0))
    mesh = _mesh_family(measure, weight, from_metric, s_max)
    s_edges = mesh(grid.n_cells)
    cond, masses, r_centers, r_edges = _assemble(
        measure, weight, s_edges, from_metric)
    return Discretization(stiffness=TridiagonalStiffness(cond),
                          mass=masses, r_centers=r_centers,
                          r_edges=r_edges, s_edges=s_edges)


# ---------------------------------------------------------------------
# eigenvalue extraction
# ---------------------------------------------------------------------


def _lowest_pair(cond, masses):
    """(lambda_0, lambda_1, g_1): the two lowest eigenvalues of
    K g = lambda M g and the eigenvector of the second, via the
    symmetric similarity D = M^{-1/2} K M^{-1/2}."""
    inv_sqrt_m = 1.0 / np.sqrt(masses)
    d = np.zeros(masses.size)
    d[:-1] += cond
    d[1:] += cond
    d *= inv_sqrt_m * inv_sqrt_m
    e = -cond * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
    if np.any(~np.isfinite(d)) or np.any(~np.isfinite(e)):
        raise DiscretizationError(
            "pencil entries overflowed; the mesh spans a wider dynamic "
            "range than doubles can carry")
    try:
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 1),
                                      lapack_driver="stebz")
    except (LinAlgError, ValueError) as exc:
        raise ConvergenceError(
            f"tridiagonal eigenvalue iteration failed: {exc}") from None
    lam0, lam1 = float(vals[0]), float(vals[1])
    scale = abs(lam1) + abs(d).max() * 1e-14
    if not (-1e-8 * scale < lam0 < lam1):
        raise ConvergenceError(
            f"constant mode not resolved: lowest eigenvalues {lam0}, {lam1}")
    g = vecs[:, 1] * inv_sqrt_m
    # deflate the constant mode in the M inner product, normalize, and
    # fix the sign so the tabulated eigenfunction increases on average
    g = g - (masses @ g) / masses.sum()
    g = g / math.sqrt(masses @ (g * g))
    if g[-1] < g[0]:
        g = -g
    return lam0, lam1, g


def _solve_domain(measure, weight, r_hi, spec, to_metric, from_metric):
    """Mesh-extrapolated eigensolve on one domain.

    Solves at n_cells and 2 n_cells and Richardson-extrapolates the
    O(h^2) error; error_estimate is |lambda_N - lambda_2N| / 3.  When
    n_cells allows it, a third solve at n_cells/2 eliminates the O(h^4)
    term of the nested-mesh expansion as well (the reported error keeps
    the two-mesh formula, so it is conservative for the returned value).
    Returns (value, mesh_error, coarse_value, fine_value, eigenfunction).
    """
    s_max = float(to_metric(r_hi))
    mesh = _mesh_family(measure, weight, from_metric, s_max)
    levels = [spec.n_cells, 2 * spec.n_cells]
    if spec.n_cells >= 128:
        levels.insert(0, spec.n_cells // 2)
    lams = []
    g_fine = None
    masses_fine = None
    r_fine = None
    for n in levels:
        cond, masses, r_centers, _ = _assemble(
            measure, weight, mesh(n), from_metric)
        _, lam1, g = _lowest_pair(cond, masses)
        lams.append(lam1)
        g_fine, masses_fine, r_fine = g, masses, r_centers
    lam_coarse, lam_fine = lams[-2], lams[-1]
    rich_hi = lam_fine + (lam_fine - lam_coarse) / 3.0
    err = abs(lam_fine - lam_coarse) / 3.0
    if len(lams) == 3:
        rich_lo = lams[1] + (lams[1] - lams[0]) / 3.0
        value = rich_hi + (rich_hi - rich_lo) / 15.0
    else:
        value = rich_hi
    fn = GridFunction(r=r_fine, values=g_fine, masses=masses_fine)
    return value, err, lam_coarse, lam_fine, fn


def _fit_inverse_square(points):
    """Fit lambda(S) = lam_inf + A/(S + phi)^2 through three (S, lambda)
    points; returns lam_inf or None when the data do not admit the model
    (non-monotone, or decay faster than the model allows)."""
    (s1, l1), (s2, l2), (s3, l3) = points
    d12, d23 = l1 - l2, l2 - l3
    if d12 == 0.0 or d23 == 0.0 or (d12 > 0.0) != (d23 > 0.0):
        return None
    target = d12 / d23

    def mismatch(phi):
        w1, w2, w3 = (s1 + phi) ** -2, (s2 + phi) ** -2, (s3 + phi) ** -2
        return (w1 - w2) / (w2 - w3) - target

    lo = -0.999 * s1
    hi = 100.0 * s3
    try:
        f_lo, f_hi = mismatch(lo), mismatch(hi)
        if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi > 0.0:
            return None
        phi = brentq(mismatch, lo, hi, xtol=1e-12 * s3, rtol=1e-14)
    except (ValueError, RuntimeError):
        return None
    w2, w3 = (s2 + phi) ** -2, (s3 + phi) ** -2
    a = d23 / (w2 - w3)
    return l3 - a * w3


def spectral_gap(measure, weight, opts=None):
    """Spectral gap of the weighted radial generator, with error control.

    Solves the Neumann eigenproblem at n_cells and 2 n_cells and
    Richardson-extrapolates assuming O(h^2); error_estimate is
    |lambda_N - lambda_2N| / 3.  On unbounded domains the truncation is
    audited by re-solving on a domain of twice the natural length: a
    shift exceeding ten times the mesh error raises TruncationWarning,
    and (unless r_max_override pinned the domain) the domain is grown
    until the shift is resolved or the representable range is exhausted,
    with an inverse-square extrapolation in the natural length when the
    bias is algebraic.
    """
    spec = opts if opts is not None else GridSpec()
    if not isinstance(spec, GridSpec):
        raise InvalidInput("opts must be a GridSpec")
    validate_weight(measure, weight)
    finite_domain = math.isfinite(measure.potential.domain_end)
    pinned = spec.r_max_override is not None
    r0, r_cap = _radii(measure, spec)
    to_metric, from_metric = _metric_maps(weight, min(r_cap, _R_CAP))

    value, err, _, _, fn = _solve_domain(
        measure, weight, r0, spec, to_metric, from_metric)

    def estimate(val, error, r_used, grid_fn):
        return GapEstimate(value=max(float(val), 0.0),
                           error_estimate=float(error),
                           n_cells_used=2 * spec.n_cells,
                           r_max_used=float(r_used),
                           eigenfunction=grid_fn)

    if finite_domain and not pinned:
        return estimate(value, err, r0, fn)

    # truncation audit: the Neumann wall is trusted only if doubling the
    # natural length of the domain barely moves the eigenvalue
    s0 = float(to_metric(r0))
    s_cap = float(to_metric(r_cap))

    def audit_warn(from_s, to_s, delta, merr):
        warnings.warn(TruncationWarning(
            f"doubling the truncated domain (natural length {from_s:.3g} "
            f"-> {to_s:.3g}) moved the spectral gap by {delta:.3e}, more "
            f"than {_AUDIT_FACTOR:g}x the mesh error {merr:.3e}"))

    if pinned:
        # the caller pinned the domain: audit it, warn, but honor the pin
        s1 = min(2.0 * s0, s_cap)
        if s1 > s0 * (1.0 + 1e-9):
            value1, err1, _, _, _ = _solve_domain(
                measure, weight, float(from_metric(s1)), spec, to_metric,
                from_metric)
            shift = abs(value1 - value)
            mesh_err = max(err, err1, 1e-300)
            if shift > _AUDIT_FACTOR * mesh_err:
                audit_warn(s0, s1, shift, mesh_err)
        return estimate(value, err, r0, fn)

    # grow the domain (doubling the natural length, up to the
    # representable cap) until the eigenvalue stops moving; the warning
    # fires at the first doubling that fails the audit
    trace = [(s0, value)]
    solves = [(value, err, r0, fn)]
    deltas = []
    warned = False
    settled = False
    for _ in range(_MAX_GROWTH):
        s_prev = trace[-1][0]
        if s_prev >= s_cap * (1.0 - 1e-9):
            break
        s_next = min(2.0 * s_prev, s_cap)
        r_next = float(from_metric(s_next))
        val_n, err_n, _, _, fn_n = _solve_domain(
            measure, weight, r_next, spec, to_metric, from_metric)
        delta = abs(val_n - trace[-1][1])
        mesh_err = max(solves[-1][1], err_n, 1e-300)
        if delta > _AUDIT_FACTOR * mesh_err and not warned:
            audit_warn(s_prev, s_next, delta, mesh_err)
            warned = True
        trace.append((s_next, val_n))
        solves.append((val_n, err_n, r_next, fn_n))
        deltas.append(delta)
        if delta <= max(0.01 * err_n, 1e-12 * (1.0 + abs(val_n))):
            settled = True
            break

    # when the eigenvalue still drifts algebraically with the wall the
    # drift follows lambda(S) ~ lam_inf + A/(S + phi)^2, and fitting it
    # removes the remaining bias; traces that have genuinely converged
    # (exponential tails) do not admit the model and fall through
    val_last, err_last, r_last, fn_last = solves[-1]
    fits = []
    for k in (len(trace) - 4, len(trace) - 3):
        if k >= 0:
            lam_inf = _fit_inverse_square(trace[k:k + 3])
            if lam_inf is not None:
                fits.append(lam_inf)
    if fits:
        extrapolated = fits[-1]
        spread = abs(fits[-1] - fits[0]) if len(fits) == 2 else 0.0
        correction = abs(extrapolated - val_last)
        err_domain = max(spread, 0.05 * correction)
        return estimate(extrapolated, err_last + err_domain, r_last, fn_last)

    if settled:
        # the wall no longer moves the eigenvalue: every domain in the
        # trace is valid, so return the one with the least total error
        # (larger domains stretch the mesh and can only lose accuracy);
        # the residual wall bias of solve k is bounded by what the later
        # doublings actually moved, plus the settled margin
        tail_bias = np.concatenate((np.cumsum(deltas[::-1])[::-1], [0.0]))
        tail_bias += deltas[-1]
        k = int(np.argmin([s[1] + tail_bias[i]
                           for i, s in enumerate(solves)]))
        val_k, err_k, r_k, fn_k = solves[k]
        return estimate(val_k, err_k + tail_bias[k], r_k, fn_k)

    # no usable model: report the largest-domain value with the last
    # domain shift folded into the error
    tail_shift = (abs(trace[-1][1] - trace[-2][1])
                  if len(trace) >= 2 else 0.0)
    return estimate(val_last, err_last + tail_shift, r_last, fn_last)


# ---------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------


def residual_check(measure, weight, f, lam):
    """Sup-norm residual of the eigenpair equation on a diagnostic grid.

    Evaluates sup_r |sigma^2 f'' + b f' + lam (f - c)| / (1 + |f - c|)
    over the quantile grid of nu.  For lam > 0 the additive constant is
    pinned by the eigenvalue equation itself, so c is the nu-mean of f
    (the mean-zero representative); for lam = 0 the equation only sees
    f up to affine shifts and c minimizes the sup norm directly.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise InvalidInput("lam must be a finite nonnegative real")
    grid = diagnostic_grid(measure, count=401)
    b = drift(measure, weight)
    with np.errstate(all="ignore"):
        s2 = np.asarray(weight.s2(grid), dtype=float)
        f0 = np.asarray(f.f(grid), dtype=float)
        f1 = np.asarray(f.df(grid), dtype=float)
        f2 = np.asarray(f.d2f(grid), dtype=float)
        bv = np.asarray(b(grid), dtype=float)
    pieces = (s2, f0, f1, f2, bv)
    if any(np.any(~np.isfinite(p)) for p in pieces):
        raise DomainError(
            "candidate function or coefficients are not finite on the "
            "diagnostic grid of nu")
    lf = s2 * f2 + bv * f1
    if lam > 0.0:
        center = expectation(measure, f.f)
        shifted = f0 - center
        residual = lf + lam * shifted
    else:
        c = 0.5 * (float(np.max(lf)) + float(np.min(lf)))
        shifted = f0
        residual = lf - c
    return float(np.max(np.abs(residual) / (1.0 + np.abs(shifted))))
