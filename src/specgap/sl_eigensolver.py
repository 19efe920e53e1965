"""Sturm-Liouville eigensolver for the weighted radial generator.

The diffusion with generator L g = sigma^2 g'' + b g' and drift
b = (sigma^2)' - sigma^2 (V' - (n-1)/r) is self-adjoint in L^2(nu), and
its spectral gap is the smallest nonzero eigenvalue of the Neumann
problem -(w sigma^2 g')' = lambda w g on (0, R), where w is the radial
density r^{n-1} e^{-V}/Z.  This module discretizes that problem with a
mass-conservative finite-volume scheme on a graded mesh, whose stiffness
is K = B^T C B (B the difference operator, C the face conductances), and
removes the O(h^2) and O(h^4) mesh errors by Richardson extrapolation
across three nested meshes.  Only the finest mesh of a domain is
integrated; the coarser two are its restrictions, whose cell masses are
pair and quadruple sums of its cell masses and whose faces are a subset
of its edges.  The pencil is assembled from the logs of the conductances
and cell masses of the unnormalized density r^{n-1} e^{-V}, and only the
ratios c/m are exponentiated: Z never enters, and n up to 1024 solves.

Intertwining.  The derivative of the gap eigenfunction is the ground
state of a Schroedinger-type operator (the Markovian approach of
Bonnefont & Joulin).  Discretely, the nonzero spectrum of M^{-1} K is
the spectrum of the flux pencil C^{1/2} B M^{-1} B^T C^{1/2}, so the gap
is that pencil's lowest eigenvalue, and the constant mode never enters.
A domain's first pencil is solved by LAPACK's bisection.  Every other
pencil starts from a neighbour's eigenvalue -- the coarser mesh's, or
the Robin pencil's below it -- and Newton's method on the determinant
climbs to its own from below, each step certified below it by the
inertia of an LDL^T factorization; bisection remains the fallback.  Both
LAPACK routines (dpttrf, dstebz) are called through scipy's f2py
extension module, loaded from its file without importing scipy.linalg.

Coordinates.  Meshes are laid out in the natural coordinate of the
diffusion, s(r) = int_0^r du/sigma(u), in which the operator has unit
diffusion coefficient.  Cell widths follow a local density^(-1/2)
grading rule (clipped to a 50:1 width ratio) expressed in that
coordinate: the radius itself spans hundreds of decades for heavy-tailed
laws, where no clipped grading in r could resolve both the bulk and the
reflecting wall, while the natural coordinate stays numerically tame.

Truncation.  Unbounded laws are truncated where the solver's own tail
budget (1e-10) is met, and one domain brackets the gap (Neumann
bracketing): the Dirichlet problem for the flux, which is the flux
pencil, and W_inf bound it from above; the Robin problem at the wall,
the flux pencil with one more row, capped by the floor of the flux's
potential past the wall, bounds it from below.  The estimate is the
upper end, charged the bracket's width and the mesh error.  The domain
grows only while the width exceeds a hundredth of the mesh error,
doubling its *natural length* -- for sigma^2 = 1 + r^2 a radius doubling
moves the wall by only log 2 in the natural coordinate -- up to the
representable range.  A bounded law's wall is its own end: one domain,
Dirichlet only.  TruncationWarning fires when the bracket of the
estimate returned is wider than its mesh error.

Essential spectrum.  In the natural coordinate the generator is
unitarily equivalent to -d^2/ds^2 + W, and the bottom of its essential
spectrum is W_inf = lim W (Persson).  essential_edge reads W_inf from
the closed-form coefficients.  A W_inf of zero means no gap, raised
before any domain is solved; no gap lies above a finite W_inf, which
caps the upper end.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConvergenceError, DiscretizationError, DomainError,
                     HypothesisFailed, InvalidInput, NonIntegrable,
                     TruncationWarning)
from .quadrature import gl_rule, log_integrals_exp
from .radial_model import (_MonotoneCubic, _finite_real, diagnostic_grid,
                           expectation, moment, truncation_radius,
                           validate_weight)


def _load_flapack():
    """scipy's f2py LAPACK extension module, loaded from its file.

    Neither scipy/__init__ nor scipy/linalg/__init__ runs, and sys.modules
    is left as it was: the scipy.linalg package imports scipy's array-API
    layer, which clones numpy's namespace (numpy.f2py, numpy.testing,
    numpy.ma, ...) and costs most of a cold start, while the extension
    itself loads in a few tens of milliseconds.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(root, "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            break
    else:
        raise ImportError(f"scipy's LAPACK extension {stem}"
                          f"{importlib.machinery.EXTENSION_SUFFIXES[0]} "
                          f"is missing")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                  stem + suffix)
    held = sys.modules.get(spec.name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules as it loads
    if held is None:
        sys.modules.pop(spec.name, None)
    else:
        sys.modules[spec.name] = held
    return module


_flapack = _load_flapack()
# the wrapper scipy.linalg.lapack re-exports
dpttrf = _flapack.dpttrf

# width ratio cap of the graded mesh (widest cell / narrowest cell)
_RATIO_CLIP = 50.0
# tail-mass budget at the starting radius (see _radii)
_SOLVER_TAIL_TOL = 1e-10
# the domain never extends past the radius where the density has decayed
# this many e-folds below its peak (a policy cap: the domains it sets fix
# the solver's values, though the log assembly carries any range) ...
_DENSITY_DROP = 600.0
# ... nor past this radius (sigma^2 stays within range)
_R_CAP = 1e150
# largest GridSpec n_cells: memory grows with it (~100 MB at this cap)
_MAX_CELLS = 65536
# domain-growth budget (metric-length doublings)
_MAX_GROWTH = 8
# dyadic panels of the first cell's mass rule (see _first_cell_log_mass)
_FIRST_CELL_HALVINGS = 40
# radii at which essential_edge reads the Schroedinger potential W: far
# past every bulk, and far below 1e150, where its closed-form terms cancel
_EDGE_LADDER = np.array([1e5, 1e6, 1e7, 1e8])
# Newton's method hands a pencil to bisection after this many steps
_NEWTON_CAP = 12


# ---------------------------------------------------------------------
# public containers
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Mesh resolution of one eigensolve.

    n_cells must be a power of two times 64, so that the n_cells/2,
    n_cells and 2 n_cells meshes of every domain solve nest, and at most
    _MAX_CELLS; the cells are graded (see _mesh).
    """

    n_cells: int = 1024

    def __post_init__(self):
        if not isinstance(self.n_cells, (int, np.integer)):
            raise InvalidInput("n_cells must be an integer")
        k, rem = divmod(int(self.n_cells), 64)
        if self.n_cells < 64 or rem or (k & (k - 1)):
            raise InvalidInput(
                f"n_cells must be a power of two times 64, got {self.n_cells}")
        if self.n_cells > _MAX_CELLS:
            raise InvalidInput(
                f"n_cells must be at most {_MAX_CELLS}, got {self.n_cells}")


@dataclass(frozen=True)
class GapEstimate:
    """Spectral-gap estimate with its own error model.

    value is upper, the top of the truncation bracket [lower, upper] (see
    spectral_gap): the last domain's Richardson-extrapolated Dirichlet
    end, or the essential-spectrum edge W_inf where that is lower
    (at_edge).  A bounded law is not truncated: lower = upper.
    error_estimate is the width (upper - lower)^+ plus the mesh error
    |lambda_N - lambda_2N| / 3 of the wider end, plus W_inf's error when
    at_edge.  r_max_used is the last domain's radius, and domains every
    domain's, in order.
    """

    value: float
    error_estimate: float
    n_cells_used: int
    r_max_used: float
    lower: float = math.nan
    upper: float = math.nan
    domains: tuple = ()
    at_edge: bool = False


# ---------------------------------------------------------------------
# coordinates, domains, meshes
# ---------------------------------------------------------------------


def _metric_maps(weight, r_hi):
    """(to_metric, from_metric) callables valid on [0, r_hi].

    Uses the closed-form maps when the weight carries them, otherwise
    tabulates s(r) = int_0^r du/sigma(u), sigma = sqrt(sigma^2), by the
    trapezoid rule on 2049 points in u = log(1+r) and interpolates both
    directions with the PCHIP monotone cubic (_MonotoneCubic), so each
    map is increasing and the two are inverse to interpolation accuracy.
    The points are u = log(1+r_hi) t^2 for t uniform on [0, 1]: near
    r = 0, where PCHIP's one-sided end slope sets the relative error of
    both maps, the cells shrink to 1/2048 of a uniform cell.
    """
    if weight.to_metric is not None and weight.from_metric is not None:
        return weight.to_metric, weight.from_metric
    u = math.log1p(r_hi) * np.linspace(0.0, 1.0, 2049) ** 2
    r = np.expm1(u)
    with np.errstate(all="ignore"):
        slope = (1.0 + r) / np.sqrt(weight.s2(r))
    if not np.all(np.isfinite(slope[1:])) or np.any(slope[1:] <= 0.0):
        raise DomainError(
            f"weight {weight.name or '<anon>'} has no usable natural "
            "coordinate on (0, r_max): 1/sigma is not finite and positive")
    slope[0] = slope[1]
    s_tab = np.concatenate(
        ([0.0], np.cumsum((u[1:] - u[:-1]) * 0.5 * (slope[1:] + slope[:-1]))))
    u_of_s = _MonotoneCubic(s_tab, u)
    s_of_u = _MonotoneCubic(u, s_tab)

    def to_metric(x):
        return s_of_u(np.log1p(x))

    def from_metric(s):
        return np.expm1(u_of_s(s))

    return to_metric, from_metric


def _representable_radius(measure):
    """Largest radius the solver is willing to mesh: the density must not
    have decayed more than _DENSITY_DROP e-folds below its peak (a domain
    cap), and the radius must leave sigma^2 inside double range.

    The grid's steps (0.042 in log(1+r)) can be far wider than the wall
    of a steep law.  A last live point whose density is still above the
    tail budget _SOLVER_TAIL_TOL of the peak lies in the bulk, so its step
    is narrowed 64-fold per round, four rounds, to the drop radius."""
    u = np.linspace(0.0, math.log1p(_R_CAP), 8193)
    r = np.expm1(u[1:])
    lw = measure.log_weight(r)
    peak = float(np.max(lw))
    floor = peak - _DENSITY_DROP
    alive = np.nonzero(lw >= floor)[0]
    if alive.size == 0:
        raise DiscretizationError("density peak is not representable")
    k = int(alive[-1])
    if k + 1 == r.size or lw[k] <= peak + math.log(_SOLVER_TAIL_TOL):
        return float(r[k])
    lo, hi = r[k], r[k + 1]
    for _ in range(4):
        t = np.linspace(lo, hi, 65)
        live = measure.log_weight(t) >= floor
        live[0], live[-1] = True, False  # as lo and hi were found
        j = int(np.nonzero(live)[0][-1])
        lo, hi = t[j], t[j + 1]
    return float(lo)


def _radii(measure):
    """(r0, r_cap): the radius the first solve truncates at, and the
    largest radius any solve may mesh.

    A bounded law is solved on its whole domain, so r0 = r_cap = its
    domain end.  An unbounded law starts where the solver's tail budget
    (1e-10) is met by the r^4-weighted law, never past r_cap, its
    representable radius.  The gap eigenfunctions of the heavy-tailed
    families grow like r^2, so a truncation biases the eigenvalue
    through the mass r^4 nu sees, not through the bare tail.  That law
    is nu's own potential in dimension n + 4, normalized by E r^4.
    Where E r^4 diverges (essential-spectrum cases, whose bracket closes
    at W_inf) or its quadrature is refused (cauchy just above
    t = beta - n/2 = 2), the bare law's 1e-10 radius stands in: r0 only
    places the first domain, and the bracket audits the truncation.
    """
    domain_end = measure.potential.domain_end
    if math.isfinite(domain_end):
        return float(domain_end), float(domain_end)
    r_cap = _representable_radius(measure)
    try:
        shifted = replace(measure, n=measure.n + 4,
                          log_z=measure.log_z + math.log(moment(measure, 4)))
        r0 = truncation_radius(shifted, _SOLVER_TAIL_TOL)
    except (NonIntegrable, ConvergenceError):
        r0 = truncation_radius(measure, _SOLVER_TAIL_TOL)
    return min(r0, r_cap), r_cap


def _mesh(measure, weight, from_metric, s_max, n):
    """The n+1 edges of an n-cell mesh in the natural coordinate on
    [0, s_max].

    Edges are placed by equidistributing density^(1/2) (expressed in the
    natural coordinate) clipped to a 50:1 width ratio: the cumulative
    weight is tabulated by the trapezoid rule on 4097 uniform points, and
    its inverse is the PCHIP monotone cubic (_MonotoneCubic) of s against
    the normalized cumulative weight, evaluated at n+1 equally spaced
    levels.  Meshes for n and 2n cells therefore share every coarse edge
    exactly -- the nesting Richardson assumes.
    """
    sp = np.linspace(0.0, s_max, 4097)
    rp = np.asarray(from_metric(sp), dtype=float)
    rp[0] = 0.0
    with np.errstate(all="ignore"):
        lw = np.asarray(measure.log_weight(rp), dtype=float)
        lsig = np.log(np.sqrt(weight.s2(rp)))
    lrho = np.where(np.isnan(lw + lsig), -np.inf, lw + lsig)
    lq = 0.5 * (lrho - np.max(lrho))
    # widths ~ 1/q with q in [q_max/50, q_max]: the 50:1 width-ratio clip
    q = np.exp(np.maximum(lq, -math.log(_RATIO_CLIP)))
    cum = np.concatenate(
        ([0.0], np.cumsum((sp[1:] - sp[:-1]) * 0.5 * (q[1:] + q[:-1]))))
    cum /= cum[-1]
    edges = np.asarray(_MonotoneCubic(cum, sp)(np.linspace(0.0, 1.0, n + 1)),
                       dtype=float)
    edges[0] = 0.0
    edges[-1] = s_max
    return edges


# ---------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------


def _first_cell_log_mass(measure, r1):
    """log integral_0^{r1} r^{n-1} e^{-V} dr via tau = (r/r1)^n, which
    absorbs the vanishing r^{n-1} factor into the measure exactly.

    In tau the integrand is a function of tau^(1/n), which is not smooth
    at 0, so the rule is composite: 16-point Gauss-Legendre on the dyadic
    panels [2^-k, 2^(1-k)], k = 1.._FIRST_CELL_HALVINGS, and on the
    remaining [0, 2^-_FIRST_CELL_HALVINGS]."""
    n = measure.n
    x, wq = gl_rule(16)
    width = 0.5 ** np.arange(1, _FIRST_CELL_HALVINGS + 1)
    left = np.append(width, 0.0)
    width = np.append(width, width[-1])
    tau = (left[:, None] + width[:, None] * x).ravel()
    vals = -np.asarray(measure.potential.v(r1 * tau ** (1.0 / n)),
                       dtype=float)
    top = float(np.max(vals))
    if not math.isfinite(top):
        raise DiscretizationError(
            "potential is not finite inside the first cell")
    total = float((width[:, None] * wq).ravel() @ np.exp(vals - top))
    return n * math.log(r1) - math.log(n) + top + math.log(total)


def _require_increasing(r, floor=-math.inf):
    if (np.any(~np.isfinite(r)) or not r[0] > floor
            or np.any(np.diff(r) <= 0.0)):
        raise DiscretizationError(
            "mesh degenerated: grid radii are not strictly increasing")


def _mesh_terms(measure, weight, edges, from_metric, wall=False):
    """(log_flux, log_m) of one mesh, given by its natural-coordinate
    edges: the logs of the numerators sigma^2(r_f) w(r_f) of the interior
    face conductances (and, with wall, of the outer wall's face last) and
    of the cell masses, both of the unnormalized density -- every integral
    and density evaluation of an assembly."""
    r_edges = np.asarray(from_metric(edges), dtype=float)
    r_edges[0] = 0.0
    _require_increasing(r_edges)
    faces = r_edges[1:] if wall else r_edges[1:-1]
    log_flux = np.log(weight.s2(faces)) + measure.log_weight(faces)

    log_m = np.empty(edges.size - 1)
    log_m[0] = _first_cell_log_mass(measure, r_edges[1])
    t_lo = np.log(r_edges[1:-1])
    t_hi = np.log(r_edges[2:])

    def log_f(t):
        return np.asarray(measure.log_weight(np.exp(t)), dtype=float) + t

    log_m[1:] = log_integrals_exp(log_f, t_lo, t_hi)
    return log_flux, log_m


def _pencil(edges, log_flux, from_metric, wall=False):
    """The log conductances of one mesh from its _mesh_terms' log_flux:
    the midpoint-face conductances sigma^2(r_f) w(r_f) / (center distance)
    of K = B^T C B.  With wall, the last one is the outer wall's, whose
    distance runs from the last cell center to the wall."""
    s = 0.5 * (edges[:-1] + edges[1:])
    if wall:
        s = np.append(s, edges[-1])
    r = np.asarray(from_metric(s), dtype=float)
    _require_increasing(r, floor=0.0)
    return log_flux - np.log(np.diff(r))


def _nested_pencils(measure, weight, edges, from_metric, wall=False):
    """(log conductances, log masses) of the meshes edges[::4], edges[::2]
    and edges, coarsest first, from one assembly of the finest.

    Each coarse cell is a pair (or a pair of pairs) of fine cells and each
    coarse face a fine edge, so the coarse pencils are restrictions: the
    coarse log masses are logaddexp of fine ones and the coarse face
    numerators a subset of the fine ones.  Only the coarse cell centers,
    and with them the conductances' center distances, are computed anew.
    With wall, every conductance vector ends with the outer wall's face.
    """
    log_flux, log_m = _mesh_terms(measure, weight, edges, from_metric, wall)
    log_m2 = np.logaddexp(log_m[0::2], log_m[1::2])
    log_m4 = np.logaddexp(log_m2[0::2], log_m2[1::2])
    return [(_pencil(edges[::step], log_flux[step - 1::step], from_metric,
                     wall), masses)
            for step, masses in ((4, log_m4), (2, log_m2), (1, log_m))]


# ---------------------------------------------------------------------
# eigenvalue extraction
# ---------------------------------------------------------------------


def _newton_from_below(d, e, sigma):
    """The lowest eigenvalue of the symmetric tridiagonal T with diagonal
    d and off-diagonal e, by Newton's method on det(T - sigma I) from
    sigma, or None.

    Every iterate is certified below lambda_1 by Sylvester's inertia:
    dpttrf's LDL^T factorization of T - sigma I succeeds (info == 0) only
    if that matrix is positive definite.  The forward pivots D+ and the
    pivots D- of the reversed matrix are the two ends of the twisted
    factorizations, so diag((T - sigma I)^{-1})_i is
    1/(D+_i + D-_i - (d_i - sigma)) (Dhillon & Parlett, LAA 387, 2004).
    The step h = 1/tr((T - sigma I)^{-1}) never passes lambda_1, because
    the trace is at least 1/(lambda_1 - sigma).  Once the convergence is
    quadratic, the distance left after a step h that followed a step
    h_prev is about h^3 / h_prev^2; the iteration stops when that is
    below a quarter of bisection's default tolerance eps |T|_1; an
    iterate that fails to factor after a step has met lambda_1 within the
    factorization's backward error, O(eps |T|_1), and is returned too.
    The start is first lowered by eps |T|_1, so that one equal to lambda_1
    to rounding certifies.  A start that fails to factor, a step that is
    not positive or _NEWTON_CAP steps give None.
    """
    abs_e = np.abs(e)
    norm1 = float(np.max(d + np.append(abs_e, 0.0) + np.append(0.0, abs_e)))
    floor = 0.25 * np.finfo(float).eps * norm1
    sigma -= 4.0 * floor
    e_rev = e[::-1]
    h_prev = 0.0  # no first step stops
    # the pivots of a failed factorization are never read, and gamma must
    # be finite and positive before its step is taken, so floating-point
    # warnings are silenced here
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_CAP):
            shifted = d - sigma
            fwd, _, info = dpttrf(shifted, e)
            if not info:
                bwd, _, info = dpttrf(shifted[::-1], e_rev)
            if info:
                return sigma if h_prev else None
            gamma = fwd + bwd[::-1] - shifted
            h = float(1.0 / np.sum(1.0 / gamma))
            if not (gamma.min() > 0.0 and gamma.max() < math.inf and h > 0.0):
                return None
            sigma += h
            if h * h * h <= floor * h_prev * h_prev:
                return sigma
            h_prev = h
    return None


def _ground_state(log_c, log_m, start=None):
    """The spectral gap lambda_1 of K g = lambda M g, as the ground state
    of the flux pencil, given the logs of the conductances C and of the
    cell masses M.

    With K = B^T C B, the nonzero spectrum of M^{-1} K is the spectrum
    of the positive definite (N-1)x(N-1) pencil
    T = C^{1/2} B M^{-1} B^T C^{1/2}, which acts on face fluxes: the
    discrete form of the intertwining that makes the derivative of the
    gap eigenfunction the ground state of a Schroedinger-type operator.
    T needs only the ratios c/m, so the density's normalization cancels.

    Given a start below lambda_1, Newton's method climbs to it from there
    (see _newton_from_below).  Without one, or when Newton gives up,
    LAPACK's bisection (stebz) finds it to eps |T|_1.
    """
    # T_ii = c_i (1/m_i + 1/m_{i+1}), T_{i,i+1} = -sqrt(c_i c_{i+1})/m_{i+1}
    with np.errstate(over="ignore", under="ignore"):
        lo = np.exp(log_c - log_m[:-1])
        hi = np.exp(log_c - log_m[1:])
    d = lo + hi
    e = -np.sqrt(hi[:-1]) * np.sqrt(lo[1:])
    # the one range check: a ratio below the smallest normal double can
    # make e zero, which decouples T; a NaN fails it through d
    if not (min(lo.min(), hi.min()) >= np.finfo(float).tiny
            and d.max() < math.inf):
        raise DiscretizationError(
            "a ratio c/m of the flux pencil left the normal double range")
    if start is not None:
        lam = _newton_from_below(d, e, start)
        if lam is not None:
            return lam
    return eigh_tridiagonal(d, e)


def eigh_tridiagonal(d, e):
    """The lowest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by LAPACK's bisection dstebz to its
    default tolerance eps |T|_1.

    This is the one call that scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(0, 0), lapack_driver="stebz",
    eigvals_only=True) makes; a nonzero info raises ConvergenceError.
    """
    _, w, _, _, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info:
        raise ConvergenceError(
            f"tridiagonal eigenvalue iteration failed: dstebz info={info}")
    return float(w[0])


def _richardson(l0, l1, l2):
    """(value, mesh error) of the eigenvalues of three nested meshes,
    coarsest first: Richardson extrapolation of each finer pair removes
    the O(h^2) error, and a second step across the two extrapolants the
    O(h^4) term.  The mesh error is the two-mesh formula
    |lambda_N - lambda_2N| / 3, so it is conservative for the value."""
    rich_lo = l1 + (l1 - l0) / 3.0
    rich_hi = l2 + (l2 - l1) / 3.0
    return rich_hi + (rich_hi - rich_lo) / 15.0, abs(l2 - l1) / 3.0


def _solve_domain(measure, weight, r_hi, spec, to_metric, from_metric,
                  wall=False):
    """Mesh-extrapolated eigensolve on one domain (0, r_hi): (value,
    mesh_error, robin), the Dirichlet end, the larger mesh error of the
    two ends, and the Robin end or None.

    Only the 2 n_cells mesh is assembled; the n_cells/2 and n_cells
    meshes are its restrictions (see _nested_pencils), and each end is
    extrapolated across the three (see _richardson).  The flux pencil is
    the Dirichlet problem for the flux f.  With wall (an outer wall that
    is not the law's own end) each mesh also solves the Robin pencil, with
    one more unknown, the flux through the wall: its row is the wall
    face's conductance against a ghost cell of mass 2 w(R) / |psi'(R)|,
    the Robin penalty |psi_s| f(S)^2 / (2 rho(S)) written as a mass.
    Where psi'(R) >= 0 that penalty would be negative, and no Robin end
    is solved.

    A domain's first pencil is solved cold, every other by Newton's method
    from the same end's eigenvalue on the mesh before it (below its own on
    every catalog pencil), and the coarsest Dirichlet pencil from the
    Robin one, whose leading block it is: by Cauchy interlacing, below it.
    """
    slope = (float(_potentials(measure, weight, np.array([r_hi]))[2][0])
             if wall else 0.0)
    wall = slope < 0.0
    ghost = (math.log(2.0 / -slope) + float(measure.log_weight(r_hi))
             if wall else None)
    edges = _mesh(measure, weight, from_metric, float(to_metric(r_hi)),
                  2 * spec.n_cells)
    pencils = _nested_pencils(measure, weight, edges, from_metric, wall)
    dirichlet, robin = [], []
    for log_c, log_m in pencils:
        start = dirichlet[-1] if dirichlet else None
        if wall:
            robin.append(_ground_state(log_c, np.append(log_m, ghost),
                                       robin[-1] if robin else None))
            log_c = log_c[:-1]
            start = start if dirichlet else robin[0]
        dirichlet.append(_ground_state(log_c, log_m, start))
    value, mesh_error = _richardson(*dirichlet)
    if not robin:
        return value, mesh_error, None
    lower, robin_error = _richardson(*robin)
    return value, max(mesh_error, robin_error), lower


def _potentials(measure, weight, r):
    """(W, W~, psi') at the radii r.  psi = log(w sigma) is the log
    density of the law in the natural coordinate s, with
        psi' = (n-1)/r - V' + (sigma^2)'/(2 sigma^2),
        psi'' = -(n-1)/r^2 - V'' + (sigma^2)''/(2 sigma^2)
                - ((sigma^2)')^2 / (2 (sigma^2)^2)
    in r, and W = psi_s^2/4 + psi_ss/2 and W~ = psi_s^2/4 - psi_ss/2 are
    the Schroedinger potentials of the gap eigenfunction and of its flux:
    sigma^2 psi'^2/4 +- ((sigma^2)' psi'/4 + sigma^2 psi''/2)."""
    nm1, pot = measure.n - 1, measure.potential
    with np.errstate(all="ignore"):
        s2, ds2 = weight.s2(r), weight.ds2(r)
        g = ds2 / s2
        psi1 = nm1 / r - pot.dv(r) + 0.5 * g
        psi2 = (-nm1 / (r * r) - pot.d2v(r) + 0.5 * weight.d2s2(r) / s2
                - 0.5 * g * g)
        kinetic = 0.25 * s2 * psi1 * psi1
        w = kinetic + 0.25 * ds2 * psi1 + 0.5 * s2 * psi2
        w_flux = kinetic - 0.25 * ds2 * psi1 - 0.5 * s2 * psi2
    return np.asarray(w, dtype=float), np.asarray(w_flux, dtype=float), psi1


def _tail_floor(measure, weight, r_hi):
    """inf over r >= r_hi of the flux potential W~, read on steps of at
    most half a decade from r_hi to max(1e3 r_hi, _EDGE_LADDER's last
    rung), never past _R_CAP: the least rung, less the last step while W~
    still falls there, which covers an approach to its limit as slow as
    1/r.  It assumes W~ has no dip narrower than half a decade past r_hi.
    Rungs where W~ is NaN or +inf are skipped; with none left the floor
    is +inf."""
    top = min(max(1e3 * r_hi, _EDGE_LADDER[-1]), _R_CAP)
    count = math.ceil(2.0 * math.log10(top / r_hi)) + 1
    w_flux = _potentials(measure, weight, np.geomspace(r_hi, top, count))[1]
    w_flux = w_flux[w_flux < math.inf]
    if w_flux.size == 0:
        return math.inf
    floor = float(np.min(w_flux))
    if w_flux.size >= 2 and w_flux[-1] < w_flux[-2]:
        floor -= float(w_flux[-2] - w_flux[-1])
    return floor


def essential_edge(measure, weight):
    """(w_inf, err): the bottom of the essential spectrum of the radial
    generator, read from its Schroedinger potential.

    In the natural coordinate the ground-state transform of the generator
    is -d^2/ds^2 + W (see _potentials), and the essential spectrum starts
    at W_inf = lim W.  W is evaluated on the decade ladder _EDGE_LADDER:
    w_inf is its last rung and err the change over the last decade, which
    covers an approach as slow as 1/r.
    Returns (inf, 0) for a bounded law, where the spectrum is discrete,
    and wherever the ladder does not show a limit: W overflows, or one of
    its increments is not at most half the one before (nor lost in
    rounding), so W grows or settles too slowly to be read.  An infinite
    edge leaves spectral_gap as it would be without one.
    """
    if math.isfinite(measure.potential.domain_end):
        return math.inf, 0.0
    w = _potentials(measure, weight, _EDGE_LADDER)[0]
    if not np.all(np.isfinite(w)):
        return math.inf, 0.0
    steps = np.abs(np.diff(w))
    noise = 1e-12 * float(np.max(np.abs(w)))
    if np.any(steps[1:] > np.maximum(0.5 * steps[:-1], noise)):
        return math.inf, 0.0
    return float(w[-1]), float(steps[-1])


def spectral_gap(measure, weight, opts=None):
    """Spectral gap of the weighted radial generator, with error control.

    Every domain is solved on three nested meshes (see _solve_domain).  A
    bounded law is solved once, on its whole domain.  On an unbounded
    law, the domain (0, R) of natural length S brackets the gap (Neumann
    bracketing; Reed & Simon IV, XIII.15):
      - upper = min(Dirichlet end, W_inf): the flux extended by zero past
        S lies in the whole line's form domain, and no gap lies above the
        essential-spectrum edge W_inf (see essential_edge);
      - lower = min(Robin end, inf_{s >= S} W~): with f = rho^(1/2) h the
        flux form is int (h_s^2 + W~ h^2) ds, and splitting it at S with
        free ends leaves the Robin problem f_s = (psi_s / 2) f on (0, S)
        and the floor of W~ past S (see _tail_floor).
    While the width upper - lower exceeds a hundredth of the mesh error,
    the domain doubles its natural length, up to the representable radius
    and at most _MAX_GROWTH times.  The estimate is upper, charged the
    width (upper - lower)^+, the mesh error and, when it is W_inf,
    W_inf's error; TruncationWarning, naming the case, fires when the
    width of an accepted estimate exceeds its mesh error.

    Raises HypothesisFailed ("no spectral gap") when W_inf is zero within
    its error, before any domain is solved.  Raises ConvergenceError
    ("spectral gap not resolved") when the estimate does not exceed its
    own error: W_inf is then positive, so a gap exists (Persson).
    """
    spec = opts if opts is not None else GridSpec()
    if not isinstance(spec, GridSpec):
        raise InvalidInput("opts must be a GridSpec")
    validate_weight(measure, weight)
    edge, edge_err = essential_edge(measure, weight)
    if abs(edge) <= edge_err:
        raise HypothesisFailed(
            f"no spectral gap: the essential spectrum starts at "
            f"{edge:.3e}, zero within its error {edge_err:.3e}")
    r_last, r_cap = _radii(measure)
    to_metric, from_metric = _metric_maps(weight, min(r_cap, _R_CAP))
    s_last, s_cap = float(to_metric(r_last)), float(to_metric(r_cap))
    wall = not math.isfinite(measure.potential.domain_end)
    domains = []
    while True:
        val, mesh_err, robin = _solve_domain(measure, weight, r_last, spec,
                                             to_metric, from_metric, wall)
        domains.append(r_last)
        upper = lower = min(val, edge)
        if wall:
            lower = (0.0 if robin is None else
                     min(robin, _tail_floor(measure, weight, r_last)))
        width = max(upper - lower, 0.0)
        if (width <= 0.01 * mesh_err or len(domains) > _MAX_GROWTH
                or s_last >= s_cap * (1.0 - 1e-9)):
            break
        s_last = min(2.0 * s_last, s_cap)
        r_last = float(from_metric(s_last))

    at_edge = edge < val
    error = width + mesh_err + (edge_err if at_edge else 0.0)
    value = max(float(upper), 0.0)
    if not value > error:
        raise ConvergenceError(
            f"spectral gap not resolved: lambda_1 = {value:.3e} does not "
            f"exceed its error {error:.3e} on the domain (0, {r_last:.6g})")
    if width > mesh_err:
        warnings.warn(TruncationWarning(
            f"{measure.name or '<anon>'}: the truncation bracket "
            f"[{lower:.6g}, {upper:.6g}] of the spectral gap on the domain "
            f"(0, {r_last:.6g}) is {width:.3e} wide, more than its mesh "
            f"error {mesh_err:.3e}"))
    return GapEstimate(value=value, error_estimate=float(error),
                       n_cells_used=2 * spec.n_cells, r_max_used=r_last,
                       lower=float(lower), upper=float(upper),
                       domains=tuple(domains), at_edge=at_edge)


# ---------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------


def residual_check(measure, weight, f, lam):
    """Sup-norm residual of the eigenpair equation on a diagnostic grid.

    Evaluates sup_r |sigma^2 f'' + b f' + lam (f - c)| / (1 + |f - c|)
    over the quantile grid of nu.  For lam > 0 the additive constant is
    pinned by the eigenvalue equation itself, so c is the nu-mean of f
    (the mean-zero representative); for lam = 0 the equation only sees
    f up to affine shifts and c minimizes the sup norm directly.  The
    drift b is written out here from V and sigma^2, independently of the
    bounds engine.
    """
    lam = _finite_real("lam", lam)
    if lam < 0.0:
        raise InvalidInput(f"lam must be nonnegative, got {lam!r}")
    grid = diagnostic_grid(measure, count=401)
    with np.errstate(all="ignore"):
        s2 = np.asarray(weight.s2(grid), dtype=float)
        f0 = np.asarray(f.f(grid), dtype=float)
        f1 = np.asarray(f.df(grid), dtype=float)
        f2 = np.asarray(f.d2f(grid), dtype=float)
        du = measure.potential.dv(grid) - (measure.n - 1) / grid
        bv = np.asarray(weight.ds2(grid) - s2 * du, dtype=float)
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
