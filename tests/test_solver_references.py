"""The default catalog solve against every case with a reference value.

References, 39 cases:

  catalog exact   the radial gaps that catalog.reference_gap records as
                  exact: 2 for the Gaussian and exp-power alpha = 2 with
                  the unit weight, and the sixteen heavy tails with
                  sigma^2 = 1 + r^2
  exp-power a=1   n/(n+1)^2, eigenfunction (1 - r/(n+1)) e^(r/(n+1)),
                  written out here independently of the catalog
  ball            j_{n/2,1}^2, from mpmath's Bessel zeros
  gaussian n=6    sigma^2 = 1/(1+r^2): 0.176014981, where the 2048- and
                  4096-cell solves agree to 3e-10 relative and an
                  independent shooting integration of the radial ODE
                  agrees too; its gap sits just below the
                  essential-spectrum edge 1/4, so its domain trace is long

Every solve must contain its reference within its reported error.  The
closed forms and the gaussian n=6 value are smooth-law cases that the
solver resolves to far below its error, so they are also held to 1e-7
relative.

The answer is always a value the solver computed: the upper end of its
truncation bracket, which is the last domain's Dirichlet end or the
essential-spectrum edge.  The bracket's width only widens the error.

The eight heavy tails with t = beta - n/2 <= 2 have their gap at the
essential-spectrum edge t^2; the solver returns it after one domain,
whose lower end, the floor of the flux potential, meets the edge.  Laws
whose gap lies just below an edge keep their Dirichlet ends, pinned to
1e-8 relative, inside their errors.  Coarse meshes, where the domain
doubling of the past coarsened the mesh, hold every referenced law, and
the large-n cauchy laws, within their errors.
"""

import math
import warnings

import mpmath
import pytest

from specgap import TruncationWarning
from specgap.catalog import FamilySpec, catalog_grid, make_family, reference_gap
from specgap.errors import InvalidInput
from specgap import sl_eigensolver
from specgap.sl_eigensolver import GridSpec, spectral_gap

_GAUSS6_INV = FamilySpec("gaussian", 6, "inv_one_plus_r2")
_GAUSS6_INV_REF = 0.176014981


def _referenced_cases():
    """[(spec, reference, tight)] for every catalog case with a reference;
    tight marks those held to 1e-7 relative.  Ball references are the
    order n/2 of mpmath's Bessel zero, computed in the test."""
    cases = []
    for spec in catalog_grid():
        if spec.family == "uniform_ball":
            cases.append((spec, None, True))
        elif spec.family == "exponential_power" and spec.alpha == 1.0:
            cases.append((spec, spec.n / (spec.n + 1.0) ** 2, True))
        elif spec == _GAUSS6_INV:
            cases.append((spec, _GAUSS6_INV_REF, True))
        else:
            try:
                ref = reference_gap(spec, "radial")
            except InvalidInput:
                continue
            if ref.kind == "exact":
                cases.append((spec, ref.value, False))
    return cases


_CASES = _referenced_cases()


def test_referenced_case_count():
    assert len(_CASES) == 39
    assert sum(tight for *_, tight in _CASES) == 11


@pytest.mark.parametrize("spec,ref,tight", _CASES,
                         ids=[spec.label() for spec, *_ in _CASES])
def test_default_solve_matches_reference(gap_of, spec, ref, tight):
    if ref is None:
        ref = float(mpmath.besseljzero(spec.n / 2.0, 1) ** 2)
    est = gap_of(spec)
    actual = abs(est.value - ref)
    assert actual <= est.error_estimate, (est, ref)
    assert actual <= 5e-6 * ref, (est, ref)
    if tight:
        assert actual <= 1e-7 * ref, (est, ref)


def test_gaussian_n6_inverse_weight_returns_one_domain_at_two_meshes(gap_of):
    # the estimate is the last domain of the trace, and the trace itself
    # does not depend on the mesh here: 1024 and 2048 cells end on the
    # same domain
    measure, weight, _ = make_family(_GAUSS6_INV)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fine = spectral_gap(measure, weight, GridSpec(n_cells=2048))
    default = gap_of(_GAUSS6_INV)
    assert math.isclose(default.r_max_used, fine.r_max_used, rel_tol=1e-12)
    assert abs(fine.value - _GAUSS6_INV_REF) <= 1e-8 * _GAUSS6_INV_REF


_EDGE_LAWS = [spec for spec in catalog_grid()
              if spec.family == "generalized_cauchy"
              and spec.beta - spec.n / 2.0 <= 2.0]


@pytest.mark.parametrize("spec", _EDGE_LAWS,
                         ids=[spec.label() for spec in _EDGE_LAWS])
def test_edge_law_stops_at_the_edge_in_three_domains(monkeypatch, spec):
    # the domain doubling needed three domains to stop at the edge; the
    # bracket closes on the first: its Dirichlet end lies above the edge
    # t^2, which is the value, and its lower end meets t^2 within the
    # mesh error
    solves = []
    real = sl_eigensolver._solve_domain

    def spy(*args):
        solves.append(args[2])
        return real(*args)

    monkeypatch.setattr(sl_eigensolver, "_solve_domain", spy)
    measure, weight, _ = make_family(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        est = spectral_gap(measure, weight)
    t = spec.beta - spec.n / 2.0
    assert len(solves) == 1 and est.domains == tuple(solves)
    assert est.at_edge and abs(est.value - t * t) <= 1e-12 * t * t, est
    assert t * t - est.lower <= est.error_estimate, est
    assert est.r_max_used == solves[-1]


# each of these laws ends on its last domain's Dirichlet end near an edge
# it lies below (gaussian sigma^2 = 1/(1+r^2) and exp-power alpha = 1:
# 1/4; cauchy t = 2.5: 6.25), with its reference where one is known
_BELOW_THE_EDGE = {
    FamilySpec("gaussian", 2, "inv_one_plus_r2"): (0.24621134909637588, None),
    FamilySpec("exponential_power", 2, "unit", alpha=1.0):
        (0.22222222478767928, 2.0 / 9.0),
    FamilySpec("generalized_cauchy", 2, "one_plus_r2", beta=3.5):
        (5.999999019428281, 6.0),
    FamilySpec("generalized_cauchy", 3, "one_plus_r2", beta=4.0):
        (5.99999872578252, 6.0),
    FamilySpec("generalized_cauchy", 4, "one_plus_r2", beta=4.5):
        (5.9999988754225555, 6.0),
    FamilySpec("generalized_cauchy", 6, "one_plus_r2", beta=5.5):
        (5.999998630288553, 6.0),
}


@pytest.mark.parametrize("spec", list(_BELOW_THE_EDGE),
                         ids=[spec.label() for spec in _BELOW_THE_EDGE])
def test_law_below_the_edge_keeps_its_value(gap_of, spec):
    pinned, ref = _BELOW_THE_EDGE[spec]
    est = gap_of(spec)
    measure, weight, _ = make_family(spec)
    assert est.value != sl_eigensolver.essential_edge(measure, weight)[0]
    assert not est.at_edge and est.lower <= est.value == est.upper
    assert abs(est.value - pinned) <= 1e-8 * pinned, est
    if ref is not None:
        assert abs(est.value - ref) <= est.error_estimate, est


_T25_LAWS = [spec for spec in catalog_grid()
             if spec.family == "generalized_cauchy"
             and spec.weight_choice == "one_plus_r2"
             and spec.beta - spec.n / 2.0 == 2.5]


@pytest.mark.parametrize("spec", _T25_LAWS,
                         ids=[spec.label() for spec in _T25_LAWS])
def test_coarse_mesh_near_the_edge_covers_the_gap(spec):
    # at 256 cells a loose inverse-square fit of the domain trace once
    # snapped beta = 4.5 n = 4 to the edge 6.25, covering the gap 6 by
    # only 1.01x its error.  Every t = 2.5 law now returns a Dirichlet end
    # below the edge, whose error reaches the gap
    measure, weight, _ = make_family(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        est = spectral_gap(measure, weight, GridSpec(n_cells=256))
    assert not est.at_edge and est.value < 6.25, est
    assert abs(est.value - 6.0) <= est.error_estimate, est


_REFERENCES = {spec.label(): ref for spec, ref, _ in _CASES
               if ref is not None}


@pytest.mark.parametrize("n_cells", [1024, 512, 256, 128, 64])
def test_estimate_is_the_last_domain_or_the_edge(monkeypatch, n_cells):
    # bit for bit: no extrapolated value is ever returned, only the last
    # domain's Dirichlet end or the edge.  At every mesh no estimate is
    # refused or fails the truncation audit, exactly the eight edge laws
    # return their edge, and every referenced unbounded law contains its
    # reference.  A 62-case sweep at 1024 cells solves at most 80 domains
    # (137 with the domain-doubling audit)
    values = []
    real = sl_eigensolver._solve_domain

    def spy(*args):
        out = real(*args)
        values.append(out[0])
        return out

    monkeypatch.setattr(sl_eigensolver, "_solve_domain", spy)
    solves, at_edge = 0, set()
    for spec in catalog_grid():
        label = spec.label()
        measure, weight, _ = make_family(spec)
        values.clear()
        edge, _ = sl_eigensolver.essential_edge(measure, weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            est = spectral_gap(measure, weight, GridSpec(n_cells=n_cells))
        solves += len(values)
        assert est.value == min(values[-1], edge), (label, est)
        assert est.at_edge == (est.value == edge != values[-1]), (label, est)
        if est.at_edge:
            at_edge.add(label)
        if label in _REFERENCES:
            ref = _REFERENCES[label]
            assert abs(est.value - ref) <= est.error_estimate, (label, est)
    assert at_edge == {spec.label() for spec in _EDGE_LAWS}
    if n_cells == 1024:
        assert solves <= 80, solves


# coarse-mesh traces that end unsettled on an inverse-square fit far
# from their last domain: (spec, n_cells, exact gap)
_MENDED = [
    (FamilySpec("exponential_power", 3, "unit", alpha=1.0), 128, 3.0 / 16.0),
    (FamilySpec("generalized_cauchy", 6, "one_plus_r2", beta=7.5), 256, 14.0),
    (FamilySpec("generalized_cauchy", 128, "one_plus_r2", beta=68.5), 128,
     14.0),
    (FamilySpec("generalized_cauchy", 256, "one_plus_r2", beta=132.5), 128,
     14.0),
]


@pytest.mark.parametrize("spec,n_cells,exact", _MENDED,
                         ids=[f"{spec.label()} cells={c}"
                              for spec, c, _ in _MENDED])
def test_unsettled_coarse_trace_covers_its_gap(spec, n_cells, exact):
    measure, weight, _ = make_family(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        est = spectral_gap(measure, weight, GridSpec(n_cells=n_cells))
    assert abs(est.value - exact) <= est.error_estimate, est


# the coarse-mesh defects of the domain-doubling loop, each with its gap:
# gaussian n=2 with sigma^2 = 1/(1+r^2) snapped to the edge 1/4 at 64 and
# 128 cells, and cauchy beta=5.5 n=6 gave 4.27 +- 1.70 at 64 cells
_COARSE = [
    (FamilySpec("gaussian", 2, "inv_one_plus_r2"), 64, 0.2462113),
    (FamilySpec("gaussian", 2, "inv_one_plus_r2"), 128, 0.2462113),
    (FamilySpec("generalized_cauchy", 6, "one_plus_r2", beta=5.5), 64, 6.0),
]


@pytest.mark.parametrize("spec,n_cells,gap", _COARSE,
                         ids=[f"{spec.label()} cells={c}"
                              for spec, c, _ in _COARSE])
def test_coarse_mesh_returns_a_value_below_the_edge(spec, n_cells, gap):
    measure, weight, _ = make_family(spec)
    est = spectral_gap(measure, weight, GridSpec(n_cells=n_cells))
    assert not est.at_edge, est
    assert abs(est.value - gap) <= est.error_estimate, est


# cauchy sigma^2 = 1+r^2 far past the catalog's dimensions: t = 4.5 (gap
# 14) and t = 2.5 (gap 6, below the edge 6.25).  The doubling loop missed
# t = 2.5 at 64 cells and refused beta=132.5 n=256 there
_LARGE_N = [(n, n / 2.0 + t, gap) for t, gap, dims in
            ((4.5, 14.0, (128, 256, 1024)), (2.5, 6.0, (128, 512)))
            for n in dims]


@pytest.mark.parametrize("n_cells", [64, 128, 256])
@pytest.mark.parametrize("n,beta,gap", _LARGE_N,
                         ids=[f"n={n} beta={beta:g}" for n, beta, _ in _LARGE_N])
def test_large_n_cauchy_contains_its_gap(n, beta, gap, n_cells):
    measure, weight, _ = make_family(
        FamilySpec("generalized_cauchy", n, "one_plus_r2", beta=beta))
    est = spectral_gap(measure, weight, GridSpec(n_cells=n_cells))
    assert abs(est.value - gap) <= est.error_estimate, est
