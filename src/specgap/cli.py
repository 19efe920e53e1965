"""Command-line driver for the spectral-gap toolkit.

Five subcommands, all emitting one machine-readable run report (JSON by
default, CSV with ``--format csv``):

  bounds   closed-form brackets and one-sided bounds for one catalog case
  eigen    finite-volume eigensolve of the weighted radial dynamics
  verify   cross-validation sweeps (closed forms vs. solver, inequalities)
  table    reproduction tables over parameter grids
  sample   Monte Carlo Rayleigh quotient with a 95% confidence interval

Examples::

  specgap bounds --family cauchy --beta 4 --n 3 --weight one-plus-r2
  specgap eigen  --family gaussian --n 5
  specgap verify --scope gamma-inequalities
  specgap table  --id exp-power-asymptotics --alphas 1,2,4 --dims 4..32
  specgap sample --family gaussian --n 3 --function linear --seed 7

Every command accepts ``--seed`` (default 0), ``--tail-tol`` (default
1e-12) and ``--cells`` (default 1024); unused knobs are simply echoed in
the report's ``inputs`` block.  ``--cells`` is read, and checked, only by
the commands that solve (eigen, verify, table without ``--no-solve``).
One run handles each case once: a catalog case that several sweeps read
is built, referenced and solved at most once per ``main`` call, and
nothing is kept between calls.  Reports share one fixed CSV column set::

  record,name,family,weight,n,alpha,beta,value,error,lower,upper,scaling,source,detail

so rows from different commands concatenate into one plot-ready file.
Infinite endpoints are serialized as null (empty CSV cell); floats use
``repr`` so a JSON/CSV round trip is lossless.

Exit status: 0 success (possibly with warnings), 1 numerical failure or
verification violation, 2 invalid usage or invalid input.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings as _warnings

import numpy as np

from . import catalog
from .bounds_engine import (LowerBound, curvature_lower, exp_power_explicit,
                            gamma_ratio_bounds, moment_bracket,
                            radial_moment_lower, rayleigh_upper,
                            spectral_comparison, variational_lower,
                            weighted_comparison, weighted_curvature_lower)
from .errors import (ConvergenceError, DegenerateFunction,
                     DiscretizationError, DomainError, HypothesisFailed,
                     InvalidInput, NonIntegrable, SpecGapError)
from .mc_sampler import (_check_batches, radial_rayleigh_estimate,
                         rayleigh_estimate, sample_mu)
from .radial_model import moment, weighted_moment
from .sl_eigensolver import GridSpec, essential_edge, spectral_gap

_CSV_HEADER = ("record", "name", "family", "weight", "n", "alpha", "beta",
               "value", "error", "lower", "upper", "scaling", "source",
               "detail")

# CLI spellings -> catalog keys.
_CLI_FAMILY = {
    "exp-power": "exponential_power",
    "ball": "uniform_ball",
    "cauchy": "generalized_cauchy",
    "gaussian": "gaussian",
}
_CLI_WEIGHT = {
    "unit": "unit",
    "one-plus-r2": "one_plus_r2",
    "inv-one-plus-r2": "inv_one_plus_r2",
}

_VERIFY_SCOPES = ("all", "cauchy-exact", "gamma-inequalities", "bracketing")

_DEFAULT_TAIL_TOL = 1e-12


# ---------------------------------------------------------------------
# report assembly and rendering
# ---------------------------------------------------------------------


def _num(x):
    """float(x), with non-finite values mapped to None for JSON/CSV."""
    if x is None:
        return None
    x = float(x)
    if not math.isfinite(x):
        return None
    return x


def _record(kind, name, spec=None, alpha=None, beta=None, value=None,
            error=None, lower=None, upper=None, scaling=None, source="",
            detail=""):
    """One report row; a FamilySpec, when given, fills the case columns."""
    family, weight, n = "", "", None
    if spec is not None:
        family, weight = spec.family, spec.weight_choice
        n, alpha, beta = spec.n, spec.alpha, spec.beta
    return {
        "record": kind,
        "name": name,
        "family": family,
        "weight": weight,
        "n": None if n is None else int(n),
        "alpha": _num(alpha),
        "beta": _num(beta),
        "value": _num(value),
        "error": _num(error),
        "lower": _num(lower),
        "upper": _num(upper),
        "scaling": _num(scaling),
        "source": source,
        "detail": detail,
    }


def _report(command, inputs, records, warning_list, error):
    status = "error" if error else ("warning" if warning_list else "ok")
    return {
        "command": command,
        "inputs": inputs,
        "records": list(records),
        "status": status,
        "warnings": list(warning_list),
        "error": error,
    }


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for rec in report["records"]:
        writer.writerow([_cell(rec[col]) for col in _CSV_HEADER])
    return buf.getvalue()


def _emit(report, args):
    text = _render(report, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_ECHO_SKIP = frozenset(("command", "format", "output", "func"))


def _inputs_echo(args):
    """The parsed inputs, with non-finite float flags echoed as null."""
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in _ECHO_SKIP or val is None:
            continue
        out[key] = _num(val) if isinstance(val, float) else val
    return out


# ---------------------------------------------------------------------
# one case per run
# ---------------------------------------------------------------------


def _spec_from_args(args):
    family = _CLI_FAMILY[args.family]
    weight = _CLI_WEIGHT[args.weight]
    return catalog.FamilySpec(family=family, n=args.n, weight_choice=weight,
                              alpha=args.alpha, beta=args.beta)


def _reraise(outcome):
    """outcome, unless it is a SpecGapError that stands in for a value."""
    if isinstance(outcome, SpecGapError):
        raise outcome
    return outcome


class _Case:
    """One FamilySpec within one run.  Its law, references, second moment
    and solve are each computed at most once, on first use; a failed
    second moment or solve keeps its SpecGapError."""

    def __init__(self, spec, args):
        self.spec = spec
        self.args = args

    @functools.cached_property
    def law(self):
        """(measure, weight, candidate) at the run's --tail-tol."""
        return catalog.make_family(self.spec, tail_tol=self.args.tail_tol)

    @functools.cached_property
    def refs(self):
        """{"radial": ref, "full": ref}, with None where nothing is
        recorded."""
        refs = {}
        for which in ("radial", "full"):
            try:
                refs[which] = catalog.reference_gap(self.spec, which)
            except InvalidInput:
                refs[which] = None
        return refs

    @functools.cached_property
    def reference_records(self):
        records = []
        for which, ref in self.refs.items():
            if ref is None:
                continue
            if ref.kind == "exact":
                value, lower, upper = ref.value, ref.value, ref.value
            else:
                value, lower, upper = None, ref.lower, ref.upper
            records.append(_record(
                "reference", f"reference_{which}", self.spec, value=value,
                lower=lower, upper=upper, scaling=ref.order_exponent,
                source=ref.source,
                detail=f"{ref.kind} reference for the {which} dynamics"))
        return tuple(records)

    @functools.cached_property
    def _m2(self):
        try:
            return moment(self.law[0], 2)
        except SpecGapError as exc:
            return exc

    def second_moment(self):
        return _reraise(self._m2)

    @functools.cached_property
    def solved(self):
        """(the GapEstimate, or the SpecGapError the solve raised; the
        warnings it emitted, as a set of notes).  --cells is read here."""
        opts = GridSpec(n_cells=self.args.cells)
        with _warnings.catch_warnings(record=True) as rec:
            _warnings.simplefilter("always")
            measure, weight, _ = self.law
            try:
                est = spectral_gap(measure, weight, opts)
            except SpecGapError as exc:
                est = exc
        return est, {f"{w.category.__name__}: {w.message}" for w in rec}

    def gap(self):
        return _reraise(self.solved[0])


def _notes(cases):
    """The sorted union of the cases' solve warnings."""
    return sorted(set().union(*(case.solved[1] for case in cases)))


def _bracket_record(name, spec, bracket, detail):
    return _record(
        "bound", name, spec, lower=bracket.lower, upper=bracket.upper,
        source=f"{bracket.lower_source} | {bracket.upper_source}",
        detail=detail)


def _one_sided_record(name, spec, bound, detail):
    """A LowerBound's record, or a Rayleigh upper bound's."""
    if not isinstance(bound, LowerBound):
        return _record("bound", name, spec, upper=bound,
                       source="Rayleigh quotient of the designated candidate",
                       detail=detail)
    extra = []
    if not bound.informative:
        extra.append(f"non-informative ({bound.void_reason})")
    if bound.grid_inf:
        extra.append("grid infimum, not a certified global infimum")
    if extra:
        detail = f"{detail}; {'; '.join(extra)}"
    return _record("bound", name, spec, value=bound.value, lower=bound.value,
                   source=bound.method, detail=detail)


# ---------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------


def cmd_bounds(args, case_of):
    case = case_of(_spec_from_args(args))
    spec = case.spec
    measure, weight, cand = case.law
    records = list(case.reference_records)
    notes = []

    def attempt(label, fn):
        try:
            return fn()
        except (HypothesisFailed, NonIntegrable, DegenerateFunction) as exc:
            notes.append(f"{label} unavailable: {exc}")
            return None
        except (ConvergenceError, DiscretizationError) as exc:
            notes.append(f"{label} numerically unavailable: {exc}")
            return None

    radial = case.refs["radial"]
    exact = (radial.value if radial is not None and radial.kind == "exact"
             else None)

    # the second-moment brackets bound the unweighted dynamics only
    nonunit = spec.weight_choice != "unit"
    m2 = attempt("second-moment bracket", case.second_moment)
    if m2 is not None:
        caveat = ""
        if not measure.potential.convex:
            caveat = ("; the lower endpoint assumes a convex radial "
                      "potential, which this measure does not satisfy -- "
                      "reported for reference only")
        elif nonunit:
            caveat = ("; the weight is not unit -- reported for reference "
                      "only")
        records.append(_bracket_record(
            "moment_bracket", spec, moment_bracket(spec.n, m2),
            detail=(f"brackets the spectral gap of the unweighted dynamics; "
                    f"second moment m2={m2!r}{caveat}")))

    if spec.family == "exponential_power":
        pair = exp_power_explicit(spec.n, spec.alpha)
        aside = ("; it brackets the unweighted dynamics -- reported for "
                 "reference only" if nonunit else "")
        records.append(_bracket_record(
            "exp_power_explicit", spec, pair.exact,
            detail=("exact Gamma-ratio form of the second-moment bracket"
                    + aside)))
        records.append(_bracket_record(
            "exp_power_simplified", spec, pair.simplified,
            detail=("dimension-power simplification enclosing the exact form"
                    + aside)))

    if nonunit:
        if exact is not None:
            def weighted():
                m_r2s2 = weighted_moment(measure, weight, "r2_over_s2")
                m_s2 = weighted_moment(measure, weight, "s2")
                return weighted_comparison(exact, spec.n, m_r2s2, m_s2,
                                           case.second_moment())
            bracket = attempt("weighted comparison", weighted)
            if bracket is not None:
                records.append(_bracket_record(
                    "weighted_comparison", spec, bracket,
                    detail=("brackets the full weighted gap from the exact "
                            f"weighted radial gap {exact!r}")))
        else:
            notes.append(
                "weighted comparison unavailable: no exact weighted radial "
                "gap is tabulated for this case; run eigen for a numerical "
                "value")
    elif m2 is not None and exact is not None:
        records.append(_bracket_record(
            "spectral_comparison", spec,
            spectral_comparison(exact, spec.n, m2),
            detail=("brackets the full gap from the exact radial gap "
                    f"{exact!r} and the angular moment bound")))

    # One-sided bounds, in report order: (record name, note label, bound,
    # detail).  The two unweighted routes apply to the unit weight only.
    routes = []
    if spec.weight_choice == "unit":
        if measure.potential.convex:
            rml_detail = "lower-bounds the radial spectral gap"
        else:
            rml_detail = ("assumes a convex radial potential, which this "
                          "measure does not satisfy -- reported for "
                          "reference only, not a certified bound")
        routes += [
            ("curvature_lower", "integrated-curvature lower bound",
             lambda: curvature_lower(measure),
             ("lower-bounds the radial spectral gap via the harmonic mean "
              "of the radial well's curvature")),
            ("radial_moment_lower", "radial moment lower bound",
             lambda: radial_moment_lower(spec.n, case.second_moment()),
             rml_detail),
        ]
    routes += [
        ("weighted_curvature_lower", "weighted-curvature lower bound",
         lambda: weighted_curvature_lower(measure, weight),
         "lower-bounds the weighted radial spectral gap"),
        ("variational_lower", "variational lower bound",
         lambda: variational_lower(measure, weight, cand),
         ("lower-bounds the weighted radial spectral gap via the "
          "designated candidate's variational potential")),
        ("rayleigh_upper", "Rayleigh upper bound",
         lambda: rayleigh_upper(measure, weight, cand),
         "upper-bounds the weighted radial spectral gap"),
    ]
    for name, label, bound, detail in routes:
        got = attempt(label, bound)
        if got is not None:
            records.append(_one_sided_record(name, spec, got, detail))
    return records, notes, []


# ---------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------


_SOLVER_SOURCE = ("finite-volume Sturm-Liouville eigensolve with Richardson "
                  "extrapolation")


def cmd_eigen(args, case_of):
    case = case_of(_spec_from_args(args))
    est = case.gap()
    domains = ", ".join(f"{r:.6g}" for r in est.domains)
    records = [_record(
        "solver", "spectral_gap", case.spec, value=est.value,
        error=est.error_estimate, lower=est.lower, upper=est.upper,
        source=_SOLVER_SOURCE,
        detail=(f"n_cells_used={est.n_cells_used}; "
                f"r_max_used={est.r_max_used!r}; "
                f"domains_solved={len(est.domains)} (r_max {domains}); "
                "value=" + ("W_inf, the essential-spectrum edge" if est.at_edge
                            else "the last domain's Dirichlet end")
                + "; lower and upper are the truncation bracket's ends; "
                "grading=graded"))]
    records.extend(case.reference_records)
    return records, _notes([case]), []


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------


def _check(records, failures, name, spec=None, *, ok, detail, failure,
           **fields):
    """Add one "check" record, its detail read as "pass; detail" or
    "FAIL: detail", and the failure line when the check failed."""
    if not ok:
        failures.append(failure)
    records.append(_record("check", name, spec,
                           detail=("pass; " if ok else "FAIL: ") + detail,
                           **fields))


def _solved(records, failures, name, case, source):
    """The case's GapEstimate; or, when its solve raised, None, after a
    failing check record that names the SpecGapError."""
    est = case.solved[0]
    if isinstance(est, SpecGapError):
        _check(records, failures, name, case.spec, ok=False,
               detail=f"solver raised {type(est).__name__}: {est}",
               failure=f"solver failed on {case.spec.label()}: {est}",
               source=source)
        return None
    return est


def _exact_fit(est, truth):
    """(relative error, ok) of a solved gap against an exact value: ok
    within 1e-3 relative or within three of the solve's reported errors."""
    rel = abs(est.value - truth) / max(truth, 1e-30)
    tol = max(3.0 * est.error_estimate, 1e-9 * (1.0 + est.value))
    return rel, rel <= 1e-3 or abs(est.value - truth) <= tol


def _verify_gamma(records, failures):
    grid_a = (0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
    grid_b = tuple(0.25 * k for k in range(9))
    source = "elementary Gamma-ratio bounds"
    for a in grid_a:
        for b in grid_b:
            where = f"gamma_ratio a={a} b={b}"
            try:
                lower, value, upper = gamma_ratio_bounds(a, b)
            except InvalidInput as exc:
                _check(records, failures, "gamma_ratio", ok=False,
                       detail=str(exc), failure=f"{where}: {exc}",
                       alpha=a, beta=b, source=source)
                continue
            slack = min(value - lower, upper - value)
            _check(records, failures, "gamma_ratio",
                   ok=slack >= -1e-12 * max(1.0, abs(value)),
                   detail=f"slack={slack!r}",
                   failure=f"{where}: slack {slack!r}", alpha=a, beta=b,
                   value=value, lower=lower, upper=upper, source=source)

    # math.lgamma, which the Gamma-ratio brackets call, against exact
    # factorials: Gamma(k) = (k-1)!, and Gamma(k + 1/2) =
    # (2k)! sqrt(pi) / (4^k k!), reduced in exact integer arithmetic
    # before a single log.
    half_log_pi = 0.5 * math.log(math.pi)
    suites = (
        ("integers", "Gamma(k) = (k-1)! for k = 1..60", range(1, 61),
         float, lambda k: math.log(math.factorial(k - 1))),
        ("half_integers",
         "Gamma(k+1/2) = (2k)! sqrt(pi) / (4^k k!) for k = 0..60",
         range(0, 61), lambda k: k + 0.5,
         lambda k: (math.log(math.factorial(2 * k)) + half_log_pi
                    - k * math.log(4.0) - math.log(math.factorial(k)))),
    )
    for which, source, ks, arg, exact in suites:
        worst = 0.0
        for k in ks:
            want = exact(k)
            rel = abs(math.lgamma(arg(k)) - want) / max(1.0, abs(want))
            worst = max(worst, rel)
        _check(records, failures, f"log_gamma_{which}", ok=worst <= 1e-13,
               detail="worst relative error",
               failure=f"log_gamma_{which}: rel err {worst!r}",
               value=worst, upper=1e-13, source=source)


def _verify_cauchy_exact(args, case_of, records, failures):
    cases = [case_of(catalog.FamilySpec(
                family="generalized_cauchy", n=n,
                weight_choice="one_plus_r2", beta=n / 2.0 + t))
             for n in (2, 3, 4, 6) for t in (0.5, 1.5, 2.0, 2.5, 4.5)]
    cases = cases[:args.max_cases]
    source = "solver vs. closed-form weighted radial gap"
    for case in cases:
        est = _solved(records, failures, "cauchy_exact", case, source)
        if est is None:
            continue
        truth = case.refs["radial"].value
        rel, ok = _exact_fit(est, truth)
        _check(records, failures, "cauchy_exact", case.spec, ok=ok,
               detail=f"solver={est.value!r} truth={truth!r}",
               failure=f"cauchy exact {case.spec.label()}: rel err {rel!r}",
               value=rel, upper=1e-3, error=est.error_estimate, source=source)
    return _notes(cases)


def _verify_bracketing(args, case_of, records, failures, warn_notes):
    cases = [case_of(spec) for spec in catalog.catalog_grid()]
    cases = cases[:args.max_cases]
    for case in cases:
        spec = case.spec
        est = _solved(records, failures, "bracket_containment", case,
                      "catalog sweep")
        if est is None:
            continue
        gap = est.value
        # no gap lies above the bottom of the essential spectrum
        edge, edge_err = essential_edge(*case.law[:2])
        _check(records, failures, "edge", spec,
               ok=gap <= edge + est.error_estimate + edge_err,
               detail=f"solver={gap!r} edge={edge!r}",
               failure=(f"solver defect on {spec.label()}: gap {gap!r} "
                        f"above the essential-spectrum edge {edge!r}"),
               value=gap, upper=edge, error=est.error_estimate,
               source="essential-spectrum edge of the radial generator")
        tol = max(3.0 * est.error_estimate, 1e-9 * (1.0 + gap))
        for which, ref in case.refs.items():
            if ref is None:
                continue
            name = f"{which}_containment"
            if ref.kind == "exact" and which == "radial":
                rel, ok = _exact_fit(est, ref.value)
                _check(records, failures, name, spec, ok=ok,
                       detail=f"solver={gap!r} exact={ref.value!r}",
                       failure=(f"{spec.label()}: radial exact "
                                f"{ref.value!r} vs solver {gap!r}"),
                       value=rel, upper=1e-3, error=est.error_estimate,
                       source=ref.source)
                continue
            # Bracket / full-exact cases: the tabulated lower endpoint
            # (or exact full value) can never exceed the radial gap.
            lower = ref.value if ref.kind == "exact" else ref.lower
            if ref.kind == "order_only" or lower is None:
                continue
            slack = gap + tol - lower
            fields = dict(value=gap, error=est.error_estimate, lower=lower,
                          source=ref.source)
            if not slack >= 0.0 and "(recorded claim)" in ref.source:
                warn_notes.append(
                    f"recorded claim exceeds the measured gap on "
                    f"{spec.label()}: recorded lower {lower!r} vs solver "
                    f"{gap!r} (+/- {est.error_estimate:.3g})")
                records.append(_record(
                    "check", name, spec, **fields,
                    detail=(f"warning: recorded lower {lower!r} exceeds "
                            f"solver {gap!r}; divergence {lower - gap!r}")))
                continue
            _check(records, failures, name, spec, ok=slack >= 0.0,
                   detail=f"lower={lower!r} solver={gap!r}",
                   failure=(f"{spec.label()}: {which} lower {lower!r} "
                            f"exceeds solver {gap!r}"), **fields)
    return _notes(cases)


def cmd_verify(args, case_of):
    if args.max_cases is not None and args.max_cases < 1:
        raise InvalidInput(f"--max-cases must be >= 1, got {args.max_cases}")
    records = []
    failures = []
    notes = []
    if args.scope in ("all", "gamma-inequalities"):
        _verify_gamma(records, failures)
    if args.scope in ("all", "cauchy-exact"):
        notes.extend(_verify_cauchy_exact(args, case_of, records, failures))
    if args.scope in ("all", "bracketing"):
        notes.extend(
            _verify_bracketing(args, case_of, records, failures, notes))
    # sweeps that solve the same case report its warnings once
    return records, list(dict.fromkeys(notes)), failures


# ---------------------------------------------------------------------
# table
# ---------------------------------------------------------------------


def _parse_list(text, default, what, kind):
    """Comma-separated kind values; for kind=int, a..b ranges too."""
    if text is None:
        return tuple(default)
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if kind is int and ".." in part:
                lo_txt, _, hi_txt = part.partition("..")
                lo, hi = int(lo_txt), int(hi_txt)
                if lo > hi:
                    raise ValueError(f"empty range {part!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(kind(part))
        except ValueError as exc:
            raise InvalidInput(f"bad {what} entry {part!r}: {exc}")
    if not out:
        raise InvalidInput(f"empty {what} list")
    return tuple(out)


# Each table returns (specs, row): the cases it covers, and row(case) ->
# the closed-form columns of that case's record.  cmd_table adds the
# solver's value and error.


def _table_exp_power(args):
    alphas = _parse_list(args.alphas, (1.0, 2.0, 4.0), "alpha", float)
    dims = _parse_list(args.dims, (4, 8, 16, 32), "dims", int)
    specs = [catalog.FamilySpec(family="exponential_power", n=n, alpha=a)
             for a in alphas for n in dims]

    def row(case):
        n, alpha = case.spec.n, case.spec.alpha
        pair = exp_power_explicit(n, alpha)
        return dict(
            lower=pair.exact.lower, upper=pair.exact.upper,
            scaling=float(n) ** (1.0 - 2.0 / alpha),
            source="exact Gamma-ratio bracket; solver radial gap",
            detail=(f"simplified=[{pair.simplified.lower!r}, "
                    f"{pair.simplified.upper!r}]; scaling column is "
                    f"n^(1-2/alpha)"))
    return specs, row


def _table_cauchy_n3(args):
    betas = _parse_list(args.betas, (2.5, 3.5, 3.6, 3.9, 6.0), "beta", float)
    specs = [catalog.FamilySpec(family="generalized_cauchy", n=3,
                                weight_choice="one_plus_r2", beta=b)
             for b in betas]

    def row(case):
        full, radial = case.refs["full"], case.refs["radial"]
        return dict(
            lower=full.value, upper=full.value, source=full.source,
            detail=(f"full reference kind={full.kind}; exact weighted "
                    f"radial gap {radial.value!r}; value column is the "
                    f"solver's radial gap"))
    return specs, row


def _table_gaussian_weighted(args):
    dims = _parse_list(args.dims, tuple(range(2, 9)), "dims", int)
    specs = [catalog.FamilySpec(family="gaussian", n=n, weight_choice=w)
             for w in ("one_plus_r2", "inv_one_plus_r2") for n in dims]

    def row(case):
        measure, weight, _ = case.law
        full = case.refs["full"]
        try:
            wcl = weighted_curvature_lower(measure, weight)
            wcl_text = f"weighted_curvature_lower={wcl.value!r}"
        except (HypothesisFailed, NonIntegrable, ConvergenceError,
                DiscretizationError) as exc:
            wcl_text = f"weighted_curvature_lower unavailable: {exc}"
        return dict(
            lower=full.lower, upper=full.upper, source=full.source,
            detail=(f"full-gap bracket; value column is the solver's "
                    f"weighted radial gap; {wcl_text}"))
    return specs, row


def _table_ball(args):
    dims = _parse_list(args.dims, (2, 4, 8, 16), "dims", int)
    specs = [catalog.FamilySpec(family="uniform_ball", n=n) for n in dims]

    def row(case):
        full, radial = case.refs["full"], case.refs["radial"]
        return dict(
            lower=full.lower, upper=full.upper,
            scaling=float(case.spec.n) ** 2, source=full.source,
            detail=(f"full-gap bracket; radial lower bound "
                    f"{radial.lower!r}; value column is the solver's "
                    f"radial gap; scaling column is n^2"))
    return specs, row


_TABLES = {
    "exp-power-asymptotics": _table_exp_power,
    "cauchy-n3": _table_cauchy_n3,
    "gaussian-weighted": _table_gaussian_weighted,
    "ball": _table_ball,
}


def cmd_table(args, case_of):
    specs, row = _TABLES[args.id](args)
    cases = [case_of(spec) for spec in specs]
    records, failures = [], []
    for case in cases:
        columns = row(case)
        # a raising solve leaves its row without a value, after a failing
        # check that names the error; the other rows keep theirs
        est = None if args.no_solve else _solved(
            records, failures, args.id, case, _SOLVER_SOURCE)
        solved = {} if est is None else dict(value=est.value,
                                             error=est.error_estimate)
        records.append(_record("row", args.id, case.spec, **solved,
                               **columns))
    return records, [] if args.no_solve else _notes(cases), failures


# ---------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------


# --function -> (f, grad f) on a (count, n) array of points
_POINT_FUNCTIONS = {
    "linear": (lambda points: np.einsum("ij->i", points), np.ones_like),
}
# --function -> (f, f') on (count,) radii, for F(x) = f(|x|): a radial
# test function is estimated from the radii alone, with no directions
_RADIAL_FUNCTIONS = {
    "radial-quadratic": (lambda r: r * r, lambda r: 2.0 * r),
}


def cmd_sample(args, case_of):
    case = case_of(_spec_from_args(args))
    spec = case.spec
    # a sample too small for batch means is refused before the law's
    # tables are built or a point is drawn
    _check_batches(args.count)
    measure, weight, _ = case.law
    if args.function in _RADIAL_FUNCTIONS:
        result = radial_rayleigh_estimate(
            measure, args.count, args.seed,
            *_RADIAL_FUNCTIONS[args.function], weight)
    else:
        batch = sample_mu(measure, args.count, args.seed)
        result = rayleigh_estimate(
            batch, *_POINT_FUNCTIONS[args.function], weight)
    records = [_record(
        "mc", "rayleigh_estimate", spec, value=result.ratio,
        error=result.ci_half_width,
        source="Monte Carlo Rayleigh quotient, batch-means 95% interval",
        detail=(f"count={args.count}; seed={args.seed}; "
                f"batches={result.batches}; function={args.function}"))]
    records.extend(case.reference_records)
    return records, [], []


# ---------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------


@functools.cache
def _build_parser():
    # built once per process: parse_args returns a fresh Namespace per call
    parser = argparse.ArgumentParser(
        prog="specgap",
        description=("Closed-form spectral-gap bounds for rotationally "
                     "invariant measures, with an independent eigensolver "
                     "and Monte Carlo cross-checks."))
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default json)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for sampling commands (default 0)")
    common.add_argument("--tail-tol", type=float, default=_DEFAULT_TAIL_TOL,
                        dest="tail_tol", metavar="EPS",
                        help="tail mass dropped at truncation "
                             "(default 1e-12)")
    common.add_argument("--cells", type=int, default=1024,
                        help="eigensolver cell count, a power of two times "
                             "64 (default 1024)")

    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument("--family", required=True,
                     choices=tuple(_CLI_FAMILY), help="measure family")
    fam.add_argument("--n", required=True, type=int, help="dimension, >= 2")
    fam.add_argument("--weight", choices=tuple(_CLI_WEIGHT), default="unit",
                     help="diffusion weight sigma^2 (default unit)")
    fam.add_argument("--alpha", type=float, default=None,
                     help="exp-power exponent, >= 1")
    fam.add_argument("--beta", type=float, default=None,
                     help="cauchy decay exponent, > n/2")

    p = sub.add_parser("bounds", parents=[common, fam],
                       help="closed-form brackets and one-sided bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("eigen", parents=[common, fam],
                       help="finite-volume radial eigensolve")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", parents=[common],
                       help="cross-validation sweeps; exit 1 on violation")
    p.add_argument("--scope", choices=_VERIFY_SCOPES, default="all",
                   help="which suite to run (default all)")
    p.add_argument("--max-cases", type=int, default=None, metavar="K",
                   dest="max_cases",
                   help="truncate each solver sweep to its first K cases "
                        "(deterministic smoke mode)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="reproduction tables over parameter grids")
    p.add_argument("--id", required=True, choices=_TABLES,
                   help="which table to produce")
    p.add_argument("--alphas", default=None,
                   help="comma-separated exponents "
                        "(exp-power-asymptotics only)")
    p.add_argument("--dims", default=None,
                   help="comma-separated dimensions; a..b ranges allowed")
    p.add_argument("--betas", default=None,
                   help="comma-separated decay exponents (cauchy-n3 only)")
    p.add_argument("--no-solve", action="store_true", dest="no_solve",
                   help="skip the eigensolver column")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sample", parents=[common, fam],
                       help="Monte Carlo Rayleigh quotient")
    p.add_argument("--function",
                   choices=(*_POINT_FUNCTIONS, *_RADIAL_FUNCTIONS),
                   default="radial-quadratic",
                   help="test function (default radial-quadratic, |x|^2, "
                        "estimated from the radii alone: O(count) draws "
                        "at any n, in memory that does not grow with "
                        "count; linear still draws n-dimensional "
                        "directions)")
    p.add_argument("--count", type=int, default=100000,
                   help="sample size (default 100000)")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.output:
        # fail before the work, not after it
        try:
            open(args.output, "w", encoding="utf-8").close()
        except OSError as exc:
            sys.stderr.write(f"specgap: cannot write --output "
                             f"{args.output}: {exc.strerror or exc}\n")
            return 2
    inputs = _inputs_echo(args)
    # one case per spec for this call only: nothing outlives main
    case_of = functools.cache(lambda spec: _Case(spec, args))
    try:
        records, notes, failures = args.func(args, case_of)
    except SpecGapError as exc:
        _emit(_report(args.command, inputs, [],
                      [], f"{type(exc).__name__}: {exc}"), args)
        return 2 if isinstance(exc, (InvalidInput, DomainError)) else 1
    error = None
    if failures:
        shown = failures[:8]
        if len(failures) > len(shown):
            shown.append(f"... and {len(failures) - len(shown)} more")
        error = f"{len(failures)} check(s) failed: " + "; ".join(shown)
    _emit(_report(args.command, inputs, records, notes, error), args)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
