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
the report's ``inputs`` block.  Reports share one fixed CSV column set::

  record,name,family,weight,n,alpha,beta,value,error,lower,upper,scaling,source,detail

so rows from different commands concatenate into one plot-ready file.
Infinite endpoints are serialized as null (empty CSV cell); floats use
``repr`` so a JSON/CSV round trip is lossless.

Exit status: 0 success (possibly with warnings), 1 numerical failure or
verification violation, 2 invalid usage or invalid input.
"""

import argparse
import csv
import io
import json
import math
import sys
import warnings as _warnings

import numpy as np

from . import catalog
from .bounds_engine import (curvature_lower, exp_power_explicit,
                            gamma_ratio_bounds, moment_bracket,
                            radial_moment_lower, rayleigh_upper,
                            spectral_comparison, variational_lower,
                            weighted_comparison, weighted_curvature_lower)
from .errors import (ConvergenceError, DegenerateFunction,
                     DiscretizationError, DomainError, HypothesisFailed,
                     InvalidInput, NonIntegrable, SpecGapError)
from .loggamma import log_gamma
from .mc_sampler import rayleigh_estimate, sample_mu
from .radial_model import build_measure, moment, weighted_moment
from .sl_eigensolver import GridSpec, spectral_gap

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

_TABLE_IDS = ("exp-power-asymptotics", "cauchy-n3", "gaussian-weighted",
              "ball")
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
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in _ECHO_SKIP or val is None:
            continue
        out[key] = val
    return out


# ---------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------


def _spec_from_args(args):
    family = _CLI_FAMILY[args.family]
    weight = _CLI_WEIGHT[args.weight]
    return catalog.FamilySpec(family=family, n=args.n, weight_choice=weight,
                              alpha=args.alpha, beta=args.beta)


def _materialize(spec, tail_tol):
    measure, weight, cand = catalog.make_family(spec)
    if tail_tol != _DEFAULT_TAIL_TOL:
        measure = build_measure(spec.n, measure.potential,
                                tail_tol=tail_tol, name=measure.name)
    return measure, weight, cand


def _grid_spec(args):
    return GridSpec(n_cells=args.cells)


def _solve(args, specs, keep_errors=False):
    """Solver estimates for specs, in order, and the warnings the sweep
    raised as sorted, deduplicated notes.  With keep_errors, a solver
    failure stands in the result list in place of its estimate."""
    opts = _grid_spec(args)
    results = []
    with _warnings.catch_warnings(record=True) as rec:
        _warnings.simplefilter("always")
        for spec in specs:
            measure, weight, _ = _materialize(spec, args.tail_tol)
            try:
                results.append(spectral_gap(measure, weight, opts))
            except SpecGapError as exc:
                if not keep_errors:
                    raise
                results.append(exc)
    notes = sorted({f"{w.category.__name__}: {w.message}" for w in rec})
    return results, notes


def _references(spec):
    """{"radial": ref, "full": ref}, with None where nothing is recorded."""
    refs = {}
    for which in ("radial", "full"):
        try:
            refs[which] = catalog.reference_gap(spec, which)
        except InvalidInput:
            refs[which] = None
    return refs


def _reference_records(spec, refs):
    records = []
    for which, ref in refs.items():
        if ref is None:
            continue
        if ref.kind == "exact":
            value, lower, upper = ref.value, ref.value, ref.value
        else:
            value, lower, upper = None, ref.lower, ref.upper
        records.append(_record(
            "reference", f"reference_{which}", spec, value=value,
            lower=lower, upper=upper, scaling=ref.order_exponent,
            source=ref.source,
            detail=f"{ref.kind} reference for the {which} dynamics"))
    return records


def _bracket_record(name, spec, bracket, detail):
    return _record(
        "bound", name, spec, lower=bracket.lower, upper=bracket.upper,
        source=f"{bracket.lower_source} | {bracket.upper_source}",
        detail=detail)


def _lower_record(name, spec, bound, detail):
    extra = []
    if not bound.informative:
        extra.append("non-informative (defining integral diverges)")
    if bound.grid_inf:
        extra.append("grid infimum, not a certified global infimum")
    if extra:
        detail = f"{detail}; {'; '.join(extra)}"
    return _record("bound", name, spec, value=bound.value, lower=bound.value,
                   source=bound.method, detail=detail)


# ---------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------


def cmd_bounds(args):
    spec = _spec_from_args(args)
    measure, weight, cand = _materialize(spec, args.tail_tol)
    records = []
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

    refs = _references(spec)
    records.extend(_reference_records(spec, refs))
    radial = refs["radial"]
    exact = None
    if radial is not None and radial.kind == "exact":
        exact = radial.value

    m2 = attempt("second-moment bracket", lambda: moment(measure, 2))
    if m2 is not None:
        caveat = ""
        if not measure.potential.convex:
            caveat = ("; the lower endpoint assumes a convex radial "
                      "potential, which this measure does not satisfy -- "
                      "reported for reference only")
        records.append(_bracket_record(
            "moment_bracket", spec, moment_bracket(spec.n, m2),
            detail=(f"brackets the spectral gap of the unweighted dynamics; "
                    f"second moment m2={m2!r}{caveat}")))

    if spec.family == "exponential_power":
        pair = exp_power_explicit(spec.n, spec.alpha)
        records.append(_bracket_record(
            "exp_power_explicit", spec, pair.exact,
            detail="exact Gamma-ratio form of the second-moment bracket"))
        records.append(_bracket_record(
            "exp_power_simplified", spec, pair.simplified,
            detail="dimension-power simplification enclosing the exact form"))

    if spec.weight_choice != "unit":
        if exact is not None:
            def weighted():
                m_r2s2 = weighted_moment(measure, weight, "r2_over_s2")
                m_s2 = weighted_moment(measure, weight, "s2")
                m2w = m2 if m2 is not None else moment(measure, 2)
                return weighted_comparison(exact, spec.n, m_r2s2, m_s2, m2w)
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

    if spec.weight_choice == "unit":
        got = attempt("integrated-curvature lower bound",
                      lambda: curvature_lower(measure))
        if got is not None:
            records.append(_lower_record(
                "curvature_lower", spec, got,
                detail=("lower-bounds the radial spectral gap via the "
                        "harmonic mean of the radial well's curvature")))
        got = attempt("radial moment lower bound",
                      lambda: radial_moment_lower(measure))
        if got is not None:
            if measure.potential.convex:
                rml_detail = "lower-bounds the radial spectral gap"
            else:
                rml_detail = ("assumes a convex radial potential, which "
                              "this measure does not satisfy -- reported "
                              "for reference only, not a certified bound")
            records.append(_lower_record(
                "radial_moment_lower", spec, got, detail=rml_detail))

    got = attempt("weighted-curvature lower bound",
                  lambda: weighted_curvature_lower(measure, weight))
    if got is not None:
        records.append(_lower_record(
            "weighted_curvature_lower", spec, got,
            detail="lower-bounds the weighted radial spectral gap"))

    got = attempt("variational lower bound",
                  lambda: variational_lower(measure, weight, cand))
    if got is not None:
        records.append(_lower_record(
            "variational_lower", spec, got,
            detail=("lower-bounds the weighted radial spectral gap via the "
                    "designated candidate's variational potential")))

    got = attempt("Rayleigh upper bound",
                  lambda: rayleigh_upper(measure, weight, cand))
    if got is not None:
        records.append(_record(
            "bound", "rayleigh_upper", spec, upper=got,
            source="Rayleigh quotient of the designated candidate",
            detail="upper-bounds the weighted radial spectral gap"))

    return records, notes, []


# ---------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------


def cmd_eigen(args):
    spec = _spec_from_args(args)
    (est,), notes = _solve(args, [spec])
    records = [_record(
        "solver", "spectral_gap", spec, value=est.value,
        error=est.error_estimate,
        source=("finite-volume Sturm-Liouville eigensolve with Richardson "
                "extrapolation"),
        detail=(f"n_cells_used={est.n_cells_used}; "
                f"r_max_used={est.r_max_used!r}; "
                f"grading={_grid_spec(args).grading}"))]
    records.extend(_reference_records(spec, _references(spec)))
    return records, notes, []


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------


def _verify_gamma(records, failures):
    grid_a = (0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
    grid_b = tuple(0.25 * k for k in range(9))
    for a in grid_a:
        for b in grid_b:
            try:
                lower, value, upper = gamma_ratio_bounds(a, b)
            except InvalidInput as exc:
                failures.append(f"gamma_ratio a={a} b={b}: {exc}")
                records.append(_record(
                    "check", "gamma_ratio", alpha=a, beta=b,
                    detail=f"FAIL: {exc}",
                    source="elementary Gamma-ratio bounds"))
                continue
            slack = min(value - lower, upper - value)
            ok = slack >= -1e-12 * max(1.0, abs(value))
            if not ok:
                failures.append(
                    f"gamma_ratio a={a} b={b}: slack {slack!r}")
            records.append(_record(
                "check", "gamma_ratio", alpha=a, beta=b, value=value,
                lower=lower, upper=upper,
                source="elementary Gamma-ratio bounds",
                detail=(f"pass; slack={slack!r}" if ok
                        else f"FAIL: slack={slack!r}")))

    # log-Gamma against exact integer factorials (independent of the
    # scipy evaluation that log_gamma wraps).
    worst_int = 0.0
    for k in range(1, 61):
        want = math.log(math.factorial(k - 1)) if k > 1 else 0.0
        got = log_gamma(float(k))
        rel = abs(got - want) / max(1.0, abs(want))
        worst_int = max(worst_int, rel)
    ok = worst_int <= 1e-13
    if not ok:
        failures.append(f"log_gamma integers: rel err {worst_int!r}")
    records.append(_record(
        "check", "log_gamma_integers", value=worst_int, upper=1e-13,
        source="Gamma(k) = (k-1)! for k = 1..60",
        detail=("pass; worst relative error" if ok
                else f"FAIL: worst relative error {worst_int!r}")))

    worst_half = 0.0
    half_log_pi = 0.5 * math.log(math.pi)
    for k in range(0, 61):
        # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!), reduced in exact
        # integer arithmetic before a single log.
        want = (math.log(math.factorial(2 * k)) + half_log_pi
                - k * math.log(4.0) - math.log(math.factorial(k)))
        got = log_gamma(k + 0.5)
        rel = abs(got - want) / max(1.0, abs(want))
        worst_half = max(worst_half, rel)
    ok = worst_half <= 1e-13
    if not ok:
        failures.append(f"log_gamma half-integers: rel err {worst_half!r}")
    records.append(_record(
        "check", "log_gamma_half_integers", value=worst_half, upper=1e-13,
        source="Gamma(k+1/2) = (2k)! sqrt(pi) / (4^k k!) for k = 0..60",
        detail=("pass; worst relative error" if ok
                else f"FAIL: worst relative error {worst_half!r}")))


def _verify_cauchy_exact(args, records, failures):
    cases = []
    for n in (2, 3, 4, 6):
        for t in (0.5, 1.5, 2.0, 2.5, 4.5):
            cases.append(catalog.FamilySpec(
                family="generalized_cauchy", n=n,
                weight_choice="one_plus_r2", beta=n / 2.0 + t))
    if args.max_cases is not None:
        cases = cases[:args.max_cases]
    results, notes = _solve(args, cases)
    for spec, est in zip(cases, results):
        truth = catalog.reference_gap(spec, "radial").value
        rel = abs(est.value - truth) / truth
        ok = rel <= 1e-3
        if not ok:
            failures.append(
                f"cauchy exact {spec.label()}: rel err {rel!r}")
        records.append(_record(
            "check", "cauchy_exact", spec, value=rel, upper=1e-3,
            error=est.error_estimate,
            source="solver vs. closed-form weighted radial gap",
            detail=(f"pass; solver={est.value!r} truth={truth!r}" if ok
                    else f"FAIL: solver={est.value!r} truth={truth!r}")))
    return notes


def _verify_bracketing(args, records, failures, warn_notes):
    cases = list(catalog.catalog_grid())
    if args.max_cases is not None:
        cases = cases[:args.max_cases]
    results, notes = _solve(args, cases, keep_errors=True)
    for spec, est in zip(cases, results):
        if isinstance(est, SpecGapError):
            failures.append(f"solver failed on {spec.label()}: {est}")
            records.append(_record(
                "check", "bracket_containment", spec,
                detail=f"FAIL: solver raised {type(est).__name__}: {est}",
                source="catalog sweep"))
            continue
        gap = est.value
        tol = max(3.0 * est.error_estimate, 1e-9 * (1.0 + gap))
        for which, ref in _references(spec).items():
            if ref is None:
                continue
            name = f"{which}_containment"
            if ref.kind == "exact" and which == "radial":
                rel = abs(gap - ref.value) / max(ref.value, 1e-30)
                ok = rel <= 1e-3 or abs(gap - ref.value) <= tol
                if not ok:
                    failures.append(
                        f"{spec.label()}: radial exact {ref.value!r} vs "
                        f"solver {gap!r}")
                records.append(_record(
                    "check", name, spec, value=rel, upper=1e-3,
                    error=est.error_estimate, source=ref.source,
                    detail=(f"pass; solver={gap!r} exact={ref.value!r}"
                            if ok else
                            f"FAIL: solver={gap!r} exact={ref.value!r}")))
                continue
            # Bracket / full-exact cases: the tabulated lower endpoint
            # (or exact full value) can never exceed the radial gap.
            lower = ref.value if ref.kind == "exact" else ref.lower
            if ref.kind == "order_only" or lower is None:
                continue
            slack = gap + tol - lower
            ok = slack >= 0.0
            recorded = "(recorded claim)" in ref.source
            if not ok and recorded:
                warn_notes.append(
                    f"recorded claim exceeds the measured gap on "
                    f"{spec.label()}: recorded lower {lower!r} vs solver "
                    f"{gap!r} (+/- {est.error_estimate:.3g})")
                detail = (f"warning: recorded lower {lower!r} exceeds "
                          f"solver {gap!r}; divergence "
                          f"{lower - gap!r}")
            elif not ok:
                failures.append(
                    f"{spec.label()}: {which} lower {lower!r} exceeds "
                    f"solver {gap!r}")
                detail = f"FAIL: lower={lower!r} solver={gap!r}"
            else:
                detail = f"pass; lower={lower!r} solver={gap!r}"
            records.append(_record(
                "check", name, spec, value=gap, error=est.error_estimate,
                lower=lower, source=ref.source, detail=detail))
    return notes


def cmd_verify(args):
    records = []
    failures = []
    notes = []
    if args.scope in ("all", "gamma-inequalities"):
        _verify_gamma(records, failures)
    if args.scope in ("all", "cauchy-exact"):
        notes.extend(_verify_cauchy_exact(args, records, failures))
    if args.scope in ("all", "bracketing"):
        notes.extend(_verify_bracketing(args, records, failures, notes))
    return records, notes, failures


# ---------------------------------------------------------------------
# table
# ---------------------------------------------------------------------


def _parse_int_list(text, default, what):
    if text is None:
        return tuple(default)
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ".." in part:
                lo_txt, _, hi_txt = part.partition("..")
                lo, hi = int(lo_txt), int(hi_txt)
                if lo > hi:
                    raise ValueError(f"empty range {part!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
        except ValueError as exc:
            raise InvalidInput(f"bad {what} entry {part!r}: {exc}")
    if not out:
        raise InvalidInput(f"empty {what} list")
    return tuple(out)


def _parse_float_list(text, default, what):
    if text is None:
        return tuple(default)
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError as exc:
            raise InvalidInput(f"bad {what} entry {part!r}: {exc}")
    if not out:
        raise InvalidInput(f"empty {what} list")
    return tuple(out)


# Each table returns (specs, row): the cases it covers, and row(spec) ->
# the closed-form columns of that case's record.  cmd_table adds the
# solver's value and error.


def _table_exp_power(args):
    alphas = _parse_float_list(args.alphas, (1.0, 2.0, 4.0), "alpha")
    dims = _parse_int_list(args.dims, (4, 8, 16, 32), "dims")
    specs = [catalog.FamilySpec(family="exponential_power", n=n, alpha=a)
             for a in alphas for n in dims]

    def row(spec):
        pair = exp_power_explicit(spec.n, spec.alpha)
        return dict(
            lower=pair.exact.lower, upper=pair.exact.upper,
            scaling=float(spec.n) ** (1.0 - 2.0 / spec.alpha),
            source="exact Gamma-ratio bracket; solver radial gap",
            detail=(f"simplified=[{pair.simplified.lower!r}, "
                    f"{pair.simplified.upper!r}]; scaling column is "
                    f"n^(1-2/alpha)"))
    return specs, row


def _table_cauchy_n3(args):
    betas = _parse_float_list(args.betas, (2.5, 3.5, 3.6, 3.9, 6.0), "beta")
    specs = [catalog.FamilySpec(family="generalized_cauchy", n=3,
                                weight_choice="one_plus_r2", beta=b)
             for b in betas]

    def row(spec):
        full = catalog.reference_gap(spec, "full")
        radial = catalog.reference_gap(spec, "radial")
        if full.kind == "exact":
            lower = upper = full.value
        else:
            lower, upper = full.lower, full.upper
        return dict(
            lower=lower, upper=upper, source=full.source,
            detail=(f"full reference kind={full.kind}; exact weighted "
                    f"radial gap {radial.value!r}; value column is the "
                    f"solver's radial gap"))
    return specs, row


def _table_gaussian_weighted(args):
    dims = _parse_int_list(args.dims, tuple(range(2, 9)), "dims")
    specs = [catalog.FamilySpec(family="gaussian", n=n, weight_choice=w)
             for w in ("one_plus_r2", "inv_one_plus_r2") for n in dims]

    def row(spec):
        measure, weight, _ = _materialize(spec, args.tail_tol)
        full = catalog.reference_gap(spec, "full")
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
    dims = _parse_int_list(args.dims, (2, 4, 8, 16), "dims")
    specs = [catalog.FamilySpec(family="uniform_ball", n=n) for n in dims]

    def row(spec):
        full = catalog.reference_gap(spec, "full")
        radial = catalog.reference_gap(spec, "radial")
        return dict(
            lower=full.lower, upper=full.upper, scaling=float(spec.n) ** 2,
            source=full.source,
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


def cmd_table(args):
    specs, row = _TABLES[args.id](args)
    if args.no_solve:
        results, notes = [None] * len(specs), []
    else:
        results, notes = _solve(args, specs)
    records = []
    for spec, est in zip(specs, results):
        solved = {} if est is None else dict(value=est.value,
                                             error=est.error_estimate)
        records.append(_record("row", args.id, spec, **solved, **row(spec)))
    return records, notes, []


# ---------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------


def _sample_function(name):
    if name == "linear":
        def f(points):
            return points.sum(axis=1)

        def grad(points):
            return np.ones_like(points)

        return f, grad
    if name == "radial-quadratic":
        def f(points):
            return (points * points).sum(axis=1)

        def grad(points):
            return 2.0 * points

        return f, grad
    raise InvalidInput(f"unknown sample function {name!r}")


def cmd_sample(args):
    spec = _spec_from_args(args)
    measure, weight, _ = _materialize(spec, args.tail_tol)
    f, grad = _sample_function(args.function)
    batch = sample_mu(measure, args.count, args.seed)
    result = rayleigh_estimate(batch, f, grad, weight)
    records = [_record(
        "mc", "rayleigh_estimate", spec, value=result.ratio,
        error=result.ci_half_width,
        source="Monte Carlo Rayleigh quotient, batch-means 95% interval",
        detail=(f"count={args.count}; seed={args.seed}; "
                f"batches={result.batches}; function={args.function}"))]
    records.extend(_reference_records(spec, _references(spec)))
    return records, [], []


# ---------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------


def _build_parser():
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
    p.add_argument("--id", required=True, choices=_TABLE_IDS,
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
    p.add_argument("--function", choices=("linear", "radial-quadratic"),
                   default="radial-quadratic",
                   help="test function (default radial-quadratic)")
    p.add_argument("--count", type=int, default=100000,
                   help="sample size (default 100000)")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    inputs = _inputs_echo(args)
    try:
        records, notes, failures = args.func(args)
    except (InvalidInput, DomainError) as exc:
        _emit(_report(args.command, inputs, [],
                      [], f"{type(exc).__name__}: {exc}"), args)
        return 2
    except SpecGapError as exc:
        _emit(_report(args.command, inputs, [],
                      [], f"{type(exc).__name__}: {exc}"), args)
        return 1
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
