"""Output checker shared by all workloads.

Every report is validated against ``run_report.schema.json``; every
route note is classified as a failure ("numerically unavailable") or a
skip (any other "unavailable"); every number is held to the side of
``catalog.reference_gap`` it claims, with the rules ``specgap verify``
applies to the solver (bracketing).  Rows the program itself marks as
"(recorded claim)", "not a certified bound" or "for reference only" are
not side-checked.

An operation is one command, or, for ``bounds``, one route: a bound
record or an "unavailable" note.  Hypothesis skips are outcomes, not
failures.
"""

import json
import math
import re
from dataclasses import dataclass, field

# bound records -> the gap they claim to bound and from which side
_RADIAL_LOWER = frozenset(("curvature_lower", "radial_moment_lower",
                           "weighted_curvature_lower", "variational_lower"))
_RADIAL_UPPER = frozenset(("rayleigh_upper",))
# brackets of the full gap; moment_bracket brackets the unweighted one
_FULL_BRACKET = frozenset(("moment_bracket", "exp_power_explicit",
                           "exp_power_simplified", "spectral_comparison",
                           "weighted_comparison"))
_UNCERTIFIED = ("not a certified bound", "for reference only")
_RECORDED = "(recorded claim)"
_NUMERIC = "numerically unavailable"
_WARNING = re.compile(r"^\w+Warning: ")
_BOUND_MARGIN = 1e-6          # relative slack for a bound vs an exact gap
_EXACT_REL = 1e-3             # verify's solver-vs-exact tolerance


@dataclass
class Verdict:
    """Outcome of checking one command's report."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    numeric_failures: int = 0
    hypothesis_skips: int = 0
    warnings: int = 0
    exact_rel_err: float = None

    @property
    def failed(self):
        """Failed operations; one command is one operation, however many
        of its checks fail."""
        return min(len(self.failures), self.attempted)

    @property
    def wrong(self):
        """Failures other than honest numerical unavailability."""
        return len(self.failures) - self.numeric_failures


def _ref(reference, spec, which):
    """(lo, hi, source) of a recorded gap, or None; lo/hi may be None."""
    ref = reference(spec, which)
    if ref is None or ref.kind == "order_only":
        return None
    if ref.kind == "exact":
        return ref.value, ref.value, ref.source
    hi = ref.upper if math.isfinite(ref.upper) else None
    return ref.lower, hi, ref.source


def _margin(x):
    return _BOUND_MARGIN * (1.0 + abs(x))


def _check_solver(rec, spec, reference, verdict):
    gap, err = rec["value"], rec["error"]
    if gap is None or err is None:
        verdict.failures.append("solver reported no finite value/error")
        return
    tol = max(3.0 * err, 1e-9 * (1.0 + gap))
    for which in ("radial", "full"):
        ref = reference(spec, which)
        if ref is None or ref.kind == "order_only":
            continue
        if ref.kind == "exact" and which == "radial":
            rel = abs(gap - ref.value) / max(ref.value, 1e-30)
            verdict.exact_rel_err = rel
            if not (rel <= _EXACT_REL or abs(gap - ref.value) <= tol):
                verdict.failures.append(
                    f"radial exact {ref.value!r} vs solver {gap!r}")
            continue
        lower = ref.value if ref.kind == "exact" else ref.lower
        if _RECORDED in ref.source:
            continue
        if gap + tol < lower:
            verdict.failures.append(
                f"{which} lower {lower!r} exceeds solver {gap!r}")


def _check_mc(rec, spec, reference, verdict):
    # a Rayleigh quotient can only sit above the gap of the full dynamics
    val, err = rec["value"], rec["error"]
    if val is None:
        verdict.failures.append("Monte Carlo quotient is not finite")
        return
    ref = _ref(reference, spec, "full")
    if ref is None or ref[0] is None or _RECORDED in ref[2]:
        return
    tol = math.inf if err is None else max(3.0 * err, 1e-9 * (1.0 + val))
    if val + tol < ref[0]:
        verdict.failures.append(
            f"Rayleigh quotient {val!r} +/- {err!r} below the full-gap "
            f"lower end {ref[0]!r}")


def _check_bound(rec, spec, reference, verdict):
    name, lower, upper = rec["name"], rec["lower"], rec["upper"]
    if any(text in rec["detail"] for text in _UNCERTIFIED):
        return
    if name in _RADIAL_LOWER or name in _RADIAL_UPPER:
        which = "radial"
    elif name in _FULL_BRACKET:
        if name == "moment_bracket" and spec.weight_choice != "unit":
            return
        which = "full"
    else:
        return
    ref = _ref(reference, spec, which)
    if ref is None:
        return
    lo, hi, source = ref
    if lower is not None and hi is not None and lower > hi + _margin(hi):
        verdict.failures.append(
            f"{name} lower {lower!r} above the {which} gap's upper end "
            f"{hi!r}")
    if (upper is not None and lo is not None and _RECORDED not in source
            and upper < lo - _margin(lo)):
        verdict.failures.append(
            f"{name} upper {upper!r} below the {which} gap's lower end "
            f"{lo!r}")


def check_report(command, spec, report, validator, reference):
    """Check one parsed report dict; returns a Verdict.

    ``validator`` is a jsonschema validator for the run-report schema and
    ``reference(spec, which)`` returns the recorded ReferenceGap or None.
    """
    verdict = Verdict()
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        verdict.attempted = 1
        verdict.failures.append(f"schema: {errors[0]}")
        return verdict
    if report["command"] != command or report["error"] is not None:
        verdict.attempted = 1
        verdict.failures.append(f"report error: {report['error']}")
        return verdict

    for note in report["warnings"]:
        if _WARNING.match(note):
            verdict.warnings += 1
        elif _NUMERIC in note:
            verdict.numeric_failures += 1
            verdict.failures.append(note)
        elif "unavailable" in note:
            verdict.hypothesis_skips += 1
    records = report["records"]
    if command == "bounds":
        verdict.attempted = (sum(r["record"] == "bound" for r in records)
                             + verdict.numeric_failures
                             + verdict.hypothesis_skips)
    else:
        verdict.attempted = 1

    kind = {"eigen": "solver", "sample": "mc"}.get(command)
    if kind is not None and not any(r["record"] == kind for r in records):
        verdict.failures.append(f"no {kind} record in the report")
    for rec in records:
        if rec["record"] == "solver":
            _check_solver(rec, spec, reference, verdict)
        elif rec["record"] == "mc":
            _check_mc(rec, spec, reference, verdict)
        elif rec["record"] == "bound":
            _check_bound(rec, spec, reference, verdict)
    verdict.attempted = max(verdict.attempted, 1)
    return verdict


def check_command(command, spec, rc, text, validator, reference):
    """Check one command's exit status and report text."""
    if rc != 0:
        return Verdict(attempted=1, failures=[f"exit status {rc}"])
    try:
        report = json.loads(text)
    except ValueError as exc:
        return Verdict(attempted=1, failures=[f"report is not JSON: {exc}"])
    return check_report(command, spec, report, validator, reference)


def make_validator(schema_path):
    import jsonschema

    with open(schema_path, encoding="utf-8") as handle:
        schema = json.load(handle)
    cls = jsonschema.validators.validator_for(schema)
    return cls(schema)


def make_reference(catalog):
    """reference(spec, which) over catalog.reference_gap, None when the
    catalog records nothing for that combination."""
    from specgap.errors import InvalidInput

    def reference(spec, which):
        try:
            return catalog.reference_gap(spec, which)
        except InvalidInput:
            return None

    return reference
