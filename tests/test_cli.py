"""CLI: report schema, record values, exit codes, determinism.

Every JSON report emitted in these tests is validated against the
packaged run-report schema.  Commands run in-process through
``cli.main`` except for two subprocess checks: the console script, and
the modules a cold ``import specgap.cli`` loads.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from scipy.special import jn_zeros

from specgap import catalog, cli, errors, quadrature, radial_model
from specgap.errors import ConvergenceError, InvalidInput
from specgap.sl_eigensolver import essential_edge

SCHEMA = json.loads(
    (resources.files("specgap") / "schema" / "run_report.schema.json")
    .read_text())
VALIDATOR = Draft202012Validator(SCHEMA)

CSV_HEADER = ("record,name,family,weight,n,alpha,beta,value,error,"
              "lower,upper,scaling,source,detail")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    report = json.loads(text)
    errs = sorted(VALIDATOR.iter_errors(report), key=str)
    assert not errs, f"schema violation for {argv}: {errs[0].message}"
    return code, report


def spy_on(monkeypatch, name, fn=None):
    """Replace cli.<name> by a wrapper; returns the list of its calls."""
    calls = []
    real = fn or getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return calls


def recs(report, name):
    return [r for r in report["records"] if r["name"] == name]


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------------ bounds


def test_bounds_heavy_tail_weighted():
    code, rep = run_json(["bounds", "--family", "cauchy", "--beta", "4",
                          "--n", "3", "--weight", "one-plus-r2"])
    assert code == 0 and rep["status"] == "ok"

    wc = recs(rep, "weighted_comparison")
    assert len(wc) == 1
    assert rel(wc[0]["lower"], 16.0 / 3.0) < 1e-12
    assert rel(wc[0]["upper"], 6.0) < 1e-12

    mb = recs(rep, "moment_bracket")[0]
    assert rel(mb["lower"], 2.0) < 1e-10 and rel(mb["upper"], 3.0) < 1e-10

    rf = recs(rep, "reference_full")[0]
    assert rf["value"] == rf["lower"] == rf["upper"] == 6.0
    assert recs(rep, "reference_radial")[0]["value"] == 6.0

    wcl = recs(rep, "weighted_curvature_lower")
    assert len(wcl) == 1 and rel(wcl[0]["value"], 5.9379028330) < 1e-6


def test_bounds_gaussian_unit():
    code, rep = run_json(["bounds", "--family", "gaussian", "--n", "3"])
    assert code == 0

    mb = recs(rep, "moment_bracket")[0]
    assert rel(mb["lower"], 2.0 / 3.0) < 1e-10 and rel(mb["upper"], 1.0) < 1e-10
    assert "reference only" not in mb["detail"]

    sc = recs(rep, "spectral_comparison")
    assert len(sc) == 1
    assert rel(sc[0]["lower"], 2.0 / 3.0) < 1e-10
    assert rel(sc[0]["upper"], 1.0) < 1e-10

    ru = recs(rep, "rayleigh_upper")
    assert len(ru) == 1 and rel(ru[0]["upper"], 2.0) < 1e-8

    cl = recs(rep, "curvature_lower")
    assert len(cl) == 1
    assert 0.0 < cl[0]["value"] <= 2.0 + 1e-12
    assert "radial" in cl[0]["detail"]

    vl = recs(rep, "variational_lower")
    assert len(vl) == 1 and vl[0]["value"] > 0.0


def test_bounds_heavy_tail_unit_weight_flags_hypotheses():
    # the unweighted heavy-tailed dynamics need not have a spectral gap,
    # so records whose lower sides assume a convex radial potential must
    # say they are not certified here
    code, rep = run_json(["bounds", "--family", "cauchy", "--beta", "4",
                          "--n", "3"])
    assert code == 0
    mb = recs(rep, "moment_bracket")[0]
    assert "convex radial potential" in mb["detail"]
    assert "reference only" in mb["detail"]
    rml = recs(rep, "radial_moment_lower")[0]
    assert "not a certified bound" in rml["detail"]


def test_bounds_exp_power_explicit_brackets():
    code, rep = run_json(["bounds", "--family", "exp-power", "--alpha", "1",
                          "--n", "3"])
    assert code == 0
    ex = recs(rep, "exp_power_explicit")[0]
    assert rel(ex["lower"], 1.0 / 6.0) < 1e-12
    assert rel(ex["upper"], 0.25) < 1e-12
    si = recs(rep, "exp_power_simplified")[0]
    assert rel(si["lower"], 1.0 / 6.0) < 1e-12
    assert rel(si["upper"], 5.0 / 9.0) < 1e-12


def test_bounds_divergent_moment_warning_path():
    code, rep = run_json(["bounds", "--family", "cauchy", "--beta", "1.8",
                          "--n", "3", "--weight", "one-plus-r2"])
    assert code == 0 and rep["status"] == "warning"
    assert any("unavailable" in w for w in rep["warnings"])
    assert not recs(rep, "moment_bracket")
    # t = beta - n/2 = 0.3: the inverse-curvature integral diverges
    wcl = recs(rep, "weighted_curvature_lower")
    assert wcl and wcl[0]["value"] == 0.0
    assert "non-informative" in wcl[0]["detail"]

    assert "defining integral diverges" in wcl[0]["detail"]

    rr = recs(rep, "reference_radial")
    assert rr and rel(rr[0]["value"], 0.09) < 1e-12
    vl = recs(rep, "variational_lower")
    assert vl and vl[0]["value"] <= 0.09 + 1e-9
    # the candidate (1+r^2)^(t/2) has E f^2 = infinity (logarithmically):
    # its Rayleigh quotient is no bound, and the report says why
    assert not recs(rep, "rayleigh_upper")
    assert any(w.startswith("Rayleigh upper bound unavailable: integrand "
                            "tail is still live") for w in rep["warnings"])


def test_bounds_log_divergent_second_moment_is_unavailable():
    # cauchy beta=2.5 n=3: r^2 nu is flat in log(1+r), so E|x|^2 diverges
    # logarithmically; no moment bracket is reported, and the note says why
    code, rep = run_json(["bounds", "--family", "cauchy", "--beta", "2.5",
                          "--n", "3"])
    assert code == 0 and rep["status"] == "warning"
    assert not recs(rep, "moment_bracket")
    assert any(w.startswith("second-moment bracket unavailable: ")
               for w in rep["warnings"]), rep["warnings"]


def test_bounds_gaussian_variational_is_exact():
    # r^2/2 is the gaussian's gap eigenfunction: its decay rate is 2 at
    # every radius, the grid's first (r_max 1e-6) included
    code, rep = run_json(["bounds", "--family", "gaussian", "--n", "5"])
    assert code == 0
    vl, = recs(rep, "variational_lower")
    assert abs(vl["value"] - 2.0) <= 1e-9


_CLI_FAMILY = {"exponential_power": "exp-power", "uniform_ball": "ball",
               "generalized_cauchy": "cauchy", "gaussian": "gaussian"}


def test_bounds_integrate_each_law_from_scratch_once(monkeypatch):
    # every bound's expectation is a dot product on the law's own rule:
    # over the 62 catalog bounds commands a partition is probed and seeded
    # from scratch only for the 62 normalizations
    fresh = []
    real = quadrature._probe

    def spy(*args):
        fresh.append(args)
        return real(*args)

    monkeypatch.setattr(quadrature, "_probe", spy)
    for spec in catalog.catalog_grid():
        argv = ["bounds", "--family", _CLI_FAMILY[spec.family],
                "--n", str(spec.n),
                "--weight", spec.weight_choice.replace("_", "-")]
        if spec.alpha is not None:
            argv += ["--alpha", repr(spec.alpha)]
        if spec.beta is not None:
            argv += ["--beta", repr(spec.beta)]
        assert run_cli(argv)[0] == 0, argv
    assert len(fresh) == 62


def test_bounds_failed_second_moment_is_computed_once(monkeypatch):
    # the weighted comparison re-raises the bracket's failure instead of
    # integrating E[r^2] again
    def failing(measure, k):
        raise ConvergenceError("second moment did not settle")

    calls = spy_on(monkeypatch, "moment", failing)
    code, rep = run_json(["bounds", "--family", "cauchy", "--beta", "4",
                          "--n", "3", "--weight", "one-plus-r2"])
    assert code == 0 and len(calls) == 1
    for label in ("second-moment bracket", "weighted comparison"):
        assert (f"{label} numerically unavailable: second moment did not "
                "settle") in rep["warnings"]
    assert not recs(rep, "moment_bracket")
    assert not recs(rep, "weighted_comparison")


def test_bounds_integrates_the_second_moment_once(monkeypatch):
    # radial_moment_lower takes the case's m2 instead of integrating it
    # again; every specgap module's reference to moment is spied on
    real = radial_model.moment
    orders = []

    def spy(measure, k):
        orders.append(k)
        return real(measure, k)

    for name, module in list(sys.modules.items()):
        if name.startswith("specgap") and getattr(module, "moment",
                                                  None) is real:
            monkeypatch.setattr(module, "moment", spy)
    code, rep = run_json(["bounds", "--family", "gaussian", "--n", "3"])
    assert code == 0 and recs(rep, "radial_moment_lower")
    assert orders.count(2) == 1


def test_cells_is_read_only_by_solving_commands():
    for argv in (["bounds", "--family", "gaussian", "--n", "3"],
                 ["table", "--id", "ball", "--dims", "2", "--no-solve"]):
        code, rep = run_json(argv + ["--cells", "100"])
        assert code == 0 and rep["status"] == "ok"


# ------------------------------------------------------------------- eigen


def test_eigen_gaussian():
    code, rep = run_json(["eigen", "--family", "gaussian", "--n", "5"])
    assert code == 0
    sg = recs(rep, "spectral_gap")[0]
    assert abs(sg["value"] - 2.0) < 1e-5
    assert 0 <= sg["error"] < 1e-4
    assert "n_cells_used=" in sg["detail"]
    assert recs(rep, "reference_radial")[0]["value"] == 2.0
    # the truncation bracket: one domain, whose Dirichlet end is the value
    assert sg["lower"] <= sg["value"] == sg["upper"]
    assert sg["upper"] - sg["lower"] <= sg["error"]
    assert "domains_solved=1 " in sg["detail"]
    assert "value=the last domain's Dirichlet end" in sg["detail"]


def test_eigen_heavy_tail_essential_edge():
    code, rep = run_json(["eigen", "--family", "cauchy", "--beta", "2.5",
                          "--n", "3", "--weight", "one-plus-r2"])
    assert code == 0
    sg = recs(rep, "spectral_gap")[0]
    assert abs(sg["value"] - 1.0) <= 1e-3 + 3.0 * sg["error"]
    # t = 1: the value is the edge t^2, the bracket's upper end
    assert sg["lower"] <= sg["value"] == sg["upper"]
    assert "value=W_inf, the essential-spectrum edge" in sg["detail"]


def test_eigen_ball():
    code, rep = run_json(["eigen", "--family", "ball", "--n", "8"])
    assert code == 0
    sg = recs(rep, "spectral_gap")[0]
    want = float(jn_zeros(4, 1)[0]) ** 2  # radial gap of the n=8 ball
    assert rel(sg["value"], want) < 1e-6
    assert sg["value"] >= 63.0 / 4.0
    # a bounded law is not truncated: its bracket is its value
    assert sg["lower"] == sg["value"] == sg["upper"]


@pytest.mark.parametrize("argv,error", [
    (["--family", "ball", "--n", "2048"], "DiscretizationError: "),
    (["--family", "cauchy", "--beta", "4.1", "--n", "8"],
     "HypothesisFailed: no spectral gap"),
    (["--family", "exp-power", "--alpha", "1.5", "--n", "4",
      "--weight", "inv-one-plus-r2"],
     "HypothesisFailed: no spectral gap"),
], ids=["density-past-double-range", "no-gap", "no-gap-at-the-edge"])
def test_eigen_failures_are_typed(argv, error):
    # the report names the failure; no raw exception reaches the CLI
    code, rep = run_json(["eigen"] + argv)
    assert code == 1 and rep["status"] == "error"
    assert rep["error"].startswith(error), rep["error"]


# ------------------------------------------------------------------ verify


def test_verify_gamma_inequalities():
    code, rep = run_json(["verify", "--scope", "gamma-inequalities"])
    assert code == 0 and rep["status"] == "ok"
    assert len(recs(rep, "gamma_ratio")) == 63
    assert all(r["detail"].startswith("pass") for r in rep["records"])
    li = recs(rep, "log_gamma_integers")[0]
    lh = recs(rep, "log_gamma_half_integers")[0]
    assert li["value"] <= 1e-13 and lh["value"] <= 1e-13


def test_verify_heavy_tail_exact_subset():
    code, rep = run_json(["verify", "--scope", "cauchy-exact",
                          "--max-cases", "3"])
    assert code == 0
    ce = recs(rep, "cauchy_exact")
    assert len(ce) == 3
    assert all(r["detail"].startswith("pass") for r in ce)


def test_verify_heavy_tail_exact_at_the_coarsest_mesh():
    # at 64 cells the solves miss their exact gaps by up to 10% relative,
    # within three of their reported errors: the rule the bracketing
    # sweep holds radial exact values to
    code, rep = run_json(["verify", "--scope", "cauchy-exact",
                          "--cells", "64"])
    assert code == 0 and rep["status"] == "ok"
    ce = recs(rep, "cauchy_exact")
    assert len(ce) == 20
    assert all(r["detail"].startswith("pass") for r in ce)
    assert max(r["value"] for r in ce) > 1e-3


def test_verify_bracketing_subset():
    code, rep = run_json(["verify", "--scope", "bracketing",
                          "--max-cases", "4"])
    assert code == 0
    fc = recs(rep, "full_containment")
    assert len(fc) == 4
    assert all(r["detail"].startswith("pass") for r in fc)


def test_verify_all_solves_each_case_once(monkeypatch):
    # 20 cauchy-exact cases and the 62 catalog cases share 16 specs, and
    # a warning of a shared case is reported once
    calls = spy_on(monkeypatch, "spectral_gap")
    code, rep = run_json(["verify", "--scope", "all"])
    assert code == 0
    assert len(recs(rep, "cauchy_exact")) == 20
    assert len(calls) == 66
    edge = recs(rep, "edge")
    assert len(edge) == 62
    assert all(r["detail"].startswith("pass") for r in edge)
    warnings = rep["warnings"]
    assert warnings and len(set(warnings)) == len(warnings)


def test_verify_names_a_gap_above_the_edge_a_solver_defect(monkeypatch):
    # the first catalog case, exp-power alpha = 1 n = 2, solves to 0.2222;
    # an edge below that must fail the edge check
    monkeypatch.setattr(cli, "essential_edge", lambda measure, weight:
                        (0.1, 0.0))
    code, rep = run_json(["verify", "--scope", "bracketing",
                          "--max-cases", "1"])
    assert code == 1
    (edge,) = recs(rep, "edge")
    assert edge["detail"].startswith("FAIL") and edge["upper"] == 0.1
    assert "solver defect on exponential_power" in rep["error"], rep["error"]


def _refuse_t25_up_to_n4(monkeypatch):
    """Make cli.spectral_gap refuse the cauchy t = 2.5 laws with n <= 4 as
    unresolved, as the domain-doubling solver did at 64 cells; every other
    law is solved."""
    real = cli.spectral_gap

    def solve(measure, weight, opts=None):
        est = real(measure, weight, opts)
        if "generalized_cauchy" in measure.name and abs(
                est.value - 6.0) <= est.error_estimate and measure.n <= 4:
            raise ConvergenceError(
                f"spectral gap not resolved: lambda_1 = {est.value:.3e} "
                f"does not exceed its error ...")
        return est

    monkeypatch.setattr(cli, "spectral_gap", solve)


def test_verify_records_a_raising_solve_and_goes_on(monkeypatch):
    # at 64 cells the solver refuses none of the catalog laws (see
    # test_solver_references), so a solver that refuses the three cauchy
    # t = 2.5 laws with n <= 4 stands in for a refusal; each sweep records
    # it as a failing check, and the report keeps every other record
    _refuse_t25_up_to_n4(monkeypatch)
    code, rep = run_json(["verify", "--scope", "all", "--cells", "64"])
    assert code == 1 and rep["status"] == "error"
    assert len(recs(rep, "gamma_ratio")) == 63
    ce = recs(rep, "cauchy_exact")
    raised = [r for r in ce if "solver raised ConvergenceError: spectral "
              "gap not resolved" in r["detail"]]
    assert len(ce) == 20 and len(raised) == 3
    assert all(r["detail"].startswith("FAIL") for r in raised)
    assert all(r["detail"].startswith("pass") for r in ce if r not in raised)
    assert len(recs(rep, "bracket_containment")) == 3
    assert len(recs(rep, "edge")) == 59
    # the two sweeps' three refusals are the only failures
    assert rep["error"].startswith("6 check(s) failed: solver failed on "
                                   "generalized_cauchy beta=3.5 n=2")
    assert "more" not in rep["error"], rep["error"]


def test_verify_error_names_eight_failures_and_counts_the_rest(monkeypatch):
    # an edge at 0 puts each of the ten solved gaps above it
    monkeypatch.setattr(cli, "essential_edge", lambda measure, weight:
                        (0.0, 0.0))
    code, rep = run_json(["verify", "--scope", "bracketing",
                          "--max-cases", "10"])
    assert code == 1
    assert rep["error"].startswith("10 check(s) failed: solver defect on ")
    assert rep["error"].endswith("; ... and 2 more"), rep["error"]


def test_eigen_solves_once_per_call(monkeypatch):
    # nothing is cached between main() calls
    calls = spy_on(monkeypatch, "spectral_gap")
    argv = ["eigen", "--family", "gaussian", "--n", "3"]
    first = run_cli(argv)
    assert len(calls) == 1
    assert run_cli(argv) == first
    assert len(calls) == 2


# ------------------------------------------------------------------- table


def test_table_ball_csv_and_values():
    code, text = run_cli(["table", "--id", "ball", "--dims", "2,4",
                          "--format", "csv"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3

    code, rep = run_json(["table", "--id", "ball", "--dims", "2,4"])
    assert code == 0
    rows = recs(rep, "ball")
    for row, n in zip(rows, (2, 4)):
        want = float(jn_zeros(n / 2.0, 1)[0]) ** 2
        assert rel(row["lower"], (n - 1) * (n + 2) / n) < 1e-12
        assert rel(row["upper"], n + 2) < 1e-12
        assert rel(row["value"], want) < 1e-6
        assert row["scaling"] == float(n * n)


def test_table_exp_power_asymptotics_no_solve():
    code, rep = run_json(["table", "--id", "exp-power-asymptotics",
                          "--no-solve", "--alphas", "2", "--dims", "2..4"])
    assert code == 0
    rows = recs(rep, "exp-power-asymptotics")
    assert len(rows) == 3
    assert all(r["value"] is None for r in rows)
    for r in rows:
        assert rel(r["lower"], (r["n"] - 1) / r["n"]) < 1e-12
        assert rel(r["upper"], 1.0) < 1e-12
        assert r["scaling"] == 1.0


def test_table_heavy_tail_default_betas_no_solve():
    code, rep = run_json(["table", "--id", "cauchy-n3", "--no-solve"])
    assert code == 0
    rows = recs(rep, "cauchy-n3")
    assert len(rows) == 5
    by_beta = {r["beta"]: r for r in rows}
    assert by_beta[2.5]["lower"] == 1.0 and by_beta[2.5]["upper"] == 1.0
    assert by_beta[6.0]["lower"] == by_beta[6.0]["upper"] == 10.0


def test_table_records_a_raising_solve_and_keeps_the_other_rows(
        monkeypatch):
    # at 64 cells the beta=4 row now solves, 5.85 +- 0.57 against its gap
    # 6; refused as unresolved, as it was by the domain-doubling solver,
    # it is a failing check, and the beta=2.5 row keeps its solved value
    code, rep = run_json(["table", "--id", "cauchy-n3", "--betas", "2.5,4",
                          "--cells", "64"])
    rows = {r["beta"]: r for r in recs(rep, "cauchy-n3")
            if r["record"] == "row"}
    assert code == 0 and abs(rows[4.0]["value"] - 6.0) <= rows[4.0]["error"]
    _refuse_t25_up_to_n4(monkeypatch)
    code, rep = run_json(["table", "--id", "cauchy-n3", "--betas", "2.5,4",
                          "--cells", "64"])
    assert code == 1 and rep["status"] == "error"
    rows = {r["beta"]: r for r in recs(rep, "cauchy-n3")
            if r["record"] == "row"}
    assert sorted(rows) == [2.5, 4.0]
    assert abs(rows[2.5]["value"] - 1.0) <= rows[2.5]["error"]
    assert rows[4.0]["value"] is None and rows[4.0]["lower"] > 5.0
    [check] = [r for r in recs(rep, "cauchy-n3") if r["record"] == "check"]
    assert check["beta"] == 4.0
    assert check["detail"].startswith("FAIL: solver raised ConvergenceError: "
                                      "spectral gap not resolved")
    assert rep["error"].startswith("1 check(s) failed: solver failed on "
                                   "generalized_cauchy beta=4 n=3")


# ------------------------------------------------------------------ tables

_CAUCHY_WEIGHTED = ["--family", "cauchy", "--beta", "4", "--n", "3",
                    "--weight", "one-plus-r2"]


@pytest.mark.parametrize("command, tables", [
    ("bounds", 0), ("eigen", 0), ("sample", 1)])
def test_only_sample_builds_the_sampling_table(monkeypatch, command, tables):
    # the 4096-cell quantile table is integrated on the first draw
    built = []
    real = radial_model.log_integrals_exp

    def spy(log_f, lo, hi):
        if len(lo) == 4096:
            built.append(lo)
        return real(log_f, lo, hi)

    monkeypatch.setattr(radial_model, "log_integrals_exp", spy)
    extra = ["--count", "2000"] if command == "sample" else []
    code, _ = run_json([command] + _CAUCHY_WEIGHTED + extra)
    assert code == 0
    assert len(built) == tables


def test_bounds_computes_each_diagnostic_grid_once(monkeypatch):
    # bounds never samples, so every quantile-table evaluation places a
    # diagnostic grid; keyed by its probabilities, none is repeated
    grids = []
    real = radial_model._MonotoneCubic.__call__

    def spy(self, v):
        v = np.asarray(v, dtype=float)
        grids.append((v.size, float(v.flat[0]), float(v.flat[-1])))
        return real(self, v)

    monkeypatch.setattr(radial_model._MonotoneCubic, "__call__", spy)
    code, _ = run_json(["bounds"] + _CAUCHY_WEIGHTED)
    assert code == 0
    assert 0 < len(grids) == len(set(grids)) <= 4


# ------------------------------------------------------------------ sample


def test_sample_determinism_and_gaussian_ci():
    argv = ["sample", "--family", "gaussian", "--n", "3",
            "--function", "linear", "--seed", "7", "--count", "20000"]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == 0 and code2 == 0
    assert text1 == text2
    rep = json.loads(text1)
    mc = recs(rep, "rayleigh_estimate")[0]
    assert abs(mc["value"] - 1.0) <= mc["error"]


def test_sample_heavy_tail_quadratic_pinned():
    code, rep = run_json(["sample", "--family", "cauchy", "--beta", "4",
                          "--n", "3", "--weight", "one-plus-r2",
                          "--seed", "20240817", "--count", "100000"])
    assert code == 0
    mc = recs(rep, "rayleigh_estimate")[0]
    # frozen value for this seed; the population ratio is 6, not 2
    assert abs(mc["value"] - 6.0652349731731875) < 2e-4
    assert abs(mc["value"] - 6.0) <= mc["error"]
    assert abs(mc["value"] - 2.0) > mc["error"]


def test_sample_tiny_count_same_report_under_both_functions():
    # the radii-only path rejects a sample too small for batch means with
    # the points path's report; only the echoed --function differs
    texts = {}
    for function in ("linear", "radial-quadratic"):
        code, texts[function] = run_cli(
            ["sample", "--family", "gaussian", "--n", "3", "--count", "15",
             "--function", function])
        assert code == 2
    rep = json.loads(texts["linear"])
    VALIDATOR.validate(rep)
    assert rep["error"] == ("InvalidInput: need at least 16 points for "
                            "batch means, got 15")
    assert texts["radial-quadratic"].replace(
        '"function": "radial-quadratic"', '"function": "linear"') == (
        texts["linear"])


@pytest.mark.parametrize("function", ["linear", "radial-quadratic"])
def test_sample_tiny_count_refused_before_any_table(monkeypatch, function):
    # a sample too small for batch means is refused before the law's
    # tables are integrated, the 4096-cell sampling table included
    built = []
    real = radial_model.log_integrals_exp

    def spy(log_f, lo, hi):
        built.append(len(lo))
        return real(log_f, lo, hi)

    monkeypatch.setattr(radial_model, "log_integrals_exp", spy)
    code, rep = run_json(["sample", "--family", "gaussian", "--n", "3",
                          "--count", "15", "--function", function])
    assert code == 2
    assert rep["error"] == ("InvalidInput: need at least 16 points for "
                            "batch means, got 15")
    assert built == []


def test_steep_power_laws_approach_the_ball():
    # exp-power alpha -> inf tends to the ball, whose n=2 radial gap is
    # j_{1,1}^2; the solver's radius grid is coarser than these density
    # walls, the plain central difference misjudges r^m for |m| > ~775,
    # and the CDF table meets cells where the density underflows to 0
    ball = float(jn_zeros(1, 1)[0]) ** 2
    gaps = []
    for alpha in ("260", "300", "500", "1024", "4096", "1e6"):
        code, rep = run_json(["eigen", "--family", "exp-power", "--alpha",
                              alpha, "--n", "2"])
        assert code == 0, rep["error"]
        gaps.append(recs(rep, "spectral_gap")[0]["value"])
    assert all(a < b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < ball and abs(gaps[-1] / ball - 1.0) <= 1e-4, gaps
    for n in ("2048", "4096"):
        assert run_json(["bounds", "--family", "ball", "--n", n])[0] == 0
    assert run_json(["sample", "--family", "exp-power", "--alpha", "1e6",
                     "--n", "2"])[0] == 0
    grid = np.linspace(0.5, 1.01, 41)
    with pytest.raises(InvalidInput, match="finite differences"):
        radial_model._fd_check(lambda r: r ** 1024 / 1024,
                               lambda r: (1.0 + 1e-4) * r ** 1023,
                               "f'", grid)


@pytest.mark.parametrize("alpha", ["64", "1024"])
def test_underflowed_candidate_derivative_keeps_both_one_sided_bounds(alpha):
    # f' = r^(alpha-1) of the probe r^alpha/alpha underflows to 0 on the
    # bounds' grids, yet is positive there: both one-sided bounds are
    # reported, the variational one as non-informative (as for every
    # exp-power alpha >= 4), and no monotonicity failure is noted
    case = ["--family", "exp-power", "--alpha", alpha, "--n", "2"]
    code, rep = run_json(["bounds"] + case)
    assert code == 0 and rep["status"] == "ok", rep["warnings"]
    assert not any("is <= 0" in note for note in rep["warnings"])
    lower = recs(rep, "variational_lower")
    upper = recs(rep, "rayleigh_upper")
    assert len(lower) == 1 and lower[0]["value"] == 0.0
    assert len(upper) == 1 and math.isfinite(upper[0]["upper"])
    code, rep = run_json(["eigen"] + case)
    assert code == 0, rep["error"]
    assert upper[0]["upper"] >= recs(rep, "spectral_gap")[0]["value"]


def test_non_positive_grid_infimum_names_its_own_reason():
    # no integral defines the variational bound: it is non-informative
    # because its grid infimum is not positive
    code, rep = run_json(["bounds", "--family", "exp-power", "--alpha", "4",
                          "--n", "3"])
    assert code == 0
    (lower,) = recs(rep, "variational_lower")
    assert lower["value"] == 0.0
    assert ("non-informative (grid infimum of the decay rate is not finite "
            "and positive)") in lower["detail"]
    assert "diverges" not in lower["detail"]


# -------------------------------------------------------------- exit codes


@pytest.mark.parametrize("argv", [
    ["bounds", "--family", "cauchy", "--n", "3"],
    ["bounds", "--family", "cauchy", "--beta", "1", "--n", "3"],
    ["bounds", "--family", "gaussian", "--n", "1"],
    ["table", "--id", "cauchy-n3", "--betas", "xyz"],
    ["eigen", "--family", "gaussian", "--n", "3", "--cells", "100"],
    # twice the cell cap: harmless even if the guard failed
    ["eigen", "--family", "gaussian", "--n", "3", "--cells", "131072"],
    ["verify", "--scope", "cauchy-exact", "--max-cases", "0"],
    ["verify", "--scope", "cauchy-exact", "--max-cases", "-1"],
    # non-finite flags are echoed as null, so the report still renders
    ["bounds", "--family", "gaussian", "--n", "3", "--tail-tol", "nan"],
    ["bounds", "--family", "gaussian", "--n", "3", "--tail-tol", "inf"],
    ["bounds", "--family", "exp-power", "--alpha", "nan", "--n", "3"],
    ["bounds", "--family", "cauchy", "--beta", "inf", "--n", "3"],
], ids=["no-beta", "beta-at-threshold", "n1", "bad-betas", "bad-cells",
        "cells-over-cap", "max-cases-0", "max-cases-negative", "tail-tol-nan",
        "tail-tol-inf", "alpha-nan", "beta-inf"])
def test_usage_errors_exit_2(argv):
    code, text = run_cli(argv)
    assert code == 2
    rep = json.loads(text)
    assert rep["status"] == "error" and rep["error"]


def test_missing_beta_message_names_the_parameter():
    code, text = run_cli(["bounds", "--family", "cauchy", "--n", "3"])
    assert code == 2
    assert "beta" in json.loads(text)["error"].lower()


def test_unknown_command_is_argparse_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bogus-command"])
    assert exc.value.code == 2


# ------------------------------------------------------------------ output


def test_output_file_writes_and_validates(tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli(["bounds", "--family", "gaussian", "--n", "3",
                          "--output", str(out)])
    assert code == 0 and text == ""
    rep = json.loads(out.read_text())
    assert not sorted(VALIDATOR.iter_errors(rep), key=str)


def test_unwritable_output_exits_2_before_the_work(tmp_path, monkeypatch,
                                                   capsys):
    out = tmp_path / "missing" / "report.json"
    calls = spy_on(monkeypatch, "moment")
    code, text = run_cli(["bounds", "--family", "gaussian", "--n", "3",
                          "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and text == "" and not calls
    assert err.count("\n") == 1 and str(out) in err
    assert not out.exists()


def test_console_script_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "specgap.cli", "bounds", "--family",
         "gaussian", "--n", "3", "--format", "csv"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("record,name,family")


@pytest.fixture(scope="module")
def cli_import_modules():
    """sys.modules after a cold ``import specgap.cli``."""
    code = "import sys, specgap.cli; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


# log Gamma is math.lgamma, and scipy.special would cost ~0.13 s per start.
# The solver loads scipy's LAPACK extension from its file: the scipy.linalg
# package would import scipy's array-API layer, which clones numpy's
# namespace, numpy.f2py, numpy.testing and numpy.ma included
@pytest.mark.parametrize("prefix", [
    "scipy.optimize", "scipy.interpolate", "scipy.special", "scipy.linalg",
    "numpy.f2py", "numpy.testing", "numpy.ma"])
def test_cli_import_loads_no(cli_import_modules, prefix):
    assert [m for m in cli_import_modules
            if m == prefix or m.startswith(prefix + ".")] == []


# ---------------------------------------------------------- property sweep

_ERROR_NAMES = {name for name, obj in vars(errors).items()
                if isinstance(obj, type)
                and issubclass(obj, errors.SpecGapError)}
# brackets of the unweighted dynamics: they bound the solver's gap only
# under the unit weight, and say so under any other
_UNWEIGHTED = ("moment_bracket", "exp_power_explicit",
               "exp_power_simplified")
# the details of records that do not claim a bound
_UNCERTIFIED = ("not a certified bound", "for reference only")


@st.composite
def _family_argv(draw):
    family = draw(st.sampled_from(tuple(cli._CLI_FAMILY)))
    n = draw(st.integers(2, 256))
    argv = ["--family", family, "--n", str(n),
            "--weight", draw(st.sampled_from(tuple(cli._CLI_WEIGHT)))]
    if family == "exp-power":
        argv += ["--alpha", repr(draw(st.floats(1.0, 16.0)))]
    elif family == "cauchy":
        # t = beta - n/2 in (0, 20], with beta > n/2 after rounding
        t = draw(st.floats(0.0, 20.0, exclude_min=True)
                 .filter(lambda t: n / 2.0 + t > n / 2.0))
        argv += ["--beta", repr(n / 2.0 + t)]
    return argv


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_family_argv())
def test_random_specs_give_typed_exits_and_bounds_on_their_side(argv):
    reports = {}
    for command in ("bounds", "eigen"):
        code, rep = run_json([command] + argv)
        if code:
            assert code == 1, (command, argv, rep["error"])
            assert rep["error"].split(":")[0] in _ERROR_NAMES, rep["error"]
        reports[command] = rep
    for rec in reports["bounds"]["records"]:
        if rec["name"] in _UNWEIGHTED and rec["weight"] != "unit":
            assert "for reference only" in rec["detail"], (argv, rec)
    error = reports["eigen"]["error"]
    if error is not None:
        # a refusal denies a gap only where the essential spectrum
        # reaches zero; the law is built as the CLI builds it
        if error.startswith("HypothesisFailed: no spectral gap"):
            args = cli._build_parser().parse_args(["eigen"] + argv)
            law = catalog.make_family(cli._spec_from_args(args),
                                      tail_tol=args.tail_tol)
            edge, edge_err = essential_edge(*law[:2])
            assert abs(edge) <= edge_err, (argv, error, edge, edge_err)
        return
    sg = recs(reports["eigen"], "spectral_gap")[0]
    value, err = sg["value"], sg["error"]
    slack = 1e-6 * (1.0 + value)
    for rec in reports["bounds"]["records"]:
        if (rec["record"] != "bound"
                or any(text in rec["detail"] for text in _UNCERTIFIED)):
            continue
        if rec["lower"] is not None:
            assert rec["lower"] <= value + err + slack, (argv, rec, sg)
        if rec["name"] == "rayleigh_upper":
            assert rec["upper"] >= value - err - slack, (argv, rec, sg)
