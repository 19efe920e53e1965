"""Self-tests of the benchmark; they run the program but never change it.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

* two traced passes over a small slice of each workload give identical
  counters and span call counts;
* the checker passes genuine reports and flags doctored ones: a lower
  bound above an exact gap, a schema violation and a "numerically
  unavailable" note;
* the tracer restores every name it rebinds, and no program source file
  changes while the tests run.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

from check import check_report, make_reference, make_validator  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SCHEMA = os.path.join(SRC, "specgap", "schema", "run_report.schema.json")
SLICE = (0, 30, 61)     # exp-power, weighted gaussian, heavy tail


def _source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _traced_pass(argvs):
    env = dict(os.environ)
    env.pop("SPECGAP_THREADS", None)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py")],
        input=json.dumps({"argvs": argvs, "trace": True}),
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
        check=True)
    return json.loads(proc.stdout)


def _cli_report(argv):
    import specgap.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    return json.loads(buf.getvalue())


class CountersRepeat(unittest.TestCase):
    def test_two_traced_passes_agree(self):
        from specgap.catalog import catalog_grid

        grid = catalog_grid()
        cases = [grid[i] for i in SLICE]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                argvs = [argv for _, argv in commands(workload, 7, cases)]
                first, second = _traced_pass(argvs), _traced_pass(argvs)
                self.assertEqual(first["counters"], second["counters"])
                calls = [{k: v["calls"] for k, v in
                          summarize(run["spans"]).items()}
                         for run in (first, second)]
                self.assertEqual(calls[0], calls[1])
                self.assertEqual(calls[0]["cli.main"], len(argvs))
                self.assertTrue(all(isinstance(v, int) for v in
                                    first["counters"].values()))


class CheckerFlagsDoctoredReports(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from specgap import catalog

        cls.validator = make_validator(SCHEMA)
        cls.reference = staticmethod(make_reference(catalog))
        cls.spec = catalog.FamilySpec("gaussian", 3, "unit")
        cls.report = _cli_report(["bounds", "--family", "gaussian",
                                  "--n", "3"])

    def check(self, report):
        return check_report("bounds", self.spec, report, self.validator,
                            self.reference)

    def test_genuine_report_passes(self):
        verdict = self.check(self.report)
        self.assertEqual(verdict.failures, [])
        self.assertGreater(verdict.attempted, 5)

    def test_lower_bound_above_exact_gap(self):
        report = copy.deepcopy(self.report)
        rec = next(r for r in report["records"]
                   if r["name"] == "weighted_curvature_lower")
        rec["value"] = rec["lower"] = 2.5       # the exact radial gap is 2
        verdict = self.check(report)
        self.assertEqual(verdict.failed, 1)
        self.assertEqual(verdict.wrong, 1)

    def test_schema_violation(self):
        report = copy.deepcopy(self.report)
        report["records"][0]["value"] = "2.0"
        verdict = self.check(report)
        self.assertEqual(verdict.failed, 1)
        self.assertTrue(verdict.failures[0].startswith("schema:"))

    def test_numerically_unavailable_note(self):
        report = copy.deepcopy(self.report)
        report["records"] = [r for r in report["records"]
                             if r["name"] != "rayleigh_upper"]
        report["warnings"].append(
            "Rayleigh upper bound numerically unavailable: doctored")
        report["status"] = "warning"
        verdict = self.check(report)
        self.assertEqual(verdict.failed, 1)
        self.assertEqual(verdict.numeric_failures, 1)
        self.assertEqual(verdict.wrong, 0)
        self.assertEqual(verdict.attempted, self.check(self.report).attempted)

    def test_hypothesis_skip_is_not_a_failure(self):
        report = copy.deepcopy(self.report)
        report["warnings"].append("variational lower bound unavailable: x")
        verdict = self.check(report)
        self.assertEqual(verdict.failures, [])
        self.assertEqual(verdict.hypothesis_skips, 1)


class ProgramUntouched(unittest.TestCase):
    def test_tracer_restores_every_name(self):
        import specgap.cli  # noqa: F401  (loads every layer)

        modules = dict(sys.modules)
        names = [(modules[m], a) for m, a in
                 (("specgap.cli", "spectral_gap"),
                  ("specgap.quadrature", "quad"),
                  ("specgap.sl_eigensolver", "eigh_tridiagonal"),
                  ("specgap.radial_model", "tail_integral"))]
        measure_cls = modules["specgap.radial_model"].RadialMeasure
        before = [getattr(o, a) for o, a in names]
        before_lw = measure_cls.__dict__["log_weight"]
        tracer = Tracer()
        tracer.install(modules)
        self.assertIsNot(getattr(*names[0]), before[0])
        tracer.uninstall()
        self.assertEqual([getattr(o, a) for o, a in names], before)
        self.assertIs(measure_cls.__dict__["log_weight"], before_lw)


def main():
    digest = _source_digest()
    result = unittest.main(exit=False, verbosity=2).result
    if _source_digest() != digest:
        print("program sources changed while the self-tests ran",
              file=sys.stderr)
        return 1
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
