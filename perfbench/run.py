"""specgap benchmark: drives the public CLI over the 62-case catalog.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload eigen_catalog --seed 1 \\
        --seconds 30 --trace 0

Workloads: eigen_catalog, bounds_catalog, sample_catalog (see README.md).
Traffic is a closed loop with one client: each pass runs the workload's
62 commands serially in one fresh interpreter, in the order the seed
picks.  With ``--trace 0`` the run starts passes until ``--seconds``
seconds have gone by (at least two, so that ten commands lie beyond
p90) and reports the end-to-end metrics; with ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics.
Every report is checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; human-readable
lines come before it.  A full record is written under ``.perfbench_out/``.
"""

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_command, make_reference, make_validator  # noqa: E402
from probe import REFERENCE_S, scales  # noqa: E402
from spans import summarize  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

MIN_OPS = 100           # commands per run, so that ten lie beyond p90
SETUP_REPS = 5          # least cold starts per run; setup_s is their median
RUN_BUDGET_S = 150.0    # no pass starts that would end past this
DEADLINE_S = 175.0      # every child is killed by then

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_share": "ratio", "exact_rel_err_max": "ratio", "peak_rss_mb": "MB",
}

_SPAN_METRICS = (
    "quadrature.tail_integral", "quadrature.log_integrals_exp",
    "sl_eigensolver.spectral_gap",
    "bounds_engine.curvature_lower", "bounds_engine.radial_moment_lower",
    "bounds_engine.weighted_curvature_lower",
    "bounds_engine.variational_lower", "bounds_engine.rayleigh_upper",
    "radial_model.build_measure", "radial_model.moment",
    "radial_model.weighted_moment", "radial_model.truncation_radius",
    "catalog.make_family",
)
PER_LAYER = {}
for _name in _SPAN_METRICS:
    PER_LAYER[_name + ".s"] = "s"
    PER_LAYER[_name + ".calls"] = "count"
PER_LAYER.update({
    "quadrature.quad.calls": "count", "quadrature.quad.evals": "count",
    "quadrature.quad.subintervals": "count",
    "quadrature.quad.limit_hits": "count",
    "radial_model.log_weight.calls": "count",
    "radial_model.log_weight.points": "count",
    "sl_eigensolver.eigh.calls": "count", "sl_eigensolver.eigh.rows": "count",
    "sl_eigensolver.domain_solves": "count",
    "sl_eigensolver.useful_solve_ratio": "ratio",
    "cli.report_warnings": "count",
    "bounds_engine.numeric_failures": "count",
    "bounds_engine.hypothesis_skips": "count",
    "mc_sampler.sample_mu.s": "s", "mc_sampler.rayleigh_estimate.s": "s",
    "mc_sampler.points": "count",
    "cli.main.s": "s", "cli.main.self_s": "s", "cli.report_bytes": "count",
    "setup.deps_s": "s", "setup.specgap_s": "s",
    "trace.overhead_s": "s",
})
_MESH_LEVELS = 3        # solves per domain at the default 1024 cells


class BenchError(Exception):
    pass


class Bench:
    """One benchmark run in one checkout."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.src = os.path.join(root, "src")
        env = dict(os.environ)
        # the traffic model leaves the thread knob unset (one thread)
        env.pop("SPECGAP_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        self.env = env
        self.started = time.perf_counter()

    # -- child processes -----------------------------------------------

    def _child(self, args, stdin=None):
        self.spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable] + args, input=stdin, capture_output=True,
                text=True, env=self.env, cwd=self.root,
                timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[:2]} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"child {args[:2]} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return proc

    def cold_import(self):
        """(seconds, probe): seconds from spawning a fresh interpreter
        until it has finished ``import specgap.cli``, and the host-speed
        probe it took right after."""
        proc = self._child(
            ["-c", "import specgap.cli, time; t = time.monotonic(); "
                   f"import sys; sys.path.insert(0, {HERE!r}); "
                   "from probe import probe; print(t, probe(5))"])
        imported_at, speed = map(float, proc.stdout.split())
        return imported_at - self.spawned_at, speed

    def import_split(self):
        """(deps_s, specgap_s): self-import time from ``-X importtime``."""
        proc = self._child(["-X", "importtime", "-c", "import specgap.cli"])
        deps = own = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|(\s*)(\S+)", line)
            if m is None:
                continue
            if m.group(3).split(".")[0] == "specgap":
                own += int(m.group(1))
            else:
                deps += int(m.group(1))
        return deps * 1e-6, own * 1e-6

    def run_pass(self, argvs, trace=False):
        job = json.dumps({"argvs": argvs, "trace": trace})
        proc = self._child([os.path.join(HERE, "passrun.py")], stdin=job)
        result = json.loads(proc.stdout)
        result["import_s"] = result["imported_at"] - self.spawned_at
        return result

    def elapsed(self):
        return time.perf_counter() - self.started


def _quantile(values, q):
    """Linear-interpolated quantile, q in (0, 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


class Tally:
    """Checked outcomes of every command a run executed."""

    def __init__(self, validator, reference):
        self.validator = validator
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.numeric = []
        self.exact_rel = []

    def check(self, command, specs, result, count=True):
        verdicts = []
        for spec, res in zip(specs, result["commands"]):
            v = check_command(command, spec, res["rc"], res["report"],
                              self.validator, self.reference)
            verdicts.append(v)
            if v.exact_rel_err is not None:
                self.exact_rel.append(v.exact_rel_err)
            if v.wrong:
                self.wrong.append(f"{spec.label()}: {v.failures}")
            if count:
                self.attempted += v.attempted
                self.failed += v.failed
                self.numeric.extend(f"{spec.label()}: {f}"
                                    for f in v.failures[:v.numeric_failures])
        return verdicts


def cpu_steal_s():
    """Seconds of CPU time the hypervisor took from this machine so far,
    or None where /proc/stat does not say; recorded so that a slow run
    can be told apart from a slow program."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_record(bench):
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(bench.root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bench.root, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "SPECGAP_THREADS": os.environ.get("SPECGAP_THREADS", "unset"),
        "workload": bench.workload,
        "seed": bench.seed,
        "git_commit": commit or "unavailable (not a git checkout)",
        "platform": platform.platform(),
    }


def measure_end_to_end(bench, plan, tally, seconds, grid):
    command = WORKLOADS[bench.workload]
    specs = [spec for spec, _ in plan]
    argvs = [argv for _, argv in plan]

    bench.cold_import()                 # writes bytecode; not timed
    # passes start until --seconds have gone by since the first one
    # started, interpreter starts included; every pass runs the same
    # cases, so the pass count changes how many samples the percentiles
    # pool, not what they estimate.  Every pass starts with the CLI's
    # cold start, so each one is a set-up sample; standalone imports top
    # them up to SETUP_REPS.  Every timing is scaled to reference host
    # speed (probe.py); the raw ones go to the record
    setups, walls, rss, lat, per_pass = [], [], [], [], []
    raw_setups, raw_walls, raw_lat, probes = [], [], [], []
    min_passes = math.ceil(MIN_OPS / len(argvs))
    first_start = time.perf_counter()
    while (len(walls) < min_passes
           or time.perf_counter() - first_start < seconds):
        if raw_walls and bench.elapsed() + raw_walls[-1] + 5.0 > RUN_BUDGET_S:
            break
        result = bench.run_pass(argvs)
        tally.check(command, specs, result)
        raw = [c["seconds"] for c in result["commands"]]
        pass_probes = [c["probe_s"] for c in result["commands"]]
        scaled = [t * k for t, k in zip(raw, scales(pass_probes))]
        raw_setups.append(result["import_s"])
        setups.append(result["import_s"] * REFERENCE_S
                      / result["import_probe_s"])
        per_pass.append(raw)
        probes.append(pass_probes)
        raw_walls.append(result["wall_s"])
        walls.append(sum(scaled))
        rss.append(result["peak_rss_kb"] / 1024.0)
        raw_lat.extend(1e3 * t for t in raw)
        lat.extend(1e3 * t for t in scaled)
    if len(lat) < MIN_OPS:
        raise BenchError(f"only {len(lat)} commands ran in the time budget")
    while len(setups) < SETUP_REPS:
        seconds_raw, speed = bench.cold_import()
        raw_setups.append(seconds_raw)
        setups.append(seconds_raw * REFERENCE_S / speed)

    if command != "eigen":
        # the solver's accuracy gate holds on every workload: solve the
        # cases with an exact radial gap once, outside all timing
        exact = [(s, a) for s, a in commands("eigen_catalog", bench.seed,
                                              grid)
                 if _has_exact_radial(tally.reference, s)]
        result = bench.run_pass([a for _, a in exact])
        tally.check("eigen", [s for s, _ in exact], result, count=False)

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": _quantile(lat, 0.5),
        "op_p90_ms": _quantile(lat, 0.9),
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "exact_rel_err_max": max(tally.exact_rel),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {"setup_runs_s": setups, "pass_walls_s": walls,
              "raw_setup_runs_s": raw_setups, "raw_pass_walls_s": raw_walls,
              "raw_op_p50_ms": _quantile(raw_lat, 0.5),
              "raw_op_p90_ms": _quantile(raw_lat, 0.9),
              "reference_probe_s": REFERENCE_S,
              "cases": [spec.label() for spec in specs],
              "command_s": per_pass, "command_probe_s": probes,
              "pass_peak_rss_mb": rss, "op_samples": len(lat),
              "op_beyond_p90": sum(x > metrics["op_p90_ms"] for x in lat)}
    return metrics, detail


def measure_per_layer(bench, plan, tally):
    command = WORKLOADS[bench.workload]
    specs = [spec for spec, _ in plan]
    argvs = [argv for _, argv in plan]

    bench.cold_import()
    deps_s, own_s = bench.import_split()
    plain = bench.run_pass(argvs)
    tally.check(command, specs, plain)
    traced = bench.run_pass(argvs, trace=True)
    verdicts = tally.check(command, specs, traced)

    spans = summarize(traced["spans"])
    counters = traced["counters"]
    metrics = {}
    for name in _SPAN_METRICS + ("mc_sampler.sample_mu",
                                 "mc_sampler.rayleigh_estimate", "cli.main"):
        entry = spans.get(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        for key in ("s", "calls", "self_s"):
            if f"{name}.{key}" in PER_LAYER:
                metrics[f"{name}.{key}"] = entry[key]
    metrics.update(counters)
    solves = counters["sl_eigensolver.eigh.calls"] / _MESH_LEVELS
    metrics["sl_eigensolver.domain_solves"] = solves
    metrics["sl_eigensolver.useful_solve_ratio"] = (
        metrics["sl_eigensolver.spectral_gap.calls"] / solves
        if solves else 0.0)
    metrics["cli.report_warnings"] = sum(v.warnings for v in verdicts)
    metrics["cli.report_bytes"] = sum(
        len(c["report"].encode()) for c in traced["commands"])
    metrics["bounds_engine.numeric_failures"] = sum(
        v.numeric_failures for v in verdicts)
    metrics["bounds_engine.hypothesis_skips"] = sum(
        v.hypothesis_skips for v in verdicts)
    metrics["setup.deps_s"] = deps_s
    metrics["setup.specgap_s"] = own_s
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    detail = {"untraced_wall_s": plain["wall_s"],
              "traced_wall_s": traced["wall_s"],
              "spans_recorded": len(traced["spans"]),
              "spans": traced["spans"]}
    return metrics, detail


def _has_exact_radial(reference, spec):
    ref = reference(spec, "radial")
    return ref is not None and ref.kind == "exact"


def _print_summary(record, metrics, units, tally, detail, trace):
    print(f"specgap benchmark: workload={record['workload']} "
          f"seed={record['seed']} trace={int(trace)}")
    for key in ("python", "numpy", "scipy", "nproc", "SPECGAP_THREADS",
                "git_commit", "cpu_steal_s"):
        print(f"  {key}: {record[key]}")
    for name, value in metrics.items():
        note = ""
        if name.startswith("op_p"):
            note = (f"  (n={detail['op_samples']} commands, "
                    f"{detail['op_beyond_p90']} beyond p90)")
        elif name == "wall_s":
            note = f"  (median of {len(detail['pass_walls_s'])} passes)"
        elif name == "setup_s":
            note = f"  (median of {len(detail['setup_runs_s'])} cold starts)"
        print(f"  {name} = {value!r} {units[name]}{note}")
    if "raw_pass_walls_s" in detail:
        probes = [p for ps in detail["command_probe_s"] for p in ps]
        print(f"  timings above are at reference host speed; host probe "
              f"median {1e3 * statistics.median(probes):.3f} ms against "
              f"{1e3 * REFERENCE_S:.3f} ms. Unscaled: "
              f"setup_s {statistics.median(detail['raw_setup_runs_s']):.4f}, "
              f"wall_s {statistics.median(detail['raw_pass_walls_s']):.4f}, "
              f"op_p50_ms {detail['raw_op_p50_ms']:.3f}, "
              f"op_p90_ms {detail['raw_op_p90_ms']:.3f}")
    share = tally.failed / tally.attempted
    print(f"  fail_share = {share!r} ({tally.failed} of {tally.attempted} "
          f"operations)")
    for line in list(dict.fromkeys(tally.numeric))[:10]:
        print(f"    numerically unavailable: {line[:160]}")
    for line in tally.wrong[:10]:
        print(f"    WRONG: {line[:300]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    schema = os.path.join(root, "src", "specgap", "schema",
                          "run_report.schema.json")
    if not os.path.isfile(os.path.join(root, "src", "specgap", "cli.py")):
        print("perfbench: run from the root of a specgap source checkout "
              "(src/specgap not found)", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    sys.path.insert(0, bench.src)
    from specgap import catalog

    grid = catalog.catalog_grid()
    tally = Tally(make_validator(schema), make_reference(catalog))
    plan = commands(args.workload, args.seed, grid)
    record = run_record(bench)
    steal_start = cpu_steal_s()
    try:
        if args.trace:
            metrics, detail = measure_per_layer(bench, plan, tally)
            units = PER_LAYER
        else:
            metrics, detail = measure_end_to_end(bench, plan, tally,
                                                 args.seconds, grid)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    steal_end = cpu_steal_s()
    record["cpu_steal_s"] = (None if steal_start is None or steal_end is None
                             else steal_end - steal_start)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"record": record, "metrics": metrics, "detail": detail,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "numerically_unavailable": tally.numeric,
                   "wrong": tally.wrong}, handle, indent=1)

    _print_summary(record, metrics, units, tally,
                   detail if not args.trace else {}, args.trace)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
